"""Artifact files: CSV tables and line-delimited JSON records.

Every file carries the (seed, config_hash, version) triple (the CSVs in a
leading comment line, the JSONL records as fields) so any number in any
artifact can be traced back to the exact configuration that produced it.
Floats print with 17 significant digits; nothing here reads the clock, so
re-running a command reproduces artifacts byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os

import numpy as np

from .errors import IoFailure

VERSION = "0.1.0"


def fmt_float(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.17g}"
    return str(x)


def _json_float(x: float) -> str:
    return repr(x) if math.isfinite(x) else json.dumps(jsonable(x))


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and dataclasses to JSON types."""
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [jsonable(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, float) and (math.isinf(obj) or math.isnan(obj)):
        return None if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def config_hash(config: dict) -> str:
    canon = json.dumps(jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


class Reporter:
    """Writes one run's artifacts into out_dir with shared provenance."""

    def __init__(self, out_dir: str, config: dict):
        self.out_dir = out_dir
        # Execution knobs don't define the experiment: the same config must
        # produce byte-identical artifacts at any worker count or location.
        self.config = {k: v for k, v in config.items() if k not in ("out_dir", "workers")}
        self.hash = config_hash(self.config)
        self.seed = config.get("seed", 0)
        self.written: list[str] = []
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise IoFailure(f"cannot create output directory {out_dir}: {exc.strerror}") from None

    def _meta_line(self) -> str:
        return f"# seed={self.seed} config_hash={self.hash} version={VERSION}\n"

    def _meta_fields(self) -> dict:
        return {"seed": self.seed, "config_hash": self.hash, "version": VERSION}

    def _path(self, name: str) -> str:
        path = os.path.join(self.out_dir, name)
        self.written.append(path)
        return path

    def write_config(self):
        payload = {"config": jsonable(self.config), "config_hash": self.hash, "version": VERSION}
        with open(self._path("config.json"), "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")

    def write_csv(self, name: str, header: list[str], rows):
        with open(self._path(name), "w") as fh:
            fh.write(self._meta_line())
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(fmt_float(x) for x in row) + "\n")

    def write_records(self, name: str, records):
        meta = self._meta_fields()
        with open(self._path(name), "w") as fh:
            for rec in records:
                fh.write(json.dumps({**meta, **jsonable(rec)}, sort_keys=True))
                fh.write("\n")

    # -- result-type specific emitters ------------------------------------

    def emit_curve(self, curve, name: str = "curve"):
        """The curve as CSV and JSONL, byte for byte what write_csv and
        write_records give for its rows, rendered column by column."""
        columns = (range(1, curve.t_max + 1), curve.estimates.tolist(), curve.raw.tolist(), curve.se.tolist())
        with open(self._path(f"{name}.csv"), "w") as fh:
            fh.write(self._meta_line())
            fh.write("t,estimate,raw,se\n")
            # On a float, .17g prints nan, inf and -inf as fmt_float does.
            fh.writelines(f"{t},{e:.17g},{r:.17g},{s:.17g}\n" for t, e, r, s in zip(*columns))
        # One record as json.dumps(sort_keys=True) writes it, with a %s in
        # place of each column; the columns sort as estimate, raw, se, t.
        fields = {**self._meta_fields(), "mode": curve.mode, "n_trials": curve.n_trials}
        names = ("estimate", "raw", "se", "t")
        line = "{%s}\n" % ", ".join(
            f"{json.dumps(k)}: " + ("%s" if k in names else json.dumps(jsonable(fields[k])))
            for k in sorted([*fields, *names])
        )
        with open(self._path(f"{name}.jsonl"), "w") as fh:
            fh.writelines(line % (_json_float(e), _json_float(r), _json_float(s), t) for t, e, r, s in zip(*columns))

    def emit_regret(self, report, name: str = "regret"):
        header = ["horizon", "cap", "mode", "oracle_value", "t_prime", "ratio", "ci_low", "ci_high", "n_trials"]
        row = [
            report.horizon,
            report.cap,
            report.mode,
            report.oracle_value,
            report.t_prime,
            report.ratio,
            report.ci_low,
            report.ci_high,
            report.n_trials,
        ]
        self.write_csv(f"{name}.csv", header, [row])
        rec = {k: getattr(report, k) for k in header}
        self.write_records(f"{name}.jsonl", [rec])
        self.emit_curve(report.curve, f"{name}_curve")

    def emit_checks(self, reports, name: str = "checks"):
        self.write_csv(
            f"{name}.csv",
            ["check_id", "passed"],
            [[r.check_id, int(r.passed)] for r in reports],
        )
        self.write_records(f"{name}.jsonl", (jsonable(r) for r in reports))

    def emit_scan(self, results, name: str = "scan"):
        header = ["horizon", "s_star", "value", "upper_bound", "lower_bound"]
        rows = [[r.horizon, r.s_star, r.value, r.upper_bound, r.lower_bound] for r in results]
        self.write_csv(f"{name}.csv", header, rows)
        self.write_records(f"{name}.jsonl", (dict(zip(header, row)) for row in rows))

    def emit_tuple(self, tup, report, horizons, name: str = "bandit"):
        rows = []
        for k, d in enumerate(tup.arms, start=1):
            if d.is_discrete:
                for v, lp in zip(d.support, d.log_probs):
                    rows.append([k, v, math.exp(lp), lp])
            else:
                rows.append([k, "uniform01", "", ""])
        self.write_csv(f"{name}.csv", ["arm", "value", "prob", "log_prob"], rows)
        rec = {
            "kind": tup.kind,
            "gammas": list(tup.gammas),
            "log_gammas": list(tup.log_gammas),
            "assignment": list(tup.b.values),
            "mixture_index": tup.index,
            # "passed" is a derived property, so asdict-style dumps skip it.
            "properties": {**jsonable(report), "passed": bool(report.passed)},
            "horizons": horizons,
        }
        self.write_records(f"{name}.jsonl", [rec])
