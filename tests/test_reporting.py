"""Artifact writers: the curve emitter against the generic table writers."""

import math

import numpy as np
import pytest

from extremebandits.engine import MinCurve
from extremebandits.reporting import Reporter

SPECIAL = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1, 1.0 / 3.0, 0.0, 2.5e-16]


@pytest.mark.parametrize("mode, n_trials, seed", [("exact", 0, None), ("monte_carlo", 400, 7)])
def test_emit_curve_matches_generic_writers(tmp_path, mode, n_trials, seed):
    values = np.array(SPECIAL)
    curve = MinCurve(
        t_max=len(SPECIAL),
        estimates=values,
        raw=np.roll(values, 3),
        se=np.roll(values, 7),
        mode=mode,
        n_trials=n_trials,
        seed=seed,
    )
    config = {"command": "simulate", "seed": 11, "mode": mode}
    Reporter(str(tmp_path / "got"), config).emit_curve(curve, "c")
    # The rows as the generic writers take them.
    ref = Reporter(str(tmp_path / "want"), config)
    rows = [[t + 1, curve.estimates[t], curve.raw[t], curve.se[t]] for t in range(curve.t_max)]
    ref.write_csv("c.csv", ["t", "estimate", "raw", "se"], rows)
    ref.write_records(
        "c.jsonl",
        (
            {"t": t + 1, "estimate": float(e), "raw": float(r), "se": float(s), "mode": mode, "n_trials": n_trials}
            for t, (e, r, s) in enumerate(zip(curve.estimates, curve.raw, curve.se))
        ),
    )
    for name in ("c.csv", "c.jsonl"):
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()
