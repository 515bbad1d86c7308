"""Command-line front end.

Five subcommands: simulate (running-minimum curve for a policy on a bandit),
regret (time-to-match clock against the single-armed oracle), verify (named
numerical checks), construct (materialize a hard two-armed-or-more instance
and its horizons), and best-arm-scan (closed-form two-point family scan).

Every run resolves to one config dict: file values (via --config) are
overridden by explicit flags, the result is schema-validated before anything
executes or touches the filesystem, and the resolved config plus its hash are
written next to the artifacts. A malformed command line exits 2 with a
one-line message, as a bad config does; verify simulates with the config's
policy, params included. Each flag is one row of _FLAGS (config path and
argparse options): a new flag is that row plus its CONFIG_SCHEMA property.
"""

from __future__ import annotations

import argparse
import json
import sys

import jsonschema

from . import engine
from .construction import (
    BAssignment,
    build_mixture,
    build_tuple,
    canonical_sequence,
    desk_sequence,
    horizon_T,
    horizon_Tprime,
    log_horizon_T,
    log_horizon_Tprime,
    user_sequence,
)
from .distributions import from_record, make_discrete, point_mass, uniform01
from .errors import ConfigInvalid, ExtremeBanditsError, HorizonOverflow, IoFailure
from .oracles import best_arm_scan
from .policies import baseline, make_policy
from .reporting import Reporter
from .verification import ALL_CHECKS, run_check

_DIST_RECORD = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["discrete", "uniform01"]},
        "atoms": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["value", "prob"],
                "properties": {
                    "value": {"type": "number", "minimum": 0, "maximum": 1},
                    "prob": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                },
            },
        },
    },
}

_PRESETS = ["bernoulli_vs_sure", "uniform_vs_sure", "half_vs_risky", "two_index", "canonical"]
_MODES = ["exact", "monte_carlo"]

_BANDIT = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "preset": {"enum": _PRESETS},
        "p": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "K": {"type": "integer", "minimum": 2},
        "depth": {"type": "integer", "minimum": 1},
        "alphas": {"type": "array", "minItems": 1, "items": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}},
        "assignment": {"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 1}},
        "mixture_index": {"type": ["integer", "null"], "minimum": 1},
        "arms": {"type": "array", "minItems": 1, "items": _DIST_RECORD},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["command", "seed"],
    "properties": {
        "command": {"enum": ["simulate", "regret", "verify", "construct", "best_arm_scan"]},
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        "out_dir": {"type": "string"},
        "workers": {"type": ["integer", "null"], "minimum": 1},
        "bandit": _BANDIT,
        "policy": {
            "type": "object",
            "additionalProperties": False,
            "required": ["name"],
            "properties": {"name": {"type": "string"}, "params": {"type": "object"}},
        },
        "horizon": {"type": "integer", "minimum": 1},
        "trials": {"type": "integer", "minimum": 1},
        "mode": {"enum": _MODES},
        "cap": {"type": ["integer", "null"], "minimum": 1},
        "bootstrap": {"type": "integer", "minimum": 0},
        "checks": {"type": "array", "minItems": 1, "items": {"type": "string"}},
        "horizons": {"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 1}},
        "grid": {"type": "integer", "minimum": 100},
    },
}


# JSON Schema counts 10.0 as an integer; the runners need exact ints.
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool)
    ),
)


def validate_config(config: dict) -> dict:
    try:
        jsonschema.validate(config, CONFIG_SCHEMA, cls=_Validator)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "(root)"
        raise ConfigInvalid(f"config invalid at {path}: {exc.message}", schema_path=path) from exc
    return config


def _arms_from_config(config: dict):
    bandit = config.get("bandit") or {}
    if "arms" in bandit:
        return tuple(from_record(r) for r in bandit["arms"])
    preset = bandit.get("preset")
    if preset == "bernoulli_vs_sure":
        p = bandit.get("p", 0.5)
        return (make_discrete([(0.0, 1.0 - p), (1.0, p)]), point_mass(1.0))
    if preset == "uniform_vs_sure":
        return (uniform01(), point_mass(1.0))
    if preset == "half_vs_risky":
        return (point_mass(0.5), make_discrete([(0.0, 0.25), (1.0, 0.75)]))
    if preset in ("two_index", "canonical"):
        _, _, tup = _construction_from_config(config)
        return tup.arms
    raise ConfigInvalid("bandit needs either explicit arms or a preset", schema_path="bandit")


def _construction_from_config(config: dict):
    bandit = config.get("bandit") or {}
    K = bandit.get("K", 2)
    preset = bandit.get("preset")
    if "alphas" in bandit:
        a = user_sequence(K, bandit["alphas"])
    elif preset == "canonical":
        a = canonical_sequence(K, bandit.get("depth", 4))
    elif preset == "two_index":
        a = desk_sequence(K)
    else:
        raise ConfigInvalid("construction needs preset two_index/canonical or explicit alphas", schema_path="bandit")
    assignment = bandit.get("assignment", [(j % K) + 1 for j in range(a.depth)])
    b = BAssignment(tuple(assignment))
    mixture_index = bandit.get("mixture_index")
    tup = build_mixture(a, b, mixture_index) if mixture_index else build_tuple(a, b)
    return a, b, tup


def _policy_from_config(config: dict, factory=make_policy):
    pol = config.get("policy") or {"name": "round_robin"}
    return factory(pol["name"], pol.get("params", {}))


# ---------------------------------------------------------------------------
# subcommand runners; each returns the process exit code.


def _wrote(rep: Reporter, code: int = 0) -> int:
    for path in rep.written:
        print(f"wrote {path}")
    return code


def run_simulate(config: dict) -> int:
    arms = _arms_from_config(config)
    policy = _policy_from_config(config)
    horizon = config.get("horizon", 100)
    mode = config.get("mode", "monte_carlo")
    rep = Reporter(config.get("out_dir", "out"), config)
    if mode == "exact":
        curve = engine.exact_min_curve(policy, arms, horizon)
    else:
        curve = engine.estimate_min_curve(
            policy, arms, horizon, config.get("trials", 1000), config["seed"], config.get("workers")
        )
    rep.write_config()
    rep.emit_curve(curve)
    print(f"simulate: policy={policy.name} mode={mode} horizon={horizon} final={curve.estimates[-1]:.17g}")
    return _wrote(rep)


def run_regret(config: dict) -> int:
    arms = _arms_from_config(config)
    policy = _policy_from_config(config)
    horizon = config.get("horizon", 100)
    rep = Reporter(config.get("out_dir", "out"), config)
    report = engine.extreme_regret(
        policy,
        arms,
        horizon,
        mode=config.get("mode", "monte_carlo"),
        n_trials=config.get("trials", 1000),
        seed=config["seed"],
        cap=config.get("cap"),
        bootstrap=config.get("bootstrap", 1000),
        workers=config.get("workers"),
    )
    rep.write_config()
    rep.emit_regret(report)
    t_prime = report.t_prime if report.t_prime is not None else "never(cap)"
    print(
        f"regret: policy={policy.name} horizon={horizon} oracle={report.oracle_value:.17g} "
        f"t_prime={t_prime} ratio={report.ratio:.17g}"
    )
    return _wrote(rep)


def run_verify(config: dict) -> int:
    wanted = config.get("checks", ["all"])
    ids = list(ALL_CHECKS) if wanted == ["all"] else wanted
    for cid in ids:
        if cid not in ALL_CHECKS:
            raise ConfigInvalid(f"unknown check {cid!r}; known: {', '.join(ALL_CHECKS)}", schema_path="checks")
    policy = _policy_from_config(config, baseline)
    rep = Reporter(config.get("out_dir", "out"), config)
    reports = []
    for cid in ids:
        reports.extend(run_check(cid, seed=config["seed"], workers=config.get("workers"), policy=policy))
    rep.write_config()
    rep.emit_checks(reports)
    all_passed = True
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        all_passed &= r.passed
        print(f"check {r.check_id}: {status} params={json.dumps(r.params, sort_keys=True, default=str)}")
    return _wrote(rep, 0 if all_passed else 1)


def run_construct(config: dict) -> int:
    a, b, tup = _construction_from_config(config)
    rep = Reporter(config.get("out_dir", "out"), config)
    horizons = {}
    for i in range(1, a.depth + 1):
        log_alpha = a.log_alphas[i - 1]
        entry: dict = {}
        try:
            entry["T"] = horizon_T(log_alpha)
        except HorizonOverflow:
            entry["log_T"] = log_horizon_T(log_alpha)
        try:
            entry["T_prime"] = horizon_Tprime(log_alpha, i, a.K)[0]
        except HorizonOverflow:
            entry["log_T_prime"] = log_horizon_Tprime(log_alpha, i, a.K)
        horizons[str(i)] = entry
    rep.write_config()
    rep.emit_tuple(tup, a.report, horizons)
    print(
        f"construct: K={a.K} depth={a.depth} kind={tup.kind} assignment={list(b.values)} "
        f"properties_pass={a.report.passed}"
    )
    return _wrote(rep)


def run_best_arm_scan(config: dict) -> int:
    horizons = config.get("horizons", [100, 1000, 10000])
    rep = Reporter(config.get("out_dir", "out"), config)
    results = [best_arm_scan(t, config.get("grid", 10000)) for t in horizons]
    rep.write_config()
    rep.emit_scan(results)
    for r in results:
        print(f"scan: horizon={r.horizon} s_star={r.s_star:.17g} value={r.value:.17g}")
    return _wrote(rep)


_RUNNERS = {
    "simulate": run_simulate,
    "regret": run_regret,
    "verify": run_verify,
    "construct": run_construct,
    "best_arm_scan": run_best_arm_scan,
}


# ---------------------------------------------------------------------------
# argument parsing: one table of flags drives both the parser and the merge of
# flags over config-file values.


def _csv_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _csv_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _arms_json(text: str) -> list:
    # ConfigInvalid is not a ValueError, so argparse passes it through as is.
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ConfigInvalid(f"--arms-json is not JSON: {exc}") from None


# Each flag: (option, config path, argparse keywords). A flag that is given
# sets the value at its path, over whatever the config file holds there.
_FLAGS = {
    "common": [
        ("--seed", ("seed",), {"type": int}),
        ("--out-dir", ("out_dir",), {}),
        ("--workers", ("workers",), {"type": int}),
    ],
    "bandit": [
        ("--bandit-preset", ("bandit", "preset"), {"choices": _PRESETS}),
        ("--p", ("bandit", "p"), {"type": float, "help": "success mass for bernoulli_vs_sure"}),
        ("--arms-json", ("bandit", "arms"), {"type": _arms_json, "help": "explicit arms as a JSON array of records"}),
        ("--K", ("bandit", "K"), {"type": int}),
        ("--depth", ("bandit", "depth"), {"type": int}),
        ("--alphas", ("bandit", "alphas"), {"type": _csv_floats, "help": "comma-separated mass sequence"}),
        ("--assignment", ("bandit", "assignment"), {"type": _csv_ints, "help": "comma-separated arm per index"}),
        ("--mixture-index", ("bandit", "mixture_index"), {"type": int}),
    ],
    "policy": [("--policy", ("policy", "name"), {"help": "policy name; config-file params are dropped if it differs"})],
    "params": [
        ("--epsilon", ("policy", "params", "epsilon"), {"type": float}),
        ("--q", ("policy", "params", "q"), {"type": float}),
        ("--explore-every", ("policy", "params", "explore_every"), {"type": int}),
        ("--arm", ("policy", "params", "arm"), {"type": int, "help": "arm for fixed_arm"}),
        ("--prefix", ("policy", "params", "prefix"), {"type": _csv_ints, "help": "arm prefix for arm_sequence"}),
        ("--tail-arm", ("policy", "params", "tail_arm"), {"type": int, "help": "tail arm for arm_sequence"}),
    ],
    "run": [
        ("--horizon", ("horizon",), {"type": int}),
        ("--trials", ("trials",), {"type": int}),
        ("--mode", ("mode",), {"choices": _MODES}),
    ],
    "cap": [
        ("--cap", ("cap",), {"type": int}),
        ("--bootstrap", ("bootstrap",), {"type": int}),
    ],
    "scan": [
        ("--horizons", ("horizons",), {"type": _csv_ints}),
        ("--grid", ("grid",), {"type": int}),
    ],
}

# Each subcommand: its help line and the flag groups it takes.
_COMMANDS = {
    "simulate": ("estimate or exactly compute a running-minimum curve", ["common", "bandit", "policy", "params", "run"]),
    "regret": ("time-to-match clock against the single-armed oracle", ["common", "bandit", "policy", "params", "run", "cap"]),
    "verify": ("run named numerical checks; exit 0 iff all pass", ["common", "policy"]),
    "construct": ("materialize a hard instance and its horizons", ["common", "bandit"]),
    "best-arm-scan": ("scan the two-point family for the best commit arm", ["common", "scan"]),
}


def _flags(command: str):
    for group in _COMMANDS[command][1]:
        yield from _FLAGS[group]


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as ConfigInvalid (one line, exit 2)."""

    def error(self, message):
        raise ConfigInvalid(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="extremebandits", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; explicit flags override its values")
        if command == "verify":
            p.add_argument("checks", nargs="*", help=f"all or any of: {', '.join(ALL_CHECKS)}")
        for flag, _, options in _flags(command):
            p.add_argument(flag, **options)
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    config: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except OSError as exc:
            raise IoFailure(f"cannot read config file {args.config}: {exc.strerror}") from None
        except ValueError as exc:
            raise ConfigInvalid(f"config file {args.config} is not JSON: {exc}") from None
        if not isinstance(config, dict):
            raise ConfigInvalid(f"config file {args.config} does not hold a JSON object")
    config["command"] = args.command.replace("-", "_")
    config.setdefault("seed", 0)
    policy, name = config.get("policy"), getattr(args, "policy", None)
    if isinstance(policy, dict) and name not in (None, policy.get("name")):
        policy.pop("params", None)  # stale params from another policy don't carry over
    for flag, path, _ in _flags(args.command):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            node = config
            for key in path[:-1]:
                if not isinstance(node.get(key), dict):
                    node[key] = {}
                node = node[key]
            node[path[-1]] = value
    if hasattr(args, "policy") and isinstance(config.get("policy"), dict) and config["policy"]:
        config["policy"].setdefault("name", "round_robin")
    if args.command == "verify" and (args.checks or "checks" not in config):
        config["checks"] = args.checks or ["all"]
    return config


def main(argv: list[str] | None = None) -> int:
    try:
        config = validate_config(_merge_config(build_parser().parse_args(argv)))
        return _RUNNERS[config["command"]](config)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ExtremeBanditsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A size the schema accepts can still be too large to allocate.
        print(f"error: MemoryError: {exc or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
