"""Command-line front end.

Five subcommands: simulate (running-minimum curve for a policy on a bandit),
regret (time-to-match clock against the single-armed oracle), verify (named
numerical checks), construct (materialize a hard two-armed-or-more instance
and its horizons), and best-arm-scan (closed-form two-point family scan).

Every run resolves to one config dict: file values (via --config) are
overridden by explicit flags, the result is schema-validated before anything
executes or touches the filesystem, and the resolved config plus its hash are
written next to the artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys

import jsonschema

from . import engine
from .construction import (
    all_assignments,
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
from .policies import make_policy
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

_BANDIT = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "preset": {
            "enum": ["bernoulli_vs_sure", "uniform_vs_sure", "half_vs_risky", "two_index", "canonical"]
        },
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
        "mode": {"enum": ["exact", "monte_carlo"]},
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
    from .construction import BAssignment

    b = BAssignment(tuple(assignment))
    mixture_index = bandit.get("mixture_index")
    tup = build_mixture(a, b, mixture_index) if mixture_index else build_tuple(a, b)
    return a, b, tup


def _policy_from_config(config: dict):
    pol = config.get("policy") or {"name": "round_robin"}
    return make_policy(pol["name"], pol.get("params", {}))


# ---------------------------------------------------------------------------
# subcommand runners; each returns the process exit code.


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
    for path in rep.written:
        print(f"wrote {path}")
    return 0


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
    for path in rep.written:
        print(f"wrote {path}")
    return 0


def run_verify(config: dict) -> int:
    wanted = config.get("checks", ["all"])
    ids = list(ALL_CHECKS) if wanted == ["all"] else wanted
    for cid in ids:
        if cid not in ALL_CHECKS:
            raise ConfigInvalid(f"unknown check {cid!r}; known: {', '.join(ALL_CHECKS)}", schema_path="checks")
    policy_name = (config.get("policy") or {"name": "round_robin"})["name"]
    rep = Reporter(config.get("out_dir", "out"), config)
    reports = []
    for cid in ids:
        reports.extend(run_check(cid, seed=config["seed"], workers=config.get("workers"), policy=policy_name))
    rep.write_config()
    rep.emit_checks(reports)
    all_passed = True
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        all_passed &= r.passed
        print(f"check {r.check_id}: {status} params={json.dumps(r.params, sort_keys=True, default=str)}")
    for path in rep.written:
        print(f"wrote {path}")
    return 0 if all_passed else 1


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
    for path in rep.written:
        print(f"wrote {path}")
    return 0


def run_best_arm_scan(config: dict) -> int:
    horizons = config.get("horizons", [100, 1000, 10000])
    rep = Reporter(config.get("out_dir", "out"), config)
    results = [best_arm_scan(t, config.get("grid", 10000)) for t in horizons]
    rep.write_config()
    rep.emit_scan(results)
    for r in results:
        print(f"scan: horizon={r.horizon} s_star={r.s_star:.17g} value={r.value:.17g}")
    for path in rep.written:
        print(f"wrote {path}")
    return 0


_RUNNERS = {
    "simulate": run_simulate,
    "regret": run_regret,
    "verify": run_verify,
    "construct": run_construct,
    "best_arm_scan": run_best_arm_scan,
}


# ---------------------------------------------------------------------------
# argument parsing: flags override config-file values.


def _csv_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _csv_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; explicit flags override its values")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--workers", type=int, default=None)


def _add_bandit(p: argparse.ArgumentParser):
    p.add_argument(
        "--bandit-preset",
        choices=["bernoulli_vs_sure", "uniform_vs_sure", "half_vs_risky", "two_index", "canonical"],
        default=None,
    )
    p.add_argument("--p", type=float, default=None, help="success mass for bernoulli_vs_sure")
    p.add_argument("--arms-json", default=None, help="explicit arms as a JSON array of records")
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--alphas", type=_csv_floats, default=None, help="comma-separated mass sequence")
    p.add_argument("--assignment", type=_csv_ints, default=None, help="comma-separated arm per index")
    p.add_argument("--mixture-index", type=int, default=None)


def _add_policy(p: argparse.ArgumentParser):
    p.add_argument("--policy", default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--explore-every", type=int, default=None)
    p.add_argument("--arm", type=int, default=None, help="arm for fixed_arm")
    p.add_argument("--prefix", type=_csv_ints, default=None, help="arm prefix for arm_sequence")
    p.add_argument("--tail-arm", type=int, default=None, help="tail arm for arm_sequence")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="extremebandits", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="estimate or exactly compute a running-minimum curve")
    _add_common(p)
    _add_bandit(p)
    _add_policy(p)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--mode", choices=["exact", "monte_carlo"], default=None)

    p = sub.add_parser("regret", help="time-to-match clock against the single-armed oracle")
    _add_common(p)
    _add_bandit(p)
    _add_policy(p)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--mode", choices=["exact", "monte_carlo"], default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--bootstrap", type=int, default=None)

    p = sub.add_parser("verify", help="run named numerical checks; exit 0 iff all pass")
    _add_common(p)
    p.add_argument("checks", nargs="*", default=["all"], help=f"all or any of: {', '.join(ALL_CHECKS)}")
    p.add_argument("--policy", default=None, help="baseline policy for the simulation checks")

    p = sub.add_parser("construct", help="materialize a hard instance and its horizons")
    _add_common(p)
    _add_bandit(p)

    p = sub.add_parser("best-arm-scan", help="scan the two-point family for the best commit arm")
    _add_common(p)
    p.add_argument("--horizons", type=_csv_ints, default=None)
    p.add_argument("--grid", type=int, default=None)

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
    command = args.command.replace("-", "_")
    config["command"] = command
    config.setdefault("seed", 0)

    def put(key, value):
        if value is not None:
            config[key] = value

    put("seed", args.seed)
    put("out_dir", args.out_dir)
    put("workers", args.workers)

    if command in ("simulate", "regret", "construct"):
        bandit = dict(config.get("bandit") or {})
        if getattr(args, "arms_json", None):
            try:
                bandit["arms"] = json.loads(args.arms_json)
            except ValueError as exc:
                raise ConfigInvalid(f"--arms-json is not JSON: {exc}") from None
        for key, flag in [
            ("preset", "bandit_preset"),
            ("p", "p"),
            ("K", "K"),
            ("depth", "depth"),
            ("alphas", "alphas"),
            ("assignment", "assignment"),
            ("mixture_index", "mixture_index"),
        ]:
            val = getattr(args, flag, None)
            if val is not None:
                bandit[key] = val
        if bandit:
            config["bandit"] = bandit

    if command in ("simulate", "regret"):
        policy = dict(config.get("policy") or {})
        params = dict(policy.get("params") or {})
        if args.policy is not None:
            if policy.get("name") != args.policy:
                params = {}  # stale params from another policy don't carry over
                policy.pop("params", None)
            policy["name"] = args.policy
        for key, flag in [
            ("epsilon", "epsilon"),
            ("q", "q"),
            ("explore_every", "explore_every"),
            ("arm", "arm"),
            ("prefix", "prefix"),
            ("tail_arm", "tail_arm"),
        ]:
            val = getattr(args, flag, None)
            if val is not None:
                params[key] = val
        if policy or params:
            policy.setdefault("name", "round_robin")
            if params:
                policy["params"] = params
            config["policy"] = policy
        put("horizon", args.horizon)
        put("trials", args.trials)
        put("mode", args.mode)

    if command == "regret":
        put("cap", args.cap)
        put("bootstrap", args.bootstrap)

    if command == "verify":
        if args.checks != ["all"] or "checks" not in config:
            config["checks"] = args.checks
        if args.policy is not None:
            config["policy"] = {"name": args.policy}

    if command == "best_arm_scan":
        put("horizons", args.horizons)
        put("grid", args.grid)

    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = validate_config(_merge_config(args))
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
