"""The benchmark's workloads.

A workload builds its inputs from the seed once (set-up), then runs rounds:
each round performs the same fixed list of operations through the package's
public API and ``extremebandits.cli.main``, always with one worker. The
outputs of the first round are checked against ``reference``; every later
round must reproduce them exactly.

Operations are looked up on the package's modules at call time, so a traced
round sees the wrappers that ``tracing`` installs there.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import reference as ref
import speed


class Round:
    """Runs and times one round's operations; a failure is counted, not raised.

    ``wall`` is the measured time inside the operations; ``scaled`` is the
    same time at reference machine speed, each operation scaled by the speed
    probe taken just before and just after it.
    """

    def __init__(self, eb):
        self.eb = eb
        self.wall = 0.0
        self.scaled = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.results: dict = {}
        self._probe = speed.probe()

    def op(self, name: str, fn):
        self.attempted += 1
        start = perf_counter()
        try:
            self.results[name] = fn()
        except (Exception, SystemExit) as exc:  # one failed operation, reported in `failed`
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
        elapsed = perf_counter() - start
        after = speed.probe()
        self.wall += elapsed
        self.scaled += elapsed * speed.REFERENCE_S / (0.5 * (self._probe + after))
        self._probe = after

    def cli(self, name: str, argv: list[str]):
        def call():
            sink = io.StringIO()
            with redirect_stdout(sink), redirect_stderr(sink):
                code = self.eb.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"exit code {code}: {sink.getvalue()[-400:]}")
            return code

        self.op(name, call)


def fingerprint(obj) -> str:
    """Stable digest of nested results (dataclasses, arrays, numbers, files)."""
    h = hashlib.sha256()

    def feed(x):
        if dataclasses.is_dataclass(x) and not isinstance(x, type):
            feed({f.name: getattr(x, f.name) for f in dataclasses.fields(x)})
        elif isinstance(x, np.ndarray):
            h.update(str(x.dtype).encode() + x.tobytes())
        elif isinstance(x, dict):
            for k in sorted(x, key=str):
                h.update(repr(k).encode())
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for v in x:
                feed(v)
            h.update(b"]")
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def _read_curve(path: Path) -> dict:
    """A curve CSV written by the CLI: one provenance comment, a header, rows."""
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return {"t": data[:, 0], "estimate": data[:, 1], "raw": data[:, 2], "se": data[:, 3]}


def _read_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def _artifacts(out_dir: Path) -> dict:
    """Digest of every artifact file, so later rounds can be compared byte for byte."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


def _desk_arms(alphas, assignment):
    """Reference arms of the two-arm pure tuple: arm k holds (alpha_j, mass
    alpha_j) for every j with b_j = k, and the rest of its mass at 1."""
    arms = []
    for k in (1, 2):
        own = sorted(a for a, b in zip(alphas, assignment) if b == k)
        arms.append((own + [1.0], own + [1.0 - math.fsum(own)]))
    return arms


def _policy_args(name, **params):
    args = ["--policy", name]
    for key, value in params.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


class Workload:
    name = ""

    def __init__(self, eb, seed: int):
        self.eb = eb
        self.seed = seed

    def run(self, rnd: Round, out_dir: Path) -> None:
        raise NotImplementedError

    def collect(self, rnd: Round, out_dir: Path) -> None:
        """Read CLI artifacts into rnd.results (untimed)."""

    def check(self, results: dict) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class HardInstance(Workload):
    """Acceptance 11 at two assignments: corollary 9 and theorem 1 for round
    robin and eps-greedy (eps = 0.1), 400 trials each, on the two-index desk
    preset, plus the single-arm oracle at T_i for the same tuples."""

    name = "hard_instance"
    N_TRIALS = 400
    EPSILON = 0.1
    INDEX = 2
    # One assignment whose eps-greedy curve never matches the oracle (it runs
    # to the 95,520-step cap) and one whose curve matches it early.
    ASSIGNMENTS = ((1, 2), (1, 1))

    def __init__(self, eb, seed):
        super().__init__(eb, seed)
        self.a = eb.desk_sequence(2)
        self.policies = {
            "round_robin": eb.baseline("round_robin"),
            "eps_greedy_min": eb.baseline("eps_greedy_min", {"epsilon": self.EPSILON}),
        }
        self.check_seed = self._check_seed()
        self.tuples = [eb.build_tuple(self.a, eb.BAssignment(b)) for b in self.ASSIGNMENTS]
        alpha = self.a.alphas[self.INDEX - 1]
        self.t_i = math.ceil(math.log(1.0 / alpha) / alpha)
        c = (1 - 1 / self.INDEX) / ((1 + 1 / self.INDEX) ** 2 + 2 / self.INDEX)
        self.t_eval = math.floor(c * 2 * math.log(1.0 / alpha) / alpha)

    def _check_seed(self) -> int:
        """The first seed derived from --seed whose sampled assignments are
        exactly ASSIGNMENTS, so every seed runs the same mix of work. Cases
        draw their assignment from the assignment lane at trial = case."""
        eb = self.eb
        for j in range(10_000):
            s = self.seed * 10_000 + j
            drawn = tuple(
                eb.sample_b(2, self.a.depth, eb.RngStream(seed=s, trial=case, t=1, lane=eb.rng.ASSIGN_LANE)).values
                for case in range(len(self.ASSIGNMENTS))
            )
            if drawn == self.ASSIGNMENTS:
                return s
        raise RuntimeError("no check seed draws the wanted assignments")

    def run(self, rnd, out_dir):
        ver, orc = self.eb.verification, self.eb.oracles
        kw = dict(a=self.a, i=self.INDEX, n_assignments=len(self.ASSIGNMENTS), n_trials=self.N_TRIALS, seed=self.check_seed, workers=1)
        for pname, policy in self.policies.items():
            rnd.op(f"corollary9.{pname}", lambda: ver.check_corollary9(policy=policy, **kw))
            rnd.op(f"theorem1.{pname}", lambda: ver.demonstrate_theorem1(policy=policy, **kw))
        rnd.op("single_armed_oracle", lambda: [orc.single_armed_oracle(t.arms, self.t_i) for t in self.tuples])

    def check(self, res):
        out = []
        arms = [_desk_arms(self.a.alphas, b) for b in self.ASSIGNMENTS]
        n = self.N_TRIALS
        for key in ("corollary9.round_robin", "corollary9.eps_greedy_min", "theorem1.round_robin", "theorem1.eps_greedy_min"):
            if key in res:
                out += checks.equal(res[key].passed, True, f"{key} passed")
                out += checks.equal(res[key].details["t_eval"], self.t_eval, f"{key} t_eval")
        oracles = [min(ref.single_arm_expected_min(arm, self.t_i) for arm in pair) for pair in arms]
        cap = 4 * 2 * self.t_i

        def exact(pname, pair, horizon):
            if pname == "round_robin":
                return ref.scripted_moments(pair, ref.round_robin_counts(2, horizon))
            return ref.eps_greedy_moments(pair, self.EPSILON, horizon)

        for pname in self.policies:
            rep = res.get(f"corollary9.{pname}")
            if rep is None:
                continue
            for case, pair in enumerate(arms):
                m1, m2 = exact(pname, pair, self.t_eval)
                est = rep.details["estimates"][case]
                out += checks.within_se(est, m1[-1], m2[-1], n, f"corollary9.{pname} case {case} at t_eval")
                if pname == "eps_greedy_min":
                    bound = ref.lower_bound_curve(pair, self.t_eval)[-1]
                    atoms = [v for values, _ in pair for v in values]
                    out += checks.above_bound(est, bound, n, min(atoms), max(atoms), f"corollary9.{pname} case {case}")
        for pname in self.policies:
            rep = res.get(f"theorem1.{pname}")
            if rep is None:
                continue
            d = rep.details
            out += checks.equal(d["horizon"], self.t_i, f"theorem1.{pname} T_i")
            out += checks.close(d["ratio_floor"], 0.9 * self.t_eval / self.t_i, f"theorem1.{pname} ratio_floor", 1e-12)
            for event, ratio in zip(d["events"], d["ratios"]):
                if event and ratio is not None and ratio < d["ratio_floor"]:
                    out.append(f"theorem1.{pname}: flagged ratio {ratio} below ratio_floor {d['ratio_floor']}")
            for case, (pair, ratio) in enumerate(zip(arms, d["ratios"])):
                t_prime = None if ratio is None else round(ratio * self.t_i)
                m1, m2 = exact(pname, pair, t_prime or cap)
                out += checks.crossing(t_prime, oracles[case], m1, m2, n, f"theorem1.{pname} case {case} crossing")
        if "single_armed_oracle" in res:
            for case, (got, pair) in enumerate(zip(res["single_armed_oracle"], arms)):
                values = [ref.single_arm_expected_min(arm, self.t_i) for arm in pair]
                out += checks.close(got.value, min(values), f"single-arm oracle case {case} at T_i")
                out += checks.equal(got.arm, 1 + values.index(min(values)), f"single-arm oracle case {case} arm")
        return out


# ---------------------------------------------------------------------------


class ManyTrials(Workload):
    """Many trials, short horizons: two Monte Carlo regret clocks through the
    CLI with the bootstrap, the beta law, and the greedy oracle by Monte
    Carlo against its exact value."""

    name = "many_trials"
    HORIZON = 100
    TRIALS = 10_000
    BOOTSTRAP = 1000
    EPSILON = 0.1
    BETA_HORIZONS = (1, 10, 59)
    BETA_TRIALS = 10_000
    GREEDY_HORIZON = 100
    GREEDY_TRIALS = 2000

    def __init__(self, eb, seed):
        super().__init__(eb, seed)
        rng = np.random.default_rng(seed)
        self.assignment = tuple(int(x) for x in rng.integers(1, 3, size=2))
        self.a = eb.desk_sequence(2)
        self.tuple = eb.build_tuple(self.a, eb.BAssignment(self.assignment))
        base = ["regret", "--bandit-preset", "uniform_vs_sure", "--mode", "monte_carlo", "--horizon", str(self.HORIZON),
                "--trials", str(self.TRIALS), "--bootstrap", str(self.BOOTSTRAP), "--seed", str(seed), "--workers", "1"]
        self.argv = {
            "regret.uniform_random": base + _policy_args("uniform_random"),
            "regret.eps_greedy_min": base + _policy_args("eps_greedy_min", epsilon=self.EPSILON),
        }

    def run(self, rnd, out_dir):
        for key, argv in self.argv.items():
            rnd.cli(key, argv + ["--out-dir", str(out_dir / key)])
        ver, orc = self.eb.verification, self.eb.oracles
        rnd.op("beta_law", lambda: [ver.check_beta_law(horizon=h, n_trials=self.BETA_TRIALS, seed=self.seed) for h in self.BETA_HORIZONS])
        arms = self.tuple.arms
        rnd.op("greedy.monte_carlo", lambda: orc.greedy_oracle_value(arms, self.GREEDY_HORIZON, mode="monte_carlo", n_trials=self.GREEDY_TRIALS, seed=self.seed))
        rnd.op("greedy.exact", lambda: orc.greedy_oracle_value(arms, self.GREEDY_HORIZON, mode="exact"))

    def collect(self, rnd, out_dir):
        for key in self.argv:
            if key in rnd.results:
                d = out_dir / key
                rnd.results[key] = {
                    "files": _artifacts(d),
                    "regret": _read_records(d / "regret.jsonl")[0],
                    "curve": _read_curve(d / "regret_curve.csv"),
                }

    def check(self, res):
        out = []
        H, n = self.HORIZON, self.TRIALS
        cap = 4 * 2 * H
        exact = {
            "regret.uniform_random": ref.uvs_uniform_random(cap),
            "regret.eps_greedy_min": ref.uvs_eps_greedy(cap, self.EPSILON),
        }
        for key, (m1, m2) in exact.items():
            if key not in res:
                continue
            rep, curve = res[key]["regret"], res[key]["curve"]
            oracle = 1.0 / (H + 1)
            out += checks.close(rep["oracle_value"], oracle, f"{key} oracle", 1e-12)
            out += checks.equal((rep["horizon"], rep["cap"], rep["n_trials"]), (H, cap, n), f"{key} horizon, cap, trials")
            out += checks.equal(len(curve["raw"]), cap, f"{key} curve rows")
            if len(curve["raw"]) != cap:
                continue
            out += checks.within_se(curve["raw"], m1, m2, n, f"{key} curve")
            out += checks.close(curve["estimate"], np.minimum.accumulate(curve["raw"]), f"{key} running minimum", 0.0)
            out += checks.crossing(rep["t_prime"], oracle, m1, m2, n, f"{key} t_prime")
            if rep["t_prime"] is not None:
                out += checks.close(rep["ratio"], rep["t_prime"] / H, f"{key} ratio", 1e-15)
            if rep["ci_low"] is None or rep["ci_high"] is None or not 1 <= rep["ci_low"] <= rep["ci_high"] <= cap:
                out.append(f"{key}: bootstrap interval {rep['ci_low']}..{rep['ci_high']} not within 1..{cap}")
        for report in res.get("beta_law", []):
            out += checks.beta_law(report.details, report.params, report.passed)
        arms = _desk_arms(self.a.alphas, self.assignment)
        g1, g2 = ref.greedy_moments(arms, self.GREEDY_HORIZON)
        if "greedy.exact" in res:
            out += checks.close(res["greedy.exact"], g1, "greedy exact")
        if "greedy.monte_carlo" in res:
            out += checks.within_se(res["greedy.monte_carlo"], g1, g2, self.GREEDY_TRIALS, "greedy monte carlo")
        return out


# ---------------------------------------------------------------------------


class ExactCurves(Workload):
    """No Monte Carlo: long exact curves written through the CLI, a scripted
    curve on two 60-atom arms, the DP oracles at T_i, tree-walked curves at
    small horizons, and the deterministic verify checks."""

    name = "exact_curves"
    LONG = 50_000
    REGRET_HORIZON = 6250  # its curve runs to the cap 4 K T = 50,000
    ATOMS = 60
    SCRIPTED_HORIZON = 1000
    TREE_ATOMS = 3
    TREE_HORIZON = 9
    QUANTILE = {"q": 0.5, "explore_every": 3}
    LEMMAS = ("lemma5", "lemma6", "lemma7_8", "lemma10", "lemma11")

    def __init__(self, eb, seed):
        super().__init__(eb, seed)
        rng = np.random.default_rng(seed)
        grid = rng.choice(np.arange(1, 1000), size=2 * self.ATOMS, replace=False) / 1000.0
        self.big_arms = [
            (sorted(float(v) for v in grid[k :: 2]), [float(p) for p in rng.dirichlet(np.ones(self.ATOMS))]) for k in range(2)
        ]
        records = [{"kind": "discrete", "atoms": [{"value": v, "prob": p} for v, p in zip(*arm)]} for arm in self.big_arms]
        tree_grid = rng.choice(np.arange(1, 100), size=2 * self.TREE_ATOMS, replace=False) / 100.0
        self.tree_arms = [
            (sorted(float(v) for v in tree_grid[k :: 2]), [float(p) for p in rng.dirichlet(np.ones(self.TREE_ATOMS))])
            for k in range(2)
        ]
        self.tree_dists = tuple(eb.make_discrete(list(zip(*arm))) for arm in self.tree_arms)
        self.assignment = tuple(int(x) for x in rng.integers(1, 3, size=2))
        self.a = eb.desk_sequence(2)
        self.desk = eb.build_tuple(self.a, eb.BAssignment(self.assignment))
        alpha = self.a.alphas[-1]
        self.t_i = math.ceil(math.log(1.0 / alpha) / alpha)
        self.policies = {
            "round_robin": eb.baseline("round_robin"),
            "eps_greedy_min": eb.baseline("eps_greedy_min", {"epsilon": 0.0}),
            "quantile_threshold": eb.baseline("quantile_threshold", dict(self.QUANTILE)),
        }
        uvs = ["--bandit-preset", "uniform_vs_sure", "--mode", "exact", "--seed", str(seed), "--workers", "1"]
        self.argv = {
            "simulate.uniform_vs_sure": ["simulate", *uvs, "--horizon", str(self.LONG), *_policy_args("round_robin")],
            "regret.uniform_vs_sure": ["regret", *uvs, "--horizon", str(self.REGRET_HORIZON), "--policy", "arm_sequence", "--prefix", "2", "--tail-arm", "1"],
            "simulate.arms_json": ["simulate", "--arms-json", json.dumps(records), "--mode", "exact", "--seed", str(seed),
                                   "--workers", "1", "--horizon", str(self.SCRIPTED_HORIZON), *_policy_args("round_robin")],
            "verify.lemmas": ["verify", *self.LEMMAS, "--seed", str(seed), "--workers", "1"],
        }

    def run(self, rnd, out_dir):
        for key, argv in self.argv.items():
            rnd.cli(key, argv + ["--out-dir", str(out_dir / key)])
        orc, eng = self.eb.oracles, self.eb.engine
        arms = self.desk.arms
        rnd.op("optimal", lambda: orc.optimal_oracle_value(arms, self.t_i))
        rnd.op("greedy", lambda: orc.greedy_oracle_value(arms, self.t_i, mode="exact"))
        rnd.op("single_armed", lambda: orc.single_armed_oracle(arms, self.t_i))
        rnd.op("curve.round_robin", lambda: eng.exact_min_curve(self.policies["round_robin"], arms, self.t_i))
        for pname in ("eps_greedy_min", "quantile_threshold"):
            rnd.op(f"tree.{pname}", lambda: eng.exact_min_curve(self.policies[pname], self.tree_dists, self.TREE_HORIZON))

    def collect(self, rnd, out_dir):
        for key in self.argv:
            if key not in rnd.results:
                continue
            d = out_dir / key
            got = {"files": _artifacts(d)}
            if key.startswith("simulate"):
                got["curve"] = _read_curve(d / "curve.csv")
            elif key.startswith("regret"):
                got["regret"] = _read_records(d / "regret.jsonl")[0]
                got["curve"] = _read_curve(d / "regret_curve.csv")
            else:
                got["checks"] = _read_records(d / "checks.jsonl")
            rnd.results[key] = got

    def check(self, res):
        out = []
        if "simulate.uniform_vs_sure" in res:
            c = res["simulate.uniform_vs_sure"]["curve"]
            m1, _ = ref.uvs_scripted(ref.round_robin_counts(2, self.LONG)[:, 0])
            out += checks.close(c["raw"], m1, "simulate uniform_vs_sure raw")
            out += checks.close(c["estimate"], m1, "simulate uniform_vs_sure estimate")
        if "regret.uniform_vs_sure" in res:
            H = self.REGRET_HORIZON
            rep, c = res["regret.uniform_vs_sure"]["regret"], res["regret.uniform_vs_sure"]["curve"]
            out += checks.equal((rep["t_prime"], rep["cap"]), (H + 1, 8 * H), "exact regret t_prime, cap")
            out += checks.close(rep["oracle_value"], 1.0 / (H + 1), "exact regret oracle")
            out += checks.close(rep["ratio"], (H + 1) / H, "exact regret ratio", 1e-15)
            # Sure arm first, then the uniform arm: t - 1 uniform draws by t.
            m1, _ = ref.uvs_scripted(np.arange(8 * H))
            out += checks.close(c["raw"], m1, "exact regret curve")
        if "simulate.arms_json" in res:
            c = res["simulate.arms_json"]["curve"]
            m1, _ = ref.scripted_moments(self.big_arms, ref.round_robin_counts(2, self.SCRIPTED_HORIZON))
            out += checks.close(c["raw"], m1, "scripted curve on 60-atom arms")
        if "verify.lemmas" in res:
            got = res["verify.lemmas"]["checks"]
            out += checks.equal(sorted(r["check_id"] for r in got), sorted(self.LEMMAS), "verify check ids")
            out += [f"verify {r['check_id']} failed" for r in got if not r["passed"]]
        arms = _desk_arms(self.a.alphas, self.assignment)
        single = min(ref.single_arm_expected_min(arm, self.t_i) for arm in arms)
        rr, _ = ref.scripted_moments(arms, ref.round_robin_counts(2, self.t_i))
        if "optimal" in res:
            opt = res["optimal"]
            out += checks.close(opt, ref.optimal_value(arms, self.t_i), "optimal oracle at T_i")
            out += checks.at_most(ref.lower_bound_curve(arms, self.t_i)[-1], opt, "any-policy bound vs optimal")
            out += checks.at_most(opt, single, "optimal vs single-arm")
            out += checks.at_most(opt, rr[-1], "optimal vs round-robin curve")
            if "greedy" in res:
                out += checks.at_most(opt, res["greedy"], "optimal vs greedy")
        if "greedy" in res:
            out += checks.close(res["greedy"], ref.greedy_moments(arms, self.t_i)[0], "greedy oracle at T_i")
        if "single_armed" in res:
            out += checks.close(res["single_armed"].value, single, "single-arm oracle at T_i")
        if "curve.round_robin" in res:
            out += checks.close(res["curve.round_robin"].raw, rr, "round-robin exact curve on the desk tuple")
        rules = {
            "eps_greedy_min": ref.greedy_best_rule(2),
            "quantile_threshold": ref.quantile_rule(2, self.QUANTILE["q"], self.QUANTILE["explore_every"]),
        }
        for pname, rule in rules.items():
            if f"tree.{pname}" in res:
                want = ref.enumerate_paths(rule, self.tree_arms, self.TREE_HORIZON)
                out += checks.close(res[f"tree.{pname}"].raw, want, f"tree-walked {pname} curve")
        return out


WORKLOADS = {w.name: w for w in (HardInstance, ManyTrials, ExactCurves)}
