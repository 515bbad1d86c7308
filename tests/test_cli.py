"""Command-line interface: exit codes, artifact layout, flag precedence."""

import json
import subprocess
import sys

import pytest

import extremebandits as xb
from extremebandits import cli
from extremebandits.reporting import VERSION
from extremebandits.verification import CheckReport


def _csv_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# seed=")
    header = lines[1].split(",")
    return lines[0], header, [dict(zip(header, ln.split(","))) for ln in lines[2:]]


def test_simulate_exact_artifacts(tmp_path):
    rc = cli.main(
        [
            "simulate",
            "--bandit-preset",
            "uniform_vs_sure",
            "--policy",
            "fixed_arm",
            "--arm",
            "1",
            "--mode",
            "exact",
            "--horizon",
            "5",
            "--seed",
            "0",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    for name in ("config.json", "curve.csv", "curve.jsonl"):
        assert (tmp_path / name).exists()
    meta, header, rows = _csv_rows(tmp_path / "curve.csv")
    assert "seed=0" in meta and f"version={VERSION}" in meta and "config_hash=" in meta
    assert header == ["t", "estimate", "raw", "se"]
    assert len(rows) == 5
    assert float(rows[4]["raw"]) == pytest.approx(1.0 / 6.0, rel=1e-12)
    payload = json.loads((tmp_path / "config.json").read_text())
    assert payload["version"] == VERSION
    assert "out_dir" not in payload["config"] and "workers" not in payload["config"]


def test_regret_exact_frozen_row(tmp_path):
    rc = cli.main(
        [
            "regret",
            "--bandit-preset",
            "uniform_vs_sure",
            "--policy",
            "arm_sequence",
            "--prefix",
            "2",
            "--tail-arm",
            "1",
            "--mode",
            "exact",
            "--horizon",
            "10",
            "--seed",
            "0",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    _, header, rows = _csv_rows(tmp_path / "regret.csv")
    row = rows[0]
    assert row["horizon"] == "10"
    assert row["t_prime"] == "11"
    assert float(row["ratio"]) == pytest.approx(1.1, rel=1e-12)
    assert float(row["oracle_value"]) == pytest.approx(1.0 / 11.0, rel=1e-12)
    assert (tmp_path / "regret_curve.csv").exists()


def test_regret_monte_carlo_bootstrap_frozen_interval(tmp_path):
    # Pins the bootstrap's bytes: a change to how resamples are drawn must
    # update these literals on purpose. Seed 1 tells draws apart: multinomial
    # counts give ci_low 17 here.
    argv = ["regret", "--bandit-preset", "uniform_vs_sure", "--mode", "monte_carlo", "--horizon", "10"]
    argv += ["--trials", "400", "--bootstrap", "400", "--seed", "1", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    rec = json.loads((tmp_path / "regret.jsonl").read_text())
    assert (rec["t_prime"], rec["ci_low"], rec["ci_high"]) == (21, 19, 21)
    _, _, rows = _csv_rows(tmp_path / "regret.csv")
    assert (rows[0]["ci_low"], rows[0]["ci_high"]) == ("19", "21")


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "seed": 3,
                "mode": "exact",
                "horizon": 4,
                "bandit": {"preset": "uniform_vs_sure"},
                "policy": {"name": "fixed_arm", "params": {"arm": 2}},
            }
        )
    )
    out = tmp_path / "out"
    rc = cli.main(
        ["simulate", "--config", str(cfg), "--horizon", "6", "--out-dir", str(out)]
    )
    assert rc == 0
    meta, _, rows = _csv_rows(out / "curve.csv")
    assert len(rows) == 6  # flag horizon beat the file's 4
    assert "seed=3" in meta  # file seed kept where no flag was given
    assert all(float(r["raw"]) == 1.0 for r in rows)  # fixed arm 2 = sure 1


def test_policy_flag_resets_stale_params(tmp_path):
    # The file pins fixed_arm params; switching policy by flag must not leak
    # {"arm": 2} into round_robin's constructor.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "seed": 0,
                "mode": "exact",
                "horizon": 4,
                "bandit": {"preset": "uniform_vs_sure"},
                "policy": {"name": "fixed_arm", "params": {"arm": 2}},
            }
        )
    )
    out = tmp_path / "out"
    rc = cli.main(
        ["simulate", "--config", str(cfg), "--policy", "round_robin", "--out-dir", str(out)]
    )
    assert rc == 0
    _, _, rows = _csv_rows(out / "curve.csv")
    want = [0.5, 0.5, 1 / 3, 1 / 3]
    for row, w in zip(rows, want):
        assert float(row["raw"]) == pytest.approx(w, rel=1e-12)


def test_invalid_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 0, "bogus": 1}))
    rc = cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_preset_value_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 0, "bandit": {"preset": "nope"}}))
    rc = cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bandit/preset" in err


def test_bad_workers_env_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(xb.engine.WORKERS_ENV, "abc")
    argv = ["simulate", "--bandit-preset", "uniform_vs_sure", "--horizon", "5", "--trials", "10"]
    rc = cli.main(argv + ["--seed", "0", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and xb.engine.WORKERS_ENV in err


SIMULATE = ["simulate", "--bandit-preset", "uniform_vs_sure", "--trials", "10"]
BAD_INPUTS = {
    "seed_above_uint64": [*SIMULATE, "--horizon", "5", "--seed", str(2**64)],
    "float_horizon_in_config": [*SIMULATE, "--config", "{tmp}/horizon.json"],
    "missing_config": [*SIMULATE, "--horizon", "5", "--config", "{tmp}/missing.json"],
    "config_not_json": [*SIMULATE, "--horizon", "5", "--config", "{tmp}/broken.json"],
    "arms_json_not_json": [*SIMULATE, "--horizon", "5", "--arms-json", "[{{"],
    "out_dir_below_file": [*SIMULATE, "--horizon", "5", "--out-dir", "{tmp}/file/out"],
    # Sizes the schema accepts but memory cannot hold (about 7 TiB of doubles).
    "grid_out_of_memory": ["best-arm-scan", "--horizons", "10", "--grid", str(10**12)],
    "bootstrap_out_of_memory": [
        "regret", "--bandit-preset", "uniform_vs_sure", "--horizon", "5", "--trials", "3", "--bootstrap", str(10**12)
    ],
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exit_2(case, tmp_path, capsys):
    (tmp_path / "horizon.json").write_text(json.dumps({"horizon": 10.0}))
    (tmp_path / "broken.json").write_text("{not json")
    (tmp_path / "file").write_text("")
    command, *rest = BAD_INPUTS[case]
    out = tmp_path / "out"
    rc = cli.main([command, "--out-dir", str(out)] + [a.format(tmp=tmp_path) for a in rest])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    if case.endswith("out_of_memory"):
        # Found in the run, after the output directory is made: nothing is written.
        assert err.startswith("error: MemoryError: ")
        assert list(out.iterdir()) == []
    else:
        assert not out.exists()


# Policies the engine rejects: the message comes from the engine, after the
# output directory has been made.
BAD_POLICIES = {
    "fixed_arm_outside_bandit": ["simulate", "--policy", "fixed_arm", "--arm", "5"],
    "fixed_arm_outside_bandit_exact": ["simulate", "--policy", "fixed_arm", "--arm", "5", "--mode", "exact"],
    "prefix_arm_outside_bandit": ["simulate", "--policy", "arm_sequence", "--prefix", "3"],
    "randomized_policy_exact": ["simulate", "--policy", "eps_greedy_min", "--mode", "exact"],
    "randomized_policy_exact_regret": ["regret", "--policy", "uniform_random", "--mode", "exact"],
}


@pytest.mark.parametrize("case", BAD_POLICIES)
def test_bad_policy_exit_2(case, tmp_path, capsys):
    common = ["--bandit-preset", "uniform_vs_sure", "--horizon", "5", "--trials", "3", "--out-dir", str(tmp_path)]
    rc = cli.main(BAD_POLICIES[case] + common)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: UnknownPolicy: ")
    assert err.count("\n") == 1


# Policy params from a config file that the policy or the engine rejects.
BAD_POLICY_PARAMS = {
    "table_default_arm_0": ("table", {"alphabet": [0.5, 0.0, 1.0], "depth": 0, "entries": [], "default_arm": 0}),
    "table_default_arm_outside_bandit": (
        "table",
        {"alphabet": [0.5, 0.0, 1.0], "depth": 0, "entries": [], "default_arm": 3},
    ),
    "table_arm_0": ("table", {"alphabet": [0.5], "depth": 1, "entries": [{"history": [], "arm": 0}]}),
    "table_arm_float": ("table", {"alphabet": [0.5], "depth": 1, "entries": [{"history": [], "arm": 1.0}]}),
    "table_depth_bool": ("table", {"alphabet": [0.5], "depth": True, "entries": [{"history": [], "arm": 1}]}),
    "table_without_entries": ("table", {"alphabet": [0.5], "depth": 0}),
    "table_depth_40_no_entries": ("table", {"alphabet": [0.5, 0.0, 1.0], "depth": 40, "entries": []}),
    "fixed_arm_float": ("fixed_arm", {"arm": 1.5}),
    "fixed_arm_bool": ("fixed_arm", {"arm": True}),
    "prefix_arm_float": ("arm_sequence", {"prefix": [1.0], "tail_arm": 1}),
    "tail_arm_bool": ("arm_sequence", {"prefix": [1], "tail_arm": True}),
    "explore_every_float": ("quantile_threshold", {"explore_every": 2.5}),
    "epsilon_bool": ("eps_greedy_min", {"epsilon": True}),
    "epsilon_string": ("eps_greedy_min", {"epsilon": "0.1"}),
    "q_bool": ("quantile_threshold", {"q": False}),
    "q_string": ("quantile_threshold", {"q": "0.25"}),
}


@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
@pytest.mark.parametrize("case", BAD_POLICY_PARAMS)
def test_bad_policy_params_exit_2(case, mode, tmp_path, capsys):
    name, params = BAD_POLICY_PARAMS[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"policy": {"name": name, "params": params}}))
    argv = ["simulate", "--config", str(cfg), "--bandit-preset", "half_vs_risky", "--horizon", "3"]
    rc = cli.main(argv + ["--trials", "3", "--mode", mode, "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: UnknownPolicy: ")
    assert err.count("\n") == 1


def test_unknown_check_exit_2(tmp_path, capsys):
    rc = cli.main(["verify", "lemma99", "--seed", "0", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown check" in capsys.readouterr().err


def test_verify_pass_and_artifacts(tmp_path, capsys):
    rc = cli.main(["verify", "lemma11", "lemma5", "--seed", "0", "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "check lemma11: PASS" in out
    assert "check lemma5: PASS" in out
    _, _, rows = _csv_rows(tmp_path / "checks.csv")
    assert [r["check_id"] for r in rows] == ["lemma11", "lemma5"]
    assert all(r["passed"] == "1" for r in rows)


def test_verify_failure_exit_1(tmp_path, capsys, monkeypatch):
    def fake_run_check(check_id, seed=0, workers=None, policy="round_robin"):
        return [CheckReport(check_id=check_id, passed=False, seed=seed)]

    monkeypatch.setattr(cli, "run_check", fake_run_check)
    rc = cli.main(["verify", "lemma11", "--seed", "0", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "check lemma11: FAIL" in capsys.readouterr().out


def test_rerun_is_byte_identical(tmp_path):
    argv = [
        "simulate",
        "--bandit-preset",
        "half_vs_risky",
        "--policy",
        "eps_greedy_min",
        "--epsilon",
        "0.1",
        "--horizon",
        "40",
        "--trials",
        "96",
        "--seed",
        "5",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(argv + ["--out-dir", str(a)]) == 0
    assert cli.main(argv + ["--out-dir", str(b)]) == 0
    for name in ("config.json", "curve.csv", "curve.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_construct_two_index(tmp_path):
    rc = cli.main(
        ["construct", "--bandit-preset", "two_index", "--seed", "0", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    _, header, rows = _csv_rows(tmp_path / "bandit.csv")
    assert header == ["arm", "value", "prob", "log_prob"]
    probs = {(r["arm"], r["value"]): float(r["prob"]) for r in rows}
    assert probs[("1", "0.050000000000000003")] == pytest.approx(0.05, rel=1e-12)
    record = json.loads((tmp_path / "bandit.jsonl").read_text().splitlines()[0])
    assert record["horizons"]["2"]["T"] == 11940
    assert record["horizons"]["2"]["T_prime"] == 3673
    assert record["properties"]["passed"] is True


def test_construct_canonical_deep_reports_log_horizon(tmp_path):
    rc = cli.main(
        [
            "construct",
            "--bandit-preset",
            "canonical",
            "--K",
            "2",
            "--depth",
            "2",
            "--seed",
            "0",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    record = json.loads((tmp_path / "bandit.jsonl").read_text().splitlines()[0])
    # alpha_2 = 16^-4: T fits comfortably, so both plain horizons appear.
    assert "T" in record["horizons"]["2"]


def test_best_arm_scan_runs(tmp_path):
    rc = cli.main(["best-arm-scan", "--horizons", "100", "--seed", "0", "--out-dir", str(tmp_path)])
    assert rc == 0
    _, _, rows = _csv_rows(tmp_path / "scan.csv")
    assert float(rows[0]["s_star"]) == pytest.approx(0.045102434872307216, abs=1e-7)


def test_arms_json_flag(tmp_path):
    arms = json.dumps(
        [
            {"kind": "discrete", "atoms": [{"value": 0.5, "prob": 1.0}]},
            {"kind": "uniform01"},
        ]
    )
    rc = cli.main(
        [
            "simulate",
            "--arms-json",
            arms,
            "--policy",
            "fixed_arm",
            "--arm",
            "1",
            "--mode",
            "exact",
            "--horizon",
            "3",
            "--seed",
            "0",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    _, _, rows = _csv_rows(tmp_path / "curve.csv")
    assert all(float(r["raw"]) == 0.5 for r in rows)


def test_module_entrypoint(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "extremebandits.cli",
            "simulate",
            "--bandit-preset",
            "uniform_vs_sure",
            "--policy",
            "fixed_arm",
            "--arm",
            "2",
            "--mode",
            "exact",
            "--horizon",
            "3",
            "--seed",
            "0",
            "--out-dir",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "simulate: policy=fixed_arm" in proc.stdout
