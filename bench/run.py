"""Benchmark entry point.

    python3 bench/run.py --workload hard_instance --seed 1 --seconds 30 --trace 0

Runs whole rounds of one workload for about ``--seconds`` seconds and prints,
as the last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones: ``wall_s``, the median round time, and ``setup_s``, the
time from process start to inputs ready, both at reference machine speed
(see ``speed.py``), and ``peak_rss_mb``. With ``--trace 1`` rounds alternate
between untraced and traced, the metrics are the per-layer ones, and spans,
self times and counts go to ``.bench_out/trace-<workload>-seed<seed>.json``.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def _before_main() -> float:
    """Seconds between process start and this module's first line: the
    interpreter's own start-up, from /proc (clock-tick resolution), or 0."""
    try:
        ticks = os.sysconf("SC_CLK_TCK")
        start = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[19]) / ticks
        uptime = float(Path("/proc/uptime").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return min(max(uptime - start - (perf_counter() - _STARTED), 0.0), 5.0)


def _import_package():
    """The package from this checkout's src/, or None (with a message)."""
    src = ROOT / "src"
    if not (src / "extremebandits" / "__init__.py").is_file():
        print(f"bench: no package at {src / 'extremebandits'}; run from a checkout of the repository", file=sys.stderr)
        return None
    sys.path.insert(0, str(src))
    import extremebandits
    import extremebandits.cli  # noqa: F401  (not imported by the package itself)

    if Path(extremebandits.__file__).resolve().parent != (src / "extremebandits").resolve():
        print(f"bench: imported extremebandits from {extremebandits.__file__}, not from {src}", file=sys.stderr)
        return None
    return extremebandits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pre_main = _before_main()
    # One worker everywhere: fan-out on a shared two-CPU machine would time the scheduler.
    os.environ.pop("EXTREMEBANDITS_WORKERS", None)
    eb = _import_package()
    if eb is None:
        return 2
    import speed
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](eb, args.seed)
    setup_raw = pre_main + perf_counter() - _STARTED
    setup_s = setup_raw * speed.REFERENCE_S / statistics.median(speed.probe() for _ in range(3))

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = tracing.Tracer() if args.trace else None
    walls = {False: [], True: []}  # round times at reference speed, by traced
    raw_walls = {False: [], True: []}
    traced_metrics, first_dump = [], None
    attempted, failures, errors = 0, [], []
    reference = None
    began = perf_counter()
    try:
        for number in itertools.count():
            # Round 0 warms up (first-touch allocations, lazy imports) and is
            # the round whose outputs are checked; it is not timed. Traced
            # runs then alternate traced and untraced rounds.
            warmup = number == 0
            traced = tracer is not None and number % 2 == 1
            round_started = perf_counter()
            out_dir = scratch / f"round{number}"
            out_dir.mkdir()
            rnd = workloads.Round(eb)
            if traced:
                tracer.reset()
                tracer.install()
                try:
                    workload.run(rnd, out_dir)
                finally:
                    tracer.uninstall()
                traced_metrics.append(tracer.metrics())
                if first_dump is None:
                    first_dump = tracer.dump()
            else:
                workload.run(rnd, out_dir)
            try:
                workload.collect(rnd, out_dir)
            except (OSError, ValueError, KeyError, IndexError) as exc:  # a missing or malformed artifact
                errors.append(f"round {number}: reading artifacts: {type(exc).__name__}: {exc}")
            shutil.rmtree(out_dir)
            attempted += rnd.attempted
            failures += rnd.failures
            if not warmup:
                walls[traced].append(rnd.scaled)
                raw_walls[traced].append(rnd.wall)
            digest = workloads.fingerprint(rnd.results)
            if reference is None:
                reference = digest
                try:
                    errors += workload.check(rnd.results)
                except (KeyError, IndexError, TypeError, AttributeError, ValueError) as exc:  # output of an unexpected shape
                    errors.append(f"checking round 0: {type(exc).__name__}: {exc}")
            elif digest != reference:
                errors.append(f"round {number} ({'traced' if traced else 'untraced'}) outputs differ from round 0")
            # Whole rounds only, at least one timed round of each kind, and
            # no new round once it would overrun the run length by more than
            # half its own duration.
            if not walls[False] or (tracer is not None and (traced or not walls[True])):
                continue
            if perf_counter() - began + 0.5 * (perf_counter() - round_started) * (2 if tracer else 1) > args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for message in failures + errors:
        print(f"bench: {message}", file=sys.stderr)
    print(f"bench: setup {setup_raw:.3f} s measured; rounds measured {raw_walls}, at reference speed {walls}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = {key: (statistics.median(m[key] for m in traced_metrics), unit) for key, unit in tracing.PER_LAYER.items()}
        metrics["trace.overhead_s"] = (statistics.median(walls[True]) - statistics.median(walls[False]), "s")
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "untraced_wall_s": raw_walls[False],
            "traced_wall_s": raw_walls[True],
            "untraced_reference_s": walls[False],
            "traced_reference_s": walls[True],
            "overhead_s": metrics["trace.overhead_s"][0],
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "first_traced_round": first_dump,
        }))
        print(f"bench: trace written to {path}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
