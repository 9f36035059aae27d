"""Benchmark of fsml, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) against the fsml sources under src/ of
the checkout it is started from, with the BLAS threads the environment
gives: it sets no thread variable and pins no CPU.  Set-up runs three times
and is timed each time; rounds of fixed work run between the set-ups until S
seconds of rounds have passed (and at least three rounds), and at the end the
outputs of all rounds are checked.

With --trace 0 it prints the end-to-end metrics; with --trace 1 it wraps
fsml's public functions (tracing.py), alternates untraced and traced rounds,
and prints the per-layer metrics of the traced rounds.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; a fuller record, the environment included, goes to
bench_results/BENCH_<workload>_seed<N>_trace<0|1>.json.  The exit code is 1
when an output check fails.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench_results"
SETUP_REPEATS = 3
MIN_ROUNDS = 3  # enough for a median, for outputs to compare, and for traced and untraced rounds
END_TO_END = (("setup_s", "s"), ("ops_per_s", "op/s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))
WORKLOAD_NAMES = ("pretrain-dropblock", "metatest-frozen", "metatest-unfrozen")


@dataclass
class Round:
    operations: int
    wall_s: float
    cpu_s: float
    traced: bool
    output: object


def import_fsml() -> float:
    """Import fsml from this checkout's src/; returns seconds since the script started."""
    if not (SRC / "fsml" / "__init__.py").is_file():
        raise SystemExit(f"error: no fsml sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fsml

    if Path(fsml.__file__).resolve().parent != SRC / "fsml":
        raise SystemExit(f"error: imported fsml from {fsml.__file__}, not from {SRC}")
    return time.perf_counter() - _STARTED


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mib() -> dict:
    kib = {who: resource.getrusage(which).ru_maxrss
           for who, which in (("self", resource.RUSAGE_SELF), ("largest_child", resource.RUSAGE_CHILDREN))}
    return {who: value / 1024 for who, value in kib.items()}


def measure(workload, seed: int, seconds: float, tracer) -> tuple[list[float], list[Round]]:
    """Set up SETUP_REPEATS times, each set-up followed by its share of the timed rounds.

    After set-up i, rounds run until their total wall time reaches
    (i + 1) / SETUP_REPEATS of `seconds`, so the timed rounds are spread over
    the whole run; the last set-up also runs until there are MIN_ROUNDS.
    With a tracer, every second round is traced.
    """
    setup_times: list[float] = []
    rounds: list[Round] = []
    timed = 0.0
    for i in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.enabled, tracer.phase = True, "setup"
        t0 = time.perf_counter()
        workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.phase = "round"
        share = seconds * (i + 1) / SETUP_REPEATS
        while timed < share or (i == SETUP_REPEATS - 1 and len(rounds) < MIN_ROUNDS):
            traced = tracer is not None and len(rounds) % 2 == 1
            if tracer is not None:
                tracer.enabled = traced
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            operations, output = workload.round()
            wall = time.perf_counter() - t0
            rounds.append(Round(operations, wall, cpu_seconds() - cpu0, traced, output))
            timed += wall
    if tracer is not None:
        tracer.enabled = False
    return setup_times, rounds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed part")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_fsml()
    import tracing
    import workloads
    from envinfo import environment

    workload = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    setup_times, rounds = measure(workload, args.seed, args.seconds, tracer)
    problems, figures = workload.check([r.output for r in rounds])

    rates = [r.operations / r.wall_s for r in rounds if not r.traced]
    rss = peak_rss_mib()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "operation": workload.operation,
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "rounds": [{"operations": r.operations, "wall_s": r.wall_s, "cpu_s": r.cpu_s, "traced": r.traced}
                   for r in rounds],
        workload.rate_name: statistics.median(rates) * workload.per_operation,
        "peak_rss_mib": rss,
        "figures": figures,
        "problems": problems,
    }
    if tracer is None:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "ops_per_s": statistics.median(rates),
            "cpu_s": statistics.median(r.cpu_s for r in rounds),
            "peak_rss_mb": max(rss.values()),
        }
        units = dict(END_TO_END)
    else:
        traced_rounds = [r for r in rounds if r.traced]
        layer = tracing.per_layer(tracer, SETUP_REPEATS, len(traced_rounds))
        metrics = {name: value for name, (value, _) in layer.items()}
        units = {name: unit for name, (_, unit) in layer.items()}
        traced_wall = statistics.median(r.wall_s for r in traced_rounds)
        untraced_wall = statistics.median(r.wall_s for r in rounds if not r.traced)
        record["trace_overhead"] = {
            "traced_round_s": traced_wall,
            "untraced_round_s": untraced_wall,
            "traced_minus_untraced_s": traced_wall - untraced_wall,
            "share": traced_wall / untraced_wall - 1.0,
            "spans": len(tracer.spans),
        }
    result = {
        "correct": not problems,
        "attempted": sum(r.operations for r in rounds),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record["result"] = result
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds, {result['attempted']} {workload.operation}s, "
          f"{workload.rate_name} {record[workload.rate_name]:.6g}, result file {path.relative_to(ROOT)}")
    if "trace_overhead" in record:
        overhead = record["trace_overhead"]
        print(f"tracing overhead: {overhead['traced_minus_untraced_s']:+.3f} s per round "
              f"({overhead['share'] * 100:+.1f}%), {overhead['spans']} spans")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
