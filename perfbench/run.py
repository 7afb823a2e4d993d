"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-cold --seed 0 --seconds 2 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger of a separate traced run.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 when every output check passed, 1 when one failed and 2
when the program under test cannot be found.  See README.md.
"""

from time import perf_counter

_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("paper-cold", "online-replay", "fleet-durable")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="0 reproduces the default plan seeds")
    parser.add_argument("--seconds", type=float, default=2.0,
                        help="repeat the workload's unit until this much time is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-pins", action="store_true",
                        help="record this run's outputs as the pinned ones (seed 0)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.update_pins and args.seed != 0:
        parser.error("--update-pins pins the default seed; use --seed 0")
    return args


def print_ledger(tracer) -> None:
    """Calls, total and self time per span name; self% of all traced time."""
    traced = sum(end - start for _id, _n, start, end, parent, *_ in tracer.spans if not parent)
    print(f"  {'span':32s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s} {'self%':>6s}")
    for name, calls, total, self_s in tracer.ledger():
        share = 100.0 * self_s / traced if traced else 0.0
        print(f"  {name:32s} {calls:10d} {total:10.3f} {self_s:10.3f} {share:6.1f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    import_s = perf_counter() - _START
    pins = workloads.Pins.load(update=args.update_pins)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if args.trace:
        outcome, tracer = workloads.run_traced(args.workload, args.seed, pins=pins)
        tracer.dump(workloads.HERE / ".out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
        traced_s = outcome.metrics["trace.traced_s"][0]
        print(f"end-to-end totals: untraced {outcome.metrics['trace.untraced_s'][0]:.3f} s, "
              f"traced {traced_s:.3f} s (tracing overhead "
              f"{outcome.metrics['trace.overhead_pct'][0]:+.1f} %); traced unit:")
        for line in outcome.report:
            print("  " + line)
        print("per-layer ledger (traced set-up and unit):")
        print_ledger(tracer)
    else:
        outcome = workloads.run(
            args.workload, args.seed, args.seconds, pins=pins, import_s=import_s
        )
        for line in outcome.report:
            print("  " + line)
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:36s} {value:14.4f} {unit}")
    rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  failed_frac {outcome.failed}/{outcome.attempted} = {rate:.4f}")
    for failure in outcome.failures:
        print(f"  CHECK FAILED: {failure}")
    if args.update_pins:
        pins.save()
        print(f"  pins written to {workloads.PINS_PATH}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
