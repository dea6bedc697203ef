"""Run one benchmark workload, check its outputs and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload console_mix --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs one unit of the workload untraced, then one with every
layer's public functions wrapped in spans, and reports the per-layer metrics
(see ``layers.py``). Each run prints one line per metric, then, as its
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. A fuller record (environment, sample counts, failures) goes
to ``perfbench/out/``, the benchmark's only output location; the traced
run's spans go there too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(key: str):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [entry["name"] for entry in json.load(fh)[key]]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program is missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    stem = os.path.join(workloads.OUT_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")

    # a traced run reports no end-to-end metric: it runs one unit
    # untraced and one traced, each with its own set-up only
    single = 1 if args.trace else None
    seconds = 0.0 if args.trace else args.seconds
    run = workloads.run_workload(args.workload, args.seed, seconds,
                                 setups=single, units=single)
    e2e = workloads.summarize(run)
    runs = [run]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "flush_policy": (workloads.SYNC_POLICY
                         if args.workload != "paper_shared"
                         else "per-commit (in-memory store)"),
        "units": len(run.wall_s),
        "unit_wall_s": run.wall_s,
        "end_to_end": {name: {"value": value, "unit": unit, "n": n}
                       for name, (value, unit, n) in e2e.items()},
        "notes": run.notes,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={record['nproc']} python={record['python']} "
          f"flush_policy={record['flush_policy']} units={record['units']}")
    for name, (value, unit, n) in e2e.items():
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:<22} {shown:<24} n={n}")

    identity_ok = True
    if args.trace:
        tracer = layers.Tracer()
        traced = workloads.run_workload(args.workload, args.seed,
                                        seconds, tracer, setups=1, units=1)
        runs.append(traced)
        totals = tracer.totals()
        overhead = (statistics.median(traced.region_s)
                    / statistics.median(run.region_s) - 1.0)
        console_p50 = {
            op: workloads.percentile(run.samples[f"console.{op}_ms"], 0.5)
            for op in layers.CONSOLE_OPS
            if run.samples.get(f"console.{op}_ms")
        }
        per_layer = layers.layer_metrics(totals, tracer.counters,
                                         tracer.wall_ns, console_p50,
                                         overhead)
        attributed = sum(row["self_ns"] for row in totals.values())
        identity_ok = attributed == tracer.wall_ns
        record["per_layer"] = {name: {"value": value, "unit": unit}
                               for name, value, unit in per_layer}
        record["spans"] = len(tracer.recorder)
        tracer.write(stem + ".spans.jsonl")
        print(f"  traced: {tracer.regions} region(s), {record['spans']} "
              f"spans, self times sum to the traced wall: {identity_ok}")
        for name, value, unit in per_layer:
            print(f"  {name:<48} {value:.6g} {unit}")
        reported = record["per_layer"]
        wanted = declared_metrics("per_layer")
    else:
        reported = {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in e2e.items()}
        wanted = declared_metrics("end_to_end")

    attempted = sum(r.tally.attempted for r in runs)
    failed = sum(r.tally.failed for r in runs)
    record["failures"] = [m for r in runs for m in r.tally.messages]
    for message in record["failures"]:
        print(f"  FAILED: {message}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    missing = [name for name in wanted
               if reported.get(name, {}).get("value") is None]
    if missing:
        print(f"perfbench: {args.workload} produced no value for {missing}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0 and identity_ok,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: reported[name] for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
