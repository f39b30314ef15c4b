#!/usr/bin/env python3
"""tfedge benchmark: one workload, one process, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; tfedge is imported from ./src.  The run sets up
(import tfedge in a fresh interpreter + the spectral table) as many times as
the workload asks and reports the median, then repeats whole rounds of the
workload until S seconds have passed, checking every output against
perfbench/oracles.py.  Round and sample timings are scaled to the reference
machine speed by perfbench/gauge.py.  With --trace 1 it sets up once, wraps
tfedge's entry points (perfbench/spans.py) and reports per-layer figures
instead of the end-to-end ones.  The last line of stdout is {"correct",
"attempted", "failed", "metrics"}; raw timings and spans go to
perfbench/out/.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NAMES = ("transport-a0.5", "spreading-a0.8", "scalar-ml")
# a fresh interpreter's cost of `import tfedge`, the first part of each set-up
IMPORT_CHILD = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import tfedge; print(time.perf_counter() - t)"
)


def child_import_s():
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CHILD, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tfedge" / "__init__.py").is_file():
        print(f"error: tfedge sources not found under {SRC}", file=sys.stderr)
        return 2

    # one sweep worker: the pool buys nothing under the GIL, and with two
    # workers each sample's time would include its neighbour's work
    os.environ["TFSE_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import tfedge  # noqa: F401

    import gauge
    import oracles
    import spans
    import workloads

    speed = gauge.Gauge()
    # the traced run ticks only between rounds: a tick inside map_over_times
    # would count as the sweep layer's own time
    workload = workloads.WORKLOADS[args.workload](args.seed, (lambda: None) if args.trace else speed.tick)
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    # (import seconds, table seconds) per set-up
    setups, table = [], None
    for _ in range(1 if tracer else workload.setups):
        import_s = child_import_s()
        begin = perf_counter()
        table = workload.setup()
        setups.append((import_s, perf_counter() - begin))

    problems = workload.check_setup(table)
    problems += [f"oracle self-check {name}: {v:.2e} > {lim:.0e}"
                 for name, v, lim in oracles.self_check() if not v <= lim]

    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < args.seconds:
        first = len(speed.marks)
        speed.tick(force=True)
        begin = perf_counter()
        outputs, samples = workload.compute(table)
        end = perf_counter()
        speed.tick(force=True)
        marks = (first, len(speed.marks))
        ops = workload.check(table, outputs)
        if rounds and outputs != rounds[0]["outputs"]:
            problems.append(f"round {len(rounds)} differs from round 0")
        rounds.append({"outputs": outputs, "samples": samples, "ops": ops, "marks": marks,
                       "seconds": end - begin - speed.kernel_s(begin, end)})

    all_ops = [op for r in rounds for op in r["ops"]]
    failed = [op for op in all_ops if not op.ok]
    problems += [f"{op.kind} failed with no known cause" for op in failed if op.fault is None]

    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s)")
    kinds = {}
    for op in all_ops:
        count = kinds.setdefault(op.kind, [0, 0, set()])
        count[0] += 1
        if not op.ok:
            count[1] += 1
            count[2].add(op.fault)
    for kind, (n, bad, faults) in kinds.items():
        print(f"  {kind:<34} attempted {n:>5}  failed {bad:>5}")
        for fault in sorted(faults, key=str):
            print(f"      cause: {fault or 'unknown'}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")

    # round and sample timings at the reference speed (gauge.py); set-up as
    # measured, since the gauge does not follow its numpy/ARPACK work
    setup_s = [i + t for i, t in setups]
    round_s = [
        sum(speed.scaled_at(b - a, a, b) for _, a, b in r["samples"])
        + speed.scaled(r["seconds"] - sum(b - a for _, a, b in r["samples"]), *r["marks"])
        for r in rounds
    ]
    # each sample per unit of work, at its median over the rounds (every
    # round makes the same samples)
    sample_s = [
        statistics.median(speed.scaled_at((b - a) / n, a, b) for n, a, b in column)
        for column in zip(*(r["samples"] for r in rounds))
    ]
    if tracer:
        metrics = spans.layer_metrics(tracer.spans, len(rounds), workloads.RULE.n_nodes)
        units = {k: ("count" if k.endswith(("calls", "solves", "builds")) else
                     "ms" if k.endswith("_ms") or k.endswith("ms_per_solve") else
                     "ratio" if k.endswith("per_node") else "s")
                 for k in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "samples_per_s": sum(n for n, _, _ in rounds[0]["samples"]) / statistics.median(round_s),
            # the tail of single-sample times: a maximum over one call spread
            # twice as much between runs of the same code
            "slowest_tenth_s": statistics.mean(sorted(sample_s)[-math.ceil(len(sample_s) / 10):]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "samples_per_s": "1/s",
                 "slowest_tenth_s": "s", "peak_rss_mb": "MB"}
    print(f"  set-up s {[round(x, 3) for x in setup_s]}, "
          f"raw round s {[round(r['seconds'], 3) for r in rounds]}, "
          f"gauge median {1e3 * speed.median_s():.3f} ms over {len(speed.marks)} kernel runs "
          f"(reference {1e3 * gauge.REF_S:.3f} ms)")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    raw = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "setups": setups, "round_s": round_s,
           "rounds": [(r["seconds"], *r["marks"]) for r in rounds],
           "samples": [r["samples"] for r in rounds], "sample_s": sample_s,
           "gauge": speed.marks, "metrics": metrics}
    if tracer:
        raw["spans"] = tracer.spans
    suffix = "-trace" if tracer else ""
    (out_dir / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(json.dumps(raw))

    print(json.dumps({
        "correct": not problems,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
