"""Benchmark entry point.

    python3 perfbench/run.py --workload {lm-train,lm-score,career} --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ``src/`` next
to this directory, never from an installed copy. Everything runs in this one
process with the BLAS thread count pinned to 1.

``--trace 0`` sets up several times, then runs the workload's phases for
about ``--seconds`` seconds and reports every end-to-end metric. ``--trace 1``
warms up (one set-up and one operation of each phase, not recorded), then
runs one set-up plus the phases' fixed minimum of work twice, untraced and
then traced, and reports every per-layer metric together with the tracing
overhead (traced minus untraced end-to-end figures); the spans are written to
``.perfbench_work/trace-<workload>-seed<N>.jsonl``. Metric names, units and
directions come from ``BENCHMARK.json`` at the root of the checkout.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit); the line before it
records the machine, versions, seed and commit. Exit codes: 0 when the run
finished (failed operations are counted in the result), 1 when set-up
failed, 2 for bad arguments or when ``src/careerseq`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["lm-train", "lm-score", "career"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "careerseq" / "__init__.py").is_file():
        print(f"error: {SRC / 'careerseq'} not found; run from the root of a careerseq checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import careerseq

    if Path(careerseq.__file__).resolve().parent != (SRC / "careerseq").resolve():
        print(f"error: careerseq imported from {careerseq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS, Tally

    info = harness.machine_info(args.seed)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir()
    tally = Tally()
    workload = WORKLOADS[args.workload](args.seed, workdir, tally)
    try:
        if args.trace:
            trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
            values = harness.run_traced(workload, args.seconds, info["nproc"], trace_file)
        else:
            values = harness.run_untraced(workload, args.seconds)
        tally.attempt("checks", workload.checks)
    except Exception:  # noqa: BLE001 - a set-up failure ends the run without a result
        traceback.print_exc()
        print("error: set-up failed; no result", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = harness.BENCHMARK["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared},
    }
    info.update(workload=args.workload, seconds=args.seconds, trace=args.trace, samples=harness.sample_counts(workload.samples))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
