"""Runs a workload's passes and turns what they measured into metrics.

Imported by ``run.py`` after it has pinned the BLAS thread count and put the
checkout's ``src/`` first on the import path.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np
from careerseq.evaluation import BootstrapConfig, bootstrap_metric, perplexity
from numpy._core import _multiarray_umath

import layers
import stats
from tracing import Tracer, installed
from workloads import BOOTSTRAP_B, Samples, _timed, peak_rss_mb

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# every metric's name, unit and direction, as declared
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# process-wide, so traced minus untraced says nothing
NO_OVERHEAD = ("peak_rss_mb",)


# --------------------------------------------------------------------------
# Machine and program identity
# --------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int:
    """Thread count the loaded OpenBLAS reports, else the pinned value."""
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "careerseq").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_info(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


# --------------------------------------------------------------------------
# Passes
# --------------------------------------------------------------------------


def run_pass(workload, probes, setups: int, seconds: float, fill: bool):
    """Set up ``setups`` times, then run cycles of the workload's phases
    (``per_cycle`` operations of each, in order) until every phase has had
    its minimum number of operations and, with ``fill``, ``seconds`` have
    passed. Returns the tracer that recorded the pass."""
    tracer = Tracer()
    workload.samples = Samples()
    phases = workload.phases()
    done = [0] * len(phases)
    with installed(tracer, probes):
        for i in range(setups):
            tracer.run = f"setup-{i}"
            workload.samples.setup_s.append(_timed(workload.setup))
        start = time.perf_counter()
        while any(n < p.min_ops for n, p in zip(done, phases)) or (fill and time.perf_counter() - start < seconds):
            for k, phase in enumerate(phases):
                for _ in range(phase.per_cycle):
                    tracer.run = f"{phase.name}-{done[k]}"
                    workload.tally.attempt(phase.name, phase.op, done[k])
                    done[k] += 1
    return tracer


def _median(values) -> float:
    return stats.median(values) if values else 0.0


def end_to_end(samples, tracer) -> dict[str, float]:
    c = tracer.counters

    def pct_ms(permille):
        return 1000.0 * stats.percentile(samples.predict_s, permille) if samples.predict_s else 0.0

    return {
        "setup_s": _median(samples.setup_s),
        "train_s": _median(samples.train_s),
        "eval_s": _median(samples.eval_s),
        "score_transitions_per_s": c["evaluation.learned_transitions"] / c["evaluation.learned_score_s"]
        if c["evaluation.learned_score_s"] else 0.0,
        "predict_ms_p50": pct_ms(500),
        "predict_ms_p90": pct_ms(900),
        "generate_tokens_per_s": samples.generated / samples.generate_s if samples.generate_s else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }


def run_untraced(workload, seconds: int) -> dict[str, float]:
    tracer = run_pass(workload, [layers.scoring_probe()], workload.setups, seconds, fill=True)
    workload.tally.check("p90 has ten predict samples beyond it", (stats.tail_permille(len(workload.samples.predict_s)) or 0) >= 900)
    return end_to_end(workload.samples, tracer)


def sample_counts(samples) -> dict[str, int]:
    """How many samples each end-to-end figure rests on."""
    return {
        "setup": len(samples.setup_s),
        "train": len(samples.train_s),
        "eval": len(samples.eval_s),
        "predict": len(samples.predict_s),
        "generated": samples.generated,
    }


def warm_up(workload) -> None:
    """One set-up and one operation of each phase, not recorded, so that no
    measured pass pays the process's first calls (imports, file cache)."""
    workload.samples = Samples()
    workload.setup()
    for phase in workload.phases():
        workload.tally.attempt(phase.name, phase.op, 0)


def run_traced(workload, seconds: int, nproc: int, trace_file: Path) -> dict[str, float]:
    """Warm up, then the phases' minimum work untraced and traced; the
    overhead is the traced figures minus the untraced ones."""
    warm_up(workload)
    stopwatch = run_pass(workload, [layers.scoring_probe()], 1, seconds, fill=False)
    untraced = end_to_end(workload.samples, stopwatch)
    probes = layers.probes()
    tracer = run_pass(workload, probes, 1, seconds, fill=False)
    traced = end_to_end(workload.samples, tracer)
    metrics = layers.layer_metrics(tracer, probes)
    samples = workload.samples
    metrics["evaluation.ppl_test"] = _median(samples.ppl)
    metrics["training.valid_loss"] = _median(samples.valid_loss)
    for m in BENCHMARK["end_to_end"]:
        name = m["name"]
        if name not in NO_OVERHEAD:
            diff = traced[name] - untraced[name]
            metrics[f"tracing.overhead.{name}"] = diff if m["better"] == "lower" else -diff

    # does the bootstrap's --threads pool gain anything? same replicates, 1 vs nproc threads
    scores = tracer.captured.get("scores")
    metrics["evaluation.bootstrap_serial_s"] = metrics["evaluation.bootstrap_threaded_s"] = 0.0
    if scores is not None:
        cfg = BootstrapConfig(b=BOOTSTRAP_B, seed=workload.seed)
        results = {}
        for key, threads in (("serial", 1), ("threaded", nproc)):
            start = time.perf_counter()
            results[key] = bootstrap_metric(perplexity, scores, cfg, threads=threads)
            metrics[f"evaluation.bootstrap_{key}_s"] = time.perf_counter() - start
        workload.tally.check("threaded bootstrap equals serial",
                             bool((results["serial"].values == results["threaded"].values).all()))

    with open(trace_file, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s.__dict__) + "\n")
        fh.write(json.dumps({"counters": dict(tracer.counters)}) + "\n")
    return metrics
