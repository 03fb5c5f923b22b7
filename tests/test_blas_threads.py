"""CLI outputs do not depend on the BLAS thread count the environment sets.

Matrix products over many rows sum in an order that depends on how OpenBLAS
splits them over threads; without the CLI's one-thread pin the token LM's
head gradients, and with them every trained checkpoint, move with
``OPENBLAS_NUM_THREADS``.
"""

import os
import subprocess
import sys

import pytest

from careerseq import cli
from careerseq.cli import main

# reads the thread count the loaded OpenBLAS reports, as perfbench does
_THREAD_PROBE = """
import ctypes
from numpy._core import _multiarray_umath
lib = ctypes.CDLL(_multiarray_umath.__file__)
for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
    fn = getattr(lib, symbol, None)
    if fn is not None:
        fn.restype = ctypes.c_int
        print(fn())
        break
else:
    print(0)
"""


def _run(args, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_train_and_eval_byte_identical_across_blas_thread_counts(tmp_path):
    reported = int(_run(["-c", _THREAD_PROBE], 2))
    if reported < 2:
        pytest.skip(f"the BLAS reports {reported} thread(s) under OPENBLAS_NUM_THREADS=2, "
                    "so a thread count cannot change a result here")
    data, tax, split = tmp_path / "data.jsonl", tmp_path / "tax.csv", tmp_path / "split.jsonl"
    assert main(["gen-data", "--out", str(data), "--taxonomy-out", str(tax), "--n", "200",
                 "--taxonomy-size", "24", "--seed", "5"]) == 0
    assert main(["split", "--in", str(data), "--taxonomy", str(tax), "--out", str(split), "--seed", "5"]) == 0
    outputs = []
    for threads in (1, 2):
        root = tmp_path / f"threads{threads}"
        lm, ev = root / "lm", root / "eval"
        _run(["-m", "careerseq.cli", "train", "lm", "--data", str(split), "--taxonomy", str(tax), "--out", str(lm),
              "--epochs", "1", "--d-model", "64", "--n-layers", "2", "--vocab-size", "400", "--batch", "8",
              "--seed", "5"], threads)
        _run(["-m", "careerseq.cli", "eval", "--data", str(split), "--taxonomy", str(tax), "--model-a", str(lm),
              "--out", str(ev), "--bootstrap", "20", "--seed", "5"], threads)
        outputs.append(_tree_bytes(root))
    one, two = outputs
    assert "lm/train_report.json" in one and "eval/metrics.csv" in one
    assert sorted(one) == sorted(two)
    differing = [name for name in one if one[name] != two[name]]
    assert not differing, f"differ between 1 and 2 BLAS threads: {differing}"


def test_main_restores_the_callers_thread_count(tmp_path):
    if cli._BLAS_THREAD_CALLS is None:
        pytest.skip("the loaded BLAS exports no thread-count calls")
    get, put = cli._BLAS_THREAD_CALLS
    before = get()
    put(2)
    try:
        if get() < 2:
            pytest.skip("the BLAS cannot run on 2 threads here")
        assert main(["gen-data", "--out", str(tmp_path / "d.jsonl"), "--n", "5", "--taxonomy-size", "8",
                     "--seed", "1"]) == 0
        assert get() == 2
    finally:
        put(before)
