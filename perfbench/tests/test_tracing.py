import inspect
import sys

import pytest

import numpy as np

import careerseq.cli
import harness
import layers
from careerseq import autograd, tokenizer
from tracing import Span, Tracer, installed, layer_self_times, self_times
from workloads import Phase, Samples, Tally


def span(id, name, start, end, parent=None):
    return Span(id, name, start, end, parent, "r")


def test_self_time_of_nested_spans():
    spans = [
        span(0, "outer", 0.0, 10.0),
        span(1, "inner", 1.0, 4.0, parent=0),
        span(2, "leaf", 2.0, 3.0, parent=1),
        span(3, "inner", 6.0, 7.0, parent=0),
    ]
    own = self_times(spans)
    assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert layer_self_times(spans) == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_overlapping_children_are_subtracted_once():
    # two children overlapping on [3, 5] (threads), one reaching past the parent's end
    spans = [
        span(0, "parent", 0.0, 10.0),
        span(1, "child", 1.0, 5.0, parent=0),
        span(2, "child", 3.0, 6.0, parent=0),
        span(3, "child", 9.0, 12.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def _namespace_snapshot():
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "careerseq" or name.startswith("careerseq."):
            snap[name] = dict(vars(mod))
            for obj in vars(mod).values():
                if inspect.isclass(obj) and obj.__module__.startswith("careerseq"):
                    snap[obj.__qualname__ + "@" + obj.__module__] = dict(vars(obj))
    return snap


def _assert_same(before, after):
    assert before.keys() == after.keys()
    for key, attrs in before.items():
        changed = [a for a, v in attrs.items() if after[key].get(a) is not v]
        assert not changed, (key, changed)


class _TinyWorkload:
    """Calls a few wrapped library functions, then fails in its last phase."""

    def __init__(self):
        self.tally = Tally()
        self.samples = Samples()

    def setup(self):
        pass

    def phases(self):
        def encode(i):
            vocab = tokenizer.train_template_vocab(["a b a b\n"] * 3, [" a"], 260)
            assert tokenizer.Vocabulary.encode_batch is not self.original_encode
            assert careerseq.cli.train_template_vocab is tokenizer.train_template_vocab
            vocab.encode("a b")

        def fail(i):
            raise RuntimeError("boom")

        return [Phase("encode", 1, 1, encode), Phase("fail", 1, 1, fail)]


def test_traced_pass_restores_every_wrapped_function():
    before = _namespace_snapshot()
    work = _TinyWorkload()
    work.original_encode = tokenizer.Vocabulary.encode_batch
    tracer = harness.run_pass(work, layers.probes(), setups=1, seconds=0, fill=False)
    _assert_same(before, _namespace_snapshot())
    assert work.tally.attempted == 2 and work.tally.failed == 1
    names = {s.name for s in tracer.spans}
    assert {"tokenizer.train", "tokenizer.encode"} <= names
    assert tracer.counters["tokenizer.encode_calls"] == 1


def test_wrappers_are_removed_when_the_block_raises():
    before = _namespace_snapshot()
    with pytest.raises(KeyError):
        with installed(Tracer(), layers.probes()):
            raise KeyError("inside")
    _assert_same(before, _namespace_snapshot())


def _gelu_grad():
    x = autograd.Tensor(np.linspace(-1.0, 1.0, 5), requires_grad=True)
    autograd.tsum(autograd.gelu(x)).backward()
    return x.grad


def test_an_ops_backward_closure_is_recorded_under_the_op():
    tracer = Tracer()
    with installed(tracer, layers.probes()):
        traced = _gelu_grad()
    backward = next(s for s in tracer.spans if s.name == "autograd.backward")
    gelu = [s for s in tracer.spans if s.name == "autograd.gelu"]
    assert [s.parent for s in gelu] == [None, backward.id]
    assert np.array_equal(traced, _gelu_grad())


class _PredictWorkload(_TinyWorkload):
    """Its first predict call, the warm-up's, is slow; every later one is fast."""

    seed = 0

    def phases(self):
        def predict(i):
            self.samples.predict_s.append(1.0 if self.calls == 0 else 0.001)
            self.calls += 1

        return [Phase("predict", 3, 3, predict)]


def test_tracing_overhead_compares_the_measured_passes_only(tmp_path):
    work = _PredictWorkload()
    work.calls = 0
    metrics = harness.run_traced(work, 0, 1, tmp_path / "trace.jsonl")
    assert work.calls == 7
    assert metrics["tracing.overhead.predict_ms_p50"] == 0.0
