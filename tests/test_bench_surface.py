"""The benchmark in ``perfbench/`` wraps library callables by name, so a
renamed or deleted one fails every traced run. Installing its probes here
keeps that surface under the test suite."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_probe_installs(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness  # noqa: F401
    import layers
    import workloads  # noqa: F401
    from tracing import Tracer, installed

    probes = layers.probes()
    originals = [vars(p.owner)[p.attr] for p in probes]
    with installed(Tracer(), probes):
        assert all(vars(p.owner)[p.attr] is not f for p, f in zip(probes, originals))
    assert all(vars(p.owner)[p.attr] is f for p, f in zip(probes, originals))
