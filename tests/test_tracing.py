"""The benchmark's tracer patches library functions by name; a rename in
`src/`, or a caller that stops going through a patched name, must fail
here, not only in a traced benchmark run."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_traced_names_exist(tracing):
    for owner, attr, name in tracing.SPANS + tracing.COUNTED:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


def test_tracer_intercepts_each_workload(tracing):
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        w = workload(1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.start_instance(0)
            workloads.run(w, w.make(0))
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(1)
        for layer in tracing.LAYERS:
            assert metrics[f"{layer}.errors"] == 0, (name, layer)
        if name == "bmo-field":
            assert metrics["funcs.oscillation.calls"] > 0
            # both CZ searches reach the kernel through their patched names
            names = [span[0] for span in tracer.spans]
            callers = {names[span[3]] for span in tracer.spans if span[0] == "funcs.oscillation"}
            assert {"bmo.bmo_norm", "maximal.sharp_maximal"} <= callers
            # the Hörmander constant runs through its patched name too
            assert "bmo.hormander" in names
            assert metrics["bmo.hormander.kernel_rows"] == 24



def _trace_instance(tracing, workload, i):
    w = workload(1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.start_instance(i)
        tracing.workloads.run(w, w.make(i))
    finally:
        tracer.uninstall()
    return tracer


def test_hl_climbs_run_through_their_patched_name(tracing, monkeypatch):
    workloads = tracing.workloads
    counted = []
    hook = tracing._HOOKS["maximal.hl_maximal"]

    def recorded(tr, args, result):
        counted.append(result.certificate.sets_evaluated)
        hook(tr, args, result)

    monkeypatch.setitem(tracing._HOOKS, "maximal.hl_maximal", recorded)
    # each bmo-field HL value is one hl_maximal span that counts its sets
    tracer = _trace_instance(tracing, workloads.WORKLOADS["bmo-field"], 0)
    names = [span[0] for span in tracer.spans]
    assert counted and len(counted) == names.count("maximal.hl_maximal")
    assert all(n > 0 for n in counted)
    # a telescoping decomposition reaches hl_maximal through hardy's name
    tracer = _trace_instance(tracing, workloads.WORKLOADS["decompose"], 6)
    names = [span[0] for span in tracer.spans]
    parents = {names[span[3]] for span in tracer.spans if span[0] == "maximal.hl_maximal"}
    assert parents == {"hardy.telescoping"}
