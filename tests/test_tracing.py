"""The benchmark's tracer patches library functions by name; a rename in
`src/` must fail here, not only in a traced benchmark run."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    for owner, attr, name in tracing.SPANS + tracing.COUNTED:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"
