"""The benchmark's traced run (perfbench/tracing.py) swaps wrappers in for
names in boxprune's modules; each of those names must still exist, or
every traced benchmark run fails with an AttributeError."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_patched_name_is_a_module_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    hooks = tracing.Tracer().replacements() + tracing.OperandCounter(0).replacements()
    assert hooks
    for module, name, _wrapper in hooks:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
