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


def test_division_goes_through_the_contractors_module(monkeypatch):
    # the benchmark's interval.calls.div row counts calls through
    # contractors.div_down/div_up; the mul kernel must still make them
    from boxprune import Interval, contract_mul, contractors

    calls = {"div_down": 0, "div_up": 0}

    def counting(name):
        inner = getattr(contractors, name)

        def wrapper(n, d):
            calls[name] += 1
            return inner(n, d)

        return wrapper

    for name in calls:
        monkeypatch.setattr(contractors, name, counting(name))
    # y is sign-definite, so x = z / y divides by a real interval
    x, _, _ = contract_mul(Interval(-10.0, 10.0), Interval(2.0, 3.0), Interval(1.0, 5.0))
    # 1.0 / 3.0 rounds to nearest below 1/3, so it is the lower bound
    assert x == Interval(1.0 / 3.0, 2.5)
    assert calls["div_down"] > 0 and calls["div_up"] > 0
