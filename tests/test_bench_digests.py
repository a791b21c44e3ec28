"""The benchmark's solves, pinned bit for bit.

A performance change to the propagation loop, the kernels or the search
must leave every answer of the benchmarked solves as it was.  Each case
below is one problem of perfbench's search_wide or propagate_deep workload
under one propagation order, and its pin is a SHA-256 over the report:
every atomic box as float.hex bounds with its path, the pruned count, the
applications, the depth, the Krawczyk counts and the budget that stopped
the search.  A change that moves any of these on purpose must say so and
pin the new values.
"""

import hashlib
from pathlib import Path

import pytest

from boxprune import BudgetExceeded, compile_problem, get_engine, solve

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# problem -> (eps, order -> SHA-256), as perfbench runs them with the
# default box budget; measured before the zero-addend rule and the one cut
# per split, which change no bit
PINS = {
    "circle": (1e-10, {
        "worklist": "27817170eeb43034dfaa89374b755e42322bf153b1323fef82ae3dcc5c81d015",
        "roundrobin": "7b0ed3281ccb08a407b89c5dfc2bc768d1ceb4b314cbd23ead72cea96a1dfa99",
        "random:7": "27817170eeb43034dfaa89374b755e42322bf153b1323fef82ae3dcc5c81d015",
    }),
    "hyperbola": (1e-10, {
        "worklist": "13082243fce14da6688ca8b5035c197c73b1493adc2560ac8fea97406e45c3eb",
        "roundrobin": "36de71435fdb9a308105988b0f1541112533050c00163fef4ce552ee69266977",
        "random:7": "13082243fce14da6688ca8b5035c197c73b1493adc2560ac8fea97406e45c3eb",
    }),
    "diagonal": (1e-10, {
        "worklist": "ff2abcbb77a5177a77189f3b4047ccfa9cc6327dd904291e1cb70fb6503fcbba",
        "roundrobin": "b08d5f8b29055cda2450c4ea6febbfb9ad8e6f70512a7822d288a253ae7e182b",
        "random:7": "a3f4070ef1b1901a15288ec7c091c33cca086656834bf03f8293f6d2ecbab616",
    }),
    "broyden-2": (1e-08, {
        "worklist": "ae8444b057bc9be3fb3be0ec9f2ffbf3f7789c8a034ba4a6aa6a0d83c7d6b3d9",
        "roundrobin": "3fbc50a8935ac2d8e2b138f4db691c4f8ca73593663b1001c0b754b47d183748",
        "random:7": "b438fcf8702c322ade85aca6b808597a600d8a20a8983ab0a0a50ed3a5a6bad8",
    }),
    "broyden-4": (1e-08, {
        "worklist": "3665350dae68cd34d973c594f53bf8bdb90bd4df16f9e033960531bfd56b66fd",
        "roundrobin": "426d9950eb962f6c484baf8ab1d748a49c77e8c8c7cd3aec01c0e440593b2ecb",
        "random:7": "f4f14f295c82d619ee808709fc730c029987ab7ae4d4208409b017d0591f48d5",
    }),
    "broyden-6": (1e-08, {
        "worklist": "83bbba18ca934b47fe349528f5e97e855e2466cdbf535047c11c05d5f8267ebc",
        "roundrobin": "e197d232b79b4bdae2d1024e63c2be3d95eec5c5524ac5dc9573567220ad2489",
        "random:7": "14a0c9d65a634e08240e37df4f00b721244773e9e1c5db011af6e1b0dceba370",
    }),
    "broyden-8": (1e-08, {
        "worklist": "b865cc020796a9464ec95d89292a5823b8437a4cf0557c8c9f80ea59208aab69",
        "roundrobin": "c5d0f6a1aaa11530ad3cf82ce0f0e82b995224c0d396deb1e154d7ab55f7bba6",
        "random:7": "805f5efaab7a6723afcc0931002505b19fa0dc4d9b849c228e5137c1fda52e0b",
    }),
    "broyden-2-repeated": (1e-08, {
        "worklist": "09d43d393974bc1f5df56971b127c90a749d1a16ee2cea1e3299f37661bcaba3",
        "roundrobin": "a3cdb7531676fcf6c3dfc90b949dd6820d3a6ddb650351144f06249aaff89652",
        "random:7": "2bf176cd2d55f0c62b29c1e2ec1d04ea30ea5ec90683c1a4ceb5fcbd29513c18",
    }),
}


def report_digest(report) -> str:
    lines = [
        f"pruned {report.pruned_count} applications {report.stats.contractor_applications} "
        f"depth {report.stats.max_depth} krawczyk {report.stats.krawczyk_steps} "
        f"{report.stats.krawczyk_narrowed} exhausted {report.exhausted}"
    ]
    for box, path in report.atomic_boxes:
        bounds = " ".join(f"{name}={iv.lo.hex()},{iv.hi.hex()}" for name, iv in box.items())
        lines.append(f"{path} {bounds}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def problem_text(name: str) -> str:
    import problems

    if name.startswith("broyden-"):
        n = int(name.split("-")[1])
        return problems.broyden(n, repeated=name.endswith("-repeated"))
    return {"circle": problems.CIRCLE, "hyperbola": problems.HYPERBOLA, "diagonal": problems.DIAGONAL}[name]


def solve_case(name: str, eps: float, order: str, opaque: bool = False):
    csp = compile_problem(problem_text(name))
    engine = get_engine(order)
    if opaque:
        # solve runs a built-in order on bound lists of its own, and calls
        # any other engine, such as this pass-through, once per run
        engine = lambda csp_, box, **kw: get_engine(order)(csp_, box, **kw)
    try:
        return solve(csp, eps=eps, engine=engine)
    except BudgetExceeded as exc:
        # the diagonal spends its 4096 boxes
        return exc.report


CASES = [(name, order) for name, (_, pins) in PINS.items() for order in pins]


@pytest.mark.parametrize("name,order", CASES, ids=[f"{name}-{order}" for name, order in CASES])
def test_a_benchmarked_solve_keeps_its_bits(monkeypatch, name, order):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    eps, pins = PINS[name]
    assert report_digest(solve_case(name, eps, order)) == pins[order]


@pytest.mark.parametrize("name,order", CASES, ids=[f"{name}-{order}" for name, order in CASES])
def test_a_benchmarked_solve_through_an_opaque_engine_keeps_its_bits(monkeypatch, name, order):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    eps, pins = PINS[name]
    assert report_digest(solve_case(name, eps, order, opaque=True)) == pins[order]
