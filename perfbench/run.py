"""boxprune benchmark: time to proof, end to end and layer by layer.

Usage (from the repository root; boxprune is imported from ./src):

    python3 perfbench/run.py --workload propagate_deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another
    python3 perfbench/run.py --smoke             # one-second run of each workload, both modes

Load is a closed loop with one client: each problem starts when the
previous one has ended.  The seed fixes the generated problems and the order
of cases in every pass.  Each answer is checked outside the timed region
(workloads.Checker); the run measures until its timed problems add up to
--seconds.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run (tracing.py).  Human-readable lines come first;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Full results, failures, the environment
and the spans of traced runs are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 5
WORKLOAD_NAMES = ("propagate_deep", "search_wide", "random_mix", "cli")
EXPECTED_FAILURE = ("pinned-overrun", "RuntimeError")


def tail(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples above it, and its value."""
    if len(samples) < 11:
        return 100, max(samples)
    cuts = statistics.quantiles(samples, n=100)
    for p in range(99, 0, -1):
        if sum(s > cuts[p - 1] for s in samples) >= 10:
            return p, cuts[p - 1]
    return 1, cuts[0]


def setup_seconds(env: dict[str, str]) -> float:
    """Median wall time of a fresh interpreter importing boxprune.cli, after
    one warm-up run has written the .pyc files."""
    argv = [sys.executable, "-c", "import boxprune.cli"]
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _run_and_check(workload, case, checker, env) -> tuple[float, dict | None]:
    """One timed problem and its check.  Its answer is dropped on return, so
    the next problem never runs with it still in memory."""
    import workloads

    if workload.cli:
        elapsed, code, stdout = workloads.cli_case(case, env)
        return elapsed, checker.ran_cli(case, code, stdout)
    elapsed, csp, report = workloads.solve_case(case)
    return elapsed, checker.solved(case, csp, report)


def measure(workload, seed: int, seconds: float):
    """Closed loop over the workload's passes until the timed problems add up
    to ``seconds``.  Returns ({case id: seconds of each run}, failures)."""
    import workloads

    rng = random.Random(seed)
    checker = workloads.Checker()
    env = workloads.cli_env()
    samples: dict[str, list[float]] = {}
    failures: list[dict] = []
    busy = 0.0
    while busy < seconds:
        for case in workload.pass_order(rng):
            if busy >= seconds:
                break
            elapsed, failure = _run_and_check(workload, case, checker, env)
            busy += elapsed
            samples.setdefault(case.id, []).append(elapsed)
            if failure:
                failures.append(failure)
    return samples, failures


def end_to_end(workload, seed: int, seconds: float) -> dict:
    import workloads

    setup = setup_seconds(workloads.cli_env())
    by_case, failures = measure(workload, seed, seconds)
    samples = [t for times in by_case.values() for t in times]
    pct, tail_s = tail(samples)
    attempted = len(samples)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "tail_percentile": pct,
        "samples": by_case,
        "metrics": {
            "proof_s.p50": (statistics.median(samples), "s"),
            "proof_s.tail": (tail_s, "s"),
            "problems_per_s": ((attempted - len(failures)) / sum(samples), "1/s"),
            "fail_ratio": (len(failures) / attempted, "ratio"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (peak_rss_mb(children=workload.cli), "MB"),
        },
    }


def environment(cpu_model: bool) -> dict:
    import numpy

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_commit": "unknown",
    }
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        env["git_commit"] = proc.stdout.strip() or "unknown"
    if cpu_model:
        # /proc lies outside the checkout, so only the interactive modes read it
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as handle:
                names = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
            env["cpu_model"] = names[0] if names else "unknown"
        except OSError:
            env["cpu_model"] = "unknown"
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    if trace:
        import tracing

        result = tracing.traced_run(workload, seed, seconds, OUT / f"spans-{name}-seed{seed}.jsonl")
    else:
        result = end_to_end(workload, seed, seconds)
    result.update(workload=name, why=workload.why, seed=seed, seconds=seconds, trace=trace)
    result["environment"] = environment(cpu_model=False)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return result


def print_report(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, {'traced' if result['trace'] else 'untraced'}): {result['why']}")
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:<40} {value:>14.6g} {unit}")
    if "tail_percentile" in result:
        print(f"  proof_s.tail is p{result['tail_percentile']} of {result['attempted']} samples")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure['problem']}: {failure['error']} (exit code {failure['exit_code']}) {failure['detail']}")


def result_line(result: dict, names) -> str:
    metrics = {name: {"value": result["metrics"][name][0], "unit": result["metrics"][name][1]} for name in names}
    # any failure makes the run incorrect, save the known overrun of the
    # pinned random_mix case, which fail_ratio and failed still count
    correct = all((f["problem"], f["error"]) == EXPECTED_FAILURE for f in result["failures"])
    return json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics})


def _declared_metrics(trace: bool) -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so that peak RSS is its own."""
    print(json.dumps(environment(cpu_model=True)))
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        # no timeout: random_mix runs every overrun it reaches to the end
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def _smoke() -> int:
    """One-second runs of every workload in both modes; checks the result line."""
    status = 0
    for trace in (0, 1):
        expected = set(_declared_metrics(bool(trace)))
        for name in WORKLOAD_NAMES:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
                    "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            try:
                last = json.loads(proc.stdout.splitlines()[-1])
                ok = proc.returncode == 0 and set(last) == {"correct", "attempted", "failed", "metrics"} \
                    and set(last["metrics"]) == expected and last["attempted"] >= 1
            except (IndexError, ValueError):
                ok = False
            print(f"smoke {name} trace={trace}: {'ok' if ok else 'BROKEN'}")
            if not ok:
                sys.stderr.write(proc.stderr)
                status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick self-test of every workload and mode")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "boxprune" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} lacks src/boxprune or BENCHMARK.json; run from a boxprune checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.smoke:
        return _smoke()
    if args.workload == "all":
        return _run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(result)
    print(result_line(result, _declared_metrics(bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
