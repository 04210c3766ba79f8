"""Smoke test of the benchmark harness at a tiny input size.

    python3 benchmarks/smoke.py

For every workload at scale 0.02 it runs the end-to-end and the per-layer
measurement and requires that every call and check passes, that the
counting pass gives the same counts twice, and that a second pass
reproduces the first pass's output digests.  It then corrupts each
output and requires the harness to count every call as failed.  It takes
about a minute and is kept out of the pytest suite on purpose.
"""

from __future__ import annotations

import os
import shutil
import sys

import run
import workloads

SCALE = 0.02
SEED = 7


def _counts(metrics: dict) -> dict:
    """The per-layer counts (integers; times and ratios are floats)."""
    return {k: v for k, v in metrics.items() if isinstance(v, int)}


def _truncating(check):
    """A check that first cuts every output of its call to half its size."""
    def corrupted(work):
        for path in work.iterdir():
            if path.suffix in (".conllu", ".json", ".jsonl", ".matrix") \
                    and not path.name.startswith("gold"):
                data = path.read_bytes()
                path.write_bytes(data[:len(data) // 2])
        return check(work)
    return corrupted


def smoke(name: str) -> list[str]:
    problems = []
    work = run.ROOT / ".bench_work" / f"smoke-{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        plan = workloads.plan(name, SEED, SCALE, work)
        h = run.Harness(name, work, plan, None)
        run.measure_end_to_end(h, 0)
        first = _counts(run.measure_layers(h, 0))
        second = _counts(run.measure_layers(h, 0))
        if first != second:
            problems.append(f"counts differ between counting passes: {first} {second}")
        if h.failed:
            problems.append(f"{h.failed} of {h.attempted} calls failed on good outputs")

        before = h.failed
        h.expected = dict(h.digests)
        h.run_pass(run.cli_prefix())
        if h.failed != before:
            problems.append("a second pass did not reproduce the output digests")

        before = h.failed
        for call in plan.calls:
            call.check = _truncating(call.check)
        h.run_pass(run.cli_prefix())
        if h.failed - before != len(plan.calls):
            problems.append(f"corrupted outputs: {h.failed - before} failed calls, "
                            f"expected {len(plan.calls)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return problems


def main() -> int:
    failures = 0
    for name in workloads.WORKLOADS:
        problems = smoke(name)
        failures += bool(problems)
        print(f"{name}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
