"""Seeded end-to-end and per-layer benchmark of the ruleparse CLI.

Run from the repository root:

    python3 benchmarks/run.py --workload annotate-ablate --seed 1 --seconds 60 --trace 0

Load model: a closed loop with one client.  The workload's ``ruleparse``
calls run one at a time as child processes (``python3 -m ruleparse``
against ``src/``, ``--jobs`` at its default of 1), and the calls are
repeated as a pass as long as another pass fits in ``--seconds``.
Timings are medians over passes.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics,
taken from traced passes (``layertrace.py``), each after an untraced
pass, and one counting pass.  Every call's outputs are checked; a call that exits
non-zero or fails a check counts as failed.  For the default seed the
outputs must also match the digests in ``expected.json``
(``--record`` rewrites them).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 1
MIN_PASSES = 5
MIN_TRACED_PASSES = 3


@dataclass
class CallResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool


class Harness:
    """Runs ``ruleparse`` calls in a work directory and keeps the tally."""

    def __init__(self, name: str, work: Path, plan: workloads.Workload,
                 expected: dict | None):
        # ``expected`` and ``digests`` map a part to {output: sha256}.
        self.name = name
        self.work = work
        self.plan = plan
        self.expected = expected
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)

    def spawn(self, argv: list[str], cwd: Path) -> tuple[float, float, float, int]:
        """Run one child; wall time, its own CPU time and max RSS, exit code.

        ``os.wait4`` gives the rusage of this child alone (RUSAGE_CHILDREN
        would be a maximum over every child so far).
        """
        with open(self.work / "stdout.txt", "wb") as out, \
                open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env,
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                proc.returncode)

    def stderr_tail(self) -> str:
        return (self.work / "stderr.txt").read_text(errors="replace")[-400:]

    def setup_time(self) -> float:
        """Start the interpreter, import ``ruleparse.cli`` and exit."""
        self.attempted += 1
        wall, _, _, code = self.spawn([sys.executable, "-m", "ruleparse", "--version"],
                                      self.work)
        if code != 0 or not (self.work / "stdout.txt").read_text().strip():
            self.fail(f"--version exited {code}: {self.stderr_tail()}")
        return wall

    def run_call(self, call: workloads.Call, prefix: list[str]) -> CallResult:
        self.attempted += 1
        wall, cpu, rss, code = self.spawn(prefix + call.argv, self.work / call.part)
        ok = code == 0
        if not ok:
            self.fail(f"{self.name}: {call.argv[0]} exited {code}: {self.stderr_tail()}")
        else:
            try:
                problems = call.check(self.work / call.part) + self.digest_problems(call)
            except Exception as exc:  # a malformed output fails the call
                problems = [f"unreadable output: {exc!r}"]
            for problem in problems:
                self.fail(f"{self.name}: {call.argv[0]}: {problem}")
            ok = not problems
        return CallResult(wall, cpu, rss, ok)

    def digest_problems(self, call: workloads.Call) -> list[str]:
        digests = workloads.output_digests(call, self.work / call.part, ROOT)
        self.digests.setdefault(call.part, {}).update(digests)
        if self.expected is None:
            return []
        expected = self.expected.get(call.part, {})
        return [f"{call.part}/{name} differs from the recorded digest"
                for name, digest in digests.items()
                if expected.get(name) != digest]

    def run_pass(self, prefix: list[str]) -> list[CallResult]:
        return [self.run_call(call, prefix) for call in self.plan.calls]


def cli_prefix() -> list[str]:
    return [sys.executable, "-m", "ruleparse"]


def trace_prefix(out: Path, counting: bool = False) -> list[str]:
    return ([sys.executable, str(HERE / "layertrace.py"), str(out)]
            + (["--count"] if counting else []) + ["--"])


def layer_self_times(spans: list[list]) -> tuple[Counter, float]:
    """Self time per layer, and the summed duration of the root spans.

    A span's self time is its duration minus the part of it that its
    child spans cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            covered[parent] += max(0.0, min(end, p_end) - max(start, p_start))
    self_times: Counter = Counter()
    total = 0.0
    for (layer, start, end, parent), cover in zip(spans, covered):
        self_times[layer] += (end - start) - cover
        if parent < 0:
            total += end - start
    return self_times, total


def fits(start: float, rounds: list[float], seconds: float) -> bool:
    """Whether one more round, as long as the median so far, ends in time."""
    return time.perf_counter() - start + statistics.median(rounds) <= seconds


def measure_end_to_end(h: Harness, seconds: float) -> dict:
    # One set-up sample before each pass, so that both medians are taken
    # over the same stretch of time on a machine whose speed drifts.
    setup, passes, rounds = [], [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or fits(start, rounds, seconds):
        begin = time.perf_counter()
        setup.append(h.setup_time())
        passes.append(h.run_pass(cli_prefix()))
        rounds.append(time.perf_counter() - begin)
    walls = [sum(c.wall_s for c in p) for p in passes]
    cpus = [sum(c.cpu_s for c in p) for p in passes]
    wall = statistics.median(walls)
    print(f"passes: {len(passes)}; pass wall_s min {min(walls):.4f} "
          f"max {max(walls):.4f}; setup_s samples {len(setup)}")
    return {
        "wall_s": wall,
        "tokens_per_s": h.plan.token_base / wall,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": max(c.rss_mb for p in passes for c in p),
        "setup_s": statistics.median(setup),
    }


def traced_pass(h: Harness, spans_file: Path) -> Counter:
    """Self time per layer (``<layer>_s``) and ``cli.total_s`` of one pass."""
    layers: Counter = Counter()
    for call in h.plan.calls:
        spans_file.unlink(missing_ok=True)
        h.run_call(call, trace_prefix(spans_file))
        if not spans_file.exists():  # the call failed and is counted
            continue
        trace = json.loads(spans_file.read_text())
        if trace["missing"]:
            print(f"not traced (name not found): {trace['missing']}", file=sys.stderr)
        self_times, total = layer_self_times(trace["spans"])
        if abs(sum(self_times.values()) - total) > 1e-6 * max(1.0, total):
            h.fail(f"{h.name}: layer self times do not sum to cli.total_s")
        for layer, value in self_times.items():
            layers[f"{layer}_s"] += value
        layers["cli.total_s"] += total
    return layers


def measure_layers(h: Harness, seconds: float) -> dict:
    # Each traced pass follows a set-up sample and an untraced pass, so the
    # overhead ratio compares passes from the same stretch of time.
    setup, untraced, per_pass, rounds = [], [], [], []
    spans_file = h.work / "spans.json"
    start = time.perf_counter()
    while len(per_pass) < MIN_TRACED_PASSES or fits(start, rounds, seconds):
        begin = time.perf_counter()
        setup.append(h.setup_time())
        untraced.append(sum(c.wall_s for c in h.run_pass(cli_prefix())))
        per_pass.append(traced_pass(h, spans_file))
        rounds.append(time.perf_counter() - begin)
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in set().union(*per_pass)}
    metrics["cli.other_s"] = metrics.pop("cli_s", 0.0)
    metrics.setdefault("cli.total_s", 0.0)
    in_main = statistics.median(untraced) - len(h.plan.calls) * statistics.median(setup)
    metrics["trace.overhead_ratio"] = metrics["cli.total_s"] / in_main
    print(f"traced passes: {len(per_pass)}; untraced wall_s minus set-up {in_main:.4f}; "
          f"trace.overhead_ratio {metrics['trace.overhead_ratio']:.4f}")

    # Counts are cross-checked part by part: each part's outputs report
    # what that part's calls did.
    counts: Counter = Counter()
    counts_file = h.work / "counts.json"
    for part, sub in h.plan.parts.items():
        part_counts: Counter = Counter()
        all_ok = True
        for call in sub.calls:
            counts_file.unlink(missing_ok=True)
            all_ok &= h.run_call(call, trace_prefix(counts_file, counting=True)).ok
            if counts_file.exists():
                part_counts.update(json.loads(counts_file.read_text())["counts"])
        program_counts = sub.read_counts(h.work / part) if all_ok else {}
        for name, value in program_counts.items():
            if name in part_counts and part_counts[name] != value:
                h.fail(f"{h.name}: {part}: {name} counted {part_counts[name]}, "
                       f"program reports {value}")
            part_counts[name] = value
        counts.update(part_counts)
    engine_tokens = counts.pop("engine.tokens", 0)
    counts["engine.assigned_ratio"] = (counts["engine.assigned"] / engine_tokens
                                       if engine_tokens else 0.0)
    metrics.update(counts)
    return metrics


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the digest check needs 1)")
    parser.add_argument("--record", action="store_true",
                        help="write this run's output digests to expected.json")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ruleparse" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no ruleparse sources under {SRC} or no {spec_path.name}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    all_expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    checked = (args.seed == DEFAULT_SEED and args.scale == 1.0 and not args.record)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        plan = workloads.plan(args.workload, args.seed, args.scale, work)
        h = Harness(args.workload, work, plan, all_expected if checked else None)
        print(f"environment: {json.dumps(environment(), sort_keys=True)}")
        print(f"workload {args.workload}, seed {args.seed}, scale {args.scale}: "
              f"token base {plan.token_base} = {plan.token_base_note}")
        for name, record in plan.inputs.items():
            print(f"input {name}: {json.dumps(record, sort_keys=True)}")
        h.spawn([sys.executable, "-m", "ruleparse", "--version"], work)  # warm-up
        if args.trace:
            values = measure_layers(h, args.seconds)
        else:
            values = measure_end_to_end(h, args.seconds)
        if args.record:
            all_expected.update(h.digests)
            EXPECTED.write_text(json.dumps(all_expected, indent=2, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for metric in wanted:
        metrics[metric["name"]] = {"value": values.get(metric["name"], 0),
                                   "unit": metric["unit"]}
        print(f"{metric['name']}: {values.get(metric['name'], 0)} {metric['unit']}")
    print(f"fail_ratio: {h.failed}/{h.attempted} = {h.failed / h.attempted} "
          f"(failed calls / attempted calls)")
    print(json.dumps({"correct": h.failed == 0, "attempted": h.attempted,
                      "failed": h.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
