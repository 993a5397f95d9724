"""Closed-loop benchmark of the ffsynth command line.

    python3 bench/run_bench.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client runs the real
``ffsynth`` entry point (``ffsynth.cli:main``, as the console script does)
as a fresh child process per invocation; each invocation starts after the
previous one exits.  Invocations repeat until the next one would end
past ``--seconds``, with at least two per run so that reruns of the same
seed can be compared byte for byte.  The program sees only a YAML config
generated from the workload and the seed (workloads.py).

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced invocations
(traced_cli.py) and reports the per-layer metrics (layers.py) of the
traced ones plus the tracing overhead.  Every invocation passes through
the correctness gate (gate.py).  The last line of standard output is one
JSON object; the exit code is 1 if any check failed and 2 if the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import gate
from layers import budget_violations, layer_metrics
from tracer import from_records
from workloads import WORKLOADS, make_config, write_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
TRACED_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_cli.py")

#: What the ``ffsynth`` console script runs.
ENTRY = "import sys; from ffsynth.cli import main; sys.exit(main())"
#: Set-up as a user pays it: a fresh interpreter imports the CLI and
#: parses the config.
SETUP = "import sys; from ffsynth.cli import load_config; load_config(sys.argv[1])"

SETUP_REPEATS = 5
#: Every workload's run ends well inside the 180 s a caller may allow it.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "primary_fidelity": "fraction",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself cannot run here (not a program failure)."""


@dataclass
class Child:
    returncode: int
    start: float
    end: float
    peak_rss_mb: float
    log: str

    @property
    def wall(self) -> float:
        return self.end - self.start


def spawn(argv: list[str], log_path: str, deadline: float) -> Child:
    """Run one child to completion; rusage comes from that child alone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    # ru_maxrss is in KiB on Linux
    return Child(proc.returncode, start, end, usage.ru_maxrss * 1024 / 1e6, text)


def check_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "ffsynth", "cli.py")):
        raise BenchError(f"no ffsynth sources under {SRC}; run from a source checkout")
    if not compileall.compile_dir(os.path.join(SRC, "ffsynth"), quiet=1):
        raise BenchError("ffsynth sources do not compile")


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, name: str, seed: int, seconds: float, work: str, deadline: float):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.deadline = deadline
        self.config = os.path.join(work, "config.yaml")
        doc, self.floors = make_config(self.workload, seed, os.path.join(work, "out"))
        write_config(self.config, doc)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest: str | None = None
        self.n = 0
        self.samples: dict[str, list[float]] = {}

    def fail(self, check: str) -> None:
        self.failures.append(f"workload={self.workload.name} seed={self.seed}: {check}")

    def setup_times(self) -> list[float]:
        times = []
        for i in range(SETUP_REPEATS):
            child = spawn(
                [sys.executable, "-c", SETUP, self.config],
                os.path.join(self.work, f"setup-{i}.log"),
                self.deadline,
            )
            if child.returncode != 0:
                raise BenchError(f"set-up failed with exit code {child.returncode}:\n{child.log}")
            times.append(child.wall)
        return times

    def invoke(self, traced: bool) -> dict:
        """One CLI invocation through the gate; its measurements."""
        self.n += 1
        out = os.path.join(self.work, f"out-{self.n}")
        args = [self.workload.command, "--config", self.config, "--out", out]
        spans_path = os.path.join(self.work, f"spans-{self.n}.json")
        if traced:
            argv = [sys.executable, TRACED_CLI, spans_path] + args
        else:
            argv = [sys.executable, "-c", ENTRY] + args
        child = spawn(argv, os.path.join(self.work, f"cli-{self.n}.log"), self.deadline)
        self.attempted += 1
        failures, fidelity = gate.check_invocation(
            self.workload, self.floors, out, child.returncode
        )
        if not failures:
            digest = gate.summary_digest(out)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                failures.append("summary.json differs from the first invocation of this seed")
        size, files = tree_size(out)
        m = {
            "run_s": child.wall,
            "primary_fidelity": fidelity,
            "peak_rss_mb": child.peak_rss_mb,
            "output_mb": size / 1e6,
        }
        if traced and child.returncode == 0:
            spans = from_records(_load_json(spans_path))
            failures += budget_violations(spans, gate.MAX_STEPS, gate.MAX_EVALS)
            m.update(layer_metrics(spans))
            main = spans[0]
            m["cli.bytes_written"] = size
            m["cli.files_written"] = files
            m["cli.write_mb_per_s"] = size / 1e6 / m["cli.self_s"]
            m["trace.run_s"] = child.wall
            m["trace.start_s"] = main.start - child.start
            layer_self = sum(v for k, v in m.items() if k.endswith(".self_s"))
            m["trace.unaccounted_s"] = child.wall - m["trace.start_s"] - layer_self
        self.failed += bool(failures)
        for check in failures:
            self.fail(("traced " if traced else "") + f"invocation {self.n}: {check}")
        if failures and child.log.strip():
            print(child.log, file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return m

    def loop(self, step, minimum: int) -> list:
        """Call ``step`` in a closed loop for the run's duration."""
        results = []
        durations = []
        t0 = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t0
            if len(results) >= minimum and elapsed + max(durations) > self.seconds:
                break
            t = time.perf_counter()
            results.append(step())
            durations.append(time.perf_counter() - t)
        return results

    def end_to_end(self) -> dict:
        setup = self.setup_times()
        results = self.loop(lambda: self.invoke(traced=False), minimum=2)
        self.samples = {"setup_s": setup, "run_s": [r["run_s"] for r in results]}
        m = {"setup_s": statistics.median(setup)}
        for key in ("run_s", "primary_fidelity", "peak_rss_mb", "output_mb"):
            # an invocation that failed before scoring has no fidelity;
            # if none scored, report 0 (the gate has failed them already)
            values = [r[key] for r in results if r[key] is not None]
            m[key] = statistics.median(values) if values else 0.0
        return m

    def per_layer(self) -> dict:
        pairs = self.loop(
            lambda: (self.invoke(traced=False), self.invoke(traced=True)), minimum=1
        )
        self.samples = {
            "run_s": [u["run_s"] for u, _ in pairs],
            "trace.run_s": [t["run_s"] for _, t in pairs],
        }
        traced = [t for _, t in pairs if "trace.run_s" in t]
        if not traced:
            return {}
        keys = [k for k in traced[0] if "." in k]
        m = {k: statistics.median(t[k] for t in traced) for k in keys}
        m["trace.overhead_s"] = m["trace.run_s"] - statistics.median(u["run_s"] for u, _ in pairs)
        return m


def tree_size(out_dir: str) -> tuple[int, int]:
    """(bytes, files) under ``out_dir``."""
    size = files = 0
    for root, _, names in os.walk(out_dir):
        for name in names:
            size += os.path.getsize(os.path.join(root, name))
            files += 1
    return size, files


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_per_s"):
        return "MB/s" if name.endswith("mb_per_s") else "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith("at_cap"):
        return "fraction"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    deadline = time.perf_counter() + RUN_DEADLINE_S
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK)
    try:
        run = Run(name, seed, seconds, work, deadline)
        metrics = run.per_layer() if trace else run.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    # and the scratch directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        check_checkout()
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    failed_checks = [f for r, _ in results for f in r.failures]
    metrics = {}
    for run, m in results:
        prefix = "" if len(results) == 1 else f"{run.workload.name}."
        print(f"{run.workload.name} (seed {run.seed}, {run.attempted} invocations, "
              f"error_rate {run.failed / run.attempted:g})")
        for key in sorted(m):
            print(f"  {key} = {m[key]:.6g} {unit_of(key)}")
            metrics[prefix + key] = {"value": m[key], "unit": unit_of(key)}
        for key, values in run.samples.items():
            print(f"  {key} samples (n={len(values)}): " + " ".join(f"{v:.3f}" for v in values))
    for f in failed_checks:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": sum(r.attempted for r, _ in results),
        "failed": sum(r.failed for r, _ in results),
        "metrics": metrics,
    }))
    return 1 if failed_checks else 0


if __name__ == "__main__":
    sys.exit(main())
