"""Correctness gate applied to every benchmarked ffsynth invocation.

An invocation passes only if it exited 0, every primary arm meets its
fidelity floor (tests/test_acceptance.py) and beats every baseline arm,
and no integration or optimization exceeded the paper's budgets.  The
caller also requires summary.json to be byte-identical across repeats.
"""

from __future__ import annotations

import hashlib
import json
import os

MAX_STEPS = 100_000
MAX_EVALS = 2_000


def read_runs(out_dir: str) -> list[tuple[str, dict]]:
    """(run directory, summary) per schedule; a sweep has one per t_final."""
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    if "runs" not in summary:
        return [(out_dir, summary)]
    return [(os.path.join(out_dir, f"tf-{key}"), s) for key, s in summary["runs"].items()]


def _steps(table: str) -> int:
    """Integration steps behind a population table: rows minus the header, minus one."""
    with open(table, "rb") as fh:
        return fh.read().count(b"\n") - 2


def check_runs(workload, floors: dict, runs) -> list[str]:
    """Failed checks of one invocation's schedules, each naming its t_final."""
    failures = []
    for run_dir, s in runs:
        tf = s["t_final"]
        where = f"t_final={tf:g}"
        fids = s["fidelities"]
        primary = fids[workload.primary]
        floor = floors[min(floors, key=lambda v: abs(v - tf))]
        if floor is not None and primary < floor:
            failures.append(f"{where}: {workload.primary} fidelity {primary:.9f} below floor {floor}")
        for label, value in fids.items():
            if label != workload.primary and value >= primary:
                failures.append(
                    f"{where}: baseline {label} fidelity {value:.9f} not beaten "
                    f"by {workload.primary} {primary:.9f}"
                )
        grids = {"reference": s["reference"]["n_steps"]}
        grids.update(
            (label, _steps(os.path.join(run_dir, f"populations_{label}.tsv")))
            for label in fids
        )
        for label, n in grids.items():
            if n > MAX_STEPS:
                failures.append(f"{where}: {label} integration took {n} steps > {MAX_STEPS}")
        evals = s["cost"]["evaluations"]
        if evals > MAX_EVALS:
            failures.append(f"{where}: optimizer took {evals} cost evaluations > {MAX_EVALS}")
    return failures


def check_invocation(workload, floors: dict, out_dir: str, returncode: int):
    """(failures, lowest primary-arm fidelity or None) of one invocation."""
    if returncode != 0:
        return [f"exit code {returncode}"], None
    try:
        runs = read_runs(out_dir)
        failures = check_runs(workload, floors, runs)
        worst = min(s["fidelities"][workload.primary] for _, s in runs)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], None
    return failures, worst


def summary_digest(out_dir: str) -> str:
    """SHA-256 over every summary.json under ``out_dir``, in path order."""
    paths = sorted(
        os.path.join(root, "summary.json")
        for root, _, files in os.walk(out_dir)
        if "summary.json" in files
    )
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.relpath(path, out_dir).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()

