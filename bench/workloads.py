"""Benchmark workloads: seed -> generated ffsynth YAML config.

Each workload is one shipped config run through one CLI subcommand.
Seed 0 reproduces the shipped values exactly; any other seed jitters
every ``t_final`` by a uniform factor in [1 - JITTER, 1 + JITTER], except
that no duration is pushed above MAX_DURATION (see the note there).
The program only ever sees the generated YAML file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import yaml

#: Relative half-width of the t_final jitter for seeds other than 0.
JITTER = 0.02

#: The default grid is ceil(t_final / 3e-4) steps, so a duration above 30
#: would integrate more than the paper's 1e5-step budget, and the budget
#: check would fail on every such seed.  Config validation does not bound
#: the step count yet; until it does, jitter never goes above 30.
MAX_DURATION = 30.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CLI subcommand on a config document."""

    name: str
    command: str
    base: dict
    #: fidelity floor of the primary arm per shipped t_final (None: must
    #: only beat the baselines), from tests/test_acceptance.py
    floors: dict
    primary: str


# Why each workload is here, and which layers it stresses: README.md.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="accelerate-chain",
            command="verify",
            base={
                "schema_version": 1,
                "scenario": "accelerate",
                "t_ref": 1.0,
                "t_final": 0.9,
                "delta_omega0": 30.0,
                "crossing_plan": {"kind": "auto"},
                "baselines": ["naive", "alpha-scaled"],
            },
            floors={0.9: 0.999},
            primary="itt",
        ),
        Workload(
            name="decelerate-full",
            command="full",
            base={
                "schema_version": 1,
                "scenario": "decelerate",
                "t_ref": 1.0,
                "t_final": 1.1,
                "delta_omega0": 30.0,
                "crossing_plan": {"kind": "vt-a"},
                "baselines": ["naive", "alpha-scaled"],
            },
            floors={1.1: 0.9995},
            primary="itt",
        ),
        Workload(
            name="sta-sweep",
            command="sta",
            base={
                "schema_version": 1,
                "scenario": "sta",
                "t_final": [30.0, 20.0, 10.0],
                "delta_omega0": 30.0,
                "baselines": ["unmodified"],
            },
            floors={30.0: 0.9999, 20.0: 0.995, 10.0: None},
            primary="sta",
        ),
    ]
}


def jittered(value: float, rng: random.Random) -> float:
    upper = min(JITTER, MAX_DURATION / value - 1.0)
    return round(value * (1.0 + rng.uniform(-JITTER, upper)), 6)


def make_config(workload: Workload, seed: int, out_dir: str) -> tuple[dict, dict]:
    """Config document for ``seed`` and its map of t_final -> fidelity floor.

    The floor map is keyed by the generated duration and carries the floor
    of the shipped duration it was jittered from.
    """
    doc = dict(workload.base)
    is_sweep = isinstance(doc["t_final"], list)
    shipped = doc["t_final"] if is_sweep else [doc["t_final"]]
    values = list(shipped)
    if seed != 0:
        rng = random.Random(f"{workload.name}:{seed}")
        values = [jittered(v, rng) for v in shipped]
    doc["t_final"] = values if is_sweep else values[0]
    doc["output"] = {"directory": out_dir}
    floors = {v: workload.floors[s] for v, s in zip(values, shipped)}
    return doc, floors


def write_config(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
