"""The benchmark's workloads: fixed lists of ``affrep`` CLI commands.

Each workload is run as a sequence of passes.  A pass is one fresh Python
process that runs the whole command list once, sequentially, as the CLI
would (every CLI command starts a new process, so nothing memoised inside
the package may carry over from one pass to the next).  Within a pass no
(command, field, genus) input repeats.  The seed only permutes the order
of the commands inside each pass; the program sees nothing but the argv.
"""

from __future__ import annotations

import dataclasses
import os
import random

THREADS_ENV = "AFFREP_THREADS"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[tuple[str, ...], ...]


def _count(engine: str, genus: int, field: str) -> tuple[str, ...]:
    return ("count", "--engine", engine, "--genus", str(genus), "--field", field)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table-replay",
            "golden table replay; nearly all time in the count_semi rank enumeration, "
            "no field arithmetic and no polynomial work",
            (("table", "--extend"),),
        ),
        Workload(
            "oracle-sweep",
            "exhaustive naive/generic oracles; finite-field arithmetic and group-table "
            "building dominate, semi enumeration is negligible",
            (
                ("verify", "--genus-max", "2"),
                _count("naive", 1, "7"),
                _count("naive", 1, "2^3"),
                _count("naive", 1, "3^2"),
                _count("generic", 1, "13"),
                _count("generic", 1, "2^4"),
            ),
        ),
        Workload(
            "polynomial-classes",
            "transfer-matrix power, exact division and Lagrange interpolation at high "
            "genus; many field builds, no enumeration",
            (
                ("tqft", "--genus", "240", "--verify-eigen", "--reconstruct"),
                ("classes", "--genus", "240"),
                ("epoly", "--genus", "14", "--engine", "closed"),
                ("epoly", "--genus", "1", "--engine", "closed", "--plan", "2048,2187,3125,4096"),
            ),
        ),
    )
}

# One fresh process holding the three calls the baseline figures of the
# roadmap were taken on; the traced run times each call without nested spans.
SPOT_COMMANDS = (
    _count("semi", 3, "19"),
    _count("naive", 2, "5"),
    ("tqft", "--genus", "240"),
)


def plan_pass(workload: str, seed: int, pass_index: int) -> list[tuple[str, ...]]:
    """The command list of one pass: the workload's commands in a seeded order."""
    commands = list(WORKLOADS[workload].commands)
    random.Random(seed * 1_000_003 + pass_index).shuffle(commands)
    return commands


def child_env(base: dict[str, str] | None = None) -> dict[str, str]:
    """The environment of a pass process: the caller's, without ``AFFREP_THREADS``."""
    env = dict(os.environ if base is None else base)
    env.pop(THREADS_ENV, None)
    return env
