"""The benchmark's workloads.  This module imports nothing of the package,
so that a run can choose its workload before set-up is timed."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    family: str
    n: int
    # Whether the verifier also recomputes the centralized region itself.
    own_fixpoint: bool
    # Whether the factored union's known fault (see README.md) is expected.
    # Where it is not, its symptoms are failed checks like any other.
    factored_fault: bool


WORKLOADS = {
    "obstacle-n8": Workload("obstacle", 8, True, False),
    "refuel-n6": Workload("refuel", 6, False, True),
}
