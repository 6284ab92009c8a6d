"""Shielding strategies wired into the planner's hook points.

Four active modes arise from two independent choices: which winning region
backs the shield (centralized over the full model, or the union of factored
per-room regions) and when it intervenes (prior pruning of root actions
before the search, or on-the-fly backtracking inside simulations).

Prior pruning enumerates the exact observation branches of every root
action and prunes an action if any branch support falls outside the
region.  On-the-fly backtracking instead checks, whenever a simulation
would grow a child's particle support, that the grown support stays in the
region; a failed check prunes the offending action at that node and the
simulation re-chooses.  Both hooks are pure guards: they never alter
statistics of surviving branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .factored import FactoredRegion
from .model import Pomdp
from .model import support_post_all  # perfbench/layers.py patches this name
from .modelio import model_hash
from .pomcp import Node
from .winning import Region, branches_inside


class SafetyViolation(RuntimeError):
    """A shielded run stepped outside its safety guarantee."""


class InternalShieldError(RuntimeError):
    """A shield invariant failed; indicates a bug, not an unsafe world."""


class ShieldMode(Enum):
    """One mode per run; the value is the command-line spelling."""

    NO_SHIELD = "none"
    CENTRALIZED_PRIOR = "prior"
    CENTRALIZED_ON_THE_FLY = "backtrack"
    FACTORED_PRIOR = "factored-prior"
    FACTORED_ON_THE_FLY = "factored-backtrack"

    @classmethod
    def from_name(cls, name: str) -> "ShieldMode":
        for mode in cls:
            if mode.value == name:
                return mode
        names = ", ".join(mode.value for mode in cls)
        raise ValueError(f"unknown shield mode {name!r}; expected one of {names}")

    @property
    def shielded(self) -> bool:
        return self is not ShieldMode.NO_SHIELD

    @property
    def factored(self) -> bool:
        return self.value.startswith("factored")

    @property
    def prior(self) -> bool:
        return self.value.endswith("prior")

    @property
    def on_the_fly(self) -> bool:
        return self.shielded and not self.prior


@dataclass(frozen=True)
class ShieldStats:
    """Counters accumulated by one ShieldContext."""

    root_pruned: int = 0
    sim_pruned: int = 0
    queries: int = 0


class ShieldContext:
    """A mode plus its region, model handle, and exact counters.

    The context doubles as the planner's shield hook: ``backtracking``
    gates the in-simulation checks and ``contains`` answers membership
    queries against the mode's region, of either kind.
    """

    __slots__ = ("mode", "model", "region", "backtracking",
                 "root_pruned", "sim_pruned", "queries")

    def __init__(self, mode: ShieldMode, m: Pomdp, region: Region):
        if not mode.shielded:
            raise ValueError("NoShield runs take no shield context")
        if mode.factored != isinstance(region, FactoredRegion):
            kind = type(region).__name__
            raise InternalShieldError(f"mode {mode.value} cannot use a {kind}")
        if region.model_hash != model_hash(m):
            raise InternalShieldError(
                "region was computed for a different model "
                f"({region.model_hash} != {model_hash(m)})"
            )
        self.mode = mode
        self.model = m
        self.region = region
        self.backtracking = mode.on_the_fly
        self.root_pruned = 0
        self.sim_pruned = 0
        self.queries = 0

    def contains(self, mask: int) -> bool:
        """Region membership of a support mask, counted as one query."""
        self.queries += 1
        return self.region.contains(mask)

    def note_sim_prune(self):
        self.sim_pruned += 1

    def root_action_allowed(self, support: int, a: int) -> bool:
        """Exact verdict for taking action ``a`` from the root support.

        Root decisions are made against the exact support rather than
        particles: the action is allowed iff every exact observation
        branch stays in the region.  Backtracking shields call this
        lazily the first time a simulation takes a root action, which
        makes executed actions exactly safe without enumerating branches
        of actions the search never tries.
        """
        return branches_inside(self.model, support, a, self.contains)

    def stats(self) -> ShieldStats:
        return ShieldStats(self.root_pruned, self.sim_pruned, self.queries)


def prior_prune(ctx: ShieldContext, root: Node) -> set[int]:
    """Prune root actions whose exact branches can leave the region.

    For each action the exact observation branches of the root support are
    enumerated; the action is pruned iff any branch support fails region
    membership.  Pruned actions are recorded in the root's shielded set so
    no planner iteration ever selects them.  At least one action survives
    for any support in the region (step closure), so a fully pruned root
    is an internal bug.
    """
    support = root.support
    if support is None:
        raise InternalShieldError("root carries no exact support")
    if not ctx.contains(support):
        raise InternalShieldError(
            "prior pruning called on a root support outside the region"
        )
    m = ctx.model
    pruned = {
        a for a in range(m.n_actions)
        if not branches_inside(m, support, a, ctx.contains)
    }
    for a in pruned:
        root.shielded |= 1 << a
    if len(pruned) == m.n_actions:
        raise InternalShieldError(
            "winning support with no allowed action; region step closure "
            "is violated"
        )
    ctx.root_pruned += len(pruned)
    return pruned

