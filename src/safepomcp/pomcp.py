"""Online planning by Monte-Carlo tree search over histories (POMCP).

The tree alternates history nodes and action edges.  Each planning step runs
a fixed number of simulations: draw a state from the root's particle belief,
descend the tree by the UCB rule while sampling (successor, observation,
reward) from the model, append sampled successors to the particle beliefs of
the traversed observation children, expand the first node not yet expanded,
finish the trajectory with a uniform-random rollout (observations skipped),
and back up the discounted return along the path, updating visit counts and
running-mean values.  After the chosen action is executed for real, the tree
is re-rooted at the matching observation child and its particle belief is
refilled by rejection sampling.

Shield hooks: a shield object may pre-prune root actions (bits in
``Node.shielded``) and, when its ``backtracking`` flag is set, is consulted
on every in-tree transition whose sampled successor would grow a child's
particle support; a failed membership check prunes the action at that node,
discards the subtree, and the simulation re-chooses.  A node left without
actions escalates by pruning the action that led to it in its parent.
Absorbing states short-circuit: their remaining value under a uniform policy
is a closed form, so neither the tree nor the rollout walks their self-loops.

Rollouts are block-sampled.  Per model and discount, the model keeps tables
of the outcomes of up to ``BLOCK_STEPS`` uniform-random moves from each
state: end state, discounted reward sum and moves taken, merged over paths
(see ``model._uniform_blocks``).  A rollout then makes one uniform draw and
one bisect per block instead of one or two draws per move, and uses the
shorter tables for its last ``depth % BLOCK_STEPS`` moves.  The return has
the same distribution as a move-by-move rollout; only the random stream
differs.  The first move after a shielded expansion node is still sampled
on its own, from the node's unpruned actions.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from random import Random

from .model import Pomdp, sample_initial, sample_step, support_post


class DeadNodeError(RuntimeError):
    """Every action at a node has been pruned; escalates to the parent."""


class NoSafeActionError(RuntimeError):
    """Pruning escalated to the root: no action left to recommend.

    Unreachable when the root's exact support is winning: the region's
    step closure provides an action whose every branch stays winning, and
    particle supports are subsets of exact branches, so downward closure
    keeps that action membership-clean forever.
    """


class BeliefCollapseError(RuntimeError):
    """Rejection refill could not find particles consistent with an observation."""


class ImpossibleObservationError(ValueError):
    """The executed observation has zero probability from the root support."""


@dataclass(frozen=True)
class PlannerConfig:
    """Search budget and constants; defaults are the full-scale profile."""

    simulations: int = 40_000
    depth: int = 200
    particles: int = 10_000
    ucb_c: float | None = None
    discount: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.simulations < 1 or self.depth < 1 or self.particles < 1:
            raise ValueError("simulations, depth and particles must be positive")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError(f"discount {self.discount} outside (0, 1]")
        if self.ucb_c is not None and self.ucb_c < 0.0:
            raise ValueError("ucb constant must be non-negative")


class ActionEdge:
    """Per-action statistics and observation children of a history node."""

    __slots__ = ("n", "v", "children")

    def __init__(self):
        self.n = 0
        self.v = 0.0
        self.children: dict[int, Node] = {}


class Node:
    """History node: visit count, mean value, particle belief, children.

    ``mask`` is the bitmask of ``particles``; shields test membership of
    ``mask | new_bit`` only when the bit is new, which makes repeat states
    free.  ``support`` is the exact belief support, maintained for root
    nodes only.  ``shielded`` is a bitmask of pruned actions.
    """

    __slots__ = ("n", "v", "edges", "particles", "mask", "shielded", "support")

    def __init__(self, particles: list[int] | None = None, mask: int = 0,
                 support: int | None = None):
        self.n = 0
        self.v = 0.0
        self.edges: list[ActionEdge | None] | None = None
        self.particles: list[int] = particles if particles is not None else []
        self.mask = mask
        self.shielded = 0
        self.support = support


def make_root(m: Pomdp, cfg: PlannerConfig, rng: Random | None = None) -> Node:
    """Fresh root with ``cfg.particles`` draws from the initial belief."""
    if rng is None:
        rng = Random(cfg.seed)
    particles = [sample_initial(m, rng) for _ in range(cfg.particles)]
    mask = 0
    for s in particles:
        mask |= 1 << s
    return Node(particles, mask, m.init_support)


def ucb_select(node: Node, c: float) -> int:
    """Argmax of V(ha) + c * sqrt(ln N(h) / N(ha)) over unpruned actions.

    Unvisited actions count as infinitely valuable; all ties break toward
    the lowest action id.  Raises ``DeadNodeError`` when every action is
    pruned, which backtracking shields consume as the escalation signal.
    """
    edges = node.edges
    if edges is None:
        raise ValueError("ucb_select on an unexpanded node")
    shielded = node.shielded
    log_n = math.log(node.n) if node.n > 0 else 0.0
    best = -1
    best_val = -math.inf
    for a in range(len(edges)):
        if shielded >> a & 1:
            continue
        edge = edges[a]
        if edge is None:
            continue
        if edge.n == 0:
            return a
        val = edge.v + c * math.sqrt(log_n / edge.n)
        if val > best_val:
            best_val = val
            best = a
    if best < 0:
        raise DeadNodeError("all actions pruned at node")
    return best


class _Search:
    """One planning step's working state, with model tables bound locally."""

    __slots__ = (
        "m", "na", "gamma", "c", "rng", "shield", "absorb", "blocks",
        "t_rows", "z_rows", "rewards", "root", "root_ok",
    )

    def __init__(self, m: Pomdp, cfg: PlannerConfig, shield, rng: Random,
                 root: Node):
        self.m = m
        na = m.n_actions
        self.na = na
        self.gamma = cfg.discount
        self.c = cfg.ucb_c if cfg.ucb_c is not None else m.reward_span
        self.rng = rng
        self.shield = shield if shield is not None and shield.backtracking else None
        self.absorb = m.absorbing_mean_rewards
        self.blocks = m._rollout_blocks(cfg.discount)
        self.t_rows = m._t_rows
        self.z_rows = m._z_rows
        self.rewards = m.rewards
        self.root = root
        # lazily computed exact verdicts per root action (True/False/None)
        self.root_ok: list[bool | None] = [None] * m.n_actions

    def root_action_ok(self, a: int) -> bool:
        ok = self.root_ok[a]
        if ok is None:
            ok = self.shield.root_action_allowed(self.root.support, a)
            self.root_ok[a] = ok
            if not ok:
                self.shield.root_pruned += 1
        return ok

    def _tail(self, mean_reward: float, depth: int) -> float:
        if self.gamma == 1.0:
            return mean_reward * depth
        return mean_reward * (1.0 - self.gamma ** depth) / (1.0 - self.gamma)

    def simulate(self, node: Node, s: int, depth: int) -> float:
        mean = self.absorb[s]
        if mean is not None:
            return self._tail(mean, depth)
        if depth <= 0:
            return 0.0
        if node.edges is None:
            node.edges = [ActionEdge() for _ in range(self.na)]
            ret = self.rollout(s, depth, node.shielded)
            node.n += 1
            node.v += (ret - node.v) / node.n
            return ret
        na = self.na
        rng = self.rng
        shield = self.shield
        at_root = shield is not None and node is self.root
        while True:
            a = ucb_select(node, self.c)
            if at_root and not self.root_action_ok(a):
                # root verdicts are exact over all observation branches,
                # so the executed action is safe for any real outcome
                node.shielded |= 1 << a
                node.edges[a] = None
                continue
            # model.draw, inlined for the successor and the observation
            idx = s * na + a
            s2 = self.t_rows[idx]
            if type(s2) is not int:
                outs, cums, total = s2
                s2 = outs[bisect_right(cums, rng.random() * total)]
            o = self.z_rows[s2 * na + a]
            if type(o) is not int:
                outs, cums, total = o
                o = outs[bisect_right(cums, rng.random() * total)]
            edge = node.edges[a]
            child = edge.children.get(o)
            if child is None:
                child = Node()
                edge.children[o] = child
            bit = 1 << s2
            if shield is not None and not at_root and child.mask & bit == 0:
                if not shield.contains(child.mask | bit):
                    shield.note_sim_prune()
                    node.shielded |= 1 << a
                    node.edges[a] = None
                    continue
            child.particles.append(s2)
            child.mask |= bit
            try:
                cont = self.simulate(child, s2, depth - 1)
            except DeadNodeError:
                node.shielded |= 1 << a
                node.edges[a] = None
                continue
            ret = self.rewards[idx] + self.gamma * cont
            node.n += 1
            edge.n += 1
            edge.v += (ret - edge.v) / edge.n
            node.v += (ret - node.v) / node.n
            return ret

    def rollout(self, s: int, depth: int, shielded: int = 0) -> float:
        absorb = self.absorb
        mean = absorb[s]
        if mean is not None:
            return self._tail(mean, depth)
        rng_random = self.rng.random
        total = 0.0
        g = 1.0
        if shielded:
            # the expansion node's pruned actions stay off-limits for the
            # first move; beyond it there is no node context
            na = self.na
            allowed = [a for a in range(na) if not shielded >> a & 1]
            a = allowed[int(rng_random() * len(allowed))]
            idx = s * na + a
            total = self.rewards[idx]
            g = self.gamma
            s = self.t_rows[idx]
            if type(s) is not int:  # model.draw, inlined
                outs, cums, tot = s
                s = outs[bisect_right(cums, rng_random() * tot)]
            depth -= 1
        blocks = self.blocks
        k_full = len(blocks) - 1
        full = blocks[k_full]
        while depth > 0:
            mean = absorb[s]
            if mean is not None:
                return total + g * self._tail(mean, depth)
            cums, outs = (full if depth >= k_full else blocks[depth])[s]
            s, v, f, n = outs[bisect_right(cums, rng_random())]
            total += g * v
            g *= f
            depth -= n
        return total


def plan_step(
    m: Pomdp,
    root: Node,
    cfg: PlannerConfig,
    shield=None,
    rng: Random | None = None,
) -> int:
    """Run ``cfg.simulations`` tree searches and return the best root action.

    The recommendation is the argmax of mean value over actions that are
    neither prior-pruned nor pruned by backtracking during the search, with
    ties broken toward the lowest action id.
    """
    if not root.particles:
        raise ValueError("root has no particles")
    if rng is None:
        rng = Random(cfg.seed)
    search = _Search(m, cfg, shield, rng, root)
    particles = root.particles
    n_p = len(particles)
    rng_random = rng.random
    for _ in range(cfg.simulations):
        s = particles[int(rng_random() * n_p)] if n_p > 1 else particles[0]
        try:
            search.simulate(root, s, cfg.depth)
        except DeadNodeError:
            raise NoSafeActionError(
                "every root action was pruned; the root support cannot be "
                "winning for the shield's region"
            ) from None
    if root.edges is None:
        # every particle is absorbing, so no simulation expanded the root
        root.edges = [ActionEdge() for _ in range(m.n_actions)]
    guard = search.shield
    best = -1
    best_v = -math.inf
    for a in range(m.n_actions):
        if root.shielded >> a & 1:
            continue
        edge = root.edges[a]
        if edge is None:
            continue
        if guard is not None and not search.root_action_ok(a):
            # a branch the simulations never sampled; prune it even now
            root.shielded |= 1 << a
            root.edges[a] = None
            continue
        if edge.v > best_v:
            best_v = edge.v
            best = a
    if best < 0:
        raise NoSafeActionError("no action left at the root")
    return best


def advance_root(
    m: Pomdp,
    root: Node,
    a: int,
    o: int,
    cfg: PlannerConfig,
    rng: Random | None = None,
) -> Node:
    """Re-root the tree at the (a, o) child after executing ``a``.

    The child's particle belief is truncated to ``cfg.particles`` if
    oversized and otherwise refilled by rejection sampling from the old
    root's particles (accepting successors whose sampled observation equals
    ``o``), with at most ``10 * cfg.particles`` attempts.  The exact root
    support is advanced alongside.
    """
    if rng is None:
        rng = Random(cfg.seed)
    if root.support is None:
        raise ValueError("root node carries no exact support")
    support = support_post(m, root.support, a, o)
    if support == 0:
        raise ImpossibleObservationError(
            f"observation {m.obs_names[o]} is impossible after "
            f"{m.action_names[a]} from {m.names_from_mask(root.support)}"
        )
    edge = root.edges[a] if root.edges is not None else None
    child = edge.children.get(o) if edge is not None else None
    if child is None:
        child = Node()
    child.support = support
    if len(child.particles) > cfg.particles:
        del child.particles[cfg.particles:]
        mask = 0
        for s in child.particles:
            mask |= 1 << s
        child.mask = mask
    src = root.particles
    n_src = len(src)
    tries = 10 * cfg.particles
    while len(child.particles) < cfg.particles and tries > 0:
        tries -= 1
        s = src[int(rng.random() * n_src)] if n_src > 1 else src[0]
        step = sample_step(m, s, a, rng)
        if step.obs == o:
            child.particles.append(step.state)
            child.mask |= 1 << step.state
    if not child.particles:
        raise BeliefCollapseError(
            f"no particles consistent with observing {m.obs_names[o]} after "
            f"{m.action_names[a]}; exact support is {m.names_from_mask(support)}"
        )
    return child
