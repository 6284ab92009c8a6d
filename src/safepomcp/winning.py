"""Winning-region computation over belief supports.

A belief support u is *winning* for a reach-avoid objective when some policy
starting from u avoids the avoid states surely and reaches the reach states
with probability one.  This module computes a productive winning region by an
explicit greatest fixpoint over the graph of supports reachable from a seed
set:

1. grow the support graph: breadth-first closure of the seeds under
   ``support_post_all`` over every action;
2. keep candidates C = vertices disjoint from avoid, with goal set
   G = candidates contained in reach;
3. iterate until stable: an action is *allowed* at u when every non-empty
   observation branch stays in C; drop vertices with no allowed action, then
   keep only vertices that can still reach G through allowed edges;
4. the region is the antichain of maximal survivors.  Membership of an
   arbitrary support is subset-of-some-element (downward closure), which is
   sound because restricting a winning support can only shrink its branch
   supports.

Everything is deterministic: vertex order is first-discovery order from
sorted seeds, and iteration order is by ids throughout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Protocol, Sequence

from .model import (
    Pomdp,
    mask_from_states,
    states_from_mask,
    support_post_all,
)
from .modelio import model_hash

DEFAULT_VERTEX_CAP = 5_000_000


class GraphCapExceeded(RuntimeError):
    """The support graph outgrew the vertex cap."""


class RegionTimeout(RuntimeError):
    """A deadline expired during graph growth or the fixpoint."""


class RegionMisuseError(ValueError):
    """A query that requires a winning support was made on a non-member."""


class WitnessError(RuntimeError):
    """No productive path was found for a support claimed winning (a bug)."""


class RegionFileError(ValueError):
    """A region file is malformed or does not match the model."""


@dataclass(frozen=True)
class Spec:
    """Reach-avoid objective as state bitmasks."""

    reach_mask: int
    avoid_mask: int

    def __post_init__(self):
        if self.reach_mask & self.avoid_mask:
            raise ValueError("reach and avoid masks overlap")

    @classmethod
    def of(cls, m: Pomdp, reach: Iterable[int] | None = None,
           avoid: Iterable[int] | None = None) -> "Spec":
        return cls(
            mask_from_states(reach) if reach is not None else m.reach_mask,
            mask_from_states(avoid) if avoid is not None else m.avoid_mask,
        )


@dataclass(frozen=True)
class SupportGraph:
    """Closure of seed supports under exact posterior updates.

    ``edges[vi][a]`` lists the (observation, successor support) branches of
    vertex ``vi`` under action ``a``; every successor is itself a vertex.
    The graph depends only on the dynamics, not on the objective, so one
    graph serves every reach-set revision of the same model.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    seeds: tuple[int, ...]

    @cached_property
    def index(self) -> dict[int, int]:
        return {u: i for i, u in enumerate(self.vertices)}


def _check_deadline(deadline: float | None, what: str):
    if deadline is not None and time.monotonic() > deadline:
        raise RegionTimeout(f"deadline expired during {what}")


def build_support_graph(
    m: Pomdp,
    seeds: Iterable[int],
    *,
    max_vertices: int = DEFAULT_VERTEX_CAP,
    deadline: float | None = None,
) -> SupportGraph:
    """Breadth-first closure of ``seeds`` under support_post_all."""
    seed_list = sorted(set(seeds))
    if not seed_list or any(u == 0 for u in seed_list):
        raise ValueError("seeds must be non-empty supports")
    index: dict[int, int] = {u: i for i, u in enumerate(seed_list)}
    vertices: list[int] = list(seed_list)
    edges: list[tuple] = []
    head = 0
    na = m.n_actions
    while head < len(vertices):
        u = vertices[head]
        head += 1
        if head % 4096 == 0:
            _check_deadline(deadline, "support graph growth")
        per_action = []
        for a in range(na):
            branches = tuple(support_post_all(m, u, a))
            for _, v in branches:
                if v not in index:
                    if len(vertices) >= max_vertices:
                        raise GraphCapExceeded(
                            f"support graph exceeded {max_vertices} vertices"
                        )
                    index[v] = len(vertices)
                    vertices.append(v)
            per_action.append(branches)
        edges.append(tuple(per_action))
    return SupportGraph(tuple(vertices), tuple(edges), tuple(seed_list))


def winning_masks(
    graph: SupportGraph, spec: Spec, *, deadline: float | None = None
) -> frozenset[int]:
    """Fixpoint survivors: the winning vertices of the support graph."""
    verts = graph.vertices
    index = graph.index
    avoid = spec.avoid_mask
    not_reach = ~spec.reach_mask
    n = len(verts)
    in_c = [(verts[i] & avoid) == 0 for i in range(n)]
    goal = [in_c[i] and (verts[i] & not_reach) == 0 for i in range(n)]
    n_actions = len(graph.edges[0]) if n else 0

    while True:
        _check_deadline(deadline, "winning fixpoint")
        # allowed actions under the current candidate set
        allow: list[list[int] | None] = [None] * n
        for i in range(n):
            if not in_c[i] or goal[i]:
                continue
            acts = []
            for a in range(n_actions):
                ok = True
                for _, v in graph.edges[i][a]:
                    if not in_c[index[v]]:
                        ok = False
                        break
                if ok:
                    acts.append(a)
            if acts:
                allow[i] = acts
        # backward reachability of the goal set through allowed edges
        rev: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            acts = allow[i]
            if acts is None:
                continue
            for a in acts:
                for _, v in graph.edges[i][a]:
                    rev[index[v]].append(i)
        reached = [False] * n
        stack = [i for i in range(n) if goal[i]]
        for i in stack:
            reached[i] = True
        while stack:
            j = stack.pop()
            for i in rev[j]:
                if not reached[i]:
                    reached[i] = True
                    stack.append(i)
        new_c = [goal[i] or (reached[i] and allow[i] is not None) for i in range(n)]
        if new_c == in_c:
            break
        in_c = new_c
    return frozenset(verts[i] for i in range(n) if in_c[i])


def antichain(masks: Iterable[int]) -> tuple[int, ...]:
    """Maximal elements of a family of supports, largest first."""
    ordered = sorted(set(masks), key=lambda u: (-u.bit_count(), u))
    kept: list[int] = []
    for u in ordered:
        if not any(u & ~k == 0 for k in kept):
            kept.append(u)
    return tuple(kept)


@dataclass(frozen=True)
class WinningRegion:
    """Antichain of maximal winning supports for one model and objective."""

    elements: tuple[int, ...]
    spec: Spec
    model_hash: str

    def __post_init__(self):
        for u in self.elements:
            if u & self.spec.avoid_mask:
                raise ValueError("winning region element intersects avoid")

    @cached_property
    def _complements(self) -> tuple[int, ...]:
        return tuple(~u for u in self.elements)

    def contains(self, u: int) -> bool:
        """Downward-closure membership: u is a subset of some antichain element."""
        if u == 0:
            raise ValueError("membership query on an empty support")
        for comp in self._complements:
            if u & comp == 0:
                return True
        return False


class Region(Protocol):
    """What shields and checks ask of a region, centralized or factored.

    Membership is downward closed over belief supports; ``spec`` is the
    objective in the model's own state ids.
    """

    spec: Spec
    model_hash: str

    def contains(self, u: int) -> bool: ...


def compute_winning_region(
    m: Pomdp,
    spec: Spec | None = None,
    seeds: Iterable[int] | None = None,
    *,
    graph: SupportGraph | None = None,
    max_vertices: int = DEFAULT_VERTEX_CAP,
    deadline: float | None = None,
) -> WinningRegion:
    """Compute the winning region reachable from ``seeds``.

    ``spec`` defaults to the model's own reach/avoid sets and ``seeds`` to
    the initial belief support.  A prebuilt ``graph`` (for the same model)
    skips the closure step, which factored propagation exploits when only
    the reach set changed.  An empty region is a valid result.
    """
    if spec is None:
        spec = Spec.of(m)
    for s in states_from_mask(spec.reach_mask):
        if not m.is_absorbing(s):
            raise ValueError(
                f"reach state {m.state_names[s]} is not absorbing"
            )
    if graph is None:
        if seeds is None:
            seeds = [m.init_support]
        graph = build_support_graph(
            m, seeds, max_vertices=max_vertices, deadline=deadline
        )
    win = winning_masks(graph, spec, deadline=deadline)
    return WinningRegion(antichain(win), spec, model_hash(m))


def powerset_supports(states: Sequence[int]) -> list[int]:
    """All non-empty supports over the given states (use only when tiny)."""
    if len(states) > 20:
        raise ValueError("powerset seeding is limited to 20 states")
    bits = [1 << s for s in states]
    out = []
    for k in range(1, 1 << len(bits)):
        u = 0
        i = 0
        kk = k
        while kk:
            if kk & 1:
                u |= bits[i]
            kk >>= 1
            i += 1
        out.append(u)
    return out


def branches_inside(
    m: Pomdp, u: int, a: int, contains: Callable[[int], bool]
) -> bool:
    """True when every non-empty observation branch of ``a`` from ``u`` is
    accepted by ``contains``; stops at the first branch that is not."""
    for _o, v in support_post_all(m, u, a):
        if not contains(v):
            return False
    return True


def allowed_actions(region: Region, m: Pomdp, u: int) -> tuple[int, ...]:
    """Actions whose every non-empty branch support stays in the region.

    Raising on non-members keeps shields honest: querying allowed actions
    of a support outside the region is a contract violation upstream.
    """
    contains = region.contains
    if not contains(u):
        raise RegionMisuseError(
            f"allowed_actions on non-winning support {m.names_from_mask(u)}"
        )
    return tuple(
        a for a in range(m.n_actions) if branches_inside(m, u, a, contains)
    )


def productivity_witness(
    region: Region, m: Pomdp, u: int
) -> list[tuple[int, int]]:
    """A finite (action, observation) path from ``u`` to a goal support.

    Every intermediate support is in the region and every step uses an
    allowed action; the terminal support is contained in the reach set.
    The fixpoint guarantees existence for centralized regions, so
    exhaustion raises ``WitnessError``; a factored union can lack a path.
    """
    not_reach = ~region.spec.reach_mask
    if u & not_reach == 0:
        return []
    if not region.contains(u):
        raise RegionMisuseError(
            f"witness requested for non-member support {m.names_from_mask(u)}"
        )
    parent: dict[int, tuple[int, int, int]] = {u: (-1, -1, -1)}
    queue = [u]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for a in allowed_actions(region, m, v):
            for o, v2 in support_post_all(m, v, a):
                if v2 in parent:
                    continue
                parent[v2] = (v, a, o)
                if v2 & not_reach == 0:
                    path = []
                    node = v2
                    while node != u:
                        prev, pa, po = parent[node]
                        path.append((pa, po))
                        node = prev
                    path.reverse()
                    return path
                if region.contains(v2):
                    queue.append(v2)
    raise WitnessError(
        f"no productive path from winning support {m.names_from_mask(u)}"
    )


# -- region files ------------------------------------------------------------


def serialize_region(w: WinningRegion, m: Pomdp) -> str:
    """Text form: model hash, objective, one antichain element per W line."""
    lines = [
        "# winning region over belief supports",
        f"model {w.model_hash}",
        "reach " + " ".join(m.names_from_mask(w.spec.reach_mask)),
        "avoid " + " ".join(m.names_from_mask(w.spec.avoid_mask)),
    ]
    for u in sorted(w.elements):
        lines.append("W " + " ".join(m.names_from_mask(u)))
    return "\n".join(lines) + "\n"


def parse_region(text: str, m: Pomdp) -> WinningRegion:
    """Parse and validate a region file against ``m`` (hash must match)."""
    file_hash = None
    reach_mask = None
    avoid_mask = None
    elements = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        try:
            if kind == "model":
                (file_hash,) = args
            elif kind == "reach":
                reach_mask = m.support_from_names(args) if args else 0
            elif kind == "avoid":
                avoid_mask = m.support_from_names(args) if args else 0
            elif kind == "W":
                if not args:
                    raise ValueError("empty support")
                elements.append(m.support_from_names(args))
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except KeyError as e:
            raise RegionFileError(f"line {ln}: unknown state name {e}") from None
        except ValueError as e:
            raise RegionFileError(f"line {ln}: {e}") from None
    if file_hash is None or reach_mask is None or avoid_mask is None:
        raise RegionFileError("missing model/reach/avoid header lines")
    actual = model_hash(m)
    if file_hash != actual:
        raise RegionFileError(
            f"region file was computed for model {file_hash}, "
            f"but this model hashes to {actual}"
        )
    spec = Spec(reach_mask, avoid_mask)
    elems = antichain(elements)
    if len(elems) != len(elements):
        raise RegionFileError("region file elements are not an antichain")
    return WinningRegion(elems, spec, file_hash)
