"""Winning-region computation over belief supports.

A belief support u is *winning* for a reach-avoid objective when some policy
starting from u avoids the avoid states surely and reaches the reach states
with probability one.  This module computes a productive winning region by an
explicit greatest fixpoint over the graph of supports reachable from a seed
set:

1. grow the support graph: breadth-first closure of the seeds under
   ``support_post_all`` over every action, stored by vertex id in flat
   arrays (``SupportGraph``) with no Python object per branch: under
   tracemalloc the refuel n=6 graph (45,027 vertices, 2.76 M branches)
   holds 37 MB, 14 bytes per branch;
2. keep candidates C = vertices disjoint from avoid, with goal set
   G = candidates contained in reach;
3. iterate until stable: an action is *allowed* at u when every non-empty
   observation branch stays in C; drop vertices with no allowed action, then
   keep only vertices that can still reach G through allowed edges.  This
   runs as a worklist over predecessor slots, the attractor scheme for
   almost-sure reachability over belief supports: a vertex leaving C
   disables the actions that lead into it and decrements their sources'
   counts of allowed actions, and one backward search from G per round
   drops the candidates it does not reach;
4. the region is the antichain of maximal survivors.  Membership of an
   arbitrary support is subset-of-some-element (downward closure), which is
   sound because restricting a winning support can only shrink its branch
   supports.

Everything is deterministic: vertex order is first-discovery order from
sorted seeds, and iteration order is by ids throughout.
"""

from __future__ import annotations

import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Protocol

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


class _EdgeView(Sequence):
    """Read-only ``edges[vi][a]`` view of a support graph.

    Indexing one vertex rebuilds its ``(observation, successor support)``
    tuples for every action from the id arrays; nothing is kept.
    """

    __slots__ = ("_g",)

    def __init__(self, graph: "SupportGraph"):
        self._g = graph

    def __len__(self) -> int:
        return len(self._g.vertices)

    def __getitem__(self, vi: int):
        g = self._g
        if not 0 <= vi < len(g.vertices):
            raise IndexError("vertex id out of range")
        verts, succ, obs, start = g.vertices, g.succ, g.obs, g.slot_start
        base = vi * g.n_actions
        return tuple(
            tuple(
                (obs[b], verts[succ[b]])
                for b in range(start[k], start[k + 1])
            )
            for k in range(base, base + g.n_actions)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, _EdgeView):
            return NotImplemented
        return len(self) == len(other) and all(
            x == y for x, y in zip(self, other)
        )


@dataclass(frozen=True)
class SupportGraph:
    """Closure of seed supports under exact posterior updates.

    Vertices are supports, numbered in discovery order.  A *slot* is one
    (vertex, action) pair, numbered ``vi * n_actions + a``.  Branches are
    stored by id in flat ``array('i')`` buffers, so the graph holds no
    Python object per branch:

    - slot ``k``'s branches are ``slot_start[k]:slot_start[k + 1]``; branch
      ``b`` goes to vertex ``succ[b]`` under observation ``obs[b]``, in
      observation order, and every slot has at least one branch;
    - ``pred_slots[pred_start[v]:pred_start[v + 1]]`` are the slots with a
      branch into vertex ``v``, once per such branch.

    ``edges[vi][a]`` is a lazy view that rebuilds the (observation,
    successor support) branches of vertex ``vi`` under action ``a``.
    The graph depends only on the dynamics, not on the objective, so one
    graph serves every reach-set revision of the same model.
    """

    vertices: tuple[int, ...]
    seeds: tuple[int, ...]
    n_actions: int
    slot_start: array
    succ: array
    obs: array
    pred_start: array
    pred_slots: array

    @cached_property
    def index(self) -> dict[int, int]:
        return {u: i for i, u in enumerate(self.vertices)}

    @property
    def edges(self) -> _EdgeView:
        return _EdgeView(self)


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
    """Breadth-first closure of ``seeds`` under support_post_all.

    Running out of memory while growing releases the partial graph and
    raises ``GraphCapExceeded``, like the vertex cap.
    """
    seed_list = sorted(set(seeds))
    if not seed_list or any(u == 0 for u in seed_list):
        raise ValueError("seeds must be non-empty supports")
    index: dict[int, int] = {u: i for i, u in enumerate(seed_list)}
    vertices: list[int] = list(seed_list)
    na = m.n_actions
    slot_start = array("i", [0])
    succ = array("i")
    obs = array("i")
    preds = [array("i") for _ in seed_list]
    try:
        head = 0
        k = 0
        while head < len(vertices):
            u = vertices[head]
            head += 1
            if head % 4096 == 0:
                _check_deadline(deadline, "support graph growth")
            for a in range(na):
                for o, v in support_post_all(m, u, a):
                    vi = index.get(v)
                    if vi is None:
                        if len(vertices) >= max_vertices:
                            raise GraphCapExceeded(
                                f"support graph exceeded {max_vertices} vertices"
                            )
                        vi = index[v] = len(vertices)
                        vertices.append(v)
                        preds.append(array("i"))
                    succ.append(vi)
                    obs.append(o)
                    preds[vi].append(k)
                slot_start.append(len(succ))
                k += 1
        index = None  # freed before the predecessor lists are flattened
        pred_start = array("i", [0])
        pred_slots = array("i")
        for vi in range(len(preds)):
            pred_slots.extend(preds[vi])
            preds[vi] = None
            pred_start.append(len(pred_slots))
    except MemoryError:
        reached = len(vertices)
        index = vertices = slot_start = succ = obs = preds = None
        raise GraphCapExceeded(
            f"support graph ran out of memory at {reached} vertices"
        ) from None
    return SupportGraph(
        tuple(vertices), tuple(seed_list), na,
        slot_start, succ, obs, pred_start, pred_slots,
    )


def winning_masks(
    graph: SupportGraph, spec: Spec, *, deadline: float | None = None
) -> frozenset[int]:
    """Fixpoint survivors: the winning vertices of the support graph.

    Candidates start as the avoid-free vertices; goals are candidates inside
    the reach set and never leave.  A slot of a non-goal candidate is
    *enabled* while all its branches stay among the candidates.  When a
    vertex leaves, the slots that lead into it are disabled, and a non-goal
    vertex left with no enabled slot leaves too.  Each outer round then
    searches backward from the goals over enabled slots, and the candidates
    it does not reach leave; the fixpoint is reached when none do.
    """
    verts = graph.vertices
    avoid = spec.avoid_mask
    not_reach = ~spec.reach_mask
    n = len(verts)
    na = graph.n_actions
    pred_start = graph.pred_start
    pred_slots = graph.pred_slots
    in_c = bytearray(n)
    goal = bytearray(n)
    enabled = bytearray(n * na)
    count = [0] * n
    for i, u in enumerate(verts):
        if u & avoid == 0:
            in_c[i] = 1
            if u & not_reach == 0:
                goal[i] = 1
            else:
                count[i] = na
                enabled[i * na:(i + 1) * na] = b"\x01" * na

    def leave(out: list[int]) -> None:
        """Remove the vertices in ``out`` and every vertex left stuck."""
        while out:
            v = out.pop()
            for k in pred_slots[pred_start[v]:pred_start[v + 1]]:
                if enabled[k]:
                    enabled[k] = 0
                    i = k // na
                    count[i] -= 1
                    if count[i] == 0 and in_c[i]:
                        in_c[i] = 0
                        out.append(i)

    gone = [i for i in range(n) if not in_c[i]]
    leave(gone)
    while True:
        _check_deadline(deadline, "winning fixpoint")
        reached = bytearray(goal)
        stack = [i for i in range(n) if goal[i]]
        while stack:
            j = stack.pop()
            for k in pred_slots[pred_start[j]:pred_start[j + 1]]:
                if enabled[k]:
                    i = k // na
                    if not reached[i]:
                        reached[i] = 1
                        stack.append(i)
        gone = [i for i in range(n) if in_c[i] and not reached[i]]
        if not gone:
            break
        for i in gone:
            in_c[i] = 0
        leave(gone)
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
