"""Factored winning regions over a partitioned state space.

Instead of one region over the whole model, the state space is split by its
partition labels into submodels.  Each submodel keeps its own states plus
the *outlet* states it can exit into (made absorbing there), and computes a
local winning region.  Reach sets are then propagated between neighbours to
a fixpoint: whenever a singleton outlet support is winning in its owner's
region, the exiting submodel may treat that outlet as a local reach state
and recompute.  On obstacle n=6 and n=8 and on the gap world the union of
the final per-submodel regions is a productive winning region of the full
model inside the centralized one, possibly a strict subset of it (a support
can be winning only via a detour through a neighbouring room, which the
room-local dynamics cannot see).  That does not hold in general.  On
obstacle n=4, 2 of the union's 17 antichain elements lie outside the
centralized region.  On refuel n=6 the union is not step-closed: 20 of its
elements have no action that keeps every branch inside it, from one more no
goal is reachable, and 352 of its 868 elements lie outside the centralized
region.  On refuel n=8 the union has one such closure hole, an 8-state
support from ``g41_e5`` to ``g61_e7``, and it does not contain the initial
support, so both factored shield modes refuse to start an episode
(``UnwinningStartError``).

Membership of the union, like centralized membership, is downward closed.
``FactoredRegion.contains`` answers it with the same interface and the same
per-state index as ``WinningRegion.contains``, built over every room
element mapped to parent ids: a support inside such an element is inside
that room's extended states, so no room needs to be picked first.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection

from .model import (
    PROB_EPS,
    ModelError,
    Pomdp,
    make_pomdp,
    mask_from_states,
    states_from_mask,
    support_post_all,  # perfbench/layers.py patches this name
)
from .modelio import model_hash
from .winning import (
    Spec,
    SupportGraph,
    WinningRegion,
    antichain,
    build_support_graph,
    compute_winning_region,
    covered,
    holders_index,
    reachable_supports,
)


@dataclass
class Submodel:
    """One partition cell of the model, with absorbing outlet states.

    State ids inside ``pomdp`` are dense sub-ids; ``to_parent`` maps them
    back, and all the set-valued fields below hold parent ids.
    ``reach_states`` grows during propagation; everything else is fixed at
    decomposition time.
    """

    index: int
    label: str
    pomdp: Pomdp
    to_parent: tuple[int, ...]
    from_parent: dict[int, int]
    own_parent_mask: int
    extended_parent_mask: int
    outlets: dict[int, int]
    inlets: tuple[int, ...]
    init_states: tuple[int, ...]
    reach_states: set[int]
    avoid_states: frozenset[int]
    adjacency: frozenset[int]
    initial_reach: frozenset[int] = frozenset()

    def to_sub_mask(self, parent_mask: int) -> int:
        sub = 0
        fp = self.from_parent
        for s in states_from_mask(parent_mask):
            sub |= 1 << fp[s]
        return sub

    def to_parent_mask(self, sub_mask: int) -> int:
        tp = self.to_parent
        out = 0
        for s in states_from_mask(sub_mask):
            out |= 1 << tp[s]
        return out

    def local_spec(self) -> Spec:
        return Spec(
            self.to_sub_mask(mask_from_states(self.reach_states)),
            self.to_sub_mask(mask_from_states(self.avoid_states)),
        )


def decompose(m: Pomdp) -> list[Submodel]:
    """Split ``m`` along its partition labels into submodels.

    Each submodel's states are its own label's states plus the one-step
    exit targets (outlets), which become absorbing self-loops with zero
    reward.  Like the rest of the support algebra, transitions of at most
    ``PROB_EPS`` count as absent: they make no outlet.  Observation rows
    are inherited unchanged, so one support step inside a submodel matches
    the full model exactly as long as the support stays on own states.
    """
    if m.partition is None:
        raise ModelError("model carries no partition labels")
    labels = sorted(set(m.partition))
    label_index = {lbl: i for i, lbl in enumerate(labels)}
    n_subs = len(labels)
    own: list[list[int]] = [[] for _ in range(n_subs)]
    for s, lbl in enumerate(m.partition):
        own[label_index[lbl]].append(s)

    own_masks = [mask_from_states(states) for states in own]
    outlets: list[dict[int, int]] = [dict() for _ in range(n_subs)]
    inlets: list[set[int]] = [set() for _ in range(n_subs)]
    na = m.n_actions
    succ_masks = m._succ_masks
    for s in range(m.n_states):
        i = label_index[m.partition[s]]
        succ = 0
        for a in range(na):
            succ |= succ_masks[s * na + a]
        for t in states_from_mask(succ & ~own_masks[i]):
            j = label_index[m.partition[t]]
            outlets[i][t] = j
            inlets[j].add(t)

    init_support = set(states_from_mask(m.init_support))
    subs: list[Submodel] = []
    for i, lbl in enumerate(labels):
        extended = sorted(set(own[i]) | set(outlets[i]))
        from_parent = {s: k for k, s in enumerate(extended)}
        outlet_set = set(outlets[i])
        trans = {}
        obs_fn = {}
        rewards = {}
        for k, s in enumerate(extended):
            for a in range(na):
                if s in outlet_set:
                    trans[k, a] = {k: 1.0}
                    rewards[k, a] = 0.0
                else:
                    succs, probs = m.transitions[s * na + a]
                    trans[k, a] = {
                        from_parent[t]: p
                        for t, p in zip(succs, probs)
                        if p > PROB_EPS
                    }
                    rewards[k, a] = m.rewards[s * na + a]
                obs, probs = m.observations[s * na + a]
                obs_fn[k, a] = dict(zip(obs, probs))
        init_states = sorted(
            ((init_support & set(own[i])) | inlets[i]) - m.avoid
        )
        if not init_states:
            warnings.warn(
                f"submodel {lbl} has no entry states; its region stays empty",
                stacklevel=2,
            )
        reach_states = {s for s in extended if s in m.reach}
        avoid_states = frozenset(s for s in extended if s in m.avoid)
        init_dist = (
            {from_parent[s]: 1.0 / len(init_states) for s in init_states}
            if init_states
            else {
                from_parent[s]: 1.0 / len(extended)
                for s in extended
                if s not in m.avoid
            }
        )
        sub_pomdp = make_pomdp(
            states=[m.state_names[s] for s in extended],
            actions=m.action_names,
            observations=m.obs_names,
            transitions=trans,
            obs_fn=obs_fn,
            rewards=rewards,
            init=init_dist,
            reach=[from_parent[s] for s in sorted(reach_states)],
            avoid=[from_parent[s] for s in sorted(avoid_states)],
        )
        subs.append(
            Submodel(
                index=i,
                label=lbl,
                pomdp=sub_pomdp,
                to_parent=tuple(extended),
                from_parent=from_parent,
                own_parent_mask=own_masks[i],
                extended_parent_mask=mask_from_states(extended),
                outlets=dict(sorted(outlets[i].items())),
                inlets=tuple(sorted(inlets[i])),
                init_states=tuple(init_states),
                reach_states=reach_states,
                avoid_states=avoid_states,
                adjacency=frozenset(),
                initial_reach=frozenset(reach_states),
            )
        )
    for j, sub in enumerate(subs):
        sub.adjacency = frozenset(
            k for k in range(n_subs) if j in set(subs[k].outlets.values())
        )
    return subs


@dataclass
class FactoredRegion:
    """Per-submodel winning regions, queried as their union.

    ``spec`` is the full-model objective in parent ids; the per-submodel
    regions carry their own local objectives.  Membership is indexed on
    the first query, so ``subs`` and ``regions`` must not change after it.
    """

    subs: list[Submodel]
    regions: list[WinningRegion]
    model_hash: str
    spec: Spec
    queue_pushes: int = 0
    recomputes: int = 0

    def parent_elements(self) -> list[int]:
        """Every submodel's antichain elements, mapped to parent ids."""
        return [
            sub.to_parent_mask(e)
            for sub, reg in zip(self.subs, self.regions)
            for e in reg.elements
        ]

    @cached_property
    def _index(self) -> tuple[int, ...]:
        return holders_index(self.parent_elements())

    def contains(self, u: int) -> bool:
        """True when some submodel's region element holds the support."""
        if u == 0:
            raise ValueError("membership query on an empty support")
        return covered(self._index, u)

    def region_of(self, label: str) -> WinningRegion:
        for sub, reg in zip(self.subs, self.regions):
            if sub.label == label:
                return reg
        raise KeyError(label)


def _sub_seeds(sub: Submodel, powerset_seeds: bool,
               parent_masks: Collection[int]) -> list[int]:
    if powerset_seeds:
        from .winning import powerset_supports

        return powerset_supports(range(sub.pomdp.n_states))
    seeds = [1 << sub.from_parent[s] for s in sub.init_states]
    ext = sub.extended_parent_mask
    for u in parent_masks:
        if u & ~ext == 0:
            seeds.append(sub.to_sub_mask(u))
    return seeds


def propagate_factored_regions(
    m: Pomdp,
    subs: list[Submodel],
    *,
    powerset_seeds: bool = False,
    max_vertices: int | None = None,
    deadline: float | None = None,
) -> FactoredRegion:
    """Queue-based reach propagation to a fixpoint across submodels.

    Reach sets are reset at entry to the reach labels captured at
    decomposition, so repeated calls on the same submodel list are
    idempotent.  Then: compute a region for every submodel whose reach
    set is non-empty; repeatedly pop a pair (i, j), extend submodel i's
    reach set with outlet states owned by j whose singleton support is
    winning in j's current region, and on growth recompute i's region
    and requeue its neighbours.  Reach sets only grow, so the loop
    terminates.

    Submodel support graphs are seeded with singleton initial supports
    plus every support reachable in the full model that fits inside the
    submodel's extended state set.  The full-model closure matters:
    neighbouring-room dynamics create supports near doors that the
    submodel's own dynamics (with outlets frozen) never generate, and
    without them membership answers would be spuriously conservative.
    Only its vertices are kept (``reachable_supports``); it stores no
    branches, and it trips the same vertex cap and deadline as a graph.
    """
    from .winning import DEFAULT_VERTEX_CAP

    cap = max_vertices if max_vertices is not None else DEFAULT_VERTEX_CAP
    parent_masks: frozenset[int] = frozenset()
    if not powerset_seeds:
        parent_masks = reachable_supports(
            m, [m.init_support], max_vertices=cap, deadline=deadline
        )
    for sub in subs:
        sub.reach_states = set(sub.initial_reach)
    graphs: dict[int, SupportGraph] = {}
    regions: list[WinningRegion] = []
    empty_spec = [sub.local_spec() for sub in subs]
    for sub in subs:
        regions.append(
            WinningRegion((), empty_spec[sub.index], model_hash(sub.pomdp))
        )

    def recompute(i: int) -> None:
        sub = subs[i]
        if i not in graphs:
            seeds = _sub_seeds(sub, powerset_seeds, parent_masks)
            if not seeds:
                return
            graphs[i] = build_support_graph(
                sub.pomdp,
                seeds,
                max_vertices=cap,
                deadline=deadline,
            )
        regions[i] = compute_winning_region(
            sub.pomdp,
            sub.local_spec(),
            graph=graphs[i],
            deadline=deadline,
        )

    stats = {"pushes": 0, "recomputes": 0}
    queue: deque[tuple[int, int]] = deque()
    pending: set[tuple[int, int]] = set()

    def push(pair: tuple[int, int]) -> None:
        if pair not in pending:
            pending.add(pair)
            queue.append(pair)
            stats["pushes"] += 1

    for j, sub in enumerate(subs):
        if sub.reach_states:
            recompute(j)
            stats["recomputes"] += 1
            for k in sorted(sub.adjacency):
                push((k, j))

    while queue:
        i, j = queue.popleft()
        pending.discard((i, j))
        sub = subs[i]
        grew = False
        for s, owner in sub.outlets.items():
            if owner != j or s in sub.reach_states:
                continue
            if s in subs[j].avoid_states:
                continue
            singleton = 1 << subs[j].from_parent[s]
            if regions[j].contains(singleton):
                sub.reach_states.add(s)
                grew = True
        if grew:
            recompute(i)
            stats["recomputes"] += 1
            for k in sorted(sub.adjacency):
                push((k, i))

    return FactoredRegion(
        subs=subs,
        regions=regions,
        model_hash=model_hash(m),
        spec=Spec.of(m),
        queue_pushes=stats["pushes"],
        recomputes=stats["recomputes"],
    )


def factored_elements_in_parent(f: FactoredRegion) -> tuple[int, ...]:
    """Antichain over parent ids of all per-submodel antichain elements."""
    return antichain(f.parent_elements())


# -- factored region files ---------------------------------------------------


def serialize_factored(f: FactoredRegion, m: Pomdp) -> str:
    """One section per submodel: membership data, final reach sets and an
    element count ahead of the section's W lines."""
    lines = [
        "# factored winning regions",
        f"model {model_hash(m)}",
        f"submodels {len(f.subs)}",
    ]
    for sub, reg in zip(f.subs, f.regions):
        lines.append(f"submodel {sub.index} {sub.label}")
        names = lambda ids: " ".join(m.state_names[s] for s in sorted(ids))
        lines.append("own " + names(states_from_mask(sub.own_parent_mask)))
        lines.append(
            "outlets "
            + " ".join(
                f"{m.state_names[s]}:{owner}" for s, owner in sub.outlets.items()
            )
        )
        lines.append("init " + names(sub.init_states))
        lines.append("reach " + names(sub.reach_states))
        lines.append("avoid " + names(sub.avoid_states))
        lines.append(f"elements {len(reg.elements)}")
        for e in sorted(reg.elements):
            lines.append("W " + names(states_from_mask(sub.to_parent_mask(e))))
    return "\n".join(lines) + "\n"


_SECTION_LINES = frozenset({"own", "outlets", "init", "reach", "avoid", "elements"})


def parse_factored(text: str, m: Pomdp) -> FactoredRegion:
    """Rebuild a factored region from its file, validating against ``m``.

    The submodels themselves are reconstructed by decomposing the model,
    so the file only needs to agree on the structure and supply the final
    reach sets and antichains.  The ``submodels`` line, one complete
    section per submodel and each section's ``elements`` count are
    required, so a cut file raises instead of loading as smaller regions.
    """
    from .winning import RegionFileError, check_element_count, element_count

    file_hash = None
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped.startswith("model "):
            file_hash = stripped.split()[1]
            break
    if file_hash is None:
        raise RegionFileError("missing model header line")
    actual = model_hash(m)
    if file_hash != actual:
        raise RegionFileError(
            f"factored region file was computed for model {file_hash}, "
            f"but this model hashes to {actual}"
        )

    subs = decompose(m)
    by_index = {sub.index: sub for sub in subs}
    declared = None
    current: Submodel | None = None
    reach_seen: dict[int, set[int]] = {}
    elems: dict[int, list[int]] = {}
    counts: dict[int, int] = {}
    section_lines: dict[int, set[str]] = {}

    def state_ids(args):
        try:
            return [m.state_id[n] for n in args]
        except KeyError as e:
            raise ValueError(f"unknown state name {e}") from None

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        try:
            if kind == "model":
                pass  # validated in the pre-scan above
            elif kind == "submodels":
                declared = int(args[0])
            elif kind == "submodel":
                idx = int(args[0])
                if idx not in by_index:
                    raise ValueError(f"no submodel with index {idx}")
                if idx in elems:
                    raise ValueError(f"second section for submodel {idx}")
                current = by_index[idx]
                if len(args) > 1 and args[1] != current.label:
                    raise ValueError(
                        f"submodel {idx} is labeled {current.label!r}, "
                        f"file says {args[1]!r}"
                    )
                reach_seen[idx] = set()
                elems[idx] = []
                section_lines[idx] = set()
            elif current is None:
                raise ValueError(f"{kind!r} before any submodel section")
            elif kind == "own":
                if mask_from_states(state_ids(args)) != current.own_parent_mask:
                    raise ValueError(
                        f"own states of {current.label} do not match the model"
                    )
            elif kind == "outlets":
                got = {}
                for tok in args:
                    name, _, owner = tok.rpartition(":")
                    got[m.state_id[name]] = int(owner)
                if got != current.outlets:
                    raise ValueError(
                        f"outlets of {current.label} do not match the model"
                    )
            elif kind == "init":
                if tuple(sorted(state_ids(args))) != current.init_states:
                    raise ValueError(
                        f"init states of {current.label} do not match the model"
                    )
            elif kind == "reach":
                reach_seen[current.index] = set(state_ids(args))
            elif kind == "avoid":
                if frozenset(state_ids(args)) != current.avoid_states:
                    raise ValueError(
                        f"avoid states of {current.label} do not match the model"
                    )
            elif kind == "elements":
                counts[current.index] = element_count(args)
            elif kind == "W":
                u = mask_from_states(state_ids(args))
                if u & ~current.extended_parent_mask:
                    raise ValueError(
                        "region element leaves its submodel's states"
                    )
                elems[current.index].append(current.to_sub_mask(u))
            else:
                raise ValueError(f"unknown directive {kind!r}")
            if kind in _SECTION_LINES:
                section_lines[current.index].add(kind)
        except RegionFileError:
            raise
        except (ValueError, KeyError) as e:
            raise RegionFileError(f"line {ln}: {e}") from None
    if declared is None:
        raise RegionFileError("missing submodels line")
    if declared != len(subs):
        raise RegionFileError(
            f"file declares {declared} submodels, decomposition has {len(subs)}"
        )
    regions = []
    for sub in subs:
        if sub.index not in elems:
            raise RegionFileError(f"no section for submodel {sub.index}")
        missing = _SECTION_LINES - section_lines[sub.index]
        if missing:
            raise RegionFileError(
                f"submodel {sub.index} section lacks {' '.join(sorted(missing))} lines"
            )
        check_element_count(counts[sub.index], len(elems[sub.index]),
                            f"submodel {sub.index} section")
        sub.reach_states = reach_seen[sub.index]
        ac = antichain(elems[sub.index])
        regions.append(WinningRegion(ac, sub.local_spec(), model_hash(sub.pomdp)))
    return FactoredRegion(
        subs=subs, regions=regions, model_hash=file_hash, spec=Spec.of(m)
    )
