"""Independent checks of winning regions and shielded episodes.

Nothing here calls into ``safepomcp``'s support algebra, region code or
shields.  Posterior branches are recomputed from the raw ``transitions`` and
``observations`` tables of a model as Python sets, and region membership is
a plain subset test against the region's elements.  The checks therefore
catch a fault in the program's own algebra instead of repeating it.

A probability at or below ``EPS`` is a structural zero, which is how the
model format defines its supports.
"""

from __future__ import annotations

from collections import deque

EPS = 1e-12


def states_of(mask: int) -> frozenset[int]:
    """The state ids whose bits are set in ``mask``."""
    bits = bin(mask)[:1:-1]
    return frozenset(i for i, b in enumerate(bits) if b == "1")


class Algebra:
    """Exact posterior supports of one model, as frozensets of state ids."""

    def __init__(self, m):
        na = len(m.action_names)
        self.n_actions = na
        self.succ = [
            frozenset(t for t, p in zip(outs, probs) if p > EPS)
            for outs, probs in m.transitions
        ]
        self.emits = [
            tuple(o for o, p in zip(outs, probs) if p > EPS)
            for outs, probs in m.observations
        ]
        self.reach = frozenset(m.reach)
        self.avoid = frozenset(m.avoid)
        self.init = frozenset(
            s for s, p in zip(m.init_states, m.init_probs) if p > EPS
        )

    def branches(self, u: frozenset[int], a: int) -> dict[int, frozenset[int]]:
        """Every observation that can follow ``a`` from ``u``, with its posterior."""
        na = self.n_actions
        succ = set()
        for s in u:
            succ |= self.succ[s * na + a]
        out: dict[int, set[int]] = {}
        for t in succ:
            for o in self.emits[t * na + a]:
                out.setdefault(o, set()).add(t)
        return {o: frozenset(v) for o, v in out.items()}

    def is_goal(self, u: frozenset[int]) -> bool:
        return u <= self.reach


class Closure:
    """Downward closure of a family of supports: membership is subset-of-some."""

    def __init__(self, elements):
        self.elements = [frozenset(e) for e in elements]
        self._by_state: dict[int, list[frozenset[int]]] = {}
        for e in self.elements:
            for s in e:
                self._by_state.setdefault(s, []).append(e)

    def __contains__(self, u: frozenset[int]) -> bool:
        if not u:
            raise ValueError("membership of an empty support")
        shortest = min((self._by_state.get(s, ()) for s in u), key=len)
        return any(u <= e for e in shortest)

    def safe_actions(self, alg: Algebra, u: frozenset[int]) -> list[int]:
        """Actions whose every branch from ``u`` stays inside the closure."""
        return [
            a for a in range(alg.n_actions)
            if all(v in self for v in alg.branches(u, a).values())
        ]


def unproductive(
    alg: Algebra, region: Closure, starts: list[frozenset[int]]
) -> list[frozenset[int]]:
    """The ``starts`` from which no goal support is reachable through
    actions whose branches all stay inside ``region``.

    One search from every start at once records the safe-action graph, and
    a backward walk from its goal supports marks the productive ones.
    """
    preds: dict[frozenset[int], list[frozenset[int]]] = {}
    productive: set[frozenset[int]] = set()
    seen = set(starts)
    queue = deque(seen)
    while queue:
        u = queue.popleft()
        if alg.is_goal(u):
            productive.add(u)
            continue
        for a in region.safe_actions(alg, u):
            for w in alg.branches(u, a).values():
                preds.setdefault(w, []).append(u)
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    stack = list(productive)
    while stack:
        for p in preds.get(stack.pop(), ()):
            if p not in productive:
                productive.add(p)
                stack.append(p)
    return [u for u in starts if u not in productive]


def check_region(
    alg: Algebra, region: Closure, *, antichain: bool
) -> tuple[list[str], list[frozenset[int]], list[frozenset[int]]]:
    """Problems found in ``region``, its step-closure holes, and its
    unproductive elements.

    Checks that every element is avoid-free and that the initial support is
    a member.  A hole is a non-goal element with no action whose branches
    all stay inside; an unproductive element is any other one from which no
    goal support is reachable through such actions.  With ``antichain`` it
    also checks that no element contains another.  Holes and unproductive
    elements are returned apart from the other problems because a known
    fault in factored propagation produces them.
    """
    problems: list[str] = []
    elems = region.elements
    for e in elems:
        if e & alg.avoid:
            problems.append(f"element {sorted(e)} meets the avoid set")
    if antichain:
        if len(set(elems)) != len(elems):
            problems.append("duplicate elements")
        for e in elems:
            if any(e < f for f in region._by_state[min(e)]):
                problems.append(f"element {sorted(e)} is not maximal")
    if alg.init not in region:
        problems.append("initial support is not a member")
    holes = [
        e for e in elems
        if not alg.is_goal(e) and not region.safe_actions(alg, e)
    ]
    starts = [e for e in dict.fromkeys(elems) if e not in holes]
    return problems, holes, unproductive(alg, region, starts)


def reachable_supports(alg: Algebra) -> dict[frozenset[int], list[frozenset]]:
    """Every support reachable from the initial one, with its successor sets.

    The value at ``u`` holds, per action, the frozenset of its branches.
    """
    graph: dict[frozenset[int], list[frozenset]] = {}
    queue = deque([alg.init])
    graph[alg.init] = []
    while queue:
        u = queue.popleft()
        per_action = []
        for a in range(alg.n_actions):
            branches = frozenset(alg.branches(u, a).values())
            per_action.append(branches)
            for v in branches:
                if v not in graph:
                    graph[v] = []
                    queue.append(v)
        graph[u] = per_action
    return graph


def winning_antichain(alg: Algebra) -> set[frozenset[int]]:
    """Maximal winning supports among those reachable from the initial one.

    Greatest fixpoint over Z of the least fixpoint over Y of: goal supports,
    plus avoid-free supports with an action whose branches all lie in Z and
    at least one lies in Y.  That is almost-sure reach-avoid over the
    support graph.
    """
    graph = reachable_supports(alg)
    z = {u for u in graph if not u & alg.avoid}
    while True:
        y = {u for u in z if alg.is_goal(u)}
        grew = True
        while grew:
            grew = False
            for u in z - y:
                if any(bs <= z and bs & y for bs in graph[u]):
                    y.add(u)
                    grew = True
        if y == z:
            break
        z = y
    return maximal(z)


def maximal(supports) -> set[frozenset[int]]:
    """The supports that no other one strictly contains."""
    family = set(supports)
    return {u for u in family if not any(u < v for v in family)}


def check_reachable(
    alg: Algebra, region: Closure, outer: Closure
) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """Supports that a shield backed by ``region`` can reach and that fail.

    Walks every support reachable from the initial one through actions
    whose branches all stay in ``region``.  Returns the non-goal ones with
    no such action, and the ones outside ``outer``.
    """
    stuck: list[frozenset[int]] = []
    outside: list[frozenset[int]] = []
    seen = {alg.init}
    queue = deque([alg.init])
    while queue:
        u = queue.popleft()
        if u not in outer:
            outside.append(u)
        if alg.is_goal(u):
            continue
        safe = region.safe_actions(alg, u)
        if not safe:
            stuck.append(u)
        for a in safe:
            for w in alg.branches(u, a).values():
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return stuck, outside


def replay_episode(
    alg: Algebra,
    steps: list[tuple],
    regions: list[Closure],
) -> list[str]:
    """Problems found when replaying one shielded episode exactly.

    ``steps`` holds, per executed step, the root's particle states when the
    action was planned, the planned action, and the true state, executed
    action, successor and observation seen by the simulator.  The exact
    support starts at the initial one and follows every observation.
    """
    problems: list[str] = []
    u = alg.init
    for i, (particles, planned, s, a, s2, o) in enumerate(steps):
        where = f"step {i + 1}"
        if i == 0 and s in alg.avoid:
            problems.append(f"{where}: starts in avoid state {s}")
        if planned != a:
            problems.append(f"{where}: executed {a}, planned {planned}")
        if s not in u:
            problems.append(f"{where}: true state {s} outside the exact support")
        if not particles <= u:
            problems.append(f"{where}: particles outside the exact support")
        branches = alg.branches(u, a)
        for v in branches.values():
            for region in regions:
                if v not in region:
                    problems.append(f"{where}: a branch of action {a} leaves a region")
        if s2 in alg.avoid:
            problems.append(f"{where}: visits avoid state {s2}")
        u = branches.get(o, frozenset())
        if s2 not in u:
            problems.append(f"{where}: observation {o} rules out true state {s2}")
            break
    return problems
