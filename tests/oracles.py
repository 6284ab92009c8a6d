"""Independent reference computations used to pin expected test values.

Everything here works from a model's raw probability tables with set-based
data structures, deliberately sharing no code paths with the package's
bitmask implementations: supports are frozensets of state ids, fixpoints
iterate over explicit powerset lattices, and values come from plain
finite-horizon dynamic programming.  Only practical for tiny models.
"""

from __future__ import annotations

from itertools import combinations

from safepomcp import Pomdp


def all_supports(n_states: int) -> list[frozenset[int]]:
    """Every non-empty subset of the state space, as frozensets."""
    states = range(n_states)
    return [
        frozenset(c)
        for k in range(1, n_states + 1)
        for c in combinations(states, k)
    ]


def post_branches(m: Pomdp, u: frozenset[int], a: int) -> dict[int, frozenset[int]]:
    """Observation-indexed partition of the one-step posterior supports."""
    na = m.n_actions
    succ: set[int] = set()
    for s in u:
        outs, probs = m.transitions[s * na + a]
        succ.update(x for x, p in zip(outs, probs) if p > 0.0)
    branches: dict[int, set[int]] = {}
    for s2 in succ:
        outs, probs = m.observations[s2 * na + a]
        for o, p in zip(outs, probs):
            if p > 0.0:
                branches.setdefault(o, set()).add(s2)
    return {o: frozenset(v) for o, v in branches.items()}


def brute_force_winning(m: Pomdp) -> set[frozenset[int]]:
    """Winning supports for almost-sure reach-avoid, over the full powerset.

    Greatest fixpoint: start from all avoid-free supports, repeatedly drop
    supports without an action keeping every observation branch inside the
    candidate set, then drop supports with no allowed-action path to a
    support inside the reach set, until stable.  Goal supports (subsets of
    reach) stay by construction because reach states are absorbing.
    """
    reach = frozenset(m.reach)
    avoid = frozenset(m.avoid)
    na = m.n_actions
    universe = [u for u in all_supports(m.n_states) if not u & avoid]
    branch = {
        (u, a): list(post_branches(m, u, a).values())
        for u in universe
        for a in range(na)
    }
    W = set(universe)
    while True:
        while True:
            keep = {
                u for u in W
                if u <= reach
                or any(all(v in W for v in branch[u, a]) for a in range(na))
            }
            if keep == W:
                break
            W = keep
        productive = {u for u in W if u <= reach}
        grew = True
        while grew:
            grew = False
            for u in W - productive:
                for a in range(na):
                    vs = branch[u, a]
                    if all(v in W for v in vs) and any(v in productive for v in vs):
                        productive.add(u)
                        grew = True
                        break
        if productive == W:
            return W
        W = productive


def round_winning_masks(graph, spec) -> frozenset[int]:
    """The support-graph fixpoint computed round by round, as a reference.

    Each round rebuilds, from ``graph.edges``, the actions allowed under the
    current candidate set and the reverse graph of allowed branches, then
    keeps goals plus the candidates that reach a goal through allowed
    branches, until the candidate set is stable.  Candidates start as the
    avoid-free vertices; goals are candidates inside the reach set.
    """
    verts = graph.vertices
    index = graph.index
    n = len(verts)
    in_c = [(u & spec.avoid_mask) == 0 for u in verts]
    goal = [in_c[i] and (verts[i] & ~spec.reach_mask) == 0 for i in range(n)]
    edges = [graph.edges[i] for i in range(n)]
    while True:
        allow: list[list[int] | None] = [None] * n
        for i in range(n):
            if in_c[i] and not goal[i]:
                acts = [
                    a for a, branches in enumerate(edges[i])
                    if all(in_c[index[v]] for _, v in branches)
                ]
                allow[i] = acts or None
        rev: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            for a in allow[i] or ():
                for _, v in edges[i][a]:
                    rev[index[v]].append(i)
        reached = list(goal)
        stack = [i for i in range(n) if goal[i]]
        while stack:
            for i in rev[stack.pop()]:
                if not reached[i]:
                    reached[i] = True
                    stack.append(i)
        new_c = [
            goal[i] or (reached[i] and allow[i] is not None) for i in range(n)
        ]
        if new_c == in_c:
            return frozenset(verts[i] for i in range(n) if in_c[i])
        in_c = new_c


def horizon_values(m: Pomdp, horizon: int) -> list[float]:
    """Optimal finite-horizon undiscounted values of the fully observed MDP."""
    na = m.n_actions
    v = [0.0] * m.n_states
    for _ in range(horizon):
        v = [
            max(
                m.rewards[s * na + a]
                + sum(p * v[x] for x, p in zip(*m.transitions[s * na + a]))
                for a in range(na)
            )
            for s in range(m.n_states)
        ]
    return v


def horizon_q(m: Pomdp, s: int, horizon: int) -> list[float]:
    """Per-action finite-horizon Q-values of one state."""
    na = m.n_actions
    v = horizon_values(m, horizon - 1)
    return [
        m.rewards[s * na + a]
        + sum(p * v[x] for x, p in zip(*m.transitions[s * na + a]))
        for a in range(na)
    ]


def support_states(mask: int) -> frozenset[int]:
    """Bitmask to frozenset, written without the package's helpers."""
    out = set()
    s = 0
    while mask:
        if mask & 1:
            out.add(s)
        mask >>= 1
        s += 1
    return frozenset(out)
