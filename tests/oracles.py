"""Independent reference computations used to pin expected test values.

Everything here works from a model's raw probability tables with set-based
data structures, deliberately sharing no code paths with the package's
bitmask implementations: supports are frozensets of state ids, fixpoints
iterate over explicit powerset lattices, and values come from plain
finite-horizon dynamic programming.  Only practical for tiny models.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations

from safepomcp import Pomdp, successors_mask
from safepomcp.model import PROB_EPS, draw


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


def candidate_post_all(m: Pomdp, support: int, a: int) -> list[tuple[int, int]]:
    """``support_post_all`` by a candidate search over observation ids.

    Every observation some successor emits with probability above
    ``PROB_EPS`` is a candidate; candidates are sorted and each is ANDed
    with the states that emit it, empty posteriors dropped.  Unlike the
    rest of this module it reads the package's successor and emitter
    masks: it is the reference for the emitted-observation table that
    ``support_post_all`` walks instead, while ``post_branches`` is the
    independent one.
    """
    succ = successors_mask(m, support, a)
    na = m.n_actions
    candidates: set[int] = set()
    for s2 in support_states(succ):
        obs, probs = m.observations[s2 * na + a]
        candidates.update(o for o, p in zip(obs, probs) if p > PROB_EPS)
    zmasks = m._obs_state_masks
    base = a * m.n_obs
    out = []
    for o in sorted(candidates):
        post = succ & zmasks[base + o]
        if post:
            out.append((o, post))
    return out


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


def scan_contains(elements, u: int) -> bool:
    """Downward-closure membership by one complement test per element."""
    if u == 0:
        raise ValueError("membership query on an empty support")
    for comp in tuple(~e for e in elements):
        if u & comp == 0:
            return True
    return False


def room_union_contains(f, u: int) -> bool:
    """Factored membership room by room: a room whose extended states hold
    the support answers for it, in its own sub-ids."""
    if u == 0:
        raise ValueError("membership query on an empty support")
    for sub, reg in zip(f.subs, f.regions):
        if u & ~sub.extended_parent_mask:
            continue
        if reg.elements and scan_contains(reg.elements, sub.to_sub_mask(u)):
            return True
    return False


def pairwise_antichain(masks) -> tuple[int, ...]:
    """Maximal elements, largest first, by a subset test against each
    element kept so far."""
    ordered = sorted(set(masks), key=lambda u: (-u.bit_count(), u))
    kept: list[int] = []
    for u in ordered:
        if not any(u & ~k == 0 for k in kept):
            kept.append(u)
    return tuple(kept)


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


def uniform_values(m: Pomdp, horizon: int, discount: float = 1.0) -> list[float]:
    """Expected ``horizon``-step discounted return of the uniform-random
    policy from each state: ``horizon_values`` with a mean over actions in
    place of the max."""
    na = m.n_actions
    v = [0.0] * m.n_states
    for _ in range(horizon):
        v = [
            sum(
                m.rewards[s * na + a]
                + discount * sum(p * v[x] for x, p in zip(*m.transitions[s * na + a]))
                for a in range(na)
            ) / na
            for s in range(m.n_states)
        ]
    return v


def uniform_paths(m: Pomdp, s: int, steps: int, discount: float) -> dict:
    """Outcomes of ``steps`` uniform-random moves from ``s``, by brute force.

    Every action sequence and successor path is enumerated from the raw
    rows, entries of at most ``PROB_EPS`` dropped and the rest renormalised;
    a path ends early in an absorbing state (one whose every action keeps
    it in place).  Paths are merged by ``(end, n, value)``, the value
    rounded to 9 places, into total probabilities.
    """
    na = m.n_actions

    def kept(k):
        pairs = [(x, p) for x, p in zip(*m.transitions[k]) if p > PROB_EPS]
        total = sum(p for _, p in pairs)
        return [(x, p / total) for x, p in pairs]

    def absorbing(x):
        return all({y for y, _ in kept(x * na + a)} == {x} for a in range(na))

    out: dict = {}

    def walk(x, left, value, scale, n, prob):
        if n and (left == 0 or absorbing(x)):
            key = (x, n, round(value, 9))
            out[key] = out.get(key, 0.0) + prob
            return
        for a in range(na):
            r = m.rewards[x * na + a]
            for y, p in kept(x * na + a):
                walk(y, left - 1, value + scale * r, scale * discount, n + 1,
                     prob * p / na)

    walk(s, steps, 0.0, 1.0, 0, 1.0)
    return out


def split_tables(rows):
    """Sampler rows as five parallel lists, split by support size.

    Entries of at most ``PROB_EPS`` are dropped.  ``single[i]`` holds the
    sole outcome of a one-outcome row, -1 for a two-outcome row (``u <
    duo_p[i]`` picks ``duo_a[i]``, else ``duo_b[i]``) or -2 for a wider
    row, whose ``multi[i]`` is ``(outs, cums, total)`` for a bisect.  It is
    the reference for the one-entry-per-row format that ``model.draw``
    reads, which must make the same draws and comparisons.
    """
    single, duo_p, duo_a, duo_b, multi = [], [], [], [], []
    for outs, probs in rows:
        kept = [(x, p) for x, p in zip(outs, probs) if p > PROB_EPS]
        if len(kept) == 1:
            single.append(kept[0][0])
            duo_p.append(0.0)
            duo_a.append(-1)
            duo_b.append(-1)
            multi.append(None)
        elif len(kept) == 2:
            (x0, p0), (x1, p1) = kept
            single.append(-1)
            duo_p.append(p0 / (p0 + p1))
            duo_a.append(x0)
            duo_b.append(x1)
            multi.append(None)
        else:
            single.append(-2)
            duo_p.append(0.0)
            duo_a.append(-1)
            duo_b.append(-1)
            cum = []
            acc = 0.0
            for _, p in kept:
                acc += p
                cum.append(acc)
            multi.append((tuple(x for x, _ in kept), tuple(cum), acc))
    return single, duo_p, duo_a, duo_b, multi


def _split_draw(tables, i: int, rng) -> int:
    single, duo_p, duo_a, duo_b, multi = tables
    x = single[i]
    if x == -1:
        return duo_a[i] if rng.random() < duo_p[i] else duo_b[i]
    if x == -2:
        outs, cums, total = multi[i]
        return outs[bisect_right(cums, rng.random() * total)]
    return x


def split_sample_step(m: Pomdp, s: int, a: int, rng) -> tuple[int, int]:
    """``sample_step``'s successor and observation drawn from
    ``split_tables``: the successor first, then the observation, one
    uniform draw for each row with more than one outcome."""
    na = m.n_actions
    s2 = _split_draw(split_tables(m.transitions), s * na + a, rng)
    return s2, _split_draw(split_tables(m.observations), s2 * na + a, rng)


def step_rollout(m: Pomdp, s: int, depth: int, discount: float, rng,
                 shielded: int = 0) -> float:
    """A uniform-random rollout sampled one move at a time.

    One draw picks each action (``getrandbits`` when the action count is a
    power of two) and one more picks the successor of a two- or
    wider-outcome row; an absorbing state closes the tail in closed form.
    The first move avoids the actions set in ``shielded``.  It reads the
    package's sampler rows, so that it draws from the same filtered rows
    as the block-sampled rollout it is the reference for.
    """
    t_rows = m._t_rows
    absorb = m.absorbing_mean_rewards
    na = m.n_actions
    abits = na.bit_length() - 1 if na & (na - 1) == 0 else -1
    total = 0.0
    g = 1.0
    for k in range(depth):
        mean = absorb[s]
        if mean is not None:
            left = depth - k
            if discount == 1.0:
                total += g * mean * left
            else:
                total += g * mean * (1.0 - discount ** left) / (1.0 - discount)
            break
        if shielded and k == 0:
            allowed = [a for a in range(na) if not shielded >> a & 1]
            a = allowed[int(rng.random() * len(allowed))]
        elif abits >= 0:
            a = rng.getrandbits(abits)
        else:
            a = int(rng.random() * na)
        idx = s * na + a
        total += g * m.rewards[idx]
        g *= discount
        s = draw(t_rows[idx], rng.random)
    return total


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


def backtrack_check(ctx, node, a: int, o: int, s_new: int) -> bool:
    """Allow/prune verdict for appending ``s_new`` to the (a, o) child's belief.

    Returns True to allow.  Membership is only queried when the particle
    support would actually grow; repeat states carry no new information.
    This is the check the planner makes inline during simulations, written
    out so that its verdicts can be audited outside a search.
    """
    edge = node.edges[a] if node.edges is not None else None
    child = edge.children.get(o) if edge is not None else None
    mask = child.mask if child is not None else 0
    bit = 1 << s_new
    if mask & bit:
        return True
    return ctx.contains(mask | bit)
