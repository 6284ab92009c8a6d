"""Shared hypothesis strategies for randomised model tests."""

import dataclasses

from hypothesis import strategies as st

from safepomcp import make_pomdp


@st.composite
def small_pomdps(draw):
    """Random valid models: up to 6 states, 3 actions, 3 observations.

    Probabilities are small integer ratios so row sums stay within the
    model tolerance, reach states are forced absorbing, state 0 carries the
    initial belief and never lands in the avoid set.
    """
    ns = draw(st.integers(min_value=2, max_value=6))
    na = draw(st.integers(min_value=1, max_value=3))
    no = draw(st.integers(min_value=1, max_value=3))

    def dist(n):
        k = draw(st.integers(min_value=1, max_value=min(3, n)))
        outs = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
        weights = [draw(st.integers(min_value=1, max_value=8)) for _ in outs]
        total = sum(weights)
        return {x: w / total for x, w in zip(outs, weights)}

    avoid = draw(
        st.sets(st.integers(min_value=1, max_value=ns - 1), max_size=ns - 1)
    )
    reach_pool = sorted(set(range(1, ns)) - avoid)
    if reach_pool:
        reach = draw(st.sets(st.sampled_from(reach_pool)))
    else:
        reach = set()

    transitions = {}
    obs_fn = {}
    rewards = {}
    for s in range(ns):
        for a in range(na):
            transitions[s, a] = {s: 1.0} if s in reach else dist(ns)
            obs_fn[s, a] = dist(no)
            rewards[s, a] = draw(st.integers(min_value=-10, max_value=10)) / 2
    partition = draw(
        st.one_of(st.none(), st.just(tuple("ab"[s % 2] for s in range(ns))))
    )
    return make_pomdp(
        states=ns,
        actions=na,
        observations=no,
        transitions=transitions,
        obs_fn=obs_fn,
        rewards=rewards,
        init={0: 1.0},
        reach=reach,
        avoid=avoid,
        partition=partition,
    )


@st.composite
def support_of(draw, m):
    """A non-empty belief support of ``m`` that avoids the avoid set."""
    free = [s for s in range(m.n_states) if not (m.avoid_mask >> s) & 1]
    states = draw(st.sets(st.sampled_from(free), min_size=1))
    return sum(1 << s for s in states)


def with_negligible_entries(m, t_rows=(), z_rows=()):
    """``m`` with a 1e-13 entry added to each listed transition and
    observation row that leaves out some outcome; indices past the end of
    a table are skipped.  The sampler and the support algebra drop such
    entries."""

    def widen(rows, picks, n):
        rows = list(rows)
        for k in picks:
            if k >= len(rows):
                continue
            outs, probs = rows[k]
            missing = [x for x in range(n) if x not in outs]
            if missing:
                pairs = sorted([*zip(outs, probs), (missing[0], 1e-13)])
                rows[k] = (tuple(x for x, _ in pairs), tuple(p for _, p in pairs))
        return tuple(rows)

    return dataclasses.replace(
        m,
        transitions=widen(m.transitions, t_rows, m.n_states),
        observations=widen(m.observations, z_rows, m.n_obs),
    )
