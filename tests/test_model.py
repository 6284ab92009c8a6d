"""Core model construction, belief-support algebra and the step sampler."""

import math
import random
import warnings
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from safepomcp import (
    DanglingIdError,
    ModelError,
    NonAbsorbingReachError,
    ProbabilitySumError,
    SimStep,
    SpecConflictError,
    make_pomdp,
    mask_from_states,
    sample_initial,
    sample_step,
    states_from_mask,
    successors_mask,
    support_post,
    support_post_all,
)

from oracles import (
    candidate_post_all,
    post_branches,
    split_sample_step,
    support_states,
)
from strategies import small_pomdps, support_of, with_negligible_entries


class CountingRandom(random.Random):
    """Random stream that counts uniform draws."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.calls = 0

    def random(self):
        self.calls += 1
        return super().random()


class ScriptedRandom(random.Random):
    """Uniform draws taken in turn, cyclically, from a fixed list."""

    def __init__(self, values):
        super().__init__(0)
        self.values = values
        self.calls = 0

    def random(self):
        u = self.values[self.calls % len(self.values)]
        self.calls += 1
        return u


TOP = math.nextafter(1.0, 0.0)  # the largest uniform draw below 1

# rows of small_pomdps that may gain a 1e-13 entry (at most 6 * 3 rows)
NEGLIGIBLE_ROWS = st.lists(st.integers(min_value=0, max_value=17), max_size=4)


def _dirac_chain(k=3):
    """k-state deterministic chain with one action and one observation."""
    trans = {}
    obs_fn = {}
    rewards = {}
    for s in range(k):
        nxt = s + 1 if s < k - 1 else s
        trans[s, 0] = {nxt: 1.0}
        obs_fn[s, 0] = {0: 1.0}
        rewards[s, 0] = float(s)
    return make_pomdp(
        states=k,
        actions=1,
        observations=1,
        transitions=trans,
        obs_fn=obs_fn,
        rewards=rewards,
        init={0: 1.0},
        reach=[k - 1],
        avoid=[],
    )


def _post_union(m, u, a):
    acc = 0
    for o in range(m.n_obs):
        acc |= support_post(m, u, a, o)
    return acc


# -- support_post ----------------------------------------------------------


def test_post_union_from_adjacent_pair(obstacle6):
    u = obstacle6.support_from_names("g12 g13")
    a = obstacle6.action_id["east"]
    assert _post_union(obstacle6, u, a) == obstacle6.support_from_names("g13 g14 g15")


def test_post_union_from_start_cell(obstacle6):
    u = obstacle6.support_from_names("g11")
    a = obstacle6.action_id["east"]
    assert _post_union(obstacle6, u, a) == obstacle6.support_from_names("g12 g13")


def test_post_matches_transition_enumeration(obstacle6):
    m = obstacle6
    for names in ("g11", "g12 g13", "g33 g34", "g66"):
        u = m.support_from_names(names)
        for a in range(m.n_actions):
            branches = post_branches(m, frozenset(states_from_mask(u)), a)
            union = frozenset().union(*branches.values()) if branches else frozenset()
            assert set(states_from_mask(_post_union(m, u, a))) == union
            for o in range(m.n_obs):
                got = frozenset(states_from_mask(support_post(m, u, a, o)))
                assert got == branches.get(o, frozenset())


def test_post_impossible_observation_is_empty(obstacle6):
    u = obstacle6.support_from_names("g11")
    a = obstacle6.action_id["east"]
    o = obstacle6.obs_id["done"]
    assert support_post(obstacle6, u, a, o) == 0


# -- support_post_all ------------------------------------------------------


def test_post_all_union_covers_successors(obstacle6):
    u = obstacle6.support_from_names("g11")
    a = obstacle6.action_id["east"]
    branches = support_post_all(obstacle6, u, a)
    assert branches
    union = 0
    for o, mask in branches:
        assert mask != 0
        union |= mask
    assert union == successors_mask(obstacle6, u, a)
    assert union == obstacle6.support_from_names("g12 g13")
    assert [o for o, _ in branches] == sorted(o for o, _ in branches)


def test_post_all_absorbing_singleton(obstacle6):
    u = 1 << obstacle6.state_id["g66"]
    for a in range(obstacle6.n_actions):
        branches = support_post_all(obstacle6, u, a)
        assert branches
        assert all(mask == u for _, mask in branches)


def test_post_all_deterministic_chain_single_branch():
    m = _dirac_chain()
    for s in range(m.n_states):
        branches = support_post_all(m, 1 << s, 0)
        assert len(branches) == 1
        o, mask = branches[0]
        assert o == 0
        assert mask == 1 << min(s + 1, m.n_states - 1)


@given(m=small_pomdps(), data=st.data())
def test_post_all_matches_candidate_reference(m, data):
    u = data.draw(st.integers(min_value=1, max_value=(1 << m.n_states) - 1))
    a = data.draw(st.integers(min_value=0, max_value=m.n_actions - 1))
    branches = support_post_all(m, u, a)
    assert branches == candidate_post_all(m, u, a)
    expected = post_branches(m, support_states(u), a)
    assert branches == [
        (o, mask_from_states(expected[o])) for o in sorted(expected)
    ]


@pytest.mark.parametrize("tiny_entry", ["transition", "observation"])
def test_post_all_ignores_negligible_entries(tiny_entry):
    """A 1e-15 entry is a structural zero: state 2 is no successor of state 0
    in one model, and state 1 never emits observation 1 in the other, so
    observation 1 gives no branch (not an empty one) from state 0."""
    eps = 1e-15
    trans = {(s, 0): {s: 1.0} for s in range(3)}
    obs_fn = {(0, 0): {0: 1.0}, (1, 0): {0: 1.0}, (2, 0): {1: 1.0}}
    if tiny_entry == "transition":
        trans[0, 0] = {1: 1.0 - eps, 2: eps}
    else:
        trans[0, 0] = {1: 1.0}
        obs_fn[1, 0] = {0: 1.0 - eps, 1: eps}
    m = make_pomdp(
        states=3, actions=1, observations=2, transitions=trans,
        obs_fn=obs_fn, rewards={}, init={0: 1.0}, reach=[], avoid=[],
    )
    assert support_post_all(m, 0b001, 0) == [(0, 0b010)]
    for u in range(1, 8):
        assert support_post_all(m, u, 0) == candidate_post_all(m, u, 0)


# -- sample_step -----------------------------------------------------------


def test_sample_dirac_rows_consume_no_draws():
    m = _dirac_chain()
    rng = CountingRandom(3)
    step = sample_step(m, 0, 0, rng)
    assert step == SimStep(1, 0, 0.0)
    assert rng.calls == 0


def test_sample_extreme_draws_pick_first_and_last_kept_outcomes():
    """The dropped 1e-13 entry leaves the kept row summing to less than 1;
    the draws 0 and the largest float below 1 still pick its first and
    last kept outcomes."""
    m = make_pomdp(
        states=4, actions=1, observations=1,
        transitions={(0, 0): {0: 1e-13, 1: 0.5, 2: 0.25, 3: 0.25 - 1e-13},
                     **{(s, 0): {s: 1.0} for s in (1, 2, 3)}},
        obs_fn={(s, 0): {0: 1.0} for s in range(4)},
        rewards={}, init={0: 1.0}, reach=[], avoid=[],
    )
    assert sample_step(m, 0, 0, ScriptedRandom([0.0])).state == 1
    assert sample_step(m, 0, 0, ScriptedRandom([TOP])).state == 3


def test_sample_overshoot_frequency(obstacle6):
    m = obstacle6
    s = m.state_id["g11"]
    a = m.action_id["east"]
    overshoot = m.state_id["g13"]
    rng = random.Random(11)
    n = 100_000
    hits = sum(sample_step(m, s, a, rng).state == overshoot for _ in range(n))
    assert abs(hits / n - 0.2) <= 0.01


def test_sample_frequencies_chi_square(obstacle6):
    m = obstacle6
    s = m.state_id["g11"]
    a = m.action_id["east"]
    na = m.n_actions
    expected = {}
    touts, tps = m.transitions[s * na + a]
    for s2, tp in zip(touts, tps):
        oouts, ops = m.observations[s2 * na + a]
        for o, op in zip(oouts, ops):
            if tp * op > 0.0:
                expected[s2, o] = expected.get((s2, o), 0.0) + tp * op
    rng = random.Random(5)
    n = 100_000
    counts = Counter()
    for _ in range(n):
        step = sample_step(m, s, a, rng)
        counts[step.state, step.obs] += 1
    assert set(counts) <= set(expected)
    keys = sorted(expected)
    result = stats.chisquare(
        [counts.get(k, 0) for k in keys], [expected[k] * n for k in keys]
    )
    assert result.pvalue > 0.001


def test_sample_determinism(obstacle6):
    m = obstacle6
    a = m.action_id["east"]

    def run(seed):
        rng = random.Random(seed)
        s = sample_initial(m, rng)
        out = []
        for _ in range(60):
            step = sample_step(m, s, a, rng)
            out.append(step)
            s = step.state
        return out

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_sample_reward_matches_table(obstacle6):
    m = obstacle6
    s = m.state_id["g12"]
    a = m.action_id["south"]
    step = sample_step(m, s, a, random.Random(0))
    assert step.reward == m.rewards[s * m.n_actions + a]


# -- randomised properties -------------------------------------------------


def _state_actions(data, m):
    return data.draw(st.lists(
        st.tuples(st.integers(0, m.n_states - 1), st.integers(0, m.n_actions - 1)),
        min_size=1, max_size=20,
    ), label="steps")


@given(m=small_pomdps(), t_tiny=NEGLIGIBLE_ROWS, z_tiny=NEGLIGIBLE_ROWS,
       seed=st.integers(min_value=0, max_value=2**32 - 1), data=st.data())
def test_sample_step_matches_split_tables(m, t_tiny, z_tiny, seed, data):
    """Same seed, same (s', o) as the five-list reference sampler, and the
    same rng state after every call."""
    m = with_negligible_entries(m, t_tiny, z_tiny)
    rng = random.Random(seed)
    ref = random.Random(seed)
    for s, a in _state_actions(data, m):
        step = sample_step(m, s, a, rng)
        assert (step.state, step.obs) == split_sample_step(m, s, a, ref)
        assert rng.getstate() == ref.getstate()


@given(m=small_pomdps(), t_tiny=NEGLIGIBLE_ROWS, z_tiny=NEGLIGIBLE_ROWS,
       data=st.data())
def test_sampled_step_is_in_exact_posterior(m, t_tiny, z_tiny, data):
    """Whatever the uniform draws, 0 and the largest float below 1
    included, the sampled s' is in ``support_post`` of {s} for the sampled
    o."""
    m = with_negligible_entries(m, t_tiny, z_tiny)
    draws = data.draw(st.lists(
        st.one_of(st.sampled_from([0.0, TOP]),
                  st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
        min_size=1, max_size=8,
    ), label="draws")
    rng = ScriptedRandom(draws)
    for s, a in _state_actions(data, m):
        step = sample_step(m, s, a, rng)
        assert support_post(m, 1 << s, a, step.obs) >> step.state & 1


@given(m=small_pomdps(), data=st.data())
def test_post_subset_of_successors_and_monotone(m, data):
    v = data.draw(support_of(m), label="v")
    sub = data.draw(st.sets(st.sampled_from(states_from_mask(v)), min_size=1))
    u = mask_from_states(sub)
    a = data.draw(st.integers(min_value=0, max_value=m.n_actions - 1))
    o = data.draw(st.integers(min_value=0, max_value=m.n_obs - 1))
    pu = support_post(m, u, a, o)
    pv = support_post(m, v, a, o)
    assert pu & ~successors_mask(m, u, a) == 0
    assert pu & ~pv == 0


@given(m=small_pomdps(), data=st.data())
def test_post_all_partitions_successor_set(m, data):
    u = data.draw(support_of(m), label="u")
    a = data.draw(st.integers(min_value=0, max_value=m.n_actions - 1))
    branches = support_post_all(m, u, a)
    union = 0
    for o, mask in branches:
        assert mask != 0
        assert mask == support_post(m, u, a, o)
        union |= mask
    assert union == successors_mask(m, u, a)


# -- construction validation -----------------------------------------------


def _chain_tables(k=2):
    trans = {(s, 0): {min(s + 1, k - 1): 1.0} for s in range(k)}
    obs_fn = {(s, 0): {0: 1.0} for s in range(k)}
    return trans, obs_fn


def test_make_rejects_bad_row_sum():
    trans, obs_fn = _chain_tables()
    trans[0, 0] = {1: 0.9}
    with pytest.raises(ProbabilitySumError):
        make_pomdp(
            states=2, actions=1, observations=1, transitions=trans,
            obs_fn=obs_fn, rewards={}, init={0: 1.0}, reach=[1], avoid=[],
        )


def test_make_rejects_dangling_successor():
    trans, obs_fn = _chain_tables()
    trans[0, 0] = {5: 1.0}
    with pytest.raises(DanglingIdError):
        make_pomdp(
            states=2, actions=1, observations=1, transitions=trans,
            obs_fn=obs_fn, rewards={}, init={0: 1.0}, reach=[1], avoid=[],
        )


def test_make_rejects_missing_row():
    trans, obs_fn = _chain_tables()
    del trans[1, 0]
    with pytest.raises(DanglingIdError):
        make_pomdp(
            states=2, actions=1, observations=1, transitions=trans,
            obs_fn=obs_fn, rewards={}, init={0: 1.0}, reach=[1], avoid=[],
        )


def test_make_rejects_reach_avoid_overlap():
    trans, obs_fn = _chain_tables()
    with pytest.raises(SpecConflictError):
        make_pomdp(
            states=2, actions=1, observations=1, transitions=trans,
            obs_fn=obs_fn, rewards={}, init={0: 1.0}, reach=[1], avoid=[1],
        )


def test_make_rejects_nonabsorbing_reach():
    trans, obs_fn = _chain_tables(3)
    with pytest.raises(NonAbsorbingReachError):
        make_pomdp(
            states=3, actions=1, observations=1, transitions=trans,
            obs_fn=obs_fn, rewards={}, init={0: 1.0}, reach=[1], avoid=[],
        )


def test_make_rewrites_nonabsorbing_reach_on_request():
    trans, obs_fn = _chain_tables(3)
    with pytest.warns(UserWarning, match="not absorbing"):
        m = make_pomdp(
            states=3, actions=1, observations=1, transitions=trans,
            obs_fn=obs_fn, rewards={}, init={0: 1.0}, reach=[1], avoid=[],
            on_nonabsorbing_reach="rewrite",
        )
    assert m.transitions[1] == ((1,), (1.0,))
    assert m.is_absorbing(1)


def test_make_rejects_initial_support_in_avoid():
    trans, obs_fn = _chain_tables()
    with pytest.raises(SpecConflictError):
        make_pomdp(
            states=2, actions=1, observations=1, transitions=trans,
            obs_fn=obs_fn, rewards={}, init={0: 1.0}, reach=[], avoid=[0],
        )


def test_make_rejects_bad_initial_sum():
    trans, obs_fn = _chain_tables()
    with pytest.raises(ProbabilitySumError):
        make_pomdp(
            states=2, actions=1, observations=1, transitions=trans,
            obs_fn=obs_fn, rewards={}, init={0: 0.5}, reach=[1], avoid=[],
        )


def test_make_rejects_partition_length_mismatch():
    trans, obs_fn = _chain_tables()
    with pytest.raises(ModelError):
        make_pomdp(
            states=2, actions=1, observations=1, transitions=trans,
            obs_fn=obs_fn, rewards={}, init={0: 1.0}, reach=[1], avoid=[],
            partition=("a",),
        )


def test_reach_states_absorbing_in_generated_world(obstacle6):
    for s in states_from_mask(obstacle6.reach_mask):
        assert obstacle6.is_absorbing(s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        obstacle6.absorbing_mean_rewards  # no warnings from cached scans


# -- masks and names -------------------------------------------------------


def test_mask_round_trip():
    xs = (0, 3, 17, 40)
    assert states_from_mask(mask_from_states(xs)) == xs
    assert mask_from_states(states_from_mask(0b1011)) == 0b1011


def test_name_round_trip(obstacle6):
    u = obstacle6.support_from_names("g11 g26 g66")
    assert obstacle6.names_from_mask(u) == ("g11", "g26", "g66")
    assert obstacle6.support_from_names(obstacle6.names_from_mask(u)) == u


def test_reward_span_matches_tables(obstacle6):
    assert obstacle6.reward_span == max(obstacle6.rewards) - min(obstacle6.rewards)
    assert obstacle6.reward_span > 0
