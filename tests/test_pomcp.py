"""Tree search: UCB selection, planning, bookkeeping and root advancement."""

import math
from random import Random
from statistics import fmean, stdev

import pytest
from hypothesis import given, strategies as st

from safepomcp import (
    BeliefCollapseError,
    DeadNodeError,
    GridSpec,
    ImpossibleObservationError,
    Node,
    PlannerConfig,
    PlannerConfig as Cfg,
    ShieldContext,
    ShieldMode,
    advance_root,
    compute_winning_region,
    gen_obstacle,
    gen_refuel,
    make_pomdp,
    make_root,
    plan_step,
    states_from_mask,
    support_post,
    ucb_select,
)
from safepomcp.model import BLOCK_STEPS, _uniform_blocks
from safepomcp.pomcp import ActionEdge, _Search

from oracles import horizon_q, step_rollout, uniform_paths, uniform_values
from strategies import small_pomdps, with_negligible_entries

DESK = Cfg(simulations=2_000, depth=100, particles=1_000)


def _node(stats, n=None):
    """History node with given per-action (n, v) pairs."""
    node = Node()
    node.edges = []
    total = 0
    for en, ev in stats:
        edge = ActionEdge()
        edge.n = en
        edge.v = ev
        total += en
        node.edges.append(edge)
    node.n = total if n is None else n
    return node


def _chain(rewards, gamma_absorbing_reward=0.0):
    """Single-action chain ending in an absorbing reach state."""
    k = len(rewards) + 1
    trans = {(s, 0): {min(s + 1, k - 1): 1.0} for s in range(k)}
    obs_fn = {(s, 0): {0: 1.0} for s in range(k)}
    rtable = {(s, 0): r for s, r in enumerate(rewards)}
    rtable[k - 1, 0] = gamma_absorbing_reward
    return make_pomdp(
        states=k, actions=1, observations=1, transitions=trans,
        obs_fn=obs_fn, rewards=rtable, init={0: 1.0}, reach=[k - 1], avoid=[],
    )


# -- configuration ---------------------------------------------------------


def test_config_defaults_match_full_profile():
    cfg = PlannerConfig()
    assert cfg.simulations == 40_000
    assert cfg.depth == 200
    assert cfg.particles == 10_000
    assert cfg.ucb_c is None  # falls back to the model's reward span
    assert cfg.discount == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"simulations": 0},
        {"depth": 0},
        {"particles": -1},
        {"discount": 0.0},
        {"discount": 1.5},
        {"ucb_c": -2.0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        PlannerConfig(**kwargs)


# -- ucb_select ------------------------------------------------------------


def test_ucb_prefers_unvisited():
    node = _node([(4, 10.0), (0, 0.0)])
    assert ucb_select(node, 2.0) == 1


def test_ucb_all_unvisited_takes_lowest_id():
    node = _node([(0, 0.0), (0, 0.0), (0, 0.0)])
    assert ucb_select(node, 2.0) == 0


def test_ucb_zero_c_is_greedy():
    node = _node([(4, 10.0), (4, 9.0)], n=8)
    assert ucb_select(node, 0.0) == 0


def test_ucb_exploration_bonus_formula():
    node = _node([(6, 10.0), (2, 9.0)], n=8)
    first = 10.0 + 2.0 * math.sqrt(math.log(8) / 6)
    second = 9.0 + 2.0 * math.sqrt(math.log(8) / 2)
    assert first == pytest.approx(11.177, abs=1e-3)
    assert second == pytest.approx(11.039, abs=1e-3)
    assert first > second
    assert ucb_select(node, 2.0) == 0
    # a larger bonus flips the choice to the rarely-tried action
    assert ucb_select(node, 8.0) == 1


def test_ucb_tie_breaks_lowest_id():
    node = _node([(4, 5.0), (4, 5.0)], n=8)
    assert ucb_select(node, 1.0) == 0


def test_ucb_skips_shielded_actions():
    node = _node([(4, 10.0), (4, 9.0)], n=8)
    node.shielded = 0b01
    assert ucb_select(node, 0.0) == 1


def test_ucb_dead_node():
    node = _node([(1, 0.0)])
    node.shielded = 0b1
    with pytest.raises(DeadNodeError):
        ucb_select(node, 1.0)


def test_ucb_requires_expansion():
    with pytest.raises(ValueError):
        ucb_select(Node(), 1.0)


# -- block-sampled rollouts ------------------------------------------------


def _table_paths(table) -> dict:
    """A block table merged like ``uniform_paths``: (end, n, value) -> p."""
    cums, outs = table
    out: dict = {}
    lo = 0.0
    for c, (end, v, f, n) in zip(cums, outs):
        key = (end, n, round(v, 9))
        out[key] = out.get(key, 0.0) + (c - lo)
        lo = c
    return out


def _assert_same_paths(got: dict, want: dict):
    assert set(got) == set(want)
    for key, p in want.items():
        assert got[key] == pytest.approx(p, rel=1e-9, abs=1e-12)


@given(
    m=small_pomdps(),
    discount=st.sampled_from([1.0, 0.5]),
    tiny=st.lists(st.integers(min_value=0, max_value=17), max_size=4),
)
def test_block_tables_match_path_enumeration(m, discount, tiny):
    m = with_negligible_entries(m, tiny)
    tables = _uniform_blocks(m, discount)
    assert len(tables) == BLOCK_STEPS + 1
    for k in range(1, BLOCK_STEPS + 1):
        for s in range(m.n_states):
            table = tables[k][s]
            if m.absorbing_mean_rewards[s] is not None:
                assert table is None
                continue
            cums, outs = table
            assert cums[-1] == 1.0
            assert all(f == discount ** n for _, _, f, n in outs)
            _assert_same_paths(_table_paths(table), uniform_paths(m, s, k, discount))


def test_block_tables_stop_at_absorbing_and_drop_negligible_entries():
    # s0 -> s1 or the absorbing s2; s1 -> s0; a 1e-15 entry s0 -> s3 is
    # dropped, so s3 (an avoid state) is never an outcome
    m = make_pomdp(
        states=4, actions=2, observations=1,
        transitions={
            (0, 0): {1: 0.5, 2: 0.5 - 1e-15, 3: 1e-15}, (0, 1): {1: 1.0},
            (1, 0): {0: 1.0}, (1, 1): {0: 0.75, 2: 0.25},
            (2, 0): {2: 1.0}, (2, 1): {2: 1.0},
            (3, 0): {3: 1.0}, (3, 1): {0: 1.0},
        },
        obs_fn={(s, a): {0: 1.0} for s in range(4) for a in range(2)},
        rewards={(0, 0): 1.0, (0, 1): 2.0, (1, 0): -1.0, (1, 1): 0.5,
                 (2, 0): 3.0, (2, 1): 1.0},
        init={0: 1.0}, reach=[], avoid=[3],
    )
    tables = _uniform_blocks(m, 0.5)
    got = _table_paths(tables[3][0])
    assert {end for end, _, _ in got} == {1, 2}
    assert {n for end, n, _ in got if end == 2} == {1, 2, 3}  # stopped on entry
    assert got[2, 1, 1.0] == pytest.approx(0.25)
    _assert_same_paths(got, uniform_paths(m, 0, 3, 0.5))


def _block_value(m, tables, discount, s, depth, memo):
    """Exact expected return of the block-sampled rollout, read off its
    tables the way ``_Search.rollout`` walks them."""
    key = (s, depth)
    if key not in memo:
        mean = m.absorbing_mean_rewards[s]
        if mean is not None:
            if discount == 1.0:
                memo[key] = mean * depth
            else:
                memo[key] = mean * (1.0 - discount ** depth) / (1.0 - discount)
        elif depth == 0:
            memo[key] = 0.0
        else:
            cums, outs = tables[min(depth, len(tables) - 1)][s]
            total = 0.0
            lo = 0.0
            for c, (end, v, f, n) in zip(cums, outs):
                total += (c - lo) * (
                    v + f * _block_value(m, tables, discount, end, depth - n, memo)
                )
                lo = c
            memo[key] = total
    return memo[key]


@pytest.mark.parametrize("max_entries", [None, 6])
@pytest.mark.parametrize("discount", [1.0, 0.95])
@pytest.mark.parametrize("world", ["obstacle6", "refuel6"])
def test_block_rollout_expectation_is_exact(world, discount, max_entries,
                                             obstacle6):
    m = obstacle6 if world == "obstacle6" else gen_refuel(GridSpec(n=6))
    if max_entries is None:
        tables = m._rollout_blocks(discount)
    else:
        # every state falls back to shorter blocks somewhere
        tables = _uniform_blocks(m, discount, max_entries=max_entries)
        assert any(
            t is not None and all(n < BLOCK_STEPS for *_, n in t[1])
            for t in tables[BLOCK_STEPS]
        )
    memo: dict = {}
    for d in range(13):
        want = uniform_values(m, d, discount)
        for s in range(m.n_states):
            got = _block_value(m, tables, discount, s, d, memo)
            assert got == pytest.approx(want[s], rel=1e-10, abs=1e-10)


@pytest.mark.parametrize(
    "world, state, shielded, depth",
    [
        ("obstacle6", "g11", 0, 30),
        ("obstacle6", "g24", 0, 7),  # a one-move remainder block
        ("obstacle6", "g13", 0b0010, 20),
        # paths absorbed mid-block, where the rewarding tail is closed
        ("bandit", "start", 0, 7),
    ],
)
def test_block_rollout_agrees_with_step_rollout(request, world, state, shielded,
                                                depth):
    m = request.getfixturevalue(world)
    s = m.state_id[state]
    cfg = Cfg(discount=0.95)
    search = _Search(m, cfg, None, Random(11), Node())
    blocks = [search.rollout(s, depth, shielded) for _ in range(20_000)]
    rng = Random(12)
    steps = [step_rollout(m, s, depth, 0.95, rng, shielded) for _ in range(20_000)]
    se = math.hypot(stdev(blocks), stdev(steps)) / math.sqrt(20_000)
    assert abs(fmean(blocks) - fmean(steps)) < 4 * se
    if not shielded:
        exact = uniform_values(m, depth, 0.95)[s]
        assert abs(fmean(blocks) - exact) < 4 * stdev(blocks) / math.sqrt(20_000)


# -- plan_step -------------------------------------------------------------


def test_planner_finds_better_arm(bandit):
    cfg = Cfg(simulations=60, depth=3, particles=64, ucb_c=1.0)
    wins = 0
    for seed in range(100):
        c = Cfg(simulations=60, depth=3, particles=64, ucb_c=1.0, seed=seed)
        root = make_root(bandit, c)
        if plan_step(bandit, root, c) == bandit.action_id["a"]:
            wins += 1
    assert wins >= 95


def test_planner_visit_bookkeeping(bandit):
    cfg = Cfg(simulations=500, depth=5, particles=128, seed=7)
    root = make_root(bandit, cfg)
    plan_step(bandit, root, cfg)
    assert root.n == cfg.simulations
    # the first simulation expands the root itself and returns a rollout
    assert sum(e.n for e in root.edges if e is not None) == cfg.simulations - 1


def test_planner_indifferent_when_rewards_equal():
    m = make_pomdp(
        states=2, actions=3, observations=1,
        transitions={(s, a): {1: 1.0} for s in range(2) for a in range(3)},
        obs_fn={(s, a): {0: 1.0} for s in range(2) for a in range(3)},
        rewards={(0, a): 4.0 for a in range(3)},
        init={0: 1.0}, reach=[1], avoid=[],
    )
    cfg = Cfg(simulations=300, depth=4, particles=32, seed=1)
    root = make_root(m, cfg)
    a = plan_step(m, root, cfg)
    assert 0 <= a < 3
    assert root.n == cfg.simulations


def test_planner_first_move_matches_value_iteration(obstacle6):
    q = horizon_q(obstacle6, obstacle6.state_id["g11"], 100)
    order = sorted(range(4), key=lambda a: -q[a])
    assert obstacle6.action_names[order[0]] == "east"
    counts = [0, 0, 0, 0]
    for seed in range(60):
        cfg = Cfg(simulations=2_000, depth=100, particles=1_000, seed=seed)
        root = make_root(obstacle6, cfg)
        counts[plan_step(obstacle6, root, cfg)] += 1
    assert counts[obstacle6.action_id["east"]] == max(counts)


def test_planner_exact_values_on_deterministic_chain():
    m = _chain([5.0, 3.0])
    cfg = Cfg(simulations=400, depth=10, particles=16, seed=3)
    root = make_root(m, cfg)
    plan_step(m, root, cfg)
    edge = root.edges[0]
    assert edge.v == pytest.approx(8.0, abs=1e-9)
    assert root.v == pytest.approx(8.0, abs=1e-9)
    assert root.n == cfg.simulations
    assert edge.n == cfg.simulations - 1


def test_planner_discount_applies_to_chain():
    m = _chain([5.0, 3.0])
    cfg = Cfg(simulations=200, depth=10, particles=16, discount=0.5, seed=3)
    root = make_root(m, cfg)
    plan_step(m, root, cfg)
    assert root.edges[0].v == pytest.approx(5.0 + 0.5 * 3.0, abs=1e-9)


def test_planner_deterministic(obstacle6):
    def run(seed):
        cfg = Cfg(simulations=400, depth=40, particles=200, seed=seed)
        root = make_root(obstacle6, cfg)
        a = plan_step(obstacle6, root, cfg)
        stats = tuple(
            (e.n, round(e.v, 9)) if e is not None else None for e in root.edges
        )
        return a, stats

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_planner_particles_subset_of_exact_posts(obstacle6):
    cfg = Cfg(simulations=600, depth=30, particles=300, seed=2)
    root = make_root(obstacle6, cfg)
    plan_step(obstacle6, root, cfg)

    def walk(node, exact):
        assert node.mask & ~exact == 0
        if node.edges is None:
            return
        for a, edge in enumerate(node.edges):
            if edge is None:
                continue
            for o, child in edge.children.items():
                child_exact = support_post(obstacle6, exact, a, o)
                assert child.mask & ~child_exact == 0
                walk(child, child_exact)

    walk(root, root.support)


def test_planner_hook_free_shield_is_invisible():
    m = gen_obstacle(GridSpec(obstacles=()))  # nothing to prune, ever
    region = compute_winning_region(m)
    ctx = ShieldContext(ShieldMode.CENTRALIZED_ON_THE_FLY, m, region)

    def run(shield):
        cfg = Cfg(simulations=400, depth=40, particles=200, seed=9)
        root = make_root(m, cfg)
        a = plan_step(m, root, cfg, shield=shield)
        stats = tuple(
            (e.n, e.v) if e is not None else None for e in root.edges
        )
        return a, stats, root.n, sorted(root.particles)

    assert run(None) == run(ctx)


def test_planner_requires_particles(obstacle6):
    with pytest.raises(ValueError):
        plan_step(obstacle6, Node(), DESK)


# -- advance_root ----------------------------------------------------------


def test_advance_dirac_chain():
    m = _chain([1.0, 1.0])
    cfg = Cfg(simulations=50, depth=5, particles=40, seed=0)
    root = make_root(m, cfg)
    plan_step(m, root, cfg)
    child = advance_root(m, root, 0, 0, cfg)
    assert child.support == 1 << 1
    assert set(child.particles) == {1}
    assert len(child.particles) == cfg.particles


def test_advance_tracks_exact_support(obstacle6):
    cfg = Cfg(simulations=50, depth=10, particles=60, seed=4)
    root = make_root(obstacle6, cfg)
    plan_step(obstacle6, root, cfg)
    a = obstacle6.action_id["east"]
    o = obstacle6.obs_id["g13"]
    child = advance_root(obstacle6, root, a, o, cfg)
    assert child.support == support_post(obstacle6, root.support, a, o)
    assert child.mask & ~child.support == 0
    assert len(child.particles) == cfg.particles


def test_advance_truncates_oversized_child(obstacle6):
    cfg = Cfg(simulations=10, depth=5, particles=8, seed=0)
    a = obstacle6.action_id["east"]
    o = obstacle6.obs_id["g12"]
    s12 = obstacle6.state_id["g12"]
    root = make_root(obstacle6, cfg)
    root.edges = [None] * obstacle6.n_actions
    root.edges[a] = ActionEdge()
    big = Node(particles=[s12] * 20, mask=1 << s12)
    root.edges[a].children[o] = big
    child = advance_root(obstacle6, root, a, o, cfg)
    assert child is big
    assert len(child.particles) == cfg.particles
    assert set(child.particles) == {s12}


def test_advance_impossible_observation(obstacle6):
    cfg = Cfg(simulations=10, depth=5, particles=8, seed=0)
    root = make_root(obstacle6, cfg)
    with pytest.raises(ImpossibleObservationError):
        advance_root(obstacle6, root, obstacle6.action_id["east"], obstacle6.obs_id["done"], cfg)


def test_advance_belief_collapse(obstacle6):
    # exact support says g34 is observable (thanks to the g33 component),
    # but every particle sits at g11, so rejection sampling starves
    cfg = Cfg(simulations=10, depth=5, particles=50, seed=0)
    g11 = obstacle6.state_id["g11"]
    support = obstacle6.support_from_names("g11 g33")
    root = Node(particles=[g11] * 50, mask=1 << g11, support=support)
    with pytest.raises(BeliefCollapseError):
        advance_root(obstacle6, root, obstacle6.action_id["east"], obstacle6.obs_id["g34"], cfg)


def test_advance_requires_support(obstacle6):
    cfg = Cfg(simulations=10, depth=5, particles=8, seed=0)
    with pytest.raises(ValueError):
        advance_root(obstacle6, Node(particles=[0], mask=1), 0, 0, cfg)


def test_make_root_draws_initial_particles(obstacle6):
    cfg = Cfg(simulations=10, depth=5, particles=17, seed=0)
    root = make_root(obstacle6, cfg)
    assert len(root.particles) == 17
    assert root.support == obstacle6.init_support
    assert root.mask == obstacle6.init_support  # Dirac initial belief
