"""Shield modes, context validation, prior pruning and backtracking verdicts."""

import itertools

import pytest
from hypothesis import given, strategies as st

from safepomcp import (
    InternalShieldError,
    Node,
    ShieldContext,
    ShieldMode,
    ShieldStats,
    make_pomdp,
    prior_prune,
    states_from_mask,
)
from safepomcp.model import support_post_all
from safepomcp.modelio import model_hash
from safepomcp.pomcp import ActionEdge
from safepomcp.winning import Spec, WinningRegion

from oracles import backtrack_check


def _ctx(m, region):
    return ShieldContext(ShieldMode.CENTRALIZED_PRIOR, m, region)


def _root(m, names):
    support = m.support_from_names(names)
    particles = sorted(states_from_mask(support))
    return Node(particles, support, support)


def _child_node(mask):
    """Node whose (0, 0) child carries the given particle mask."""
    node = Node()
    if mask:
        node.edges = [ActionEdge()]
        node.edges[0].children[0] = Node(
            particles=sorted(states_from_mask(mask)), mask=mask
        )
    return node


# -- modes -----------------------------------------------------------------


def test_mode_names_round_trip():
    for mode in ShieldMode:
        assert ShieldMode.from_name(mode.value) is mode


def test_mode_unknown_name():
    with pytest.raises(ValueError, match="factored-backtrack"):
        ShieldMode.from_name("bogus")


@pytest.mark.parametrize(
    "name, shielded, factored, prior, otf",
    [
        ("none", False, False, False, False),
        ("prior", True, False, True, False),
        ("backtrack", True, False, False, True),
        ("factored-prior", True, True, True, False),
        ("factored-backtrack", True, True, False, True),
    ],
)
def test_mode_properties(name, shielded, factored, prior, otf):
    mode = ShieldMode.from_name(name)
    assert mode.shielded is shielded
    assert mode.factored is factored
    assert mode.prior is prior
    assert mode.on_the_fly is otf


# -- context validation ----------------------------------------------------


def test_context_rejects_no_shield(obstacle6, obstacle6_region):
    with pytest.raises(ValueError):
        ShieldContext(ShieldMode.NO_SHIELD, obstacle6, obstacle6_region)


def test_context_rejects_region_kind_mismatch(obstacle6, obstacle6_region, obstacle6_factored):
    with pytest.raises(InternalShieldError, match="FactoredRegion"):
        ShieldContext(ShieldMode.CENTRALIZED_PRIOR, obstacle6, obstacle6_factored)
    with pytest.raises(InternalShieldError, match="WinningRegion"):
        ShieldContext(ShieldMode.FACTORED_PRIOR, obstacle6, obstacle6_region)


def test_context_rejects_wrong_model(obstacle6, gap6_region):
    with pytest.raises(InternalShieldError, match="different model"):
        _ctx(obstacle6, gap6_region)


def test_context_backtracking_flag(obstacle6, obstacle6_region, obstacle6_factored):
    assert not _ctx(obstacle6, obstacle6_region).backtracking
    otf = ShieldContext(ShieldMode.CENTRALIZED_ON_THE_FLY, obstacle6, obstacle6_region)
    assert otf.backtracking
    fac = ShieldContext(ShieldMode.FACTORED_ON_THE_FLY, obstacle6, obstacle6_factored)
    assert fac.backtracking


def test_context_contains_delegates(obstacle6, obstacle6_region, obstacle6_factored):
    u = obstacle6.support_from_names("g12 g13")
    cen = _ctx(obstacle6, obstacle6_region)
    assert cen.contains(u) == obstacle6_region.contains(u)
    assert cen.queries == 1
    fac = ShieldContext(ShieldMode.FACTORED_PRIOR, obstacle6, obstacle6_factored)
    assert fac.contains(u)
    assert fac.queries == 1


def test_union_context_misses_straddling_support(gap6, gap6_region, gap6_factored):
    # centralized says the room-edge support is safe; the per-room union
    # lacks the cross-room element and must conservatively reject it
    u = gap6.support_from_names("g14")
    cen = ShieldContext(ShieldMode.CENTRALIZED_ON_THE_FLY, gap6, gap6_region)
    fac = ShieldContext(ShieldMode.FACTORED_ON_THE_FLY, gap6, gap6_factored)
    assert cen.contains(u)
    assert not fac.contains(u)


# -- prior pruning ---------------------------------------------------------


def test_prior_prune_blocks_obstacle_approach(obstacle6, obstacle6_region):
    ctx = _ctx(obstacle6, obstacle6_region)
    root = _root(obstacle6, "g12 g13")
    pruned = prior_prune(ctx, root)
    assert pruned == {obstacle6.action_id["east"]}
    assert root.shielded == 1 << obstacle6.action_id["east"]


def test_prior_prune_matches_allowed_complement(obstacle6, obstacle6_region):
    from safepomcp.winning import allowed_actions

    ctx = _ctx(obstacle6, obstacle6_region)
    root = _root(obstacle6, "g11")
    pruned = prior_prune(ctx, root)
    allowed = set(allowed_actions(obstacle6_region, obstacle6, root.support))
    assert pruned == set(range(obstacle6.n_actions)) - allowed
    assert pruned == {obstacle6.action_id["south"]}


def test_prior_prune_absorbing_goal_keeps_all(obstacle6, obstacle6_region):
    ctx = _ctx(obstacle6, obstacle6_region)
    root = _root(obstacle6, "g66")
    assert prior_prune(ctx, root) == set()
    assert root.shielded == 0


def test_prior_prune_requires_support(obstacle6, obstacle6_region):
    ctx = _ctx(obstacle6, obstacle6_region)
    with pytest.raises(InternalShieldError, match="no exact support"):
        prior_prune(ctx, Node(particles=[0], mask=1))


def test_prior_prune_rejects_losing_root(obstacle6, obstacle6_region):
    ctx = _ctx(obstacle6, obstacle6_region)
    with pytest.raises(InternalShieldError, match="outside the region"):
        prior_prune(ctx, _root(obstacle6, "g13 g14 g15"))


def test_prior_prune_detects_unproductive_region():
    # a hand-built region claiming the doomed state wins: every action
    # gets pruned, which step closure says cannot happen for a real region
    m = make_pomdp(
        states=2, actions=1, observations=1,
        transitions={(0, 0): {1: 1.0}, (1, 0): {1: 1.0}},
        obs_fn={(s, 0): {0: 1.0} for s in range(2)},
        rewards={(s, 0): 0.0 for s in range(2)},
        init={0: 1.0}, reach=[], avoid=[1],
    )
    fake = WinningRegion((1 << 0,), Spec(0, 1 << 1), model_hash(m))
    ctx = _ctx(m, fake)
    root = Node([0], 1 << 0, 1 << 0)
    with pytest.raises(InternalShieldError, match="step closure"):
        prior_prune(ctx, root)


def test_prior_prune_counters(obstacle6, obstacle6_region):
    ctx = _ctx(obstacle6, obstacle6_region)
    root = _root(obstacle6, "g12 g13")
    prior_prune(ctx, root)
    expected_queries = 1  # the root membership gate
    for a in range(obstacle6.n_actions):
        for _o, mask in support_post_all(obstacle6, root.support, a):
            expected_queries += 1
            if not obstacle6_region.contains(mask):
                break
    assert ctx.root_pruned == 1
    assert ctx.sim_pruned == 0
    assert ctx.queries == expected_queries
    ctx.sim_pruned += 2
    assert ctx.stats() == ShieldStats(1, 2, expected_queries)


def test_root_action_allowed_matches_branches(obstacle6, obstacle6_region):
    ctx = _ctx(obstacle6, obstacle6_region)
    u = obstacle6.support_from_names("g12 g13")
    assert not ctx.root_action_allowed(u, obstacle6.action_id["east"])
    assert ctx.root_action_allowed(u, obstacle6.action_id["north"])
    assert ctx.root_action_allowed(u, obstacle6.action_id["west"])


# -- backtracking ----------------------------------------------------------


def test_backtrack_prunes_obstacle_particle(obstacle6, obstacle6_region):
    ctx = _ctx(obstacle6, obstacle6_region)
    node = _child_node(obstacle6.support_from_names("g14"))
    assert not backtrack_check(ctx, node, 0, 0, obstacle6.state_id["g15"])


def test_backtrack_repeat_state_is_free(obstacle6, obstacle6_region):
    ctx = _ctx(obstacle6, obstacle6_region)
    g12 = obstacle6.state_id["g12"]
    node = _child_node(1 << g12)
    assert backtrack_check(ctx, node, 0, 0, g12)
    assert ctx.queries == 0  # no membership query for a repeat state


def test_backtrack_first_particle_of_new_child(obstacle6, obstacle6_region):
    ctx = _ctx(obstacle6, obstacle6_region)
    node = Node()  # no edges yet: child mask is empty
    assert backtrack_check(ctx, node, 0, 0, obstacle6.state_id["g12"])
    assert not backtrack_check(ctx, node, 0, 0, obstacle6.state_id["g15"])
    assert ctx.queries == 2


def test_backtrack_verdicts_match_oracle(tiny3, tiny3_region, tiny3_oracle):
    ctx = ShieldContext(ShieldMode.CENTRALIZED_ON_THE_FLY, tiny3, tiny3_region)
    safe = [s for s in range(tiny3.n_states) if not (1 << s) & tiny3.avoid_mask]
    for k in range(3):
        for base in itertools.combinations(safe, k):
            mask = sum(1 << s for s in base)
            node = _child_node(mask)
            for s_new in range(tiny3.n_states):
                verdict = backtrack_check(ctx, node, 0, 0, s_new)
                grown = frozenset(states_from_mask(mask | (1 << s_new)))
                assert verdict == (s_new in base or grown in tiny3_oracle)


@given(st.data())
def test_contains_downward_closed(obstacle6, obstacle6_region, data):
    ctx = _ctx(obstacle6, obstacle6_region)
    u = data.draw(st.sampled_from(obstacle6_region.elements))
    bits = list(states_from_mask(u))
    keep = data.draw(st.lists(st.sampled_from(bits), min_size=1, unique=True))
    sub = sum(1 << s for s in keep)
    assert ctx.contains(u)
    assert ctx.contains(sub)
