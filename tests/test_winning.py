"""Support-graph closure, winning-region fixpoint and region queries."""

import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from safepomcp import (
    GraphCapExceeded,
    RegionFileError,
    RegionMisuseError,
    RegionTimeout,
    Spec,
    WinningRegion,
    WitnessError,
    allowed_actions,
    antichain,
    build_support_graph,
    compute_winning_region,
    gen_obstacle,
    GridSpec,
    make_pomdp,
    mask_from_states,
    model_hash,
    parse_region,
    powerset_supports,
    productivity_witness,
    serialize_region,
    states_from_mask,
    support_post,
    support_post_all,
    winning,
    winning_masks,
)

from oracles import (
    brute_force_winning,
    pairwise_antichain,
    round_winning_masks,
    scan_contains,
)


def _mask_to_set(mask):
    return frozenset(states_from_mask(mask))


# -- support graph ---------------------------------------------------------


def test_graph_single_absorbing_seed(obstacle6):
    sink = 1 << obstacle6.state_id["done"]
    g = build_support_graph(obstacle6, [sink])
    assert g.vertices == (sink,)
    for a in range(obstacle6.n_actions):
        assert g.edges[0][a] == ((obstacle6.obs_id["done"], sink),)


def test_graph_contains_known_closure_vertices(obstacle6):
    g = build_support_graph(obstacle6, [obstacle6.init_support])
    verts = set(g.vertices)
    assert obstacle6.support_from_names("g12 g13") in verts
    assert obstacle6.support_from_names("g13 g14 g15") in verts


def test_graph_closed_seeds_fixed_point(obstacle6):
    sink = 1 << obstacle6.state_id["done"]
    goal = 1 << obstacle6.state_id["g66"]
    g = build_support_graph(obstacle6, [sink, goal])
    assert set(g.vertices) == {sink, goal}


def test_graph_is_closed_and_reachable(obstacle6):
    g = build_support_graph(obstacle6, [obstacle6.init_support])
    index = g.index
    seen = set(g.seeds)
    frontier = list(g.seeds)
    while frontier:
        u = frontier.pop()
        for a in range(obstacle6.n_actions):
            for o, v in g.edges[index[u]][a]:
                assert v in index  # closure
                assert v == support_post(obstacle6, u, a, o)
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
    assert seen == set(g.vertices)  # reachability from seeds


def test_graph_deterministic(obstacle6):
    a = build_support_graph(obstacle6, [obstacle6.init_support])
    b = build_support_graph(obstacle6, [obstacle6.init_support])
    assert a.vertices == b.vertices
    assert a.edges == b.edges


def test_graph_vertex_cap(obstacle6):
    with pytest.raises(GraphCapExceeded, match="exceeded 3 vertices"):
        build_support_graph(obstacle6, [obstacle6.init_support], max_vertices=3)


def test_graph_rejects_empty_seeds(obstacle6):
    with pytest.raises(ValueError):
        build_support_graph(obstacle6, [])
    with pytest.raises(ValueError):
        build_support_graph(obstacle6, [0])


def _assert_graph_layout(m, g):
    """The id arrays describe exactly the branches of support_post_all."""
    n, na = len(g.vertices), m.n_actions
    assert g.n_actions == na
    assert len(g.slot_start) == n * na + 1 and g.slot_start[0] == 0
    assert len(g.succ) == len(g.obs) == g.slot_start[-1]
    # every slot is non-empty, so slot offsets strictly increase
    assert all(x < y for x, y in zip(g.slot_start, g.slot_start[1:]))
    assert len(g.pred_start) == n + 1 and g.pred_start[0] == 0
    assert all(x <= y for x, y in zip(g.pred_start, g.pred_start[1:]))
    assert g.pred_start[-1] == len(g.pred_slots)
    into = sorted(
        (g.succ[b], k)
        for k in range(n * na)
        for b in range(g.slot_start[k], g.slot_start[k + 1])
    )
    listed = sorted(
        (v, k)
        for v in range(n)
        for k in g.pred_slots[g.pred_start[v]:g.pred_start[v + 1]]
    )
    assert into == listed
    assert len(g.edges) == n
    for vi, u in enumerate(g.vertices):
        for a in range(na):
            assert g.edges[vi][a] == tuple(support_post_all(m, u, a))


def test_graph_layout_invariants(obstacle6):
    _assert_graph_layout(
        obstacle6, build_support_graph(obstacle6, [obstacle6.init_support])
    )


@given(data=st.data())
def test_graph_layout_invariants_on_random_models(data):
    from strategies import small_pomdps

    m = data.draw(small_pomdps())
    _assert_graph_layout(
        m, build_support_graph(m, powerset_supports(range(m.n_states)))
    )


def test_graph_out_of_memory_is_typed(obstacle6, monkeypatch):
    seen = {obstacle6.init_support}
    calls = []

    def exhausted_after_40(m, u, a):
        if len(calls) == 40:
            raise MemoryError
        calls.append(a)
        out = support_post_all(m, u, a)
        seen.update(v for _, v in out)
        return out

    monkeypatch.setattr(winning, "support_post_all", exhausted_after_40)
    with pytest.raises(GraphCapExceeded) as err:
        build_support_graph(obstacle6, [obstacle6.init_support])
    assert str(err.value) == (
        f"support graph ran out of memory at {len(seen)} vertices"
    )


@pytest.mark.parametrize("world", ["obstacle6", "gap6"])
def test_reachable_supports_match_graph_vertices(world, request):
    m = request.getfixturevalue(world)
    reached = winning.reachable_supports(m, [m.init_support])
    assert reached == set(build_support_graph(m, [m.init_support]).vertices)


@given(data=st.data())
def test_reachable_supports_match_graph_vertices_on_random_models(data):
    from strategies import small_pomdps

    m = data.draw(small_pomdps())
    seeds = data.draw(st.sets(
        st.integers(min_value=1, max_value=(1 << m.n_states) - 1),
        min_size=1, max_size=4,
    ))
    assert winning.reachable_supports(m, seeds) == set(
        build_support_graph(m, seeds).vertices
    )


@pytest.mark.parametrize("world", ["obstacle6", "gap6"])
def test_reachable_supports_cap_matches_graph_cap(world, request):
    m = request.getfixturevalue(world)
    n = len(winning.reachable_supports(m, [m.init_support]))
    assert len(winning.reachable_supports(
        m, [m.init_support], max_vertices=n)) == n
    build_support_graph(m, [m.init_support], max_vertices=n)
    message = f"^support graph exceeded {n - 1} vertices$"
    for grow in (winning.reachable_supports, build_support_graph):
        with pytest.raises(GraphCapExceeded, match=message):
            grow(m, [m.init_support], max_vertices=n - 1)


def test_reachable_supports_rejects_empty_seeds(obstacle6):
    with pytest.raises(ValueError):
        winning.reachable_supports(obstacle6, [])
    with pytest.raises(ValueError):
        winning.reachable_supports(obstacle6, [obstacle6.init_support, 0])


def test_reachable_supports_deadline_checked_like_graph(obstacle6, monkeypatch):
    """Both closures check the deadline once per 4,096 expanded vertices."""
    free = [s for s in range(obstacle6.n_states)
            if not obstacle6.avoid_mask >> s & 1]
    seeds = powerset_supports(free[:13])
    expired = time.monotonic() - 1.0
    for grow in (winning.reachable_supports, build_support_graph):
        with pytest.raises(RegionTimeout, match="support graph growth"):
            grow(obstacle6, seeds, deadline=expired)
        grow(obstacle6, [obstacle6.init_support], deadline=expired)

    checks = []
    monkeypatch.setattr(
        winning, "_check_deadline", lambda deadline, what: checks.append(what)
    )
    n = len(winning.reachable_supports(obstacle6, seeds))
    assert checks == ["support graph growth"] * (n // 4096)
    assert n // 4096 >= 2
    checks.clear()
    build_support_graph(obstacle6, seeds)
    assert checks == ["support graph growth"] * (n // 4096)


def test_reachable_supports_out_of_memory_is_typed(obstacle6, monkeypatch):
    seen = {obstacle6.init_support}
    calls = []

    def exhausted_after_40(m, u, a):
        if len(calls) == 40:
            raise MemoryError
        calls.append(a)
        out = support_post_all(m, u, a)
        seen.update(v for _, v in out)
        return out

    monkeypatch.setattr(winning, "support_post_all", exhausted_after_40)
    with pytest.raises(GraphCapExceeded) as err:
        winning.reachable_supports(obstacle6, [obstacle6.init_support])
    assert str(err.value) == (
        f"support graph ran out of memory at {len(seen)} vertices"
    )
    assert len(calls) == 40


# -- winning region --------------------------------------------------------


def test_region_trivial_when_seeds_are_goals(bandit):
    good, bad = 1 << 1, 1 << 2
    w = compute_winning_region(
        bandit, Spec.of(bandit, reach=[1, 2], avoid=[]), seeds=[good, bad]
    )
    assert w.contains(good)
    assert w.contains(bad)


def test_region_deterministic(obstacle6, obstacle6_region):
    again = compute_winning_region(obstacle6)
    assert again.elements == obstacle6_region.elements
    assert serialize_region(again, obstacle6) == serialize_region(obstacle6_region, obstacle6)


def test_gap_world_retreat_support_is_winning(gap6, gap6_region):
    u14 = gap6.support_from_names("g14")
    assert gap6_region.contains(u14)


def test_gap_world_retreat_trajectory_realizable(gap6, gap6_region):
    """The 6-step detour west,east,south,east,south,south can reach the goal
    without the support ever leaving the region."""
    m, w = gap6, gap6_region
    plan = [m.action_id[a] for a in ("west", "east", "south", "east", "south", "south")]

    def dfs(u, k):
        if u & ~m.reach_mask == 0:
            return True
        if k == len(plan):
            return False
        a = plan[k]
        if a not in allowed_actions(w, m, u):
            return False
        return any(dfs(v, k + 1) for _, v in support_post_all(m, u, a))

    assert dfs(m.support_from_names("g14"), 0)


def test_tiny_world_region_matches_brute_force(tiny3, tiny3_region, tiny3_oracle):
    for u in powerset_supports(range(tiny3.n_states)):
        expected = _mask_to_set(u) in tiny3_oracle
        assert tiny3_region.contains(u) == expected, tiny3.names_from_mask(u)


@given(data=st.data())
def test_region_matches_brute_force_on_random_models(data):
    # membership is the downward closure of the fixpoint survivors; the
    # survivor set itself need not be downward closed on adversarial
    # models (a support can keep an exit branch its subsets lack), so the
    # comparison closes the oracle the same way
    from strategies import small_pomdps

    m = data.draw(small_pomdps())
    oracle = brute_force_winning(m)
    masks = [sum(1 << s for s in win) for win in oracle]
    w = compute_winning_region(m, seeds=powerset_supports(range(m.n_states)))
    for e in w.elements:
        assert _mask_to_set(e) in oracle  # antichain elements are survivors
    for u in powerset_supports(range(m.n_states)):
        expected = any(u & ~wm == 0 for wm in masks)
        assert w.contains(u) == expected


@given(data=st.data())
def test_fixpoint_matches_round_reference_on_random_models(data):
    from strategies import small_pomdps

    m = data.draw(small_pomdps())
    g = build_support_graph(m, powerset_supports(range(m.n_states)))
    spec = Spec.of(m)
    assert winning_masks(g, spec) == round_winning_masks(g, spec)


def test_fixpoint_matches_round_reference_on_revised_reach(
    obstacle6, obstacle6_factored
):
    # the reach revisions of factored propagation: room goals plus a
    # growing set of door outlets, which are absorbing inside a room
    checked = 0
    for sub in obstacle6_factored.subs:
        seeds = [1 << sub.from_parent[s] for s in sub.init_states]
        if not seeds:
            continue
        g = build_support_graph(sub.pomdp, seeds)
        avoid = sub.pomdp.avoid_mask
        reach = sub.pomdp.reach_mask
        doors = [sub.from_parent[s] for s in sub.outlets]
        doors = [k for k in doors if not avoid >> k & 1]
        for outlet in [None, *doors]:
            if outlet is not None:
                reach |= 1 << outlet
            spec = Spec(reach, avoid)
            assert winning_masks(g, spec) == round_winning_masks(g, spec)
            checked += 1
    assert checked > len(obstacle6_factored.subs)


def test_region_monotone_in_reach(tiny3):
    seeds = powerset_supports(range(tiny3.n_states))
    base = compute_winning_region(tiny3, seeds=seeds)
    wider_spec = Spec(
        tiny3.reach_mask | 1 << tiny3.state_id["done"], tiny3.avoid_mask
    )
    wider = compute_winning_region(tiny3, wider_spec, seeds=seeds)
    for u in base.elements:
        assert wider.contains(u)


def test_region_timeout(obstacle6):
    with pytest.raises(RegionTimeout):
        compute_winning_region(obstacle6, deadline=time.monotonic() - 1.0)


def test_region_rejects_nonabsorbing_reach_spec(obstacle6):
    spec = Spec.of(obstacle6, reach=[obstacle6.state_id["g12"]], avoid=[])
    with pytest.raises(ValueError, match="absorbing"):
        compute_winning_region(obstacle6, spec)


def test_empty_region_is_valid_result():
    # a one-way corridor with no way to reach the goal: region comes back empty
    m = make_pomdp(
        states=["a", "b", "goal"],
        actions=["stay"],
        observations=["o"],
        transitions={(0, 0): {0: 1.0}, (1, 0): {1: 1.0}, (2, 0): {2: 1.0}},
        obs_fn={(s, 0): {0: 1.0} for s in range(3)},
        rewards={},
        init={0: 1.0},
        reach=[2],
        avoid=[],
    )
    w = compute_winning_region(m)
    assert w.elements == ()
    assert not w.contains(m.init_support)


# -- membership ------------------------------------------------------------


def test_contains_antichain_element(obstacle6_region):
    u = obstacle6_region.elements[0]
    assert obstacle6_region.contains(u)


def test_contains_subsets_not_supersets(obstacle6, obstacle6_region):
    u = max(obstacle6_region.elements, key=lambda x: x.bit_count())
    low = 1 << states_from_mask(u)[0]
    assert obstacle6_region.contains(low)
    outside = u | 1 << obstacle6.state_id["g15"]
    assert not obstacle6_region.contains(outside)


def test_contains_rejects_avoid_touching_support(obstacle6, obstacle6_region):
    u = obstacle6.support_from_names("g13 g14 g15")
    assert not obstacle6_region.contains(u)


def test_contains_rejects_empty_support(obstacle6_region):
    with pytest.raises(ValueError):
        obstacle6_region.contains(0)


# Families over states 0-9, queried on states 0-13: queries may hold states
# past the highest one any element holds.
_families = st.lists(st.integers(min_value=1, max_value=(1 << 10) - 1), max_size=12)
_queries = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=13).map(lambda s: 1 << s),
        st.integers(min_value=1, max_value=(1 << 14) - 1),
    ),
    min_size=1,
    max_size=20,
)


@given(elements=_families, queries=_queries)
@example(elements=[], queries=[1, 1 << 9, 1 << 13])
@example(elements=[1 << 3, 0b0110], queries=[1 << 3, 0b0100, 0b1000, 1 << 12])
def test_contains_matches_scan_on_random_families(elements, queries):
    w = WinningRegion(tuple(elements), Spec(0, 0), "h")
    index = winning.holders_index(elements)
    for u in queries:
        expected = scan_contains(elements, u)
        assert w.contains(u) == expected
        assert winning.covered(index, u) == expected


@pytest.mark.parametrize("world", ["obstacle6", "gap6"])
def test_contains_matches_scan_on_graph_vertices(world, request):
    m = request.getfixturevalue(world)
    w = request.getfixturevalue(f"{world}_region")
    for u in build_support_graph(m, [m.init_support]).vertices:
        assert w.contains(u) == scan_contains(w.elements, u)


def test_region_elements_avoid_free(obstacle6, obstacle6_region):
    for u in obstacle6_region.elements:
        assert u & obstacle6.avoid_mask == 0


def test_region_element_with_avoid_state_rejected(obstacle6, obstacle6_region):
    with pytest.raises(ValueError, match="avoid"):
        WinningRegion(
            (1 << obstacle6.state_id["g15"],),
            obstacle6_region.spec,
            obstacle6_region.model_hash,
        )


# -- allowed actions -------------------------------------------------------


def test_allowed_excludes_unsafe_door_rush(obstacle6, obstacle6_region):
    u = obstacle6.support_from_names("g12 g13")
    acts = allowed_actions(obstacle6_region, obstacle6, u)
    assert obstacle6.action_id["east"] not in acts
    assert acts  # winning supports always keep an option


def test_allowed_matches_per_action_filter(obstacle6, obstacle6_region):
    u = obstacle6.support_from_names("g11")
    expected = tuple(
        a
        for a in range(obstacle6.n_actions)
        if all(
            obstacle6_region.contains(v)
            for _, v in support_post_all(obstacle6, u, a)
        )
    )
    assert allowed_actions(obstacle6_region, obstacle6, u) == expected


def test_allowed_all_for_absorbing_goal(obstacle6, obstacle6_region):
    u = 1 << obstacle6.state_id["g66"]
    assert allowed_actions(obstacle6_region, obstacle6, u) == tuple(range(obstacle6.n_actions))


def test_allowed_raises_off_region(obstacle6, obstacle6_region):
    with pytest.raises(RegionMisuseError):
        allowed_actions(obstacle6_region, obstacle6, 1 << obstacle6.state_id["g15"])


@given(data=st.data())
def test_step_closure_property(data, obstacle6, obstacle6_region):
    u = data.draw(st.sampled_from(obstacle6_region.elements))
    acts = allowed_actions(obstacle6_region, obstacle6, u)
    if not acts:
        return
    a = data.draw(st.sampled_from(acts))
    for _, v in support_post_all(obstacle6, u, a):
        assert obstacle6_region.contains(v)


@given(data=st.data())
def test_downward_closure_property(data, obstacle6_region):
    u = data.draw(st.sampled_from(obstacle6_region.elements))
    states = states_from_mask(u)
    sub = data.draw(st.sets(st.sampled_from(states), min_size=1))
    assert obstacle6_region.contains(mask_from_states(sub))


# -- productivity witnesses ------------------------------------------------


def _replay_witness(m, w, u, path):
    v = u
    for a, o in path:
        assert a in allowed_actions(w, m, v)
        v2 = support_post(m, v, a, o)
        assert v2 != 0
        assert w.contains(v2)
        v = v2
    assert v & ~w.spec.reach_mask == 0


def test_witness_empty_for_goal_support(obstacle6, obstacle6_region):
    assert productivity_witness(obstacle6_region, obstacle6, 1 << obstacle6.state_id["g66"]) == []


def test_witness_for_every_antichain_element(obstacle6, obstacle6_region):
    for u in obstacle6_region.elements:
        path = productivity_witness(obstacle6_region, obstacle6, u)
        _replay_witness(obstacle6, obstacle6_region, u, path)


def test_witness_for_gap_world_retreat(gap6, gap6_region):
    u = gap6.support_from_names("g14")
    path = productivity_witness(gap6_region, gap6, u)
    _replay_witness(gap6, gap6_region, u, path)


def test_witness_verified_by_oracle_on_tiny_world(tiny3, tiny3_region, tiny3_oracle):
    winning = sorted(
        (u for u in powerset_supports(range(tiny3.n_states))
         if _mask_to_set(u) in tiny3_oracle),
        key=lambda u: (u.bit_count(), u),
    )
    for u in winning[:: max(1, len(winning) // 40)]:
        path = productivity_witness(tiny3_region, tiny3, u)
        v = u
        for a, o in path:
            v = support_post(tiny3, v, a, o)
            assert _mask_to_set(v) in tiny3_oracle
        assert v & ~tiny3.reach_mask == 0


def test_witness_raises_for_unproductive_fake_region():
    m = make_pomdp(
        states=["stuck", "goal"],
        actions=["go"],
        observations=["o"],
        transitions={(0, 0): {0: 1.0}, (1, 0): {1: 1.0}},
        obs_fn={(s, 0): {0: 1.0} for s in range(2)},
        rewards={},
        init={0: 1.0},
        reach=[1],
        avoid=[],
    )
    fake = WinningRegion((1 << 0,), Spec(1 << 1, 0), model_hash(m))
    with pytest.raises(WitnessError):
        productivity_witness(fake, m, 1 << 0)


def test_witness_raises_off_region(obstacle6, obstacle6_region):
    with pytest.raises(RegionMisuseError):
        productivity_witness(obstacle6_region, obstacle6, 1 << obstacle6.state_id["g15"])


# -- helpers and files -----------------------------------------------------


def test_antichain_keeps_maximal_elements():
    masks = [0b0011, 0b0111, 0b1000, 0b1001, 0b0111]
    out = antichain(masks)
    assert set(out) == {0b0111, 0b1001}
    for u in out:
        assert not any(u != v and u & ~v == 0 for v in out)


@given(st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1), max_size=40))
@example([0])
@example([0, 0b01, 0b10])
def test_antichain_matches_pairwise_reference(masks):
    assert antichain(masks) == pairwise_antichain(masks)


def test_powerset_supports_counts():
    assert len(powerset_supports(range(5))) == 31
    assert set(powerset_supports([2, 4])) == {0b100, 0b10000, 0b10100}
    with pytest.raises(ValueError):
        powerset_supports(range(21))


def test_spec_rejects_overlap():
    with pytest.raises(ValueError):
        Spec(0b11, 0b10)


def test_spec_defaults_from_model(obstacle6):
    spec = Spec.of(obstacle6)
    assert spec.reach_mask == obstacle6.reach_mask
    assert spec.avoid_mask == obstacle6.avoid_mask


def test_region_file_round_trip(obstacle6, obstacle6_region):
    text = serialize_region(obstacle6_region, obstacle6)
    assert text.startswith("# winning region over belief supports\n")
    again = parse_region(text, obstacle6)
    assert again.elements == obstacle6_region.elements
    assert again.spec == obstacle6_region.spec
    assert again.model_hash == obstacle6_region.model_hash


def test_region_file_hash_mismatch(obstacle6, obstacle6_region):
    text = serialize_region(obstacle6_region, obstacle6)
    other = gen_obstacle(GridSpec(slip=0.25))
    with pytest.raises(RegionFileError, match="hashes"):
        parse_region(text, other)


def test_region_file_rejects_non_antichain(obstacle6):
    text = (
        f"model {model_hash(obstacle6)}\n"
        "reach g66\n"
        "avoid g15 g21 g34 g62\n"
        "W g11\n"
        "W g11 g12\n"
    )
    with pytest.raises(RegionFileError, match="antichain"):
        parse_region(text, obstacle6)


def test_region_file_rejects_unknown_state(obstacle6):
    text = f"model {model_hash(obstacle6)}\nreach g66\navoid g15\nW g99\n"
    with pytest.raises(RegionFileError, match="line 4"):
        parse_region(text, obstacle6)


def test_region_file_cut_at_any_line_raises(obstacle6, obstacle6_region):
    lines = serialize_region(obstacle6_region, obstacle6).splitlines(keepends=True)
    assert "elements 47\n" in lines
    for k in range(len(lines)):
        with pytest.raises(RegionFileError):
            parse_region("".join(lines[:k]), obstacle6)


@pytest.mark.parametrize("line, match", [
    ("elements 46", "declares 46 elements but holds 47"),
    ("elements -1", "line 5: negative"),
    ("elements", "line 5"),
    ("elements 4 7", "line 5"),
])
def test_region_file_rejects_bad_count(obstacle6, obstacle6_region, line, match):
    text = serialize_region(obstacle6_region, obstacle6)
    with pytest.raises(RegionFileError, match=match):
        parse_region(text.replace("elements 47", line), obstacle6)


def test_region_file_requires_header(obstacle6):
    with pytest.raises(RegionFileError, match="header"):
        parse_region("W g11\n", obstacle6)
