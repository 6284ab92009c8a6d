"""Room decomposition and queue-based propagation of factored regions."""

import dataclasses
import re
import time

import pytest

from safepomcp import (
    GraphCapExceeded,
    ModelError,
    RegionFileError,
    RegionMisuseError,
    RegionTimeout,
    allowed_actions,
    build_support_graph,
    compute_winning_region,
    decompose,
    factored_elements_in_parent,
    gen_obstacle,
    GridSpec,
    make_pomdp,
    mask_from_states,
    model_hash,
    parse_factored,
    productivity_witness,
    propagate_factored_regions,
    serialize_factored,
    states_from_mask,
    support_post,
    support_post_all,
)

from oracles import room_union_contains


def _names(m, ids):
    return sorted(m.state_names[s] for s in ids)


def _sub(subs, label):
    return next(s for s in subs if s.label == label)


# -- decomposition ---------------------------------------------------------


def test_decompose_room_structure(obstacle6):
    subs = decompose(obstacle6)
    assert [s.label for s in subs] == ["q00", "q01", "q10", "q11"]
    assert [s.index for s in subs] == [0, 1, 2, 3]
    top_left = subs[0]
    assert top_left.pomdp.n_states == 9 + 4
    assert _names(obstacle6, top_left.outlets) == ["g14", "g15", "g41", "g51"]
    assert _names(obstacle6, top_left.init_states) == ["g11", "g12", "g13", "g31"]
    assert top_left.adjacency == frozenset({1, 2})


def test_decompose_outlet_ownership(obstacle6):
    subs = decompose(obstacle6)
    owners = {
        obstacle6.state_names[s]: owner for s, owner in subs[0].outlets.items()
    }
    assert owners == {"g14": 1, "g15": 1, "g41": 2, "g51": 2}


def test_decompose_ignores_negligible_exits():
    # the only cross-room transition has probability 1e-15, below PROB_EPS;
    # the support algebra drops it, so room A must have no outlet
    m = make_pomdp(
        states=["a", "goal", "b"],
        actions=["go"],
        observations=["o"],
        transitions={
            (0, 0): {1: 1.0 - 1e-15, 2: 1e-15},
            (1, 0): {1: 1.0},
            (2, 0): {2: 1.0},
        },
        obs_fn={(s, 0): {0: 1.0} for s in range(3)},
        rewards={},
        init={0: 0.5, 2: 0.5},
        reach=[1],
        avoid=[],
        partition=["A", "A", "B"],
    )
    assert m._succ_masks[0] == 1 << 1
    subs = decompose(m)
    assert {sub.label: sub.outlets for sub in subs} == {"A": {}, "B": {}}
    assert [sub.inlets for sub in subs] == [(), ()]
    f = propagate_factored_regions(m, subs)
    assert f.contains(1 << 0)


def test_decompose_init_excludes_avoid_inlets(obstacle6):
    subs = decompose(obstacle6)
    # g21 is an entry target from the room below but also an obstacle
    g21 = obstacle6.state_id["g21"]
    assert g21 in subs[0].inlets or g21 in subs[0].avoid_states
    assert g21 not in subs[0].init_states


def test_decompose_outlets_absorbing_and_free(obstacle6):
    subs = decompose(obstacle6)
    for sub in subs:
        na = sub.pomdp.n_actions
        for parent_s in sub.outlets:
            local = sub.from_parent[parent_s]
            assert sub.pomdp.is_absorbing(local)
            for a in range(na):
                assert sub.pomdp.rewards[local * na + a] == 0.0


def test_decompose_observations_inherited(obstacle6):
    subs = decompose(obstacle6)
    sub = subs[0]
    assert sub.pomdp.n_obs == obstacle6.n_obs
    s = obstacle6.state_id["g22"]
    local = sub.from_parent[s]
    for a in range(obstacle6.n_actions):
        assert (
            sub.pomdp.observations[local * sub.pomdp.n_actions + a]
            == obstacle6.observations[s * obstacle6.n_actions + a]
        )


def test_decompose_covers_states_disjointly(obstacle6):
    subs = decompose(obstacle6)
    union = 0
    for sub in subs:
        assert union & sub.own_parent_mask == 0
        union |= sub.own_parent_mask
    assert union == (1 << obstacle6.n_states) - 1


def test_decompose_goal_room_seeds_reach(obstacle6):
    subs = decompose(obstacle6)
    assert _names(obstacle6, subs[3].initial_reach) == ["g66"]
    for sub in subs[:3]:
        assert sub.initial_reach == frozenset()
    assert _names(obstacle6, subs[3].init_states) == ["g46", "g56", "g64", "g65"]


def test_decompose_single_label_degenerate(obstacle6):
    flat = dataclasses.replace(obstacle6, partition=("all",) * obstacle6.n_states)
    subs = decompose(flat)
    assert len(subs) == 1
    sub = subs[0]
    assert sub.outlets == {}
    assert sub.to_parent == tuple(range(obstacle6.n_states))
    assert sub.pomdp.transitions == obstacle6.transitions
    assert sub.pomdp.observations == obstacle6.observations


def test_decompose_requires_partition(obstacle6):
    bare = dataclasses.replace(obstacle6, partition=None)
    with pytest.raises(ModelError):
        decompose(bare)


# -- propagation -----------------------------------------------------------


def test_propagation_first_update_adds_goal_room_doors(obstacle6, obstacle6_factored):
    top_right = _sub(obstacle6_factored.subs, "q01")
    from_goal_room = {
        s for s, owner in top_right.outlets.items() if owner == 3
    }
    assert _names(obstacle6, from_goal_room) == ["g46", "g56"]
    assert from_goal_room <= top_right.reach_states
    goal_region = obstacle6_factored.region_of("q11")
    goal_sub = _sub(obstacle6_factored.subs, "q11")
    for s in from_goal_room:
        assert goal_region.contains(1 << goal_sub.from_parent[s])


def test_propagation_counters(obstacle6_factored):
    assert obstacle6_factored.queue_pushes == 16
    assert obstacle6_factored.recomputes == 9


def test_propagation_push_bound(obstacle6_factored, gap6_factored):
    for f in (obstacle6_factored, gap6_factored):
        total_outlets = sum(len(sub.outlets) for sub in f.subs)
        initial = sum(len(sub.adjacency) for sub in f.subs)
        assert f.queue_pushes <= len(f.subs) * total_outlets + initial


def test_propagation_is_idempotent(obstacle6, obstacle6_factored):
    again = propagate_factored_regions(obstacle6, obstacle6_factored.subs)
    assert again.queue_pushes == obstacle6_factored.queue_pushes
    assert again.recomputes == obstacle6_factored.recomputes
    for a, b in zip(again.regions, obstacle6_factored.regions):
        assert a.elements == b.elements


def test_propagation_reaches_fixpoint(obstacle6, obstacle6_factored):
    parent_graph = build_support_graph(obstacle6, [obstacle6.init_support])
    for sub, reg in zip(obstacle6_factored.subs, obstacle6_factored.regions):
        seeds = [1 << sub.from_parent[s] for s in sub.init_states]
        seeds += [
            sub.to_sub_mask(u)
            for u in parent_graph.vertices
            if u & ~sub.extended_parent_mask == 0
        ]
        again = compute_winning_region(sub.pomdp, sub.local_spec(), seeds=seeds)
        assert again.elements == reg.elements


def test_propagation_order_invariant(obstacle6, obstacle6_factored):
    relabel = {"q00": "d", "q01": "c", "q10": "b", "q11": "a"}
    flipped = dataclasses.replace(
        obstacle6, partition=tuple(relabel[lbl] for lbl in obstacle6.partition)
    )
    f2 = propagate_factored_regions(flipped, decompose(flipped))
    assert [s.label for s in f2.subs] == ["a", "b", "c", "d"]

    def summary(f):
        return {
            (
                sub.extended_parent_mask,
                tuple(sorted(sub.to_parent_mask(e) for e in reg.elements)),
            )
            for sub, reg in zip(f.subs, f.regions)
        }

    assert summary(f2) == summary(obstacle6_factored)
    for u in factored_elements_in_parent(obstacle6_factored):
        assert f2.contains(u)


def test_propagation_graph_cap(obstacle6):
    with pytest.raises(GraphCapExceeded):
        propagate_factored_regions(obstacle6, decompose(obstacle6), max_vertices=5)


def test_propagation_deadline(obstacle6):
    with pytest.raises(RegionTimeout):
        propagate_factored_regions(
            obstacle6, decompose(obstacle6), deadline=time.monotonic() - 1.0
        )


# -- the gap world ---------------------------------------------------------


def test_gap_world_first_room_reach(gap6, gap6_factored):
    first = _sub(gap6_factored.subs, "q00")
    assert _names(gap6, first.reach_states) == ["g15"]


def test_gap_world_union_misses_retreat_support(gap6, gap6_region, gap6_factored):
    u14 = gap6.support_from_names("g14")
    assert not gap6_factored.contains(u14)
    assert gap6_region.contains(u14)  # strictly smaller than centralized


def test_union_subset_of_centralized(obstacle6, obstacle6_region, gap6, gap6_region,
                                     obstacle6_factored, gap6_factored):
    for m, w, f in ((obstacle6, obstacle6_region, obstacle6_factored),
                    (gap6, gap6_region, gap6_factored)):
        for u in factored_elements_in_parent(f):
            assert w.contains(u)


# -- union queries ---------------------------------------------------------


def test_union_contains_in_room_support(obstacle6, obstacle6_factored):
    assert obstacle6_factored.contains(obstacle6.support_from_names("g11"))
    assert obstacle6_factored.contains(obstacle6.support_from_names("g12 g13"))


def test_union_membership_matches_per_room_check(obstacle6, obstacle6_factored):
    straddling = obstacle6.support_from_names("g13 g14")
    for u in (
        straddling,
        obstacle6.support_from_names("g11"),
        obstacle6.support_from_names("g33 g44"),
        obstacle6.support_from_names("g66"),
    ):
        expected = any(
            u & ~sub.extended_parent_mask == 0
            and reg.elements
            and reg.contains(sub.to_sub_mask(u))
            for sub, reg in zip(obstacle6_factored.subs, obstacle6_factored.regions)
        )
        assert obstacle6_factored.contains(u) == expected


@pytest.mark.parametrize("world", ["obstacle4", "obstacle6", "gap6"])
def test_union_membership_matches_room_loop_on_graph_vertices(world, request):
    m = (
        gen_obstacle(GridSpec(n=4)) if world == "obstacle4"
        else request.getfixturevalue(world)
    )
    f = propagate_factored_regions(m, decompose(m))
    rebuilt = parse_factored(serialize_factored(f, m), m)
    for u in build_support_graph(m, [m.init_support]).vertices:
        expected = room_union_contains(f, u)
        assert f.contains(u) == expected
        assert rebuilt.contains(u) == room_union_contains(rebuilt, u) == expected


def test_union_rejects_empty_support(obstacle6_factored):
    with pytest.raises(ValueError):
        obstacle6_factored.contains(0)


def test_union_allowed_actions_step_closed(obstacle6, obstacle6_factored):
    u = obstacle6.support_from_names("g12 g13")
    acts = allowed_actions(obstacle6_factored, obstacle6, u)
    assert acts
    assert obstacle6.action_id["east"] not in acts
    for a in acts:
        for _, v in support_post_all(obstacle6, u, a):
            assert obstacle6_factored.contains(v)


def test_union_allowed_actions_raises_outside(obstacle6, obstacle6_factored):
    with pytest.raises(RegionMisuseError):
        allowed_actions(
            obstacle6_factored, obstacle6, 1 << obstacle6.state_id["g15"]
        )


def test_factored_witness_replays(obstacle6, obstacle6_factored):
    elements = factored_elements_in_parent(obstacle6_factored)
    for u in elements[:: max(1, len(elements) // 25)]:
        path = productivity_witness(obstacle6_factored, obstacle6, u)
        v = u
        for a, o in path:
            assert a in allowed_actions(obstacle6_factored, obstacle6, v)
            v = support_post(obstacle6, v, a, o)
            assert v != 0
            assert obstacle6_factored.contains(v)
        assert v & ~obstacle6.reach_mask == 0


def test_region_of_unknown_label(obstacle6_factored):
    with pytest.raises(KeyError):
        obstacle6_factored.region_of("attic")


# -- factored region files -------------------------------------------------


def test_factored_file_round_trip(obstacle6, obstacle6_factored):
    text = serialize_factored(obstacle6_factored, obstacle6)
    assert text.startswith("# factored winning regions\n")
    again = parse_factored(text, obstacle6)
    for a, b in zip(again.regions, obstacle6_factored.regions):
        assert a.elements == b.elements
    for sa, sb in zip(again.subs, obstacle6_factored.subs):
        assert sa.reach_states == sb.reach_states
    for u in factored_elements_in_parent(obstacle6_factored):
        assert again.contains(u)


def test_factored_file_hash_mismatch(obstacle6, gap6, obstacle6_factored):
    text = serialize_factored(obstacle6_factored, obstacle6)
    with pytest.raises(RegionFileError, match="hashes"):
        parse_factored(text, gap6)


def test_factored_file_rejects_structure_drift(obstacle6, obstacle6_factored):
    text = serialize_factored(obstacle6_factored, obstacle6)
    tampered = text.replace("init g11 g12 g13 g31", "init g11 g12 g13")
    with pytest.raises(RegionFileError, match="init states"):
        parse_factored(tampered, obstacle6)


def test_factored_file_rejects_unknown_state(obstacle6, obstacle6_factored):
    text = serialize_factored(obstacle6_factored, obstacle6)
    tampered = text.replace("W g11", "W g99", 1)
    with pytest.raises(RegionFileError, match="line"):
        parse_factored(tampered, obstacle6)


def test_factored_file_cut_at_any_line_raises(obstacle6, obstacle6_factored):
    text = serialize_factored(obstacle6_factored, obstacle6)
    assert text.count("\nelements ") == len(obstacle6_factored.subs)
    lines = text.splitlines(keepends=True)
    for k in range(len(lines)):
        with pytest.raises(RegionFileError):
            parse_factored("".join(lines[:k]), obstacle6)


@pytest.mark.parametrize("edit, match", [
    (lambda t: t.replace("submodels 4\n", ""), "missing submodels line"),
    (lambda t: t.replace("submodels 4", "submodels 3"), "declares 3 submodels"),
    (lambda t: t[:t.index("submodel 1 ")] + t[t.index("submodel 2 "):],
     "no section for submodel 1"),
    (lambda t: t + t[t.index("submodel 3 "):], "second section for submodel 3"),
    (lambda t: re.sub(r"\nreach [^\n]*", "", t, count=1), "lacks reach lines"),
    (lambda t: re.sub(r"\nelements [^\n]*", "", t, count=1), "lacks elements lines"),
    (lambda t: re.sub(r"\nW [^\n]*", "", t, count=1), "declares \\d+ elements but holds"),
])
def test_factored_file_rejects_incomplete_sections(obstacle6, obstacle6_factored,
                                                   edit, match):
    text = serialize_factored(obstacle6_factored, obstacle6)
    with pytest.raises(RegionFileError, match=match):
        parse_factored(edit(text), obstacle6)


def test_factored_file_requires_model_header(obstacle6):
    with pytest.raises(RegionFileError, match="header"):
        parse_factored("submodels 4\n", obstacle6)
