"""Benchmark world generators: layouts, dynamics, rewards and labels."""

from collections import defaultdict

import pytest

from safepomcp import (
    DomainError,
    GridSpec,
    cell_name,
    compute_winning_region,
    factored_gap_world,
    gen_obstacle,
    gen_refuel,
    gen_rocksample,
    render_layout,
    serialize_model,
    states_from_mask,
)


def _row(m, state, action):
    idx = m.state_id[state] * m.n_actions + m.action_id[action]
    return m.transitions[idx], m.rewards[idx]


def _dist(m, row):
    outs, probs = row
    return {m.state_names[x]: p for x, p in zip(outs, probs) if p > 0.0}


def _obs_dist(m, state, action):
    outs, probs = m.observations[m.state_id[state] * m.n_actions + m.action_id[action]]
    return {m.obs_names[o]: p for o, p in zip(outs, probs) if p > 0.0}


# -- obstacle --------------------------------------------------------------


@pytest.mark.parametrize("n,count", [(6, 37), (8, 65), (9, 82)])
def test_obstacle_state_counts(n, count):
    m = gen_obstacle(GridSpec(n=n))
    assert m.n_states == count
    assert m.n_obs == count
    assert m.n_actions == 4


def test_obstacle_default_layout(obstacle6):
    m = obstacle6
    assert set(m.names_from_mask(m.avoid_mask)) == {"g15", "g21", "g34", "g62"}
    assert m.names_from_mask(m.init_support) == ("g11",)
    assert set(m.names_from_mask(m.reach_mask)) == {"g66"}
    rooms = set(m.partition)
    assert len(rooms) == 4


def test_obstacle_slip_row(obstacle6):
    trans, reward = _row(obstacle6, "g11", "east")
    assert _dist(obstacle6, trans) == {"g12": 0.8, "g13": 0.2}
    assert reward == -1.0


def test_obstacle_overshoot_truncates_at_walls(obstacle6):
    trans, reward = _row(obstacle6, "g56", "south")
    assert _dist(obstacle6, trans) == {"g66": 1.0}
    assert reward == 999.0


def test_obstacle_entry_costs(obstacle6):
    trans, reward = _row(obstacle6, "g14", "east")
    assert _dist(obstacle6, trans) == {"g15": 0.8, "g16": 0.2}
    assert reward == -1.0 - 5.0 * 0.8


def test_obstacle_walls_block_moves(obstacle6):
    # wall between columns 3 and 4 has doors only on rows 1 and 6
    trans, _ = _row(obstacle6, "g23", "east")
    assert "g24" not in _dist(obstacle6, trans)
    trans, _ = _row(obstacle6, "g13", "east")
    assert _dist(obstacle6, trans) == {"g14": 0.8, "g15": 0.2}


def test_obstacle_observation_noise(obstacle6):
    z = _obs_dist(obstacle6, "g33", "north")
    assert z["g33"] == 0.9
    neighbours = {"g23", "g43", "g32", "g34"}
    assert set(z) == {"g33"} | neighbours
    for c in neighbours:
        assert z[c] == pytest.approx(0.1 / 4)


def test_obstacle_small_grid_default_obstacle():
    m = gen_obstacle(GridSpec(n=4))
    assert set(m.names_from_mask(m.avoid_mask)) == {"g22"}


def test_obstacle_crash_trajectory_realizable(obstacle6):
    m = obstacle6
    plan = [m.action_id[a] for a in ("east", "east", "east", "south", "south", "south")]
    frontier = {(m.state_id["g11"], False)}
    for a in plan:
        nxt = set()
        for s, seen in frontier:
            outs, probs = m.transitions[s * m.n_actions + a]
            for x, p in zip(outs, probs):
                if p > 0.0:
                    nxt.add((x, seen or m.state_names[x] == "g15"))
        frontier = nxt
    assert any(seen for _, seen in frontier)


def test_obstacle_rejects_bad_cells():
    with pytest.raises(DomainError):
        gen_obstacle(GridSpec(n=4, obstacles=("g99",)))
    with pytest.raises(DomainError):
        gen_obstacle(GridSpec(n=4, start="g22", obstacles=("g22",)))


def test_random_obstacles_deterministic():
    a = gen_obstacle(GridSpec(n=6, random_obstacles=4, seed=5))
    b = gen_obstacle(GridSpec(n=6, random_obstacles=4, seed=5))
    c = gen_obstacle(GridSpec(n=6, random_obstacles=4, seed=6))
    assert serialize_model(a) == serialize_model(b)
    assert a.avoid != c.avoid


# -- refuel ----------------------------------------------------------------


def test_refuel_state_count():
    m = gen_refuel(GridSpec(n=6, battery=8))
    assert m.n_states == 6 * 6 * 9 + 1 == 325
    assert m.n_obs == 2 * 36 + 1
    assert m.action_names == ("north", "east", "south", "west", "refuel")


def test_refuel_station_row_is_dirac():
    m = gen_refuel(GridSpec())  # stations default to g11 and g41
    trans, reward = _row(m, "g41_e3", "refuel")
    assert _dist(m, trans) == {"g41_e8": 1.0}
    assert reward == -1.0


def test_refuel_off_station_refuel_is_noop():
    m = gen_refuel(GridSpec())
    trans, _ = _row(m, "g23_e3", "refuel")
    assert _dist(m, trans) == {"g23_e3": 1.0}


def test_refuel_moves_drain_energy():
    m = gen_refuel(GridSpec())
    trans, _ = _row(m, "g11_e8", "east")
    assert _dist(m, trans) == {"g12_e7": 0.8, "g13_e7": 0.2}


def test_refuel_avoid_labels():
    m = gen_refuel(GridSpec())
    avoid = set(m.names_from_mask(m.avoid_mask))
    assert "g21_e5" in avoid  # obstacle cell at any energy
    assert "g23_e0" in avoid  # stranded dry
    assert "g11_e0" not in avoid  # station
    assert "g41_e0" not in avoid
    assert "g66_e0" not in avoid  # goal
    assert all(f"g66_e{e}" in set(m.names_from_mask(m.reach_mask)) for e in range(9))


def test_refuel_battery_flag_observation():
    m = gen_refuel(GridSpec())
    lo = _obs_dist(m, "g23_e1", "north")
    ok = _obs_dist(m, "g23_e2", "north")
    assert lo["g23_lo"] == 0.9
    assert ok["g23_ok"] == 0.9
    assert all(name.endswith("_lo") for name in lo)
    assert all(name.endswith("_ok") for name in ok)


def test_refuel_dry_corridor_unwinnable():
    m = gen_refuel(GridSpec(n=3, battery=1, stations=()))
    region = compute_winning_region(m)
    assert not region.contains(m.init_support)


# -- rocksample ------------------------------------------------------------


def test_rocksample_state_count():
    m = gen_rocksample(GridSpec(n=6))
    assert m.n_states == 36 * 27 + 1 == 973
    assert m.n_obs == 36 + 3
    assert m.n_actions == 4 + 1 + 3


def test_rocksample_initial_belief_uniform_over_quality():
    m = gen_rocksample(GridSpec(n=4, rocks=("g22", "g33")))
    names = [m.state_names[s] for s in m.init_states]
    assert sorted(names) == ["g11_bb", "g11_bg", "g11_gb", "g11_gg"]
    assert all(p == 0.25 for p in m.init_probs)


def test_rocksample_sense_exact_on_rock_cell():
    m = gen_rocksample(GridSpec(n=4, rocks=("g22",)))
    z = _obs_dist(m, "g22_g", "sense_g22")
    assert z == {"good": 1.0}
    z = _obs_dist(m, "g22_b", "sense_g22")
    assert z == {"bad": 1.0}


def test_rocksample_sense_accuracy_decays_with_distance():
    m = gen_rocksample(GridSpec(n=4, rocks=("g12",)))
    z = _obs_dist(m, "g14_g", "sense_g12")  # Euclidean distance 2, half-distance 2
    assert z["good"] == pytest.approx(0.75)
    z = _obs_dist(m, "g14_b", "sense_g12")
    assert z["bad"] == pytest.approx(0.75)


def test_rocksample_sense_collected_uninformative():
    m = gen_rocksample(GridSpec(n=4, rocks=("g22",)))
    z = _obs_dist(m, "g12_c", "sense_g22")
    assert z == {"good": 0.5, "bad": 0.5}


def test_rocksample_good_sample_collects():
    m = gen_rocksample(GridSpec(n=4, rocks=("g22",)))
    trans, reward = _row(m, "g12_g", "sample")
    assert _dist(m, trans) == {"g12_c": 1.0}
    assert reward == 10.0


def test_rocksample_bad_sample_enters_hazard():
    m = gen_rocksample(GridSpec(n=4, rocks=("g22",)))
    trans, reward = _row(m, "g12_b", "sample")
    assert _dist(m, trans) == {"hazard": 1.0}
    assert reward == -10.0
    assert set(m.names_from_mask(m.avoid_mask)) == {"hazard"}


def test_rocksample_sample_away_from_rocks_is_noop():
    m = gen_rocksample(GridSpec(n=4, rocks=("g22",)))
    trans, reward = _row(m, "g14_g", "sample")
    assert _dist(m, trans) == {"g14_g": 1.0}
    assert reward == -1.0


# -- shared properties -----------------------------------------------------


@pytest.mark.parametrize(
    "gen,kwargs",
    [
        (gen_obstacle, {}),
        (gen_refuel, {"battery": 3}),
        (gen_rocksample, {"rocks": ("g13", "g32")}),
    ],
    ids=["obstacle", "refuel", "rocksample"],
)
def test_reach_states_absorbing(gen, kwargs):
    m = gen(GridSpec(n=4, **kwargs))
    for s in states_from_mask(m.reach_mask):
        assert m.is_absorbing(s)
    assert serialize_model(gen(GridSpec(n=4, **kwargs))) == serialize_model(m)


def test_partition_respects_rooms(obstacle6):
    assert obstacle6.partition is not None
    for s, label in enumerate(obstacle6.partition):
        assert label
    # cells in the same quadrant share a label
    assert obstacle6.partition[obstacle6.state_id["g11"]] == obstacle6.partition[obstacle6.state_id["g23"]]
    assert obstacle6.partition[obstacle6.state_id["g11"]] != obstacle6.partition[obstacle6.state_id["g16"]]


def test_gap_world_layout():
    m = factored_gap_world()
    assert set(m.names_from_mask(m.avoid_mask)) == {"g16", "g24", "g54", "g65"}
    assert m.n_states == 37


def test_render_layout_markers():
    art = render_layout(GridSpec())
    grid = art.rsplit("\n", 2)[0]  # drop the legend line
    assert grid.count("X") == 4
    assert "S" in grid and "G" in grid
    art = render_layout(GridSpec(), family="refuel")
    assert "F station" in art
    art = render_layout(GridSpec(), family="rocksample")
    assert art.rsplit("\n", 2)[0].count("R") == 3
    assert "R rock" in art


def _layout_marks(art: str, n: int) -> defaultdict[str, set[str]]:
    """Cells by marker character; cell rows are every other line, with a
    marker every fourth character."""
    marks = defaultdict(set)
    for r, line in enumerate(art.splitlines()[0:2 * n:2], start=1):
        for c in range(1, n + 1):
            marks[line[4 * (c - 1)]].add(cell_name(r, c, n))
    return marks


@pytest.mark.parametrize("n", range(3, 9))
def test_render_layout_marks_generated_stations_and_rocks(n):
    gs = GridSpec(n=n)
    refuel = gen_refuel(gs)
    refuel_a = refuel.action_id["refuel"]
    stations = set()
    for cell in (name[:-3] for name in refuel.state_names if name.endswith("_e0")):
        s = refuel.state_id[cell + "_e0"] * refuel.n_actions + refuel_a
        full = refuel.state_id[f"{cell}_e{gs.battery}"]
        if refuel.transitions[s][0] == (full,):
            stations.add(cell)
    rocks = {
        a[len("sense_"):] for a in gen_rocksample(gs).action_names
        if a.startswith("sense_")
    }
    assert stations and rocks
    for family, marker, cells in (("refuel", "F", stations),
                                  ("rocksample", "R", rocks)):
        marks = _layout_marks(render_layout(gs, family), n)
        # S, G and X take precedence over F and R on a shared cell
        assert marks[marker] == cells - marks["S"] - marks["G"] - marks["X"]
