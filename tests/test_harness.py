"""Episode loop, experiment grid, region caching and CSV reports."""

import csv
import io
import re
import statistics
from random import Random

import pytest

from safepomcp import (
    FactoredRegion,
    GridSpec,
    PlannerConfig,
    ShieldMode,
    compute_winning_region,
    gen_refuel,
    make_pomdp,
    sample_initial,
    WinningRegion,
)
from safepomcp.harness import (
    CSV_COLUMNS,
    DEFAULT_STEP_CAP,
    DESK_PROFILE,
    EpisodeMetrics,
    ExperimentConfig,
    ModelSource,
    UnwinningStartError,
    obtain_region,
    run_episode,
    run_experiment,
)
from safepomcp.modelio import dump_model, model_hash

from oracles import room_union_contains, scan_contains

LITE = PlannerConfig(simulations=200, depth=50, particles=200)
TINY = PlannerConfig(simulations=60, depth=20, particles=64)

NO_SHIELD = ShieldMode.NO_SHIELD
PRIOR = ShieldMode.CENTRALIZED_PRIOR
OTF = ShieldMode.CENTRALIZED_ON_THE_FLY


@pytest.fixture(scope="module")
def tiny3_src():
    return ModelSource(family="obstacle", grid=GridSpec(n=3, row_bounds=(), col_bounds=(2,)))


def test_desk_profile_and_cap():
    assert DESK_PROFILE.simulations == 2_000
    assert DESK_PROFILE.depth == 100
    assert DESK_PROFILE.particles == 1_000
    assert DEFAULT_STEP_CAP == 200


# -- run_episode -----------------------------------------------------------


def test_episode_started_at_goal_is_trivial():
    m = make_pomdp(
        states=1, actions=1, observations=1,
        transitions={(0, 0): {0: 1.0}},
        obs_fn={(0, 0): {0: 1.0}},
        rewards={(0, 0): 0.0},
        init={0: 1.0}, reach=[0], avoid=[],
    )
    met = run_episode(m, None, NO_SHIELD, TINY, 10, 0)
    assert met.steps == 0
    assert met.ret == 0.0
    assert met.reached
    assert not met.collapsed
    assert met.unsafe == 0
    assert met.step_time_mean is None and met.step_time_median is None
    assert met.shield_stats is None


def test_zero_probability_initial_entry_stays_out_of_the_start():
    """``init 1 0.0`` names an avoid state with probability zero: it is no
    part of the start support, so the start is winning and a shielded
    episode runs."""
    m = make_pomdp(
        states=3, actions=1, observations=1,
        transitions={(0, 0): {2: 1.0}, (1, 0): {1: 1.0}, (2, 0): {2: 1.0}},
        obs_fn={(s, 0): {0: 1.0} for s in range(3)},
        rewards={},
        init={0: 1.0, 1: 0.0}, reach=[2], avoid=[1],
    )
    assert m.init_support == 0b001
    region = compute_winning_region(m)
    assert region.contains(m.init_support)
    met = run_episode(m, region, OTF, TINY, 5, 0)
    assert met.reached and met.unsafe == 0
    rng = Random(0)
    assert {sample_initial(m, rng) for _ in range(200)} == {0}


def test_episode_unshielded_can_crash_repeatedly(obstacle6):
    met = run_episode(obstacle6, None, NO_SHIELD, LITE, 60, 12)
    assert met.unsafe == 3  # the loop keeps going after an unsafe visit


def test_episode_prior_shield_stays_safe(obstacle6, obstacle6_region):
    met = run_episode(obstacle6, obstacle6_region, PRIOR, LITE, 60, 0)
    assert met.unsafe == 0
    assert met.reached
    assert met.shield_stats is not None
    assert met.shield_stats.root_pruned > 0


def test_episode_backtracking_rescues_crashing_seed(obstacle6, obstacle6_region):
    assert run_episode(obstacle6, None, NO_SHIELD, LITE, 60, 0).unsafe > 0
    met = run_episode(obstacle6, obstacle6_region, OTF, LITE, 60, 0)
    assert met.unsafe == 0
    assert met.reached


@pytest.mark.parametrize("mode", [OTF, ShieldMode.FACTORED_ON_THE_FLY])
def test_episode_same_with_scanned_membership(
    obstacle6, obstacle6_region, obstacle6_factored, mode, monkeypatch
):
    region = obstacle6_factored if mode.factored else obstacle6_region
    seeds = (3, 14)
    indexed = [run_episode(obstacle6, region, mode, LITE, 20, s) for s in seeds]
    monkeypatch.setattr(
        WinningRegion, "contains", lambda w, u: scan_contains(w.elements, u)
    )
    monkeypatch.setattr(FactoredRegion, "contains", room_union_contains)
    scanned = [run_episode(obstacle6, region, mode, LITE, 20, s) for s in seeds]
    assert scanned == indexed
    assert all(met.shield_stats.queries > 0 for met in indexed)


def test_episode_step_cap(obstacle6):
    met = run_episode(obstacle6, None, NO_SHIELD, LITE, 3, 0)
    assert met.steps == 3
    assert not met.reached


def test_episode_trace_format(obstacle6):
    buf = io.StringIO()
    met = run_episode(obstacle6, None, NO_SHIELD, LITE, 5, 0, trace=buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == met.steps
    pat = re.compile(r"^step=(\d+) action=\w+ obs=\S+ support=\S+$")
    for i, line in enumerate(lines, start=1):
        match = pat.match(line)
        assert match, line
        assert int(match.group(1)) == i


def test_episode_timing_fields(obstacle6):
    met = run_episode(obstacle6, None, NO_SHIELD, TINY, 5, 0, measure_time=True)
    assert met.step_time_mean > 0.0
    assert met.step_time_median > 0.0


def test_episode_deterministic(obstacle6):
    a = run_episode(obstacle6, None, NO_SHIELD, LITE, 30, 8)
    b = run_episode(obstacle6, None, NO_SHIELD, LITE, 30, 8)
    assert (a.steps, a.ret, a.unsafe, a.reached) == (b.steps, b.ret, b.unsafe, b.reached)


def test_episode_rejects_bad_cap(obstacle6):
    with pytest.raises(ValueError):
        run_episode(obstacle6, None, NO_SHIELD, TINY, 0, 0)


def test_episode_shielded_needs_region(obstacle6):
    with pytest.raises(ValueError, match="needs a region"):
        run_episode(obstacle6, None, PRIOR, TINY, 10, 0)


def test_episode_unwinning_start():
    m = gen_refuel(GridSpec(n=3, battery=1, stations=()))
    region = compute_winning_region(m)
    with pytest.raises(UnwinningStartError, match="g11_e1"):
        run_episode(m, region, PRIOR, TINY, 10, 0)


def test_metrics_reject_negative_counts():
    with pytest.raises(ValueError):
        EpisodeMetrics(0, -1, 0.0, 0, False, False, None, None, None)


# -- sources and configs ---------------------------------------------------


def test_source_generator_properties(tiny3_src):
    m = tiny3_src.build()
    assert m.n_states == 10
    assert tiny3_src.domain == "obstacle"
    assert tiny3_src.params == "n=3"


def test_source_file_round_trip(tmp_path, tiny3):
    path = tmp_path / "corridor.pomdp"
    dump_model(tiny3, path)
    src = ModelSource(file=str(path))
    assert model_hash(src.build()) == model_hash(tiny3)
    assert src.domain == "corridor"
    assert src.params == "file"


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"family": "obstacle", "grid": GridSpec(n=3), "file": "x.pomdp"},
        {"family": "obstacle"},
    ],
)
def test_source_validation(kwargs):
    with pytest.raises(ValueError):
        ModelSource(**kwargs)


def test_source_unknown_family():
    src = ModelSource(family="maze", grid=GridSpec(n=3))
    with pytest.raises(ValueError, match="maze"):
        src.build()


def test_experiment_config_validation(tiny3_src):
    good = dict(sources=(tiny3_src,), modes=(NO_SHIELD,))
    ExperimentConfig(**good)
    with pytest.raises(ValueError):
        ExperimentConfig(**good, episodes=0)
    with pytest.raises(ValueError):
        ExperimentConfig(**good, step_cap=0)
    with pytest.raises(ValueError):
        ExperimentConfig(sources=(), modes=(NO_SHIELD,))
    with pytest.raises(ValueError):
        ExperimentConfig(sources=(tiny3_src,), modes=())


# -- region cache ----------------------------------------------------------


def test_obtain_region_caches(tmp_path, tiny3):
    h = model_hash(tiny3)
    first = obtain_region(tiny3, "centralized", str(tmp_path), None)
    assert not first.cached and not first.timed_out
    assert (tmp_path / f"{h}.centralized.region").exists()
    second = obtain_region(tiny3, "centralized", str(tmp_path), None)
    assert second.cached
    assert second.region.elements == first.region.elements


def test_obtain_region_factored_cache(tmp_path, tiny3):
    h = model_hash(tiny3)
    first = obtain_region(tiny3, "factored", str(tmp_path), None)
    assert (tmp_path / f"{h}.factored.region").exists()
    second = obtain_region(tiny3, "factored", str(tmp_path), None)
    assert second.cached
    assert [r.elements for r in second.region.regions] == [
        r.elements for r in first.region.regions
    ]


@pytest.mark.parametrize("family", ["centralized", "factored"])
def test_obtain_region_recomputes_broken_cache(tmp_path, tiny3, family):
    path = tmp_path / f"{model_hash(tiny3)}.{family}.region"
    good = obtain_region(tiny3, family, str(tmp_path), None)
    text = path.read_text()
    # cut inside the first state name of the first region element
    path.write_text(text[: text.index("\nW ") + 4])
    build = obtain_region(tiny3, family, str(tmp_path), None)
    assert not build.cached and not build.timed_out
    assert path.read_text() == text
    assert obtain_region(tiny3, family, str(tmp_path), None).cached
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
    assert type(build.region) is type(good.region)


def test_obtain_region_timeout(tmp_path, tiny3):
    build = obtain_region(tiny3, "centralized", str(tmp_path), 0.0)
    assert build.timed_out
    assert build.region is None
    assert list(tmp_path.iterdir()) == []  # nothing cached on timeout


def test_obtain_region_cache_beats_timeout(tmp_path, tiny3):
    obtain_region(tiny3, "centralized", str(tmp_path), None)
    build = obtain_region(tiny3, "centralized", str(tmp_path), 0.0)
    assert build.cached and not build.timed_out


# -- run_experiment --------------------------------------------------------


@pytest.fixture(scope="module")
def small_report(tmp_path_factory, tiny3_src):
    out = tmp_path_factory.mktemp("exp")
    cfg = ExperimentConfig(
        sources=(tiny3_src,),
        modes=(NO_SHIELD, PRIOR),
        planner=TINY,
        episodes=3,
        step_cap=40,
        measure_time=False,
        cache_dir=str(out / "cache"),
        output=str(out / "results.csv"),
    )
    return cfg, run_experiment(cfg)


def test_experiment_rows_and_csv(small_report):
    cfg, report = small_report
    assert len(report.rows) == 2 * 3
    text = report.csv_text()
    rows = list(csv.DictReader(io.StringIO(text)))
    assert list(rows[0]) == list(CSV_COLUMNS)
    assert [r["mode"] for r in rows] == ["none"] * 3 + ["prior"] * 3
    assert [r["seed"] for r in rows] == ["0", "1", "2"] * 2
    assert all(r["step_time_mean_s"] == "-" for r in rows)
    assert all(r["unsafe"] == "0" for r in rows if r["mode"] == "prior")
    with open(cfg.output) as fh:
        assert fh.read() == text


def test_experiment_csv_is_byte_stable(small_report, tiny3_src):
    cfg, report = small_report
    again = run_experiment(cfg)
    assert again.csv_text() == report.csv_text()
    # the rerun found the region in the cache
    assert again.region_builds[0][2].cached
    assert not report.region_builds[0][2].cached


def test_experiment_aggregate_means(small_report):
    _cfg, report = small_report
    aggs = report.aggregate()
    assert [a["mode"] for a in aggs] == ["none", "prior"]
    for agg in aggs:
        rows = [r for r in report.rows if r["mode"] == agg["mode"]]
        assert agg["episodes"] == len(rows)
        assert agg["return"] == pytest.approx(
            statistics.fmean(float(r["return"]) for r in rows)
        )
        assert agg["unsafe"] == pytest.approx(
            statistics.fmean(int(r["unsafe"]) for r in rows)
        )
        assert agg["reached"] == pytest.approx(
            statistics.fmean(int(r["reached"]) for r in rows)
        )
        assert agg["time_s"] is None


def test_experiment_table_text(small_report):
    _cfg, report = small_report
    text = report.table_text()
    assert "region centralized for obstacle(n=3): computed" in text
    assert re.search(r"^obstacle\s+n=3\s+none\s+3", text, re.M)
    assert re.search(r"^obstacle\s+n=3\s+prior\s+3", text, re.M)


def test_experiment_output_kept_when_rename_fails(tmp_path, tiny3_src,
                                                  monkeypatch):
    out = tmp_path / "results.csv"
    out.write_text("previous results\n")

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr("safepomcp.modelio.os.replace", fail)
    cfg = ExperimentConfig(
        sources=(tiny3_src,),
        modes=(NO_SHIELD,),
        planner=TINY,
        episodes=1,
        step_cap=5,
        measure_time=False,
        output=str(out),
    )
    with pytest.raises(OSError, match="rename failed"):
        run_experiment(cfg)
    assert out.read_text() == "previous results\n"
    assert list(tmp_path.iterdir()) == [out]


def test_experiment_timeout_rows(tiny3_src):
    cfg = ExperimentConfig(
        sources=(tiny3_src,),
        modes=(NO_SHIELD, PRIOR),
        planner=TINY,
        episodes=2,
        step_cap=20,
        measure_time=False,
        region_timeout=0.0,
    )
    report = run_experiment(cfg)
    shielded = [r for r in report.rows if r["mode"] == "prior"]
    assert shielded == [{
        "domain": "obstacle", "params": "n=3", "mode": "prior", "seed": "-",
        "steps": "-", "return": "-", "unsafe": "-", "reached": "-",
        "step_time_mean_s": "-", "step_time_median_s": "-",
    }]
    unshielded = [r for r in report.rows if r["mode"] == "none"]
    assert len(unshielded) == 2  # unshielded cells run without a region
    assert "timed out" in report.table_text()


def test_experiment_timed_rows_have_numbers(tiny3_src):
    cfg = ExperimentConfig(
        sources=(tiny3_src,),
        modes=(NO_SHIELD,),
        planner=TINY,
        episodes=1,
        step_cap=10,
        measure_time=True,
    )
    report = run_experiment(cfg)
    row = report.rows[0]
    assert re.fullmatch(r"\d+\.\d{6}", row["step_time_mean_s"])
    assert float(row["step_time_median_s"]) > 0.0
    assert report.aggregate()[0]["time_s"] > 0.0
