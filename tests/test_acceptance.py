"""Acceptance gate: one test per headline claim, printed as pass/fail lines.

The expensive episode pools are built once per module at the desk profile
(2,000 simulations, 1,000 particles, depth 100, step cap 200) and shared
across criteria:

  - obstacle(6), all five modes, seeds 0-9, timing on   (safety, overhead)
  - the same world as its fixture cell, shielded modes, seeds 10-19
  - obstacle(8), shielded modes, seeds 0-9
  - obstacle(6) unshielded, seeds 100-129               (baseline unsafety)
"""

import statistics
import time
from random import Random

import pytest

from safepomcp import (
    GridSpec,
    Node,
    PlannerConfig,
    ShieldContext,
    ShieldMode,
    compute_winning_region,
    decompose,
    gen_obstacle,
    make_root,
    plan_step,
    prior_prune,
    propagate_factored_regions,
    states_from_mask,
    support_post,
)
from safepomcp.factored import factored_elements_in_parent
from safepomcp.harness import DESK_PROFILE, run_episode
from safepomcp.modelio import model_hash, serialize_model
from safepomcp.winning import (
    powerset_supports,
    productivity_witness,
)

CAP = 200
SHIELDED = (
    ShieldMode.CENTRALIZED_PRIOR,
    ShieldMode.CENTRALIZED_ON_THE_FLY,
    ShieldMode.FACTORED_PRIOR,
    ShieldMode.FACTORED_ON_THE_FLY,
)


def _report(num, label, detail=""):
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num} ({label}): PASS{suffix}", flush=True)


def _episodes(m, region_of, modes, seeds, measure_time=False):
    out = {}
    for mode in modes:
        out[mode] = [
            run_episode(m, region_of(mode), mode, DESK_PROFILE, CAP, seed,
                        measure_time=measure_time)
            for seed in seeds
        ]
    return out


@pytest.fixture(scope="module")
def ob8_setup():
    m = gen_obstacle(GridSpec(n=8))
    centralized = compute_winning_region(m)
    factored = propagate_factored_regions(m, decompose(m))
    return m, centralized, factored


@pytest.fixture(scope="module")
def pools(obstacle6, obstacle6_region, obstacle6_factored, ob8_setup):
    def region_of(regions):
        centralized, factored = regions

        def pick(mode):
            if not mode.shielded:
                return None
            return factored if mode.factored else centralized

        return pick

    ob6_pick = region_of((obstacle6_region, obstacle6_factored))
    ob8, ob8_c, ob8_f = ob8_setup
    elapsed = {}
    t0 = time.perf_counter()
    ob6 = _episodes(obstacle6, ob6_pick, (ShieldMode.NO_SHIELD, *SHIELDED),
                    range(10), measure_time=True)
    fixture = _episodes(obstacle6, ob6_pick, SHIELDED, range(10, 20))
    ob8_pool = _episodes(ob8, region_of((ob8_c, ob8_f)), SHIELDED, range(10))
    elapsed["safety_cells"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    unshielded30 = _episodes(obstacle6, ob6_pick, (ShieldMode.NO_SHIELD,),
                             range(100, 130))[ShieldMode.NO_SHIELD]
    elapsed["baseline"] = time.perf_counter() - t0
    return {
        "ob6": ob6,
        "fixture": fixture,
        "ob8": ob8_pool,
        "unshielded30": unshielded30,
        "elapsed": elapsed,
    }


def test_fixture_world_is_the_generated_default(obstacle6):
    # the two obstacle(6) cells share one model: prove byte identity once
    assert serialize_model(gen_obstacle(GridSpec())) == serialize_model(obstacle6)


def test_criterion_1_shielded_safety(pools):
    total = 0
    episodes = 0
    for pool_name in ("ob6", "fixture", "ob8"):
        for mode in SHIELDED:
            for met in pools[pool_name][mode]:
                total += met.unsafe
                episodes += 1
    assert episodes == 120
    assert total == 0
    secs = pools["elapsed"]["safety_cells"]
    if secs >= 600:
        print(f"criterion 1 runtime {secs:.0f}s exceeded the 10 min guidance")
    _report(1, "shielded safety", f"0 unsafe over {episodes} episodes, {secs:.0f}s")


def test_criterion_2_unshielded_baseline(pools):
    total = sum(met.unsafe for met in pools["unshielded30"])
    assert total >= 1, (
        "0 unsafe visits in 30 unshielded episodes: flag this run for "
        "config review (planner or domain settings are off) instead of "
        "passing silently"
    )
    _report(2, "unshielded baseline", f"{total} unsafe over 30 episodes")


def test_criterion_3_exhaustive_oracle_equivalence(tiny3, tiny3_region, tiny3_oracle):
    for u in powerset_supports(range(tiny3.n_states)):
        expect = frozenset(states_from_mask(u)) in tiny3_oracle
        assert tiny3_region.contains(u) == expect, sorted(
            tiny3.names_from_mask(u)
        )
    subs = decompose(tiny3)
    assert len(subs) == 2
    union = propagate_factored_regions(tiny3, subs, powerset_seeds=True)
    checked = 0
    for sub in subs:
        for u in powerset_supports(states_from_mask(sub.own_parent_mask)):
            expect = frozenset(states_from_mask(u)) in tiny3_oracle
            assert union.contains(u) == expect, sorted(
                tiny3.names_from_mask(u)
            )
            checked += 1
    _report(3, "exhaustive oracle equivalence",
            f"1023 supports centralized, {checked} within-room")


def test_criterion_4_union_inside_centralized(obstacle6, obstacle6_region, obstacle6_factored,
                                              gap6, gap6_region, gap6_factored):
    rng = Random(0)
    witnesses = 0
    for m, centralized, factored in (
        (obstacle6, obstacle6_region, obstacle6_factored),
        (gap6, gap6_region, gap6_factored),
    ):
        elements = factored_elements_in_parent(factored)
        for u in elements:
            assert centralized.contains(u)
        for _ in range(50):
            u = rng.choice(elements)
            bits = list(states_from_mask(u))
            keep = [s for s in bits if rng.random() < 0.7] or [rng.choice(bits)]
            sample = sum(1 << s for s in keep)
            assert factored.contains(sample)
            v = sample
            for a, o in productivity_witness(centralized, m, sample):
                v = support_post(m, v, a, o)
                assert v and centralized.contains(v)
            assert v & ~m.reach_mask == 0
            witnesses += 1
    _report(4, "factored union inside centralized region",
            f"{witnesses} witnesses replayed")


def test_criterion_5_straddling_support_gap(gap6, gap6_region, gap6_factored):
    u = gap6.support_from_names("g14")
    assert gap6_region.contains(u)
    assert not gap6_factored.contains(u)
    _report(5, "straddling support beyond the union", "{g14}")


def test_criterion_6_prior_prune_worked_example(obstacle6, obstacle6_region):
    ctx = ShieldContext(ShieldMode.CENTRALIZED_PRIOR, obstacle6, obstacle6_region)
    support = obstacle6.support_from_names("g12 g13")
    root = Node(sorted(states_from_mask(support)), support, support)
    pruned = prior_prune(ctx, root)
    assert pruned == {obstacle6.action_id["east"]}
    _report(6, "prior pruning worked example", "prunes exactly east")


def test_criterion_7_shielding_overhead(pools):
    def med(mode):
        return statistics.median(
            met.step_time_median for met in pools["ob6"][mode]
        )

    base = med(ShieldMode.NO_SHIELD)
    ratios = {}
    for mode in SHIELDED:
        ratios[mode.value] = med(mode) / base
    assert all(r <= 3.0 for r in ratios.values()), ratios
    detail = ", ".join(f"{k} {v:.2f}x" for k, v in ratios.items())
    _report(7, "per-step overhead under 3x", detail)


def test_criterion_8_planner_picks_better_arm(bandit):
    wins = 0
    for seed in range(100):
        cfg = PlannerConfig(simulations=60, depth=3, particles=64,
                            ucb_c=1.0, seed=seed)
        root = make_root(bandit, cfg)
        if plan_step(bandit, root, cfg) == bandit.action_id["a"]:
            wins += 1
    assert wins >= 95
    _report(8, "planner selects the better arm", f"{wins}/100")


def test_criterion_9_backtracking_return_ordering(pools):
    def returns(mode):
        pool = pools["ob6"][mode] + pools["fixture"][mode]
        return [met.ret for met in pool]

    summary = []
    ok = True
    for prior, otf in (
        (ShieldMode.CENTRALIZED_PRIOR, ShieldMode.CENTRALIZED_ON_THE_FLY),
        (ShieldMode.FACTORED_PRIOR, ShieldMode.FACTORED_ON_THE_FLY),
    ):
        rp, ro = returns(prior), returns(otf)
        se = statistics.stdev(rp) / len(rp) ** 0.5
        summary.append(
            f"{otf.value} {statistics.fmean(ro):.0f} vs {prior.value} "
            f"{statistics.fmean(rp):.0f} (se {se:.0f})"
        )
        if statistics.fmean(ro) < statistics.fmean(rp) - se:
            ok = False
    if ok:
        _report(9, "backtracking return ordering", "; ".join(summary))
    else:
        # statistical tendency, logged but never failed
        print(
            "criterion 9 (backtracking return ordering): WARNING - "
            + "; ".join(summary),
            flush=True,
        )
