"""The traced run: per-layer figures for the operations of an untraced run.

The run makes the same builds, checks and episodes as an untraced run, with
spans and counters around the calls into ``winning``, ``factored``,
``shield``, ``pomcp``, ``harness`` and ``modelio``.  Two passes follow
that are not operations: a stdlib-profiler pass over the first
``PROFILE_STEPS`` steps of one episode per mode, and a warm-cache region
load through ``harness.obtain_region``.  A build's memory is the growth of
resident memory during its first repeat, from the host clock's samples:
``tracemalloc`` would make the refuel-n6 builds take 48 s and 106 s
instead of 6 s and 10 s.  Spans go to
``out/spans-<workload>-seed<seed>.jsonl`` and profiles to
``out/profile-<workload>-seed<seed>.txt``.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

from safepomcp import factored, harness, modelio, pomcp, shield, winning

import bench
from hostclock import HostClock
from tracing import Tracer, wrap
from workloads import Workload

OUT = Path(__file__).resolve().parent / "out"
PROFILE_STEPS = 6


def ref_loop_ms() -> float:
    """A fixed pure-Python loop, timed to show host drift next to a result."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1000.0


def _instrument_builds(p: ExitStack, tr: Tracer, m) -> None:
    def graph_stats(fn):
        def wrapper(*args, **kwargs):
            g = fn(*args, **kwargs)
            tr.counts[f"vertices.{tr.trace}"] = len(g.vertices)
            tr.counts[f"branches.{tr.trace}"] = sum(
                len(b) for per_action in g.edges for b in per_action)
            return g
        return wrapper

    def rounds(fn):
        def wrapper(deadline, what):
            if what == "winning fixpoint":
                tr.counts[f"rounds.{tr.trace}"] += 1
            return fn(deadline, what)
        return wrapper

    wrap(p, [winning], "build_support_graph",
           lambda f: graph_stats(tr.spanned(f, "winning.build_support_graph")))
    for name in ("winning_masks", "antichain"):
        wrap(p, [winning], name, lambda f, n=name: tr.spanned(f, f"winning.{n}"))
    wrap(p, [winning], "_check_deadline", rounds)
    for name in ("decompose", "propagate_factored_regions"):
        wrap(p, [factored], name, lambda f, n=name: tr.spanned(f, f"factored.{n}"))
    wrap(p, [factored], "build_support_graph", lambda f: tr.spanned(
        f, lambda model, *a: "factored.parent_graph" if model is m else "factored.room_graph"))


def _build_metrics(run: bench.Run, tr: Tracer) -> dict:
    def traces(family):
        return [t for t, meta in tr.traces.items()
                if meta.get("kind") == "build" and meta["family"] == family]

    def med(name, ts):
        return statistics.median(sum(tr.durations(name, t)) for t in ts)

    cent, fact = traces("centralized"), traces("factored")
    out = {}
    if run.centralized is not None:
        out.update({
            "winning.graph_s": (med("winning.build_support_graph", cent), "s"),
            "winning.graph_vertices": (tr.counts[f"vertices.{cent[0]}"], "count"),
            "winning.graph_branches": (tr.counts[f"branches.{cent[0]}"], "count"),
            "winning.fixpoint_s": (med("winning.winning_masks", cent), "s"),
            "winning.fixpoint_rounds": (tr.counts[f"rounds.{cent[0]}"], "count"),
            "winning.antichain_s": (med("winning.antichain", cent), "s"),
            "winning.antichain_size": (len(run.centralized.elements), "count"),
        })
    if run.factored is not None:
        out.update({
            "factored.decompose_s": (med("factored.decompose", fact), "s"),
            "factored.parent_graph_s": (med("factored.parent_graph", fact), "s"),
            "factored.room_graph_s": (med("factored.room_graph", fact), "s"),
            "factored.room_fixpoint_s": (med("winning.winning_masks", fact), "s"),
            "factored.recomputes": (run.factored.recomputes, "count"),
            "factored.queue_pushes": (run.factored.queue_pushes, "count"),
            "factored.union_elements": (run.union_elements, "count"),
            "factored.closure_holes": (run.closure_holes, "count"),
        })
    return out


def _planning_metrics(run: bench.Run, tr: Tracer, clock: HostClock) -> dict:
    span_s: dict[tuple[str, str], float] = {}
    for _sid, _parent, tid, name, start, end in tr.spans:
        meta = tr.traces[tid]
        if meta.get("kind") == "step":
            key = (name, meta["mode"])
            span_s[key] = span_s.get(key, 0.0) + end - start

    out = {}
    for mode in run.modes:
        mv = mode.value
        results = [res for res, _nodes in run.episodes[mv]]
        nodes = [n for _res, ns in run.episodes[mv] for n in ns]
        if not results:
            continue
        out[f"harness.steps.{mv}"] = (sum(r.steps for r in results), "count")
        out[f"harness.return_mean.{mv}"] = (statistics.fmean(r.ret for r in results), "reward")
        out[f"harness.reached.{mv}"] = (statistics.fmean(r.reached for r in results), "ratio")
        out[f"trace.step_ms_p50.{mv}"] = (statistics.median(run.step_ms(clock, mv)), "ms")
        out[f"pomcp.plan_s.{mv}"] = (span_s.get(("pomcp.plan_step", mv), 0.0), "s")
        out[f"pomcp.advance_s.{mv}"] = (span_s.get(("pomcp.advance_root", mv), 0.0), "s")
        out[f"pomcp.tree_nodes.{mv}"] = (statistics.fmean(nodes), "count")
        draws = tr.counts[f"refill.{mv}"]
        out[f"pomcp.refill_draws.{mv}"] = (draws, "count")
        out[f"pomcp.refill_accept_ratio.{mv}"] = (
            tr.counts[f"refill_accepted.{mv}"] / draws if draws else 0.0, "ratio")
        if not mode.shielded:
            continue
        queries = sum(r.shield_stats.queries for r in results)
        out[f"shield.queries.{mv}"] = (queries, "count")
        out[f"shield.contains_s.{mv}"] = (tr.times[f"contains.{mv}"], "s")
        out[f"shield.root_pruned.{mv}"] = (
            sum(r.shield_stats.root_pruned for r in results), "count")
        if mode.prior:
            out[f"shield.prior_prune_s.{mv}"] = (
                span_s.get(("shield.prior_prune", mv), 0.0), "s")
        else:
            sim = sum(r.shield_stats.sim_pruned for r in results)
            out[f"shield.root_verdict_s.{mv}"] = (tr.times[f"root_verdict.{mv}"], "s")
            out[f"shield.sim_pruned.{mv}"] = (sim, "count")
            out[f"shield.sim_prune_ratio.{mv}"] = (sim / queries if queries else 0.0, "ratio")
    out["pomcp.collapses"] = (
        sum(res.collapsed for eps in run.episodes.values() for res, _n in eps), "count")
    return out


def _profile_pass(run: bench.Run, regions: dict, path: Path) -> dict:
    """Shares of ``plan_step`` time, from cProfile over a few steps per mode."""
    out = {}
    with open(path, "w") as fh:
        for mode in run.modes:
            prof = cProfile.Profile()
            plan = harness.plan_step

            def profiled(*args, **kwargs):
                prof.enable()
                try:
                    return plan(*args, **kwargs)
                finally:
                    prof.disable()

            with mock.patch.object(harness, "plan_step", profiled):
                try:
                    harness.run_episode(run.m, regions[mode], mode, harness.DESK_PROFILE,
                                        PROFILE_STEPS, run.episode_seeds[0])
                except Exception as e:  # the same episode fails its operation
                    run.problems.append(f"profiled {mode.value} episode raised {e!r}")
                    continue
            stats = pstats.Stats(prof, stream=fh)
            fh.write(f"== {mode.value}: first {PROFILE_STEPS} steps of episode "
                     f"{run.episode_seeds[0]}\n")
            stats.sort_stats("cumulative").print_stats(20)
            by_name = {
                name: (tt, ct) for (fname, _line, name), (_cc, _nc, tt, ct, _callers)
                in stats.stats.items() if fname.endswith("pomcp.py")
            }
            total = by_name["plan_step"][1]
            mv = mode.value
            out[f"pomcp.rollout_share.{mv}"] = (by_name["rollout"][1] / total, "ratio")
            out[f"pomcp.simulate_share.{mv}"] = (by_name["simulate"][0] / total, "ratio")
            out[f"pomcp.ucb_share.{mv}"] = (by_name["ucb_select"][1] / total, "ratio")
    return out


def _region_load_s(run: bench.Run) -> float:
    """Warm-cache read of both regions through ``harness.obtain_region``."""
    m = run.m
    with tempfile.TemporaryDirectory(dir=OUT) as cache:
        h = modelio.model_hash(m)
        Path(cache, f"{h}.centralized.region").write_text(
            winning.serialize_region(run.centralized, m))
        Path(cache, f"{h}.factored.region").write_text(
            factored.serialize_factored(run.factored, m))
        t0 = time.perf_counter()
        cent = harness.obtain_region(m, "centralized", cache, None)
        fact = harness.obtain_region(m, "factored", cache, None)
        secs = time.perf_counter() - t0
    if not (cent.cached and fact.cached):
        run.problems.append("obtain_region did not read the cached regions")
    elif cent.region.elements != run.centralized.elements or (
        [r.elements for r in fact.region.regions]
        != [r.elements for r in run.factored.regions]
    ):
        run.problems.append("a region read back from its file differs from the built one")
    return secs


def run_traced(name: str, wl: Workload, seed: int, seconds: int, m,
               generated: tuple[float, float]) -> bench.Run:
    OUT.mkdir(exist_ok=True)
    ref_start = ref_loop_ms()
    tr = Tracer()
    tr.new_trace(kind="setup")
    tr.record("domains.generate", *generated)
    run = bench.Run(name, wl, seed, seconds, m, tr)
    metrics = run.metrics
    metrics["domains.generate_s"] = (generated[1] - generated[0], "s")

    with HostClock() as clock, ExitStack() as hot:
        wrap(hot, [winning, factored, shield, harness], "model_hash",
                 lambda f: tr.counted(f, lambda: "model_hash"))
        wrap(hot, [winning, factored, shield, harness], "support_post_all",
                 lambda f: tr.counted(f, lambda: "support_post_all"))
        with ExitStack() as p:
            _instrument_builds(p, tr, m)
            run.builds(clock)
        with ExitStack() as p:
            probe = bench.Probe(clock, tr)
            probe.install(p)

            def per_mode(kind):
                return lambda: f"{kind}.{probe.mode}"

            wrap(p, [shield.ShieldContext], "contains",
                   lambda f: tr.counted(f, per_mode("contains")))
            wrap(p, [shield.ShieldContext], "root_action_allowed",
                   lambda f: tr.counted(f, per_mode("root_verdict")))
            wrap(p, [pomcp], "sample_step", lambda f: tr.counted(f, per_mode("refill")))
            run.planning(probe)

    metrics["modelio.model_hash_calls"] = (tr.counts["model_hash"], "count")
    metrics["modelio.model_hash_s"] = (tr.times["model_hash"], "s")
    metrics["model.support_post_all_calls"] = (tr.counts["support_post_all"], "count")
    metrics["model.support_post_all_s"] = (tr.times["support_post_all"], "s")
    metrics.update(_build_metrics(run, tr))
    metrics.update(_planning_metrics(run, tr, clock))

    for layer, family in (("winning", "centralized"), ("factored", "factored")):
        if not run.build_intervals.get(family):
            continue
        (t0, _), (t1, _) = run.build_intervals[family][0]
        metrics[f"{layer}.build_rss_growth_mb"] = (clock.rss_growth_mb(t0, t1), "MB")
    if run.centralized is not None and run.factored is not None:
        regions = {mode: (run.factored if mode.factored else run.centralized)
                   if mode.shielded else None for mode in run.modes}
        metrics.update(_profile_pass(run, regions, OUT / f"profile-{name}-seed{seed}.txt"))
        metrics["harness.region_load_s"] = (_region_load_s(run), "s")

    metrics["machine.ref_loop_ms"] = ((ref_start + ref_loop_ms()) / 2, "ms")
    tr.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    return run
