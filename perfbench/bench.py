"""The operations of one benchmark run, their checks and their figures.

A run builds the workload's centralized region, then its factored region,
and then plays ``ROUNDS`` rounds of episodes: in each round one seeded
episode per shield mode, the modes interleaved so that drift on the host
hits every mode alike.  Each region build plus its verification is one
operation, and so is each episode.  Build and step times are taken with a
``HostClock``, which expresses them at one fixed host speed.
"""

from __future__ import annotations

import math
import resource
import statistics
from contextlib import ExitStack
from random import Random
from unittest import mock

from safepomcp import factored, harness, shield, winning

import verify
from hostclock import HostClock
from workloads import Workload

# Every run plays this many episodes per mode, so that it attempts the same
# operations whatever its seed or length.  With the step budget below an
# episode is capped at three steps.  On refuel-n6 a backtracking episode's
# steps ramp from about 50 to 130 ms over its first five, and from its third
# step on they differ widely between episodes; with longer episodes the
# median step fell there and moved with the seed (see README.md).
ROUNDS = 34
# Planning steps per mode for each second of --seconds: 40 s gives 102.
STEPS_PER_SECOND = 2.55
# A build shorter than a second is timed as the median of this many repeats.
BUILD_REPEATS = 40


def tree_size(root) -> int:
    """Nodes of a search tree."""
    n = 0
    stack = [root]
    while stack:
        node = stack.pop()
        n += 1
        if node.edges is not None:
            for edge in node.edges:
                if edge is not None:
                    stack.extend(edge.children.values())
    return n


class Probe:
    """Stands in for the planner calls that ``harness.run_episode`` makes.

    A step's decision latency is ``advance_root`` for the previous
    observation, plus ``prior_prune`` in the prior modes, plus
    ``plan_step``; ``step_intervals`` keeps the clock readings around each
    of those calls, grouped by step.  Each executed step is recorded for
    the replay check: the root's particle states and the planned action
    (taken outside the timed calls), then the true state, action,
    successor and observation passed through ``sample_step``.  With a
    tracer, the timed calls are also spans, one trace per step.
    """

    def __init__(self, clock: HostClock, tracer=None):
        self.plan = harness.plan_step
        self.advance = harness.advance_root
        self.prune = harness.prior_prune
        self.sample = harness.sample_step
        self.clock = clock
        self.tracer = tracer
        self.mode = ""
        self.start_episode(0)

    def install(self, stack: ExitStack) -> None:
        for name in ("plan_step", "advance_root", "prior_prune", "sample_step"):
            stack.enter_context(mock.patch.object(harness, name, getattr(self, name)))

    def start_episode(self, seed: int) -> None:
        self.seed = seed
        self.pending: list[tuple] = []
        self.step_intervals: list[list[tuple]] = []
        self.steps: list[tuple] = []
        self.tree_nodes: list[int] = []

    def _timed(self, name, fn, *args, **kwargs):
        tr = self.tracer
        if tr is not None and not self.pending:
            tr.new_trace(kind="step", mode=self.mode, episode=self.seed,
                         step=len(self.step_intervals) + 1)
        r0 = self.clock.reading()
        out = fn(*args, **kwargs)
        r1 = self.clock.reading()
        self.pending.append((r0, r1))
        if tr is not None:
            tr.record(name, r0[0], r1[0])
        return out

    def plan_step(self, m, root, cfg, shield=None, rng=None):
        self._particles = frozenset(root.particles)
        a = self._timed("pomcp.plan_step", self.plan, m, root, cfg,
                        shield=shield, rng=rng)
        self.step_intervals.append(self.pending)
        self.pending = []
        self._planned = a
        if self.tracer is not None:
            self.tree_nodes.append(tree_size(root))
        return a

    def prior_prune(self, ctx, root):
        return self._timed("shield.prior_prune", self.prune, ctx, root)

    def advance_root(self, m, root, a, o, cfg, rng=None):
        if self.tracer is None:
            return self._timed("pomcp.advance_root", self.advance,
                               m, root, a, o, cfg, rng)
        edge = root.edges[a] if root.edges is not None else None
        child = edge.children.get(o) if edge is not None else None
        kept = min(len(child.particles), cfg.particles) if child else 0
        new = self._timed("pomcp.advance_root", self.advance,
                          m, root, a, o, cfg, rng)
        self.tracer.counts[f"refill_accepted.{self.mode}"] += len(new.particles) - kept
        return new

    def sample_step(self, m, s, a, rng):
        step = self.sample(m, s, a, rng)
        self.steps.append(
            (self._particles, self._planned, s, a, step.state, step.obs)
        )
        return step


class Run:
    """One benchmark run: its operations, their checks and its figures."""

    def __init__(self, name: str, wl: Workload, seed: int, seconds: int, m,
                 tracer=None):
        self.name = name
        self.wl = wl
        self.m = m
        self.tracer = tracer
        rng = Random(f"{name}/{seed}")
        self.episode_seeds = [rng.randrange(1 << 30) for _ in range(ROUNDS)]
        self.budget = max(ROUNDS, round(STEPS_PER_SECOND * seconds))
        self.alg = verify.Algebra(m)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.faults: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.raw: dict[str, float] = {}
        self.modes = list(shield.ShieldMode)
        self.build_intervals: dict[str, list[tuple]] = {}
        self.step_intervals: dict[str, list] = {mo.value: [] for mo in self.modes}
        self.episodes: dict[str, list] = {mo.value: [] for mo in self.modes}
        self.centralized = self.factored = None
        self.union_elements = self.closure_holes = 0
        self.cent = self.fact = verify.Closure(())

    def _finish(self, problems: list[str], fault: str | None = None) -> None:
        """Count one operation; ``fault`` names a known program fault."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        elif fault:
            self.failed += 1
            self.faults.append(fault)

    def _timed_build(self, clock: HostClock, fn, key, family: str):
        """The region, and problems between repeats of its build."""
        tr = self.tracer
        intervals = self.build_intervals[family] = []
        first = None
        problems: list[str] = []
        clock.sample()
        while True:
            call = fn
            if tr is not None:
                tr.new_trace(kind="build", family=family, repeat=len(intervals))
                call = tr.spanned(fn, f"build.{family}")
            r0 = clock.reading()
            region = call()
            intervals.append((r0, clock.reading()))
            if first is None:
                first = region
            elif key(region) != key(first):
                problems.append(f"{family} build differs between repeats")
            short = HostClock.raw_seconds(*intervals[0]) < 1.0
            if not short or len(intervals) >= BUILD_REPEATS:
                clock.sample()
                return first, problems

    # -- region builds ---------------------------------------------------

    def builds(self, clock: HostClock) -> None:
        m = self.m
        v = verify
        try:
            w, problems = self._timed_build(
                clock, lambda: winning.compute_winning_region(m),
                lambda r: r.elements, "centralized")
            self.centralized = w
            self.cent = v.Closure(v.states_of(e) for e in w.elements)
            more, holes, barren = v.check_region(self.alg, self.cent, antichain=True)
            problems += more
            problems += [f"centralized closure hole {sorted(h)}" for h in holes]
            problems += [f"no goal reachable from centralized element {sorted(e)}"
                         for e in barren]
            if self.wl.own_fixpoint and (
                v.winning_antichain(self.alg) != set(self.cent.elements)
            ):
                problems.append("centralized region differs from the verifier's fixpoint")
        except Exception as e:  # a raise fails the operation, not the run
            problems = [f"centralized build raised {e!r}"]
        self._finish(problems)

        fault = None
        try:
            f, problems = self._timed_build(
                clock, lambda: factored.propagate_factored_regions(m, factored.decompose(m)),
                lambda r: [reg.elements for reg in r.regions], "factored")
            self.factored = f
            union = [
                frozenset(sub.to_parent[s] for s in v.states_of(e))
                for sub, reg in zip(f.subs, f.regions) for e in reg.elements
            ]
            self.fact = v.Closure(union)
            self.union_elements = len(v.maximal(union))
            more, holes, barren = v.check_region(self.alg, self.fact, antichain=False)
            problems += more
            stuck, outside_reached = v.check_reachable(self.alg, self.fact, self.cent)
            problems += [
                f"factored shield reaches {sorted(u)}, outside the centralized region"
                for u in outside_reached
            ]
            outside = [e for e in set(union) if e not in self.cent]
            self.closure_holes = len(holes)
            if self.wl.factored_fault and (holes or barren or outside or stuck):
                # Propagation seeds rooms with supports the initial support
                # never reaches, and the union it returns is not step-closed.
                fault = (
                    f"factored union is not step-closed: {len(holes)} of its "
                    f"elements and {len(stuck)} supports reachable under its "
                    f"shield have no safe action; from {len(barren)} more of "
                    f"its elements no goal is reachable; {len(outside)} of its "
                    "elements lie outside the centralized region"
                )
            else:
                problems += [f"factored closure hole {sorted(h)}" for h in holes]
                problems += [f"no goal reachable from factored element {sorted(e)}"
                             for e in barren]
                problems += [
                    f"factored shield reaches {sorted(u)}, which has no safe action"
                    for u in stuck
                ]
                problems += [
                    f"factored element {sorted(e)} lies outside the centralized region"
                    for e in outside
                ]
        except Exception as e:  # a raise fails the operation, not the run
            problems = [f"factored build raised {e!r}"]
        self._finish(problems, fault)

    # -- planning --------------------------------------------------------

    def planning(self, probe: Probe) -> None:
        """Every round plays one episode per mode on the same seed.

        A mode's episodes share a budget of planning steps: each episode is
        capped at its share of what the earlier ones left.
        """
        M = shield.ShieldMode
        regions = {
            M.NO_SHIELD: (None, []),
            M.CENTRALIZED_PRIOR: (self.centralized, [self.cent]),
            M.CENTRALIZED_ON_THE_FLY: (self.centralized, [self.cent]),
            M.FACTORED_PRIOR: (self.factored, [self.fact, self.cent]),
            M.FACTORED_ON_THE_FLY: (self.factored, [self.fact, self.cent]),
        }
        remaining = {mo: self.budget for mo in self.modes}
        for i, seed in enumerate(self.episode_seeds):
            for mode in self.modes:
                region, closures = regions[mode]
                cap = max(1, math.ceil(remaining[mode] / (ROUNDS - i)))
                probe.mode = mode.value
                probe.start_episode(seed)
                try:
                    res = harness.run_episode(
                        self.m, region, mode, harness.DESK_PROFILE, cap, seed)
                except Exception as e:  # a raise fails the operation
                    self._finish([f"{mode.value} episode {seed} raised {e!r}"])
                    continue
                remaining[mode] -= res.steps
                self.step_intervals[mode.value] += probe.step_intervals
                self.episodes[mode.value].append((res, probe.tree_nodes))
                problems = []
                if mode.shielded:
                    problems = [
                        f"{mode.value} episode {seed}: {p}"
                        for p in verify.replay_episode(self.alg, probe.steps, closures)
                    ]
                self._finish(problems)

    def step_ms(self, clock: HostClock, mode: str, corrected: bool = True) -> list[float]:
        """Decision latency of each step of ``mode``, in ms."""
        if corrected:
            return [
                1000.0 * sum(clock.seconds(r0, r1) for r0, r1 in step)
                for step in self.step_intervals[mode]
            ]
        return [
            1000.0 * sum(HostClock.raw_seconds(r0, r1) for r0, r1 in step)
            for step in self.step_intervals[mode]
        ]

    def result(self) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                k: {"value": val, "unit": unit}
                for k, (val, unit) in self.metrics.items()
            },
        }


def run_untraced(run: Run, setup_s: float) -> None:
    """The end-to-end figures: set-up, builds, step latency and memory.

    Set-up is one cold start of the process, timed as it was: it is not
    interpreter-bound, so the host clock's correction does not fit it.
    """
    with HostClock() as clock:
        run.builds(clock)
        with ExitStack() as stack:
            probe = Probe(clock)
            probe.install(stack)
            run.planning(probe)
    run.metrics["setup_s"] = (setup_s, "s")
    for family, intervals in run.build_intervals.items():
        # Each repeat at the speed sampled next to it, then the median:
        # scaling the median repeat by the mean speed of all repeats let a
        # burst of slow samples shrink the figure.
        run.raw[f"build_{family}_s"] = statistics.median(
            HostClock.raw_seconds(r0, r1) for r0, r1 in intervals)
        run.metrics[f"build_{family}_s"] = (
            statistics.median(clock.seconds(r0, r1) for r0, r1 in intervals), "s")
    for mode in run.step_intervals:
        times = run.step_ms(clock, mode)
        raw = run.step_ms(clock, mode, corrected=False)
        if len(times) < 2:
            continue
        run.metrics[f"step_ms_p50.{mode}"] = (statistics.median(times), "ms")
        run.metrics[f"step_ms_p90.{mode}"] = (
            statistics.quantiles(times, n=10)[8], "ms")
        run.raw[f"step_ms_p50.{mode}"] = statistics.median(raw)
        run.raw[f"step_ms_p90.{mode}"] = statistics.quantiles(raw, n=10)[8]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.metrics["peak_rss_mb"] = (rss, "MB")
