"""Episode execution, experiment orchestration, and Table-style reports.

An episode couples the planner with a ground-truth simulator of the same
model: plan a step, execute the chosen action on the true state, record
reward and safety, advance the search tree with the received observation,
repeat.  Episodes stop on reach contact, at the step cap, or on belief
collapse, and continue through unsafe visits so that unsafe counts can
exceed one.

Experiments run a grid of (domain, mode) cells over seeded episodes,
cache winning regions on disk keyed by model hash and region family, and
emit a per-episode CSV plus an aggregate table of means.  Per-step search
times are optional; with timing off the CSV is byte-stable across reruns.
"""

from __future__ import annotations

import csv
import io
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import TextIO

from .domains import GENERATORS, GridSpec
from .factored import (
    decompose,
    parse_factored,
    propagate_factored_regions,
    serialize_factored,
)
from .model import Pomdp, sample_initial, sample_step
from .model import support_post_all  # perfbench/layers.py patches this name
from .modelio import load_model, model_hash
from .pomcp import (
    BeliefCollapseError,
    PlannerConfig,
    advance_root,
    make_root,
    plan_step,
)
from .shield import SafetyViolation, ShieldContext, ShieldMode, ShieldStats, prior_prune
from .winning import (
    Region,
    RegionFileError,
    RegionTimeout,
    branches_inside,
    compute_winning_region,
    parse_region,
    serialize_region,
)

DESK_PROFILE = PlannerConfig(simulations=2_000, depth=100, particles=1_000)
FULL_PROFILE = PlannerConfig()
DEFAULT_STEP_CAP = 200

CSV_COLUMNS = (
    "domain", "params", "mode", "seed", "steps", "return", "unsafe",
    "reached", "step_time_mean_s", "step_time_median_s",
)


class UnwinningStartError(RuntimeError):
    """The initial belief support is not in the shield's region."""


@dataclass(frozen=True)
class EpisodeMetrics:
    """Per-episode results; times are None when timing was off."""

    seed: int
    steps: int
    ret: float
    unsafe: int
    reached: bool
    collapsed: bool
    step_time_mean: float | None
    step_time_median: float | None
    shield_stats: ShieldStats | None

    def __post_init__(self):
        if self.unsafe < 0 or self.steps < 0:
            raise ValueError("negative episode counters")


def run_episode(
    m: Pomdp,
    region: Region | None,
    mode: ShieldMode,
    cfg: PlannerConfig,
    cap: int,
    seed: int,
    *,
    measure_time: bool = False,
    trace: TextIO | None = None,
) -> EpisodeMetrics:
    """One planning episode against the ground-truth simulator.

    For shielded modes the initial support must be in the region, and two
    safety assertions run every step: the executed action's exact
    observation branches all stay in the region, and the true state never
    visits AVOID.  Either failing raises SafetyViolation, because for
    these modes safety is a theorem, not a metric.
    """
    if cap < 1:
        raise ValueError("step cap must be positive")
    rng = Random(seed)
    root = make_root(m, cfg, rng)
    s = sample_initial(m, rng)
    ctx = None
    if mode.shielded:
        if region is None:
            raise ValueError(f"mode {mode.value} needs a region")
        ctx = ShieldContext(mode, m, region)
        if not ctx.contains(root.support):
            raise UnwinningStartError(
                "initial support "
                f"{sorted(m.names_from_mask(root.support))} is not winning"
            )
    steps = unsafe = 0
    total = 0.0
    reached = bool((1 << s) & m.reach_mask)
    collapsed = False
    times: list[float] = []
    while not reached and steps < cap:
        if ctx is not None and mode.prior:
            prior_prune(ctx, root)
        t0 = time.perf_counter() if measure_time else 0.0
        a = plan_step(m, root, cfg, shield=ctx, rng=rng)
        if measure_time:
            times.append(time.perf_counter() - t0)
        if ctx is not None and not branches_inside(
            m, root.support, a, ctx.contains
        ):
            raise SafetyViolation(
                f"action {m.action_names[a]} from support "
                f"{sorted(m.names_from_mask(root.support))} has a "
                "branch outside the region"
            )
        step = sample_step(m, s, a, rng)
        total += step.reward
        steps += 1
        s = step.state
        if (1 << s) & m.avoid_mask:
            unsafe += 1
        reached = bool((1 << s) & m.reach_mask)
        if trace is not None:
            support_names = ",".join(sorted(m.names_from_mask(root.support)))
            trace.write(
                f"step={steps} action={m.action_names[a]} "
                f"obs={m.obs_names[step.obs]} support={support_names}\n"
            )
        if reached or steps >= cap:
            break
        try:
            root = advance_root(m, root, a, step.obs, cfg, rng)
        except BeliefCollapseError:
            collapsed = True
            break
    if mode.shielded and unsafe:
        raise SafetyViolation(
            f"shielded mode {mode.value} recorded {unsafe} unsafe visits"
        )
    return EpisodeMetrics(
        seed=seed,
        steps=steps,
        ret=total,
        unsafe=unsafe,
        reached=reached,
        collapsed=collapsed,
        step_time_mean=statistics.fmean(times) if times else None,
        step_time_median=statistics.median(times) if times else None,
        shield_stats=ctx.stats() if ctx is not None else None,
    )


@dataclass(frozen=True)
class ModelSource:
    """Where a cell's model comes from: a generator family or a file."""

    family: str | None = None
    grid: GridSpec | None = None
    file: str | None = None

    def __post_init__(self):
        if (self.file is None) == (self.family is None):
            raise ValueError("give exactly one of family or file")
        if self.family is not None and self.grid is None:
            raise ValueError("generator sources need a GridSpec")

    def build(self) -> Pomdp:
        if self.file is not None:
            return load_model(self.file)
        gen = GENERATORS.get(self.family)
        if gen is None:
            raise ValueError(f"unknown domain family {self.family!r}")
        return gen(self.grid)

    @property
    def domain(self) -> str:
        if self.file is not None:
            return Path(self.file).stem
        return self.family

    @property
    def params(self) -> str:
        if self.file is not None:
            return "file"
        return f"n={self.grid.n}"


@dataclass(frozen=True)
class ExperimentConfig:
    """A grid of (domain, mode) cells plus planner and caching settings."""

    sources: tuple[ModelSource, ...]
    modes: tuple[ShieldMode, ...]
    planner: PlannerConfig = DESK_PROFILE
    episodes: int = 10
    step_cap: int = DEFAULT_STEP_CAP
    seed_base: int = 0
    measure_time: bool = True
    cache_dir: str | None = None
    output: str | None = None
    region_timeout: float | None = 3600.0

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.step_cap < 1:
            raise ValueError("step cap must be >= 1")
        if not self.sources or not self.modes:
            raise ValueError("need at least one domain and one mode")


@dataclass
class RegionBuild:
    """Outcome of obtaining one region: the handle, timing, provenance."""

    family: str
    region: Region | None
    seconds: float
    cached: bool
    timed_out: bool = False


def write_text_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` under a per-process temporary name in the
    same directory and rename it into place, so no reader sees a
    half-written file; on failure the temporary file is removed and an
    existing ``path`` is left as it was."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def obtain_region(
    m: Pomdp,
    family: str,
    cache_dir: str | None,
    timeout: float | None,
) -> RegionBuild:
    """Load a region from the cache or compute and store it.

    ``family`` is "centralized" or "factored".  A cache file that fails to
    parse is recomputed and overwritten; files are stored with
    ``write_text_atomic``.  A timeout yields a build with ``region=None``
    and ``timed_out=True``; experiment cells needing it are then reported
    as "-" rather than failing the whole run.
    """
    path = None
    if cache_dir is not None:
        path = Path(cache_dir) / f"{model_hash(m)}.{family}.region"
        if path.exists():
            t0 = time.perf_counter()
            text = path.read_text()
            try:
                region = (
                    parse_factored(text, m) if family == "factored"
                    else parse_region(text, m)
                )
                return RegionBuild(family, region, time.perf_counter() - t0, True)
            except RegionFileError:
                pass  # rebuilt and overwritten below
    deadline = time.monotonic() + timeout if timeout is not None else None
    t0 = time.perf_counter()
    try:
        if family == "factored":
            region = propagate_factored_regions(m, decompose(m), deadline=deadline)
        else:
            region = compute_winning_region(m, deadline=deadline)
    except RegionTimeout:
        return RegionBuild(family, None, time.perf_counter() - t0, False, True)
    seconds = time.perf_counter() - t0
    if path is not None:
        text = (
            serialize_factored(region, m) if family == "factored"
            else serialize_region(region, m)
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        write_text_atomic(path, text)
    return RegionBuild(family, region, seconds, False)


@dataclass
class ExperimentReport:
    """Everything run_experiment produced, before formatting."""

    rows: list[dict] = field(default_factory=list)
    region_builds: list[tuple[str, str, RegionBuild]] = field(default_factory=list)

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        return buf.getvalue()

    def aggregate(self) -> list[dict]:
        """Mean per (domain, params, mode) cell, in first-seen order.

        Placeholder rows from timed-out region builds carry no metrics and
        are skipped; the region line in table_text records the timeout.
        """
        cells: dict[tuple[str, str, str], list[dict]] = {}
        for row in self.rows:
            if row["seed"] == "-":
                continue
            key = (row["domain"], row["params"], row["mode"])
            cells.setdefault(key, []).append(row)
        out = []
        for (domain, params, mode), rows in cells.items():
            n = len(rows)
            timed = [r for r in rows if r["step_time_mean_s"] != "-"]
            out.append({
                "domain": domain,
                "params": params,
                "mode": mode,
                "episodes": n,
                "time_s": (
                    sum(float(r["step_time_mean_s"]) for r in timed) / len(timed)
                    if timed else None
                ),
                "return": sum(float(r["return"]) for r in rows) / n,
                "unsafe": sum(int(r["unsafe"]) for r in rows) / n,
                "reached": sum(int(r["reached"]) for r in rows) / n,
            })
        return out

    def table_text(self) -> str:
        lines = []
        for domain, params, build in self.region_builds:
            status = "cached" if build.cached else (
                "timed out" if build.timed_out else "computed"
            )
            lines.append(
                f"region {build.family} for {domain}({params}): "
                f"{status} in {build.seconds:.2f}s"
            )
        header = (
            f"{'domain':<12}{'params':<10}{'mode':<20}{'eps':>4}"
            f"{'time_s':>9}{'return':>10}{'unsafe':>8}{'reached':>8}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for agg in self.aggregate():
            t = "-" if agg["time_s"] is None else f"{agg['time_s']:.3f}"
            lines.append(
                f"{agg['domain']:<12}{agg['params']:<10}{agg['mode']:<20}"
                f"{agg['episodes']:>4}{t:>9}{agg['return']:>10.1f}"
                f"{agg['unsafe']:>8.2f}{agg['reached']:>8.2f}"
            )
        return "\n".join(lines) + "\n"


def _fmt_time(value: float | None) -> str:
    return "-" if value is None else f"{value:.6f}"


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run every (domain, mode, seed) cell and collect the report.

    Regions are obtained once per (model, family) and shared across modes
    of that family; cells whose region timed out are recorded with "-"
    placeholders instead of episode rows.
    """
    report = ExperimentReport()
    for source in cfg.sources:
        m = source.build()
        families = {
            "factored" if mode.factored else "centralized"
            for mode in cfg.modes if mode.shielded
        }
        regions: dict[str, RegionBuild] = {}
        for family in sorted(families):
            build = obtain_region(m, family, cfg.cache_dir, cfg.region_timeout)
            regions[family] = build
            report.region_builds.append((source.domain, source.params, build))
        for mode in cfg.modes:
            region = None
            if mode.shielded:
                build = regions["factored" if mode.factored else "centralized"]
                if build.timed_out:
                    report.rows.append({
                        "domain": source.domain, "params": source.params,
                        "mode": mode.value, "seed": "-", "steps": "-",
                        "return": "-", "unsafe": "-", "reached": "-",
                        "step_time_mean_s": "-", "step_time_median_s": "-",
                    })
                    continue
                region = build.region
            for i in range(cfg.episodes):
                seed = cfg.seed_base + i
                metrics = run_episode(
                    m, region, mode, cfg.planner, cfg.step_cap, seed,
                    measure_time=cfg.measure_time,
                )
                report.rows.append({
                    "domain": source.domain,
                    "params": source.params,
                    "mode": mode.value,
                    "seed": seed,
                    "steps": metrics.steps,
                    "return": repr(metrics.ret),
                    "unsafe": metrics.unsafe,
                    "reached": int(metrics.reached),
                    "step_time_mean_s": _fmt_time(metrics.step_time_mean),
                    "step_time_median_s": _fmt_time(metrics.step_time_median),
                })
    if cfg.output is not None:
        Path(cfg.output).write_text(report.csv_text())
    return report
