"""Command-line front end: generate models, compute regions, plan, benchmark.

Subcommands: ``generate`` writes a domain instance as a model file,
``region`` computes a winning region (centralized or factored) and writes
it next to the model, ``plan`` runs one shielded episode, ``bench`` runs
an experiment grid from a YAML config and prints the aggregate table,
``check`` re-validates a region file against a model (step closure plus
productivity-witness replay).

Exit codes: 0 success, 2 invalid input or configuration (a support graph
over its vertex cap or out of memory included), 3 region computation
timeout, 4 safety assertion failure during an episode.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from random import Random
from typing import Sequence

import yaml

from .domains import GENERATORS, GridSpec, factored_gap_world, render_layout
from .factored import factored_elements_in_parent, parse_factored, serialize_factored
from .harness import (
    DEFAULT_STEP_CAP,
    DESK_PROFILE,
    FULL_PROFILE,
    ExperimentConfig,
    ModelSource,
    UnwinningStartError,
    obtain_region,
    run_episode,
    run_experiment,
)
from .model import ModelError, Pomdp, support_post
from .modelio import dump_model, load_model, write_text_atomic
from .pomcp import PlannerConfig
from .shield import SafetyViolation, ShieldMode
from .winning import (
    GraphCapExceeded,
    RegionFileError,
    RegionMisuseError,
    RegionTimeout,
    WitnessError,
    allowed_actions,
    parse_region,
    productivity_witness,
    serialize_region,
)

PLANNER_OVERRIDES = ("simulations", "particles", "depth", "ucb_c", "discount")


def _grid_from_args(args) -> GridSpec:
    fields = (
        "n", "slip", "obs_noise", "battery", "seed", "random_obstacles",
        "start", "goal", "sense_half_distance",
    )
    kwargs = {k: getattr(args, k) for k in fields if getattr(args, k) is not None}
    if args.obstacle:
        kwargs["obstacles"] = tuple(args.obstacle)
    if args.station:
        kwargs["stations"] = tuple(args.station)
    if args.rock:
        kwargs["rocks"] = tuple(args.rock)
    return GridSpec(**kwargs)


def _cmd_generate(args) -> int:
    if args.family == "gap":
        m = factored_gap_world()
        gs = None
    else:
        gs = _grid_from_args(args)
        m = GENERATORS[args.family](gs)
    dump_model(m, args.output)
    print(
        f"wrote {args.output}: {m.n_states} states, {m.n_actions} actions, "
        f"{m.n_obs} observations"
    )
    if args.preview and gs is not None:
        sys.stdout.write(render_layout(gs, args.family))
    return 0


def _build_region(m: Pomdp, family: str, timeout: float):
    """Build a ``family`` region through ``obtain_region`` with no cache;
    a ``timeout`` of 0 or less disables the deadline."""
    build = obtain_region(m, family, None, timeout if timeout > 0 else None)
    if build.timed_out:
        raise RegionTimeout(f"{family} region computation exceeded {timeout}s")
    return build


def _cmd_region(args) -> int:
    m = load_model(args.model)
    family = "factored" if args.factored else "centralized"
    build = _build_region(m, family, args.timeout)
    region = build.region
    if args.factored:
        text = serialize_factored(region, m)
        n_elems = sum(len(r.elements) for r in region.regions)
        kind = (
            f"factored over {len(region.subs)} submodels "
            f"({region.queue_pushes} queue pushes)"
        )
    else:
        text = serialize_region(region, m)
        n_elems = len(region.elements)
        kind = "centralized"
    write_text_atomic(Path(args.output), text)
    print(
        f"wrote {args.output}: {kind}, {n_elems} antichain elements "
        f"in {build.seconds:.2f}s"
    )
    return 0


def _region_file_kind(text: str) -> str:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("submodels"):
            return "factored"
    return "centralized"


def _load_region(path: str, m: Pomdp, mode: ShieldMode):
    text = Path(path).read_text()
    kind = _region_file_kind(text)
    want = "factored" if mode.factored else "centralized"
    if kind != want:
        raise RegionFileError(
            f"{path} holds a {kind} region but mode {mode.value} needs {want}"
        )
    return parse_factored(text, m) if mode.factored else parse_region(text, m)


def _with_overrides(base: PlannerConfig, values: dict) -> PlannerConfig:
    """``base`` with the planner fields that ``values`` names replaced."""
    overrides = {k: values[k] for k in PLANNER_OVERRIDES if k in values}
    return dataclasses.replace(base, **overrides) if overrides else base


def _cmd_plan(args) -> int:
    m = load_model(args.model)
    mode = ShieldMode.from_name(args.mode)
    region = None
    if mode.shielded:
        if args.region is not None:
            region = _load_region(args.region, m, mode)
        else:
            family = "factored" if mode.factored else "centralized"
            region = _build_region(m, family, args.timeout).region
    given = {k: v for k, v in vars(args).items() if v is not None}
    cfg = _with_overrides(FULL_PROFILE if args.full else DESK_PROFILE, given)
    metrics = run_episode(
        m, region, mode, cfg, args.cap, args.seed,
        measure_time=args.time,
        trace=sys.stdout if args.trace else None,
    )
    line = (
        f"mode={mode.value} seed={metrics.seed} steps={metrics.steps} "
        f"return={metrics.ret:g} unsafe={metrics.unsafe} "
        f"reached={'yes' if metrics.reached else 'no'}"
    )
    if metrics.collapsed:
        line += " collapsed=yes"
    print(line)
    if metrics.step_time_mean is not None:
        print(
            f"step_time mean={metrics.step_time_mean:.4f}s "
            f"median={metrics.step_time_median:.4f}s"
        )
    if metrics.shield_stats is not None:
        st = metrics.shield_stats
        print(
            f"shield queries={st.queries} root_pruned={st.root_pruned} "
            f"sim_pruned={st.sim_pruned}"
        )
    return 0


def load_bench_config(path: str | Path) -> ExperimentConfig:
    """Build an ExperimentConfig from a YAML mapping.

    Keys: ``domains`` (list of {family, grid fields} or {file}), ``modes``
    (list of mode names), ``profile`` (desk/full), optional planner
    overrides (simulations, particles, depth, ucb_c, discount), and the
    ExperimentConfig scalars (episodes, step_cap, seed_base, measure_time,
    cache_dir, output, region_timeout).
    """
    raw = yaml.safe_load(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError("bench config must be a YAML mapping")
    sources = []
    for entry in raw.get("domains", ()):
        if not isinstance(entry, dict) or ("family" in entry) == ("file" in entry):
            raise ValueError(
                "each domain entry needs exactly one of 'family' or 'file'"
            )
        if "file" in entry:
            sources.append(ModelSource(file=entry["file"]))
        else:
            grid_kwargs = {k: v for k, v in entry.items() if k != "family"}
            try:
                grid = GridSpec(**grid_kwargs)
            except TypeError as e:
                raise ValueError(f"bad grid field: {e}") from None
            sources.append(ModelSource(family=entry["family"], grid=grid))
    modes = tuple(ShieldMode.from_name(name) for name in raw.get("modes", ()))
    profile = raw.get("profile", "desk")
    if profile not in ("desk", "full"):
        raise ValueError(f"unknown profile {profile!r} (desk or full)")
    planner = _with_overrides(
        FULL_PROFILE if profile == "full" else DESK_PROFILE, raw
    )
    scalars = {
        k: raw[k]
        for k in (
            "episodes", "step_cap", "seed_base", "measure_time",
            "cache_dir", "output", "region_timeout",
        )
        if k in raw
    }
    return ExperimentConfig(
        sources=tuple(sources), modes=modes, planner=planner, **scalars
    )


def _cmd_bench(args) -> int:
    cfg = load_bench_config(args.config)
    if args.output is not None:
        cfg = dataclasses.replace(cfg, output=args.output)
    report = run_experiment(cfg)
    sys.stdout.write(report.table_text())
    if cfg.output is not None:
        print(f"wrote {cfg.output}")
    return 0


def _cmd_check(args) -> int:
    m = load_model(args.model)
    text = Path(args.region).read_text()
    if _region_file_kind(text) == "factored":
        region = parse_factored(text, m)
        elems = factored_elements_in_parent(region)
        kind = f"factored union over {len(region.subs)} submodels"
    else:
        region = parse_region(text, m)
        elems = region.elements
        kind = "centralized region"
    not_reach = ~m.reach_mask
    for u in elems:
        if u & not_reach and not allowed_actions(region, m, u):
            print(
                f"closure hole: {sorted(m.names_from_mask(u))} has no action "
                "keeping every branch inside the region",
                file=sys.stderr,
            )
            return 2
    pool = list(elems)
    rng = Random(args.seed)
    sample = pool if len(pool) <= args.witnesses else rng.sample(pool, args.witnesses)
    for u in sample:
        v = u
        for a, o in productivity_witness(region, m, u):
            if a not in allowed_actions(region, m, v):
                print(
                    f"witness uses disallowed action {m.action_names[a]} at "
                    f"{sorted(m.names_from_mask(v))}",
                    file=sys.stderr,
                )
                return 2
            v = support_post(m, v, a, o)
            if v == 0 or not region.contains(v):
                print(
                    f"witness leaves the region after {m.action_names[a]}/"
                    f"{m.obs_names[o]} from {sorted(m.names_from_mask(u))}",
                    file=sys.stderr,
                )
                return 2
        if v & not_reach:
            print(
                f"witness from {sorted(m.names_from_mask(u))} ends outside "
                f"the reach set at {sorted(m.names_from_mask(v))}",
                file=sys.stderr,
            )
            return 2
    print(
        f"ok: {kind}, {len(elems)} antichain elements, step closure verified, "
        f"{len(sample)} productivity witnesses replayed"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safepomcp",
        description="belief-support shielded POMCP planning toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a domain instance as a model file")
    p.add_argument("--family", required=True,
                   choices=("obstacle", "refuel", "rocksample", "gap"))
    p.add_argument("-o", "--output", required=True, help="model file to write")
    p.add_argument("--n", type=int, help="grid side length")
    p.add_argument("--slip", type=float, help="movement slip probability")
    p.add_argument("--obs-noise", dest="obs_noise", type=float,
                   help="observation confusion probability")
    p.add_argument("--battery", type=int, help="refuel battery capacity")
    p.add_argument("--sense-half-distance", dest="sense_half_distance",
                   type=float, help="rocksample sensor half-accuracy distance")
    p.add_argument("--seed", type=int, help="layout seed for random obstacles")
    p.add_argument("--random-obstacles", dest="random_obstacles", type=int,
                   help="number of random obstacle cells")
    p.add_argument("--start", help="start cell, e.g. g11")
    p.add_argument("--goal", help="goal cell")
    p.add_argument("--obstacle", action="append", help="obstacle cell (repeatable)")
    p.add_argument("--station", action="append", help="refuel station cell (repeatable)")
    p.add_argument("--rock", action="append", help="rocksample rock cell (repeatable)")
    p.add_argument("--preview", action="store_true", help="print the grid layout")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("region", help="compute a winning region file")
    p.add_argument("model", help="model file")
    p.add_argument("-o", "--output", required=True, help="region file to write")
    p.add_argument("--factored", action="store_true",
                   help="per-submodel regions over the model's partition")
    p.add_argument("--timeout", type=float, default=3600.0,
                   help="seconds before giving up (0 disables; default 3600)")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("plan", help="run one episode against the simulator")
    p.add_argument("model", help="model file")
    p.add_argument("--mode", default="backtrack",
                   choices=tuple(mode.value for mode in ShieldMode))
    p.add_argument("--region", help="region file (computed on the fly if omitted)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=DEFAULT_STEP_CAP,
                   help="step cap per episode")
    p.add_argument("--timeout", type=float, default=3600.0,
                   help="region computation timeout when not given a file")
    p.add_argument("--full", action="store_true",
                   help="full-scale planner profile (40k sims) instead of desk")
    p.add_argument("--simulations", type=int)
    p.add_argument("--particles", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--ucb-c", dest="ucb_c", type=float)
    p.add_argument("--discount", type=float)
    p.add_argument("--trace", action="store_true",
                   help="print per-step action/observation/support lines")
    p.add_argument("--time", action="store_true", help="measure per-step search time")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("bench", help="run an experiment grid from a YAML config")
    p.add_argument("config", help="YAML experiment config")
    p.add_argument("-o", "--output", help="CSV path (overrides the config)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("check", help="re-validate a region file against a model")
    p.add_argument("region", help="region file")
    p.add_argument("model", help="model file")
    p.add_argument("--witnesses", type=int, default=100,
                   help="productivity witnesses to replay (default 100)")
    p.add_argument("--seed", type=int, default=0, help="witness sampling seed")
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RegionTimeout as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except SafetyViolation as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (
        ModelError, RegionFileError, RegionMisuseError, WitnessError,
        UnwinningStartError, GraphCapExceeded, ValueError, OSError,
        yaml.YAMLError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
