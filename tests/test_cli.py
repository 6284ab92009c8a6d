"""End-to-end command-line flows: generate, region, check, plan, bench."""

import functools
import textwrap

import pytest

from safepomcp import (
    SafetyViolation,
    compute_winning_region,
    make_pomdp,
    propagate_factored_regions,
)
from safepomcp.cli import load_bench_config, main
from safepomcp.modelio import dump_model, model_hash

PLAN_LITE = ["--simulations", "100", "--depth", "20", "--particles", "100",
             "--cap", "40"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    assert main(["generate", "--family", "obstacle", "--n", "3",
                 "-o", str(d / "world.pomdp")]) == 0
    assert main(["region", str(d / "world.pomdp"),
                 "-o", str(d / "world.region")]) == 0
    assert main(["region", str(d / "world.pomdp"), "--factored",
                 "-o", str(d / "world.fregion")]) == 0
    return d


# -- generate --------------------------------------------------------------


def test_generate_reports_sizes(tmp_path, capsys):
    rc = main(["generate", "--family", "obstacle", "--n", "3",
               "-o", str(tmp_path / "w.pomdp")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "10 states, 4 actions, 10 observations" in out
    assert (tmp_path / "w.pomdp").exists()


def test_generate_preview(tmp_path, capsys):
    rc = main(["generate", "--family", "obstacle", "--n", "3", "--preview",
               "-o", str(tmp_path / "w.pomdp")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "S start" in out and "G goal" in out and "X obstacle" in out


def test_generate_gap_family(tmp_path, capsys):
    rc = main(["generate", "--family", "gap", "-o", str(tmp_path / "gap.pomdp")])
    assert rc == 0
    assert "37 states" in capsys.readouterr().out


def test_generate_rejects_bad_cell(tmp_path, capsys):
    rc = main(["generate", "--family", "obstacle", "--n", "3",
               "--obstacle", "g99", "-o", str(tmp_path / "w.pomdp")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


# -- region ----------------------------------------------------------------


def test_region_centralized(workdir, tmp_path, capsys):
    rc = main(["region", str(workdir / "world.pomdp"),
               "-o", str(tmp_path / "w.region")])
    assert rc == 0
    assert "centralized, 11 antichain elements" in capsys.readouterr().out
    text = (tmp_path / "w.region").read_text()
    assert text.startswith("# winning region over belief supports\n")


def test_region_factored(workdir, tmp_path, capsys):
    rc = main(["region", str(workdir / "world.pomdp"), "--factored",
               "-o", str(tmp_path / "w.fregion")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "factored over" in out and "queue pushes" in out
    text = (tmp_path / "w.fregion").read_text()
    assert text.startswith("# factored winning regions\n")


def test_region_powerset_seeds(workdir, tmp_path):
    rc = main(["region", str(workdir / "world.pomdp"), "--seeds", "powerset",
               "-o", str(tmp_path / "w.region")])
    assert rc == 0


def test_region_timeout_exit(workdir, tmp_path, capsys):
    rc = main(["region", str(workdir / "world.pomdp"), "--timeout", "1e-9",
               "-o", str(tmp_path / "w.region")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["centralized", "factored"])
def test_region_graph_cap_exit(workdir, tmp_path, capsys, monkeypatch, kind):
    if kind == "factored":
        monkeypatch.setattr(
            "safepomcp.cli.propagate_factored_regions",
            functools.partial(propagate_factored_regions, max_vertices=3),
        )
    else:
        monkeypatch.setattr(
            "safepomcp.cli.compute_winning_region",
            functools.partial(compute_winning_region, max_vertices=3),
        )
    extra = ["--factored"] if kind == "factored" else []
    rc = main(["region", str(workdir / "world.pomdp"), *extra,
               "-o", str(tmp_path / "w.region")])
    assert rc == 2
    assert "exceeded 3 vertices" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_region_output_kept_when_rename_fails(workdir, tmp_path, capsys,
                                              monkeypatch):
    out = tmp_path / "w.region"
    out.write_text("previous region\n")

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr("safepomcp.harness.os.replace", fail)
    rc = main(["region", str(workdir / "world.pomdp"), "-o", str(out)])
    assert rc == 2
    assert "rename failed" in capsys.readouterr().err
    assert out.read_text() == "previous region\n"
    assert list(tmp_path.iterdir()) == [out]


def test_region_bad_model_file(tmp_path, capsys):
    bad = tmp_path / "bad.pomdp"
    bad.write_text("not a model\n")
    rc = main(["region", str(bad), "-o", str(tmp_path / "x.region")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# -- check -----------------------------------------------------------------


def test_check_centralized_ok(workdir, capsys):
    rc = main(["check", str(workdir / "world.region"), str(workdir / "world.pomdp")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: centralized region")
    assert "witnesses replayed" in out


def test_check_factored_ok(workdir, capsys):
    rc = main(["check", str(workdir / "world.fregion"), str(workdir / "world.pomdp")])
    assert rc == 0
    assert "ok: factored union over 4 submodels" in capsys.readouterr().out


def test_check_missing_file(workdir, capsys):
    rc = main(["check", str(workdir / "nope.region"), str(workdir / "world.pomdp")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_check_wrong_model(workdir, tmp_path, capsys):
    assert main(["generate", "--family", "gap", "-o", str(tmp_path / "gap.pomdp")]) == 0
    capsys.readouterr()
    rc = main(["check", str(workdir / "world.region"), str(tmp_path / "gap.pomdp")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _doomed_world():
    return make_pomdp(
        states=["alive", "doom", "goal"],
        actions=["go"],
        observations=["o"],
        transitions={(0, 0): {1: 1.0}, (1, 0): {1: 1.0}, (2, 0): {2: 1.0}},
        obs_fn={(s, 0): {0: 1.0} for s in range(3)},
        rewards={(s, 0): 0.0 for s in range(3)},
        init={0: 1.0}, reach=[2], avoid=[1],
    )


def test_check_flags_closure_hole(tmp_path, capsys):
    m = _doomed_world()
    dump_model(m, tmp_path / "doom.pomdp")
    (tmp_path / "doom.region").write_text(textwrap.dedent(f"""\
        # winning region over belief supports
        model {model_hash(m)}
        reach goal
        avoid doom
        W alive
    """))
    rc = main(["check", str(tmp_path / "doom.region"), str(tmp_path / "doom.pomdp")])
    assert rc == 2
    assert "closure hole" in capsys.readouterr().err


def test_check_flags_unproductive_cycle(tmp_path, capsys):
    # the two claimed supports keep each other step-closed but never make
    # progress, so witness construction must fail
    m = make_pomdp(
        states=["a", "b", "doom", "goal"],
        actions=["go"],
        observations=["o"],
        transitions={(0, 0): {1: 1.0}, (1, 0): {0: 1.0},
                     (2, 0): {2: 1.0}, (3, 0): {3: 1.0}},
        obs_fn={(s, 0): {0: 1.0} for s in range(4)},
        rewards={(s, 0): 0.0 for s in range(4)},
        init={0: 1.0}, reach=[3], avoid=[2],
    )
    dump_model(m, tmp_path / "cycle.pomdp")
    (tmp_path / "cycle.region").write_text(textwrap.dedent(f"""\
        # winning region over belief supports
        model {model_hash(m)}
        reach goal
        avoid doom
        W a
        W b
    """))
    rc = main(["check", str(tmp_path / "cycle.region"), str(tmp_path / "cycle.pomdp")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# -- plan ------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["none", "prior", "backtrack",
                                  "factored-prior", "factored-backtrack"])
def test_plan_all_modes(workdir, capsys, mode):
    argv = ["plan", str(workdir / "world.pomdp"), "--mode", mode, *PLAN_LITE]
    if mode != "none":
        kind = "fregion" if mode.startswith("factored") else "region"
        argv += ["--region", str(workdir / f"world.{kind}")]
    rc = main(argv)
    assert rc == 0
    out = capsys.readouterr().out
    assert f"mode={mode} seed=0" in out
    if mode != "none":
        assert "unsafe=0" in out
        assert "shield queries=" in out


def test_plan_computes_region_when_omitted(workdir, capsys):
    rc = main(["plan", str(workdir / "world.pomdp"), "--mode", "prior", *PLAN_LITE])
    assert rc == 0
    assert "unsafe=0" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["backtrack", "factored-backtrack"])
def test_plan_region_timeout_exit(workdir, capsys, mode):
    rc = main(["plan", str(workdir / "world.pomdp"), "--mode", mode,
               "--timeout", "1e-9", *PLAN_LITE])
    assert rc == 3
    assert "region computation exceeded" in capsys.readouterr().err


def test_plan_region_kind_mismatch(workdir, capsys):
    rc = main(["plan", str(workdir / "world.pomdp"), "--mode", "factored-prior",
               "--region", str(workdir / "world.region"), *PLAN_LITE])
    assert rc == 2
    assert "needs factored" in capsys.readouterr().err


def test_plan_trace_and_timing(workdir, capsys):
    rc = main(["plan", str(workdir / "world.pomdp"), "--mode", "backtrack",
               "--region", str(workdir / "world.region"), "--trace", "--time",
               *PLAN_LITE])
    assert rc == 0
    out = capsys.readouterr().out
    assert "step=1 action=" in out
    assert "step_time mean=" in out


def test_plan_safety_violation_exit(workdir, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise SafetyViolation("invariant breached")

    monkeypatch.setattr("safepomcp.cli.run_episode", boom)
    rc = main(["plan", str(workdir / "world.pomdp"), "--mode", "none", *PLAN_LITE])
    assert rc == 4
    assert "invariant breached" in capsys.readouterr().err


# -- bench -----------------------------------------------------------------


def _bench_yaml(d, cache, out):
    text = textwrap.dedent(f"""\
        domains:
          - family: obstacle
            n: 3
        modes: [none, prior]
        episodes: 1
        simulations: 60
        depth: 20
        particles: 64
        step_cap: 30
        measure_time: false
        cache_dir: {cache}
        output: {out}
    """)
    path = d / "bench.yaml"
    path.write_text(text)
    return path


def test_bench_runs_and_caches(tmp_path, capsys):
    cfg = _bench_yaml(tmp_path, tmp_path / "cache", tmp_path / "bench.csv")
    rc = main(["bench", str(cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "region centralized for obstacle(n=3): computed" in out
    assert "none" in out and "prior" in out
    assert (tmp_path / "bench.csv").exists()
    rc = main(["bench", str(cfg)])
    assert rc == 0
    assert "cached" in capsys.readouterr().out


def test_bench_output_override(tmp_path, capsys):
    cfg = _bench_yaml(tmp_path, tmp_path / "cache", tmp_path / "a.csv")
    rc = main(["bench", str(cfg), "-o", str(tmp_path / "b.csv")])
    assert rc == 0
    assert f"wrote {tmp_path / 'b.csv'}" in capsys.readouterr().out
    assert (tmp_path / "b.csv").exists()
    assert not (tmp_path / "a.csv").exists()


def test_bench_config_loader(tmp_path):
    cfg_path = _bench_yaml(tmp_path, tmp_path / "cache", tmp_path / "c.csv")
    cfg = load_bench_config(cfg_path)
    assert cfg.planner.simulations == 60
    assert cfg.episodes == 1
    assert not cfg.measure_time
    assert [m.value for m in cfg.modes] == ["none", "prior"]


def test_bench_rejects_ambiguous_domain(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("domains:\n  - family: obstacle\n    file: x.pomdp\nmodes: [none]\n")
    assert main(["bench", str(path)]) == 2
    assert "exactly one of" in capsys.readouterr().err


def test_bench_rejects_unknown_profile(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(
        "domains:\n  - family: obstacle\n    n: 3\nmodes: [none]\nprofile: turbo\n"
    )
    assert main(["bench", str(path)]) == 2
    assert "turbo" in capsys.readouterr().err
