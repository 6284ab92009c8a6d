"""Text model format: parser, serializer, round-trips and fingerprints."""

import pytest
from hypothesis import given

from safepomcp import (
    DanglingIdError,
    GridSpec,
    ModelError,
    ModelSyntaxError,
    NonAbsorbingReachError,
    ProbabilitySumError,
    dump_model,
    gen_obstacle,
    gen_refuel,
    gen_rocksample,
    load_model,
    model_hash,
    parse_model,
    serialize_model,
)

from strategies import small_pomdps

MINIMAL = """\
# two states, one action, one observation
states: 2
actions: 1
observations: 1
T 0 0 1 1.0
T 1 0 1 1.0
Z 0 0 0 1.0
Z 1 0 0 1.0
init 0 1.0
reach 1
"""


def test_parse_minimal_document():
    m = parse_model(MINIMAL)
    assert m.n_states == 2
    assert m.n_actions == 1
    assert m.n_obs == 1
    assert m.state_names == ("s0", "s1")
    assert m.reach == frozenset({1})
    assert m.avoid == frozenset()
    assert m.init_states == (1 - 1,)


def test_parse_bad_row_sum():
    text = MINIMAL.replace("T 0 0 1 1.0", "T 0 0 1 0.9")
    with pytest.raises(ProbabilitySumError):
        parse_model(text)


def test_parse_reports_line_numbers():
    text = MINIMAL + "wibble 1 2\n"
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model(text)
    assert exc.value.line == 11
    assert "line 11" in str(exc.value)


def test_parse_dangling_id_has_location():
    text = MINIMAL.replace("T 0 0 1 1.0", "T 0 0 7 1.0")
    with pytest.raises(DanglingIdError) as exc:
        parse_model(text)
    assert exc.value.line == 5


def test_parse_requires_counts_before_rows():
    with pytest.raises(ModelSyntaxError):
        parse_model("T 0 0 1 1.0\nstates: 2\nactions: 1\nobservations: 1\n")


def test_parse_missing_count():
    with pytest.raises(ModelSyntaxError, match="observations"):
        parse_model("states: 2\nactions: 1\ninit 0 1.0\n")


def test_parse_duplicate_entry():
    text = MINIMAL + "init 0 1.0\n"
    with pytest.raises(ModelSyntaxError, match="duplicate"):
        parse_model(text)


def test_parse_partial_partition_rejected():
    text = MINIMAL + "region 0 west\n"
    with pytest.raises(ModelError, match="partial"):
        parse_model(text)


def test_parse_rewrites_nonabsorbing_reach_by_default():
    text = MINIMAL.replace("T 1 0 1 1.0", "T 1 0 0 1.0")
    with pytest.warns(UserWarning, match="not absorbing"):
        m = parse_model(text)
    assert m.transitions[1] == ((1,), (1.0,))


def test_parse_strict_reach_raises_with_location():
    text = MINIMAL.replace("T 1 0 1 1.0", "T 1 0 0 1.0")
    with pytest.raises(NonAbsorbingReachError) as exc:
        parse_model(text, strict_reach=True)
    assert exc.value.line is not None


def test_comments_and_blank_lines_ignored():
    noisy = "\n".join(
        ("  # leading comment", "") + tuple(MINIMAL.splitlines()) + ("   ", "# end")
    )
    assert serialize_model(parse_model(noisy)) == serialize_model(parse_model(MINIMAL))


@pytest.mark.parametrize(
    "gen",
    [gen_obstacle, gen_refuel, gen_rocksample],
    ids=["obstacle", "refuel", "rocksample"],
)
def test_generated_worlds_round_trip(gen):
    m = gen(GridSpec(n=4, battery=3, rocks=("g13", "g32")))
    again = parse_model(serialize_model(m))
    assert again == m
    assert serialize_model(again) == serialize_model(m)


def test_round_trip_preserves_names(obstacle6):
    again = parse_model(serialize_model(obstacle6))
    assert again.state_names == obstacle6.state_names
    assert again.action_names == ("north", "east", "south", "west")
    assert again.partition == obstacle6.partition


@given(m=small_pomdps())
def test_round_trip_is_identity(m):
    assert parse_model(serialize_model(m)) == m


def test_equal_models_serialize_identically(obstacle6):
    other = gen_obstacle(GridSpec())
    assert serialize_model(other) == serialize_model(obstacle6)
    assert model_hash(other) == model_hash(obstacle6)


def test_hash_serializes_the_model_once(monkeypatch):
    from safepomcp import modelio

    calls = []
    original = modelio.serialize_model
    monkeypatch.setattr(
        modelio, "serialize_model", lambda m: calls.append(m) or original(m)
    )
    m = gen_obstacle(GridSpec(n=4))
    first = model_hash(m)
    assert model_hash(m) == first
    assert len(calls) == 1
    assert first == model_hash(gen_obstacle(GridSpec(n=4)))


def test_hash_sensitive_to_parameters(obstacle6):
    assert model_hash(gen_obstacle(GridSpec(slip=0.25))) != model_hash(obstacle6)
    assert model_hash(gen_obstacle(GridSpec(obs_noise=0.2))) != model_hash(obstacle6)


def test_dump_and_load(tmp_path, obstacle6):
    path = tmp_path / "world.pomdp"
    dump_model(obstacle6, path)
    assert load_model(path) == obstacle6
