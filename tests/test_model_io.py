"""Model assembly, sample preparation, and the binary model format."""

import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from helpers import build_series, random_series, tiny_config, tiny_model
from tada.cli import gradcheck_setup, main, small_gradcheck_config
from tada.config import RunConfig
from tada.data import IrregularSeries, SynthConfig, parse_events, synth_generate
from tada.errors import ConfigError, DataError
from tada.model import FORMAT, MAGIC, TadaModel, collate


def test_parameter_set_matches_architecture():
    model = tiny_model()
    names = list(model.params)
    assert names[0] == "te.embed"  # declaration order is the file order
    assert "dla.queries" in names and "dla.range_raw" in names
    assert "mixer.l0.mix_in.w" in names
    assert names[-2:] == ["head.w", "head.b"]
    literal = tiny_model(te_mode="literal")
    assert "te.embed" not in literal.params
    # setting1 keys DLA on the raw values and runs no te
    assert not [n for n in tiny_model(keyvalue_variant="setting1").params
                if n.startswith("te.")]
    assert "te.key.w" in tiny_model(keyvalue_variant="setting1", no_dla=True).params
    no_mixer = tiny_model(no_mixer=True)
    assert not [n for n in no_mixer.params if n.startswith("mixer.")]


@pytest.mark.parametrize("overrides", [
    {}, {"window_mode": "hard"}, {"keyvalue_variant": "setting1"},
    {"keyvalue_variant": "setting2"}, {"te_mode": "literal"}, {"no_dla": True},
    {"no_mixer": True}, {"fusion_mode": "concat"}, {"fusion_mode": "add"},
    {"no_learnable_range": True}, {"window_mode": "hard", "no_learnable_range": True},
    {"n_layers": 1}, {"n_layers": 3, "n_queries": 16},
], ids=["default", "hard", "setting1", "setting2", "literal", "no_dla", "no_mixer",
        "concat", "add", "no_learnable_range", "hard-frozen", "one-layer", "three-layers"])
def test_no_weight_is_dead(overrides):
    # every weight the optimizer may move is one the forward reads and
    # differentiates: no mode exempts one; and the forward differentiates
    # no other weight
    model, preps = gradcheck_setup(small_gradcheck_config(**overrides))
    model.batch_loss(preps).backward()
    assert [name for name, p in model.trainable().items() if p.grad is None] == []
    assert [name for name, p in model.params.items() if p.grad is not None] \
        == list(model.trainable())


def test_default_layout_is_pinned_to_the_format():
    # a change to this list changes every model file: it must bump FORMAT
    model = TadaModel(RunConfig(), 4, 2, "sequence")
    assert FORMAT == 3
    assert [[name, list(p.data.shape)] for name, p in model.params.items()] == [
        ["te.embed", [4, 8]], ["te.key.w", [9, 32]], ["te.value.w", [9, 32]],
        ["te.query", [32]], ["dla.queries", [32, 33]], ["dla.range_raw", [4]],
        ["dla.q.w", [33, 32]], ["dla.k.w", [33, 32]], ["dla.out.w", [8, 32]],
        ["dla.out.b", [32]], ["mixer.l0.mix_in.w", [32, 32]], ["mixer.l0.across.w", [8, 8]],
        ["mixer.l0.mix_out.w", [32, 32]], ["mixer.l0.pool.w", [4, 2]],
        ["mixer.l1.mix_in.w", [32, 32]], ["mixer.l1.across.w", [4, 4]],
        ["mixer.l1.mix_out.w", [32, 32]], ["fusion.w1", [32, 32]], ["fusion.b1", [32]],
        ["fusion.w2", [32, 32]], ["fusion.b2", [32]], ["head.w", [32, 2]], ["head.b", [2]]]


def test_initialization_is_seed_deterministic():
    a, b = tiny_model(seed=3), tiny_model(seed=3)
    c = tiny_model(seed=4)
    for name, p in a.params.items():
        np.testing.assert_array_equal(p.data, b.params[name].data)
    assert any(not np.array_equal(p.data, c.params[n].data)
               for n, p in a.params.items())


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ConfigError, match="task"):
        tiny_model(task="regression")
    with pytest.raises(ConfigError, match="n_features"):
        tiny_model(n_features=0)
    with pytest.raises(ConfigError, match="n_features"):
        tiny_model(n_classes=1)
    with pytest.raises(ConfigError, match="divisible"):
        tiny_model(n_queries=6, patch_size=4)
    # a NaN compares False with 0, so a bare "<= 0" check let it through
    for value in (0.0, -1.0, math.nan, -math.inf):
        with pytest.raises(ConfigError, match="^config: lr must be > 0$"):
            tiny_model(lr=value)
    for name in ("gate_temperature", "adam_eps"):
        for value in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match=f"^config: {name} must be finite and > 0$"):
                tiny_model(**{name: value})
    # numpy's generators refuse a negative seed with a ValueError
    with pytest.raises(ConfigError, match="^config: seed must be >= 0$"):
        tiny_model(seed=-1)


def test_prepare_validates_labels():
    model = tiny_model()
    with pytest.raises(DataError, match="label outside"):
        model.prepare(build_series([(0.0, [(0, 1.0)])], label=5))
    with pytest.raises(DataError, match="step labels"):
        model.prepare(build_series([(0.0, [(0, 1.0)])], label=(0,)))
    step_model = tiny_model(task="step")
    with pytest.raises(DataError, match="step"):
        step_model.prepare(build_series([(0.0, [(0, 1.0)])], label=0))
    with pytest.raises(DataError, match="1 step labels for 2 steps"):
        step_model.prepare(build_series([(0.0, [(0, 1.0)]), (1.0, [(1, 2.0)])],
                                        label=(0,)))


def test_prepare_rejects_a_label_beyond_int64():
    model = tiny_model()
    with pytest.raises(DataError, match="label outside"):
        model.prepare(build_series([(0.0, [(0, 1.0)])], label=10 ** 30))
    with pytest.raises(DataError, match="label outside"):
        tiny_model(task="step").prepare(build_series([(0.0, [(0, 1.0)])], label=(-10 ** 30,)))


@pytest.mark.parametrize("feature", [3, -1], ids=["D", "minus-one"])
def test_prepare_rejects_feature_index_outside_range(feature):
    # series built through the Python API skip the parser's range check
    model = tiny_model(n_features=3)
    series = build_series([(0.0, [(0, 1.0)]), (1.0, [(feature, 2.0)])], sid="bad-feat")
    with pytest.raises(DataError, match=r"sample bad-feat: feature index .* outside \[0, 3\)"):
        model.prepare(series)


@pytest.mark.parametrize("steps", [
    [(0.0, [(0, 1.0), (0, 2.0)])],
    [(0.0, [(1, 1.0)]), (1.0, [(2, 1.0), (0, 3.0), (2, 4.0)])],
], ids=["one-step", "last-step"])
def test_prepare_rejects_a_step_that_repeats_a_feature(steps):
    # parse_events merges repeats last-wins; a series built in code can hold them
    with pytest.raises(DataError, match=r"^sample dup: step \d repeats a feature$"):
        tiny_model(n_features=3).prepare(build_series(steps, sid="dup"))


@pytest.mark.parametrize("feature", [1.5, True, 2 ** 70], ids=["float", "bool", "beyond-int64"])
def test_prepare_rejects_a_feature_index_that_is_not_an_int64(feature):
    series = IrregularSeries("odd", np.zeros(1), np.zeros(1, dtype=np.int64),
                             np.array([feature]), np.ones(1), 0)
    with pytest.raises(DataError,
                       match=r"^sample odd: feature indices must be integers in \[0, 3\)$"):
        tiny_model(n_features=3).prepare(series)


@pytest.mark.parametrize("step_of,feat", [([1, 0], [0, 1]), ([0, 2], [0, 1]), ([-1, 0], [0, 1]),
                                          ([0, 1], [0]), ([0.0, 1.0], [0, 1])],
                         ids=["out-of-order", "beyond-T", "negative", "short-feat", "float"])
def test_prepare_rejects_observations_that_misnumber_their_steps(step_of, feat):
    # a series built in code can hold arrays series_from_events never gives
    series = IrregularSeries("odd", np.array([0.0, 1.0]), np.array(step_of), np.array(feat),
                             np.ones(2), 0)
    with pytest.raises(DataError, match=r"^sample odd: observations must number their "
                                        r"steps in order within \[0, 2\)$"):
        tiny_model(n_features=3).prepare(series)


def assert_same_prep(got, want):
    for name in vars(want):
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name


event_times = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0, 1e-300])
events = st.lists(st.tuples(event_times, st.integers(0, 3),
                            st.floats(-1e6, 1e6, allow_nan=False)), min_size=1, max_size=30)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(events, st.sampled_from(["sequence", "step"]))
def test_prepare_is_bit_identical_to_the_per_step_build(evs, task):
    # every series parse_events can produce: repeated (time, feature) pairs,
    # shared times, -0.0 and one-step series included
    line = json.dumps({"id": "h", "label": 1, "events": [list(e) for e in evs]})
    series, old = parse_events(line, 4), reference.parse_events(line, 4)
    if task == "step":
        labels = tuple(k % 2 for k in range(len(series)))
        series, old = (dataclasses.replace(s, label=labels) for s in (series, old))
    model = tiny_model(n_features=4, task=task)
    assert_same_prep(model.prepare(series), reference.prepare_by_steps(model, old))


def test_prepare_is_bit_identical_on_synth_data():
    samples, _ = synth_generate(SynthConfig(n_samples=40, n_features=4, seed=3))
    model = tiny_model(n_features=4)
    for s in samples:
        assert_same_prep(model.prepare(s), reference.prepare_by_steps(model, s))


def test_prepare_precomputes_consistent_arrays():
    model = tiny_model(n_features=3)
    s = build_series([(0.0, [(0, 1.0), (2, -1.0)]), (5.0, [(1, 4.0)]),
                      (10.0, [(0, 2.0)])])
    prep = model.prepare(s)
    np.testing.assert_array_equal(prep.times, [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(prep.feat_idx, [0, 2, 1, 0])
    np.testing.assert_array_equal(prep.values_col[:, 0], [1.0, -1.0, 4.0, 2.0])
    np.testing.assert_array_equal(prep.step_of, [0, 0, 1, 2])
    assert np.count_nonzero(prep.values) == 4 and prep.values.shape == (3, 3)
    np.testing.assert_array_equal(prep.values[prep.step_of, prep.feat_idx],
                                  prep.values_col[:, 0])
    # the observation arrays alone record which slots are observed
    assert not hasattr(prep, "mask")
    assert prep.labels.tolist() == [0]
    # a sample keeps no (T, N) array: te derives its step gates from step_of
    assert not [k for k, v in vars(prep).items() if np.shape(v) == (3, 4)]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=12, unique=True))
def test_prepared_times_span_exactly_zero_to_one(times):
    times = sorted(times)
    series = build_series([(t, [(0, 1.0)]) for t in times])
    model = tiny_model()
    if not np.isfinite(times[-1] - times[0]):
        with pytest.raises(DataError, match="span"):
            model.prepare(series)
        return
    out = model.prepare(series).times
    assert out[0] == 0.0 and np.all(np.diff(out) >= 0.0)
    assert out[-1] == (1.0 if len(times) > 1 else 0.0)


def test_forward_is_pure():
    model = tiny_model()
    rng = np.random.default_rng(41)
    prep = model.prepare(random_series(rng, 6, 3))
    a = model.forward(collate([prep]))
    b = model.forward(collate([prep]))
    np.testing.assert_array_equal(a.data, b.data)


def test_collate_builds_the_padded_layout():
    model = tiny_model(n_features=3, task="step")
    long = build_series([(0.0, [(0, 1.0), (2, -1.0)]), (5.0, [(1, 4.0)]),
                         (10.0, [(0, 2.0)])], label=(0, 1, 1))
    short = build_series([(0.0, [(1, 3.0)]), (1.0, [])], label=(1, 0))
    preps = [model.prepare(s) for s in (short, long)]
    X = collate(preps)
    np.testing.assert_array_equal(X.lengths, [2, 3])
    assert X.t_max == 3
    np.testing.assert_array_equal(X.step_of, [0, 3, 3, 4, 5])
    np.testing.assert_array_equal(X.times, [0.0, 1.0, 0.0, 0.0, 0.5, 1.0])
    assert 2 not in X.step_of.tolist()
    np.testing.assert_array_equal(X.values[2], 0.0)
    np.testing.assert_array_equal(X.labels, [1, 0, 0, 0, 1, 1])
    np.testing.assert_array_equal(X.label_counts, [2, 3])
    with pytest.raises(DataError, match="batch"):
        collate([])


def test_a_prepared_sample_is_its_own_batch():
    model = tiny_model(n_features=3, task="step")
    prep = model.prepare(random_series(np.random.default_rng(5), 6, 3, label=(0, 1, 0, 1, 1, 0)))
    assert collate([prep]) is prep
    assert prep.t_max == 6 and prep.lengths.tolist() == [6]
    assert prep.label_counts.tolist() == [6] and prep.sample_id == "s"
    assert model.logits(prep).tobytes() == model.batch_logits([prep]).tobytes()


def test_save_load_round_trip_preserves_everything(tmp_path):
    model = tiny_model(n_features=3)
    rng = np.random.default_rng(42)
    samples = [random_series(rng, 5, 3, sid=f"s{i}") for i in range(3)]
    path = str(tmp_path / "model.bin")
    model.save(path)
    loaded = TadaModel.load(path)
    assert loaded.cfg == model.cfg
    assert (loaded.n_features, loaded.n_classes, loaded.task) == (3, 2, "sequence")
    for name, p in model.params.items():
        np.testing.assert_array_equal(p.data, loaded.params[name].data)
    for s in samples:
        np.testing.assert_array_equal(model.logits(model.prepare(s)),
                                      loaded.logits(loaded.prepare(s)))


def test_save_twice_is_byte_identical(tmp_path):
    model = tiny_model()
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    model.save(p1)
    model.save(p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_load_rejects_corrupt_files(tmp_path):
    model = tiny_model()
    path = str(tmp_path / "model.bin")
    model.save(path)
    raw = open(path, "rb").read()

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"NOPE!" + raw[len(MAGIC):])
    with pytest.raises(DataError, match="magic"):
        TadaModel.load(str(bad_magic))

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(raw[:-16])
    with pytest.raises(DataError, match="truncated"):
        TadaModel.load(str(truncated))

    trailing = tmp_path / "trail.bin"
    trailing.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(DataError, match="trailing"):
        TadaModel.load(str(trailing))

    garbled = tmp_path / "garbled.bin"
    garbled.write_bytes(raw[:len(MAGIC) + 4] + b"\xff" * 32 + raw[len(MAGIC) + 36:])
    with pytest.raises(DataError):
        TadaModel.load(str(garbled))

    with pytest.raises(DataError, match="cannot read"):
        TadaModel.load(str(tmp_path / "missing.bin"))


def split_model_file(path):
    """A saved model file's header and its parameters' byte blobs, in file order."""
    raw = open(path, "rb").read()
    (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
    off = len(MAGIC) + 4 + hlen
    header = json.loads(raw[len(MAGIC) + 4:off])
    blobs = []
    for _, shape in header["params"]:
        blobs.append(raw[off:off + 8 * math.prod(shape)])
        off += len(blobs[-1])
    return header, blobs


def write_model_file(path, header, blobs):
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", len(blob)) + blob + b"".join(blobs))


def rewrite_header(path, edit):
    """Apply edit(header) to a saved model file's JSON header in place."""
    header, blobs = split_model_file(path)
    edit(header)
    write_model_file(path, header, blobs)


@pytest.mark.parametrize("edit", [
    lambda h: h["config"].update(unknown_knob=1),
    lambda h: h["config"].update(n_queries="4"),
    lambda h: h.pop("task"),
    lambda h: h["params"].__setitem__(0, ["te.embed"]),
    lambda h: h["params"].__setitem__(0, h["params"][0] + [0]),
    lambda h: h.update(params="te.embed"),
    lambda h: h.update(format=2),
    lambda h: h.pop("format"),
], ids=["unknown-key", "string-int", "missing-task", "param-missing-shape",
        "param-three-items", "params-not-a-list", "other-format", "missing-format"])
def test_load_rejects_invalid_header_as_data_error(tmp_path, edit):
    path = str(tmp_path / "model.bin")
    tiny_model().save(path)
    rewrite_header(path, edit)
    with pytest.raises(DataError, match="invalid model header"):
        TadaModel.load(path)


def swap_first_two(items):
    items[0], items[1] = items[1], items[0]


@pytest.mark.parametrize("edit", [
    lambda items: items.pop(),
    lambda items: items.insert(1, items[1]),
    swap_first_two,
], ids=["drops-last", "repeats-one", "swaps-two"])
def test_load_rejects_any_layout_but_the_models(tmp_path, edit, capsys):
    # each file is whole: its header lists exactly the blobs it holds, so
    # only the one layout check can refuse it; a file without head.b once
    # loaded and left that bias at its init zeros
    path = str(tmp_path / "model.bin")
    tiny_model().save(path)
    header, blobs = split_model_file(path)
    edit(header["params"])
    edit(blobs)
    write_model_file(path, header, blobs)
    with pytest.raises(DataError, match="invalid model header"):
        TadaModel.load(path)
    data = str(tmp_path / "data")
    assert main(["synth", "--out", data, "--counts", "8,4,4", "--features", "3",
                 "--rates", "3,6,9", "--seed", "1"]) == 0
    capsys.readouterr()
    assert main(["eval", "--model", path, "--data", data]) == 2
    err = capsys.readouterr().err
    assert "invalid model header" in err and "Traceback" not in err


def test_magic_marks_format_version():
    assert MAGIC == b"TADA1"


# fuzzed model files --------------------------------------------------------------

def saved_model_bytes():
    import os
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.bin")
        tiny_model().save(path)
        return open(path, "rb").read()


MODEL_BYTES = saved_model_bytes()
HEADER_AT = len(MAGIC) + 4


def loads_or_data_error(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "model.bin"
    path.write_bytes(raw)
    try:
        model = TadaModel.load(str(path))
    except DataError:
        return
    assert set(model.params) == set(tiny_model().params)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, len(MODEL_BYTES) - 1))
def test_fuzz_truncated_model_raises_data_error(tmp_path_factory, n):
    loads_or_data_error(tmp_path_factory, MODEL_BYTES[:n])


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(st.integers(0, len(MODEL_BYTES) - 1), st.integers(1, 255)),
                min_size=1, max_size=3))
def test_fuzz_flipped_model_bytes_load_or_raise_data_error(tmp_path_factory, flips):
    raw = bytearray(MODEL_BYTES)
    for i, x in flips:
        raw[i] ^= x
    loads_or_data_error(tmp_path_factory, bytes(raw))


@settings(deadline=None, max_examples=100)
@given(st.permutations(range(len(tiny_model().params))))
def test_fuzz_reordered_model_params_load_or_raise_data_error(tmp_path_factory, order):
    (hlen,) = struct.unpack_from("<I", MODEL_BYTES, len(MAGIC))
    header = json.loads(MODEL_BYTES[HEADER_AT:HEADER_AT + hlen])
    header["params"] = [header["params"][i] for i in order]
    blob = json.dumps(header).encode("utf-8")
    loads_or_data_error(tmp_path_factory, MAGIC + struct.pack("<I", len(blob)) + blob
                        + MODEL_BYTES[HEADER_AT + hlen:])


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 2 ** 32 - 1))
def test_fuzz_oversized_header_length_raises_data_error(tmp_path_factory, extra):
    (hlen,) = struct.unpack_from("<I", MODEL_BYTES, len(MAGIC))
    size = struct.pack("<I", min(hlen + extra, 2 ** 32 - 1))
    loads_or_data_error(tmp_path_factory, MAGIC + size + MODEL_BYTES[HEADER_AT:])
