"""Model assembly, sample preparation, and the binary model format."""

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from helpers import build_series, random_series, tiny_config, tiny_model
from tada.data import (IrregularSeries, Observation, SynthConfig, TimeStep, parse_events,
                       synth_generate)
from tada.errors import ConfigError, DataError
from tada.model import MAGIC, TadaModel, collate


def test_parameter_set_matches_architecture():
    model = tiny_model()
    names = list(model.params)
    assert names[0] == "te.embed"  # declaration order is the file order
    assert "dla.queries" in names and "dla.range_raw" in names
    assert "mixer.l0.mix_in.w" in names
    assert names[-2:] == ["head.w", "head.b"]
    literal = tiny_model(te_mode="literal")
    assert "te.embed" not in literal.params
    no_mixer = tiny_model(no_mixer=True)
    assert not [n for n in no_mixer.params if n.startswith("mixer.")]


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


def test_prepare_validates_labels():
    model = tiny_model()
    with pytest.raises(DataError, match="label outside"):
        model.prepare(build_series([(0.0, [(0, 1.0)])], label=5))
    with pytest.raises(DataError, match="step labels"):
        model.prepare(IrregularSeries("s", (
            TimeStep(0.0, (Observation(0, 1.0),)),), (0,)))
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
    series = IrregularSeries("odd", (TimeStep(0.0, (Observation(feature, 1.0),)),), 0)
    with pytest.raises(DataError,
                       match=r"^sample odd: feature indices must be integers in \[0, 3\)$"):
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
    series = parse_events(line, 4)
    if task == "step":
        series = dataclasses.replace(series, label=tuple(k % 2 for k in range(len(series))))
    model = tiny_model(n_features=4, task=task)
    assert_same_prep(model.prepare(series), reference.prepare_by_steps(model, series))


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
    assert prep.mask.sum() == 4 and prep.values.shape == (3, 3)
    np.testing.assert_array_equal(prep.mask, prep.values != 0.0)
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
    a, _ = model.forward(collate([prep]))
    b, _ = model.forward(collate([prep]))
    np.testing.assert_array_equal(a.data, b.data)


def test_collate_builds_the_ragged_and_padded_layouts():
    model = tiny_model(n_features=3, task="step")
    long = build_series([(0.0, [(0, 1.0), (2, -1.0)]), (5.0, [(1, 4.0)]),
                         (10.0, [(0, 2.0)])], label=(0, 1, 1))
    short = build_series([(0.0, [(1, 3.0)]), (1.0, [])], label=(1, 0))
    preps = [model.prepare(s) for s in (short, long)]
    X = collate(preps)
    np.testing.assert_array_equal(X.lengths, [2, 3])
    np.testing.assert_array_equal(X.step_of, [0, 2, 2, 3, 4])
    np.testing.assert_array_equal(X.slot, [0, 1, 3, 4, 5])
    np.testing.assert_array_equal(X.times, [0.0, 1.0, 0.0, 0.5, 1.0])
    np.testing.assert_array_equal(X.padded(X.times), [[0.0, 1.0, 0.0], [0.0, 0.5, 1.0]])
    np.testing.assert_array_equal(X.padded(X.mask)[0, 2], False)
    np.testing.assert_array_equal(X.labels, [[1, 0, 0], [0, 1, 1]])
    np.testing.assert_array_equal(X.label_counts, [2, 3])
    with pytest.raises(DataError, match="batch"):
        collate([])


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


def rewrite_header(path, edit):
    """Apply edit(header) to a saved model file's JSON header in place."""
    raw = open(path, "rb").read()
    (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
    start = len(MAGIC) + 4
    header = json.loads(raw[start:start + hlen])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", len(blob)) + blob + raw[start + hlen:])


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
