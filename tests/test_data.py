"""Event parsing, masking, splitting, and the synthetic frequency task."""

import gc
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from helpers import build_series
from tada.config import RunConfig
from tada.data import (
    IrregularSeries,
    SynthConfig,
    load_dataset,
    normalize_times,
    observation_arrays,
    parse_events,
    read_data_manifest,
    serialize_events,
    series_from_events,
    split_dataset,
    synth_generate,
    write_data_manifest,
    write_dataset,
)
from tada.errors import ConfigError, DataError
from tada.model import TadaModel


def make_series(sid, label, times):
    return build_series([(t, [(0, 1.0)]) for t in times], sid=sid, label=label)


EXAMPLE_LINE = '{"id":"a","label":1,"events":[[0.0,0,1.5],[0.0,2,3.0],[5.0,0,1.6]]}'


# parsing ---------------------------------------------------------------------


def test_parse_groups_events_by_time():
    s = parse_events(EXAMPLE_LINE, n_features=3)
    assert s.sample_id == "a" and s.label == 1
    assert len(s) == 2
    assert [o.feature for o in s.steps[0].observations] == [0, 2]
    assert [o.feature for o in s.steps[1].observations] == [0]
    assert s.steps[0].time == 0.0 and s.steps[1].time == 5.0


def test_parse_sorts_out_of_order_events():
    shuffled = '{"id":"a","label":1,"events":[[5.0,0,1.6],[0.0,2,3.0],[0.0,0,1.5]]}'
    assert serialize_events(parse_events(shuffled, 3)) == \
        serialize_events(parse_events(EXAMPLE_LINE, 3))


def test_parse_rejects_malformed_records():
    bad = [
        "not json",
        '{"id":"a","label":1}',
        '{"id":"a","label":1,"events":[],"extra":1}',
        '{"id":"a","label":1,"events":[]}',
        '{"id":"","label":1,"events":[[0,0,1]]}',
        '{"id":"a","label":1,"events":[[0,0]]}',
        '{"id":"a","label":1,"events":[[0,3,1.0]]}',
        '{"id":"a","label":1,"events":[[0,-1,1.0]]}',
        '{"id":"a","label":1,"events":[[0,0.5,1.0]]}',
        '{"id":"a","label":1,"events":[[NaN,0,1.0]]}',
        '{"id":"a","label":true,"events":[[0,0,1.0]]}',
        '{"id":"a","label":[1,2],"events":[[0,0,1.0]]}',
        '{"id":"a","label":1,"events":[[0,true,1.0]]}',
        '{"id":"a","label":1,"events":[[0,0,true]]}',
    ]
    for line in bad:
        with pytest.raises(DataError):
            parse_events(line, n_features=3)


@pytest.mark.parametrize("line", [
    '{"id":"a","label":1,"events":[[1%s,0,1.0]]}' % ("0" * 400),
    '{"id":"a","label":1,"events":[[0.0,0,1%s]]}' % ("0" * 400),
    '{"id":"a","label":%s,"events":[[0.0,0,1.0]]}' % ("1" * 5000),
    "[" * 100000,
], ids=["int-time-beyond-float", "int-value-beyond-float", "int-beyond-digit-limit",
        "deep-nesting"])
def test_parse_rejects_what_json_parses_but_python_cannot_hold(line):
    with pytest.raises(DataError):
        parse_events(line, n_features=3)


json_leaves = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=4))
json_values = st.recursive(
    json_leaves, lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3), max_leaves=8)
events_like = st.lists(st.lists(json_values, min_size=3, max_size=3) | json_values,
                       max_size=4)


def parses_or_data_error(line):
    """The line loads as the per-event parser loads it, or raises the
    DataError it raises."""
    try:
        old = reference.parse_events(line, n_features=3, line_no=9)
    except DataError as e:
        with pytest.raises(DataError, match=f"^{re.escape(str(e))}$"):
            parse_events(line, n_features=3, line_no=9)
        return
    series = parse_events(line, n_features=3, line_no=9)
    assert isinstance(series, IrregularSeries) and len(series) >= 1
    assert (series.sample_id, series.steps, series.label) == \
        (old.sample_id, old.steps, old.label)
    # the bytes as well, which tell a -0.0 step time from 0.0
    assert serialize_events(series) == reference.serialize_steps(old)


@settings(deadline=None, max_examples=300)
@given(json_values, json_values, events_like | json_values)
def test_parse_fuzzed_records_load_or_raise_data_error(sid, label, events):
    parses_or_data_error(json.dumps({"id": sid, "label": label, "events": events}))


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_parse_fuzzed_text_loads_or_raises_data_error(data):
    line = EXAMPLE_LINE
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(line)))
        cut = data.draw(st.integers(0, 3))
        line = line[:i] + data.draw(st.text(max_size=3)) + line[i + cut:]
    parses_or_data_error(line)


# times that events share, int and float, and zeros of both signs
shared_times = st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2.5, -3, 1e-300, 2 ** 53, 2 ** 53 + 1])
numbers = shared_times | st.integers(-2 ** 70, 2 ** 70) | st.floats(allow_nan=False,
                                                                    allow_infinity=False)
# what JSON can hold but no event may: bools, strings, ints beyond float64 or
# int64, NaN and Infinity (json.dumps writes them as the bare tokens)
refused = st.sampled_from([True, False, "1", None, [0], 10 ** 400, -(10 ** 400), 2 ** 70,
                           math.nan, math.inf, -math.inf])
good_event = st.tuples(shared_times | numbers, st.integers(0, 2), numbers).map(list)
bad_event = (st.tuples(numbers | refused, st.integers(-1, 3) | refused,
                       numbers | refused).map(list)
             | st.lists(numbers, max_size=4).filter(lambda ev: len(ev) != 3)
             | numbers | refused)
labels = (st.integers(0, 1) | st.booleans() | st.just("1")
          | st.lists(st.integers(0, 1) | refused, max_size=5))


@settings(deadline=None, max_examples=400)
@given(st.lists(st.one_of(good_event, good_event, good_event, bad_event), max_size=12),
       labels)
# a step at 0.0 and -0.0 keeps the sign of its first event, whatever its feature
@example(events=[[-0.0, 2, 1.0], [0.0, 1, 2.0]], label=0)
@example(events=[[0, 2, 1.0], [-0.0, 1, 2.0], [-0.0, 2, 3.0]], label=[1])
def test_parse_matches_the_per_event_parser(events, label):
    # out of order, shared times, repeated (time, feature) pairs, and one bad
    # event among good ones: the same steps or the same message
    parses_or_data_error(json.dumps({"id": "p", "label": label, "events": events}))


def test_events_built_in_code_may_hold_subclasses_of_int_float_and_list():
    # numpy's float64 is a float, as the per-event checks always accepted
    class Event(list):
        pass
    odd = [Event([np.float64(1.0), 0, np.float64(2.0)]), (0.5, 1, 3)]
    plain = [[1.0, 0, 2.0], [0.5, 1, 3.0]]
    assert series_from_events("s", odd, 0, 2) == series_from_events("s", plain, 0, 2)
    with pytest.raises(DataError, match=r"^sample s: event 1 feature index True outside"):
        series_from_events("s", [[np.float64(1.0), 0, 2.0], [0.5, True, 3.0]], 0, 2)


def test_parse_error_carries_line_number():
    with pytest.raises(DataError, match="line 7"):
        parse_events("{", n_features=3, line_no=7)


def test_duplicate_time_feature_resolves_last_wins():
    line = '{"id":"a","label":0,"events":[[1.0,0,10.0],[1.0,0,20.0],[1.0,1,5.0]]}'
    s = parse_events(line, n_features=2)
    assert len(s.steps) == 1
    assert {(o.feature, o.value) for o in s.steps[0].observations} == \
        {(0, 20.0), (1, 5.0)}


def test_step_labels_must_match_grouped_steps():
    line = '{"id":"a","label":[0,1],"events":[[0.0,0,1.0],[0.0,1,2.0],[1.0,0,3.0]]}'
    s = parse_events(line, n_features=2)
    assert s.label == (0, 1)
    bad = '{"id":"a","label":[0,1,1],"events":[[0.0,0,1.0],[1.0,0,3.0]]}'
    with pytest.raises(DataError, match="step labels"):
        parse_events(bad, n_features=2)


def test_serialize_round_trip():
    s = parse_events(EXAMPLE_LINE, n_features=3)
    again = parse_events(serialize_events(s), n_features=3)
    assert again == s


def test_load_dataset_sorted_and_line_numbered(tmp_path):
    path = tmp_path / "d.jsonl"
    rows = [
        '{"id":"b","label":0,"events":[[0.0,0,1.0]]}',
        "",
        '{"id":"a","label":1,"events":[[0.0,0,2.0]]}',
    ]
    path.write_text("\n".join(rows) + "\n")
    samples = load_dataset(str(path), n_features=1)
    assert [s.sample_id for s in samples] == ["a", "b"]
    path.write_text("\n\n{bad\n")
    with pytest.raises(DataError, match="line 3"):
        load_dataset(str(path), n_features=1)


def test_load_dataset_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_bytes(b'{"id":"a","label":1,"events":[[0.0,0,2.0]]}\n\xff\xfe\n')
    with pytest.raises(DataError, match="not UTF-8"):
        load_dataset(str(path), n_features=1)
    # a path that cannot be opened as a file is a data error too
    with pytest.raises(DataError, match=re.escape(f"cannot read {tmp_path}: ")):
        load_dataset(str(tmp_path), n_features=1)


def test_write_then_load_round_trip(tmp_path):
    samples = [make_series(f"s{i}", i % 2, [0.0, float(i + 1)]) for i in range(5)]
    path = tmp_path / "out.jsonl"
    write_dataset(str(path), samples)
    assert load_dataset(str(path), n_features=1) == sorted(
        samples, key=lambda s: s.sample_id)


def test_data_manifest_round_trip(tmp_path):
    write_data_manifest(str(tmp_path), n_features=4, task="sequence", n_classes=2)
    man = read_data_manifest(str(tmp_path))
    assert man == {"D": 4, "task": "sequence", "n_classes": 2}
    (tmp_path / "manifest.json").write_text('{"D": 4, "task": "weird", "n_classes": 2}')
    with pytest.raises(DataError, match="task"):
        read_data_manifest(str(tmp_path))
    (tmp_path / "manifest.json").write_text('{"D": 4}')
    with pytest.raises(DataError, match="task"):
        read_data_manifest(str(tmp_path))
    # wrong types ended in a TypeError, or in a label check naming True
    for text, key in (('{"D": "4", "task": "step", "n_classes": 2}', "D"),
                      ('{"D": 4.5, "task": "step", "n_classes": 2}', "D"),
                      ('{"D": true, "task": "step", "n_classes": 2}', "D"),
                      ('{"D": 0, "task": "step", "n_classes": 2}', "D"),
                      ('{"D": 4, "task": "step", "n_classes": "2"}', "n_classes"),
                      ('{"D": 4, "task": "step", "n_classes": false}', "n_classes"),
                      ('{"D": 4, "task": "step", "n_classes": 1}', "n_classes"),
                      ('[4, "step", 2]', "JSON object"), ('4', "JSON object")):
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(DataError, match=f"manifest.*{key}"):
            read_data_manifest(str(tmp_path))


# time normalization and masking ----------------------------------------------


def test_normalize_times_examples():
    s = normalize_times(make_series("x", 0, [0.0, 5.0, 10.0]))
    np.testing.assert_array_equal(s.times, [0.0, 0.5, 1.0])
    s = normalize_times(make_series("x", 0, [3.0]))
    np.testing.assert_array_equal(s.times, [0.0])
    s = normalize_times(make_series("x", 0, [2.0, 4.0]))
    np.testing.assert_array_equal(s.times, [0.0, 1.0])


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=2, max_size=20, unique=True))
def test_normalize_times_affine_property(times):
    times = sorted(times)
    s = normalize_times(make_series("x", 0, times))
    out = s.times
    assert out[0] == 0.0 and out[-1] == 1.0
    # monotone; equality only when a gap underflows relative to the span
    assert np.all(np.diff(out) >= 0)
    span = times[-1] - times[0]
    expected = (np.array(times) - times[0]) / span
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_normalize_times_rejects_a_span_beyond_float_range():
    # the span overflows to inf and would map the last step to nan
    with pytest.raises(DataError, match="span"):
        normalize_times(make_series("x", 0, [-1e308, 0.0, 1e308]))


@pytest.mark.parametrize("times", [[1.0, 1.0], [0.0, 2.0, 2.0], [2.0, 1.0], [0.0, 3.0, 1.0],
                                   [0.0, float("nan"), 1.0]])
def test_normalize_times_rejects_steps_that_do_not_increase(times):
    # a series built in code; parse_events merges and sorts, so files never
    # reach this
    with pytest.raises(DataError, match="^sample bad: step times"):
        normalize_times(make_series("bad", 0, times))


def test_prepare_rejects_steps_that_do_not_increase():
    model = TadaModel(RunConfig(), 2, 2, "sequence")
    with pytest.raises(DataError, match="^sample bad: step times"):
        model.prepare(make_series("bad", 0, [1.0, 1.0]))


def test_build_value_mask_example():
    s = parse_events(EXAMPLE_LINE, n_features=3)
    step_of, feat_idx, vals, V = observation_arrays(s, 3)
    np.testing.assert_array_equal(V, [[1.5, 0.0, 3.0], [1.6, 0.0, 0.0]])
    np.testing.assert_array_equal(step_of, [0, 0, 1])
    np.testing.assert_array_equal(feat_idx, [0, 2, 0])
    np.testing.assert_array_equal(V[step_of, feat_idx], vals)
    M = np.zeros(V.shape, dtype=bool)
    M[step_of, feat_idx] = True
    np.testing.assert_array_equal(M, [[True, False, True], [True, False, False]])
    # never-observed feature keeps an all-zero column
    assert not M[:, 1].any() and not V[:, 1].any()


def test_build_value_mask_counts_match_observations():
    rng = np.random.default_rng(4)
    steps = []
    total = 0
    for k in range(6):
        feats = rng.choice(5, size=rng.integers(1, 5), replace=False)
        steps.append((float(k), [(int(f), float(rng.normal())) for f in sorted(feats)]))
        total += len(feats)
    s = build_series(steps, sid="x")
    step_of, feat_idx, vals, V = observation_arrays(s, 5)
    np.testing.assert_array_equal(V[step_of, feat_idx], vals)
    M = np.zeros(V.shape, dtype=bool)
    M[step_of, feat_idx] = True
    assert M.sum() == total
    np.testing.assert_array_equal(V[~M], 0.0)
    want = sum(v for _, obs in steps for _, v in obs)
    assert abs(V[M].sum() - want) < 1e-12


# splitting ---------------------------------------------------------------------


def test_split_sizes_and_stratification():
    # 1000 samples, 14.2% positive, 8:1:1
    samples = [make_series(f"s{i:04d}", 1 if i < 142 else 0, [0.0, 1.0])
               for i in range(1000)]
    train, val, test = split_dataset(samples, (0.8, 0.1, 0.1), seed=0)
    assert (len(train), len(val), len(test)) == (800, 100, 100)
    for part in (train, val, test):
        frac = sum(s.label for s in part) / len(part)
        assert 0.122 <= frac <= 0.162
    # the three parts partition the input
    ids = sorted(s.sample_id for part in (train, val, test) for s in part)
    assert ids == sorted(s.sample_id for s in samples)


def test_split_deterministic_and_seed_sensitive():
    samples = [make_series(f"s{i:03d}", i % 2, [0.0, 1.0]) for i in range(40)]
    a = split_dataset(samples, (0.8, 0.1, 0.1), seed=5)
    b = split_dataset(samples, (0.8, 0.1, 0.1), seed=5)
    c = split_dataset(samples, (0.8, 0.1, 0.1), seed=6)
    assert [[s.sample_id for s in part] for part in a] == \
        [[s.sample_id for s in part] for part in b]
    assert [[s.sample_id for s in part] for part in a] != \
        [[s.sample_id for s in part] for part in c]


def test_split_all_in_train():
    samples = [make_series(f"s{i}", i % 2, [0.0, 1.0]) for i in range(10)]
    train, val, test = split_dataset(samples, (1.0, 0.0, 0.0), seed=0)
    assert len(train) == 10 and not val and not test


def test_split_errors():
    samples = [make_series(f"s{i}", i % 2, [0.0, 1.0]) for i in range(10)]
    with pytest.raises(ConfigError, match="sum to 1"):
        split_dataset(samples, (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(ConfigError, match="3 ratios"):
        split_dataset(samples, (0.5, 0.5), seed=0)
    with pytest.raises(ConfigError, match="non-negative"):
        split_dataset(samples, (1.2, -0.1, -0.1), seed=0)
    # class 2 has a single member, fewer than the three populated splits
    rare = samples + [make_series("rare", 2, [0.0, 1.0])]
    with pytest.raises(DataError, match="class 2"):
        split_dataset(rare, (0.8, 0.1, 0.1), seed=0)
    stepwise = [build_series([(0.0, [(0, 1.0)])], label=(0,))]
    with pytest.raises(DataError, match="sequence-level"):
        split_dataset(stepwise * 4, (0.8, 0.1, 0.1), seed=0)
    # numpy's generators refuse a negative seed with a ValueError
    with pytest.raises(ConfigError, match="^split seed must be >= 0, got -1$"):
        split_dataset(samples, (0.8, 0.1, 0.1), seed=-1)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=6, max_value=60), st.integers(min_value=0, max_value=99))
def test_split_partitions_exactly(n, seed):
    samples = [make_series(f"s{i:03d}", i % 2, [0.0, 1.0]) for i in range(n)]
    parts = split_dataset(samples, (0.8, 0.1, 0.1), seed=seed)
    ids = sorted(s.sample_id for part in parts for s in part)
    assert ids == sorted(s.sample_id for s in samples)
    sizes = sorted(len(p) for p in parts)
    assert sum(sizes) == n and sizes[2] >= sizes[1] >= sizes[0]


# synthetic task ----------------------------------------------------------------


def test_synth_deterministic_and_seed_sensitive():
    cfg = SynthConfig(n_samples=12, seed=3)
    a, meta_a = synth_generate(cfg)
    b, _ = synth_generate(SynthConfig(n_samples=12, seed=3))
    c, _ = synth_generate(SynthConfig(n_samples=12, seed=4))
    assert [serialize_events(s) for s in a] == [serialize_events(s) for s in b]
    assert [serialize_events(s) for s in a] != [serialize_events(s) for s in c]
    assert meta_a["freqs"] == [3.0, 5.0]


def test_synth_labels_and_metadata():
    cfg = SynthConfig(n_samples=9, n_classes=3, freqs=(1.0, 2.0, 3.0), seed=0)
    samples, meta = synth_generate(cfg)
    assert [s.label for s in samples] == [i % 3 for i in range(9)]
    for s in samples:
        entry = meta["per_sample"][s.sample_id]
        assert entry["label"] == s.label
        assert entry["freq"] == cfg.freqs[s.label]


def test_synth_noise_free_values_follow_the_sinusoid():
    cfg = SynthConfig(n_samples=4, noise=0.0, seed=11)
    samples, meta = synth_generate(cfg)
    for s in samples:
        f = meta["per_sample"][s.sample_id]["freq"]
        for step in s.steps:
            for obs in step.observations:
                want = math.sin(2.0 * math.pi * f * step.time) \
                    + cfg.offset_scale * obs.feature
                assert abs(obs.value - want) < 1e-12


def test_synth_times_strictly_increasing_and_bounded():
    samples, _ = synth_generate(SynthConfig(n_samples=20, seed=7))
    for s in samples:
        t = s.times
        assert np.all(np.diff(t) > 0)
        assert t[0] >= 0.0 and t[-1] < 1.0
        assert all(step.observations for step in s.steps)


def test_synth_config_errors():
    with pytest.raises(ConfigError, match="rates"):
        synth_generate(SynthConfig(n_features=3))
    with pytest.raises(ConfigError, match="classes"):
        synth_generate(SynthConfig(n_classes=1))
    with pytest.raises(ConfigError, match="freqs"):
        SynthConfig(freqs=(1.0,)).resolved_freqs()


@pytest.mark.parametrize("changes,match", [
    ({"n_features": 0, "rates": ()}, "n_features"),       # looped forever
    ({"rates": (1.0, math.inf, 1.0, 1.0)}, "rates"),       # looped forever, growing
    ({"rates": (1.0, 1e7, 1.0, 1.0)}, "rates"),            # days of generation
    ({"rates": (0.0, 0.0, 0.0, 0.0)}, "rates"),            # ZeroDivisionError
    ({"rates": (-1.0, 2.0, 1.0, 1.0)}, "rates"),           # ValueError
    ({"rates": (math.nan, 1.0, 1.0, 1.0)}, "rates"),       # accepted silently
    ({"noise": -1.0}, "noise"), ({"noise": math.nan}, "noise"),
    ({"freqs": (3.0, math.inf)}, "freqs"), ({"offset_scale": math.nan}, "offset_scale"),
    ({"seed": -1}, "seed"),                                # ValueError
])
def test_synth_config_validation_refuses_what_the_generator_cannot_finish(changes, match):
    # the validator alone, so a missing check fails here instead of hanging
    with pytest.raises(ConfigError, match=match):
        SynthConfig(**changes).validate()
    assert SynthConfig().validate() == SynthConfig()


def test_synth_default_freqs_scale_with_classes():
    assert SynthConfig(n_classes=4).resolved_freqs() == (3.0, 5.0, 7.0, 9.0)


# the benchmark's inputs ----------------------------------------------------------

# sha256 of 64 synth samples at the default rates times 1 and 8 (perfbench's
# train_short and train_long), as the per-step generator wrote them
SYNTH_SHA256 = {
    (1, 0): "de60fd0459c259f427c4fa775f7f52f2d4e72d849bcc161178a3195017a1c117",
    (1, 1): "26d3da8349639ffc9dabb52014f4544b72baba50f6c17354dc2c12dba32caf60",
    (8, 0): "c7cc74d618a51b00d864871288613e7eeafccc312dc62b9fd7d4b8d74c4a9920",
    (8, 1): "6f866cd9334e748d29e4c82914eef2605045f3cfed12aee0ae20994b57858365",
}


@pytest.mark.parametrize("scale,seed", sorted(SYNTH_SHA256))
def test_synth_bytes_and_prepared_arrays_are_pinned(tmp_path, scale, seed):
    cfg = SynthConfig(n_samples=64, rates=tuple(r * scale for r in (2.0, 4.0, 8.0, 16.0)),
                      seed=seed)
    path = tmp_path / "synth.jsonl"
    write_dataset(str(path), synth_generate(cfg)[0])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SYNTH_SHA256[scale, seed]
    # prepared from the loaded arrays as from the per-event parser's steps
    model = TadaModel(RunConfig(), 4, 2, "sequence")
    lines = path.read_text().splitlines()
    for series, line in zip(load_dataset(str(path), 4), lines, strict=True):
        got = model.prepare(series)
        want = reference.prepare_by_steps(model, reference.parse_events(line, 4))
        for name, a in vars(want).items():
            b = getattr(got, name)
            assert np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype, name


def test_load_and_prepare_never_build_step_objects(tmp_path, monkeypatch):
    path = tmp_path / "synth.jsonl"
    write_dataset(str(path), synth_generate(SynthConfig(n_samples=8, seed=0))[0])

    def refuse(self):
        raise AssertionError("steps built on the load or prepare path")
    monkeypatch.setattr(IrregularSeries, "steps", property(refuse))
    model = TadaModel(RunConfig(), 4, 2, "sequence")
    assert len([model.prepare(s) for s in load_dataset(str(path), 4)]) == 8


def test_a_loaded_event_holds_at_most_64_bytes():
    rng = np.random.default_rng(0)
    n = 10_000
    events = zip(rng.uniform(0.0, 1.0, n).tolist(), rng.integers(0, 4, n).tolist(),
                 rng.normal(size=n).tolist())
    line = json.dumps({"id": "m", "label": 0, "events": list(events)})
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        series = parse_events(line, 4)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(series.values) == n
    assert held / n <= 64, f"{held / n:.0f} B per event"
