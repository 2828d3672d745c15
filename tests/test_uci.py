"""Activity-recording CSV converter on a schema-faithful fixture."""

import re

import numpy as np
import pytest

from tada.data import normalize_times, observation_arrays
from tada.errors import ConfigError, DataError
from tada.uci import (
    ACTIVITY_CLASSES,
    N_CLASSES,
    N_FEATURES,
    TAG_FEATURES,
    convert_uci_activity,
)

TAGS = sorted(TAG_FEATURES)


def write_fixture(path, n_steps, seqs=("A01",), start_ts=633790226051280329):
    """Rows mimicking the raw recording: 4 tags firing at staggered stamps."""
    rng = np.random.default_rng(8)
    activities = sorted(ACTIVITY_CLASSES)
    rows = []
    for seq in seqs:
        for k in range(n_steps):
            ts = start_ts + 1000 * k
            act = activities[k % len(activities)]
            tag = TAGS[k % 4]
            x, y, z = rng.uniform(0.0, 5.0, size=3).round(6)
            rows.append(f"{seq},{tag},{ts},27.05.2009 14:03:25:{k:03d},{x},{y},{z},{act}")
    path.write_text("\n".join(rows) + "\n")
    return rows


def test_fixture_converts_to_windowed_step_samples(tmp_path):
    csv = tmp_path / "activity.csv"
    write_fixture(csv, n_steps=120)
    samples, manifest = convert_uci_activity(str(csv), window=50)
    assert manifest == {"D": 12, "task": "step", "n_classes": 7}
    # 120 steps -> two full 50-step windows, trailing 20 dropped
    assert [s.sample_id for s in samples] == ["A01-w000", "A01-w001"]
    for s in samples:
        assert len(s.steps) == 50
        assert isinstance(s.label, tuple) and len(s.label) == 50
        assert all(0 <= c < N_CLASSES for c in s.label)
        times = s.times
        assert np.all(np.diff(times) > 0)
        # one tag per stamp in this fixture: 3 coordinates per step
        for step in s.steps:
            feats = [o.feature for o in step.observations]
            assert len(feats) == 3 and feats == sorted(feats)
            assert all(0 <= f < N_FEATURES for f in feats)


def test_converted_samples_flow_into_value_mask(tmp_path):
    csv = tmp_path / "activity.csv"
    write_fixture(csv, n_steps=50)
    samples, manifest = convert_uci_activity(str(csv), window=50)
    s = normalize_times(samples[0])
    step_of, feat_idx, vals, V = observation_arrays(s, manifest["D"])
    np.testing.assert_array_equal(V[step_of, feat_idx], vals)
    M = np.zeros(V.shape, dtype=bool)
    M[step_of, feat_idx] = True
    assert V.shape == (50, 12) and M.shape == (50, 12)
    assert M.sum() == 150
    assert s.times[0] == 0.0 and s.times[-1] == 1.0


def test_same_stamp_readings_merge_into_one_step(tmp_path):
    csv = tmp_path / "activity.csv"
    ts = 633790226051280329
    rows = [
        f"A01,{TAGS[0]},{ts},d,1.0,2.0,3.0,walking",
        f"A01,{TAGS[1]},{ts},d,4.0,5.0,6.0,walking",
        # duplicate reading for tag 0 at the same stamp: last wins
        f"A01,{TAGS[0]},{ts},d,9.0,9.0,9.0,walking",
        f"A01,{TAGS[0]},{ts + 5},d,7.0,8.0,9.0,falling",
    ]
    csv.write_text("\n".join(rows) + "\n")
    samples, _ = convert_uci_activity(str(csv), window=2)
    (s,) = samples
    assert len(s.steps) == 2
    first = {o.feature: o.value for o in s.steps[0].observations}
    base0 = TAG_FEATURES[TAGS[0]] * 3
    base1 = TAG_FEATURES[TAGS[1]] * 3
    assert first[base0] == 9.0 and first[base1] == 4.0
    assert s.label == (ACTIVITY_CLASSES["walking"], ACTIVITY_CLASSES["falling"])


def test_posture_merging_covers_seven_classes():
    assert set(ACTIVITY_CLASSES.values()) == set(range(N_CLASSES))
    assert ACTIVITY_CLASSES["lying"] == ACTIVITY_CLASSES["lying down"]
    assert ACTIVITY_CLASSES["sitting"] == ACTIVITY_CLASSES["sitting down"]
    assert ACTIVITY_CLASSES["standing up from lying"] == \
        ACTIVITY_CLASSES["standing up from sitting"]


@pytest.mark.parametrize("window", [0, -1])
def test_converter_refuses_a_window_below_one(tmp_path, window):
    # 0 raised range()'s ValueError, -1 "no complete -1-step windows found"
    csv = tmp_path / "activity.csv"
    write_fixture(csv, n_steps=120)
    with pytest.raises(ConfigError, match=f"^window must be >= 1, got {window}$"):
        convert_uci_activity(str(csv), window=window)


def test_converter_errors(tmp_path):
    csv = tmp_path / "bad.csv"
    csv.write_text("A01,not-a-tag,1,d,1,2,3,walking\n")
    with pytest.raises(DataError, match="tag"):
        convert_uci_activity(str(csv))
    csv.write_text(f"A01,{TAGS[0]},1,d,1,2,3,flying\n")
    with pytest.raises(DataError, match="activity"):
        convert_uci_activity(str(csv))
    csv.write_text(f"A01,{TAGS[0]},xx,d,1,2,3,walking\n")
    with pytest.raises(DataError, match="numeric"):
        convert_uci_activity(str(csv))
    csv.write_text("A01,too,few\n")
    with pytest.raises(DataError, match="8 CSV fields"):
        convert_uci_activity(str(csv))
    # a coordinate no sample may hold, and stamps that floats cannot tell apart
    csv.write_text(f"A01,{TAGS[0]},1,d,1,nan,3,walking\n")
    with pytest.raises(DataError, match="^line 1: non-finite coordinate$"):
        convert_uci_activity(str(csv))
    csv.write_text(f"A01,{TAGS[0]},0,d,1,2,3,walking\nA01,{TAGS[0]},{2 ** 53},d,1,2,3,walking\n")
    with pytest.raises(DataError, match="^sequence A01: stamps span 2\\*\\*53 or more$"):
        convert_uci_activity(str(csv))
    # fewer steps than one window
    csv.write_text(f"A01,{TAGS[0]},1,d,1,2,3,walking\n")
    with pytest.raises(DataError, match="windows"):
        convert_uci_activity(str(csv), window=50)
    csv.write_bytes(f"A01,{TAGS[0]},1,d,1,2,3,walking\n".encode() + b"\xff\xfe\n")
    with pytest.raises(DataError, match="not UTF-8"):
        convert_uci_activity(str(csv))
    missing = tmp_path / "missing.csv"
    with pytest.raises(DataError, match=re.escape(f"cannot read {missing}: ")):
        convert_uci_activity(str(missing))
