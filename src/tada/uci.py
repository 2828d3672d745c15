"""Converter for the public indoor-localization activity recordings.

Input is the raw CSV with rows
``sequence_name,tag_id,timestamp,date,x,y,z,activity``: one row per sensor
tag reading.  Each of the 4 body tags contributes its 3 coordinates, giving
12 features.  Conversion choices, all visible here and in the manifest:

* rows group into a step by exact (sequence, timestamp) equality;
* related postures merge into 7 activity classes (see ACTIVITY_CLASSES);
* each sequence is chopped into consecutive non-overlapping windows of 50
  steps (trailing remainder dropped); every window is one sample with
  per-step labels;
* duplicate (timestamp, feature) readings resolve last-wins.
"""

from __future__ import annotations

from .data import IrregularSeries, Observation, TimeStep, text_lines
from .errors import ConfigError, DataError

TAG_FEATURES = {
    "010-000-024-033": 0,
    "010-000-030-096": 1,
    "020-000-032-221": 2,
    "020-000-033-111": 3,
}

ACTIVITY_CLASSES = {
    "walking": 0,
    "falling": 1,
    "lying": 2,
    "lying down": 2,
    "sitting": 3,
    "sitting down": 3,
    "standing up from lying": 4,
    "standing up from sitting": 4,
    "standing up from sitting on the ground": 4,
    "on all fours": 5,
    "sitting on the ground": 6,
}

N_FEATURES = 12
N_CLASSES = 7
WINDOW = 50


def convert_uci_activity(path: str, window: int = WINDOW) -> tuple[list[IrregularSeries], dict]:
    """Parse the raw CSV into windowed step-labelled samples."""
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    per_seq: dict[str, dict[int, tuple[dict[int, float], int]]] = {}
    for line_no, line in enumerate(text_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise DataError(f"line {line_no}: expected 8 CSV fields, got {len(parts)}")
        seq, tag, ts_raw, _date, x, y, z, activity = parts
        if tag not in TAG_FEATURES:
            raise DataError(f"line {line_no}: unknown tag id {tag!r}")
        if activity not in ACTIVITY_CLASSES:
            raise DataError(f"line {line_no}: unknown activity {activity!r}")
        try:
            ts = int(ts_raw)
            coords = (float(x), float(y), float(z))
        except ValueError:
            raise DataError(f"line {line_no}: bad numeric field") from None
        base = TAG_FEATURES[tag] * 3
        steps = per_seq.setdefault(seq, {})
        values, _old_label = steps.get(ts, ({}, 0))
        for axis, v in enumerate(coords):
            values[base + axis] = v
        steps[ts] = (values, ACTIVITY_CLASSES[activity])

    samples: list[IrregularSeries] = []
    for seq in sorted(per_seq):
        steps_by_ts = per_seq[seq]
        ordered = [
            (ts, values, label)
            for ts, (values, label) in sorted(steps_by_ts.items())
            if values
        ]
        for w_start in range(0, len(ordered) - window + 1, window):
            chunk = ordered[w_start:w_start + window]
            steps = tuple(
                TimeStep(time=float(ts), observations=tuple(
                    Observation(feature=f, value=v) for f, v in sorted(values.items())))
                for ts, values, _ in chunk
            )
            labels = tuple(label for _, _, label in chunk)
            sid = f"{seq}-w{w_start // window:03d}"
            samples.append(IrregularSeries(sample_id=sid, steps=steps, label=labels))
    if not samples:
        raise DataError(f"{path}: no complete {window}-step windows found")
    manifest = {"D": N_FEATURES, "task": "step", "n_classes": N_CLASSES}
    return samples, manifest
