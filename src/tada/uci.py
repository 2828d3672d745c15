"""Converter for the public indoor-localization activity recordings.

Input is the raw CSV with rows
``sequence_name,tag_id,timestamp,date,x,y,z,activity``: one row per sensor
tag reading.  Each of the 4 body tags contributes its 3 coordinates, giving
12 features.  Conversion choices, all visible here and in the manifest:

* rows group into a step by exact (sequence, timestamp) equality;
* a step's time is its stamp's offset from the sequence's first stamp,
  which a float holds exactly, where the raw stamps (about 6.3e17) would
  lose their last digits;
* related postures merge into 7 activity classes (see ACTIVITY_CLASSES);
* each sequence is chopped into consecutive non-overlapping windows of 50
  steps (trailing remainder dropped); every window is one sample with
  per-step labels;
* duplicate (timestamp, feature) readings resolve last-wins.
"""

from __future__ import annotations

import math

import numpy as np

from .data import IrregularSeries, series_from_events, text_lines
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
    rows: dict[str, list[tuple[int, int, tuple[float, ...], int]]] = {}
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
        if not all(map(math.isfinite, coords)):
            raise DataError(f"line {line_no}: non-finite coordinate")
        rows.setdefault(seq, []).append(
            (ts, TAG_FEATURES[tag] * 3, coords, ACTIVITY_CLASSES[activity]))

    samples: list[IrregularSeries] = []
    for seq in sorted(rows):
        # stamps as offsets from the first, which floats hold exactly, so
        # readings at distinct stamps stay distinct steps
        t0 = min(r[0] for r in rows[seq])
        if max(r[0] for r in rows[seq]) - t0 >= 2 ** 53:
            raise DataError(f"sequence {seq}: stamps span 2**53 or more")
        events = [(ts - t0, base + axis, v) for ts, base, coords, _ in rows[seq]
                  for axis, v in enumerate(coords)]
        # the whole sequence as one series; its windows take step labels below
        whole = series_from_events(seq, events, 0, N_FEATURES, f"sequence {seq}")
        offsets = whole.times.astype(np.int64).tolist()
        label_at = {ts - t0: label for ts, _, _, label in rows[seq]}   # the last row wins
        labels = tuple(label_at[k] for k in offsets)
        bounds = np.searchsorted(whole.step_of, np.arange(0, len(offsets) + 1, window))
        for w, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            steps = slice(w * window, (w + 1) * window)
            samples.append(IrregularSeries(
                f"{seq}-w{w:03d}", whole.times[steps], whole.step_of[a:b] - w * window,
                whole.feat[a:b], whole.values[a:b], labels[steps]))
    if not samples:
        raise DataError(f"{path}: no complete {window}-step windows found")
    manifest = {"D": N_FEATURES, "task": "step", "n_classes": N_CLASSES}
    return samples, manifest
