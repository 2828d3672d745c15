"""Diagnostic T-sweep: where the length-dependent cost sits (not gated).

Forward and backward passes over a small batch at T~30, 60, 120, 240 and
480 (tada synth rates x1..x16), reporting te and DLA milliseconds per sample
next to their work counts: te's dense (T, N) segment matrices (seg_elems,
T*N) and DLA's (H, L, D, T) gates and weights (weight_elems).  It tests the
guess that DLA's O(H*L*D*T) term dominates long series against te's
quadratic one.  Run from the root of a source checkout:

    python3 perfbench/sweep.py --seed 0

Times are means over ``REPS`` passes of the same batch of ``BATCH`` samples.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import import_tada, pin_threads

SCALES = (1, 2, 4, 8, 16)
BATCH = 8
REPS = 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    pin_threads()
    import_tada()
    import numpy as np
    from tada.config import RunConfig
    from tada.model import TadaModel
    from tracing import Tracer, layer_metrics
    from workloads import N_CLASSES, N_FEATURES, synth

    rows = []
    print(f"{'scale':>5} {'T_mean':>7} {'te_ms':>8} {'dla_ms':>8} {'bwd_ms':>8} "
          f"{'seg_elems':>10} {'weight_elems':>12}")
    for scale in SCALES:
        samples = synth(BATCH, float(scale), args.seed)
        model = TadaModel(RunConfig().validate(), N_FEATURES, N_CLASSES, "sequence")
        preps = [model.prepare(s) for s in samples]
        tracer = Tracer("sweep")
        with tracer:
            for _ in range(REPS):
                model.batch_loss(preps).backward()
        m = layer_metrics(tracer, BATCH)
        row = {"scale": scale, "T_mean": float(np.mean([len(s) for s in samples])),
               "te_ms": m["embedding.te_forward_ms_per_sample"][0],
               "dla_ms": m["dla.forward_ms_per_sample"][0],
               "backward_ms": m["tensor.backward_ms_per_sample"][0],
               "seg_elems": m["embedding.seg_elems_per_sample"][0],
               "weight_elems": m["dla.weight_elems_per_sample"][0]}
        rows.append(row)
        print(f"{scale:>5} {row['T_mean']:7.1f} {row['te_ms']:8.3f} {row['dla_ms']:8.3f} "
              f"{row['backward_ms']:8.3f} {row['seg_elems']:10.0f} {row['weight_elems']:12.0f}")
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
