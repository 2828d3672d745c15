"""Call-site instrumentation of the tada package for the benchmark.

Nothing in ``src/tada`` knows about this module.  It wraps public functions
where their callers look them up (``tada.model.te_forward``, because
``model.py`` binds the name at import) and restores every original on exit.

``StepClock`` is the light probe the untraced pass uses: it timestamps the
end of each ``Adam.step`` and each ``evaluate_preps`` call inside
``tada.training.train``, which yields optimizer-step latencies without
touching the forward or backward code.  ``Tracer`` wraps every layer and
records one span per call.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import time
from collections import defaultdict
from unittest import mock

import numpy as np

import tada.data
import tada.model
import tada.optim
import tada.tensor
import tada.training

now = time.perf_counter


class StepClock:
    """Optimizer-step and validation timings from inside ``train``.

    A step runs from the end of the previous step (or of the previous
    validation) to the end of its ``Adam.step``.  The first step of a run
    has no observable start, because ``train`` prepares its samples just
    before it, so it is counted in ``completed`` but not timed.
    """

    def __init__(self):
        self.steps: list[tuple[int, float, float]] = []
        self.evals: list[tuple[float, float, int]] = []
        self.completed = 0
        self._mark: float | None = None
        self._patches = contextlib.ExitStack()

    def __enter__(self) -> "StepClock":
        orig_step = tada.optim.Adam.step
        orig_eval = tada.training.evaluate_preps

        def step(opt):
            orig_step(opt)
            t = now()
            if self._mark is not None:
                self.steps.append((self.completed, self._mark, t))
            self.completed += 1
            self._mark = t

        def evaluate_preps(model, preps):
            t0 = now()
            report = orig_eval(model, preps)
            t1 = now()
            self.evals.append((t0, t1, len(preps)))
            self._mark = t1
            return report

        self._patches.enter_context(mock.patch.object(tada.optim.Adam, "step", step))
        self._patches.enter_context(
            mock.patch.object(tada.training, "evaluate_preps", evaluate_preps))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.close()


def _prep_bytes(prep) -> int:
    return sum(v.nbytes for v in vars(prep).values() if isinstance(v, np.ndarray))


def _graph_op_nodes(root) -> int:
    """Op nodes ``Tensor.backward`` visits from ``root`` (leaves excluded)."""
    seen = {id(root)}
    stack = [root]
    ops = 0
    while stack:
        node = stack.pop()
        if node._backward is not None:
            ops += 1
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return ops


class Tracer:
    """Spans around the calls into each tada layer.

    A span is ``{id, parent, name, start, end, workload, item}``; ``item``
    is the sample id for per-sample layers, the step index for per-batch
    ones inside a training step, the file name for ``data.load`` and the
    sample count for ``training.evaluate``.  Spans stay in memory until
    ``write``.  Counters (``counts``) are summed at the same boundaries.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches = contextlib.ExitStack()

    # span recording -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, item=None):
        sid = len(self.spans)
        rec = {"id": sid, "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": now(), "end": None,
               "workload": self.workload, "item": item}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = now()

    def _wrap(self, owner, attr: str, name: str, item_of=None, before=None, after=None):
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            item = item_of(*args) if item_of is not None else None
            with self.span(name, item):
                out = orig(*args, **kwargs)
            if after is not None:
                after(out, *args)
            return out

        self._patches.enter_context(mock.patch.object(owner, attr, wrapper))

    # installation -------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        m = tada.model
        c = self.counts

        def sample_of(*args):
            for a in args:
                sid = getattr(a, "sample_id", None)
                if sid is not None:
                    return sid
            return None

        def count_load(out, *args):
            c["data.samples"] += len(out)

        def count_prep(out, *args):
            c["model.prep_bytes"] += _prep_bytes(out)

        def count_te(out, params, prep, cfg, *rest):
            c["embedding.seg_elems"] += len(prep.times) * len(prep.feat_idx)

        def count_dla(out, params, prep, cfg, *rest):
            c["dla.weight_elems"] += (cfg.n_heads * cfg.n_queries
                                      * prep.values.shape[1] * len(prep.times))

        def before_backward(root):
            with self.span("tracer.graph_walk"):
                c["tensor.graph_nodes"] += _graph_op_nodes(root)

        self._wrap(tada.data, "load_dataset", "data.load",
                   item_of=lambda path, *a: str(path).rsplit("/", 1)[-1], after=count_load)
        self._wrap(m.TadaModel, "prepare", "model.prepare",
                   item_of=sample_of, after=count_prep)
        self._wrap(m, "te_forward", "embedding.te_forward", item_of=sample_of,
                   after=count_te)
        self._wrap(m, "dla_forward", "dla.forward", item_of=sample_of, after=count_dla)
        self._wrap(m, "run_mixer", "mixer.run_mixer")
        self._wrap(m, "fuse", "mixer.fuse")
        self._wrap(m, "classify", "mixer.classify")
        self._wrap(m, "cross_entropy_with_logits", "tensor.loss")
        self._wrap(tada.tensor.Tensor, "backward", "tensor.backward", before=before_backward)
        self._wrap(tada.optim.Adam, "step", "optim.adam_step")
        self._wrap(tada.training, "evaluate_preps", "training.evaluate",
                   item_of=lambda model, preps: len(preps))
        self._wrap(tada.training, "auroc", "metrics.auroc")
        self._wrap(tada.training, "auprc", "metrics.auprc")
        return self

    def __exit__(self, *exc) -> None:
        self._patches.close()

    def adopt_steps(self, clock: StepClock, region: dict) -> None:
        """Turn the clock's step intervals into ``training.step`` spans.

        ``train`` exposes no step boundary of its own, so each direct child
        of ``region`` (the span the benchmark opened around ``train``) that
        lies inside a step interval moves under that step and takes its
        index as ``item``.
        """
        steps = []
        for index, t0, t1 in clock.steps:
            rec = {"id": len(self.spans), "parent": region["id"], "name": "training.step",
                   "start": t0, "end": t1, "workload": self.workload, "item": index}
            self.spans.append(rec)
            steps.append(rec)
        starts = [s["start"] for s in steps]
        for s in self.spans:
            if s["parent"] != region["id"] or s["name"] == "training.step":
                continue
            k = bisect.bisect_right(starts, s["start"]) - 1
            if k >= 0 and s["end"] <= steps[k]["end"]:
                s["parent"] = steps[k]["id"]
                if s["item"] is None:
                    s["item"] = steps[k]["item"]

    # reporting ----------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: (s["end"] - s["start"]) - child[s["id"]] for s in self.spans}

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        selfs = self.self_times()
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for s in self.spans:
            row = out[s["name"]]
            row["calls"] += 1
            row["total_s"] += s["end"] - s["start"]
            row["self_s"] += selfs[s["id"]]
        return dict(out)

    def write(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s, "self": selfs[s["id"]]}) + "\n")


def layer_metrics(tracer: Tracer, batch_size: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced pass: name -> (value, unit).

    Per-sample layers divide by their call count (one call per sample);
    backward and the graph size divide by the samples of the batches
    backpropagated, which are always full batches of ``batch_size``.
    """
    rows = tracer.summary()
    c = tracer.counts

    def calls(name: str) -> int:
        return rows.get(name, {}).get("calls", 0)

    def total(name: str) -> float:
        return rows.get(name, {}).get("total_s", 0.0)

    def per(value: float, n: int) -> float:
        return value / n if n else 0.0

    backward_samples = calls("tensor.backward") * batch_size
    fc_calls = calls("mixer.classify")
    n_eval = calls("training.evaluate")
    return {
        "data.load_ms_per_sample": (per(total("data.load"), c["data.samples"]) * 1e3, "ms"),
        "data.load_calls": (calls("data.load"), "count"),
        "model.prepare_us_per_sample": (
            per(total("model.prepare"), calls("model.prepare")) * 1e6, "us"),
        "model.prep_kb_per_sample": (
            per(c["model.prep_bytes"], calls("model.prepare")) / 1024, "KiB"),
        "model.prepare_calls": (calls("model.prepare"), "count"),
        "embedding.te_forward_ms_per_sample": (
            per(total("embedding.te_forward"), calls("embedding.te_forward")) * 1e3, "ms"),
        "embedding.seg_elems_per_sample": (
            per(c["embedding.seg_elems"], calls("embedding.te_forward")), "count"),
        "embedding.te_forward_calls": (calls("embedding.te_forward"), "count"),
        "dla.forward_ms_per_sample": (per(total("dla.forward"), calls("dla.forward")) * 1e3, "ms"),
        "dla.weight_elems_per_sample": (per(c["dla.weight_elems"], calls("dla.forward")), "count"),
        "dla.forward_calls": (calls("dla.forward"), "count"),
        "mixer.run_mixer_ms_per_sample": (
            per(total("mixer.run_mixer"), calls("mixer.run_mixer")) * 1e3, "ms"),
        "mixer.run_mixer_calls": (calls("mixer.run_mixer"), "count"),
        "mixer.fuse_classify_ms_per_sample": (
            per(total("mixer.fuse") + total("mixer.classify"), fc_calls) * 1e3, "ms"),
        "mixer.fuse_classify_calls": (fc_calls, "count"),
        "tensor.loss_ms_per_sample": (per(total("tensor.loss"), calls("tensor.loss")) * 1e3, "ms"),
        "tensor.loss_calls": (calls("tensor.loss"), "count"),
        "tensor.backward_ms_per_sample": (
            per(total("tensor.backward"), backward_samples) * 1e3, "ms"),
        "tensor.graph_nodes_per_sample": (per(c["tensor.graph_nodes"], backward_samples), "count"),
        "tensor.backward_calls": (calls("tensor.backward"), "count"),
        "optim.adam_step_ms": (per(total("optim.adam_step"), calls("optim.adam_step")) * 1e3, "ms"),
        "optim.adam_step_calls": (calls("optim.adam_step"), "count"),
        "training.step_self_ms": (
            per(rows.get("training.step", {}).get("self_s", 0.0), calls("training.step")) * 1e3,
            "ms"),
        "training.step_calls": (calls("training.step"), "count"),
        "metrics.auroc_auprc_ms": (
            per(total("metrics.auroc") + total("metrics.auprc"), n_eval) * 1e3, "ms"),
        "metrics.auroc_auprc_calls": (calls("metrics.auroc") + calls("metrics.auprc"), "count"),
    }
