"""The two-shard gradient step.

Every mini-batch splits into two shards in a fixed order: shard 0 holds the
first ceil(n/2) samples, shard 1 the rest, and a batch of one is a single
shard.  Each shard's loss and gradients come from its own ``batch_loss``
backward, and the two combine by one fixed expression,
``w0 * x0 + w1 * x1`` with ``w_k = n_k / n``, which reproduces the mean
over the batch's samples of each sample's mean cross-entropy.  Because the
expression never changes, a run is byte-identical whether one process
computes both shards in order or a forked worker computes shard 1 while
the parent computes shard 0; the gradient reduction keeps a fixed order as
in PyTorch's DDP (Li et al. 2020, arXiv:2006.15704).

The worker also holds the validation preps, and computes about half of each
epoch's validation chunks.  ``_chunks`` cuts every evaluated list into
chunks from the samples and the model's shape alone, never from the
training batch size, and ``split_chunks`` assigns them from their padded
steps; the worker returns only logit rows, every chunk's rows come from the
same ``batch_logits`` call on the same inputs wherever it runs, and the
parent puts them back in chunk order, so validation is byte-identical on
one or two processes too.  ``chunk_logits`` finds the worker through the
step entered now (``_entered``): inside ``train()`` only a call on the very
list the worker holds uses it.  An evaluation outside any step enters a
step of its own for that one call, whose worker holds the evaluated list,
when the worker's share holds at least two full chunks (``2 * CHUNK_STEPS``,
8192 padded steps): forking, one round trip and closing cost about two
chunks' compute, so every smaller evaluation runs in this process and
starts nothing.

A training step allocates and frees tens of MB of temporaries.  With
glibc's default thresholds the freed heap top goes back to the kernel and
every step page-faults it back in (about 11 000 faults per train_long step),
which costs a fifth of a step and keeps two processes from scaling, so
entering a ``ShardedStep`` keeps freed memory in the heap (``_retain_heap``),
for training and for an evaluation large enough to fork alike.

Whether a worker runs, and where, is probed once per step from the host.
``_cpu_halves`` splits the CPUs this process may use into two disjoint
halves, the parent's and the worker's.  ``_may_fork`` asks for fork, all
three BLAS thread variables at ``"1"`` (two processes with multi-threaded
BLAS on two cores run slower than one) and a process of one thread (numpy
imported before the variables were set starts a pool anyway, and a process
with threads is not safe to fork).  Unpinned, the kernel wakes the worker
on the CPU of the parent that wrote to the pipe, and the two share it for
much of a short step: train_short's step ran slower on two processes than
on one.  So without an affinity call or a second CPU a run uses one
process, with the same bytes.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import os
import signal
import threading
import traceback

import numpy as np

from . import BLAS_THREAD_VARS
from .errors import TadaError, TrainingError
from .model import Batch, TadaModel
from .tensor import Tensor

Grads = dict[str, np.ndarray]

# the ShardedStep entered now, whose worker ``chunk_logits`` may use; a module
# global because the benchmark replaces ``evaluate_preps`` with a two-argument
# (model, preps) function, so the step cannot be passed through that call
_entered: "ShardedStep | None" = None


# glibc mallopt parameters, and the values ``_retain_heap`` sets: only
# allocations of 32 MiB and up get their own mapping (glibc's largest
# dynamic threshold), and up to 1 GiB of free heap top stays mapped
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 1 << 30


def _retain_heap() -> None:
    """Keep freed memory in the heap for the next step, where the C library
    is glibc; a no-op elsewhere.  Process-wide and lasting: the process's
    RSS then stays near its peak."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):     # no C library to open, or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def _cpu_halves() -> tuple[set[int], set[int]] | None:
    """The CPUs this process may run on, in two disjoint halves: the parent's
    and the worker's.  None where there are fewer than two or no affinity
    call: no worker runs there."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return None
    half = len(cpus) // 2
    return (set(cpus[:half]), set(cpus[half:])) if half else None


def _pin(cpus: set[int]) -> None:
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:                 # the CPU set changed meanwhile: stay free
        pass


def _threads() -> int:
    """Threads this process runs, native ones (a BLAS pool) included where
    the platform lists them."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _may_fork() -> bool:
    return ("fork" in multiprocessing.get_all_start_methods()
            and all(os.environ.get(v) == "1" for v in BLAS_THREAD_VARS)
            and _threads() == 1)


def split_batch(indices: np.ndarray) -> list[np.ndarray]:
    """The batch's shards in order: the first ceil(n/2) samples, then the rest."""
    if len(indices) < 2:
        return [indices]
    half = (len(indices) + 1) // 2
    return [indices[:half], indices[half:]]


def split_chunks(steps: list[int]) -> list[list[int]]:
    """Chunk indices for [this process, the worker], each ascending, from each
    chunk's padded steps (``_chunks``): the longest chunk first, each to the
    side with fewer steps so far, a tie to this process."""
    sides: list[list[int]] = [[], []]
    load = [0, 0]
    for i in sorted(range(len(steps)), key=lambda i: -steps[i]):
        side = int(load[1] < load[0])
        sides[side].append(i)
        load[side] += steps[i]
    return [sorted(side) for side in sides]


# Padded steps per evaluation chunk.  A sparse batch's forward holds a few
# (B, heads, L, N_max) arrays, N_max being its longest observation count,
# and any other batch (B, L, D, T_max) ones; DLA's pool rule takes the
# first only while it is the smaller, and every sample leaves DLA as an
# (n_queries, C) grid, so memory follows B * max(T_max, n_queries).
CHUNK_STEPS = 4096


def _chunks(preps: list[Batch], n_queries: int) -> tuple[list[list[Batch]], list[int]]:
    """Consecutive runs of ``preps``, and each run's padded steps: its
    samples times the largest of max(steps, ``n_queries``) among them.  A run
    grows while that product stays within ``CHUNK_STEPS`` (a longer sample
    goes alone), so evaluation memory stays bounded however large the split
    and however long its series, whatever batch size the model trained at."""
    chunks: list[list[Batch]] = []
    widest: list[int] = []
    for p in preps:
        rows = max(len(p.times), n_queries)
        if chunks and (len(chunks[-1]) + 1) * max(widest[-1], rows) <= CHUNK_STEPS:
            chunks[-1].append(p)
            widest[-1] = max(widest[-1], rows)
        else:
            chunks.append([p])
            widest.append(rows)
    return chunks, [len(c) * w for c, w in zip(chunks, widest)]


def chunk_logits(model: TadaModel,
                 preps: list[Batch]) -> list[tuple[list[Batch], np.ndarray]]:
    """Each chunk of ``preps`` (``_chunks``) with its ``batch_logits`` rows,
    in chunk order.

    The chunks, their padded steps and ``split_chunks``'s split are computed
    once.  Inside a step, the entered step's worker computes the split's
    second set where it holds this very ``preps`` list for this model.
    Outside any step, a step is entered for this one call, which forks a
    worker holding ``preps``, where that set comes to at least
    ``2 * CHUNK_STEPS`` padded steps and the host allows a worker: below
    that the fork costs more than the share saves.  Otherwise every chunk
    runs here, in order.
    """
    chunks, steps = _chunks(preps, model.cfg.n_queries)
    split = split_chunks(steps)
    step = _entered
    if step is None:
        if sum(steps[i] for i in split[1]) >= 2 * CHUNK_STEPS:
            own = ShardedStep(model, [], preps)
            if own.cpus is not None:
                with own:
                    return list(zip(chunks, own.chunk_logits(chunks, split)))
    elif step._proc is not None and preps is step.val_preps and model is step.model:
        return list(zip(chunks, step.chunk_logits(chunks, split)))
    return [(c, model.batch_logits(c)) for c in chunks]


def shard_gradients(model: TadaModel, params: dict[str, Tensor],
                    preps: list[Batch]) -> tuple[float, Grads]:
    """One shard's loss and the gradient its backward leaves in each of the
    model's ``trainable`` ``params``, from fresh buffers.  A non-finite loss
    raises TrainingError before the backward."""
    for p in params.values():
        p.grad = None
    loss = model.batch_loss(preps)
    value = loss.item()
    if not math.isfinite(value):
        raise TrainingError("non-finite loss")
    loss.backward()
    return value, {k: p.grad for k, p in params.items()}


def combine(results: list[tuple[float, Grads]], sizes: list[int]) -> tuple[float, Grads]:
    """``w0 * x0 + w1 * x1`` with ``w_k = n_k / n``, for the loss and each
    gradient, every shard holding every gradient."""
    if len(results) == 1:
        return results[0]
    n = sum(sizes)
    w0, w1 = (k / n for k in sizes)
    (l0, g0), (l1, g1) = results
    return w0 * l0 + w1 * l1, {k: w0 * a + w1 * g1[k] for k, a in g0.items()}


def _load(params: dict[str, Tensor], flat: np.ndarray) -> None:
    """Write one flat buffer back into the parameters, each its own array."""
    off = 0
    for p in params.values():
        size = p.data.size
        p.data = flat[off:off + size].reshape(p.data.shape).copy()
        off += size


def _work(model: TadaModel, params: dict[str, Tensor], preps: list[Batch],
          val_preps: list[Batch] | None, request: tuple):
    """One request: ("step", parameters, shard indices) gives the shard's
    (loss, gradients); ("chunks", parameters, [(start, stop), ...]) gives
    the ``batch_logits`` rows of each validation chunk
    ``val_preps[start:stop]``."""
    kind, flat, arg = request
    _load(params, flat)
    if kind == "step":
        return shard_gradients(model, params, [preps[i] for i in arg])
    return [model.batch_logits(val_preps[a:b]) for a, b in arg]


def _serve(conn, parent_end, model: TadaModel, preps: list[Batch],
           val_preps: list[Batch] | None, cpus: set[int] | None) -> None:
    """The worker's loop: a request in (``_work``), its result out, until
    the parent closes the pipe.

    Ctrl-C reaches the whole process group; the parent handles it and
    closes the worker, so the worker ignores it.  Errors go back to the
    parent, which raises them; the worker prints nothing.
    """
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _pin(cpus)
    params = model.trainable()
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return
        try:
            reply = ("ok", _work(model, params, preps, val_preps, request))
        except TadaError as e:
            reply = ("tada", type(e), str(e))
        except Exception:           # a bug: the parent raises it with this traceback
            reply = ("bug", traceback.format_exc())
        try:
            conn.send(reply)
        except OSError:
            return


class ShardedStep:
    """Computes a batch's combined loss and gradients from its two shards,
    and evaluation chunks' logits over ``val_preps`` (``chunk_logits``).

    ``cpus`` holds the parent's and the worker's CPUs where the host allows a
    worker, else None.  A context manager: entering forks the shard-1 worker
    onto its half (it holds the model, ``preps`` and ``val_preps``
    copy-on-write) and pins this process to the other; leaving closes and
    joins it and gives this process the whole set back, on return, on any
    exception and on Ctrl-C.  Without a worker the shards and chunks run in
    order here, with the same result.
    """

    def __init__(self, model: TadaModel, preps: list[Batch],
                 val_preps: list[Batch] | None = None):
        self.model = model
        self.preps = preps
        self.val_preps = val_preps
        self.params = model.trainable()
        self.cpus = _cpu_halves() if _may_fork() else None
        self._conn = None
        self._proc = None

    def __enter__(self) -> "ShardedStep":
        global _entered
        _retain_heap()
        if self.cpus is not None:
            here, there = self.cpus
            ctx = multiprocessing.get_context("fork")
            parent_end, child_end = ctx.Pipe()
            proc = ctx.Process(target=_serve, name="tada-shard-1", daemon=True,
                               args=(child_end, parent_end, self.model, self.preps,
                                     self.val_preps, there))
            proc.start()
            child_end.close()
            self._conn, self._proc = parent_end, proc
            _pin(here)
        _entered = self
        return self

    def __exit__(self, exc_type, *_) -> None:
        global _entered
        _entered = None
        if self._proc is None:
            return
        self._conn.close()          # an idle worker reads EOF and returns
        if exc_type is not None:
            self._proc.terminate()  # nobody will read the shard it may be computing
        self._proc.join()
        _pin(self.cpus[0] | self.cpus[1])   # the halves make up the CPU set
        self._conn = self._proc = None

    def __call__(self, indices: np.ndarray) -> float:
        """The batch ``preps[indices]``: returns its loss and leaves its
        gradient in each trainable parameter's ``grad``."""
        shards = split_batch(indices)
        remote = self._proc is not None and len(shards) > 1
        if remote:
            self._send("step", shards[1])
        results = [shard_gradients(self.model, self.params, self._take(shards[0]))]
        if len(shards) > 1:
            results.append(self._receive() if remote else
                           shard_gradients(self.model, self.params, self._take(shards[1])))
        loss, grads = combine(results, [len(s) for s in shards])
        for k, p in self.params.items():
            p.grad = grads[k]
        return loss

    def chunk_logits(self, chunks: list[list[Batch]],
                     split: list[list[int]]) -> list[np.ndarray]:
        """``batch_logits`` of each chunk of ``val_preps``, in chunk order: the
        worker computes ``split``'s second set (``split_chunks``) while this
        process computes the first."""
        here, there = split
        if there:
            starts = np.cumsum([0] + [len(c) for c in chunks]).tolist()
            self._send("chunks", [(starts[i], starts[i + 1]) for i in there])
        rows = [None] * len(chunks)
        for i in here:
            rows[i] = self.model.batch_logits(chunks[i])
        if there:
            for i, z in zip(there, self._receive()):
                rows[i] = z
        return rows

    def _take(self, indices: np.ndarray) -> list[Batch]:
        return [self.preps[i] for i in indices]

    def _send(self, kind: str, arg: "np.ndarray | list[tuple[int, int]]") -> None:
        """A request to the worker, with the current parameters as one flat buffer."""
        flat = np.concatenate([p.data.ravel() for p in self.params.values()])
        try:
            self._conn.send((kind, flat, arg))
        except OSError:
            raise self._died() from None

    def _receive(self):
        try:
            reply = self._conn.recv()
        except (EOFError, OSError):
            raise self._died() from None
        if reply[0] == "ok":
            return reply[1]
        if reply[0] == "tada":
            raise reply[1](reply[2])
        raise RuntimeError(f"shard worker failed:\n{reply[1]}")

    def _died(self) -> TrainingError:
        self._proc.join(timeout=1.0)
        return TrainingError(f"shard worker died (exit code {self._proc.exitcode})")
