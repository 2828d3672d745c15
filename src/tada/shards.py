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
epoch's validation chunks.  ``split_chunks`` assigns the chunks from their
padded steps alone; every chunk's logits (or loss) come from the same
``batch_logits`` (``batch_loss_value``) call on the same inputs wherever
it runs, and the parent puts them back in chunk order, so validation is
byte-identical on one or two processes too.  ``chunk_values`` finds the
worker through the step entered now (``_entered``): inside ``train()``
only a call on the very list the worker holds uses it.  An evaluation
outside any step enters a step of its own for that one call, whose worker
holds the evaluated list, when the worker's share holds at least one full
chunk: forking, one round trip and closing cost one to two chunks'
compute, so every smaller evaluation runs in this process and starts
nothing.

A training step allocates and frees tens of MB of temporaries.  With
glibc's default thresholds the freed heap top goes back to the kernel and
every step page-faults it back in (about 11 000 faults per train_long step),
which costs a fifth of a step and keeps two processes from scaling, so
entering a ``ShardedStep`` keeps freed memory in the heap (``_retain_heap``),
for training and for an evaluation large enough to fork alike.

The parent and the worker run on disjoint halves of the CPUs this process
may use.  Left free, the kernel wakes the worker on the CPU of the parent
that wrote to the pipe, and the two then share one CPU for much of a short
step: train_short's step ran slower on two processes than on one.

A worker is forked only where the process may run on two CPUs, fork exists,
all three BLAS thread variables read ``"1"`` and the process runs one
thread: two processes with multi-threaded BLAS on two cores run slower than
one process, and a process with threads is not safe to fork.  The variables
alone do not show the BLAS pool, because numpy imported before they were
set starts one anyway.
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
from .model import SamplePrep, TadaModel
from .tensor import Tensor

N_SHARDS = 2

Grads = dict[str, "np.ndarray | None"]

# the ShardedStep entered now, whose worker ``chunk_values`` may use
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


def shard_processes() -> int:
    """Processes a training step runs on: one per shard, at most one per CPU
    this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(N_SHARDS, cpus))


def _cpu_halves() -> tuple[set[int], set[int]] | None:
    """The CPUs this process may run on, in two disjoint halves: the parent's
    and the worker's.  None where there are fewer than two or no affinity
    call."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:
        return None
    if len(cpus) < 2:
        return None
    half = len(cpus) // 2
    return set(cpus[:half]), set(cpus[half:])


def _pin(cpus: set[int] | None) -> None:
    if cpus is not None:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:             # the CPU set changed meanwhile: stay free
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


def _worker_may_run() -> bool:
    return shard_processes() == N_SHARDS and _may_fork()


def split_batch(indices: np.ndarray) -> list[np.ndarray]:
    """The batch's shards in order: the first ceil(n/2) samples, then the rest."""
    if len(indices) < 2:
        return [indices]
    half = (len(indices) + 1) // 2
    return [indices[:half], indices[half:]]


def split_chunks(steps: list[int]) -> list[list[int]]:
    """Chunk indices for [this process, the worker], each ascending, from each
    chunk's padded steps (samples times its longest series): the longest
    chunk first, each to the side with fewer steps so far, a tie to this
    process."""
    sides: list[list[int]] = [[], []]
    load = [0, 0]
    for i in sorted(range(len(steps)), key=lambda i: -steps[i]):
        side = int(load[1] < load[0])
        sides[side].append(i)
        load[side] += steps[i]
    return [sorted(side) for side in sides]


def padded_steps(chunks: list[list[SamplePrep]]) -> list[int]:
    """Each chunk's samples times its longest series."""
    return [len(c) * max(len(p.times) for p in c) for c in chunks]


def chunk_value(model: TadaModel, chunk: list[SamplePrep], what: str):
    """A chunk's logit rows (``what`` "logits") or its mean loss ("loss")."""
    if what == "logits":
        return model.batch_logits(chunk)
    return model.batch_loss_value(chunk)


def chunk_values(model: TadaModel, preps: list[SamplePrep],
                 chunks: list[list[SamplePrep]], what: str, min_share: int) -> list:
    """``chunk_value`` of each chunk, in chunk order; ``chunks`` are
    consecutive runs of ``preps``.

    Inside a step, the entered step's worker computes its share
    (``split_chunks``) where it holds this very ``preps`` list for this
    model.  Outside any step, a step is entered for this one call, which
    forks a worker holding ``preps``, where that share would come to at
    least ``min_share`` padded steps and a worker may run: below that the
    fork costs more than the share saves.  Otherwise every chunk runs here,
    in order.
    """
    step = _entered
    if step is None:
        steps = padded_steps(chunks)
        if sum(steps[i] for i in split_chunks(steps)[1]) >= min_share and _worker_may_run():
            with ShardedStep(model, [], preps):
                return chunk_values(model, preps, chunks, what, min_share)
    elif step._proc is not None and preps is step.val_preps and model is step.model:
        return step.chunk_values(chunks, what)
    return [chunk_value(model, c, what) for c in chunks]


def shard_gradients(model: TadaModel, params: dict[str, Tensor],
                    preps: list[SamplePrep]) -> tuple[float, Grads]:
    """One shard's loss and the gradients its backward leaves in ``params``,
    from fresh buffers.  A non-finite loss skips the backward: the step
    fails on the loss."""
    for p in params.values():
        p.grad = None
    loss = model.batch_loss(preps)
    value = loss.item()
    if math.isfinite(value):
        loss.backward()
    return value, {k: p.grad for k, p in params.items()}


def combine(results: list[tuple[float, Grads]], sizes: list[int]) -> tuple[float, Grads]:
    """``w0 * x0 + w1 * x1`` with ``w_k = n_k / n``, for the loss and each
    gradient.  A missing gradient counts as zeros; one missing from both
    shards stays missing, so Adam skips that parameter as before."""
    if len(results) == 1:
        return results[0]
    n = sum(sizes)
    w0, w1 = (k / n for k in sizes)
    (l0, g0), (l1, g1) = results
    grads: Grads = {}
    for k, a in g0.items():
        b = g1[k]
        if a is None and b is None:
            grads[k] = None
            continue
        a = np.zeros_like(b) if a is None else a
        b = np.zeros_like(a) if b is None else b
        grads[k] = w0 * a + w1 * b
    return w0 * l0 + w1 * l1, grads


def _load(params: dict[str, Tensor], flat: np.ndarray) -> None:
    """Write one flat buffer back into the parameters, each its own array."""
    off = 0
    for p in params.values():
        size = p.data.size
        p.data = flat[off:off + size].reshape(p.data.shape).copy()
        off += size


def _work(model: TadaModel, params: dict[str, Tensor], preps: list[SamplePrep],
          val_preps: list[SamplePrep] | None, request: tuple):
    """One request: ("step", parameters, shard indices) gives the shard's
    (loss, gradients); ("chunks", parameters, what, [(start, stop), ...])
    gives ``chunk_value`` of each validation chunk ``val_preps[start:stop]``."""
    kind, flat, *args = request
    _load(params, flat)
    if kind == "step":
        return shard_gradients(model, params, [preps[i] for i in args[0]])
    what, spans = args
    return [chunk_value(model, val_preps[a:b], what) for a, b in spans]


def _serve(conn, parent_end, model: TadaModel, preps: list[SamplePrep],
           val_preps: list[SamplePrep] | None, cpus: set[int] | None) -> None:
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
    and evaluation chunks over ``val_preps`` (``chunk_values``).

    A context manager: entering forks the shard-1 worker when one may run
    (it holds the model, ``preps`` and ``val_preps`` copy-on-write), leaving
    closes and joins it, on return, on any exception and on Ctrl-C.  Without
    a worker the shards and chunks run in order in this process, with the
    same result.
    """

    def __init__(self, model: TadaModel, preps: list[SamplePrep],
                 val_preps: list[SamplePrep] | None = None):
        self.model = model
        self.preps = preps
        self.val_preps = val_preps
        self.params = model.trainable()
        self._conn = None
        self._proc = None
        self._affinity: set[int] | None = None

    def __enter__(self) -> "ShardedStep":
        global _entered
        _retain_heap()
        if _worker_may_run():
            halves = _cpu_halves()
            ctx = multiprocessing.get_context("fork")
            parent_end, child_end = ctx.Pipe()
            proc = ctx.Process(target=_serve, name="tada-shard-1", daemon=True,
                               args=(child_end, parent_end, self.model, self.preps,
                                     self.val_preps, halves and halves[1]))
            proc.start()
            child_end.close()
            self._conn, self._proc = parent_end, proc
            if halves is not None:
                self._affinity = os.sched_getaffinity(0)
                _pin(halves[0])
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
        _pin(self._affinity)
        self._conn = self._proc = self._affinity = None

    def __call__(self, indices: np.ndarray) -> float:
        """The batch ``preps[indices]``: returns its loss and leaves its
        gradient in each trainable parameter's ``grad``."""
        shards = split_batch(indices)
        remote = self._proc is not None and len(shards) == N_SHARDS
        if remote:
            self._send("step", shards[1])
        results = [shard_gradients(self.model, self.params, self._take(shards[0]))]
        if len(shards) == N_SHARDS:
            results.append(self._receive() if remote else
                           shard_gradients(self.model, self.params, self._take(shards[1])))
        loss, grads = combine(results, [len(s) for s in shards])
        for k, p in self.params.items():
            p.grad = grads[k]
        return loss

    def chunk_values(self, chunks: list[list[SamplePrep]], what: str) -> list:
        """``chunk_value`` of each chunk of ``val_preps``, in chunk order: the
        worker computes ``split_chunks``'s second set while this process
        computes the first."""
        here, there = split_chunks(padded_steps(chunks))
        if there:
            starts = np.cumsum([0] + [len(c) for c in chunks]).tolist()
            self._send("chunks", what, [(starts[i], starts[i + 1]) for i in there])
        values = [None] * len(chunks)
        for i in here:
            values[i] = chunk_value(self.model, chunks[i], what)
        if there:
            for i, v in zip(there, self._receive()):
                values[i] = v
        return values

    def _take(self, indices: np.ndarray) -> list[SamplePrep]:
        return [self.preps[i] for i in indices]

    def _send(self, kind: str, *args) -> None:
        """A request to the worker, with the current parameters as one flat buffer."""
        flat = np.concatenate([p.data.ravel() for p in self.params.values()])
        try:
            self._conn.send((kind, flat, *args))
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
