"""Native-speed SGNS and walk kernels behind an import-guarded numba backend.

The SGNS gradient step is nearly all of a training run: on the
``snapshot-hepph`` benchmark workload (``perfbench/``) it is ~95% of the
train stage, which is ~98% of the run. This module holds the kernels for
the two hot loops — the SGNS gradient step and the walk transition — in
one canonical vectorised numpy form and in scalar-loop twins that numba
can compile, without giving up the repo's bit-exact determinism
contract.

In the numpy step, the time goes to memory traffic, not arithmetic. The
row scatters (``np.add.at``) and the gathers that feed the score loop
cost more than the float work. So the step gathers its score operands
d-major into one q-major slab and scatters through numpy's 1-D
``ufunc.at`` fast path, which roughly doubled its throughput over 2-D
``np.add.at`` with transposed ``(B, q, d)`` copies. Fresh memory is the
other half of the traffic. A step that allocates its ~35 MB of
batch-sized temporaries per call (B=2048, d=64, q=5) hands large blocks
back to the kernel on every call and takes ~2,000 minor page faults
re-touching them. So the step fills buffers that one training round
allocates once (:class:`StepWorkspace`), and scatters the negatives in
L2-sized chunks; a warmed step takes no page faults. None of these
choices changes a single float operation or its order (see
:func:`sgns_step_numpy`).

Three implementations of one algorithm family:

``python``
    The canonical vectorised numpy implementations. Always available;
    this is what ships, what the goldens pin, and what every other
    backend must reproduce bit for bit.
``numba``
    ``@njit``-compiled scalar-loop twins of the same float64 accumulation
    order. Requires numba (import-guarded); resolving it without numba
    raises :class:`BackendUnavailable` with an actionable message.
``interpreted``
    The numba kernel *source* executed by the plain interpreter. Slow,
    but it needs no compiler — it is the differential-testing reference
    that lets ``tests/test_kernel_equivalence.py`` prove the loop
    algorithms bit-identical to the vectorised path even on hosts
    without numba installed.

Bit-exactness is engineered, not hoped for:

* **No transcendental is ever evaluated inside a kernel.** numpy's
  vectorised ``exp`` and libm's ``exp`` (what a compiled kernel would
  call) differ in the last ulp, so both backends read the same
  precomputed word2vec-style sigmoid table (:func:`sigmoid_table`), and
  lookups are exact array reads.
* **Reductions are sequential by specification.** ``einsum`` contracts
  with SIMD pairwise accumulation that a scalar loop cannot replay, so
  the canonical step (:func:`sgns_step_numpy`, which
  :meth:`repro.sgns.model.SGNSModel.train_batch` wraps) accumulates dot
  products in explicit ascending-``d`` order and gradient sums in
  ascending-``q`` order — an order a loop (and LLVM without fastmath)
  reproduces exactly.
* **Scatters follow ``np.add.at`` order**: all gradients are computed
  from the pre-update matrices, then applied centre rows first, context
  rows second, negative rows last, each in batch order. The canonical
  step adds them through a flat 1-D view of each matrix, one element at
  a time in batch order, which is the order the 2-D ``np.add.at`` adds
  them in and the order the loop twins replay.

RNG stays on the caller's side: kernels consume pre-drawn randomness
(negative draws in the trainer, per-step transition draws in the walk
steppers), so the ``prefetch=1`` legacy sampler stream is byte-identical
whichever backend executes the arithmetic, and spawned workers resolving
``backend="auto"`` independently cannot diverge on unweighted graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BackendUnavailable",
    "KernelBackend",
    "MAX_EXP",
    "SIGMOID_TABLE_SIZE",
    "numba_available",
    "resolve_backend",
    "sigmoid_table",
    "table_sigmoid",
]

#: Public backend names accepted by ``TrainConfig.backend`` /
#: ``GloDyNEConfig.backend`` / CLI ``--backend``. ``interpreted`` is also
#: accepted everywhere but is a testing reference, not a product knob.
PUBLIC_BACKENDS = ("auto", "python", "numba")
BACKENDS = PUBLIC_BACKENDS + ("interpreted",)

# ----------------------------------------------------------------------
# shared sigmoid table (word2vec's EXP_TABLE discipline)
# ----------------------------------------------------------------------
#: Number of bins in the shared sigmoid lookup table.
SIGMOID_TABLE_SIZE = 4096
#: Scores at or beyond ±MAX_EXP saturate to exactly 0.0 / 1.0, as in
#: word2vec's EXP_TABLE discipline; inside the range the table is within
#: 2.5e-3 of the exact logistic.
MAX_EXP = 6.0
_TABLE_SCALE = SIGMOID_TABLE_SIZE / (2.0 * MAX_EXP)

_SIG_TABLE: np.ndarray | None = None


def sigmoid_table() -> np.ndarray:
    """The shared float64 sigmoid lookup table (computed once).

    ``table[i] = sigma((2 i / size - 1) * MAX_EXP)`` for
    ``i in 0..size`` — the exact logistic sampled at bin edges
    (``size + 1`` entries, so a lookup can interpolate the bin ``[i,
    i+1]``). Word2vec's EXP_TABLE layout, plus the right edge. Both
    backends index it with the same truncating cast and the same
    interpolation arithmetic, so the approximated sigmoid is identical
    across them by construction.
    """
    global _SIG_TABLE
    if _SIG_TABLE is None:
        x = (
            2.0 * np.arange(SIGMOID_TABLE_SIZE + 1, dtype=np.float64)
            / SIGMOID_TABLE_SIZE
            - 1.0
        ) * MAX_EXP
        _SIG_TABLE = 1.0 / (1.0 + np.exp(-x))
        _SIG_TABLE.setflags(write=False)
    return _SIG_TABLE


def table_sigmoid(x: np.ndarray, table: np.ndarray | None = None) -> np.ndarray:
    """Vectorised table sigmoid — the canonical (python-backend) lookup.

    Linear interpolation between bin edges (max error ~2e-6 at 4096
    bins), saturating to exactly 1.0 / 0.0 at and beyond ``±MAX_EXP``.
    Both halves of that design are load-bearing for training stability,
    not just fidelity: a plain floor-bin lookup biases the gradient by
    up to one bin width (~3e-3), which stops the gradient from decaying
    as scores saturate — compounded through ``np.add.at``'s
    duplicate-row accumulation, that residual push grows weight norms
    without bound. Interpolation restores the exact logistic's decay to
    within 2e-6, and the exact 0/1 saturation (word2vec's out-of-range
    rule) makes the gradient vanish entirely past the table edge.

    The scalar twin inside the loop kernels performs the identical
    saturation tests, truncating cast, and interpolation expression, so
    lookups agree bit for bit.
    """
    if table is None:
        table = sigmoid_table()
    pos = (np.clip(x, -MAX_EXP, MAX_EXP) + MAX_EXP) * _TABLE_SCALE
    idx = pos.astype(np.int64)
    np.clip(idx, 0, SIGMOID_TABLE_SIZE - 1, out=idx)
    frac = pos - idx
    base = table[idx]
    out = base + (table[idx + 1] - base) * frac
    out[x >= MAX_EXP] = 1.0
    out[x <= -MAX_EXP] = 0.0
    return out


# ----------------------------------------------------------------------
# canonical vectorised implementations (the ``python`` backend)
# ----------------------------------------------------------------------
#: Elements per chunk of the negative scatter. The chunk's values and
#: flat-index buffers (8 bytes an element each) stay L2-sized however
#: large the batch is.
SCATTER_CHUNK = 1 << 16


class StepWorkspace:
    """Scratch buffers that :func:`sgns_step_numpy` fills in place.

    One training round (:func:`repro.sgns.trainer.train_on_corpus`)
    makes one workspace and hands it to every step, so the step's large
    arrays are allocated once per round instead of once per minibatch,
    and are freed with the workspace when the round returns. Each buffer
    is a flat array that only grows; :meth:`array` hands out a
    C-contiguous view of its first ``prod(shape)`` elements, so a short
    tail batch, another ``d`` or a larger vocabulary reuse or regrow it
    without the caller keeping track. A workspace is not thread-safe:
    give each concurrent round its own.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def array(
        self, name: str, shape: tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        """A writable ``shape`` view of buffer ``name`` (contents undefined)."""
        size = 1
        for extent in shape:
            size *= extent
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = np.empty(size, dtype=dtype)
            self._buffers[name] = buffer
        return buffer[:size].reshape(shape)


def sgns_step_numpy(
    w_in: np.ndarray,
    w_out: np.ndarray,
    centers: np.ndarray,
    contexts: np.ndarray,
    negatives: np.ndarray,
    lr: float,
    table: np.ndarray,
    workspace: StepWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One canonical SGD step over a pair minibatch; returns the scores.

    This *is* the legacy update stream: gradients of Eq. (9) with the
    table sigmoid, accumulated in ascending-``d`` / ascending-``q``
    order, and scattered so duplicate rows accumulate in batch order.
    Every other backend reproduces this function bit for bit. Returns
    ``(pos_scores, neg_scores)`` (pre-update dot products, shapes
    ``(B,)`` and ``(B, q)``, freshly allocated) so callers can derive the
    batch loss without re-reading the weights.

    ``w_in`` and ``w_out`` must be C-contiguous float64 matrices; they
    are updated in place through a flat view, so anything else raises
    :class:`ValueError` rather than losing the update. ``workspace``
    holds the step's scratch arrays; a round passes the same one to every
    step, and without one the step makes a throwaway workspace.

    Three layout choices make the step fast without touching the bits:

    * **d-major, q-major gathers.** The score operands are gathered
      straight from a transposed copy of ``w_out`` (``d x V``, small)
      into one ``(d, 1 + q, B)`` slab: slot 0 holds the contexts, slots
      ``1..q`` the negatives. Each pass of the ascending-``d`` score
      loop reads one contiguous ``(1 + q, B)`` plane, and the
      ascending-``q`` gradient sum reads contiguous ``(d, B)`` planes.
      A gather copies values exactly, so each score and each gradient is
      still the same float64 expression, term for term, in the same
      order.
    * **1-D scatters.** Each ``np.add.at(matrix, rows, values)`` becomes
      ``np.add.at`` on ``matrix.reshape(-1)`` at ``rows * d + k``, which
      takes numpy's 1-D ``ufunc.at`` fast path. Every element still
      receives its additions one at a time, in batch order, and the
      scatters still run centres, contexts, negatives — so every float
      add happens in the same order. The negatives go in batch-order
      chunks of :data:`SCATTER_CHUNK` elements, which keeps that order.
    * **No per-step allocation of large arrays.** Every batch-sized
      array is a :class:`StepWorkspace` view filled with ``out=``,
      ``np.take(..., out=)`` and ``np.copyto``. Only the returned scores
      and the table-sigmoid temporaries are allocated per call.
    """
    for name, matrix in (("w_in", w_in), ("w_out", w_out)):
        if matrix.dtype != np.float64 or not matrix.flags.c_contiguous:
            raise ValueError(
                f"{name} must be a C-contiguous float64 matrix (got "
                f"dtype={matrix.dtype}, c_contiguous="
                f"{matrix.flags.c_contiguous}); the step updates it in "
                "place through a flat view"
            )
    if workspace is None:
        workspace = StepWorkspace()
    batch = centers.shape[0]
    dim = w_in.shape[1]
    num_neg = negatives.shape[1]
    slots = num_neg + 1
    neg_lr = -lr
    array = workspace.array

    # Gathers from the PRE-update matrices. mode="wrap" lets np.take
    # write into ``out`` directly ("raise" would copy the whole slab);
    # a row out of range still raises, in the scatter below.
    h = array("h", (batch, dim))
    np.take(w_in, centers, axis=0, out=h, mode="wrap")
    h_t = array("h_t", (dim, batch))
    np.copyto(h_t, h.T)
    w_out_t = array("w_out_t", (dim, w_out.shape[0]))
    np.copyto(w_out_t, w_out.T)
    targets = array("targets", (slots, batch), np.intp)
    targets[0] = contexts
    np.copyto(targets[1:], negatives.T)
    u = array("u", (dim, slots, batch))
    np.take(w_out_t, targets, axis=1, out=u, mode="wrap")

    # Sequential-d dot products (see module docstring); row 0 is the
    # positive score, rows 1..q the negative scores.
    score = np.zeros((slots, batch), dtype=np.float64)  # returned, not reused
    term = array("term", (slots, batch))
    for k in range(dim):
        np.multiply(u[k], h_t[k], out=term)
        score += term

    g = table_sigmoid(score, table)     # rows 1..q: d(-log sig(-x))/dx
    g[0] -= 1.0                         # row 0:     d(-log sig(x))/dx

    grad_h_t = array("grad_h_t", (dim, batch))
    np.multiply(u[:, 0], g[0], out=grad_h_t)
    part = array("part", (dim, batch))
    for j in range(1, slots):                       # sequential-q sum
        np.multiply(u[:, j], g[j], out=part)
        grad_h_t += part

    # Scatters in np.add.at order: centres, contexts, negatives.
    offsets = np.arange(dim)
    values = array("values", (batch, dim))
    index = array("index", (batch, dim), np.intp)
    starts = array("starts", (batch,), np.intp)
    np.multiply(grad_h_t.T, neg_lr, out=values)
    _scatter_rows(w_in, centers, values, offsets, starts, index)
    np.multiply(h, g[0][:, None], out=values)
    np.multiply(values, neg_lr, out=values)
    _scatter_rows(w_out, contexts, values, offsets, starts, index)

    g_neg = g[1:].T                                 # (B, q) view
    step = max(1, SCATTER_CHUNK // (num_neg * dim))
    values = array("chunk_values", (min(step, batch), num_neg, dim))
    index = array("chunk_index", values.shape, np.intp)
    starts = array("chunk_starts", values.shape[:2], np.intp)
    for start in range(0, batch, step):
        stop = min(start + step, batch)
        n = stop - start
        chunk = values[:n]
        np.multiply(g_neg[start:stop, :, None], h[start:stop, None, :], out=chunk)
        np.multiply(chunk, neg_lr, out=chunk)
        _scatter_rows(
            w_out, negatives[start:stop], chunk, offsets, starts[:n], index[:n]
        )
    return score[0], score[1:].T.copy()


def _scatter_rows(matrix, rows, values, offsets, starts, index) -> None:
    """``np.add.at(matrix, rows, values)`` as one 1-D ``np.add.at``.

    ``values[..., k]`` is added to ``matrix[rows[...], k]``. Element
    ``(r, k)`` gets its additions in the C order of ``rows``, exactly as
    the 2-D call adds them, but the flat index ``r * d + k`` lets numpy
    use its much faster 1-D ``ufunc.at`` loop. ``matrix`` must be
    C-contiguous so that ``reshape(-1)`` is a view of it. ``starts``
    (shaped like ``rows``) and ``index`` (shaped like ``values``) are
    scratch buffers; ``offsets`` is ``arange(d)``.
    """
    np.multiply(rows, offsets.size, out=starts)
    np.add(starts[..., None], offsets, out=index)
    np.add.at(matrix.reshape(-1), index.reshape(-1), values.reshape(-1))


def uniform_resolve_numpy(
    indptr: np.ndarray,
    indices: np.ndarray,
    current: np.ndarray,
    offsets: np.ndarray,
) -> np.ndarray:
    """Uniform walk transition: neighbour ``offsets[i]`` of ``current[i]``."""
    return indices[indptr[current] + offsets]


def alias_resolve_numpy(
    indptr: np.ndarray,
    indices: np.ndarray,
    probability: np.ndarray,
    alias: np.ndarray,
    current: np.ndarray,
    idx: np.ndarray,
    coin: np.ndarray,
) -> np.ndarray:
    """Weighted transition via per-row alias tables (Walker/Vose draws).

    ``probability``/``alias`` are the flattened per-row tables from
    :meth:`repro.graph.csr.CSRAdjacency.row_alias_tables`; ``idx`` and
    ``coin`` are the walker's pre-drawn uniform slot and coin. The
    decision rule is exactly :meth:`repro.walks.alias.AliasTable.sample`:
    take the alias when ``coin >= probability[slot]``.
    """
    row_start = indptr[current]
    slot = row_start + idx
    local = np.where(coin >= probability[slot], alias[slot], idx)
    return indices[row_start + local]


# ----------------------------------------------------------------------
# scalar-loop twins (the ``numba`` / ``interpreted`` backends)
# ----------------------------------------------------------------------
# These functions are written in nopython-compilable style: plain loops,
# float64 scalars, preallocated buffers, no closures. numba compiles
# them unchanged; the interpreter runs them unchanged. LLVM without
# fastmath neither reassociates float adds nor fuses mul+add, so the
# compiled arithmetic is the interpreted arithmetic.
def _sgns_step_loops(w_in, w_out, centers, contexts, negatives, lr, table):
    """Loop twin of :func:`sgns_step_numpy` (same order, same scatters)."""
    batch = centers.shape[0]
    dim = w_in.shape[1]
    num_neg = negatives.shape[1]
    neg_lr = -lr

    h = np.empty((batch, dim), dtype=np.float64)
    grad_h = np.empty((batch, dim), dtype=np.float64)
    g_pos = np.empty(batch, dtype=np.float64)
    g_neg = np.empty((batch, num_neg), dtype=np.float64)
    pos_score = np.empty(batch, dtype=np.float64)
    neg_score = np.empty((batch, num_neg), dtype=np.float64)

    # Phase A: everything derived from the PRE-update matrices.
    for b in range(batch):
        c = centers[b]
        for k in range(dim):
            h[b, k] = w_in[c, k]
    for b in range(batch):
        ctx = contexts[b]
        acc = 0.0
        for k in range(dim):
            acc += h[b, k] * w_out[ctx, k]
        pos_score[b] = acc
        if acc >= MAX_EXP:
            g_pos[b] = 0.0
        elif acc <= -MAX_EXP:
            g_pos[b] = -1.0
        else:
            p = (acc + MAX_EXP) * _TABLE_SCALE
            j = int(p)
            if j > SIGMOID_TABLE_SIZE - 1:
                j = SIGMOID_TABLE_SIZE - 1
            g_pos[b] = (table[j] + (table[j + 1] - table[j]) * (p - j)) - 1.0
        for n in range(num_neg):
            row = negatives[b, n]
            acc = 0.0
            for k in range(dim):
                acc += h[b, k] * w_out[row, k]
            neg_score[b, n] = acc
            if acc >= MAX_EXP:
                g_neg[b, n] = 1.0
            elif acc <= -MAX_EXP:
                g_neg[b, n] = 0.0
            else:
                p = (acc + MAX_EXP) * _TABLE_SCALE
                j = int(p)
                if j > SIGMOID_TABLE_SIZE - 1:
                    j = SIGMOID_TABLE_SIZE - 1
                g_neg[b, n] = table[j] + (table[j + 1] - table[j]) * (p - j)
    for b in range(batch):
        ctx = contexts[b]
        gp = g_pos[b]
        for k in range(dim):
            acc = gp * w_out[ctx, k]
            for n in range(num_neg):
                acc += g_neg[b, n] * w_out[negatives[b, n], k]
            grad_h[b, k] = acc

    # Phase B: scatters in np.add.at order — centres, contexts, negatives.
    for b in range(batch):
        c = centers[b]
        for k in range(dim):
            w_in[c, k] += neg_lr * grad_h[b, k]
    for b in range(batch):
        ctx = contexts[b]
        gp = g_pos[b]
        for k in range(dim):
            w_out[ctx, k] += neg_lr * (gp * h[b, k])
    for b in range(batch):
        for n in range(num_neg):
            row = negatives[b, n]
            gn = g_neg[b, n]
            for k in range(dim):
                w_out[row, k] += neg_lr * (gn * h[b, k])
    return pos_score, neg_score


def _uniform_resolve_loops(indptr, indices, current, offsets):
    """Loop twin of :func:`uniform_resolve_numpy`."""
    n = current.shape[0]
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        out[i] = indices[indptr[current[i]] + offsets[i]]
    return out


def _alias_resolve_loops(indptr, indices, probability, alias, current, idx, coin):
    """Loop twin of :func:`alias_resolve_numpy`."""
    n = current.shape[0]
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        row_start = indptr[current[i]]
        slot = row_start + idx[i]
        if coin[i] >= probability[slot]:
            local = alias[slot]
        else:
            local = idx[i]
        out[i] = indices[row_start + local]
    return out


# ----------------------------------------------------------------------
# backend resolution
# ----------------------------------------------------------------------
class BackendUnavailable(RuntimeError):
    """Raised when ``backend="numba"`` is requested but numba is missing."""


@dataclass(frozen=True)
class KernelBackend:
    """A resolved kernel implementation set.

    ``sgns_step`` mutates ``(w_in, w_out)`` in place and returns the
    pre-update ``(pos_scores, neg_scores)``; the two ``*_resolve``
    callables map pre-drawn randomness to walk transitions. ``compiled``
    records whether the callables are numba-jitted (``numba``) or plain
    python (``python`` / ``interpreted``).
    """

    name: str
    compiled: bool
    sgns_step: Callable
    uniform_resolve: Callable
    alias_resolve: Callable


def _import_numba():
    """Import hook the tests monkeypatch to simulate a numba-free host."""
    import numba

    return numba


def numba_available() -> bool:
    """True when numba is importable in *this* process (checked lazily)."""
    try:
        _import_numba()
    except ImportError:
        return False
    return True


_COMPILED: dict[str, Callable] = {}


def _compiled_kernels() -> dict[str, Callable]:
    """Jit-compile the loop twins once per process (memoised)."""
    numba = _import_numba()
    if not _COMPILED:
        jit = numba.njit(cache=True, fastmath=False)
        _COMPILED["sgns_step"] = jit(_sgns_step_loops)
        _COMPILED["uniform_resolve"] = jit(_uniform_resolve_loops)
        _COMPILED["alias_resolve"] = jit(_alias_resolve_loops)
    return _COMPILED


def resolve_backend(name: str = "auto") -> KernelBackend:
    """Resolve a backend name to a :class:`KernelBackend`.

    Resolution is deliberately *lazy and per-process*: configs carry only
    the string, so pickled configs shipped to spawned workers (the
    parallel walk engine's pool) re-resolve independently —
    ``auto`` silently selects ``python`` wherever numba is absent and
    ``numba`` wherever it is present.
    """
    if name == "auto":
        name = "numba" if numba_available() else "python"
    if name == "python":
        return KernelBackend(
            name="python",
            compiled=False,
            sgns_step=sgns_step_numpy,
            uniform_resolve=uniform_resolve_numpy,
            alias_resolve=alias_resolve_numpy,
        )
    if name == "interpreted":
        return KernelBackend(
            name="interpreted",
            compiled=False,
            sgns_step=_sgns_step_loops,
            uniform_resolve=_uniform_resolve_loops,
            alias_resolve=_alias_resolve_loops,
        )
    if name == "numba":
        try:
            kernels = _compiled_kernels()
        except ImportError as error:
            raise BackendUnavailable(
                "backend='numba' was requested but numba is not importable "
                f"({error}); install numba (pip install numba) or use "
                "backend='auto' to fall back to the pure-python kernels"
            ) from None
        return KernelBackend(
            name="numba",
            compiled=True,
            sgns_step=kernels["sgns_step"],
            uniform_resolve=kernels["uniform_resolve"],
            alias_resolve=kernels["alias_resolve"],
        )
    raise ValueError(f"unknown kernel backend {name!r}; choose from {BACKENDS}")
