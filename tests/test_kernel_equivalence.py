"""Differential tests: every kernel backend is bit-identical (ISSUE 9).

The correctness story of :mod:`repro.sgns.kernels` is this suite, not the
kernels themselves: the canonical vectorised ``python`` backend, the
``interpreted`` loop twins (the exact source numba compiles), and — when
numba is importable, as on the CI numba leg — the compiled ``numba``
backend must produce **bit-identical** results for

* the SGNS gradient step (weights after N updates, and the scores/loss),
* walk transitions (uniform: all backends; alias: kernel vs the
  ``alias.py`` reference decision rule on cloned draws),
* the fused walk→train stream vs materialized-corpus training.

On hosts without numba the suite still proves the loop algorithms
equivalent through the interpreted twin, and additionally covers the
fallback contract: ``auto`` silently resolves to python, ``numba`` raises
a clear error, and spawned workers resolve the backend per process.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.glodyne import GloDyNE, GloDyNEConfig
from repro.graph.csr import CSRAdjacency
from repro.graph.static import Graph
from repro.parallel import generate_corpus, generate_walks, iter_walk_chunks
from repro.sgns import kernels
from repro.sgns.model import SGNSModel
from repro.sgns.trainer import TrainConfig, train_on_corpus, train_on_walk_stream
from repro.walks.alias import AliasTable
from repro.walks.corpus import PairCorpus, StreamedCorpusBuilder, build_pair_corpus
from repro.walks.random_walk import simulate_walks


def loop_backends() -> list[str]:
    """Every non-canonical backend importable on this host."""
    names = ["interpreted"]
    if kernels.numba_available():
        names.append("numba")
    return names


def ring_graph(n: int = 40, skip: int = 7) -> Graph:
    g = Graph()
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
        g.add_edge(i, (i + skip) % n)
    return g


def weighted_ring(n: int = 24) -> Graph:
    g = Graph()
    for i in range(n):
        g.add_edge(i, (i + 1) % n, weight=1.0 + (i % 3))
        g.add_edge(i, (i + 5) % n, weight=0.25 + (i % 2))
    return g


# ----------------------------------------------------------------------
# 1. gradient step: hypothesis-driven bit-identity
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.integers(1, 24),
    vocab=st.integers(2, 60),
    batch=st.integers(1, 48),
    negative=st.integers(1, 7),
    steps=st.integers(1, 6),
    lr=st.floats(1e-4, 0.5),
)
def test_sgns_step_backends_bit_identical(
    seed, dim, vocab, batch, negative, steps, lr
):
    """N gradient steps leave identical weights under every backend."""
    rng = np.random.default_rng(seed)
    w_in = (rng.random((vocab, dim)) - 0.5) / dim
    w_out = rng.standard_normal((vocab, dim)) * 0.1
    centers = rng.integers(0, vocab, batch)
    contexts = rng.integers(0, vocab, batch)
    negatives = rng.integers(0, vocab, (batch, negative))
    table = kernels.sigmoid_table()

    ref_in, ref_out = w_in.copy(), w_out.copy()
    ref_scores = [
        kernels.sgns_step_numpy(
            ref_in, ref_out, centers, contexts, negatives, lr, table
        )
        for _ in range(steps)
    ]
    for name in loop_backends():
        step = kernels.resolve_backend(name).sgns_step
        got_in, got_out = w_in.copy(), w_out.copy()
        got_scores = [
            step(got_in, got_out, centers, contexts, negatives, lr, table)
            for _ in range(steps)
        ]
        assert np.array_equal(ref_in, got_in), name
        assert np.array_equal(ref_out, got_out), name
        for (rp, rn), (gp, gn) in zip(ref_scores, got_scores):
            assert np.array_equal(rp, gp) and np.array_equal(rn, gn), name


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    num_pairs=st.integers(1, 120),
    vocab=st.integers(3, 30),
    batch_size=st.integers(1, 40),
    prefetch=st.integers(1, 4),
    epochs=st.integers(1, 3),
)
def test_train_on_corpus_backends_bit_identical(
    seed, num_pairs, vocab, batch_size, prefetch, epochs
):
    """Full training rounds (permutation + negatives + lr schedule) agree."""
    data_rng = np.random.default_rng(seed)
    centers = data_rng.integers(0, vocab, num_pairs)
    contexts = data_rng.integers(0, vocab, num_pairs)
    counts = np.bincount(centers, minlength=vocab)
    corpus = PairCorpus(centers=centers, contexts=contexts, counts=counts)
    row_of = np.arange(vocab)

    def run(backend: str) -> tuple[np.ndarray, np.ndarray, float]:
        model = SGNSModel(dim=9, rng=np.random.default_rng(seed + 1))
        model.ensure_nodes(range(vocab))
        cfg = TrainConfig(
            epochs=epochs,
            batch_size=batch_size,
            negative_prefetch=prefetch,
            backend=backend,
        )
        loss = train_on_corpus(
            model, corpus, row_of, np.random.default_rng(seed + 2),
            config=cfg, compute_loss=True,
        )
        return model.w_in.copy(), model.w_out.copy(), loss

    ref = run("python")
    for name in loop_backends():
        got = run(name)
        assert np.array_equal(ref[0], got[0]), name
        assert np.array_equal(ref[1], got[1]), name
        assert ref[2] == got[2], name  # loss is backend-invariant too


def test_model_train_batch_default_is_python_kernel(rng):
    """``train_batch`` without an explicit step uses the canonical kernel."""
    model_a = SGNSModel(dim=8, rng=np.random.default_rng(0))
    model_b = SGNSModel(dim=8, rng=np.random.default_rng(0))
    for model in (model_a, model_b):
        model.ensure_nodes(range(20))
    centers = rng.integers(0, 20, 16)
    contexts = rng.integers(0, 20, 16)
    negatives = rng.integers(0, 20, (16, 5))
    loss_a = model_a.train_batch(centers, contexts, negatives, 0.025, True)
    loss_b = model_b.train_batch(
        centers, contexts, negatives, 0.025, True,
        step=kernels.resolve_backend("python").sgns_step,
    )
    assert loss_a == loss_b
    assert np.array_equal(model_a.w_in, model_b.w_in)
    assert np.array_equal(model_a.w_out, model_b.w_out)


def _sgns_step_add_at_2d(w_in, w_out, centers, contexts, negatives, lr, table):
    """Reference step that scatters with literal 2-D ``np.add.at`` calls.

    Same gathers and arithmetic as the canonical kernel, written the
    plain way: (B, q, d) gathers, transposed copies for the score loop,
    and one row-wise ``np.add.at`` per scatter. The canonical kernel's
    d-major gathers and flat 1-D scatters must match it bit for bit.
    """
    dim = w_in.shape[1]
    num_neg = negatives.shape[1]
    h = w_in[centers]
    u_pos = w_out[contexts]
    u_neg = w_out[negatives]
    h_t = np.ascontiguousarray(h.T)
    u_pos_t = np.ascontiguousarray(u_pos.T)
    u_neg_t = np.ascontiguousarray(u_neg.transpose(2, 0, 1))
    pos_score = np.zeros(h.shape[0], dtype=np.float64)
    neg_score = np.zeros(negatives.shape, dtype=np.float64)
    for k in range(dim):
        pos_score += h_t[k] * u_pos_t[k]
        neg_score += h_t[k][:, None] * u_neg_t[k]
    g_pos = kernels.table_sigmoid(pos_score, table) - 1.0
    g_neg = kernels.table_sigmoid(neg_score, table)
    grad_h = g_pos[:, None] * u_pos
    for j in range(num_neg):
        grad_h += g_neg[:, j, None] * u_neg[:, j]

    np.add.at(w_in, centers, -lr * grad_h)
    np.add.at(w_out, contexts, -lr * (g_pos[:, None] * h))
    np.add.at(
        w_out,
        negatives.ravel(),
        (-lr * (g_neg[:, :, None] * h[:, None, :])).reshape(-1, dim),
    )
    return pos_score, neg_score


def _assert_matches_add_at_reference(w_in, w_out, centers, contexts,
                                     negatives, lr, steps):
    table = kernels.sigmoid_table()
    ref_in, ref_out = w_in.copy(), w_out.copy()
    got_in, got_out = w_in.copy(), w_out.copy()
    for _ in range(steps):
        ref = _sgns_step_add_at_2d(
            ref_in, ref_out, centers, contexts, negatives, lr, table
        )
        got = kernels.sgns_step_numpy(
            got_in, got_out, centers, contexts, negatives, lr, table
        )
        assert np.array_equal(ref[0], got[0])
        assert np.array_equal(ref[1], got[1])
    assert np.array_equal(ref_in, got_in)
    assert np.array_equal(ref_out, got_out)


def test_sgns_step_matches_add_at_under_heavy_duplicates():
    """Hundreds of repeats of one row per step still scatter in order.

    Real snapshot runs draw ~1.4% distinct negatives per step: a few
    popular rows receive hundreds of updates inside one ``np.add.at``.
    Negatives here come from a unigram^0.75-skewed distribution over a
    100-row vocabulary, as the trainer's noise table would draw them.
    """
    rng = np.random.default_rng(20)
    batch, negative, dim, vocab = 2048, 5, 64, 100
    counts = rng.zipf(1.6, vocab).astype(np.float64)
    noise = counts**0.75 / (counts**0.75).sum()
    negatives = rng.choice(vocab, size=(batch, negative), p=noise)
    assert np.bincount(negatives.ravel()).max() >= 300
    centers = rng.integers(0, vocab, batch)
    contexts = rng.integers(0, vocab, batch)
    w_in = (rng.random((vocab, dim)) - 0.5) / dim
    w_out = rng.standard_normal((vocab, dim)) * 0.1
    _assert_matches_add_at_reference(
        w_in, w_out, centers, contexts, negatives, 0.025, steps=3
    )


@pytest.mark.parametrize(
    "batch, negative, dim", [(1, 5, 16), (64, 1, 16), (64, 5, 1), (1, 1, 1)]
)
def test_sgns_step_matches_add_at_at_the_edges(batch, negative, dim):
    """B=1, q=1 and d=1 reduce the flat scatter to degenerate shapes."""
    rng = np.random.default_rng(batch * 100 + negative * 10 + dim)
    vocab = 7
    w_in = (rng.random((vocab, dim)) - 0.5) / dim
    w_out = rng.standard_normal((vocab, dim)) * 0.1
    _assert_matches_add_at_reference(
        w_in,
        w_out,
        rng.integers(0, vocab, batch),
        rng.integers(0, vocab, batch),
        rng.integers(0, vocab, (batch, negative)),
        0.1,
        steps=3,
    )


@pytest.mark.parametrize("which", ["w_in", "w_out"])
@pytest.mark.parametrize("bad", ["fortran", "float32", "strided"])
def test_sgns_step_rejects_matrices_it_cannot_update_in_place(which, bad):
    """A matrix whose flat view would be a copy raises instead of
    silently dropping the update."""
    rng = np.random.default_rng(0)
    mats = {
        "w_in": rng.standard_normal((6, 4)),
        "w_out": rng.standard_normal((6, 4)),
    }
    if bad == "fortran":
        mats[which] = np.asfortranarray(mats[which])
    elif bad == "float32":
        mats[which] = mats[which].astype(np.float32)
    else:
        mats[which] = rng.standard_normal((6, 8))[:, ::2]
    before = {name: m.copy() for name, m in mats.items()}
    with pytest.raises(ValueError, match=which):
        kernels.sgns_step_numpy(
            mats["w_in"], mats["w_out"],
            np.array([0, 1]), np.array([2, 3]), np.array([[4], [5]]),
            0.1, kernels.sigmoid_table(),
        )
    for name, m in mats.items():
        assert np.array_equal(m, before[name])


@pytest.mark.parametrize("which", ["centers", "contexts", "negatives"])
@pytest.mark.parametrize("bad", [6, -7])
def test_sgns_step_rejects_rows_out_of_range(which, bad):
    """The step's gathers wrap indices, so a row outside ``[-V, V)``
    must still raise, from the scatter."""
    rng = np.random.default_rng(0)
    rows = {
        "centers": np.array([0, 1]),
        "contexts": np.array([2, 3]),
        "negatives": np.array([[4], [5]]),
    }
    rows[which].flat[1] = bad
    with pytest.raises(IndexError):
        kernels.sgns_step_numpy(
            rng.standard_normal((6, 4)), rng.standard_normal((6, 4)),
            rows["centers"], rows["contexts"], rows["negatives"],
            0.1, kernels.sigmoid_table(),
        )


def _batch(rng, vocab, batch, negative):
    """A random minibatch: centres, contexts and (B, q) negatives."""
    return (
        rng.integers(0, vocab, batch),
        rng.integers(0, vocab, batch),
        rng.integers(0, vocab, (batch, negative)),
    )


def _replay_with_one_workspace(models, steps):
    """Run ``steps`` through one shared workspace and through the loop twin.

    ``models`` maps a key to ``(w_in, w_out)``; each step is ``(key,
    centers, contexts, negatives, lr)``. After every step the weights and
    scores must match the interpreted twin byte for byte, and at the end
    every score array a step returned must still hold its bytes.
    """
    table = kernels.sigmoid_table()
    canon = {key: (w_in.copy(), w_out.copy()) for key, (w_in, w_out) in models.items()}
    loops = {key: (w_in.copy(), w_out.copy()) for key, (w_in, w_out) in models.items()}
    workspace = kernels.StepWorkspace()
    returned = []
    for key, centers, contexts, negatives, lr in steps:
        got = kernels.sgns_step_numpy(
            *canon[key], centers, contexts, negatives, lr, table, workspace
        )
        ref = kernels._sgns_step_loops(
            *loops[key], centers, contexts, negatives, lr, table
        )
        for g, r in zip(got, ref):
            assert g.shape == r.shape and g.tobytes() == r.tobytes()
        for g, r in zip(canon[key], loops[key]):
            assert g.tobytes() == r.tobytes()
        returned.append((got, [score.tobytes() for score in got]))
    for scores, saved in returned:
        assert [score.tobytes() for score in scores] == saved


def test_reused_buffers_across_a_ragged_final_chunk(monkeypatch):
    """A batch that is not a multiple of the negative-scatter chunk."""
    monkeypatch.setattr(kernels, "SCATTER_CHUNK", 64)  # 5 rows of q=3, d=4
    rng = np.random.default_rng(1)
    vocab, dim = 12, 4
    models = {0: ((rng.random((vocab, dim)) - 0.5) / dim,
                  rng.standard_normal((vocab, dim)) * 0.1)}
    steps = [(0, *_batch(rng, vocab, 23, 3), 0.05) for _ in range(3)]
    _replay_with_one_workspace(models, steps)


def test_reused_buffers_at_the_default_chunk_size():
    """Two real chunks of :data:`SCATTER_CHUNK` elements, the second short."""
    rng = np.random.default_rng(2)
    vocab, dim, negative = 30, 8, 5
    rows_per_chunk = kernels.SCATTER_CHUNK // (negative * dim)
    batch = rows_per_chunk + 61
    models = {0: ((rng.random((vocab, dim)) - 0.5) / dim,
                  rng.standard_normal((vocab, dim)) * 0.1)}
    steps = [(0, *_batch(rng, vocab, batch, negative), 0.025) for _ in range(2)]
    _replay_with_one_workspace(models, steps)


def test_reused_buffers_when_the_tail_batch_shrinks():
    """A full batch, a short tail batch, then a full batch again."""
    rng = np.random.default_rng(3)
    vocab, dim = 20, 6
    models = {0: ((rng.random((vocab, dim)) - 0.5) / dim,
                  rng.standard_normal((vocab, dim)) * 0.1)}
    steps = [
        (0, *_batch(rng, vocab, size, 5), 0.1) for size in (48, 48, 7, 1, 48)
    ]
    _replay_with_one_workspace(models, steps)


def test_reused_buffers_when_the_vocabulary_grows():
    """A model whose matrices grow between rounds, one workspace throughout."""
    rng = np.random.default_rng(4)
    dim = 5
    model = SGNSModel(dim=dim, rng=np.random.default_rng(0))
    table = kernels.sigmoid_table()
    workspace = kernels.StepWorkspace()
    twin_in = twin_out = np.empty((0, dim))
    trained = 0
    for vocab in (6, 16, 40, 41):
        model.ensure_nodes(range(vocab))
        # The twin takes the model's new rows and keeps its own trained ones.
        grown_in, grown_out = model._w_in.copy(), model._w_out.copy()
        grown_in[:trained] = twin_in[:trained]
        grown_out[:trained] = twin_out[:trained]
        twin_in, twin_out, trained = grown_in, grown_out, vocab
        for _ in range(2):
            centers, contexts, negatives = _batch(rng, vocab, 30, 4)
            got = kernels.sgns_step_numpy(
                model._w_in, model._w_out, centers, contexts, negatives,
                0.2, table, workspace,
            )
            ref = kernels._sgns_step_loops(
                twin_in, twin_out, centers, contexts, negatives, 0.2, table
            )
            assert got[0].tobytes() == ref[0].tobytes()
            assert got[1].tobytes() == ref[1].tobytes()
            assert model._w_in.tobytes() == twin_in.tobytes()
            assert model._w_out.tobytes() == twin_out.tobytes()


def test_reused_buffers_across_models_of_different_dim():
    """Two models of different ``d`` trained in turn through one workspace."""
    rng = np.random.default_rng(5)
    vocab = 15
    models = {
        dim: ((rng.random((vocab, dim)) - 0.5) / dim,
              rng.standard_normal((vocab, dim)) * 0.1)
        for dim in (3, 11)
    }
    steps = [
        (dim, *_batch(rng, vocab, 25, 4), 0.05)
        for _ in range(3)
        for dim in (11, 3)
    ]
    _replay_with_one_workspace(models, steps)


def test_reused_buffers_on_a_tiny_vocabulary_with_heavy_duplicates():
    """V <= 8: every row repeats hundreds of times inside one step."""
    rng = np.random.default_rng(6)
    vocab, dim = 5, 7
    models = {0: ((rng.random((vocab, dim)) - 0.5) / dim,
                  rng.standard_normal((vocab, dim)) * 0.1)}
    steps = [(0, *_batch(rng, vocab, 300, 5), 0.025) for _ in range(3)]
    assert np.bincount(steps[0][3].ravel()).max() >= 250
    _replay_with_one_workspace(models, steps)


def test_warmed_step_inside_a_round_allocates_no_large_arrays(monkeypatch):
    """A warmed step's traced peak stays below a quarter of one slab.

    The ``(B, q, d)`` float64 negative slab is ``B*q*d*8`` bytes. The
    step fills buffers the round allocated once, so what it allocates
    per call (the returned scores and the table-sigmoid temporaries,
    all ``O(B*q)``) must stay far below that. ``tracemalloc`` sees
    numpy's data buffers.
    """
    import tracemalloc

    batch, negative, dim, vocab = 2048, 5, 64, 200
    bound = batch * negative * dim * 8 / 4
    real_step = kernels.sgns_step_numpy
    peaks: list[int] = []
    calls: list[int] = []

    def measured_step(*args, **kwargs):
        calls.append(len(calls))
        if len(calls) == 1:  # the first step sizes the round's buffers
            return real_step(*args, **kwargs)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = real_step(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return result

    monkeypatch.setattr(kernels, "sgns_step_numpy", measured_step)
    data = np.random.default_rng(7)
    centers = data.integers(0, vocab, 4 * batch)
    corpus = PairCorpus(
        centers=centers,
        contexts=data.integers(0, vocab, 4 * batch),
        counts=np.bincount(centers, minlength=vocab),
    )
    model = SGNSModel(dim=dim, rng=np.random.default_rng(8))
    model.ensure_nodes(range(vocab))
    config = TrainConfig(
        epochs=1, batch_size=batch, negative=negative, backend="python"
    )
    tracemalloc.start()
    try:
        train_on_corpus(
            model, corpus, np.arange(vocab), np.random.default_rng(9), config
        )
    finally:
        tracemalloc.stop()
    assert len(calls) == 4 and len(peaks) == 3
    assert max(peaks) < bound, (peaks, bound)


# ----------------------------------------------------------------------
# 2. walk transitions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["interpreted", "auto"])
def test_uniform_walks_bit_identical_across_backends(backend):
    """Unweighted walks share the rng stream → identical on all backends."""
    csr = CSRAdjacency.from_graph(ring_graph())
    starts = np.arange(csr.num_nodes)
    ref = simulate_walks(csr, starts, 3, 12, np.random.default_rng(9))
    got = simulate_walks(
        csr, starts, 3, 12, np.random.default_rng(9), backend=backend
    )
    assert np.array_equal(ref, got)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_alias_kernel_matches_alias_table_reference(seed):
    """Kernel transitions == per-walker AliasTable decisions on cloned draws.

    The reference replays the stepper's exact draw protocol (one slot
    integer + one coin per walker per step) and resolves each walker
    through a fresh ``alias.py`` table for its row — the alias kernel
    must make identical decisions through the flattened tables.
    """
    csr = CSRAdjacency.from_graph(weighted_ring())
    starts = np.arange(csr.num_nodes)
    walks = simulate_walks(
        csr, starts, 2, 10, np.random.default_rng(seed), backend="interpreted"
    )

    tables = [AliasTable(csr.neighbor_weights(i)) for i in range(csr.num_nodes)]
    rng = np.random.default_rng(seed)  # cloned stream
    expect = np.full_like(walks, -1)
    expect[:, 0] = np.repeat(starts, 2)
    alive = np.arange(walks.shape[0])
    degrees = csr.degrees
    for step in range(1, walks.shape[1]):
        current = expect[alive, step - 1]
        movable = degrees[current] > 0
        alive = alive[movable]
        current = current[movable]
        idx = rng.integers(0, degrees[current])
        coin = rng.random(current.size)
        nxt = np.empty(current.size, dtype=np.int64)
        for i, node in enumerate(current):
            table = tables[node]
            local = int(idx[i])
            if coin[i] >= table.probability[local]:
                local = int(table.alias[local])
            nxt[i] = csr.neighbors(int(node))[local]
        expect[alive, step] = nxt
    assert np.array_equal(walks, expect)


def test_weighted_walks_agree_across_loop_backends():
    """All non-python backends share the alias draw stream bit for bit."""
    csr = CSRAdjacency.from_graph(weighted_ring())
    starts = np.arange(csr.num_nodes)
    runs = [
        simulate_walks(
            csr, starts, 2, 9, np.random.default_rng(4), backend=name
        )
        for name in loop_backends() + ["auto"]
    ]
    for other in runs[1:]:
        assert np.array_equal(runs[0], other)


def test_row_alias_tables_flatten_per_row_tables():
    csr = CSRAdjacency.from_graph(weighted_ring())
    probability, alias = csr.row_alias_tables()
    assert probability.shape == csr.weights.shape
    for i in range(csr.num_nodes):
        start, end = int(csr.indptr[i]), int(csr.indptr[i + 1])
        table = AliasTable(csr.weights[start:end])
        assert np.array_equal(probability[start:end], table.probability)
        assert np.array_equal(alias[start:end], table.alias)
    assert csr.row_alias_tables() is csr.row_alias_tables()  # cached


# ----------------------------------------------------------------------
# 3. fused walk→train vs materialized-corpus training
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(0, 30),
    length=st.integers(2, 12),
    window=st.integers(1, 6),
    pieces=st.integers(1, 5),
)
def test_streamed_builder_bit_identical_to_batch_builder(
    seed, rows, length, window, pieces
):
    """Any chunking of the walk matrix finalizes to the exact batch corpus."""
    rng = np.random.default_rng(seed)
    walks = rng.integers(0, 15, (rows, length))
    walks[rng.random(walks.shape) < 0.15] = -1  # truncation sentinels
    ref = build_pair_corpus(walks, window, 15)

    builder = StreamedCorpusBuilder(window_size=window, num_nodes=15)
    bounds = np.sort(rng.integers(0, rows + 1, pieces - 1)) if pieces > 1 else []
    for block in np.split(walks, bounds):
        builder.push(block)
    got = builder.finalize()
    assert np.array_equal(ref.centers, got.centers)
    assert np.array_equal(ref.contexts, got.contexts)
    assert np.array_equal(ref.counts, got.counts)


@pytest.mark.parametrize("workers", [1, 2])
def test_fused_corpus_equals_two_phase(workers):
    csr = CSRAdjacency.from_graph(ring_graph())
    starts = np.arange(csr.num_nodes)
    ref = generate_corpus(
        csr, starts, 3, 10, 4, np.random.default_rng(2),
        workers=workers, chunk_starts=8,
    )
    got = generate_corpus(
        csr, starts, 3, 10, 4, np.random.default_rng(2),
        workers=workers, chunk_starts=8, fused=True,
    )
    assert np.array_equal(ref.centers, got.centers)
    assert np.array_equal(ref.contexts, got.contexts)
    assert np.array_equal(ref.counts, got.counts)


@pytest.mark.parametrize("backend", ["python", "interpreted"])
def test_train_on_walk_stream_golden_vs_materialized(backend):
    """Fused training == walk-matrix training, same rng streams, any backend."""
    csr = CSRAdjacency.from_graph(ring_graph())
    starts = np.arange(csr.num_nodes)
    cfg = TrainConfig(epochs=2, batch_size=64, backend=backend)
    row_of = np.arange(csr.num_nodes)

    ref_model = SGNSModel(dim=12, rng=np.random.default_rng(1))
    ref_model.ensure_nodes(range(csr.num_nodes))
    ref_rng = np.random.default_rng(77)
    walks = generate_walks(csr, starts, 2, 10, ref_rng, workers=1)
    ref_corpus = build_pair_corpus(walks, 4, csr.num_nodes)
    ref_loss = train_on_corpus(
        ref_model, ref_corpus, row_of, ref_rng, config=cfg, compute_loss=True
    )

    got_model = SGNSModel(dim=12, rng=np.random.default_rng(1))
    got_model.ensure_nodes(range(csr.num_nodes))
    got_rng = np.random.default_rng(77)
    chunks = iter_walk_chunks(csr, starts, 2, 10, got_rng, workers=1)
    got_loss, got_corpus = train_on_walk_stream(
        got_model, chunks, 4, csr.num_nodes, row_of, got_rng,
        config=cfg, compute_loss=True,
    )
    assert ref_loss == got_loss
    assert got_corpus.num_pairs == ref_corpus.num_pairs
    assert np.array_equal(ref_model.w_in, got_model.w_in)
    assert np.array_equal(ref_model.w_out, got_model.w_out)


# ----------------------------------------------------------------------
# 4. end-to-end GloDyNE equivalence
# ----------------------------------------------------------------------
def _glodyne_run(network: list[Graph], backend: str) -> np.ndarray:
    model = GloDyNE(
        dim=12, alpha=0.4, num_walks=2, walk_length=8, window_size=3,
        epochs=2, seed=11, backend=backend,
    )
    last = {}
    for snapshot in network:
        last = model.update(snapshot)
    return np.stack([last[n] for n in sorted(last)])


def test_glodyne_embeddings_backend_invariant():
    """Two snapshots end to end: every backend lands on identical Z^t."""
    first = ring_graph(30, 5)
    second = ring_graph(30, 5)
    second.add_edge(0, 15)
    second.add_edge(3, 22)
    network = [first, second]
    ref = _glodyne_run(network, "python")
    for name in loop_backends() + ["auto"]:
        assert np.array_equal(ref, _glodyne_run(network, name)), name


# ----------------------------------------------------------------------
# 5. fallback + per-process resolution
# ----------------------------------------------------------------------
def test_auto_silently_selects_python_without_numba(monkeypatch):
    def no_numba():
        raise ImportError("No module named 'numba'")

    monkeypatch.setattr(kernels, "_import_numba", no_numba)
    assert not kernels.numba_available()
    backend = kernels.resolve_backend("auto")
    assert backend.name == "python" and not backend.compiled
    assert backend.sgns_step is kernels.sgns_step_numpy


def test_numba_backend_raises_clear_error_without_numba(monkeypatch):
    def no_numba():
        raise ImportError("No module named 'numba'")

    monkeypatch.setattr(kernels, "_import_numba", no_numba)
    with pytest.raises(kernels.BackendUnavailable, match="install numba"):
        kernels.resolve_backend("numba")


def test_auto_selects_numba_when_importable(monkeypatch):
    """With an (emulated) numba present, auto resolves to compiled kernels."""

    class FakeNumba:
        @staticmethod
        def njit(**_kwargs):
            return lambda fn: fn  # "compile" = identity: loop twins as-is

    monkeypatch.setattr(kernels, "_import_numba", lambda: FakeNumba)
    monkeypatch.setattr(kernels, "_COMPILED", {})
    backend = kernels.resolve_backend("auto")
    assert backend.name == "numba" and backend.compiled
    assert backend.sgns_step is kernels._sgns_step_loops


def test_unknown_backend_rejected_everywhere():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        kernels.resolve_backend("fortran")
    with pytest.raises(ValueError, match="backend"):
        TrainConfig(backend="fortran")
    with pytest.raises(ValueError, match="backend"):
        GloDyNEConfig(backend="fortran")


def test_configs_carry_backend_string_through_pickle():
    """Configs ship the *name*; workers resolve it after unpickling."""
    for cfg in (TrainConfig(backend="auto"), GloDyNEConfig(backend="auto")):
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone.backend == "auto"
    train = pickle.loads(pickle.dumps(GloDyNEConfig(backend="auto"))).train_config()
    assert train.backend == "auto"
    resolved = kernels.resolve_backend(train.backend)
    assert resolved.name in ("python", "numba")


@pytest.mark.parametrize("backend", ["interpreted", "auto"])
def test_pool_workers_resolve_backend_independently(backend):
    """workers>=2 ships the backend string through the pool; results match
    the serial run, proving each worker re-resolved the same kernels."""
    csr = CSRAdjacency.from_graph(ring_graph())
    starts = np.arange(csr.num_nodes)
    serial = generate_walks(
        csr, starts, 2, 8, np.random.default_rng(6),
        workers=1, chunk_starts=8, backend=backend,
    )
    # workers=2 consumes the parent rng differently (one spawn draw), so
    # compare the pooled run against the in-process chunked run instead.
    pooled = generate_walks(
        csr, starts, 2, 8, np.random.default_rng(6),
        workers=2, chunk_starts=8, backend=backend,
    )
    import repro.parallel.engine as engine_mod

    chunked_serial = None
    try:
        original = engine_mod._get_pool
        engine_mod._get_pool = lambda workers: None
        chunked_serial = generate_walks(
            csr, starts, 2, 8, np.random.default_rng(6),
            workers=2, chunk_starts=8, backend=backend,
        )
    finally:
        engine_mod._get_pool = original
    assert np.array_equal(pooled, chunked_serial)
    assert serial.shape == pooled.shape


def test_weighted_pool_workers_ship_alias_tables():
    """Weighted + kernel backend: workers attach the flattened alias tables."""
    csr = CSRAdjacency.from_graph(weighted_ring())
    starts = np.arange(csr.num_nodes)
    pooled = generate_walks(
        csr, starts, 2, 8, np.random.default_rng(3),
        workers=2, chunk_starts=6, backend="interpreted",
    )
    import repro.parallel.engine as engine_mod

    try:
        original = engine_mod._get_pool
        engine_mod._get_pool = lambda workers: None
        inprocess = generate_walks(
            csr, starts, 2, 8, np.random.default_rng(3),
            workers=2, chunk_starts=6, backend="interpreted",
        )
    finally:
        engine_mod._get_pool = original
    assert np.array_equal(pooled, inprocess)
    assert (pooled != -1).all()


def test_iter_walk_chunks_survives_midstream_pool_failure(monkeypatch):
    """A pool dying mid-iteration yields the remaining chunks unchanged."""
    import repro.parallel.engine as engine_mod
    from concurrent.futures.process import BrokenProcessPool

    csr = CSRAdjacency.from_graph(ring_graph())
    starts = np.arange(csr.num_nodes)
    expected = list(
        iter_walk_chunks(
            csr, starts, 2, 8, np.random.default_rng(5),
            workers=2, chunk_starts=8,
        )
    )

    class DyingFuture:
        def result(self):
            raise BrokenProcessPool("worker died")

    class DyingPool:
        def submit(self, *args, **kwargs):
            return DyingFuture()

    monkeypatch.setattr(engine_mod, "_get_pool", lambda workers: DyingPool())
    with pytest.warns(RuntimeWarning, match="worker pool failed"):
        got = list(
            iter_walk_chunks(
                csr, starts, 2, 8, np.random.default_rng(5),
                workers=2, chunk_starts=8,
            )
        )
    assert len(expected) == len(got)
    for ref, block in zip(expected, got):
        assert np.array_equal(ref, block)


# ----------------------------------------------------------------------
# 6. negative_prefetch partial-group regression (3 pairs, prefetch 32)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["python", "interpreted"])
def test_prefetch_partial_group_regression_3_pairs(backend):
    """corpus.num_pairs < batch_size: the single partial group must slice
    pairs and prefetched negatives with one shared stop bound. With one
    group there is nothing to prefetch, so prefetch=32 must reproduce the
    prefetch=1 stream exactly."""
    corpus = PairCorpus(
        centers=np.array([0, 1, 2]),
        contexts=np.array([1, 2, 0]),
        counts=np.array([1, 1, 1]),
    )
    row_of = np.arange(3)

    def run(prefetch: int) -> np.ndarray:
        model = SGNSModel(dim=6, rng=np.random.default_rng(0))
        model.ensure_nodes(range(3))
        cfg = TrainConfig(
            epochs=3, batch_size=2048, negative_prefetch=prefetch,
            backend=backend,
        )
        train_on_corpus(model, corpus, row_of, np.random.default_rng(1), cfg)
        return model.w_in.copy()

    assert np.array_equal(run(1), run(32))
