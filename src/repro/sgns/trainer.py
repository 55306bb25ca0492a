"""SGNS training loop: negative tables, learning-rate schedule, epochs.

Implements the Eq. (10) objective — sum over all positive pairs of the
Eq. (9) per-pair loss with ``q`` negatives drawn from the unigram
distribution of the *current* corpus D^t raised to the word2vec 3/4 power.
The learning rate decays linearly over the scheduled number of pair visits,
as in word2vec/gensim.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable

import numpy as np

from repro.sgns import kernels
from repro.sgns.model import SGNSModel
from repro.walks.alias import AliasTable
from repro.walks.corpus import PairCorpus, StreamedCorpusBuilder


@dataclass
class TrainConfig:
    """Hyper-parameters of one SGNS training round.

    Defaults mirror word2vec/gensim conventions used by the paper: 5
    negatives per positive (paper Section 5.1.2), initial lr 0.025, 5
    epochs, unigram^0.75 noise.
    """

    negative: int = 5
    epochs: int = 5
    lr: float = 0.025
    min_lr: float = 1e-4
    batch_size: int = 2048
    noise_power: float = 0.75
    # Mega-batch negative drawing: negatives for up to this many
    # consecutive minibatches are drawn in one alias-table call instead of
    # one call per minibatch. 1 (the default) reproduces the legacy rng
    # stream bit for bit; larger values trade stream compatibility for
    # fewer sampler round-trips (the parallel profile uses 32).
    negative_prefetch: int = 1
    # Kernel backend executing the gradient arithmetic: "auto" picks numba
    # when importable and falls back to the pure-python kernels silently;
    # "numba" demands the compiled kernels (raising BackendUnavailable
    # without numba); "python" pins the canonical numpy path. All backends
    # are bit-identical (see repro.sgns.kernels), so this knob never
    # changes results — only wall-clock. Resolution happens lazily inside
    # train_on_corpus, so pickled configs shipped to spawned workers
    # re-resolve per process.
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.negative < 1:
            raise ValueError("negative must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (0 < self.min_lr <= self.lr):
            raise ValueError("need 0 < min_lr <= lr")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.negative_prefetch < 1:
            raise ValueError("negative_prefetch must be >= 1")
        if self.backend not in kernels.BACKENDS:
            raise ValueError(
                f"backend must be one of {kernels.BACKENDS}, got {self.backend!r}"
            )


def build_noise_table(
    counts: np.ndarray, power: float = 0.75
) -> tuple[AliasTable, np.ndarray]:
    """Unigram^power negative-sampling table over corpus occurrence counts.

    Returns the alias table plus the array mapping table positions to node
    indices (only nodes with non-zero count participate, matching the
    paper's "drawn from a unigram distribution P_{D^t}").
    """
    present = np.flatnonzero(counts > 0)
    if present.size == 0:
        raise ValueError("corpus has no occurrences to build a noise table")
    weights = counts[present].astype(np.float64) ** power
    return AliasTable(weights), present


def train_on_corpus(
    model: SGNSModel,
    corpus: PairCorpus,
    row_of: np.ndarray,
    rng: np.random.Generator,
    config: TrainConfig | None = None,
    compute_loss: bool = False,
) -> float:
    """Train ``model`` on a pair corpus; returns mean loss of the last epoch.

    Parameters
    ----------
    model:
        The (possibly warm-started) SGNS model. All rows referenced via
        ``row_of`` must already exist (call ``ensure_nodes`` first).
    corpus:
        Positive pairs in *snapshot-local* node indices.
    row_of:
        Translation array: ``row_of[snapshot_index] = model_row``. This is
        what lets one global incremental model train on per-snapshot
        corpora.
    """
    if config is None:
        config = TrainConfig()
    if corpus.num_pairs == 0:
        return 0.0

    noise_table, noise_nodes = build_noise_table(corpus.counts, config.noise_power)
    noise_rows = row_of[noise_nodes]

    centers = row_of[corpus.centers]
    contexts = row_of[corpus.contexts]

    backend = kernels.resolve_backend(config.backend)
    step = backend.sgns_step
    if backend.name == "python":
        # The round's scratch buffers: every minibatch refills them, and
        # they are freed when this function returns.
        step = partial(step, workspace=kernels.StepWorkspace())

    total_visits = corpus.num_pairs * config.epochs
    visited = 0
    last_epoch_loss = 0.0
    # With prefetch=1 the mega-batch degenerates to one minibatch and the
    # sampler is called with the exact legacy shapes — same rng stream.
    mega = config.batch_size * config.negative_prefetch
    for epoch in range(config.epochs):
        order = rng.permutation(corpus.num_pairs)
        losses: list[float] = []
        want_loss = compute_loss and epoch == config.epochs - 1
        for mega_start in range(0, corpus.num_pairs, mega):
            group = order[mega_start: mega_start + mega]
            group_negatives = noise_rows[
                noise_table.sample(rng, size=(group.size, config.negative))
            ]
            for offset in range(0, group.size, config.batch_size):
                # One stop bound shared by the pair slice and the negative
                # slice. (An earlier revision computed the two bounds
                # independently — `offset + batch_size` for pairs but
                # `offset + batch.size` for negatives — which only agreed
                # because the final partial group re-checked the noise-draw
                # count; see the 3-pair/prefetch-32 regression test.)
                stop = min(offset + config.batch_size, group.size)
                batch = group[offset:stop]
                progress = visited / total_visits
                lr = max(config.min_lr, config.lr * (1.0 - progress))
                loss = model.train_batch(
                    centers[batch],
                    contexts[batch],
                    group_negatives[offset:stop],
                    lr,
                    compute_loss=want_loss,
                    step=step,
                )
                if want_loss:
                    losses.append(loss * batch.size)
                visited += batch.size
        if want_loss and losses:
            last_epoch_loss = sum(losses) / corpus.num_pairs
    return last_epoch_loss


def train_on_walk_stream(
    model: SGNSModel,
    chunks: Iterable[np.ndarray],
    window_size: int,
    num_nodes: int,
    row_of: np.ndarray,
    rng: np.random.Generator,
    config: TrainConfig | None = None,
    compute_loss: bool = False,
) -> tuple[float, PairCorpus]:
    """Fused walk→train: consume walk chunks, then train — one call.

    ``chunks`` is any iterable of walk-row matrices (typically
    :func:`repro.parallel.engine.iter_walk_chunks`); they are folded into
    a :class:`~repro.walks.corpus.StreamedCorpusBuilder`, whose
    ``finalize`` is bit-identical to materialising the full walk matrix
    and calling :func:`~repro.walks.corpus.build_pair_corpus` — so the
    subsequent :func:`train_on_corpus` consumes the exact same pair
    arrays, rng stream, and lr schedule as the two-phase path. The win is
    memory, not semantics: the ``(n_walks, walk_length)`` matrix never
    exists in this process (the pair arrays still do — the epoch
    permutation contract needs them).

    Returns ``(last epoch loss, the finalized corpus)`` so callers can
    reuse corpus statistics (noise counts, pair totals) for telemetry.
    """
    builder = StreamedCorpusBuilder(window_size=window_size, num_nodes=num_nodes)
    for chunk in chunks:
        builder.push(chunk)
    corpus = builder.finalize()
    loss = train_on_corpus(
        model, corpus, row_of, rng, config=config, compute_loss=compute_loss
    )
    return loss, corpus
