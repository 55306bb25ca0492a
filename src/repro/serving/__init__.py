"""Embedding-serving subsystem: versioned store, kNN indexes, service facade.

The training side (:mod:`repro.core`, :mod:`repro.streaming`) produces a
fresh Z^t per snapshot or flush; this package is the consumption side:

* :class:`~repro.serving.store.EmbeddingStore` — append-only versioned
  snapshots that ``GloDyNE(publish_to=...)`` /
  ``StreamingGloDyNE(publish_to=...)`` publish into;
* :class:`~repro.serving.index.BruteForceIndex` /
  :class:`~repro.serving.index.LSHIndex` /
  :class:`~repro.serving.index.IVFIndex` — exact and approximate cosine
  kNN with incremental refresh (only moved rows re-hash);
* :class:`~repro.serving.service.EmbeddingService` — cached kNN queries,
  link scoring, and time-travel reads;
* :mod:`~repro.serving.storage` — the tiered-store machinery: mmap
  cold-version spill (:class:`~repro.serving.storage.ColdVersionStorage`),
  the int8 candidate-scan codec, and
  :class:`~repro.serving.storage.CompactionPolicy` GC rules.
"""

from repro.serving.index import (
    BruteForceIndex,
    IVFIndex,
    LSHIndex,
    unit_rows,
)
from repro.serving.service import EmbeddingService
from repro.serving.storage import (
    ColdVersionStorage,
    CompactionPolicy,
    dequantize_int8,
    quantize_int8,
    quantized_scores,
)
from repro.serving.store import (
    EmbeddingStore,
    VersionRecord,
    load_store,
    save_store,
)

__all__ = [
    "BruteForceIndex",
    "ColdVersionStorage",
    "CompactionPolicy",
    "IVFIndex",
    "EmbeddingService",
    "EmbeddingStore",
    "LSHIndex",
    "VersionRecord",
    "dequantize_int8",
    "load_store",
    "quantize_int8",
    "quantized_scores",
    "save_store",
    "unit_rows",
]
