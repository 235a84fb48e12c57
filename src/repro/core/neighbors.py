"""Bounded nearest-neighbor result set.

The search algorithm of the paper (section 4.3) keeps "the current set of
neighbors" while scanning chunks and needs two operations on it:

* bulk update with all descriptors of a freshly processed chunk, and
* the distance to the current k-th neighbor, which drives the exact
  completion test (stop when the minimum distance to the next chunk exceeds
  the distance to the k-th neighbor).

:class:`NeighborSet` keeps the k best entries as arrays sorted by
``(distance, id)`` and folds each chunk in with one vectorized merge; the
tie-break on descriptor id keeps intermediate-result precision
measurements reproducible.
"""

from __future__ import annotations

import math
from typing import AbstractSet, List, Sequence, Tuple

import numpy as np

__all__ = ["Neighbor", "NeighborSet", "merge_neighbor_lists"]


class Neighbor(Tuple[float, int]):
    """A ``(distance, descriptor_id)`` pair, ordered by distance then id."""

    __slots__ = ()

    def __new__(cls, distance: float, descriptor_id: int) -> "Neighbor":
        return tuple.__new__(cls, (float(distance), int(descriptor_id)))

    @property
    def distance(self) -> float:
        return self[0]

    @property
    def descriptor_id(self) -> int:
        return self[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Neighbor(distance={self[0]:.6g}, id={self[1]})"


# repro: exact
def merge_neighbor_lists(
    lists: Sequence[Sequence[Neighbor]], k: int
) -> List[Neighbor]:
    """Exact k-way merge of per-partition top-k lists.

    Because ``(distance, id)`` is a total order, the exact top-k of a
    descriptor set is *unique*, and the top-k of a union is contained in
    the union of the parts' top-k's.  Merging the per-partition exact
    lists therefore reproduces the single-node exact answer bit for bit
    — the property the sharded scatter-gather coordinator relies on.

    Duplicate descriptor ids (e.g. both answers of a hedged pair, which
    executed the *same* partition) are collapsed to their best entry, so
    the merge is idempotent.  Empty inputs merge cleanly: fewer than
    ``k`` total candidates yield a shorter list, never an error — a
    partial merge is the honest answer under shard loss.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    best: "dict[int, Neighbor]" = {}
    for part in lists:
        for neighbor in part:
            entry = Neighbor(neighbor[0], neighbor[1])
            held = best.get(entry.descriptor_id)
            if held is None or entry < held:
                best[entry.descriptor_id] = entry
    return sorted(best.values())[:k]


class NeighborSet:
    """The k best neighbors seen so far.

    Holds at most ``k`` entries as two parallel arrays — float64 distances
    and int64 ids — sorted by ``(distance, id)``, the same deterministic
    order :func:`repro.core.distance.top_k_smallest` uses for ground truth.
    Because that order is total, the k best of everything offered (duplicate
    ids included) are unique, so a whole chunk can be admitted with one
    vectorized merge instead of a per-candidate walk.
    """

    def __init__(self, k: int):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self._distances = np.empty(0, dtype=np.float64)
        self._ids = np.empty(0, dtype=np.int64)
        # Distance of the k-th entry, as a Python float; inf until full.
        self._kth = math.inf

    # -- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        return self._ids.shape[0]

    @property
    def is_full(self) -> bool:
        """True once k neighbors have been collected."""
        return self._ids.shape[0] >= self.k

    @property
    def kth_distance(self) -> float:
        """Distance to the current worst retained neighbor.

        Infinite while the set is not yet full, so every candidate is
        admitted during warm-up and the completion test never fires early.
        """
        return self._kth

    def ids(self) -> np.ndarray:
        """Descriptor ids (int64) of the current neighbors, best first."""
        return self._ids.copy()

    def sorted(self) -> List[Neighbor]:
        """Current neighbors ordered by (distance, id), best first."""
        return [
            Neighbor(d, i)
            for d, i in zip(self._distances.tolist(), self._ids.tolist())
        ]

    # -- updates ------------------------------------------------------------

    # repro: exact
    def offer(self, distance: float, descriptor_id: int) -> bool:
        """Offer one candidate; returns True if it entered the set."""
        distances = np.array([distance], dtype=np.float64)
        ids = np.array([descriptor_id], dtype=np.int64)
        return self.update(distances, ids) == 1

    # repro: exact
    def update(self, distances: np.ndarray, descriptor_ids: np.ndarray) -> int:
        """Bulk-offer a chunk's worth of candidates; returns how many entered.

        This is the per-chunk hot path.  Once the set is full, candidates
        farther than the current k-th distance are dropped with one
        vectorized comparison (ties pass: a smaller id can still enter).
        If more than ``k`` remain, those beyond the k-th smallest candidate
        distance are cut, ties with the cut kept.  One stable lexsort of the
        held entries followed by the survivors then yields the new k best.
        Held entries sort before identical candidates, so a candidate equal
        to the worst held entry is rejected: entering takes strictly better.
        """
        distances = np.asarray(distances, dtype=np.float64)
        descriptor_ids = np.asarray(descriptor_ids, dtype=np.int64)
        if distances.shape != descriptor_ids.shape:
            raise ValueError(
                f"distances shape {distances.shape} != ids shape {descriptor_ids.shape}"
            )
        k = self.k
        held = self._ids.shape[0]
        if held >= k:
            rows = np.nonzero(distances <= self._kth)[0]
            if not rows.size:
                return 0
            distances = distances[rows]
            descriptor_ids = descriptor_ids[rows]
        elif not distances.size:
            return 0
        if distances.shape[0] > k:
            cut = np.partition(distances, k - 1)[k - 1]
            rows = np.nonzero(distances <= cut)[0]
            distances = distances[rows]
            descriptor_ids = descriptor_ids[rows]
        all_distances = np.concatenate((self._distances, distances))
        all_ids = np.concatenate((self._ids, descriptor_ids))
        best = np.lexsort((all_ids, all_distances))[:k]
        self._distances = all_distances[best]
        self._ids = all_ids[best]
        if best.shape[0] == k:
            self._kth = float(self._distances[-1])
        return int(np.count_nonzero(best >= held))

    # repro: exact
    def merge(self, other: "NeighborSet") -> None:
        """Fold another neighbor set into this one."""
        self.update(other._distances, other._ids)

    # -- set-style helpers ----------------------------------------------------

    def id_set(self) -> set:
        """Current neighbor ids as a Python set (for precision counting)."""
        return set(self._ids.tolist())

    def true_match_count(self, truth: AbstractSet[int]) -> int:
        """How many current neighbor ids appear in ``truth`` (a set).

        One C-level set intersection instead of a Python-level membership
        loop — this runs after every chunk of every query when ground truth
        is attached, for both the sequential and the batch search paths.
        """
        return len(self.id_set() & truth)

    def __contains__(self, descriptor_id: int) -> bool:
        return int(descriptor_id) in self._ids.tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NeighborSet(k={self.k}, size={len(self)}, kth={self.kth_distance:.6g})"
