"""Equivalence-class partitions on an array-backed label substrate.

Partitions are the core data structure of TANE-style algorithms (Section 4.4
of the paper): a set of attributes ``X`` partitions the tuples of a relation
into equivalence classes of tuples agreeing on ``X``.  CTANE generalises this
to *pattern partitions* ``Π(X, sp)``: only tuples matching the constants of
the pattern ``sp`` participate, grouped by their values on the wildcard
attributes of ``X``.

Representation
--------------
A :class:`Partition` is logically one ``int32`` array ``labels`` with
``labels[row] = class id`` and ``-1`` for rows that are excluded — either
because they do not match the constants of a pattern or because their
singleton class was stripped.  Class ids are dense (``0 .. n_classes-1``).
Physically the partition is stored *compressed*: a sorted array of covered
row indices plus the class id of each covered row; the full label array is
materialised lazily through :attr:`labels`.  The operations TANE/CTANE
hammer on are linear-time array passes whose cost scales with the covered
subset, not the relation:

* :meth:`product` — mixed-radix pairing of the class ids on the common rows
  (a ``searchsorted`` merge of the covered-row arrays);
* :meth:`refine_by_column` / :meth:`restrict` — the two special products
  CTANE derives level-ℓ pattern partitions with (joining in a wildcard or a
  constant single-attribute pattern);
* :meth:`refines` and the column checks
  (:meth:`column_constant_on_classes`, :meth:`column_all_equal`) — one
  pairing pass instead of Python dict loops.  (CTANE itself validates via
  O(1) count comparisons between cached partitions, see
  ``CTane._cfd_valid_partition``; the column checks are the direct,
  definition-level formulation of the same tests.)

Two row counts are deliberately distinct (they silently coincided — and then
silently diverged after :meth:`stripped` — in the old tuple-of-tuples
implementation): :attr:`n_rows` is the number of rows of the underlying
relation and never changes under stripping or products, while
:attr:`covered_rows` counts the rows actually present in some class.

The tuple-of-tuples view is still available through :attr:`classes` /
iteration for the edges that want explicit row groups (tests, small
fixtures); it is materialised lazily and cached.  The original dict-loop
implementation lives on in :mod:`repro.relational._reference` for property
testing and benchmarking.

The module provides:

* :class:`Partition` — the label-array partition;
* :func:`attribute_partition` — the partition of a relation by a set of
  attributes;
* :func:`pattern_partition` — the CTANE pattern partition ``Π(X, sp)``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pattern import WILDCARD, WILDCARD_CODE, is_wildcard


def _densify(codes: np.ndarray, bound: int) -> Tuple[np.ndarray, int]:
    """Relabel non-negative ``codes`` (< ``bound``) densely as ``0..k-1``.

    Uses a counting pass when the code range is comparable to the input size
    (much faster than sorting) and falls back to ``np.unique`` for sparse
    ranges.  Returns ``(labels, k)`` with ``labels`` of dtype int32.
    """
    if codes.size == 0:
        return np.empty(0, dtype=np.int32), 0
    if bound <= max(1024, 4 * codes.size):
        counts = np.bincount(codes, minlength=bound)
        mapping = np.cumsum(counts > 0, dtype=np.int64) - 1
        return mapping[codes].astype(np.int32), int(mapping[-1]) + 1
    uniques, inverse = np.unique(codes, return_inverse=True)
    return inverse.reshape(-1).astype(np.int32), int(uniques.size)


def _encode_columns(columns: Iterable[np.ndarray]) -> Tuple[np.ndarray, int]:
    """Dense row labels for the tuple of values across ``columns``.

    Pairs the columns one by one in mixed radix, re-densifying after each
    step so intermediate codes stay small.  Returns ``(labels, n_classes)``.

    Wide attribute sets over few rows (the ``dfd`` walk regime) instead take
    a single row-wise :func:`np.unique` over a byte view of the stacked
    columns: one vectorised sort beats dozens of per-column densify rounds
    there, while the incremental path stays linear for the many-row,
    few-column shapes CTANE produces.  Label *numbering* differs between the
    two paths but the grouping — all any caller relies on — is identical.
    """
    materialised = [np.asarray(column) for column in columns]
    n_rows = materialised[0].shape[0] if materialised else 0
    if len(materialised) >= 4 and 0 < n_rows <= 2048:
        stacked = np.ascontiguousarray(np.stack(materialised, axis=1))
        row_bytes = stacked.view(
            np.dtype((np.void, stacked.dtype.itemsize * stacked.shape[1]))
        ).ravel()
        _, inverse = np.unique(row_bytes, return_inverse=True)
        inverse = inverse.reshape(-1)
        return inverse.astype(np.int32), int(inverse.max()) + 1
    labels: Optional[np.ndarray] = None
    count = 1
    for column in materialised:
        column = column.astype(np.int64, copy=False)
        low = int(column.min()) if column.size else 0
        span = (int(column.max()) - low + 1) if column.size else 1
        if labels is None:
            codes = column - low
        else:
            codes = labels.astype(np.int64) * span + (column - low)
        labels, count = _densify(codes, count * span)
    assert labels is not None
    return labels, count


class Partition:
    """A partition of row indices into equivalence classes (label-array backed).

    The compatibility constructor accepts explicit classes (any iterable of
    disjoint row-index sequences); hot paths use the trusted constructors
    (:meth:`from_labels`, :meth:`from_covered`, :meth:`from_mask`) and the
    module-level builders instead.  The :attr:`classes` view is normalised
    exactly as before: classes are sorted tuples of row indices, ordered by
    their first element, which keeps partitions hashable and
    deterministically comparable.
    """

    __slots__ = (
        "_labels",
        "_size",
        "_n_rows",
        "_n_classes",
        "_covered_index",
        "_covered_labels",
        "_classes",
    )

    def __init__(self, classes: Iterable[Sequence[int]], n_rows: Optional[int] = None):
        groups = [
            np.asarray(sorted(int(i) for i in cls), dtype=np.int64)
            for cls in classes
            if len(cls) > 0
        ]
        groups.sort(key=lambda g: int(g[0]))
        covered = int(sum(g.size for g in groups))
        highest = max((int(g[-1]) for g in groups), default=-1)
        if n_rows is None:
            n_rows = covered
        rows = np.concatenate(groups) if groups else np.empty(0, dtype=np.int64)
        labels = np.concatenate(
            [np.full(g.size, i, dtype=np.int32) for i, g in enumerate(groups)]
        ) if groups else np.empty(0, dtype=np.int32)
        order = np.argsort(rows, kind="stable")
        self._covered_index: Optional[np.ndarray] = rows[order]
        self._covered_labels: Optional[np.ndarray] = labels[order]
        self._labels: Optional[np.ndarray] = None
        self._size = max(int(n_rows), highest + 1)
        self._n_rows = int(n_rows)
        self._n_classes = len(groups)
        self._classes: Optional[Tuple[Tuple[int, ...], ...]] = tuple(
            tuple(g.tolist()) for g in groups
        )

    # ------------------------------------------------------------------ #
    # trusted constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_labels(
        cls, labels: np.ndarray, n_rows: int, n_classes: int
    ) -> "Partition":
        """Wrap a label array (dense class ids ``0..n_classes-1``, ``-1`` excluded)."""
        partition = cls.__new__(cls)
        partition._labels = labels
        partition._size = int(labels.shape[0])
        partition._n_rows = int(n_rows)
        partition._n_classes = int(n_classes)
        partition._covered_index = None
        partition._covered_labels = None
        partition._classes = None
        return partition

    @classmethod
    def from_covered(
        cls,
        rows: np.ndarray,
        row_labels: np.ndarray,
        n_rows: int,
        n_classes: int,
        size: Optional[int] = None,
    ) -> "Partition":
        """Wrap the compressed form: sorted covered ``rows`` and their class ids."""
        partition = cls.__new__(cls)
        partition._labels = None
        if size is None:
            size = max(int(n_rows), (int(rows[-1]) + 1) if rows.size else 0)
        partition._size = int(size)
        partition._n_rows = int(n_rows)
        partition._n_classes = int(n_classes)
        partition._covered_index = rows
        partition._covered_labels = row_labels
        partition._classes = None
        return partition

    @classmethod
    def from_mask(cls, mask: np.ndarray, n_rows: int) -> "Partition":
        """The single-class partition of the rows selected by a boolean mask."""
        rows = np.nonzero(mask)[0]
        return cls.from_covered(
            rows,
            np.zeros(rows.size, dtype=np.int32),
            n_rows,
            1 if rows.size else 0,
            size=int(mask.shape[0]),
        )

    # ------------------------------------------------------------------ #
    @property
    def labels(self) -> np.ndarray:
        """The full ``int32`` label array (``-1`` marks uncovered rows; lazy)."""
        if self._labels is None:
            labels = np.full(self._size, -1, dtype=np.int32)
            labels[self._covered_index] = self._covered_labels
            self._labels = labels
        return self._labels

    @property
    def covered_index(self) -> np.ndarray:
        """Sorted row indices of the covered rows (cached)."""
        if self._covered_index is None:
            self._covered_index = np.nonzero(self._labels >= 0)[0]
            self._covered_labels = self._labels[self._covered_index]
        return self._covered_index

    @property
    def covered_labels(self) -> np.ndarray:
        """Class ids of the covered rows, aligned with :attr:`covered_index`."""
        if self._covered_labels is None:
            self.covered_index  # materialises both
        return self._covered_labels

    @property
    def n_classes(self) -> int:
        """Number of equivalence classes, ``|π|``."""
        return self._n_classes

    @property
    def n_rows(self) -> int:
        """Number of rows of the underlying relation (stable under stripping)."""
        return self._n_rows

    @property
    def covered_rows(self) -> int:
        """Number of rows that belong to some class (``-1`` entries excluded)."""
        return int(self.covered_index.size)

    @property
    def size(self) -> int:
        """Length of the full label array (row-index space of the partition)."""
        return self._size

    @property
    def classes(self) -> Tuple[Tuple[int, ...], ...]:
        """The classes as sorted tuples of row indices, ordered by first element."""
        if self._classes is None:
            rows = self.covered_index
            labels = self.covered_labels
            order = np.argsort(labels, kind="stable")
            boundaries = np.nonzero(np.diff(labels[order]))[0] + 1
            groups = np.split(rows[order], boundaries) if rows.size else []
            groups.sort(key=lambda g: int(g[0]))
            self._classes = tuple(tuple(g.tolist()) for g in groups)
        return self._classes

    def class_sizes(self) -> np.ndarray:
        """Sizes of the classes, indexed by class id."""
        return np.bincount(self.covered_labels, minlength=self._n_classes)

    @property
    def nbytes(self) -> int:
        """Estimated bytes held by the partition's materialised backing stores.

        Counts the numpy arrays exactly and the lazily materialised
        ``classes`` view approximately (Python ints dominate it); views that
        have not been materialised cost nothing.  The session pool's memory
        accounting sums this over every cached partition.
        """
        total = 0
        for array in (self._labels, self._covered_index, self._covered_labels):
            if array is not None:
                total += int(array.nbytes)
        if self._classes is not None:
            # ~28 bytes per small int plus 8 per tuple slot, 56 per tuple.
            total += sum(56 + 36 * len(cls) for cls in self._classes)
        return total

    def __iter__(self):
        return iter(self.classes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and other.classes == self.classes

    def __hash__(self) -> int:
        return hash(self.classes)

    def __repr__(self) -> str:
        return f"Partition(n_classes={self.n_classes}, n_rows={self.n_rows})"

    # ------------------------------------------------------------------ #
    def stripped(self) -> "Partition":
        """Drop singleton classes (TANE's *stripped partition*)."""
        sizes = self.class_sizes()
        keep_class = sizes > 1
        kept = int(keep_class.sum())
        if kept == self._n_classes:
            return self
        mapping = np.where(
            keep_class, np.cumsum(keep_class, dtype=np.int64) - 1, np.int64(-1)
        )
        relabelled = mapping[self.covered_labels]
        keep_rows = relabelled >= 0
        return Partition.from_covered(
            self.covered_index[keep_rows],
            relabelled[keep_rows].astype(np.int32),
            self._n_rows,
            kept,
            size=self._size,
        )

    # ------------------------------------------------------------------ #
    # products and refinement
    # ------------------------------------------------------------------ #
    def _align(self, other: "Partition") -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows covered by both partitions and their class ids on each side.

        Returns ``(rows, mine, theirs)`` with ``rows`` sorted.  The merge
        works on the covered-row index arrays (a ``searchsorted`` probe, or a
        direct gather when ``other`` covers every row), so its cost scales
        with the covered subsets, not with the relation.
        """
        ra = self.covered_index
        rb = other.covered_index
        if ra.size == 0 or rb.size == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.int32),
            )
        if rb.size == other._size and int(ra[-1]) < other._size:
            # ``other`` covers every row: class ids line up with row indices.
            return ra, self.covered_labels, other.covered_labels[ra]
        positions = np.searchsorted(rb, ra)
        positions[positions == rb.size] = 0  # out-of-range probes can't match
        hit = rb[positions] == ra
        return (
            ra[hit],
            self.covered_labels[hit],
            other.covered_labels[positions[hit]],
        )

    def refines(self, other: "Partition") -> bool:
        """``True`` iff every class of ``self`` is contained in a class of ``other``."""
        rows, mine, theirs = self._align(other)
        if int(rows.size) != self.covered_rows:
            return False  # some row of self is not covered by other at all
        if rows.size == 0:
            return True
        pairs = mine.astype(np.int64) * max(other._n_classes, 1) + theirs
        return int(np.unique(pairs).size) == self._n_classes

    def product(self, other: "Partition") -> "Partition":
        """The product partition (tuples equivalent under both partitions).

        Only rows present in both partitions survive, mirroring the CTANE
        pattern-partition semantics where tuples not matching the constant
        pattern are dropped.
        """
        rows, mine, theirs = self._align(other)
        count = 0
        row_labels = np.empty(0, dtype=np.int32)
        if rows.size:
            radix = max(other._n_classes, 1)
            pairs = mine.astype(np.int64) * radix + theirs
            row_labels, count = _densify(pairs, max(self._n_classes, 1) * radix)
        return Partition.from_covered(
            rows,
            row_labels,
            self._n_rows,
            count,
            size=max(self._size, other._size),
        )

    def restrict(self, keep: np.ndarray) -> "Partition":
        """The product with a single-class partition, given as a keep-flag array.

        ``keep`` is boolean and aligned with :attr:`covered_index`; rows with
        a false flag drop out and the surviving classes are re-densified.
        This is how CTANE joins a constant item ``(A = c)`` into a cached
        pattern partition.
        """
        rows = self.covered_index[keep]
        sub = self.covered_labels[keep]
        row_labels, count = _densify(sub, max(self._n_classes, 1))
        return Partition.from_covered(
            rows, row_labels, self._n_rows, count, size=self._size
        )

    def refine_by_column(self, column: np.ndarray, span: int) -> "Partition":
        """The product with the attribute partition of an encoded ``column``.

        ``span`` bounds the column's codes (``0 <= code < span``).  Covered
        rows are unchanged; every class splits by the column's value.  This is
        how CTANE joins a wildcard item into a cached pattern partition.
        """
        rows = self.covered_index
        codes = self.covered_labels.astype(np.int64) * span + column[rows]
        row_labels, count = _densify(codes, max(self._n_classes, 1) * span)
        return Partition.from_covered(
            rows, row_labels, self._n_rows, count, size=self._size
        )

    def error(self) -> int:
        """TANE's ``g3``-style error: covered rows minus number of classes.

        For the partition of ``X ∪ {A}`` compared against ``X`` this counts
        the minimum number of tuples to remove for the FD ``X → A`` to hold.
        """
        return self.covered_rows - self.n_classes

    # ------------------------------------------------------------------ #
    # vectorized column checks
    # ------------------------------------------------------------------ #
    def column_all_equal(self, column: np.ndarray, code: int) -> bool:
        """``True`` iff every covered row has ``column[row] == code``."""
        return bool((column[self.covered_index] == code).all())

    def column_constant_on_classes(self, column: np.ndarray) -> bool:
        """``True`` iff every class is constant on ``column``.

        The definition-level wildcard-RHS validity test (``self`` as the LHS
        pattern partition, ``column`` the encoded RHS attribute), computed in
        one vectorized pass.  CTANE's hot path uses the equivalent O(1)
        class-count comparison against the element's own partition instead;
        the property tests cross-check the two formulations.
        """
        if self.covered_index.size == 0:
            return True
        values = column[self.covered_index].astype(np.int64)
        low = int(values.min())
        span = int(values.max()) - low + 1
        pairs = self.covered_labels.astype(np.int64) * span + (values - low)
        return int(np.unique(pairs).size) == self._n_classes


# ---------------------------------------------------------------------- #
# constructors from encoded relations
# ---------------------------------------------------------------------- #
def attribute_partition(matrix: np.ndarray, attributes: Sequence[int]) -> Partition:
    """Partition of all rows of ``matrix`` by the attribute indices given.

    An empty attribute list yields a single class containing every row.
    """
    n_rows = matrix.shape[0]
    if n_rows == 0:
        return Partition.from_labels(np.empty(0, dtype=np.int32), 0, 0)
    if not attributes:
        return Partition.from_labels(np.zeros(n_rows, dtype=np.int32), n_rows, 1)
    labels, count = _encode_columns(matrix[:, a] for a in attributes)
    return Partition.from_labels(labels.astype(np.int32), n_rows, count)


def _is_wildcard_code(code: object) -> bool:
    return is_wildcard(code) or code == WILDCARD_CODE


def pattern_partition(
    matrix: np.ndarray,
    attributes: Sequence[int],
    pattern_codes: Sequence[object],
) -> Partition:
    """The CTANE pattern partition ``Π(X, sp)``.

    Parameters
    ----------
    matrix:
        Encoded relation matrix.
    attributes:
        Attribute indices ``X``.
    pattern_codes:
        One entry per attribute of ``X``: either an integer code (constant
        pattern) or the wildcard, given as
        :data:`~repro.core.pattern.WILDCARD_CODE` (``-1``, the engines'
        encoding) or :data:`~repro.core.pattern.WILDCARD`.

    Returns
    -------
    Partition
        Only rows matching every constant of the pattern participate; they are
        grouped by their values on the wildcard attributes.  (Grouping by the
        constant attributes as well would be a no-op since all matching rows
        share those values.)
    """
    n_rows = matrix.shape[0]
    if len(attributes) != len(pattern_codes):
        raise ValueError("attributes and pattern codes must have equal length")
    mask = np.ones(n_rows, dtype=bool)
    wildcard_attrs: List[int] = []
    for attr, code in zip(attributes, pattern_codes):
        if _is_wildcard_code(code):
            wildcard_attrs.append(attr)
        else:
            mask &= matrix[:, attr] == int(code)
    rows = np.nonzero(mask)[0]
    if rows.size == 0:
        return Partition.from_covered(
            rows, np.empty(0, dtype=np.int32), n_rows, 0, size=n_rows
        )
    if not wildcard_attrs:
        return Partition.from_covered(
            rows, np.zeros(rows.size, dtype=np.int32), n_rows, 1, size=n_rows
        )
    sub = matrix[rows]
    grouped, count = _encode_columns(sub[:, a] for a in wildcard_attrs)
    return Partition.from_covered(
        rows, grouped.astype(np.int32), n_rows, count, size=n_rows
    )


def matching_rows(
    matrix: np.ndarray,
    attributes: Sequence[int],
    pattern_codes: Sequence[object],
) -> np.ndarray:
    """Row indices matching the constants of a pattern (wildcards, coded as
    in :func:`pattern_partition`, ignored)."""
    n_rows = matrix.shape[0]
    mask = np.ones(n_rows, dtype=bool)
    for attr, code in zip(attributes, pattern_codes):
        if not _is_wildcard_code(code):
            mask &= matrix[:, attr] == int(code)
    return np.nonzero(mask)[0]


__all__ = [
    "Partition",
    "attribute_partition",
    "pattern_partition",
    "matching_rows",
    "WILDCARD",
]
