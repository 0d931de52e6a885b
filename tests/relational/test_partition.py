"""Unit tests for repro.relational.partition."""

import numpy as np
import pytest

from repro.core.pattern import WILDCARD
from repro.relational.partition import (
    Partition,
    attribute_partition,
    matching_rows,
    pattern_partition,
)
from repro.relational.relation import Relation


@pytest.fixture
def matrix() -> np.ndarray:
    relation = Relation.from_rows(
        ["A", "B", "C"],
        [
            ("a", "x", 1),
            ("a", "x", 2),
            ("a", "y", 1),
            ("b", "y", 1),
            ("b", "y", 1),
        ],
    )
    return relation.encoded_matrix()


class TestPartitionBasics:
    def test_normalisation_sorts_classes(self):
        partition = Partition([[3, 1], [0, 2]])
        assert partition.classes == ((0, 2), (1, 3))

    def test_counts(self):
        partition = Partition([[0, 1], [2]])
        assert partition.n_classes == 2
        assert partition.n_rows == 3

    def test_empty_classes_dropped(self):
        assert Partition([[], [1]]).n_classes == 1

    def test_equality_and_hash(self):
        assert Partition([[0, 1]]) == Partition([[1, 0]])
        assert hash(Partition([[0, 1]])) == hash(Partition([[1, 0]]))

    def test_stripped_removes_singletons(self):
        stripped = Partition([[0, 1], [2], [3, 4]]).stripped()
        assert stripped.classes == ((0, 1), (3, 4))

    def test_n_rows_uses_explicit_relation_size(self):
        partition = Partition([[0, 1], [2]], n_rows=10)
        assert partition.n_rows == 10
        assert partition.covered_rows == 3

    def test_stripping_keeps_n_rows_and_shrinks_covered_rows(self):
        partition = Partition([[0, 1], [2], [3, 4]], n_rows=5)
        stripped = partition.stripped()
        assert stripped.n_rows == 5          # relation size is stable
        assert stripped.covered_rows == 4    # the singleton dropped out
        assert partition.covered_rows == 5

    def test_labels_round_trip(self):
        partition = Partition([[0, 2], [1]], n_rows=4)
        assert partition.labels.tolist() == [0, 1, 0, -1]
        rebuilt = Partition.from_labels(partition.labels, 4, 2)
        assert rebuilt == partition
        assert rebuilt.covered_index.tolist() == [0, 1, 2]
        assert rebuilt.covered_labels.tolist() == [0, 1, 0]

    def test_error_measure(self):
        assert Partition([[0, 1], [2]]).error() == 1

    def test_repr(self):
        assert "n_classes=1" in repr(Partition([[0, 1]]))


class TestRefinesAndProduct:
    def test_refines_true(self):
        finer = Partition([[0], [1], [2, 3]])
        coarser = Partition([[0, 1], [2, 3]])
        assert finer.refines(coarser)

    def test_refines_false(self):
        assert not Partition([[0, 1]]).refines(Partition([[0], [1]]))

    def test_refines_requires_row_coverage(self):
        assert not Partition([[0, 5]]).refines(Partition([[0], [1]]))

    def test_product_intersects_classes(self):
        left = Partition([[0, 1, 2], [3, 4]])
        right = Partition([[0, 1], [2, 3, 4]])
        product = left.product(right)
        assert product.classes == ((0, 1), (2,), (3, 4))

    def test_product_drops_rows_missing_from_either_side(self):
        left = Partition([[0, 1, 2]])
        right = Partition([[1, 2]])
        assert left.product(right).classes == ((1, 2),)


class TestAttributePartition:
    def test_single_attribute(self, matrix):
        partition = attribute_partition(matrix, [0])
        assert partition.classes == ((0, 1, 2), (3, 4))

    def test_two_attributes(self, matrix):
        partition = attribute_partition(matrix, [0, 1])
        assert partition.classes == ((0, 1), (2,), (3, 4))

    def test_empty_attribute_list_single_class(self, matrix):
        assert attribute_partition(matrix, []).n_classes == 1

    def test_empty_matrix(self):
        empty = np.empty((0, 2), dtype=np.int32)
        assert attribute_partition(empty, [0]).n_classes == 0


class TestPatternPartition:
    def test_constant_pattern_filters_rows(self, matrix):
        partition = pattern_partition(matrix, [0], [0])  # A = 'a'
        assert partition.classes == ((0, 1, 2),)

    def test_wildcard_behaves_like_attribute_partition(self, matrix):
        assert pattern_partition(matrix, [0], [WILDCARD]) == attribute_partition(
            matrix, [0]
        )

    def test_mixed_pattern(self, matrix):
        # A = 'a' (code 0), group by B; -1 is the engines' wildcard code
        for wildcard in (WILDCARD, -1):
            partition = pattern_partition(matrix, [0, 1], [0, wildcard])
            assert partition.classes == ((0, 1), (2,))

    def test_no_matching_rows(self, matrix):
        assert pattern_partition(matrix, [0], [99]).n_classes == 0

    def test_length_mismatch_raises(self, matrix):
        with pytest.raises(ValueError):
            pattern_partition(matrix, [0, 1], [0])

    def test_matching_rows_ignores_wildcards(self, matrix):
        for wildcard in (WILDCARD, -1):
            rows = matching_rows(matrix, [0, 1], [0, wildcard])
            assert rows.tolist() == [0, 1, 2]
