"""CTANE: levelwise discovery of general minimal CFDs (Section 4 of the paper).

CTANE traverses an attribute-set/pattern lattice whose elements are pairs
``(X, sp)`` of an attribute set and a pattern over it (constants and the
unnamed variable ``_``).  Level ``ℓ`` holds the elements with ``|X| = ℓ``.
For every element the algorithm maintains a candidate-RHS set ``C⁺(X, sp)``;
a CFD ``(X \\ {A} → A, (sp[X \\ {A}] ‖ sp[A]))`` is emitted when it holds on
the relation and ``(A, sp[A])`` survived in ``C⁺(X, sp)`` — by Lemma 2 of the
paper this guarantees minimality.  The four steps per level are exactly the
paper's:

1. ``C⁺(X, sp) = ⋂_{B ∈ X} C⁺(X \\ {B}, sp[X \\ {B}])`` (plus the structural
   constraint that ``A ∈ X`` forces ``cA = sp[A]``);
2. validity checks and emission, followed by the ``C⁺`` updates of step 2(c);
3. removal of elements with an empty ``C⁺``;
4. generation of the next level by prefix join, keeping only candidates whose
   constant part is k-frequent and whose immediate sub-elements all survived.

The lattice is integer-coded from level 1 on (see DESIGN.md, "Lattice
encoding inside CTANE").  An element is ``(attrs, codes)``: ascending
attribute indices and the relation's value codes, with
:data:`~repro.core.pattern.WILDCARD_CODE` (``-1``) for ``_``.  The level-1
items ``(attribute, code)`` are numbered ``0..m-1`` and every ``C⁺`` is a
Python int bitset over these item ids, so step 1 is an AND over the parent
bitsets and a structural mask, step 2(c) two ANDs and step 3 a truthiness
test.  Each level is sorted once by a generality key built from a per-code
rank table (wildcards first, then constants in the order of their decimal
rendering), which fixes the emission order.  Emitted rules stay int tuples
until :func:`~repro.core.cfd.cfd_from_codes` decodes them at the end of the
run; pattern objects never enter the traversal.

Pattern partitions are maintained *incrementally*, as Section 4.4 of the
paper prescribes: every lattice element caches its ``Π(X, sp)`` as a label
array (:class:`~repro.relational.partition.Partition`), and a level-ℓ element
derives its partition with a single linear-time refinement or restriction
from the partition of its generating level-(ℓ−1) element and the joined-in
``(attribute, pattern-value)`` item.  The same partition answers both the
k-frequency check of step 4 (``covered_rows``) and the validity check of
step 2, which reduces to O(1) count comparisons between the element's
partition and its LHS parent's (``n_classes`` for a wildcard RHS,
``covered_rows`` for a constant RHS — see :meth:`CTane._cfd_valid` and
DESIGN.md for the soundness argument), so no step re-scans the encoded
matrix per candidate.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro import obs
from repro.core.cfd import CFD, cfd_from_codes
from repro.core.minimality import is_minimal
from repro.core.pattern import WILDCARD_CODE
from repro.exceptions import DiscoveryError
from repro.obs.names import SPAN_ENGINE_LEVEL
from repro.relational.partition import Partition, attribute_partition
from repro.relational.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - typing only (import would be circular)
    from repro.api.profiler import Profiler

#: ``(attrs, codes)``: ascending attribute indices and value codes (-1 = ``_``).
Element = Tuple[Tuple[int, ...], Tuple[int, ...]]
#: ``(lhs_attrs, lhs_codes, rhs, rhs_code)`` of an emitted CFD.
Rule = Tuple[Tuple[int, ...], Tuple[int, ...], int, int]
#: A level-1 item ``(attribute, code)``; its index in the item table is its id.
Item = Tuple[int, int]


def _nothing(codes: Tuple[int, ...]) -> Tuple[()]:
    """The constant-position picker of an all-wildcard pattern."""
    return ()


class CTane:
    """Levelwise discovery of a canonical cover of minimal k-frequent CFDs.

    Parameters
    ----------
    relation:
        The sample relation ``r``.
    min_support:
        The support threshold ``k`` (at least 1).
    max_lhs_size:
        Optional cap on the LHS size of emitted CFDs (``None``: unbounded,
        i.e. the lattice is explored up to the full arity).
    cplus_pruning:
        Keep the ``C⁺``-based pruning on (the algorithm of the paper).  Turning
        it off keeps every lattice element alive and emits via definition-level
        minimality checks instead; it exists for the pruning ablation
        benchmark.
    verify_minimality:
        Re-check every emitted CFD against the minimality definition and drop
        (and count) any failure.  Off by default; the test-suite validates the
        raw output against the brute-force oracle.
    session:
        Optional :class:`~repro.api.profiler.Profiler` bound to ``relation``.
        When given, single-attribute wildcard partitions are served from (and
        recorded in) the session's ``attribute_partition`` cache, so TANE,
        CTANE and the cleaning layer share one partition substrate across a
        discovery session.
    progress:
        Optional callback ``progress(stage, level, arity)`` invoked once per
        lattice level (for long-run feedback on large relations).
    checkpoint:
        Optional checkpoint handle with ``load() -> Optional[state]``,
        ``save(state)`` and ``clear()``.  When given (or derivable from the
        session via :meth:`~repro.api.profiler.Profiler.ctane_checkpoint`),
        the traversal snapshots its loop frontier at the top of every level
        and a re-run after a crash/kill/deadline resumes from the last
        completed level instead of from scratch — with byte-identical output,
        since the snapshot captures everything the remaining levels read.
        :attr:`resumed_level` / :attr:`resume_levels_skipped` record whether
        (and how far) a run warm-resumed.
    """

    def __init__(
        self,
        relation: Relation,
        min_support: int = 1,
        *,
        max_lhs_size: Optional[int] = None,
        cplus_pruning: bool = True,
        verify_minimality: bool = False,
        session: Optional["Profiler"] = None,
        progress: Optional[Callable[[str, int, int], None]] = None,
        checkpoint: Optional[object] = None,
    ):
        if min_support < 1:
            raise DiscoveryError("min_support must be at least 1")
        if (
            session is not None
            and session.relation is not relation
            and session.relation != relation
        ):
            raise DiscoveryError("the provided session does not profile this relation")
        self._relation = relation
        self._min_support = min_support
        self._max_lhs_size = max_lhs_size
        self._cplus_pruning = cplus_pruning
        self._verify_minimality = verify_minimality
        self._session = session
        self._progress = progress
        self._matrix = relation.encoded_matrix()
        # Contiguous per-attribute columns: the joins gather from them.
        self._columns = [
            np.ascontiguousarray(self._matrix[:, a]) for a in range(relation.arity)
        ]
        self._arity = relation.arity
        self._n_rows = relation.n_rows
        # Per-attribute code bound (codes are 0..span-1), for the mixed-radix
        # pairing of refine_by_column.
        self._column_spans: List[int] = [
            int(column.max()) + 1 if self._n_rows else 1 for column in self._columns
        ]
        # Generality rank of a code, indexed by ``code + 1``: the wildcard
        # first, then the constants in the order of their decimal rendering
        # ("c10" sorts before "c2"), the order emission has always followed.
        self._rank: List[int] = [0] * (max(self._column_spans, default=1) + 1)
        for position, code in enumerate(
            sorted(range(len(self._rank) - 1), key=str), start=1
        ):
            self._rank[code + 1] = position
        #: statistics filled by :meth:`discover`
        self.candidates_checked = 0
        self.elements_generated = 0
        self.non_minimal_dropped = 0
        #: resume bookkeeping: the level a checkpointed run restarted at, and
        #: how many completed levels it skipped (0 = cold run).
        self.resumed_level: Optional[int] = None
        self.resume_levels_skipped = 0
        self._checkpoint = checkpoint
        if self._checkpoint is None and session is not None:
            factory = getattr(session, "ctane_checkpoint", None)
            if factory is not None:
                self._checkpoint = factory(self._checkpoint_params())

    def _checkpoint_params(self) -> Dict[str, object]:
        """The request shape a checkpoint is keyed by (resume safety: a
        checkpoint only ever feeds a traversal with identical parameters)."""
        return {
            "min_support": int(self._min_support),
            "max_lhs_size": self._max_lhs_size,
            "cplus_pruning": bool(self._cplus_pruning),
            "verify_minimality": bool(self._verify_minimality),
        }

    # ------------------------------------------------------------------ #
    # the partition substrate
    # ------------------------------------------------------------------ #
    def _initial_level(self) -> Tuple[List[Element], Dict[Element, Partition]]:
        """Level 1 and its partitions: one element per attribute/wildcard
        and per frequent constant.

        Wildcard partitions come from (and warm) the session's shared
        ``attribute_partition`` cache when one is given; constant partitions
        store only their covered rows (support-sized) and go through the
        session's pattern-partition cache, written once for the level.
        """
        level: List[Element] = []
        partitions: Dict[Element, Partition] = {}
        derived: Dict[Element, Partition] = {}
        session = self._session
        for attribute in range(self._arity):
            element: Element = ((attribute,), (WILDCARD_CODE,))
            level.append(element)
            partitions[element] = (
                session.attribute_partition((attribute,))
                if session is not None
                else attribute_partition(self._matrix, [attribute])
            )
            column = self._columns[attribute]
            codes, counts = np.unique(column, return_counts=True)
            for code, count in zip(codes.tolist(), counts.tolist()):
                if count < self._min_support:
                    continue
                element = ((attribute,), (code,))
                level.append(element)
                cached = (
                    session.cached_pattern_partition(element)
                    if session is not None
                    else None
                )
                if cached is None:
                    cached = derived[element] = Partition.from_mask(
                        column == code, self._n_rows
                    )
                partitions[element] = cached
        if session is not None and derived:
            session.store_pattern_partitions(derived)
        return level, partitions

    # ------------------------------------------------------------------ #
    # validity check
    # ------------------------------------------------------------------ #
    @staticmethod
    def _cfd_valid(
        lhs_counts: Tuple[int, int],
        element_partition: Partition,
        rhs_code: int,
    ) -> bool:
        """Validity as O(1) count comparisons on cached pattern partitions.

        ``lhs_counts`` is ``(covered_rows, n_classes)`` of ``Π(X \\ {A}, sp')``
        and ``element_partition`` the element's own ``Π(X, sp)``.  Only these
        two counts of the LHS partition are ever read, so the previous
        level's table (and its checkpoint) keeps nothing else.

        * Wildcard RHS: both partitions cover the same rows (they share the
          constants), and the element refines the LHS by additionally
          grouping on ``A`` — every LHS class is constant on ``A`` iff no
          class splits, i.e. iff the class counts agree (TANE's test, lifted
          to pattern partitions).
        * Constant RHS ``A = c``: the element's partition covers exactly the
          LHS-matching rows that also satisfy ``A = c``, so the CFD holds iff
          the covered-row counts agree.  (The plain class-count comparison is
          *not* sound here, see DESIGN.md — the covered counts are.)
        """
        lhs_covered, lhs_classes = lhs_counts
        if rhs_code != WILDCARD_CODE:
            return lhs_covered == element_partition.covered_rows
        return lhs_classes == element_partition.n_classes

    # ------------------------------------------------------------------ #
    # the levelwise traversal
    # ------------------------------------------------------------------ #
    def _generality_key(self, element: Element) -> Tuple:
        """Sort key placing more general patterns (more wildcards) first."""
        attrs, codes = element
        rank = self._rank
        return (
            attrs,
            len(codes) - codes.count(WILDCARD_CODE),
            tuple([rank[code + 1] for code in codes]),
        )

    def _decode(self, rule: Rule) -> CFD:
        return cfd_from_codes(self._relation, *rule)

    def discover(self) -> List[CFD]:
        """Run CTANE and return the canonical cover of minimal k-frequent CFDs."""
        if self._n_rows < self._min_support:
            # No pattern (not even the all-wildcard one) can reach the support
            # threshold, so the canonical cover is empty.
            return []
        results: List[Rule] = []
        state = self._checkpoint.load() if self._checkpoint is not None else None
        if state is not None:
            # Warm resume: restore the loop frontier the checkpoint captured
            # at the top of level ``size`` — everything before it is done.
            size = int(state["size"])
            level: List[Element] = list(state["level"])
            items: List[Item] = list(state["items"])
            parent_cplus: Dict[Element, int] = state["parent_cplus"]
            parent_counts: Dict[Element, Tuple[int, int]] = state["parent_counts"]
            level_partitions: Dict[Element, Partition] = state["level_partitions"]
            results = list(state["results"])
            counters = state.get("counters", {})
            self.candidates_checked += int(counters.get("candidates_checked", 0))
            self.elements_generated += int(counters.get("elements_generated", 0))
            self.non_minimal_dropped += int(counters.get("non_minimal_dropped", 0))
            self.resumed_level = size
            self.resume_levels_skipped = size - 1
        else:
            level, level_partitions = self._initial_level()
            self.elements_generated += len(level)
            # The level-1 elements are the items C⁺ sets range over.
            items = [(attrs[0], codes[0]) for attrs, codes in level]
            empty_element: Element = ((), ())
            parent_cplus = {empty_element: (1 << len(items)) - 1}
            # Π(∅, ()): every row in one class (n_rows ≥ min_support ≥ 1).
            parent_counts = {empty_element: (self._n_rows, 1)}
            level.sort(key=self._generality_key)
            size = 1

        # Item ids per attribute (code → id) and the bitset of all items of
        # each attribute.
        item_id: List[Dict[int, int]] = [{} for _ in range(self._arity)]
        attribute_items = [0] * self._arity
        for index, (attribute, code) in enumerate(items):
            item_id[attribute][code] = index
            attribute_items[attribute] |= 1 << index

        while level:
            # One span per lattice level: the per-level cost profile is
            # the trace's engine-side waterfall (and a per-phase training
            # row for the cost model).
            with obs.get_tracer().start_span(
                SPAN_ENGINE_LEVEL, level=size, elements=len(level)
            ):
                if self._progress is not None:
                    self._progress("ctane:level", size, self._arity)
                if (
                    self._checkpoint is not None
                    and size > 1
                    and size != self.resumed_level
                ):
                    # Snapshot the frontier *before* processing the level.  The
                    # level, the parent tables and the level partitions are
                    # rebound, never mutated, once built; only the results
                    # list grows in place, so it alone is copied.
                    self._checkpoint.save(
                        {
                            "size": size,
                            "level": level,
                            "items": items,
                            "parent_cplus": parent_cplus,
                            "parent_counts": parent_counts,
                            "level_partitions": level_partitions,
                            "results": list(results),
                            "counters": {
                                "candidates_checked": self.candidates_checked,
                                "elements_generated": self.elements_generated,
                                "non_minimal_dropped": self.non_minimal_dropped,
                            },
                        }
                    )
                # The bitset of every item whose attribute is in X, per X:
                # step 1 masks with it, step 2(c) prunes to it.
                attrs_items: Dict[Tuple[int, ...], int] = {}
                # Group elements by attribute set: the step-2(c) update only
                # ever touches elements with the same attribute set.
                by_attrs: Dict[Tuple[int, ...], List[Element]] = {}
                for element in level:
                    attrs = element[0]
                    group = by_attrs.get(attrs)
                    if group is None:
                        group = by_attrs[attrs] = []
                        mask = 0
                        for attribute in attrs:
                            mask |= attribute_items[attribute]
                        attrs_items[attrs] = mask
                    group.append(element)

                # --- Step 1: candidate RHS sets ------------------------------ #
                cplus: Dict[Element, int] = {}
                for element in level:
                    attrs, codes = element
                    candidates = -1
                    for position in range(len(attrs)):
                        candidates &= parent_cplus.get(
                            (
                                attrs[:position] + attrs[position + 1:],
                                codes[:position] + codes[position + 1:],
                            ),
                            0,
                        )
                        if not candidates:
                            break
                    if candidates:
                        # Structural constraint (condition 1 of the C⁺
                        # definition): for an attribute inside X the only
                        # admissible pattern value is sp[A].
                        own = 0
                        for attribute, code in zip(attrs, codes):
                            own |= 1 << item_id[attribute][code]
                        candidates &= ~attrs_items[attrs] | own
                    cplus[element] = candidates

                # --- Step 2: validity checks and emission -------------------- #
                for element in level:
                    if not cplus[element]:
                        continue
                    attrs, codes = element
                    for position, rhs in enumerate(attrs):
                        rhs_code = codes[position]
                        bit = 1 << item_id[rhs][rhs_code]
                        if not cplus[element] & bit:
                            continue
                        lhs_attrs = attrs[:position] + attrs[position + 1:]
                        lhs_codes = codes[:position] + codes[position + 1:]
                        self.candidates_checked += 1
                        # The LHS element is an immediate sub-element, so its
                        # counts are in the previous level's table.
                        if not self._cfd_valid(
                            parent_counts[(lhs_attrs, lhs_codes)],
                            level_partitions[element],
                            rhs_code,
                        ):
                            continue
                        rule: Rule = (lhs_attrs, lhs_codes, rhs, rhs_code)
                        if self._verify_minimality and not is_minimal(
                            self._relation, self._decode(rule), k=self._min_support
                        ):
                            self.non_minimal_dropped += 1
                        else:
                            results.append(rule)
                        # Step 2(c): prune the candidate sets of this element and
                        # of every element with the same attributes, an identical
                        # RHS pattern value and a more specific LHS pattern.
                        # "More specific" means equal on every constant
                        # position of sp, compared as one picked tuple.
                        keep = ~bit
                        if self._cplus_pruning:
                            keep &= attrs_items[attrs]
                        constants = [
                            i for i, code in enumerate(codes) if code != WILDCARD_CODE
                        ]
                        pick = itemgetter(*constants) if constants else _nothing
                        wanted = pick(codes)
                        for other in by_attrs[attrs]:
                            other_codes = other[1]
                            if (
                                other_codes[position] == rhs_code
                                and pick(other_codes) == wanted
                            ):
                                cplus[other] &= keep

                # --- Step 3: prune elements with empty candidate sets -------- #
                if self._cplus_pruning:
                    level = [element for element in level if cplus[element]]

                # --- Step 4: generate the next level ------------------------- #
                if self._max_lhs_size is not None and size > self._max_lhs_size:
                    break
                next_partitions = self._next_level(level, level_partitions)
                self.elements_generated += len(next_partitions)
                parent_cplus = cplus
                parent_counts = {
                    element: (partition.covered_rows, partition.n_classes)
                    for element, partition in level_partitions.items()
                }
                level_partitions = next_partitions
                level = sorted(next_partitions, key=self._generality_key)
                size += 1
        if self._checkpoint is not None:
            self._checkpoint.clear()  # the run completed: nothing to resume
        return [self._decode(rule) for rule in results]

    def _next_level(
        self, level: List[Element], level_partitions: Dict[Element, Partition]
    ) -> Dict[Element, Partition]:
        """Step 4: the next level's elements, each with its ``Π(Z, sp)``.

        Candidates come from a prefix join; one survives when its constant
        part is k-frequent and every immediate sub-element is in ``level``.
        """
        session = self._session
        level_index: Set[Element] = set(level)
        next_partitions: Dict[Element, Partition] = {}
        derived: Dict[Element, Partition] = {}
        prefixes: Dict[Element, List[Element]] = {}
        for element in level:
            attrs, codes = element
            prefixes.setdefault((attrs[:-1], codes[:-1]), []).append(element)
        for bucket in prefixes.values():
            bucket.sort(key=lambda e: (e[0][-1], e[1][-1]))
            for i, x in enumerate(bucket):
                x_attrs, x_codes = x
                for y_attrs, y_codes in bucket[i + 1:]:
                    y_attr = y_attrs[-1]
                    if x_attrs[-1] == y_attr:
                        continue  # same attribute, different value: no join
                    y_code = y_codes[-1]
                    candidate: Element = (x_attrs + (y_attr,), x_codes + (y_code,))
                    # A session caches pattern partitions across runs (they
                    # are support-independent), so a warmed sweep skips the
                    # derivation below entirely.
                    cached = (
                        session.cached_pattern_partition(candidate)
                        if session is not None
                        else None
                    )
                    if cached is not None:
                        if cached.covered_rows < self._min_support:
                            continue
                        if not self._parents_present(candidate, level_index):
                            continue
                        next_partitions[candidate] = cached
                        continue
                    # Section 4.4: Π(Z, sp) derives from the generating
                    # element's cached Π(X, sp) by joining in the single new
                    # item — a class split for a wildcard, a row restriction
                    # for a constant.  The constant support (the covered rows
                    # after a restriction) is checked before paying for the
                    # class relabelling.
                    x_partition = level_partitions[x]
                    if y_code == WILDCARD_CODE:
                        if x_partition.covered_rows < self._min_support:
                            continue
                        if not self._parents_present(candidate, level_index):
                            continue
                        partition = x_partition.refine_by_column(
                            self._columns[y_attr], self._column_spans[y_attr]
                        )
                    else:
                        keep = self._columns[y_attr][x_partition.covered_index] == y_code
                        if int(np.count_nonzero(keep)) < self._min_support:
                            continue
                        if not self._parents_present(candidate, level_index):
                            continue
                        partition = x_partition.restrict(keep)
                    next_partitions[candidate] = derived[candidate] = partition
        if session is not None and derived:
            session.store_pattern_partitions(derived)
        return next_partitions

    @staticmethod
    def _parents_present(candidate: Element, level_index: Set[Element]) -> bool:
        """Step 4(b)(iii): every immediate sub-element must be in the level.

        The last two positions drop back to the two joined elements, which
        are in the level by construction, so only the others are looked up.
        """
        attrs, codes = candidate
        for position in range(len(attrs) - 2):
            parent = (
                attrs[:position] + attrs[position + 1:],
                codes[:position] + codes[position + 1:],
            )
            if parent not in level_index:
                return False
        return True


def discover_cfds_ctane(
    relation: Relation, min_support: int = 1, **kwargs: object
) -> List[CFD]:
    """Convenience wrapper: run :class:`CTane` on ``relation``."""
    return CTane(relation, min_support, **kwargs).discover()


__all__ = ["CTane", "discover_cfds_ctane"]
