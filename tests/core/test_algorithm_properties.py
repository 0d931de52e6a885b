"""Property-based cross-validation of the discovery algorithms.

For random small relations:

* every CFD emitted by CFDMiner / CTANE / FastCFD / NaiveFast is minimal and
  k-frequent by definition (soundness);
* CFDMiner's output equals the constant part of the brute-force cover;
* CTANE's output equals the brute-force cover exactly, on adversarial
  relations: zero or one row, constant (domain-1) columns;
* every minimal k-frequent CFD (brute force) is either in FastCFD's output
  or implied by it (completeness up to implication — FastCFD omits
  variable CFDs that are subsumed by constant CFDs, see DESIGN.md);
* FastCFD and NaiveFast produce identical covers.
"""

from hypothesis import given, settings, strategies as st

from repro.core.bruteforce import discover_bruteforce
from repro.core.cfdminer import CFDMiner
from repro.core.ctane import CTane
from repro.core.dfd import DFD
from repro.core.fastcfd import FastCFD, NaiveFast
from repro.core.implication import is_implied_by_cover
from repro.core.minimality import is_minimal
from repro.relational.relation import Relation


def small_relations(max_rows: int = 6, n_cols: int = 3, domain: int = 2):
    names = [f"A{i}" for i in range(n_cols)]
    return st.lists(
        st.tuples(*[st.integers(0, domain - 1) for _ in range(n_cols)]),
        min_size=1,
        max_size=max_rows,
    ).map(lambda rows: Relation.from_rows(names, rows))


SUPPORTS = st.integers(min_value=1, max_value=3)


@st.composite
def adversarial_relations(draw, max_rows: int = 8, max_cols: int = 4):
    """Small relations that include the degenerate shapes: zero and one
    row, and columns whose domain is a single value (constant columns)."""
    n_cols = draw(st.integers(1, max_cols))
    domains = draw(st.lists(st.integers(1, 3), min_size=n_cols, max_size=n_cols))
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(0, d - 1) for d in domains]),
            min_size=0,
            max_size=max_rows,
        )
    )
    return Relation.from_rows([f"A{i}" for i in range(n_cols)], rows)


@settings(max_examples=25, deadline=None)
@given(relation=small_relations(), k=SUPPORTS)
def test_all_algorithms_are_sound(relation, k):
    for algorithm in (CFDMiner, CTane, FastCFD, NaiveFast):
        for cfd in algorithm(relation, k).discover():
            assert is_minimal(relation, cfd, k=k), f"{algorithm.__name__}: {cfd}"


@settings(max_examples=25, deadline=None)
@given(relation=small_relations(), k=SUPPORTS)
def test_cfdminer_matches_bruteforce_constants(relation, k):
    expected = discover_bruteforce(relation, k, constant_only=True)
    assert set(CFDMiner(relation, k).discover()) == expected


@settings(max_examples=100, deadline=None)
@given(relation=adversarial_relations(), k=SUPPORTS)
def test_ctane_equals_the_oracle_exactly(relation, k):
    found = CTane(relation, k).discover()
    assert len(found) == len(set(found))
    assert set(found) == discover_bruteforce(relation, k)
    if relation.n_rows == 0:
        assert found == []


@settings(max_examples=20, deadline=None)
@given(relation=small_relations(), k=SUPPORTS)
def test_fastcfd_is_complete_up_to_implication(relation, k):
    cover = set(FastCFD(relation, k).discover())
    for cfd in discover_bruteforce(relation, k):
        assert is_implied_by_cover(cfd, cover), str(cfd)


@settings(max_examples=25, deadline=None)
@given(relation=small_relations(max_rows=7, n_cols=3, domain=3), k=SUPPORTS)
def test_fastcfd_equals_naivefast(relation, k):
    fastcfd = set(FastCFD(relation, k, constant_cfds="inline").discover())
    naivefast = set(NaiveFast(relation, k).discover())
    assert fastcfd == naivefast


@settings(max_examples=20, deadline=None)
@given(relation=small_relations(max_rows=6, n_cols=4, domain=2), k=SUPPORTS)
def test_ctane_and_fastcfd_agree_on_constant_cfds(relation, k):
    ctane = {c for c in CTane(relation, k).discover() if c.is_constant}
    fastcfd = {c for c in FastCFD(relation, k).discover() if c.is_constant}
    assert ctane == fastcfd


@settings(max_examples=25, deadline=None)
@given(
    relation=small_relations(max_rows=7, n_cols=4, domain=2),
    k=SUPPORTS,
    walk_seed=st.integers(0, 3),
)
def test_dfd_equals_fastcfd(relation, k, walk_seed):
    """The random walk confirms exactly FastCFD's cover (FastFD lemma), for
    any walk seed."""
    dfd = set(DFD(relation, k, seed=walk_seed).discover())
    fastcfd = set(FastCFD(relation, k).discover())
    assert dfd == fastcfd
