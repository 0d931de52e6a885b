"""Golden regression for CTANE: emission order and counters, exactly.

``data/ctane_golden.json`` records, per ``(relation, k)`` case, the SHA-256
of ``[str(cfd) for cfd in CTane(r, k).discover()]`` in emission order plus
the ``elements_generated`` and ``candidates_checked`` counters.  Any change
to the lattice encoding, the generality order or the pruning shows up here
as a digest or counter mismatch.

Regenerate (only when a change of output is intended) with::

    PYTHONPATH=src python tests/core/test_ctane_golden.py > tests/core/data/ctane_golden.json
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.ctane import CTane
from repro.datagen import generate_tax
from repro.relational.relation import Relation

GOLDEN = Path(__file__).parent / "data" / "ctane_golden.json"
SUPPORTS = (1, 5, 20)
TAX_SEEDS = (1, 2, 3, 4, 5)


def fixture_relation() -> Relation:
    """The relation of ``test_ctane.py``'s fixture."""
    return Relation.from_rows(
        ["A", "B", "C", "D"],
        [
            (1, 5, "p", "k"),
            (1, 5, "q", "k"),
            (2, 6, "r", "k"),
            (2, 7, "s", "k"),
            (2, 7, "s", "k"),
        ],
    )


def relations():
    yield "fixture", fixture_relation()
    for seed in TAX_SEEDS:
        yield f"tax200-seed{seed}", generate_tax(200, arity=7, seed=seed)


RELATIONS = dict(relations())


def record(relation: Relation, k: int) -> dict:
    engine = CTane(relation, k)
    rendered = [str(cfd) for cfd in engine.discover()]
    return {
        "sha256": hashlib.sha256(json.dumps(rendered).encode()).hexdigest(),
        "rules": len(rendered),
        "elements_generated": engine.elements_generated,
        "candidates_checked": engine.candidates_checked,
    }


def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(RELATIONS))
@pytest.mark.parametrize("k", SUPPORTS)
def test_ctane_matches_the_golden_record(name, k):
    assert record(RELATIONS[name], k) == golden()[f"{name}/k={k}"]


if __name__ == "__main__":
    json.dump(
        {
            f"{name}/k={k}": record(relation, k)
            for name, relation in RELATIONS.items()
            for k in SUPPORTS
        },
        sys.stdout,
        indent=1,
        sort_keys=True,
    )
    sys.stdout.write("\n")
