"""Correctness checks: served covers against the bare engines and the oracle.

Two checks run after each window:

* a seeded sample of the window's served covers is re-derived by the bare
  engine class on the same relation and support; the two rule lists must be
  byte-identical as JSON (a mismatch counts as a failed operation);
* a seeded corpus of small adversarial relations goes through the router to
  all four engines and each served cover is compared with the
  brute-force oracle of ``repro.core.bruteforce``.  The size of the symmetric
  difference is the ``cover_gap_rules`` metric (constant rules only for
  CFDMiner, which emits no variable ones).  A relation the service refuses
  with a typed 4xx error counts as served empty.  For the engines that
  match the oracle today (:data:`EXACT_ENGINES`) every relation with a gap
  is a failed operation, so a regression there cannot hide inside the
  known FastCFD/DFD gap.
"""

from __future__ import annotations

import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Sequence, Set, Tuple

from repro.api.result import rule_json_dict
from repro.core.bruteforce import discover_bruteforce
from repro.core.cfdminer import CFDMiner
from repro.core.ctane import CTane
from repro.core.dfd import DFD
from repro.core.fastcfd import FastCFD
from repro.relational.io import read_csv_text
from repro.relational.relation import Relation

from cfdbench.load import Client, fan_out
from cfdbench.workloads import derive_seed

#: The bare engine class behind each served algorithm name.
ENGINES = {"ctane": CTane, "fastcfd": FastCFD, "cfdminer": CFDMiner, "dfd": DFD}

#: Engines whose served cover must equal the oracle's on every relation.
EXACT_ENGINES = ("ctane", "cfdminer")


def rule_lines(rules: Sequence[Dict[str, object]]) -> List[str]:
    """Rules as canonical JSON strings, order kept."""
    return [json.dumps(rule, sort_keys=True) for rule in rules]


def engine_rules(relation, algorithm: str, support: int) -> List[Dict[str, object]]:
    """The bare engine class's cover as JSON rules (no session, no serving)."""
    cover = ENGINES[algorithm](relation, support).discover()
    return [rule_json_dict(cfd) for cfd in cover]


def parse_csv(body: bytes):
    """The relation of an upload body, parsed as the worker parses it."""
    return read_csv_text(body.decode())


def served_matches_engine(
    served_body: bytes, csv_body: bytes, algorithm: str, support: int
) -> bool:
    """Whether a served cover equals the bare engine's, rule for rule."""
    served = json.loads(served_body)
    if served.get("algorithm") != algorithm:
        return False
    expected = engine_rules(parse_csv(csv_body), algorithm, support)
    return rule_lines(served["rules"]) == rule_lines(expected)


def check_served_sample(workload, done, seed: int) -> Tuple[int, int]:
    """Re-derive a seeded sample of served covers; ``(checked, mismatches)``.

    The sample holds up to ``workload.checked_ops`` distinct (relation,
    engine, support) requests among the window's successful operations.
    """
    rng = random.Random(derive_seed(seed, "check"))
    by_key = {}
    for outcome in done:
        key = (outcome.fingerprint or outcome.op.discover.get("relation"),
               outcome.op.meta["engine"], outcome.op.meta["k"])
        by_key.setdefault(key, outcome)
    keys = sorted(by_key, key=str)
    sample = rng.sample(keys, min(workload.checked_ops, len(keys)))
    mismatches = 0
    for key in sample:
        outcome = by_key[key]
        if not served_matches_engine(outcome.discover_body,
                                     workload.relation_csv_of(outcome.op),
                                     outcome.op.meta["engine"], outcome.op.meta["k"]):
            mismatches += 1
            print(f"cover mismatch on {key}", file=sys.stderr)
    return len(sample), mismatches


# ---------------------------------------------------------------------- #
# the adversarial oracle corpus
# ---------------------------------------------------------------------- #
#: Row counts of the corpus relations (zero and one row included).
CORPUS_ROWS = (0, 1, 2, 3, 4, 5, 6, 8, 10, 12)

#: Every (columns, rows, k) shape; the corpus cycles through them in order.
CORPUS_SHAPES = [
    (cols, rows, k) for cols in (2, 3, 4, 5) for rows in CORPUS_ROWS for k in (1, 2, 3)
]


def adversarial_corpus(seed: int, size: int) -> List[Tuple[List[str], List[List[str]], int]]:
    """``(attributes, rows, k)`` relations: 2–5 columns, 0–12 rows, domains 1–3.

    Shapes and column domains follow a fixed cycle through
    :data:`CORPUS_SHAPES`, so every corpus of a given size holds the same
    mix of zero-row, one-row, constant-column (domain 1) and wider
    relations; the seed draws the values.
    """
    rng = random.Random(derive_seed(seed, "oracle"))
    corpus = []
    for i in range(size):
        cols, n_rows, k = CORPUS_SHAPES[i % len(CORPUS_SHAPES)]
        turn = i // len(CORPUS_SHAPES)
        domains = [1 + (7 * i + 5 * j + turn) % 3 for j in range(cols)]
        rows = [[f"v{rng.randrange(d)}" for d in domains] for _ in range(n_rows)]
        corpus.append(([f"A{j}" for j in range(cols)], rows, k))
    return corpus


def oracle_rules(attributes, rows, support: int) -> Set[str]:
    """The brute-force oracle's cover as canonical JSON strings."""
    relation = Relation.from_rows(list(attributes), [tuple(r) for r in rows])
    return set(
        rule_lines([rule_json_dict(c) for c in discover_bruteforce(relation, support)])
    )


def _constant(lines: Set[str]) -> Set[str]:
    return {line for line in lines if json.loads(line)["constant"]}


def cover_gaps(
    address: str,
    seed: int,
    engines: Sequence[str],
    *,
    size: int,
    clients: int,
) -> Dict[str, Dict[str, int]]:
    """Send the corpus through the router; per engine, the oracle gap.

    Returns ``{engine: {"gap_rules", "relations", "failed", "gapped"}}``:
    ``failed`` counts answers that are neither a cover nor a typed 4xx
    refusal, ``gapped`` the relations whose cover differs from the oracle's.
    """
    corpus = adversarial_corpus(seed, size)

    def job(entry, engine):
        attributes, rows, k = entry

        def run(client: Client):
            body = {"attributes": attributes, "rows": rows, "support": k,
                    "algorithm": engine}
            return client.post("/v1/discover", json.dumps(body).encode(),
                               "application/json")
        return run

    jobs = [job(entry, engine) for engine in engines for entry in corpus]
    # The oracle runs here while the client threads wait on the fleet.
    with ThreadPoolExecutor(max_workers=1) as pool:
        sent = pool.submit(fan_out, address, jobs, clients=clients)
        oracle = [oracle_rules(*entry) for entry in corpus]
        exchanges = sent.result()
    report: Dict[str, Dict[str, int]] = {}
    for e, engine in enumerate(engines):
        stats = {"gap_rules": 0, "relations": len(corpus), "failed": 0, "gapped": 0}
        for i, expected in enumerate(oracle):
            exchange = exchanges[e * len(corpus) + i]
            if exchange.ok:
                served = set(rule_lines(exchange.json()["rules"]))
            elif 400 <= exchange.status < 500 and not exchange.refused:
                served = set()
            else:
                stats["failed"] += 1
                served = set()
            if engine == "cfdminer":
                expected = _constant(expected)
            gap = len(served ^ expected)
            stats["gap_rules"] += gap
            stats["gapped"] += gap > 0
        report[engine] = stats
    return report


def exact_engine_failures(gaps: Dict[str, Dict[str, int]]) -> int:
    """Corpus relations on which an exact engine's cover missed the oracle."""
    failures = 0
    for engine in EXACT_ENGINES:
        if engine in gaps and gaps[engine]["gapped"]:
            failures += gaps[engine]["gapped"]
            print(f"{engine} differs from the oracle on {gaps[engine]['gapped']} "
                  "corpus relation(s)", file=sys.stderr)
    return failures
