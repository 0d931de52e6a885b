"""Checkpointed discovery: CTANE level snapshots, kill-resume equivalence.

The tentpole acceptance bar: a CTANE run crashed mid-lattice resumes from
its last *completed* level — in the same process (in-memory checkpoints),
or on another worker sharing the cache store (write-through checkpoints) —
and the resumed cover is byte-identical to an undisturbed run, with the
resume observable in the engine stats and the service counters.
"""

import json

import numpy as np
import pytest

from repro.api import DiscoveryRequest, Profiler
from repro.core.ctane import CTane
from repro.datagen import generate_tax
from repro.relational.relation import Relation
from repro.serve import CacheStore, DiscoveryService, FaultPlan, SessionPool
from repro.serve.faults import FaultInjected
from repro.serve.store import (
    KIND_ATTRIBUTE_PARTITIONS,
    KIND_CTANE_CHECKPOINT,
    pack_ctane_checkpoint,
    pack_partition_bundle,
    unpack_ctane_checkpoint,
)

ATTRIBUTES = ["CC", "AC", "PN", "NM", "STR", "CT", "ZIP"]
ROWS = [
    ("01", "908", "1111111", "Mike", "Tree Ave.", "MH", "07974"),
    ("01", "908", "1111111", "Rick", "Tree Ave.", "MH", "07974"),
    ("01", "212", "2222222", "Joe", "5th Ave", "NYC", "01202"),
    ("01", "908", "2222222", "Jim", "Elm Str.", "MH", "07974"),
    ("44", "131", "3333333", "Ben", "High St.", "EDI", "EH4 1DT"),
    ("44", "131", "4444444", "Ian", "High St.", "EDI", "EH4 1DT"),
    ("44", "908", "4444444", "Ian", "Port PI", "MH", "W1B 1JH"),
    ("01", "131", "2222222", "Sean", "3rd Str.", "UN", "01202"),
]


def fresh_relation() -> Relation:
    return Relation.from_rows(list(ATTRIBUTES), [tuple(row) for row in ROWS])


class RecordingCheckpoint:
    """An in-memory checkpoint handle: records saves, replays one state."""

    def __init__(self, preload=None):
        self.saved = []
        self.cleared = 0
        self._preload = preload

    def load(self):
        return self._preload

    def save(self, state):
        self.saved.append(state)

    def clear(self):
        self.cleared += 1


def cover(cfds) -> str:
    return json.dumps(sorted(str(cfd) for cfd in cfds))


def checkpoint_files(store, relation):
    """The CTANE checkpoint entries on disk for one relation (``load_all``
    reads only the warm-load kinds, so it never returns these)."""
    directory = store.root / relation.fingerprint()
    return sorted(directory.glob(f"{KIND_CTANE_CHECKPOINT}-*.rpc"))


class TestEngineCheckpointing:
    def test_levels_snapshot_then_clear_on_completion(self):
        checkpoint = RecordingCheckpoint()
        ctane = CTane(fresh_relation(), 2, checkpoint=checkpoint)
        ctane.discover()
        sizes = [state["size"] for state in checkpoint.saved]
        assert sizes and sizes == sorted(set(sizes))
        assert sizes[0] == 2  # level 1 is cheap; snapshots start at level 2
        assert checkpoint.cleared == 1
        assert ctane.resumed_level is None
        assert ctane.resume_levels_skipped == 0

    @pytest.mark.parametrize("snapshot_index", [0, -1])
    def test_resume_from_any_level_is_byte_identical(self, snapshot_index):
        baseline = CTane(fresh_relation(), 2)
        expected = cover(baseline.discover())

        recorder = RecordingCheckpoint()
        CTane(fresh_relation(), 2, checkpoint=recorder).discover()
        state = recorder.saved[snapshot_index]

        resumed_handle = RecordingCheckpoint(preload=state)
        resumed = CTane(fresh_relation(), 2, checkpoint=resumed_handle)
        assert cover(resumed.discover()) == expected
        assert resumed.resumed_level == state["size"]
        assert resumed.resume_levels_skipped == state["size"] - 1
        assert resumed_handle.cleared == 1
        # The engine does not re-save the level it resumed into.
        assert all(s["size"] > state["size"] for s in resumed_handle.saved)

    def test_resumed_counters_include_the_skipped_work(self):
        recorder = RecordingCheckpoint()
        full = CTane(fresh_relation(), 2, checkpoint=recorder)
        full.discover()
        state = recorder.saved[-1]
        resumed = CTane(
            fresh_relation(), 2, checkpoint=RecordingCheckpoint(preload=state)
        )
        resumed.discover()
        # Counters restored from the checkpoint plus the remaining levels add
        # up to exactly the undisturbed run's totals.
        assert resumed.candidates_checked == full.candidates_checked
        assert resumed.elements_generated == full.elements_generated


class TestCheckpointSerialization:
    def test_pack_unpack_round_trips_through_the_store(self, tmp_path):
        recorder = RecordingCheckpoint()
        CTane(fresh_relation(), 2, checkpoint=recorder).discover()
        state = recorder.saved[-1]
        packed = pack_ctane_checkpoint(state)
        assert packed is not None
        meta, arrays = packed
        store = CacheStore(tmp_path / "cache")
        store.put("fp", "ctane_checkpoint", {"s": 2}, meta=meta, arrays=arrays)
        entry = store.get("fp", "ctane_checkpoint", {"s": 2})
        restored = unpack_ctane_checkpoint(entry)
        assert restored["size"] == state["size"]
        assert restored["counters"] == state["counters"]
        assert cover(restored["results"]) == cover(state["results"])
        assert set(restored["level"]) == set(state["level"])
        assert restored["parent_cplus"] == state["parent_cplus"]

        baseline = cover(CTane(fresh_relation(), 2).discover())
        resumed = CTane(
            fresh_relation(), 2, checkpoint=RecordingCheckpoint(preload=restored)
        )
        assert cover(resumed.discover()) == baseline


def tax_relation() -> Relation:
    return generate_tax(200, arity=7, seed=11)


TAX_SUPPORT = 20


class TestColumnarCheckpoints:
    """Every level's snapshot of a 200-row Tax run, through a real store."""

    def test_every_level_round_trips_and_resumes_byte_identically(self, tmp_path):
        recorder = RecordingCheckpoint()
        expected = cover(
            CTane(tax_relation(), TAX_SUPPORT, checkpoint=recorder).discover()
        )
        assert len(recorder.saved) >= 4
        store = CacheStore(tmp_path / "cache")
        for index, state in enumerate(recorder.saved):
            meta, arrays = pack_ctane_checkpoint(state)
            params = {"level": index}
            store.put("fp", KIND_CTANE_CHECKPOINT, params, meta=meta, arrays=arrays)
            entry = store.get("fp", KIND_CTANE_CHECKPOINT, params)
            # The frontier and the rules emitted so far live in the arrays;
            # the JSON meta carries only the level and the counters.
            assert set(entry.meta) == {"size", "counters"}
            assert len(entry.array("rules", "int32")) == len(state["results"])
            assert entry.array("level", "int32").shape == (
                len(state["level"]),
                2,
                state["size"],
            )
            restored = unpack_ctane_checkpoint(entry)
            assert restored["size"] == state["size"]
            assert restored["counters"] == state["counters"]
            assert restored["level"] == state["level"]
            assert restored["items"] == state["items"]
            assert restored["results"] == state["results"]
            assert restored["parent_cplus"] == state["parent_cplus"]
            assert restored["parent_counts"] == state["parent_counts"]
            twins = restored["level_partitions"]
            assert twins.keys() == state["level_partitions"].keys()
            for element, partition in state["level_partitions"].items():
                twin = twins[element]
                assert (twin.covered_rows, twin.n_classes) == (
                    partition.covered_rows,
                    partition.n_classes,
                )
                assert twin.covered_index.tolist() == partition.covered_index.tolist()
                assert twin.covered_labels.tolist() == partition.covered_labels.tolist()

            resumed = CTane(
                tax_relation(),
                TAX_SUPPORT,
                checkpoint=RecordingCheckpoint(preload=restored),
            )
            assert cover(resumed.discover()) == expected
            assert resumed.resumed_level == state["size"]


def old_layout_entry(state):
    """``(meta, arrays)`` of ``state`` in the columnar layout the store wrote
    before the integer-coded one: separate attribute/code matrices,
    candidate sets as ``(attribute, code)`` pairs and the rules as JSON."""
    size = state["size"]
    parents = list(state["parent_cplus"])
    items = state["items"]

    def matrices(elements, width):
        attrs = np.array([e[0] for e in elements], dtype=np.int32)
        codes = np.array([e[1] for e in elements], dtype=np.int32)
        return attrs.reshape(-1, width), codes.reshape(-1, width)

    members = [
        [items[i] for i in range(len(items)) if bits >> i & 1]
        for bits in state["parent_cplus"].values()
    ]
    flat = [item for group in members for item in group]
    arrays = {}
    arrays["level_attrs"], arrays["level_codes"] = matrices(state["level"], size)
    arrays["parent_attrs"], arrays["parent_codes"] = matrices(parents, size - 1)
    arrays["parent_counts"] = np.array(
        [state["parent_counts"][p] for p in parents], dtype=np.int64
    ).reshape(-1, 2)
    arrays["cplus_attrs"] = np.array([a for a, _ in flat], dtype=np.int32)
    arrays["cplus_codes"] = np.array([c for _, c in flat], dtype=np.int32)
    arrays["cplus_offsets"] = np.cumsum(
        [0] + [len(group) for group in members], dtype=np.int64
    )
    bundle_meta, bundle_arrays = pack_partition_bundle(
        [(None, state["level_partitions"][e]) for e in state["level"]]
    )
    bundle_arrays["shapes"] = np.array(bundle_meta["shapes"], dtype=np.int64)
    bundle_arrays["rows"] = bundle_arrays["rows"].astype(np.int32)
    arrays.update((f"level_{name}", array) for name, array in bundle_arrays.items())
    meta = {
        "size": size,
        "incremental": True,
        "rules": [],
        "counters": dict(state["counters"]),
    }
    return meta, arrays


class TestCheckpointStoreLifecycle:
    REQUEST = DiscoveryRequest(min_support=TAX_SUPPORT, algorithm="ctane")
    PARAMS = {
        "min_support": TAX_SUPPORT,
        "max_lhs_size": None,
        "cplus_pruning": True,
        "verify_minimality": False,
    }

    def crash(self, store):
        plan = FaultPlan.from_specs(["engine.level:error:after=1,times=1"])
        victim = Profiler(tax_relation(), faults=plan)
        victim.attach_store(store)
        with pytest.raises(FaultInjected):
            victim.run(self.REQUEST)

    def rules(self, result):
        return json.dumps(result.to_json_dict()["rules"])

    def test_a_completed_run_leaves_no_checkpoint(self, tmp_path):
        store = CacheStore(tmp_path / "cache")
        profiler = Profiler(tax_relation())
        profiler.attach_store(store)
        profiler.run(self.REQUEST)
        assert store.writes >= 4  # one checkpoint per level ≥ 2 was written
        assert checkpoint_files(store, tax_relation()) == []

    def test_a_stopped_run_leaves_exactly_one(self, tmp_path):
        store = CacheStore(tmp_path / "cache")
        self.crash(store)
        assert store.writes == 2  # levels 2 and 3, overwriting one entry
        assert len(checkpoint_files(store, tax_relation())) == 1

    def test_an_old_layout_entry_makes_the_next_run_cold(self, tmp_path):
        expected = self.rules(Profiler(tax_relation()).run(self.REQUEST))
        store = CacheStore(tmp_path / "cache")
        self.crash(store)
        [written] = checkpoint_files(store, tax_relation())

        recorder = RecordingCheckpoint()
        CTane(tax_relation(), TAX_SUPPORT, checkpoint=recorder).discover()
        meta, arrays = old_layout_entry(recorder.saved[1])
        fingerprint = tax_relation().fingerprint()
        path = store.put(
            fingerprint, KIND_CTANE_CHECKPOINT, self.PARAMS, meta=meta, arrays=arrays
        )
        assert path == written  # it replaced the entry the engine would load
        entry = store.get(fingerprint, KIND_CTANE_CHECKPOINT, self.PARAMS)
        with pytest.raises(Exception):
            unpack_ctane_checkpoint(entry)

        survivor = Profiler(tax_relation())
        survivor.attach_store(store)
        result = survivor.run(self.REQUEST)
        assert self.rules(result) == expected
        assert result.stats.extras["resume_levels_skipped"] == 0
        assert "resumed_level" not in result.stats.extras
        assert checkpoint_files(store, tax_relation()) == []

    def test_warm_from_skips_the_checkpoint_which_stays_resumable(self, tmp_path):
        root = tmp_path / "cache"
        relation = tax_relation()
        self.crash(CacheStore(root))
        meta, arrays = pack_partition_bundle(
            [([0], Profiler(relation).attribute_partition((0,)))]
        )
        CacheStore(root).put(
            relation.fingerprint(), KIND_ATTRIBUTE_PARTITIONS, {},
            meta=meta, arrays=arrays,
        )

        store = CacheStore(root)
        assert Profiler(relation).warm_from(store) == 1
        assert store.loads == 1  # the checkpoint file was never read
        entry = store.get(relation.fingerprint(), KIND_CTANE_CHECKPOINT, self.PARAMS)
        assert unpack_ctane_checkpoint(entry)["size"] == 3

        survivor = Profiler(relation)
        survivor.attach_store(store)
        result = survivor.run(self.REQUEST)
        assert result.stats.extras["resumed_level"] == 3


class TestProfilerResume:
    REQUEST = DiscoveryRequest(min_support=2, algorithm="ctane")

    def expected_rules(self):
        return json.dumps(
            Profiler(fresh_relation()).run(self.REQUEST).to_json_dict()["rules"]
        )

    def test_crash_then_resume_through_the_shared_store(self, tmp_path):
        store = CacheStore(tmp_path / "shared")
        plan = FaultPlan.from_specs(["engine.level:error:after=1,times=1"])
        victim = Profiler(fresh_relation(), faults=plan)
        victim.attach_store(store)
        with pytest.raises(FaultInjected):
            victim.run(self.REQUEST)
        # The checkpoint was persisted before the crash point.
        assert len(checkpoint_files(store, fresh_relation())) == 1

        survivor = Profiler(fresh_relation())
        survivor.attach_store(store)
        result = survivor.run(self.REQUEST)
        assert json.dumps(result.to_json_dict()["rules"]) == self.expected_rules()
        extras = result.stats.extras
        assert extras["resume_levels_skipped"] >= 1
        assert extras["resumed_level"] >= 2
        # Completion cleared the persisted checkpoint.
        assert checkpoint_files(store, fresh_relation()) == []

    def test_in_memory_resume_without_a_store(self):
        plan = FaultPlan.from_specs(["engine.level:error:after=1,times=1"])
        profiler = Profiler(fresh_relation(), faults=plan)
        with pytest.raises(FaultInjected):
            profiler.run(self.REQUEST)
        assert profiler.checkpoint_info()["entries"] == 1
        result = profiler.run(self.REQUEST)
        assert json.dumps(result.to_json_dict()["rules"]) == self.expected_rules()
        assert result.stats.extras["resume_levels_skipped"] >= 1
        assert profiler.checkpoint_info()["entries"] == 0


class TestServiceResumeCounters:
    def test_failed_over_request_reports_the_resume(self, tmp_path):
        request = DiscoveryRequest(min_support=2, algorithm="ctane")
        store_dir = tmp_path / "shared"
        plan = FaultPlan.from_specs(["engine.level:error:after=1,times=1"])
        relation = fresh_relation()

        with DiscoveryService(
            pool=SessionPool(max_sessions=2, store=CacheStore(store_dir), faults=plan),
            max_workers=2,
            faults=plan,
        ) as victim:
            with pytest.raises(FaultInjected):
                victim.run(relation, request)
            assert victim.stats()["failed"] == 1
            assert victim.stats()["faults"]["injected"] == {"engine.level:error": 1}

        with DiscoveryService(
            pool=SessionPool(max_sessions=2, store=CacheStore(store_dir)),
            max_workers=2,
        ) as survivor:
            result = survivor.run(fresh_relation(), request)
            assert result.counts()["total"] > 0
            resumes = survivor.stats()["resumes"]
            assert resumes["runs"] == 1
            assert resumes["levels_skipped"] >= 1
