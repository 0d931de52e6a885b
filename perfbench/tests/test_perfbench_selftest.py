"""Self-tests of the repository benchmark, at toy sizes.

* a toy run of each workload shape prints every named metric with its unit,
  and the names and units agree with ``BENCHMARK.json``;
* the served-cover check trips on a deliberately altered cover, and an
  oracle gap of an exact engine fails the run;
* sweep steps never ask for a support twice;
* the load generator never holds more connections open than ``nproc``;
* the host-speed probe samples, stops, and scales by its own median.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

from cfdbench import checks, load, main, probe, spec  # noqa: E402
from cfdbench.workloads import (  # noqa: E402
    WORKLOADS,
    ColdTax,
    Representative,
    Placement,
    WarmRepeat,
    derive_seed,
    tax_csv,
)


class ToyCold(ColdTax):
    ROWS = 40
    SUPPORT = 8
    corpus_size = 8

    def representative(self):
        return Representative(tax_csv(60, derive_seed(self.seed, "ladder")),
                              "ctane", 10, warm=False)


class ToyWarm(WarmRepeat):
    RELATIONS = 2
    ROWS = 40
    GRID = (("ctane", 8), ("cfdminer", 8))
    SWEEP_SUPPORTS = tuple(range(9, 41))
    corpus_size = 8

    def representative(self):
        return Representative(self.csvs[0], "ctane", 10, warm=True)


def toy_run(workload_cls, trace: int, tmp_path: Path, monkeypatch) -> dict:
    # Only the measured fleet and the oracle's keeps the toy runs short.
    monkeypatch.setattr(main, "SETUP_LAUNCHES", 2)
    args = argparse.Namespace(workload=workload_cls.name, seed=5, seconds=0.5,
                              trace=trace)
    workload = workload_cls(args.seed, load.client_count())
    with main.Watchdog(main.RUN_LIMIT_S) as watchdog:
        result, _spans = main.run(args, workload, tmp_path / "work", watchdog)
    return result


@pytest.mark.parametrize(
    "workload_cls, trace",
    [(ToyCold, 0), (ToyCold, 1), (ToyWarm, 0), (ToyWarm, 1)],
)
def test_toy_run_prints_every_metric_with_its_unit(workload_cls, trace, tmp_path,
                                                   monkeypatch):
    result = toy_run(workload_cls, trace, tmp_path, monkeypatch)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = spec.PER_LAYER if trace else spec.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if trace:
        assert result["metrics"]["bench.peak_connections"]["value"] <= load.nproc()
        assert result["metrics"]["oracle.gap_rules.ctane"]["value"] == 0
    json.dumps(result, allow_nan=False)


def test_metric_tables_match_benchmark_json():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in document["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in document["per_layer"]} == spec.PER_LAYER
    listed = [w["name"] for w in document["workloads"]]
    assert listed == ["cold-tax", "warm-repeat"]
    assert set(listed) <= set(WORKLOADS)


@pytest.mark.parametrize("algorithm", ["ctane", "fastcfd", "cfdminer", "dfd"])
def test_cover_check_trips_on_an_altered_cover(algorithm):
    csv_body, support = tax_csv(80, 11), 10
    rules = checks.engine_rules(checks.parse_csv(csv_body), algorithm, support)
    assert rules
    served = {"algorithm": algorithm, "rules": rules}
    assert checks.served_matches_engine(json.dumps(served).encode(), csv_body,
                                        algorithm, support)
    dropped = dict(served, rules=rules[1:])
    assert not checks.served_matches_engine(json.dumps(dropped).encode(), csv_body,
                                            algorithm, support)
    altered_rule = dict(rules[0], rhs_pattern="no-such-value", constant=True)
    altered = dict(served, rules=[altered_rule] + rules[1:])
    assert not checks.served_matches_engine(json.dumps(altered).encode(), csv_body,
                                            algorithm, support)
    reordered = dict(served, rules=rules[::-1])
    if len(rules) > 1 and rules != rules[::-1]:
        assert not checks.served_matches_engine(json.dumps(reordered).encode(),
                                                csv_body, algorithm, support)


def test_oracle_gap_counts_the_known_single_pattern_miss():
    # Five identical rows (x, y): the oracle and CTANE give (∅→A,(_)) and
    # (∅→A,(x)); FastCFD gives only the constant rule.
    oracle = checks.oracle_rules(["A", "B"], [["x", "y"]] * 5, 1)
    relation = checks.parse_csv(b"A,B\n" + b"x,y\n" * 5)
    ctane = set(checks.rule_lines(checks.engine_rules(relation, "ctane", 1)))
    fastcfd = set(checks.rule_lines(checks.engine_rules(relation, "fastcfd", 1)))
    assert ctane == oracle
    assert len(oracle ^ fastcfd) > 0


def test_an_exact_engine_gap_is_a_failure():
    gaps = {engine: {"gap_rules": 0, "relations": 4, "failed": 0, "gapped": 0}
            for engine in spec.ORACLE_ENGINES}
    gaps["fastcfd"].update(gap_rules=7, gapped=3)
    assert checks.exact_engine_failures(gaps) == 0
    gaps["ctane"].update(gap_rules=2, gapped=1)
    assert checks.exact_engine_failures(gaps) == 1


def test_sweep_steps_never_repeat_a_support():
    workload = WarmRepeat(3, 2)
    workload.csvs = [b""] * workload.RELATIONS
    workload.fingerprints = [f"f{r}" for r in range(workload.RELATIONS)]
    grid = {(engine, k) for engine, k in workload.GRID}
    seen = set()
    for index in range(4000):
        op = workload.next_op(index % 2, index // 2)
        if op.kind == "sweep":
            key = (op.meta["relation"], op.meta["engine"], op.meta["k"])
            assert key not in seen
            assert (op.meta["engine"], op.meta["k"]) not in grid
            seen.add(key)
    assert len(seen) == 800
    workload._sweep_orders = {key: [] for key in workload._sweep_orders}
    with pytest.raises(RuntimeError, match="ran out"):
        for index in range(10):
            workload.next_op(0, index)


class _FakeFleet:
    def __init__(self, held):
        self.worker_addresses = sorted(held)
        self._held = held

    def held_relations(self):
        return self._held


def test_placement_verify_trips_when_the_router_places_elsewhere():
    from repro.serve.http.app import relation_from_csv_text

    workers = ["http://127.0.0.1:1", "http://127.0.0.1:2"]
    placement = Placement(workers, vnodes=64)
    body = tax_csv(30, 1)
    owner = placement.owner(body)
    other = next(w for w in workers if w != owner)
    fingerprint = relation_from_csv_text(body.decode()).fingerprint()
    placement.verify(_FakeFleet({owner: [fingerprint], other: []}))
    with pytest.raises(RuntimeError, match="no longer matches"):
        placement.verify(_FakeFleet({owner: [], other: [fingerprint]}))


class _CountingHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_state = None

    def setup(self):
        super().setup()
        with self.server_state["lock"]:
            self.server_state["accepted"] += 1

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/v1/relations":
            body = {"fingerprint": "f"}
        else:
            body = {"algorithm": "ctane", "rules": []}
        payload = json.dumps(body).encode()
        self.send_response(201 if self.path == "/v1/relations" else 200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if self.server_state["close"]:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("close_each", [False, True])
def test_load_generator_never_exceeds_nproc_connections(close_each):
    state = {"lock": threading.Lock(), "accepted": 0, "close": close_each}
    handler = type("Handler", (_CountingHandler,), {"server_state": state})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        address = f"http://127.0.0.1:{server.server_address[1]}"
        op = load.Operation("upload+discover", {"support": 1}, upload_csv=b"A\nx\n",
                            meta={"engine": "ctane", "k": 1})
        loop_gauge = load.ConnectionGauge()
        window = load.closed_loop(address, 0.3, lambda c, i: op,
                                  lambda c, i: load.SpanRecorder(False), gauge=loop_gauge)
        accepted_by_loop = state["accepted"]
        fan_gauge = load.ConnectionGauge()
        load.fan_out(address, [lambda client: client.post("/v1/discover", b"{}",
                                                          "application/json")] * 20,
                     gauge=fan_gauge)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(window.outcomes) > 0
    assert all(not o.failed for o in window.outcomes)
    assert load.client_count() <= load.nproc()
    assert loop_gauge.peak <= load.nproc()
    assert fan_gauge.peak <= load.nproc()
    if not close_each:
        # Keep-alive: each client holds exactly one connection for the window.
        assert accepted_by_loop == load.client_count()


def test_probe_samples_the_window_and_stops():
    host = probe.Probe()
    host.start()
    try:
        host.mark()
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            sum(range(10000))
        host.mark()
        proc = host._proc
    finally:
        host.stop()
    assert proc.poll() is not None
    speed = host.speed(window=True)
    assert speed.cpu > 0 and 0 < speed.wall <= speed.cpu
    assert len(host.samples) >= 3


def test_probe_speed_is_the_reference_over_the_median():
    host = probe.Probe()
    host.samples = [(1.0, probe.REFERENCE_S), (2.0, 2 * probe.REFERENCE_S),
                    (3.0, 2 * probe.REFERENCE_S), (9.0, probe.REFERENCE_S / 4)]
    # (stamp, (steal ticks, wanted ticks)): start, window start, window end, stop.
    host._marks = [(0.0, (0, 0)), (1.5, (10, 100)), (3.5, (30, 300)), (10.0, (30, 400))]
    window = host.speed(window=True)
    assert window.cpu == pytest.approx(0.5)
    assert window.wall == pytest.approx(0.5 * 0.9)
    rest = host.speed(window=False)
    assert rest.cpu == pytest.approx(1 / ((1 + 0.25) / 2))
    assert rest.wall == pytest.approx(rest.cpu * (1 - 10 / 200))
