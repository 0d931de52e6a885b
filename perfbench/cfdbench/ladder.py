"""The layer ladder: one representative request priced at each layer.

Six rungs, each timed in-process through the layer's public entry point:

==================  ===========================================================
``core``            the bare engine class's ``discover()``
``api``             ``Profiler.run``
``serve.store``     ``Profiler.run`` after ``attach_store``
``serve.service``   ``DiscoveryService.run`` over a store-backed ``SessionPool``
``serve.http``      ``POST /v1/discover`` straight to a ``ServerThread`` worker
``serve.fleet``     the same request through a ``RouterThread`` in front of two
                    store-sharing workers
==================  ===========================================================

A rung's metric is its time minus the time of the rung below it.  For a
cold workload a rung's time is the median of three first requests, each on
fresh state; for a warm one it is the median of repeated requests after the
first, so the ``api`` rung goes negative by what the engine-result memo
saves.  The store rungs
write through :class:`TimedStore`, the benchmark's counting wrapper around
``CacheStore.put``/``get``.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import DiscoveryRequest, Profiler
from repro.core.ctane import CTane
from repro.core.dfd import DFD
from repro.itemsets.mining import mine_free_and_closed
from repro.serve import CacheStore, DiscoveryService, SessionPool
from repro.serve.fleet import RouterConfig, RouterThread
from repro.serve.http import ServerConfig, ServerThread

from cfdbench.checks import ENGINES, parse_csv
from cfdbench.load import SpanRecorder
from cfdbench.stats import median, ratio
from cfdbench.workloads import Representative

RUNGS = ("core", "api", "serve.store", "serve.service", "serve.http", "serve.fleet")

#: Repeated requests timed per warm rung.
WARM_REPEATS = 15

#: First requests on fresh state timed per cold rung.
COLD_REPEATS = 3

#: Extra (engine, k) requests a warm ``api`` session serves before the
#: repeats, so its hit ratios reflect a served grid with sweep steps.
WARM_REPLAY = (
    ("fastcfd", 20), ("cfdminer", 20), ("ctane", 30), ("fastcfd", 30),
    ("cfdminer", 30),
)

HIT_RATIO_CACHES = (
    "engine_results", "pattern_partitions", "free_closed", "closed_difference_sets",
)
BUILD_BUCKETS = (
    "free_closed", "closed_difference_sets", "attribute_partitions", "engine_results",
)

class TimedStore(CacheStore):
    """A ``CacheStore`` whose ``put``/``get`` calls are counted and timed."""

    def __init__(self, root: Path):
        super().__init__(root)
        self._stats_lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Zero the counters (a warm rung counts only its repeats)."""
        with self._stats_lock:
            self.puts = 0
            self.put_bytes = 0
            self.put_s = 0.0
            self.gets = 0
            self.get_hits = 0
            self.get_s = 0.0

    def put(self, *args, **kwargs):
        start = time.perf_counter()
        path = super().put(*args, **kwargs)
        elapsed = time.perf_counter() - start
        size = path.stat().st_size if path.exists() else 0
        with self._stats_lock:
            self.puts += 1
            self.put_bytes += size
            self.put_s += elapsed
        return path

    def get(self, *args, **kwargs):
        start = time.perf_counter()
        entry = super().get(*args, **kwargs)
        elapsed = time.perf_counter() - start
        with self._stats_lock:
            self.gets += 1
            self.get_hits += entry is not None
            self.get_s += elapsed
        return entry


def _timed(fn: Callable[[], object]) -> Tuple[float, object]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _post(connection: http.client.HTTPConnection, path: str, body: bytes,
          content_type: str) -> bytes:
    connection.request("POST", path, body=body, headers={"Content-Type": content_type})
    response = connection.getresponse()
    payload = response.read()
    if response.status not in (200, 201):
        raise RuntimeError(f"ladder {path} answered {response.status}: {payload[:200]!r}")
    return payload


#: A rung's set-up: builds fresh state (registering its cleanup on the
#: stack) and returns the request to time plus the store it writes through.
RungSetup = Callable[[ExitStack], Tuple[Callable[[], object], Optional[TimedStore]]]


class Ladder:
    """Prices one representative request at every rung."""

    def __init__(self, rep: Representative, work_dir: Path, spans: SpanRecorder):
        self.rep = rep
        self.work_dir = work_dir
        self.spans = spans
        self.request = DiscoveryRequest(min_support=rep.support, algorithm=rep.algorithm)
        self.metrics: Dict[str, float] = {}
        self.times: Dict[str, float] = {}
        self._stores: List[TimedStore] = []
        self._samples = COLD_REPEATS
        self._ladder_span = spans.reserve()
        self._dirs = 0

    def relation(self):
        """A fresh parse of the representative CSV (no cached encodings)."""
        return parse_csv(self.rep.csv)

    def _record(self, name: str, start: float, samples: List[float]) -> None:
        seconds = median(samples)
        self.spans.record(f"bench.ladder.{name}", start, time.perf_counter(),
                          parent=self._ladder_span, rung_seconds=seconds)
        self.times[name] = seconds

    def _rung(self, name: str, setup: RungSetup) -> None:
        """The median time of the rung's request.

        Cold: each sample is the first request on fresh state.  Warm: on one
        fresh state the first request is untimed and the repeats are timed
        (its store counts the repeats only).
        """
        start = time.perf_counter()
        samples = []
        if self.rep.warm:
            with ExitStack() as stack:
                request, store = setup(stack)
                request()
                if store is not None:
                    store.reset()
                samples = [_timed(request)[0] for _ in range(WARM_REPEATS)]
        else:
            for _ in range(COLD_REPEATS):
                with ExitStack() as stack:
                    request, _store = setup(stack)
                    samples.append(_timed(request)[0])
        self._record(name, start, samples)

    # ------------------------------------------------------------------ #
    def run(self) -> Dict[str, float]:
        start = time.perf_counter()
        if self.rep.warm:
            self._samples = WARM_REPEATS
        self._core()
        self._api()
        self._rung("serve.store", self._store)
        self._rung("serve.service", self._service)
        self._rung("serve.http", self._http)
        self._rung("serve.fleet", self._fleet)
        below = 0.0
        for name in RUNGS:
            self.metrics[f"{name}.rung_s"] = self.times[name] - below
            below = self.times[name]
        self._counters()
        self.spans.record("bench.ladder", start, time.perf_counter(),
                          span_id=self._ladder_span, warm=self.rep.warm)
        return self.metrics

    def _core(self) -> None:
        # The engine keeps no memo, so the core rung is always a first run.
        start = time.perf_counter()
        engine_cls = ENGINES[self.rep.algorithm]
        samples = []
        for _ in range(COLD_REPEATS):
            levels = []
            kwargs = {}
            if engine_cls is CTane:
                kwargs["progress"] = lambda stage, level, arity: levels.append(level)
            engine = engine_cls(self.relation(), self.rep.support, **kwargs)
            seconds, cover = _timed(engine.discover)
            samples.append(seconds)
        self._record("core", start, samples)
        self.metrics["core.rules"] = len(cover)
        self.metrics["core.ctane.levels"] = len(levels)
        # The walk counters come from a DFD run on the same request when the
        # representative engine is another one.
        if engine_cls is not DFD:
            engine = DFD(self.relation(), self.rep.support)
            engine.discover()
        self.metrics["core.dfd.partitions_computed"] = engine.partitions_computed
        self.metrics["core.dfd.restarts"] = engine.restarts

    def _api(self) -> None:
        profilers = []

        def setup(stack: ExitStack):
            profiler = Profiler(self.relation())
            profilers.append(profiler)
            if self.rep.warm:
                for algorithm, k in WARM_REPLAY:
                    profiler.run(DiscoveryRequest(min_support=k, algorithm=algorithm))
            return (lambda: profiler.run(self.request)), None

        self._rung("api", setup)
        profiler = profilers[-1]
        builds = profiler.build_seconds()
        for bucket in BUILD_BUCKETS:
            self.metrics[f"api.build_s.{bucket}"] = builds.get(bucket, 0.0)
        info = profiler.cache_info()
        for cache in HIT_RATIO_CACHES:
            counts = info.get(cache, {})
            hits = counts.get("hits", 0)
            self.metrics[f"api.hit_ratio.{cache}"] = ratio(hits, hits + counts.get("misses", 0))

    def _fresh_dir(self, rung: str) -> Path:
        self._dirs += 1
        return self.work_dir / f"{rung}-{self._dirs}"

    def _timed_store(self, rung: str) -> TimedStore:
        store = TimedStore(self._fresh_dir(rung))
        self._stores.append(store)
        return store

    def _store(self, stack: ExitStack):
        profiler = Profiler(self.relation())
        store = self._timed_store("store-rung")
        profiler.attach_store(store)
        return (lambda: profiler.run(self.request)), store

    def _service(self, stack: ExitStack):
        relation = self.relation()
        store = self._timed_store("service-rung")
        service = DiscoveryService(pool=SessionPool(store=store))
        stack.callback(service.shutdown)
        return (lambda: service.run(relation, self.request)), store

    def _discover_over_http(self, stack: ExitStack, host: str, port: int):
        connection = http.client.HTTPConnection(host, port, timeout=300)
        stack.callback(connection.close)
        upload = json.loads(_post(connection, "/v1/relations", self.rep.csv, "text/csv"))
        body = json.dumps({"relation": upload["fingerprint"], "algorithm": self.rep.algorithm,
                           "support": self.rep.support}).encode()
        return (lambda: _post(connection, "/v1/discover", body, "application/json")), None

    def _worker(self, stack: ExitStack, store_dir: Path) -> ServerThread:
        service = DiscoveryService(pool=SessionPool(store=CacheStore(store_dir)))
        worker = ServerThread(service, ServerConfig(port=0, request_timeout=300)).start()
        stack.callback(worker.stop)
        return worker

    def _http(self, stack: ExitStack):
        worker = self._worker(stack, self._fresh_dir("http-rung"))
        return self._discover_over_http(stack, worker.host, worker.port)

    def _fleet(self, stack: ExitStack):
        store_dir = self._fresh_dir("fleet-rung")
        workers = [self._worker(stack, store_dir) for _ in range(2)]
        router = RouterThread(RouterConfig(
            port=0, workers=[w.address for w in workers], request_timeout=300.0,
        )).start()
        stack.callback(router.stop)
        return self._discover_over_http(stack, router.host, router.port)

    # ------------------------------------------------------------------ #
    def _counters(self) -> None:
        encode = []
        for _ in range(5):
            start = time.perf_counter()
            relation = parse_csv(self.rep.csv)
            relation.encoded_matrix()
            relation.fingerprint()
            encode.append(time.perf_counter() - start)
        self.metrics["relational.encode_s"] = median(encode)
        mine = []
        for _ in range(3):
            relation = self.relation()
            relation.encoded_matrix()
            mine.append(_timed(lambda: mine_free_and_closed(
                relation, min_support=self.rep.support))[0])
        self.metrics["itemsets.mine_s"] = median(mine)
        # Store counters per timed request of the store and service rungs.
        per = self._samples
        gets = sum(s.gets for s in self._stores)
        self.metrics.update({
            "serve.store.puts": sum(s.puts for s in self._stores) / per,
            "serve.store.put_mb": sum(s.put_bytes for s in self._stores) / 2 ** 20 / per,
            "serve.store.put_s": sum(s.put_s for s in self._stores) / per,
            "serve.store.gets": gets / per,
            "serve.store.get_s": sum(s.get_s for s in self._stores) / per,
            "serve.store.get_hit_ratio": ratio(sum(s.get_hits for s in self._stores), gets),
        })
