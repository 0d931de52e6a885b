"""The load generator: a closed loop over a fixed number of client connections.

Each client owns one keep-alive HTTP connection and sends its next operation
only when the previous one has completed, like a profiling job or cleaning
pipeline that waits for its cover.  The number of clients is capped at the
machine's processor count.  Spans are the benchmark's own: one per client
operation and one per HTTP exchange, kept in memory and written as JSONL
when the run ends.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from cfdbench.fleet import split_address

#: Client connections of the closed loop (never more than ``nproc``).
CLIENTS = 2

#: Seconds one HTTP exchange may take before the client gives up on it.
REQUEST_TIMEOUT_S = 120.0

#: Statuses that mean the system refused the work (overload or deadline).
REFUSED_STATUSES = (429, 503, 504)


def nproc() -> int:
    """Processors this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def client_count() -> int:
    return max(1, min(CLIENTS, nproc()))


class SpanRecorder:
    """Benchmark-owned spans: name, start, end, parent and operation id.

    Disabled recorders hand out no ids and keep nothing, so an untraced run
    pays one attribute check per would-be span.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._next_id = 0
        self.spans: List[Dict[str, object]] = []
        self._origin = time.perf_counter()

    def reserve(self) -> Optional[int]:
        """An id for a span that will be recorded once it ends (a parent)."""
        if not self.enabled:
            return None
        with self._lock:
            self._next_id += 1
            return self._next_id

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        span_id: Optional[int] = None,
        op: Optional[str] = None,
        parent: Optional[int] = None,
        **attrs: object,
    ) -> None:
        """Keep one finished span (``perf_counter`` stamps)."""
        if not self.enabled:
            return
        if span_id is None:
            span_id = self.reserve()
        with self._lock:
            self.spans.append(
                {
                    "id": span_id,
                    "parent": parent,
                    "op": op,
                    "name": name,
                    "start": start - self._origin,
                    "end": end - self._origin,
                    **attrs,
                }
            )

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(span, sort_keys=True) + "\n")


class ConnectionGauge:
    """Counts client connections open at once (and the most ever open)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.open = 0
        self.peak = 0

    def acquire(self) -> None:
        with self._lock:
            self.open += 1
            self.peak = max(self.peak, self.open)

    def release(self) -> None:
        with self._lock:
            self.open -= 1


@dataclass
class Exchange:
    """One HTTP request/response as the client saw it."""

    status: int
    body: bytes
    seconds: float
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and 200 <= self.status < 300

    @property
    def refused(self) -> bool:
        return self.status in REFUSED_STATUSES

    def json(self) -> Dict:
        return json.loads(self.body)


class Client:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, address: str, gauge: ConnectionGauge):
        self.host, self.port = split_address(address)
        self._gauge = gauge
        self._connection: Optional[http.client.HTTPConnection] = None

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._gauge.acquire()
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=REQUEST_TIMEOUT_S
            )
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None
            self._gauge.release()

    def post(self, path: str, body: bytes, content_type: str) -> Exchange:
        """POST and read the whole response; the time covers both."""
        connection = self._connect()
        start = time.perf_counter()
        try:
            connection.request(
                "POST", path, body=body, headers={"Content-Type": content_type}
            )
            response = connection.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return Exchange(0, b"", time.perf_counter() - start, error=repr(exc))
        seconds = time.perf_counter() - start
        if response.will_close:
            self.close()
        return Exchange(response.status, payload, seconds)


@dataclass
class Operation:
    """One client operation: an optional upload, then one discover.

    ``discover`` is the discover body without its ``relation`` field when
    the operation uploads first (the upload's fingerprint fills it in).
    """

    kind: str
    discover: Dict[str, object]
    upload_csv: Optional[bytes] = None
    meta: Dict[str, object] = field(default_factory=dict)


@dataclass
class Outcome:
    """What one operation produced."""

    client: int
    index: int
    op: Operation
    upload_s: Optional[float] = None
    discover_s: Optional[float] = None
    discover_body: Optional[bytes] = None
    fingerprint: Optional[str] = None
    failed: bool = False
    reason: str = ""
    traced: bool = False


def run_operation(
    client: Client,
    op: Operation,
    client_index: int,
    index: int,
    spans: SpanRecorder,
) -> Outcome:
    """Execute one operation through ``client`` and time each exchange."""
    outcome = Outcome(client_index, index, op, traced=spans.enabled)
    op_id = f"{client_index}.{index}"
    parent = spans.reserve()
    op_start = time.perf_counter()
    document = dict(op.discover)
    if op.upload_csv is not None:
        upload_start = time.perf_counter()
        exchange = client.post("/v1/relations", op.upload_csv, "text/csv")
        outcome.upload_s = exchange.seconds
        if not exchange.ok:
            return _failed(outcome, exchange, "upload", spans, op_id, op_start, parent)
        outcome.fingerprint = exchange.json()["fingerprint"]
        document["relation"] = outcome.fingerprint
        spans.record("bench.upload", upload_start, upload_start + exchange.seconds,
                     op=op_id, parent=parent, status=exchange.status,
                     bytes=len(op.upload_csv))
    discover_start = time.perf_counter()
    exchange = client.post(
        "/v1/discover", json.dumps(document).encode(), "application/json"
    )
    outcome.discover_s = exchange.seconds
    if not exchange.ok:
        return _failed(outcome, exchange, "discover", spans, op_id, op_start, parent)
    outcome.discover_body = exchange.body
    spans.record("bench.discover", discover_start, discover_start + exchange.seconds,
                 op=op_id, parent=parent, status=exchange.status,
                 response_bytes=len(exchange.body))
    spans.record("bench.op", op_start, time.perf_counter(), span_id=parent,
                 op=op_id, kind=op.kind)
    return outcome


def _failed(outcome, exchange, step, spans, op_id, op_start, span_id) -> Outcome:
    outcome.failed = True
    outcome.reason = f"{step}: {exchange.status} {exchange.error or exchange.body[:200]!r}"
    spans.record("bench.op", op_start, time.perf_counter(), span_id=span_id,
                 op=op_id, kind=outcome.op.kind, failed=step)
    return outcome


@dataclass
class Window:
    """The outcomes of one timed window."""

    outcomes: List[Outcome]
    started: float
    #: perf_counter stamp at which each client's last operation completed.
    client_ends: List[float]
    peak_connections: int

    def throughput(self) -> float:
        """Successful operations per second, summed over clients.

        Each client's rate is its successful operations over the time to its
        last completion, so an operation straddling the deadline counts whole
        and the rate carries no quantisation from the window edge.
        """
        done = [0] * len(self.client_ends)
        for outcome in self.outcomes:
            done[outcome.client] += not outcome.failed
        return sum(
            count / (end - self.started)
            for count, end in zip(done, self.client_ends)
            if end > self.started
        )


def closed_loop(
    address: str,
    seconds: float,
    next_op: Callable[[int, int], Operation],
    spans_for: Callable[[int, int], SpanRecorder],
    *,
    clients: Optional[int] = None,
    gauge: Optional[ConnectionGauge] = None,
) -> Window:
    """Run ``clients`` closed-loop clients until ``seconds`` have passed.

    Operations started before the deadline run to completion.  ``next_op``
    maps ``(client, index)`` to the operation; ``spans_for`` picks the span
    recorder of that operation (a disabled one leaves it untraced).
    """
    n_clients = clients if clients is not None else client_count()
    gauge = gauge or ConnectionGauge()
    outcomes: List[List[Outcome]] = [[] for _ in range(n_clients)]
    ends = [0.0] * n_clients
    errors: List[BaseException] = []
    started = time.perf_counter()
    deadline = started + seconds

    def drive(c: int) -> None:
        client = Client(address, gauge)
        try:
            index = 0
            while time.perf_counter() < deadline:
                op = next_op(c, index)
                outcomes[c].append(
                    run_operation(client, op, c, index, spans_for(c, index))
                )
                ends[c] = time.perf_counter()
                index += 1
        except BaseException as exc:  # noqa: BLE001 - re-raised after join
            errors.append(exc)
        finally:
            client.close()

    threads = [
        threading.Thread(target=drive, args=(c,), name=f"bench-client-{c}")
        for c in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return Window(
        outcomes=[o for per_client in outcomes for o in per_client],
        started=started,
        client_ends=ends,
        peak_connections=gauge.peak,
    )


def fan_out(
    address: str,
    jobs: List[Callable[[Client], object]],
    *,
    clients: Optional[int] = None,
    gauge: Optional[ConnectionGauge] = None,
) -> List[object]:
    """Run ``jobs`` over the client connections; results keep job order."""
    n_clients = clients if clients is not None else client_count()
    gauge = gauge or ConnectionGauge()
    results: List[object] = [None] * len(jobs)
    errors: List[BaseException] = []
    cursor = iter(range(len(jobs)))
    lock = threading.Lock()

    def drive() -> None:
        client = Client(address, gauge)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                results[index] = jobs[index](client)
        except BaseException as exc:  # noqa: BLE001 - re-raised after join
            errors.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=drive) for _ in range(n_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results
