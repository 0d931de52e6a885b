"""The workloads and the inputs they generate from ``--seed``.

The seed drives every generated relation and every random draw; the shape
of each workload (the engine/support/size mix, the popularity order of the
warm grid) is fixed, so runs on different seeds load the same layers
equally and their medians stay comparable.  The program under
test sees only the generated CSV and JSON bodies.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from cfdbench.load import Client, Operation, fan_out


def derive_seed(seed: int, *parts: object) -> int:
    """A 31-bit seed for one generated input, stable across processes."""
    text = ":".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def relation_csv(relation) -> bytes:
    """A relation as an uploadable CSV body (header row first)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(relation.attributes)
    for row in relation.rows():
        writer.writerow(list(row))
    return buffer.getvalue().encode()


def tax_csv(rows: int, seed: int) -> bytes:
    """A seeded Tax relation (the paper's generator: arity 7, cf 0.7)."""
    from repro.datagen import generate_tax

    return relation_csv(generate_tax(rows, arity=7, cf=0.7, seed=seed))


@dataclass
class Representative:
    """The request the layer ladder prices for a workload."""

    csv: bytes
    algorithm: str
    support: int
    #: ``True`` prices repeated (memo-hit) requests, ``False`` first runs.
    warm: bool


class Placement:
    """The worker the router assigns each relation to, read from the router.

    The ring's members and virtual nodes come from the router's own
    ``/healthz`` document, the ring is the program's public ``HashRing`` and
    the key is the fingerprint of the body parsed by the router's own upload
    parser.  :meth:`verify` checks the result against the relations each
    worker reports holding, so a change of routing policy fails the run
    instead of silently changing the workload.
    """

    def __init__(self, workers: List[str], vnodes: int):
        from repro.serve.fleet import HashRing

        self.workers = list(workers)
        self._ring = HashRing(vnodes=vnodes)
        for worker in self.workers:
            self._ring.add(worker)
        self._owners: Dict[str, str] = {}

    @classmethod
    def from_router(cls, fleet) -> "Placement":
        ring = fleet.healthz()["ring"]
        # Client ``c`` is paired with the ``c``-th worker of the fleet.
        workers = [w for w in fleet.worker_addresses if w in ring["workers"]]
        if sorted(workers) != sorted(ring["workers"]):
            raise RuntimeError(f"the router's ring {ring['workers']} is not the fleet's "
                               f"workers {fleet.worker_addresses}")
        return cls(workers, int(ring["vnodes_per_worker"]))

    def owner(self, body: bytes) -> str:
        """The worker that serves the relation of a CSV body."""
        from repro.serve.http.app import relation_from_csv_text

        fingerprint = relation_from_csv_text(body.decode()).fingerprint()
        owner = self._ring.assign(fingerprint)
        self._owners[fingerprint] = owner
        return owner

    def verify(self, fleet) -> None:
        """Raise unless every relation a worker holds was placed on it."""
        for worker, fingerprints in fleet.held_relations().items():
            strays = [f for f in fingerprints
                      if self._owners.get(f, worker) != worker]
            if strays:
                raise RuntimeError(
                    f"{len(strays)} relation(s) placed on {worker} were expected "
                    "elsewhere: the router's placement no longer matches its ring"
                )


class Workload:
    """Base class: a seeded operation stream plus its set-up."""

    name = ""
    #: Served covers re-derived by the bare engine after the window.
    checked_ops = 2
    #: Relations in the oracle corpus sent after the window.
    corpus_size = 160

    def __init__(self, seed: int, clients: int):
        self.seed = seed
        self.clients = clients
        self.placement: Optional[Placement] = None

    def setup(self, fleet) -> float:
        """Prepare the fleet for the window; returns the seconds it took."""
        self.placement = Placement.from_router(fleet)
        return 0.0

    def next_op(self, client: int, index: int) -> Operation:
        raise NotImplementedError

    def relation_csv_of(self, op: Operation) -> bytes:
        """The CSV body of the relation an operation ran on."""
        return op.upload_csv

    def representative(self) -> Representative:
        raise NotImplementedError


class ColdTax(Workload):
    """Every operation uploads a fresh Tax relation and runs one CTANE discover.

    Each client's relations are drawn from the seeds the ring places on one
    worker, client ``c`` on worker ``c``: two clients whose CPU-bound
    requests landed on the same worker by a coin flip would each run at half
    speed, and that flip, not the code, would set the window's median.
    Contention between the clients on one worker is therefore deliberately
    not measured here; ``warm-repeat`` leaves it to chance.
    """

    name = "cold-tax"
    checked_ops = 3
    ENGINE = "ctane"
    SUPPORT = 20
    ROWS = 200

    def next_op(self, client: int, index: int) -> Operation:
        home = self.placement.workers[client % len(self.placement.workers)]
        attempt = 0
        while True:
            body = tax_csv(self.ROWS, derive_seed(self.seed, "cold", client, index, attempt))
            if self.placement.owner(body) == home:
                break
            attempt += 1
        return Operation(
            kind="upload+discover",
            discover={"support": self.SUPPORT, "algorithm": self.ENGINE},
            upload_csv=body,
            meta={"engine": self.ENGINE, "k": self.SUPPORT},
        )

    def representative(self) -> Representative:
        return Representative(
            tax_csv(2000, derive_seed(self.seed, "ladder")), "ctane", 20, warm=False
        )


class WarmRepeat(Workload):
    """Repeated requests over warm relations, with occasional sweep steps."""

    name = "warm-repeat"
    checked_ops = 3
    RELATIONS = 8
    ROWS = 1000
    GRID = (
        ("ctane", 20),
        ("fastcfd", 20),
        ("cfdminer", 20),
        ("ctane", 50),
        ("fastcfd", 50),
        ("cfdminer", 50),
    )
    #: Zipf exponent over the grid configurations, in ``GRID`` order; the
    #: relation of a request is drawn uniformly, so the hot configurations'
    #: cost averages over every relation's content.
    ZIPF_S = 1.1
    #: Every fifth request of a client asks for a support not yet served.
    SWEEP_EVERY = 5
    #: Sweep engines: the ones whose new-support runs reuse the session's
    #: free/closed sets and difference sets.
    SWEEP_ENGINES = ("fastcfd", "cfdminer")
    #: Supports a sweep step may ask for; each (relation, engine) pair walks
    #: its own seeded shuffle of them, so no support is asked for twice.
    #: (50 is served by the grid.)
    SWEEP_SUPPORTS = tuple(k for k in range(25, 201) if k != 50)
    #: Every fifth request of a client sends its relation again first, as a
    #: pipeline that keeps no fingerprint would (the upload latency sample).
    UPLOAD_EVERY = 5

    def __init__(self, seed: int, clients: int):
        super().__init__(seed, clients)
        self.csvs: List[bytes] = []
        self.fingerprints: List[str] = []
        self._weights = [1.0 / (rank + 1) ** self.ZIPF_S for rank in range(len(self.GRID))]
        self._rngs = [
            random.Random(derive_seed(seed, "warm-seq", c)) for c in range(clients)
        ]
        self._sweep_lock = threading.Lock()
        self._sweep_orders: Dict[Tuple[int, str], List[int]] = {}
        self._sweeps = 0

    def balanced_relations(self) -> List[bytes]:
        """Seeded relations, the same number placed on each worker.

        A working set of a few relations is not left to a lopsided split.
        """
        quota = self.RELATIONS // len(self.placement.workers)
        owned: Dict[str, List[bytes]] = {w: [] for w in self.placement.workers}
        candidate = 0
        while any(len(bodies) < quota for bodies in owned.values()):
            body = tax_csv(self.ROWS, derive_seed(self.seed, "warm", candidate))
            bodies = owned[self.placement.owner(body)]
            if len(bodies) < quota:
                bodies.append(body)
            candidate += 1
        return [body for bodies in zip(*owned.values()) for body in bodies]

    def setup(self, fleet) -> float:
        started = time.perf_counter()
        super().setup(fleet)
        address = fleet.router_address
        self.csvs = self.balanced_relations()

        def upload(r: int):
            def job(client: Client) -> str:
                exchange = client.post("/v1/relations", self.csvs[r], "text/csv")
                if not exchange.ok:
                    raise RuntimeError(f"set-up upload failed: {exchange.status}")
                return exchange.json()["fingerprint"]
            return job

        self.fingerprints = fan_out(address, [upload(r) for r in range(self.RELATIONS)],
                                    clients=self.clients)

        def serve(r: int, engine: str, k: int):
            def job(client: Client):
                body = {"relation": self.fingerprints[r], "support": k,
                        "algorithm": engine}
                exchange = client.post("/v1/discover", json.dumps(body).encode(),
                                       "application/json")
                if not exchange.ok:
                    raise RuntimeError(f"set-up discover failed: {exchange.status}")
            return job

        fan_out(address, [serve(r, engine, k) for engine, k in self.GRID
                          for r in range(self.RELATIONS)], clients=self.clients)
        return time.perf_counter() - started

    def next_op(self, client: int, index: int) -> Operation:
        rng = self._rngs[client]
        r = rng.randrange(self.RELATIONS)
        if index % self.SWEEP_EVERY == self.SWEEP_EVERY - 1:
            with self._sweep_lock:
                engine = self.SWEEP_ENGINES[self._sweeps % len(self.SWEEP_ENGINES)]
                self._sweeps += 1
                k = self._next_sweep_support(r, engine)
            kind = "sweep"
        else:
            engine, k = rng.choices(self.GRID, weights=self._weights)[0]
            kind = "repeat"
        discover = {"support": k, "algorithm": engine}
        upload = None
        if index % self.UPLOAD_EVERY == 2:
            upload = self.csvs[r]
            kind = "upload+repeat"
        else:
            discover["relation"] = self.fingerprints[r]
        return Operation(kind=kind, discover=discover, upload_csv=upload,
                         meta={"engine": engine, "k": k, "relation": r})

    def _next_sweep_support(self, r: int, engine: str) -> int:
        """The next unserved support of a pair; a sweep never wraps around,
        so every sweep step of a window is a real new-support run."""
        order = self._sweep_orders.get((r, engine))
        if order is None:
            order = list(self.SWEEP_SUPPORTS)
            random.Random(derive_seed(self.seed, "sweep", r, engine)).shuffle(order)
            self._sweep_orders[(r, engine)] = order
        if not order:
            raise RuntimeError(f"relation {r} ran out of unserved {engine} supports")
        return order.pop()

    def relation_csv_of(self, op: Operation) -> bytes:
        return self.csvs[int(op.meta["relation"])]

    def representative(self) -> Representative:
        return Representative(
            tax_csv(2000, derive_seed(self.seed, "ladder")), "ctane", 20, warm=True
        )


WORKLOADS = {cls.name: cls for cls in (ColdTax, WarmRepeat)}
