"""The system under test: one ``repro-fleet`` router in front of two
``repro-serve`` workers, launched as real processes.

Every CLI default is kept except ports (``--port 0``; the bound address is
read back from the process's event log), the worker URLs and the shared
``--cache-dir``.  Processes are measured only from outside: CPU seconds and
peak RSS from ``/proc/<pid>``, the cache directory's bytes on disk, and the
Prometheus text each process serves at ``/metrics``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

#: Ports of the two workers behind the router.  The router's hash ring
#: places keys by worker URL, so fixed URLs give every run the same ring
#: (for these two, an even 49/51 split of the key space); a port that is
#: already taken falls back to an ephemeral one.
WORKER_PORTS = (18321, 18322)

#: Seconds a process may take to bind its socket, and the fleet to report
#: every worker healthy, before the launch counts as failed.
READY_TIMEOUT_S = 60.0

#: Seconds a stopping process may take to drain before it is killed.
STOP_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"\.listening address=(http://\S+)")

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class FleetError(RuntimeError):
    """The fleet could not be launched or did not become ready."""


def split_address(address: str) -> Tuple[str, int]:
    """``http://host:port`` → ``(host, port)``."""
    host, port = address[len("http://"):].rsplit(":", 1)
    return host, int(port)


def http_get(address: str, path: str, timeout: float = 10.0) -> Tuple[int, bytes]:
    """One GET on a fresh connection; returns ``(status, body)``."""
    host, port = split_address(address)
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of ``pid`` (all its threads)."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        stat = handle.read().decode()
    # Fields after the parenthesised command name; utime/stime are 14/15.
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MiB (0 when the kernel does not report it)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def dir_bytes(path: Path) -> int:
    """Apparent bytes of every file and directory under ``path`` (``du -sb``)."""
    if not path.exists():
        return 0
    total = path.stat().st_size
    for root, dirs, files in os.walk(path):
        for name in dirs + files:
            try:
                total += os.lstat(os.path.join(root, name)).st_size
            except FileNotFoundError:
                pass  # a temp file renamed or deleted while walking
    return total


def parse_prometheus(text: str) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Prometheus text → ``{sample name: [(labels, value), ...]}``."""
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, label_text = head.partition("{")
        labels = dict(re.findall(r'(\w+)="([^"]*)"', label_text))
        samples.setdefault(name, []).append((labels, float(value)))
    return samples


def metric_sum(
    samples: Dict[str, List[Tuple[Dict[str, str], float]]],
    name: str,
    **match: str,
) -> float:
    """Sum of every sample of ``name`` whose labels include ``match``."""
    return sum(
        value
        for labels, value in samples.get(name, [])
        if all(labels.get(key) == want for key, want in match.items())
    )


class Fleet:
    """Two workers sharing one cache directory behind one router."""

    def __init__(self, root: Path, work_dir: Path):
        self.root = root
        self.work_dir = work_dir
        self.cache_dir = work_dir / "cache"
        self.worker_addresses: List[str] = []
        self.router_address = ""
        self._procs: List[Tuple[str, subprocess.Popen]] = []

    # ------------------------------------------------------------------ #
    def _spawn(self, name: str, args: List[str]) -> Tuple[subprocess.Popen, Path]:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
            "PYTHONPATH"
        ) else src
        log_path = self.work_dir / f"{name}.log"
        with log_path.open("wb") as log:
            proc = subprocess.Popen(
                [sys.executable, *args],
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        self._procs.append((name, proc))
        return proc, log_path

    @staticmethod
    def _await_address(proc: subprocess.Popen, log_path: Path, deadline: float) -> str:
        while time.monotonic() < deadline:
            match = _LISTENING.search(log_path.read_text(errors="replace"))
            if match:
                return match.group(1)
            if proc.poll() is not None:
                raise FleetError(
                    f"{log_path.stem} exited with {proc.returncode}: "
                    + log_path.read_text(errors="replace")[-2000:]
                )
            time.sleep(0.01)
        raise FleetError(f"{log_path.stem} did not bind within {READY_TIMEOUT_S}s")

    def _await_healthy(self, deadline: float) -> None:
        while time.monotonic() < deadline:
            try:
                status, body = http_get(self.router_address, "/healthz", timeout=5)
            except OSError:
                status, body = 0, b""
            if status == 200:
                document = json.loads(body)
                members = [w for w in document.get("workers", []) if w.get("member")]
                if len(members) == len(self.worker_addresses):
                    return
            time.sleep(0.02)
        raise FleetError(f"the router did not see every worker within {READY_TIMEOUT_S}s")

    def _spawn_worker(self, name: str, port: int) -> Tuple[subprocess.Popen, Path]:
        return self._spawn(name, ["-m", "repro.serve.http", "--port", str(port),
                                  "--cache-dir", str(self.cache_dir)])

    def _await_worker(self, name: str, proc: subprocess.Popen, log: Path,
                      deadline: float) -> str:
        try:
            return self._await_address(proc, log, deadline)
        except FleetError:
            if proc.poll() is None:
                raise
        # The fixed port is taken: drop the dead process, bind anywhere.
        self._procs.remove((name, proc))
        proc, log = self._spawn_worker(f"{name}-ephemeral", 0)
        return self._await_address(proc, log, deadline)

    def start(self) -> float:
        """Launch workers then router; seconds from launch to router-ready."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        deadline = time.monotonic() + READY_TIMEOUT_S
        workers = [
            (f"worker{i}", *self._spawn_worker(f"worker{i}", port))
            for i, port in enumerate(WORKER_PORTS)
        ]
        self.worker_addresses = [
            self._await_worker(name, proc, log, deadline) for name, proc, log in workers
        ]
        args = ["-m", "repro.serve.fleet", "--port", "0"]
        for address in self.worker_addresses:
            args += ["--worker", address]
        router, log = self._spawn("router", args)
        self.router_address = self._await_address(router, log, deadline)
        self._await_healthy(deadline)
        return time.perf_counter() - started

    # ------------------------------------------------------------------ #
    @property
    def pids(self) -> List[int]:
        return [proc.pid for _, proc in self._procs]

    def cpu_seconds(self) -> float:
        """Summed CPU seconds of router and workers so far."""
        return sum(cpu_seconds(pid) for pid in self.pids)

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of router and workers."""
        return sum(peak_rss_mb(pid) for pid in self.pids)

    def store_mb(self) -> float:
        """Bytes on disk under the shared cache directory, in MiB."""
        return dir_bytes(self.cache_dir) / 2 ** 20

    def healthz(self) -> Dict:
        """The router's ``/healthz`` document (members, ring shape)."""
        return self._get_json(self.router_address, "/healthz")

    def held_relations(self) -> Dict[str, List[str]]:
        """Per worker, the fingerprints of the relations it holds."""
        return {
            address: [entry["fingerprint"] for entry in
                      self._get_json(address, "/v1/relations")["relations"].values()]
            for address in self.worker_addresses
        }

    @staticmethod
    def _get_json(address: str, path: str) -> Dict:
        status, body = http_get(address, path)
        if status != 200:
            raise FleetError(f"GET {address}{path} answered {status}")
        return json.loads(body)

    def scrape(self) -> Tuple[Dict, List[Dict]]:
        """Parsed ``/metrics`` of the router and of each worker."""
        def fetch(address: str) -> Dict:
            status, body = http_get(address, "/metrics")
            if status != 200:
                raise FleetError(f"GET {address}/metrics answered {status}")
            return parse_prometheus(body.decode())

        return fetch(self.router_address), [fetch(a) for a in self.worker_addresses]

    def stop(self) -> None:
        """Stop router then workers (graceful, killed past the timeout)."""
        for _, proc in reversed(self._procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._procs.clear()

    def kill(self) -> None:
        """Kill every process at once (the run is out of time)."""
        for _, proc in self._procs:
            if proc.poll() is None:
                proc.kill()
        for _, proc in self._procs:
            proc.wait()

