"""The host-speed probe: how fast the machine's processors run during a run.

The benchmark runs on small virtual machines that share their host.  How
many instructions a second a virtual processor retires rises and falls with
the neighbours' load, and a run's timings move with it: between runs minutes
apart, CPU seconds per discover spread nearly as widely as the latencies (a
third of the median and more).  The probe prices that drift with a fixed
piece of work that does not touch the program under test.  A separate
process repeats it every ``PERIOD_S`` seconds and times each repeat in its
own thread's CPU time, so time spent waiting for a processor (queueing
behind the fleet) is not counted; only the processor's speed while it runs
is.  The host may also take a virtual processor away altogether; the kernel
counts that time as *steal* in ``/proc/stat``, and it stretches wall-clock
times only: a request waits as long as the processor it needs is stolen, so
what counts is the stolen share of the time the processors had work, not of
all time.

``REFERENCE_S`` is the median probe time on the 2-core virtual machine the
benchmark was written on.  A ``Speed`` holds that reference over the run's
own median (``cpu``: below 1 on a slower processor) and the same times the
share of wanted processor time the host did not steal (``wall``).  The
benchmark reports each end-to-end timing in reference seconds: CPU seconds
times ``cpu``, wall-clock seconds times ``wall``, rates divided by ``wall``
(set-up, outside the window, by ``cpu`` alone).  Two runs of the same code
on a host that ran at different speeds then read alike, while a change to
the program moves the reported figure as much as it moves the measured one:
the probe runs none of the program's code.

Run as a script, the module is the probe process: it writes ``ready`` once
warmed up, samples until its standard input closes, then writes its samples
as one JSON list of ``[monotonic stamp, CPU seconds]`` pairs.
"""

from __future__ import annotations

import json
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

#: Seconds between the end of one repeat and the start of the next.  A
#: repeat takes about 5 ms, so the probe holds about 5 % of one processor.
PERIOD_S = 0.1

#: Median CPU seconds of one repeat on the reference machine (a 2-core KVM
#: guest on an Intel Xeon, with the cold-tax fleet busy).
REFERENCE_S = 0.0044

#: Seconds the probe process may take to start or to hand back its samples.
PROBE_TIMEOUT_S = 30.0

#: Repeats before ``ready`` (imports, first-touch page faults).
WARMUP = 5


def host_ticks() -> Tuple[int, int]:
    """``(steal, wanted)`` clock ticks of every processor since boot:
    the time the host ran something else while a processor had work, and
    all the time a processor had work (busy or stolen; not idle)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            ticks = [int(field) for field in handle.readline().split()[1:]]
    except OSError:
        return 0, 0
    # user nice system idle iowait irq softirq steal guest guest_nice; the
    # guest times are already inside user and nice.
    user, nice, system, _idle, _iowait, irq, softirq, steal = ticks[:8]
    return steal, user + nice + system + irq + softirq + steal


@dataclass(frozen=True)
class Speed:
    """How fast the host ran, as multipliers onto reference seconds."""

    #: ``REFERENCE_S`` over the median repeat: scales CPU seconds.
    cpu: float
    #: ``cpu`` times the share of wanted processor time the host did not
    #: steal: scales wall-clock seconds (and divides rates).
    wall: float


def work() -> int:
    """The fixed piece of work: tuple hashing, dict updates, list sorting and
    small ``numpy`` sorts, the operations the discovery engines spend on."""
    import numpy as np

    table = {}
    for i in range(6000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    ordered = sorted(table.items(), key=lambda item: item[1])
    codes = (np.arange(8192, dtype=np.int64) * 7919) % 613
    values, inverse = np.unique(codes, return_inverse=True)
    return len(ordered) + int(values.size) + int(inverse[-1])


def timed_work() -> float:
    """CPU seconds of this thread spent on one repeat of ``work``."""
    start = time.thread_time()
    work()
    return time.thread_time() - start


def probe_main() -> int:
    """The probe process: sample until standard input closes."""
    for _ in range(WARMUP):
        timed_work()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    samples: List[Tuple[float, float]] = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        stamp = time.monotonic()
        samples.append((stamp, timed_work()))
    json.dump(samples, sys.stdout)
    sys.stdout.flush()
    return 0


class Probe:
    """The probe process, started and stopped by the benchmark run."""

    def __init__(self) -> None:
        self._proc: Optional[subprocess.Popen] = None
        self.samples: List[Tuple[float, float]] = []
        #: ``(monotonic stamp, host_ticks())`` at start, window start,
        #: window end and stop.
        self._marks: List[Tuple[float, Tuple[int, int]]] = []

    def start(self) -> None:
        """Start the probe and wait until it samples."""
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        ready, _, _ = select.select([self._proc.stdout], [], [], PROBE_TIMEOUT_S)
        if not ready or self._proc.stdout.readline().strip() != "ready":
            self.kill()
            raise RuntimeError("the host-speed probe did not start")
        self.mark()

    def mark(self) -> None:
        """Stamp the start or the end of the timed window."""
        self._marks.append((time.monotonic(), host_ticks()))

    def stop(self) -> None:
        """Stop the probe and keep its samples."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        self.mark()
        try:
            out, _ = proc.communicate(input="", timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("the host-speed probe did not stop") from None
        self.samples = [tuple(pair) for pair in json.loads(out)]

    def kill(self) -> None:
        """Kill the probe at once (the run is out of time or failed)."""
        proc, self._proc = self._proc, None
        if proc is not None:
            proc.kill()
            proc.wait()

    def speed(self, window: bool) -> Speed:
        """The host's speed during the timed window (``window=True``) or
        during the rest of the run: launches, set-up and checks."""
        (_, first), (start, window_first), (end, window_last), (_, last) = self._marks
        seconds = [s for stamp, s in self.samples if (start <= stamp <= end) == window]
        if not seconds:
            raise RuntimeError("the host-speed probe took no sample")
        cpu = REFERENCE_S / statistics.median(seconds)
        steal, wanted = (window_last[i] - window_first[i] for i in (0, 1))
        if not window:
            steal = last[0] - first[0] - steal
            wanted = last[1] - first[1] - wanted
        return Speed(cpu=cpu, wall=cpu * (1.0 - steal / wanted if wanted > 0 else 1.0))


if __name__ == "__main__":
    sys.exit(probe_main())
