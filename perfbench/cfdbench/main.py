"""One benchmark run: launch the fleet, drive one workload, check, report.

The last line of standard output is the result object; a readable summary of
every metric goes to standard error.  Untraced runs (``--trace 0``) report the
end-to-end metrics, their timings in reference seconds (see ``probe``); traced
runs (``--trace 1``) record the benchmark's spans, run the layer ladder and
report the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from cfdbench.fleet import metric_sum
from cfdbench.load import SpanRecorder, closed_loop
from cfdbench.probe import Probe
from cfdbench.spec import END_TO_END, ORACLE_ENGINES, PER_LAYER
from cfdbench.stats import median, percentile, ratio

#: Fleet launches per run (at least the measured fleet and the oracle's);
#: ``setup_s`` takes the median launch time.
SETUP_LAUNCHES = 3

#: A run that is still going after this many seconds kills the fleet and
#: exits non-zero (the run must end within 180 seconds).
RUN_LIMIT_S = 170.0

ROOT = Path(__file__).resolve().parents[2]


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    from cfdbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one workload of the CFD-discovery fleet benchmark.",
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 records spans and reports the per-layer metrics")
    return parser.parse_args(argv)


def check_layout(root: Path) -> Optional[str]:
    """Why the checkout cannot be benchmarked, or ``None`` when it can."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return f"no repro package under {root / 'src'}"
    return None


class Watchdog:
    """Kills the fleets and the probe and exits if the run overstays its limit."""

    def __init__(self, limit: float):
        self.processes: List = []
        self._timer = threading.Timer(limit, self._fire)
        self._timer.daemon = True

    def __enter__(self) -> "Watchdog":
        self._timer.start()
        return self

    def __exit__(self, *exc) -> None:
        self._timer.cancel()

    def _fire(self) -> None:
        print(f"run exceeded {RUN_LIMIT_S:.0f}s; stopping", file=sys.stderr, flush=True)
        for process in self.processes:
            process.kill()
        os._exit(3)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    problem = check_layout(ROOT)
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    from cfdbench.load import client_count
    from cfdbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, client_count())
    try:
        with Watchdog(RUN_LIMIT_S) as watchdog:
            result, spans = run(args, workload, work, watchdog)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if spans.enabled:
        trace_path = ROOT / ".bench_work" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        spans.write_jsonl(trace_path)
        print(f"spans written to {trace_path}", file=sys.stderr)
    print_summary(result)
    print(json.dumps(result, sort_keys=True))
    return 0


def run(
    args: argparse.Namespace, workload, work: Path, watchdog: Watchdog
) -> Tuple[Dict, SpanRecorder]:
    """Drive ``workload`` through a fresh fleet; returns the result object
    and the spans recorded (none unless ``args.trace``).  The host-speed
    probe samples from before the first launch to the end of the checks."""
    probe = Probe()
    watchdog.processes.append(probe)
    probe.start()
    try:
        return measure(args, workload, work, watchdog, probe)
    finally:
        probe.kill()


def measure(
    args: argparse.Namespace, workload, work: Path, watchdog: Watchdog, probe: Probe
) -> Tuple[Dict, SpanRecorder]:
    """The body of ``run``, with ``probe`` sampling throughout."""
    from cfdbench.checks import check_served_sample, cover_gaps, exact_engine_failures
    from cfdbench.fleet import Fleet
    clients = workload.clients
    traced = bool(args.trace)

    launches: List[float] = []

    def launch(name: str) -> Fleet:
        """A started fleet; its launch time is one ``setup_s`` sample."""
        fleet = Fleet(ROOT, work / name)
        watchdog.processes.append(fleet)
        try:
            launches.append(fleet.start())
        except BaseException:
            fleet.stop()
            raise
        return fleet

    phases = Phases()
    # Besides the measured fleet and the oracle's, bare launches that only
    # add samples to ``setup_s``.
    for i in range(SETUP_LAUNCHES - 2):
        launch(f"launch{i}").stop()
    fleet = launch("fleet")
    try:
        setup_work_s = workload.setup(fleet)
        phases.mark("setup")

        spans = SpanRecorder(enabled=traced)
        untraced = SpanRecorder(enabled=False)

        def spans_for(client: int, index: int) -> SpanRecorder:
            # Traced runs trace every other operation, so the other half
            # prices the spans' own overhead.
            return spans if traced and (client + index) % 2 == 0 else untraced

        before = fleet.scrape() if traced else None
        cpu_start = fleet.cpu_seconds()
        probe.mark()
        window = closed_loop(fleet.router_address, args.seconds, workload.next_op,
                             spans_for, clients=clients)
        probe.mark()
        cpu_s = fleet.cpu_seconds() - cpu_start
        peak_rss = fleet.peak_rss_mb()
        after = fleet.scrape()
        sessions = sum(metric_sum(w, "repro_pool_misses_total") for w in after[1])
        workload.placement.verify(fleet)
        phases.mark("window")
    finally:
        fleet.stop()
    phases.mark("stop")
    # After the graceful stop the workers' drain has spilled every pooled
    # session, so the store holds a spill per session admitted by the end of
    # the window; per session, the figure does not grow with the work a
    # window got done.
    store_mb_per_session = ratio(fleet.store_mb(), sessions)

    done = [o for o in window.outcomes if not o.failed]
    if not done:
        raise RuntimeError("no operation completed in the window: "
                           + window.outcomes[0].reason)
    failed_ops = len(window.outcomes) - len(done)
    checked, mismatches = check_served_sample(workload, done, args.seed)
    phases.mark("cover checks")
    # The oracle corpus runs on a fleet of its own (a launch sample too),
    # so its many small sessions stay out of the measured fleet's store.
    oracle_fleet = launch("oracle")
    try:
        gaps = cover_gaps(oracle_fleet.router_address, args.seed, ORACLE_ENGINES,
                          size=workload.corpus_size, clients=clients)
    finally:
        oracle_fleet.stop()
    oracle_failures = exact_engine_failures(gaps)
    setup_s = median(launches) + setup_work_s
    phases.mark("oracle corpus")
    probe.stop()
    # Window timings are scaled by the host's speed during the window;
    # set-up, mostly interpreter start-up and imports, by the processors'
    # speed outside it (launches, set-up work, checks).
    window_speed = probe.speed(window=True)
    other_speed = probe.speed(window=False)
    print(f"host speed: window {window_speed}, outside it {other_speed}",
          file=sys.stderr, flush=True)

    discover_s = [o.discover_s for o in done]
    upload_s = [o.upload_s for o in done if o.upload_s is not None]
    corpus_requests = sum(g["relations"] for g in gaps.values())
    corpus_failed = sum(g["failed"] for g in gaps.values())
    attempted = len(window.outcomes) + checked + corpus_requests
    failed = failed_ops + mismatches + corpus_failed + oracle_failures
    error_share = ratio(failed_ops, len(window.outcomes))

    if not traced:
        measured = {
            "discover_p50_s": median(discover_s),
            "discover_p90_s": percentile(discover_s, 90),
            "upload_p50_s": median(upload_s),
            "throughput_rps": window.throughput(),
            "cpu_s_per_discover": ratio(cpu_s, len(done)),
            "setup_s": setup_s,
        }
        print("measured, before scaling: " + json.dumps(measured, sort_keys=True),
              file=sys.stderr)
        metrics = {
            "discover_p50_s": measured["discover_p50_s"] * window_speed.wall,
            "discover_p90_s": measured["discover_p90_s"] * window_speed.wall,
            "upload_p50_s": measured["upload_p50_s"] * window_speed.wall,
            "throughput_rps": measured["throughput_rps"] / window_speed.wall,
            "cpu_s_per_discover": measured["cpu_s_per_discover"] * window_speed.cpu,
            "peak_rss_mb": peak_rss,
            "store_mb_per_session": store_mb_per_session,
            "ok_share": 1.0 - error_share,
            "cover_gap_rules": sum(g["gap_rules"] for g in gaps.values()),
            "setup_s": measured["setup_s"] * other_speed.cpu,
        }
        units = END_TO_END
    else:
        from cfdbench.ladder import Ladder

        metrics = Ladder(workload.representative(), work / "ladder", spans).run()
        phases.mark("ladder")
        metrics.update(scraped_layers(before, after))
        plain = [o.discover_s for o in done if not o.traced]
        traced_ops = [o.discover_s for o in done if o.traced]
        plain_p50 = median(plain or traced_ops)
        traced_p50 = median(traced_ops or plain)
        metrics.update({
            "serve.http.response_kb": ratio(
                sum(len(o.discover_body) for o in done), len(done)) / 1024,
            "bench.trace_overhead_ratio": ratio(traced_p50, plain_p50),
            "bench.error_share": error_share,
            "bench.discovers": len(done),
            "bench.spans": len(spans.spans),
            "bench.peak_connections": window.peak_connections,
            "bench.host_speed": window_speed.wall,
            "oracle.relations": gaps[ORACLE_ENGINES[0]]["relations"],
            **{f"oracle.gap_rules.{e}": gaps[e]["gap_rules"] for e in ORACLE_ENGINES},
        })
        units = PER_LAYER

    return {
        "correct": mismatches == 0 and oracle_failures == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }, spans


class Phases:
    """Wall time of each phase of a run, reported on standard error."""

    def __init__(self) -> None:
        self._last = time.perf_counter()

    def mark(self, name: str) -> None:
        now = time.perf_counter()
        print(f"phase {name}: {now - self._last:.1f}s", file=sys.stderr, flush=True)
        self._last = now


def scraped_layers(before, after) -> Dict[str, float]:
    """Per-layer counters of the window: ``/metrics`` after minus before."""
    (router0, workers0), (router1, workers1) = before, after

    def workers(name: str, **match: str) -> float:
        return (sum(metric_sum(w, name, **match) for w in workers1)
                - sum(metric_sum(w, name, **match) for w in workers0))

    def router(name: str) -> float:
        return metric_sum(router1, name) - metric_sum(router0, name)

    pool_hits = workers("repro_pool_hits_total")
    pool_lookups = pool_hits + workers("repro_pool_misses_total")
    return {
        "serve.pool.hit_ratio": ratio(pool_hits, pool_lookups),
        "serve.pool.evictions": workers("repro_pool_evictions_total"),
        "serve.pool.spilled_entries": workers("repro_pool_spilled_entries_total"),
        "serve.pool.warm_loaded_entries": workers("repro_pool_warm_loaded_entries_total"),
        "serve.service.dedup_ratio": ratio(workers("repro_service_deduplicated"),
                                           workers("repro_service_requests")),
        "serve.service.request_s": ratio(workers("repro_service_request_seconds_sum"),
                                         workers("repro_service_request_seconds_count")),
        "serve.http.request_s": ratio(
            workers("repro_http_request_seconds_sum", route="discover"),
            workers("repro_http_request_seconds_count", route="discover")),
        "serve.fleet.forward_s": ratio(router("repro_fleet_forward_seconds_sum"),
                                       router("repro_fleet_forward_seconds_count")),
        "serve.fleet.failovers": router("repro_fleet_failovers_total"),
    }


def print_summary(result: Dict) -> None:
    print(f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}", file=sys.stderr)
