"""Every metric the benchmark prints, with its unit.

``BENCHMARK.json`` at the repository root lists the same names and units;
the self-tests check that the two never drift apart.
"""

from __future__ import annotations

#: Metrics a user of the service sees; printed by untraced runs.
END_TO_END = {
    "discover_p50_s": "s",
    "discover_p90_s": "s",
    "upload_p50_s": "s",
    "throughput_rps": "1/s",
    "cpu_s_per_discover": "s",
    "peak_rss_mb": "MB",
    "store_mb_per_session": "MB",
    "ok_share": "ratio",
    "cover_gap_rules": "count",
    "setup_s": "s",
}

ORACLE_ENGINES = ("ctane", "fastcfd", "cfdminer", "dfd")

#: Metrics of single layers; printed by traced runs.
PER_LAYER = {
    **{f"{rung}.rung_s": "s" for rung in (
        "core", "api", "serve.store", "serve.service", "serve.http", "serve.fleet",
    )},
    "relational.encode_s": "s",
    "itemsets.mine_s": "s",
    **{f"api.build_s.{bucket}": "s" for bucket in (
        "free_closed", "closed_difference_sets", "attribute_partitions", "engine_results",
    )},
    **{f"api.hit_ratio.{cache}": "ratio" for cache in (
        "engine_results", "pattern_partitions", "free_closed", "closed_difference_sets",
    )},
    "core.rules": "count",
    "core.ctane.levels": "count",
    "core.dfd.partitions_computed": "count",
    "core.dfd.restarts": "count",
    "serve.store.puts": "count",
    "serve.store.put_mb": "MB",
    "serve.store.put_s": "s",
    "serve.store.gets": "count",
    "serve.store.get_s": "s",
    "serve.store.get_hit_ratio": "ratio",
    "serve.pool.hit_ratio": "ratio",
    "serve.pool.evictions": "count",
    "serve.pool.spilled_entries": "count",
    "serve.pool.warm_loaded_entries": "count",
    "serve.service.dedup_ratio": "ratio",
    "serve.service.request_s": "s",
    "serve.http.request_s": "s",
    "serve.http.response_kb": "KB",
    "serve.fleet.forward_s": "s",
    "serve.fleet.failovers": "count",
    **{f"oracle.gap_rules.{engine}": "count" for engine in ORACLE_ENGINES},
    "oracle.relations": "count",
    "bench.trace_overhead_ratio": "ratio",
    "bench.error_share": "ratio",
    "bench.discovers": "count",
    "bench.spans": "count",
    "bench.peak_connections": "count",
    "bench.host_speed": "ratio",
}
