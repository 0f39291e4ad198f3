"""Every metric and workload of the ledger, by name.

``BENCHMARK.json`` at the repository root is :func:`contract` written
out; ``ledger/tests/test_ledger_contract.py`` fails when the two drift
apart.
"""

from __future__ import annotations

RUN_SECONDS = 8

#: name, one-line reason (sizes and loop type included).
WORKLOADS = (
    ("warm_template",
     "execute_template, memory backend, 133k rows, Zipf pool of 48 "
     "bindings fully cached; closed loop, 1 client: bind memo, executor "
     "and fetch-cache hits do all the work, the backend none"),
    ("cold_fetch_scale",
     "same template on 5k/53k/530k rows with fetch_cache_size=1 and "
     "distinct bindings; closed loop, 1 client: backend fetch and "
     "first-time bind dominate, cache bypassed; the paper's claim"),
    ("adhoc_compile",
     "execute(text) over 1000 distinct qgen query texts per round, 133k "
     "rows, fresh plan cache; closed loop, 1 client: parse, coverage "
     "decision and optimizer dominate, execution is a tenth"),
    ("http_closed_loop",
     "repro serve --workers 1 subprocess, 133k rows, one keep-alive "
     "connection, POST /query over the warm_template pool; closed loop, "
     "1 client: the serving tier's bill on an identical engine path"),
    ("mixed_write_disk",
     "DiskBackend (fsync off), 133k rows, 90% reads over 400 bindings "
     "(larger than the fetch cache) and 10% delete/re-insert writes, then "
     "reopen; closed loop, 1 client: WAL, delta maintenance, recovery"),
    ("procshard_fanout",
     "ProcessShardedBackend(workers=2), 120k rows, wide template over "
     "all 300 dates with fetch_cache_size=1; closed loop, 1 client: key "
     "batches cross the RPC boundary, transport dominates"),
)

#: The ten end-to-end metrics: name, unit, better, bound.  A workload
#: without the operation reports ``null``.  This is the table the
#: ledger's own gate (``--compare``, ``--aa``) judges by: 10 % for
#: timings and peak RSS, equality for counts on equal seeds, 0 for
#: ``failed_fraction``; a metric whose rounds spread wider than its
#: bound is ``unresolved``, never ``ok``.
END_TO_END = (
    ("setup_s", "s", "lower", 0.10),
    ("latency_p50_us", "us", "lower", 0.10),
    ("latency_p95_us", "us", "lower", 0.10),
    ("throughput_rps", "1/s", "higher", 0.10),
    ("failed_fraction", "share", "lower", 0.0),
    ("dq_tuples_per_request", "count", "lower", 0.0),
    ("write_latency_p50_us", "us", "lower", 0.10),
    ("bytes_stored_per_user_byte", "count", "lower", 0.0),
    ("scale_latency_ratio", "ratio", "lower", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: Counts are equal only when the seeds are: across seeds they may
#: differ by this share (the binding pools sit at fixed |D_Q| quantiles
#: of a population that is drawn anew).
COUNT_BOUND_ACROSS_SEEDS = 0.05

#: What ``BENCHMARK.json`` gates: name, unit, better, bound.  Its driver
#: wants every end-to-end metric from every workload, as a number that
#: is never 0, and refuses the benchmark when ten runs on ten seeds
#: spread wider than the bound; it has no ``unresolved``.  So:
#:
#: * the timings are host-normalised (``*_norm_*``).  The build host, a
#:   shared 2-vCPU VM, switches between two interpreter speeds ~25 %
#:   apart several times a second; as measured, a p50 spreads by
#:   10-20 % from run to run, which a 10 % bound cannot hold.  Divided
#:   by a fixed interpreter loop timed every 20 ms inside the same
#:   round (``workloads.spin_once``) and scaled back to µs at the
#:   reference speed, the same p50 spreads by 2-5 %;
#: * ``scale_latency_ratio`` is 1 on a workload with one instance size
#:   (a p50 over itself);
#: * ``failed_fraction`` (always 0; the result line's ``failed`` and
#:   ``attempted`` carry it) and the two metrics only
#:   ``mixed_write_disk`` has are left to the ledger's own gate, and
#:   ride here as per-layer metrics (:data:`CARRIERS`);
#: * ``setup_s`` gets the largest bound the contract allows, and counts
#:   :data:`COUNT_BOUND_ACROSS_SEEDS`, since the driver's runs differ
#:   in seed;
#: * the normalised p50 keeps the issue's 10 % (at least twice its
#:   widest spread over ten seeds); the other bounds are at least twice
#:   the widest spread seen, in steps of 5 % up to the contract's cap
#:   (README, "Bounds"): the p95 with http's hand-off tail, throughput
#:   with its writes and per-round tails, the scale ratio of two p50s,
#:   and peak RSS, which follows the ±3 % by which ``simple_accidents``
#:   sizes the 300-day procshard instance.
CONTRACT_END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_norm_us", "us", "lower", 0.10),
    ("latency_p95_norm_us", "us", "lower", 0.25),
    ("throughput_norm_rps", "1/s", "higher", 0.15),
    ("dq_tuples_per_request", "count", "lower", COUNT_BOUND_ACROSS_SEEDS),
    ("scale_latency_ratio", "ratio", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

#: End-to-end metric -> the per-layer name it rides under in the
#: contract's traced run.
CARRIERS = {
    "latency_p50_us": "request.latency_p50_us",
    "latency_p95_us": "request.latency_p95_us",
    "throughput_rps": "request.throughput_rps",
    "write_latency_p50_us": "disk.write_latency_p50_us",
    "bytes_stored_per_user_byte": "disk.bytes_stored_per_user_byte",
}

_P50 = "latency_p50_us"

#: Per-layer metrics: name, unit, better, which end-to-end metric it
#: should move and on which workload (everywhere else: no change).
#: Times from spans and replays are at the reference host speed, like
#: the gated timings; ``request.*_us`` (but ``_norm_``) and the one-shot
#: ``*_s`` are as measured.
PER_LAYER = (
    ("query.parse_us", "us", "lower", f"{_P50} on adhoc_compile"),
    ("core.decide_us", "us", "lower", f"{_P50} on adhoc_compile"),
    ("optimizer.optimize_us", "us", "lower", f"{_P50} on adhoc_compile"),
    ("optimizer.specialize_us", "us", "lower",
     f"{_P50} on adhoc_compile and cold_fetch_scale"),
    ("plancache.compile_us", "us", "lower", f"{_P50} on adhoc_compile"),
    ("plancache.lookup_us", "us", "lower", f"{_P50} on adhoc_compile"),
    ("plancache.hit_rate", "ratio", "higher", f"{_P50} on adhoc_compile"),
    ("templates.bind_us", "us", "lower",
     f"{_P50} on cold_fetch_scale; ~0 on warm_template"),
    ("executor.self_us", "us", "lower",
     f"{_P50}, throughput_rps on warm_template; diluted on "
     "http_closed_loop"),
    ("executor.ops_per_request", "count", "lower",
     f"{_P50} on warm_template"),
    ("executor.gather_ops_per_request", "count", "lower",
     f"{_P50} on warm_template"),
    ("executor.fused_fetch_ops_per_request", "count", "lower",
     f"{_P50} on warm_template"),
    ("executor.batch_fetch_ops_per_request", "count", "lower",
     f"{_P50} on warm_template"),
    ("executor.max_intermediate_rows", "count", "lower",
     f"{_P50} on warm_template"),
    ("fetchcache.self_us", "us", "lower", f"{_P50} on warm_template"),
    ("fetchcache.lookups_per_request", "count", "lower",
     f"{_P50} on warm_template"),
    ("fetchcache.hit_rate", "ratio", "higher", f"{_P50} on warm_template"),
    ("fetchcache.evictions_per_request", "count", "lower",
     f"{_P50} on mixed_write_disk"),
    ("fetchcache.maintained_entries", "count", "higher",
     f"read {_P50} on mixed_write_disk"),
    ("fetchcache.maintenance_fallbacks", "count", "lower",
     f"read {_P50} on mixed_write_disk"),
    ("fetchcache.invalidations", "count", "lower",
     f"read {_P50} on mixed_write_disk"),
    ("backend.fetch_self_us", "us", "lower",
     f"{_P50}, scale_latency_ratio on cold_fetch_scale (on procshard it "
     "contains the wait for the workers)"),
    ("backend.fetch_calls_per_request", "count", "lower",
     f"{_P50} on cold_fetch_scale; 0 on warm_template"),
    ("backend.index_lookups_per_request", "count", "lower",
     f"{_P50} on cold_fetch_scale"),
    ("backend.tuples_fetched_per_request", "count", "lower",
     "dq_tuples_per_request on cold_fetch_scale"),
    ("backend.fetch_rows_per_s", "1/s", "higher",
     f"{_P50} on cold_fetch_scale"),
    ("scale.p50_us.d48", "us", "lower", "scale_latency_ratio"),
    ("scale.p50_us.d480", "us", "lower", "scale_latency_ratio"),
    ("scale.p50_us.d4800", "us", "lower", "scale_latency_ratio"),
    ("scale.dq_ratio", "ratio", "lower",
     "dq_tuples_per_request d4800 over d48; the paper predicts 1"),
    ("naive.scan_ms.d48", "ms", "lower", "contrast only"),
    ("naive.scan_ms.d4800", "ms", "lower", "contrast only"),
    ("backend.insert_us", "us", "lower",
     "write_latency_p50_us on mixed_write_disk"),
    ("backend.delete_us", "us", "lower",
     "write_latency_p50_us on mixed_write_disk"),
    ("disk.wal_append_us_per_write", "us", "lower",
     "write_latency_p50_us on mixed_write_disk"),
    ("disk.wal_bytes_per_write", "count", "lower",
     "bytes_stored_per_user_byte on mixed_write_disk"),
    ("disk.fsyncs", "count", "lower",
     "write_latency_p50_us on mixed_write_disk (0: fsync is off)"),
    ("disk.snapshot_s", "s", "lower", "setup_s-like pause, mixed_write_disk"),
    ("disk.recover_s", "s", "lower", "restart time, mixed_write_disk"),
    ("disk.recovered_rows", "count", "higher", "mixed_write_disk"),
    ("disk.write_latency_p50_us", "us", "lower",
     "is write_latency_p50_us (mixed_write_disk)"),
    ("disk.bytes_stored_per_user_byte", "count", "lower",
     "is bytes_stored_per_user_byte (mixed_write_disk)"),
    ("encoding.dictionary_entries", "count", "lower",
     "peak_rss_mb, setup_s on cold_fetch_scale"),
    ("encoding.dictionary_bytes", "count", "lower",
     "peak_rss_mb, setup_s on cold_fetch_scale"),
    ("procshard.rpc_requests_per_request", "count", "lower",
     f"{_P50} on procshard_fanout"),
    ("procshard.rpc_bytes_shipped_per_request", "count", "lower",
     f"{_P50} on procshard_fanout"),
    ("procshard.rpc_bytes_received_per_request", "count", "lower",
     f"{_P50} on procshard_fanout"),
    ("procshard.rpc_roundtrip_us_per_request", "us", "lower",
     f"{_P50} on procshard_fanout (peer-time, summed over workers)"),
    ("procshard.worker_read_share", "ratio", "higher",
     f"{_P50} on procshard_fanout"),
    ("procshard.bootstrap_s", "s", "lower", "setup_s on procshard_fanout"),
    ("procshard.vs_memory_ratio", "ratio", "lower",
     f"{_P50} on procshard_fanout"),
    ("http.request_json_us", "us", "lower", f"{_P50} on http_closed_loop"),
    ("http.response_json_us", "us", "lower", f"{_P50} on http_closed_loop"),
    ("http.response_bytes", "count", "lower", f"{_P50} on http_closed_loop"),
    ("server.handle_self_us", "us", "lower", f"{_P50} on http_closed_loop"),
    ("http.wire_us", "us", "lower",
     f"{_P50}, throughput_rps on http_closed_loop"),
    ("server.shed_fraction", "share", "lower",
     "failed requests on http_closed_loop"),
    ("obs.registry_overhead_ratio", "ratio", "lower",
     f"{_P50} on http_closed_loop"),
    ("service.overhead_us", "us", "lower", f"{_P50} on every workload"),
    ("ledger.residual_share", "share", "lower",
     "none: how much of latency_p50_norm_us the rows fail to explain"),
    ("trace.overhead_ratio", "ratio", "lower",
     "none: traced p50 over untraced p50"),
    ("request.latency_p50_us", "us", "lower",
     "is latency_p50_us as measured, host speed included"),
    ("request.latency_p95_us", "us", "lower",
     "is latency_p95_us as measured, host speed included"),
    ("request.throughput_rps", "1/s", "higher",
     "is throughput_rps as measured, host speed included"),
    ("request.latency_p50_norm_us", "us", "lower",
     "is latency_p50_norm_us over the traced run's reference rounds: "
     "what the budget rows add up to"),
    ("request.latency_p99_us", "us", "lower", "latency_p95_us"),
    ("request.latency_max_us", "us", "lower", "latency_p95_us"),
    ("request.samples", "count", "higher", "none: sample count"),
    ("host.spin_us", "us", "lower",
     "none: host speed, a fixed interpreter loop"),
)

#: The per-layer rows that add up to one request, outermost first.
#: Each is measured on its own — none is a remainder — so
#: ``ledger.residual_share``, how far their sum is from the untraced
#: ``latency_p50_norm_us``, is what the ledger fails to explain.
BUDGET_ROWS = (
    "http.wire_us", "server.handle_self_us", "http.request_json_us",
    "http.response_json_us", "service.overhead_us", "query.parse_us",
    "plancache.compile_us", "templates.bind_us", "optimizer.specialize_us",
    "executor.self_us", "fetchcache.self_us", "backend.fetch_self_us",
)

PER_LAYER_NAMES = tuple(entry[0] for entry in PER_LAYER)
END_TO_END_NAMES = tuple(entry[0] for entry in END_TO_END)
CONTRACT_NAMES = tuple(entry[0] for entry in CONTRACT_END_TO_END)
WORKLOAD_NAMES = tuple(entry[0] for entry in WORKLOADS)
UNITS = {entry[0]: entry[1] for entry in
         END_TO_END + CONTRACT_END_TO_END + PER_LAYER}


def contract() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "ledger/run.py"],
        "paths": ["ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in CONTRACT_END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _ in PER_LAYER],
    }
