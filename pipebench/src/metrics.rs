//! The benchmark's metric catalogue: every end-to-end and per-layer metric
//! with its unit, its direction, and (for layers) the end-to-end metric
//! and workload it should move. `BENCHMARK.json` lists the same names and
//! units; `selftest.sh` checks that a run prints exactly these.

/// One metric the benchmark reports.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// What the metric means per workload (end-to-end), or which
    /// end-to-end metric it should move and on which workload (per-layer).
    pub note: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        note,
    }
}

/// Printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m(
        "setup_s",
        "s",
        "lower",
        "median of three full set-ups: world generation, table and file builds, daemon spawn and readiness",
    ),
    m(
        "throughput",
        "1/s",
        "higher",
        "serve-*: completed lookups/s, closed loop with nproc connections (peak_rps); pretrain: trained triples/s (train_triples_per_s)",
    ),
    m(
        "p50_ms",
        "ms",
        "lower",
        "serve-*: lookup latency at the fixed open-loop rate, timed from the due time, the lowest of the rounds' p50s; pretrain: one held-out tail query through the int8 ranker; p90, p99 and the sample count are printed beside it, unbounded",
    ),
    m(
        "peak_rss_mb",
        "MiB",
        "lower",
        "serve-*: summed VmHWM of the daemon processes (serve_rss_mb); pretrain: peak RSS during training alone (train_peak_rss_mb)",
    ),
    m(
        "publish_ms",
        "ms",
        "lower",
        "serve-wide: median reload round trip under traffic (reload_ms); serve-hot: reloads on the idle daemon at the start of each round, the lowest of the rounds' medians; pretrain: write_snapshots plus int8 quantization of every shard (snapshot_write_s)",
    ),
];

/// Printed by every traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    m(
        "retry.extra_us",
        "us",
        "lower",
        "p50_ms, throughput @ serve-hot",
    ),
    m(
        "retry.retries",
        "count",
        "lower",
        "failed @ serve-hot, serve-wide",
    ),
    m(
        "retry.give_ups",
        "count",
        "lower",
        "failed @ serve-hot, serve-wide",
    ),
    m(
        "retry.deadline_misses",
        "count",
        "lower",
        "failed @ serve-hot, serve-wide",
    ),
    m(
        "protocol.encode_req_us",
        "us",
        "lower",
        "p50_ms @ serve-hot",
    ),
    m(
        "protocol.decode_req_us",
        "us",
        "lower",
        "p50_ms @ serve-hot",
    ),
    m(
        "protocol.encode_rows_us",
        "us",
        "lower",
        "p50_ms @ serve-hot",
    ),
    m(
        "protocol.decode_rows_us",
        "us",
        "lower",
        "p50_ms @ serve-hot",
    ),
    m("daemon.idle_rtt_us", "us", "lower", "p50_ms @ serve-hot"),
    m(
        "daemon.rss_anon_mb",
        "MiB",
        "lower",
        "peak_rss_mb @ serve-wide",
    ),
    m(
        "daemon.rss_file_mb",
        "MiB",
        "lower",
        "peak_rss_mb @ serve-wide",
    ),
    m(
        "daemon.protocol_errors",
        "count",
        "lower",
        "failed, publish_ms @ serve-wide",
    ),
    m(
        "daemon.conns_rejected",
        "count",
        "lower",
        "failed, publish_ms @ serve-wide",
    ),
    m(
        "daemon.quiesce_timeouts",
        "count",
        "lower",
        "failed, publish_ms @ serve-wide",
    ),
    m(
        "batcher.mean_batch_items",
        "items",
        "higher",
        "throughput @ serve-hot",
    ),
    m("batcher.handoff_us", "us", "lower", "p50_ms @ serve-hot"),
    m(
        "batcher.shed",
        "count",
        "lower",
        "failed @ serve-hot, serve-wide",
    ),
    m(
        "batcher.expired",
        "count",
        "lower",
        "failed @ serve-hot, serve-wide",
    ),
    m(
        "cache.hit_ratio",
        "ratio",
        "higher",
        "throughput @ serve-hot (near 1) vs serve-wide (low)",
    ),
    m(
        "cache.evictions",
        "count",
        "lower",
        "throughput @ serve-wide",
    ),
    m("cache.hit_batch_us", "us", "lower", "p50_ms @ serve-hot"),
    m("cache.miss_batch_us", "us", "lower", "p50_ms @ serve-wide"),
    m(
        "snapshot.dense_row_ns",
        "ns",
        "lower",
        "throughput, p50_ms @ serve-wide; nothing @ serve-hot",
    ),
    m(
        "snapshot.int8_row_ns",
        "ns",
        "lower",
        "throughput, p50_ms @ serve-wide; nothing @ serve-hot",
    ),
    m(
        "snapshot3.open_ms",
        "ms",
        "lower",
        "publish_ms @ serve-wide, setup_s",
    ),
    m(
        "rayon.par_call_us",
        "us",
        "lower",
        "throughput @ serve-wide, pretrain; nothing @ serve-hot",
    ),
    m("router.fanout", "ratio", "lower", "p50_ms @ serve-wide"),
    m("router.redirects", "count", "lower", "p50_ms @ serve-wide"),
    m("router.map_loads", "count", "lower", "p50_ms @ serve-wide"),
    m("router.hop_ratio", "ratio", "lower", "p50_ms @ serve-wide"),
    m("router.overhead_us", "us", "lower", "p50_ms @ serve-wide"),
    m("ooc.partitions", "count", "lower", "throughput @ pretrain"),
    m("ooc.blocks", "count", "lower", "throughput @ pretrain"),
    m("ooc.epoch_s", "s", "lower", "throughput @ pretrain"),
    m(
        "trainer.resident_epoch_s",
        "s",
        "lower",
        "throughput @ pretrain",
    ),
    m(
        "kernels.grad_ns_per_pair",
        "ns",
        "lower",
        "throughput @ pretrain",
    ),
    m("artifact.commit_ms", "ms", "lower", "throughput @ pretrain"),
    m(
        "service.condensed_us",
        "us",
        "lower",
        "publish_ms @ pretrain; nothing on serving",
    ),
    m(
        "snapshot3.write_mb_s",
        "MB/s",
        "higher",
        "publish_ms @ pretrain",
    ),
    m("eval.prune_rate", "ratio", "higher", "p50_ms @ pretrain"),
    m("eval.fused_qps", "1/s", "higher", "p50_ms @ pretrain"),
    m("eval.quant_qps", "1/s", "higher", "p50_ms @ pretrain"),
    m(
        "trace.unaccounted_frac",
        "ratio",
        "lower",
        "closure of the layer sums against the untraced mean latency",
    ),
    m(
        "trace.overhead_frac",
        "ratio",
        "lower",
        "traced vs untraced throughput gap",
    ),
];

/// Measured values for one run, checked against the catalogue on output.
#[derive(Default)]
pub struct Values {
    values: Vec<(&'static str, f64)>,
}

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not in the catalogue"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}
