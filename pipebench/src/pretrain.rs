//! The `pretrain` workload: the offline half of the pipeline. Generate the
//! seeded catalog, train it out of core under a budget that forces a
//! multi-partition block plan, stream the dense PKGMSS3 shards, quantize
//! each to int8, then rank a fixed held-out sample with the int8 ranker.

use crate::fleet::{self, secs};
use crate::metrics::Values;
use crate::probes::{self, OocKnown};
use crate::serve::{Verifier, DIM, K};
use crate::util::{self, median_f64, percentile};
use crate::{Outcome, Run};
use pkgm_core::eval_kernels::{fused_rank_tails, quantized_rank_tails_with_stats};
use pkgm_core::router::RouterStats;
use pkgm_core::{
    open_mapped_snapshot, serialize, snapshot_to_ss3_bytes, KnowledgeService, OocConfig, OocReport,
    OocTrainer, PkgmConfig, QuantEvalModel, ServiceScratch, ServiceSnapshot, Ss3QuantWriter, StdIo,
};
use pkgm_store::{EntityId, Triple};
use pkgm_synth::{Catalog, CatalogConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Paged-entity budget: 12 MB forces an 8-partition plan on the `bench`
/// catalog at d = 32 (36 blocks per epoch).
const MEM_BUDGET: usize = 12_000_000;

/// Pipeline rounds per untraced run; every figure is their median.
const ROUNDS: usize = 3;

/// Publishes per round; `publish_ms` is the median over all of them.
const PUBLISHES: usize = 2;

/// Share of `--seconds` spent ranking single queries, over all rounds.
const EVAL_SHARE: f64 = 0.3;

/// Held-out queries in the fixed eval sample: enough distinct queries
/// that the latency percentiles describe the query mix, not the handful
/// of slow queries one seed happens to draw, and ten beyond p99.
const SAMPLE: usize = 1024;

struct Setup {
    catalog: Catalog,
    sample: Vec<Triple>,
    trainer: OocTrainer,
    dir: PathBuf,
}

fn setup(run: &Run, idx: usize) -> Setup {
    let dir = fleet::fresh_dir(&run.work, &format!("pretrain-{idx}"));
    let cfg = if run.smoke {
        CatalogConfig::small(run.seed)
    } else {
        CatalogConfig::bench(run.seed)
    };
    let catalog = Catalog::generate(&cfg);
    let sample = probes::eval_sample(&catalog, SAMPLE);
    let budget = if run.smoke {
        MEM_BUDGET / 8
    } else {
        MEM_BUDGET
    };
    let trainer = OocTrainer::new(
        &catalog.store,
        OocConfig {
            model: PkgmConfig::new(DIM).with_seed(run.seed),
            train: probes::train_config(run.seed),
            mem_budget: budget,
            dir: dir.join("ooc"),
        },
    )
    .unwrap_or_else(|e| util::die(&format!("ooc init: {e}")));
    Setup {
        catalog,
        sample,
        trainer,
        dir,
    }
}

/// Quantize one dense shard file to int8 by streaming its rows.
fn quantize_shard(dense: &Path) -> PathBuf {
    let snap = open_mapped_snapshot(dense, false).unwrap_or_else(|e| util::die(&e.to_string()));
    let table = snap
        .dense_table()
        .expect("write_snapshots emits dense shards");
    let mut name = dense.as_os_str().to_os_string();
    name.push(".int8");
    let out = PathBuf::from(name);
    let what = "int8 shard";
    let mut w = util::ok(
        Ss3QuantWriter::create(
            &out,
            snap.dim(),
            snap.k(),
            snap.n_rows() as u64,
            snap.shard(),
        ),
        what,
    );
    util::ok(w.write_rows(table), what);
    let row_len = 2 * snap.dim();
    util::ok(
        w.finish(|i, row| {
            let i = i as usize * row_len;
            row.copy_from_slice(&table[i..i + row_len]);
        }),
        what,
    );
    out
}

/// What one round of the pipeline measured.
struct Round {
    setup_s: f64,
    train_s: f64,
    triples_per_s: f64,
    train_rss_mb: f64,
    /// Each publish's wall time, s.
    publish_s: Vec<f64>,
    batch_qps: f64,
    /// Single-query latencies, ns, per query of the sample.
    latencies: Vec<Vec<u64>>,
    report: OocReport,
}

/// Each round runs the whole pipeline on a fresh set-up (a new catalog,
/// trainer and directory), so every end-to-end figure is a median over
/// rounds spread across the run.
pub fn run(run: &Run, values: &mut Values, out: &mut Outcome) {
    let rounds = if run.trace { 1 } else { ROUNDS };
    let window = Duration::from_secs_f64(run.seconds as f64 * EVAL_SHARE / rounds as f64);
    let mut done = Vec::new();
    for r in 0..rounds {
        done.push(round(run, r, window, values, out));
    }
    let med = |f: &dyn Fn(&Round) -> f64| median_f64(&done.iter().map(f).collect::<Vec<_>>());
    // Every round ranks the same sample: each query's latency is the
    // median of its timings over all rounds, so one stalled call does not
    // move the tail.
    let queries = done[0].latencies.len();
    let mut per_query: Vec<u64> = (0..queries)
        .map(|q| {
            let t: Vec<f64> = done
                .iter()
                .flat_map(|r| r.latencies[q].iter().map(|&ns| ns as f64))
                .collect();
            median_f64(&t) as u64
        })
        .collect();
    per_query.sort_unstable();
    let pct = |p: f64| percentile(&per_query, p) as f64 / 1e6;
    let timings: usize = done
        .iter()
        .flat_map(|r| r.latencies.iter().map(Vec::len))
        .sum();
    let (setup_s, tps, rss) = (
        med(&|r| r.setup_s),
        med(&|r| r.triples_per_s),
        med(&|r| r.train_rss_mb),
    );
    let publish_s = median_f64(
        &done
            .iter()
            .flat_map(|r| r.publish_s.iter().copied())
            .collect::<Vec<_>>(),
    );
    let qps = med(&|r| r.batch_qps);
    let (p50, p90, p99) = (pct(50.0), pct(90.0), pct(99.0));
    values.set("setup_s", setup_s);
    values.set("throughput", tps);
    values.set("peak_rss_mb", rss);
    values.set("publish_ms", publish_s * 1e3);
    values.set("p50_ms", p50);
    let rep = &done[0].report;
    println!("setup_s {setup_s:.4} s (median of {rounds})");
    println!(
        "train_triples_per_s {tps:.1} triples/s (median of {rounds}; {} partitions, {} blocks, {:.3} s in the first)",
        rep.n_partitions, rep.blocks, done[0].train_s
    );
    println!("train_peak_rss_mb {rss:.2} MiB (median of {rounds})");
    println!(
        "snapshot_write_s {publish_s:.4} s (median of {}; dense + int8 shards)",
        rounds * PUBLISHES
    );
    println!("eval_queries_per_s {qps:.1} queries/s (int8 ranker, {queries} held-out tail queries per call)");
    println!(
        "p50_ms {p50:.4} ms (n={queries} queries, each the median of its timings over {rounds} rounds, {timings} timings in all; one held-out tail query per call)"
    );
    println!("p90_ms {p90:.4} ms (n={queries} queries)");
    println!("p99_ms {p99:.4} ms (n={queries} queries)");
    out.prov("latency_samples", queries as f64);
    out.prov("latency_timings", timings as f64);
    out.prov("p99_samples_beyond", (queries as f64 * 0.01).floor());
    out.prov("ooc_partitions", rep.n_partitions as f64);
    out.prov("ooc_blocks", rep.blocks as f64);
    out.prov_list(
        "train_triples_per_s_rounds",
        &done.iter().map(|r| r.triples_per_s).collect::<Vec<_>>(),
    );
}

/// One pass of the pipeline: set-up, one OOC epoch, publish, checks,
/// single-query ranking for `window`; the traced run adds the probes.
fn round(run: &Run, r: usize, window: Duration, values: &mut Values, out: &mut Outcome) -> Round {
    util::phase(&format!("setup {}", r + 1), Duration::from_secs(120));
    let t = Instant::now();
    let Setup {
        catalog,
        sample,
        mut trainer,
        dir,
    } = setup(run, r);
    let setup_s = secs(t);
    let store = &catalog.store;
    let mut buf = run.tracer.buf();

    util::phase(&format!("train {}", r + 1), Duration::from_secs(150));
    if !util::reset_peak_rss() {
        eprintln!("[pipebench] cannot reset VmHWM: train_peak_rss_mb includes set-up");
    }
    let (report, train_ns) = buf.time("ooc.train", r as u64, 1, || trainer.train(store));
    let report = report.unwrap_or_else(|e| util::die(&format!("ooc train: {e}")));
    let train_s = train_ns / 1e9;
    let epochs = report.epochs.len().max(1);
    let triples_per_s = (store.len() * epochs) as f64 / train_s;
    let train_rss_mb = util::proc_status_mb("self", "VmHWM").unwrap_or(0.0);

    util::phase(&format!("publish {}", r + 1), Duration::from_secs(120));
    let selector = catalog.key_relation_selector(K);
    let mut publish_s = Vec::new();
    let mut files = None;
    for _ in 0..PUBLISHES {
        let (paths, ns) = buf.time("ooc.write_snapshots+int8", r as u64, 1, || {
            let dense = trainer
                .write_snapshots(&selector, &dir.join("snap.pkgmss3"))
                .unwrap_or_else(|e| util::die(&format!("write_snapshots: {e}")));
            let int8: Vec<PathBuf> = dense.iter().map(|p| quantize_shard(p)).collect();
            (dense, int8)
        });
        publish_s.push(ns / 1e9);
        files = Some(paths);
    }
    let (dense, int8) = files.expect("at least one publish");

    util::phase(&format!("checks {}", r + 1), Duration::from_secs(120));
    let model = util::ok(trainer.assemble_model(), "assemble");
    let service = KnowledgeService::new(model, selector);
    check_shards(&service, &dense, &int8, run.seed, run.inject_wrong_row, out);

    util::phase(
        &format!("eval {}", r + 1),
        window + Duration::from_secs(120),
    );
    let model = service.model();
    let qmodel = QuantEvalModel::build(model);
    let fused = fused_rank_tails(model, &sample, Some(store))
        .unwrap_or_else(|e| util::die(&format!("fused ranks: {e:?}")));
    let t = Instant::now();
    let (quant, _) = quantized_rank_tails_with_stats(model, &qmodel, &sample, Some(store))
        .unwrap_or_else(|e| util::die(&format!("quantized ranks: {e:?}")));
    let batch_qps = sample.len() as f64 / secs(t);
    out.attempted += 1;
    if quant != fused {
        eprintln!("[pipebench] quantized ranks differ from fused ranks");
        out.mismatches += 1;
        out.failed += 1;
    }
    // One query per call, as an online completion request would be.
    let rank_one = |q: usize, out: &mut Outcome| {
        let (r, _) =
            quantized_rank_tails_with_stats(model, &qmodel, &sample[q..q + 1], Some(store))
                .unwrap_or_else(|e| util::die(&format!("quantized rank: {e:?}")));
        out.attempted += 1;
        if r[0] != fused[q] {
            out.mismatches += 1;
            out.failed += 1;
        }
    };
    // Whole passes over the sample, at least one, until `window` is spent.
    let mut latencies = vec![Vec::new(); sample.len()];
    let mut ranked = 0usize;
    let t0 = Instant::now();
    while ranked == 0 || t0.elapsed() < window {
        for (q, lat) in latencies.iter_mut().enumerate() {
            let t = Instant::now();
            rank_one(q, out);
            lat.push(t.elapsed().as_nanos() as u64);
        }
        ranked += sample.len();
    }
    let untraced_qps = ranked as f64 / secs(t0);

    if run.trace {
        // The same query loop with a span per query: the tracing overhead.
        let t0 = Instant::now();
        let mut m = 0usize;
        while m < ranked {
            let q = m % sample.len();
            buf.time("eval.rank_one", m as u64, 1, || rank_one(q, out));
            m += 1;
        }
        let traced_qps = m as f64 / secs(t0);
        values.set("trace.overhead_frac", 1.0 - traced_qps / untraced_qps);
        drop(buf);
        traced_probes(
            run, &catalog, &service, &dense, &dir, &report, train_s, values, out,
        );
    }
    drop(catalog);
    let _ = std::fs::remove_dir_all(&dir);
    Round {
        setup_s,
        train_s,
        triples_per_s,
        train_rss_mb,
        publish_s,
        batch_qps,
        latencies,
        report,
    }
}

/// Dense shard rows must equal the live `M_r·h` service bit-for-bit on a
/// seeded sample of ids; the streamed int8 shard must be byte-identical to
/// quantizing the dense shard in memory.
fn check_shards(
    service: &KnowledgeService,
    dense: &[PathBuf],
    int8: &[PathBuf],
    seed: u64,
    poison: bool,
    out: &mut Outcome,
) {
    let verifier = Verifier::open(dense, None);
    let n = service.model().n_entities() as u32;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0DE);
    let mut sc = ServiceScratch::new(DIM);
    let mut want = vec![0.0f32; 2 * DIM];
    let mut buf = Vec::new();
    for i in 0..2048 {
        let id = rng.gen_range(0..n);
        service.condensed_service_into(EntityId(id), &mut sc, &mut want);
        if poison && i == 0 {
            want[0] = f32::from_bits(want[0].to_bits() ^ 1);
        }
        out.attempted += 1;
        if let Err(e) = verifier.check(&[id], std::slice::from_ref(&want), &mut buf) {
            eprintln!("[pipebench] snapshot row check: {e}");
            out.mismatches += 1;
            out.failed += 1;
        }
    }
    let first =
        open_mapped_snapshot(&dense[0], false).unwrap_or_else(|e| util::die(&e.to_string()));
    let expect =
        snapshot_to_ss3_bytes(&first.quantize()).unwrap_or_else(|e| util::die(&e.to_string()));
    out.attempted += 1;
    if std::fs::read(&int8[0]).ok().as_deref() != Some(expect.as_slice()) {
        eprintln!("[pipebench] streamed int8 shard differs from the in-memory quantization");
        out.mismatches += 1;
        out.failed += 1;
    }
}

/// The traced run's layer probes: the serving layers against a daemon on
/// the freshly written shard 0, then the training layers on this catalog.
#[allow(clippy::too_many_arguments)]
fn traced_probes(
    run: &Run,
    catalog: &Catalog,
    service: &KnowledgeService,
    dense: &[PathBuf],
    dir: &Path,
    report: &OocReport,
    train_s: f64,
    values: &mut Values,
    out: &mut Outcome,
) {
    util::phase("serving probes", Duration::from_secs(150));
    let service_file = dir.join("service.pkgm");
    serialize::write_service_file(&StdIo, &service_file, service)
        .unwrap_or_else(|e| util::die(&format!("write service: {e}")));
    let daemon = fleet::spawn(
        &run.pkgm,
        dir,
        "pretrain-shard0",
        &service_file,
        &dense[0],
        65_536,
    );
    let table = ServiceSnapshot::build(service);
    let served = Verifier::open(&dense[..1], None);
    let n0 = open_mapped_snapshot(&dense[0], false)
        .map(|s| s.n_rows() as u32)
        .unwrap_or_else(|e| util::die(&e.to_string()));
    let mut rng = SmallRng::seed_from_u64(run.seed ^ 0x7E57);
    let batches: Vec<Vec<u32>> = (0..256)
        .map(|_| (0..32).map(|_| rng.gen_range(0..n0)).collect())
        .collect();
    let daemons = [daemon];
    let fleet = probes::Fleet {
        daemons: &daemons,
        service,
        table: &table,
        served: &served,
        shard_files: &dense[..1],
        dir,
    };
    let mut buf = run.tracer.buf();
    probes::serving(
        &mut buf,
        &fleet,
        &batches,
        RouterStats::default(),
        false,
        values,
        out,
    );
    let [daemon] = daemons;
    daemon.stop();

    util::phase("training probes", Duration::from_secs(150));
    let known = OocKnown {
        partitions: report.n_partitions,
        blocks: report.blocks,
        epoch_s: train_s / report.epochs.len().max(1) as f64,
    };
    probes::training(&mut buf, catalog, dir, run.seed, Some(known), values, out);
    // The OOC epoch not explained by resident training plus two partition
    // commits per block: paging and manifest overhead.
    let resident = values.get("trainer.resident_epoch_s").unwrap_or(0.0);
    let commit_s = values.get("artifact.commit_ms").unwrap_or(0.0) / 1e3;
    let accounted = resident + 2.0 * report.blocks as f64 * commit_s;
    values.set(
        "trace.unaccounted_frac",
        1.0 - accounted / (train_s / report.epochs.len().max(1) as f64),
    );
}
