//! Per-layer probes for the traced run. Each probe times the benchmark's
//! own calls into one layer's public functions, recording a span per call
//! (or per run of back-to-back calls), and reduces the spans to the
//! per-layer metrics of [`crate::metrics::PER_LAYER`].

use crate::fleet::{sum_stat, DaemonProc};
use crate::metrics::Values;
use crate::serve::{write_shards, Verifier, DIM, K};
use crate::trace::SpanBuf;
use crate::util::{self, median_f64};
use crate::Outcome;
use pkgm_core::eval_kernels::{fused_rank_tails, quantized_rank_tails_with_stats};
use pkgm_core::kernels::{fused_chunk_grads, TrainScratch};
use pkgm_core::protocol::{
    decode_request, decode_response, encode_request, encode_rows_response, read_frame, write_frame,
};
use pkgm_core::router::RouterStats;
use pkgm_core::{
    open_mapped_snapshot, ArtifactIo, CachedService, DaemonClient, DynamicBatcher,
    KnowledgeService, NegativeSampler, OocConfig, OocTrainer, PkgmConfig, PkgmModel,
    QuantEvalModel, Request, Response, RetryClient, RetryPolicy, ServiceScratch, ServiceSnapshot,
    ShardRouter, ShardSpec, Ss3DenseWriter, Ss3QuantWriter, StdIo, TrainConfig, Trainer,
};
use pkgm_store::{EntityId, Triple, TripleStore};
use pkgm_synth::Catalog;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of each round-trip probe.
const RTT_REPS: usize = 600;

/// Distinct batches the round-trip probes cycle through: few enough that
/// every daemon cache holds them all, so paired calls see the same warm
/// rows whichever of the pair runs first.
const WARM_BATCHES: usize = 16;

/// The serving fleet the probes run against.
pub struct Fleet<'a> {
    pub daemons: &'a [DaemonProc],
    pub service: &'a KnowledgeService,
    /// The whole dense table the served shards were cut from.
    pub table: &'a ServiceSnapshot,
    /// The served shard files, opened here.
    pub served: &'a Verifier,
    pub shard_files: &'a [PathBuf],
    pub dir: &'a Path,
}

/// Daemon stats summed over the fleet.
fn daemon_stats(fleet: &Fleet, values: &mut Values) {
    let stats: Vec<_> = fleet.daemons.iter().map(DaemonProc::stats).collect();
    let s = |p: &[&str]| sum_stat(&stats, p);
    values.set("daemon.protocol_errors", s(&["protocol_errors"]));
    values.set("daemon.conns_rejected", s(&["conns_rejected"]));
    values.set("daemon.quiesce_timeouts", s(&["quiesce_timeouts"]));
    values.set(
        "batcher.mean_batch_items",
        s(&["batch", "items"]) / s(&["batch", "batches"]).max(1.0),
    );
    values.set("batcher.shed", s(&["batch", "shed"]));
    values.set(
        "batcher.expired",
        s(&["batch", "expired_enqueue"])
            + s(&["batch", "expired_queued"])
            + s(&["batch", "expired_executing"]),
    );
    let (hits, misses) = (s(&["cache", "hits"]), s(&["cache", "misses"]));
    values.set("cache.hit_ratio", hits / (hits + misses).max(1.0));
    values.set("cache.evictions", s(&["cache", "evictions"]));
    values.set(
        "daemon.rss_anon_mb",
        fleet.daemons.iter().map(|d| d.status_mb("RssAnon")).sum(),
    );
    values.set(
        "daemon.rss_file_mb",
        fleet.daemons.iter().map(|d| d.status_mb("RssFile")).sum(),
    );
}

/// Probe every serving layer. `batches` are the workload's request
/// shape; `traffic` holds the router counters of the measured traffic
/// (all zero when the workload sends no routed traffic). With
/// `stats_first` the daemon counters are read before the probes add
/// their own lookups. Returns the summed idle self-times along one
/// lookup's blocking path, in µs.
pub fn serving(
    buf: &mut SpanBuf,
    fleet: &Fleet,
    batches: &[Vec<u32>],
    traffic: RouterStats,
    stats_first: bool,
    values: &mut Values,
    out: &mut Outcome,
) -> f64 {
    if stats_first {
        daemon_stats(fleet, values);
    }
    let shard0 = fleet.served.snapshots().next().expect("one served shard");
    let (lo, n0) = (shard0.shard().row_start as u32, shard0.n_rows() as u32);
    // The same batches folded into shard 0's range, for single-daemon probes.
    let batches = &batches[..WARM_BATCHES.min(batches.len())];
    let local: Vec<Vec<u32>> = batches
        .iter()
        .map(|b| b.iter().map(|&id| lo + id % n0).collect())
        .collect();
    let mut row_buf = Vec::new();
    let mut check = |items: &[u32], rows: &[Vec<f32>], out: &mut Outcome| {
        out.attempted += 1;
        if let Err(e) = fleet.served.check(items, rows, &mut row_buf) {
            eprintln!("[pipebench] probe row mismatch: {e}");
            out.mismatches += 1;
            out.failed += 1;
        }
    };

    // retry + daemon: identical batches, one connection each, idle daemon.
    let addr0 = fleet.daemons[0].addr.clone();
    let mut direct =
        DaemonClient::connect(&addr0).unwrap_or_else(|e| util::die(&format!("probe connect: {e}")));
    let mut retry = RetryClient::new(addr0.clone(), RetryPolicy::default());
    for b in &local {
        util::ok(direct.lookup(b), "probe warm-up lookup");
    }
    let (mut d_ns, mut r_ns) = (Vec::new(), Vec::new());
    for i in 0..RTT_REPS {
        let b = &local[i % local.len()];
        // Alternate which of the pair goes first, so neither always pays
        // for the other's cold start.
        for first in [i % 2 == 0, i % 2 == 1] {
            if first {
                let (rows, ns) = buf.time("daemon.lookup", i as u64, 1, || direct.lookup(b));
                let rows = util::ok(rows, "probe lookup");
                check(b, &rows, out);
                d_ns.push(ns);
            } else {
                let (rows, ns) = buf.time("retry.lookup_with_deadline", i as u64, 1, || {
                    retry.lookup_with_deadline(b, Duration::from_secs(5))
                });
                let rows = util::ok(rows, "probe retry lookup");
                check(b, &rows, out);
                r_ns.push(ns);
            }
        }
    }
    if values.get("retry.retries").is_none() {
        // No retrying traffic ran: report the probe client's counters.
        let rs = retry.stats();
        values.set("retry.retries", rs.retries as f64);
        values.set("retry.give_ups", rs.give_ups as f64);
        values.set("retry.deadline_misses", rs.deadline_misses as f64);
    }
    values.set("daemon.idle_rtt_us", median_f64(&d_ns) / 1e3);
    values.set(
        "retry.extra_us",
        (median_f64(&r_ns) - median_f64(&d_ns)) / 1e3,
    );

    // protocol: the workload's request and rows frames through an
    // in-memory buffer, CRC included.
    let b = &batches[0];
    let req = Request::LookupDeadline {
        budget_micros: 5_000_000,
        items: b.clone(),
    };
    let rows = fleet.served.expected(b);
    let row_len = rows[0].len() as u32;
    let (mut er, mut dr, mut ew, mut dw) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..RTT_REPS as u64 {
        let mut wire = Vec::new();
        let ((), ns) = buf.time("protocol.encode_request", i, 1, || {
            write_frame(&mut wire, &encode_request(&req)).expect("in-memory write")
        });
        er.push(ns);
        let (got, ns) = buf.time("protocol.decode_request", i, 1, || {
            let body = read_frame(&mut wire.as_slice())
                .expect("frame")
                .expect("not eof");
            decode_request(&body).expect("valid request")
        });
        dr.push(ns);
        assert_eq!(got, req, "request round trip");
        let mut wire = Vec::new();
        let ((), ns) = buf.time("protocol.encode_rows", i, 1, || {
            write_frame(
                &mut wire,
                &encode_rows_response(row_len, rows.iter().map(Vec::as_slice)),
            )
            .expect("in-memory write")
        });
        ew.push(ns);
        let (got, ns) = buf.time("protocol.decode_rows", i, 1, || {
            let body = read_frame(&mut wire.as_slice())
                .expect("frame")
                .expect("not eof");
            decode_response(&body).expect("valid response")
        });
        dw.push(ns);
        match got {
            Response::Rows { rows: r, .. } => check(b, &r, out),
            other => util::die(&format!("rows frame decoded as {other:?}")),
        }
    }
    values.set("protocol.encode_req_us", median_f64(&er) / 1e3);
    values.set("protocol.decode_req_us", median_f64(&dr) / 1e3);
    values.set("protocol.encode_rows_us", median_f64(&ew) / 1e3);
    values.set("protocol.decode_rows_us", median_f64(&dw) / 1e3);

    // batcher + serving, in process over the served shard-0 file.
    let snap0 = open_mapped_snapshot(&fleet.shard_files[0], false)
        .unwrap_or_else(|e| util::die(&format!("open shard 0: {e}")));
    // Sized to hold every shard-0 row, so both sides of the pair are hits.
    let cached = Arc::new(CachedService::with_snapshot(
        fleet.service.clone(),
        n0 as usize + 1,
        snap0.clone(),
    ));
    for b in &local {
        let ids: Vec<EntityId> = b.iter().map(|&x| EntityId(x)).collect();
        cached.condensed_service_batch(&ids);
    }
    let batcher = DynamicBatcher::new(16_384, 1024);
    let (mut via, mut direct_ns) = (Vec::new(), Vec::new());
    std::thread::scope(|s| {
        let worker = s.spawn(|| batcher.run_worker(|| Arc::clone(&cached)));
        for i in 0..RTT_REPS {
            let b = &local[i % local.len()];
            let ids: Vec<EntityId> = b.iter().map(|&x| EntityId(x)).collect();
            let (_, ns) = buf.time("serving.condensed_service_batch", i as u64, 1, || {
                cached.condensed_service_batch(&ids)
            });
            direct_ns.push(ns);
            let (rows, ns) = buf.time("batcher.submit_wait", i as u64, 1, || {
                batcher
                    .submit_with_deadline(b.clone(), Some(Instant::now() + Duration::from_secs(5)))
                    .expect("admitted")
                    .wait()
            });
            let rows: Vec<Vec<f32>> = rows
                .unwrap_or_else(|e| util::die(&format!("batcher wait: {e}")))
                .iter()
                .map(|r| r.as_ref().clone())
                .collect();
            check(b, &rows, out);
            via.push(ns);
        }
        batcher.stop();
        worker.join().expect("batch worker panicked");
    });
    values.set(
        "batcher.handoff_us",
        (median_f64(&via) - median_f64(&direct_ns)) / 1e3,
    );

    // cache: a warm batch vs batches of ids never asked before.
    let fresh = CachedService::with_snapshot(fleet.service.clone(), n0 as usize + 1, snap0);
    let b = &local[0];
    let ids: Vec<EntityId> = b.iter().map(|&x| EntityId(x)).collect();
    fresh.condensed_service_batch(&ids);
    let hit: Vec<f64> = (0..RTT_REPS as u64)
        .map(|i| {
            buf.time("serving.hit_batch", i, 1, || {
                fresh.condensed_service_batch(&ids)
            })
            .1
        })
        .collect();
    let bs = b.len() as u32;
    let miss: Vec<f64> = (0..(n0 / bs).min(RTT_REPS as u32))
        .map(|j| {
            let ids: Vec<EntityId> = (0..bs).map(|x| EntityId(lo + (j * bs + x) % n0)).collect();
            buf.time("serving.miss_batch", j as u64, 1, || {
                fresh.condensed_service_batch(&ids)
            })
            .1
        })
        .collect();
    values.set("cache.hit_batch_us", median_f64(&hit) / 1e3);
    values.set("cache.miss_batch_us", median_f64(&miss) / 1e3);

    // snapshot + snapshot3: dense and int8 copies of the table's shards.
    let n_shards = fleet.shard_files.len() as u32;
    let dense = write_shards(
        fleet.table,
        n_shards,
        false,
        &fleet.dir.join("probe-dense.pkgmss3"),
    );
    let int8 = write_shards(
        fleet.table,
        n_shards,
        true,
        &fleet.dir.join("probe-int8.pkgmss3"),
    );
    for (name, files) in [
        ("snapshot.dense_row_ns", &dense),
        ("snapshot.int8_row_ns", &int8),
    ] {
        let snap =
            open_mapped_snapshot(&files[0], false).unwrap_or_else(|e| util::die(&e.to_string()));
        let (lo, n) = (snap.shard().row_start as u32, snap.n_rows() as u32);
        let mut rng = SmallRng::seed_from_u64(0x5A17);
        let ids: Vec<u32> = (0..100_000).map(|_| lo + rng.gen_range(0..n)).collect();
        let mut row = Vec::new();
        let per: Vec<f64> = (0..5u64)
            .map(|r| {
                buf.time("snapshot.lookup_exact", r, ids.len() as u64, || {
                    for &id in &ids {
                        assert!(snap.lookup_exact(EntityId(id), &mut row));
                        std::hint::black_box(&row);
                    }
                })
                .1
            })
            .collect();
        values.set(name, median_f64(&per));
    }
    let opens: Vec<f64> = (0..20u64)
        .map(|i| {
            buf.time("snapshot3.open_mapped_snapshot", i, 1, || {
                open_mapped_snapshot(&fleet.shard_files[0], false).expect("reopen shard")
            })
            .1
        })
        .collect();
    values.set("snapshot3.open_ms", median_f64(&opens) / 1e6);
    for f in dense.iter().chain(&int8) {
        let _ = std::fs::remove_file(f);
    }

    // rayon: one nproc-way par_chunks call vs the same work serially.
    let data = vec![1u32; 4096];
    let chunk = data.len().div_ceil(rayon::current_num_threads());
    let (mut par, mut ser) = (Vec::new(), Vec::new());
    for i in 0..RTT_REPS as u64 {
        let (s, ns) = buf.time("rayon.par_chunks", i, 1, || {
            data.par_chunks(chunk)
                .map(|c| c.iter().sum::<u32>())
                .sum::<u32>()
        });
        assert_eq!(s, 4096);
        par.push(ns);
        let (s, ns) = buf.time("rayon.serial", i, 1, || {
            std::hint::black_box(&data)
                .chunks(chunk)
                .map(|c| c.iter().sum::<u32>())
                .sum::<u32>()
        });
        assert_eq!(s, 4096);
        ser.push(ns);
    }
    values.set(
        "rayon.par_call_us",
        (median_f64(&par) - median_f64(&ser)) / 1e3,
    );

    // router: one hop over the fleet vs going straight to the owner.
    let addrs: Vec<String> = fleet.daemons.iter().map(|d| d.addr.clone()).collect();
    let mut router = ShardRouter::connect(&addrs, RetryPolicy::default())
        .unwrap_or_else(|e| util::die(&format!("probe router: {e}")));
    let mut clients: Vec<DaemonClient> = addrs
        .iter()
        .map(|a| {
            DaemonClient::connect(a).unwrap_or_else(|e| util::die(&format!("probe connect: {e}")))
        })
        .collect();
    for b in batches {
        util::ok(router.lookup(b), "probe warm-up routed lookup");
    }
    let (mut hop_r, mut hop_d, mut full_r, mut full_d) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..RTT_REPS {
        let b = &local[i % local.len()];
        let (routed, ns) = buf.time("router.lookup", i as u64, 1, || router.lookup(b));
        let routed = routed.unwrap_or_else(|e| util::die(&format!("routed lookup: {e}")));
        hop_r.push(ns);
        let (direct, ns) = buf.time("daemon.lookup", i as u64, 1, || clients[0].lookup(b));
        let direct = direct.unwrap_or_else(|e| util::die(&format!("direct lookup: {e}")));
        hop_d.push(ns);
        out.attempted += 1;
        if routed != direct {
            eprintln!("[pipebench] routed rows differ from direct rows");
            out.mismatches += 1;
            out.failed += 1;
        }
        check(b, &routed, out);

        // A whole mixed batch routed, vs its per-shard sub-batches sent direct.
        let b = &batches[i % batches.len()];
        let root = buf.begin("router.mixed", None, i as u64);
        let (rows, ns) = buf.time("router.lookup", i as u64, 1, || router.lookup(b));
        buf.end(root);
        let rows = rows.unwrap_or_else(|e| util::die(&format!("routed lookup: {e}")));
        check(b, &rows, out);
        full_r.push(ns);
        let mut sum = 0.0;
        for (s, client) in fleet.served.snapshots().zip(clients.iter_mut()) {
            let (lo, hi) = (
                s.shard().row_start as u32,
                s.shard().row_start as u32 + s.n_rows() as u32,
            );
            let sub: Vec<u32> = b
                .iter()
                .copied()
                .filter(|id| (lo..hi).contains(id))
                .collect();
            if !sub.is_empty() {
                let (r, ns) = buf.time("daemon.lookup", i as u64, 1, || client.lookup(&sub));
                r.unwrap_or_else(|e| util::die(&format!("direct sub-lookup: {e}")));
                sum += ns;
            }
        }
        full_d.push(sum);
    }
    values.set("router.hop_ratio", median_f64(&hop_r) / median_f64(&hop_d));
    values.set(
        "router.overhead_us",
        (median_f64(&full_r) - median_f64(&full_d)) / 1e3,
    );
    let rs = if traffic.lookups > 0 {
        traffic
    } else {
        router.stats()
    };
    values.set(
        "router.fanout",
        rs.sub_lookups as f64 / rs.lookups.max(1) as f64,
    );
    values.set("router.redirects", rs.redirects as f64);
    values.set("router.map_loads", rs.map_loads as f64);

    if !stats_first {
        daemon_stats(fleet, values);
    }
    if fleet.daemons.len() == 1 {
        median_f64(&r_ns) / 1e3
    } else {
        median_f64(&full_r) / 1e3
    }
}

/// What the pretrain workload already measured of the OOC trainer.
pub struct OocKnown {
    pub partitions: usize,
    pub blocks: usize,
    pub epoch_s: f64,
}

/// A fixed held-out sample for ranking: the catalog's first `n` held-out
/// triples whose ids the model covers.
pub fn eval_sample(catalog: &Catalog, n: usize) -> Vec<Triple> {
    let ne = catalog.store.n_entities();
    let nr = catalog.store.n_relations();
    catalog
        .heldout
        .iter()
        .copied()
        .filter(|t| t.head.0 < ne && t.tail.0 < ne && t.relation.0 < nr)
        .take(n)
        .collect()
}

pub fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: 1,
        lr: 5e-3,
        margin: 4.0,
        batch_size: 1000,
        negatives: 1,
        seed,
        normalize_entities: true,
        parallel: true,
        chunk_size: None,
    }
}

/// Probe every training-side layer on `catalog`'s triples. `ooc` carries
/// the out-of-core figures when the workload already ran that trainer.
#[allow(clippy::too_many_arguments)]
pub fn training(
    buf: &mut SpanBuf,
    catalog: &Catalog,
    dir: &Path,
    seed: u64,
    ooc: Option<OocKnown>,
    values: &mut Values,
    out: &mut Outcome,
) {
    let store: &TripleStore = &catalog.store;
    let selector = catalog.key_relation_selector(K);
    let (ne, nr) = (store.n_entities() as usize, store.n_relations() as usize);
    let model_cfg = PkgmConfig::new(DIM).with_seed(seed);
    let row_bytes = 3 * DIM * 4;
    let ooc = ooc.unwrap_or_else(|| {
        // A budget of a quarter of the entity state: an 8-partition plan.
        let cfg = OocConfig {
            model: model_cfg.clone(),
            train: train_config(seed),
            mem_budget: ne * row_bytes / 4,
            dir: dir.join("probe-ooc"),
        };
        let mut t =
            OocTrainer::new(store, cfg).unwrap_or_else(|e| util::die(&format!("ooc init: {e}")));
        let (r, ns) = buf.time("ooc.train", 0, 1, || t.train(store));
        let r = r.unwrap_or_else(|e| util::die(&format!("ooc train: {e}")));
        let _ = std::fs::remove_dir_all(dir.join("probe-ooc"));
        OocKnown {
            partitions: r.n_partitions,
            blocks: r.blocks,
            epoch_s: ns / 1e9,
        }
    });
    values.set("ooc.partitions", ooc.partitions as f64);
    values.set("ooc.blocks", ooc.blocks as f64);
    values.set("ooc.epoch_s", ooc.epoch_s);

    let mut model = PkgmModel::new(ne, nr, model_cfg);
    let mut trainer = Trainer::new(&model, train_config(seed));
    let (_, ns) = buf.time("trainer.train_epoch", 0, 1, || {
        trainer.train_epoch(&mut model, store, 0)
    });
    values.set("trainer.resident_epoch_s", ns / 1e9);

    let sampler = NegativeSampler::new(store);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6EAD);
    let mut scratch = TrainScratch::new(&model);
    let mut pairs = Vec::new();
    let per_pair: Vec<f64> = (0..40u64)
        .map(|i| {
            let pos: Vec<Triple> = (0..256)
                .map(|_| store.triples()[rng.gen_range(0..store.len())])
                .collect();
            sampler.corrupt_batch_into(pos, store, 1, &mut rng, &mut pairs);
            let n = pairs.len() as u64;
            buf.time("kernels.fused_chunk_grads", i, n, || {
                std::hint::black_box(fused_chunk_grads(&model, &mut scratch, &pairs, 4.0))
            })
            .1
        })
        .collect();
    values.set("kernels.grad_ns_per_pair", median_f64(&per_pair));

    let part_rows = ne.div_ceil(ooc.partitions.max(1));
    let payload = vec![0x5Au8; part_rows * row_bytes];
    let path = dir.join("probe-commit.bin");
    let commits: Vec<f64> = (0..10u64)
        .map(|i| {
            buf.time("artifact.write_atomic", i, 1, || {
                StdIo
                    .write_atomic(&path, &payload)
                    .unwrap_or_else(|e| util::die(&e.to_string()))
            })
            .1
        })
        .collect();
    let _ = std::fs::remove_file(&path);
    values.set("artifact.commit_ms", median_f64(&commits) / 1e6);

    let service = KnowledgeService::new(model, selector);
    let n_rows = ne.min(20_000);
    let mut sc = ServiceScratch::new(DIM);
    let mut rows = vec![0.0f32; n_rows * 2 * DIM];
    let per_item: Vec<f64> = (0..3u64)
        .map(|r| {
            buf.time("service.condensed_service_into", r, n_rows as u64, || {
                for (i, row) in rows.chunks_mut(2 * DIM).enumerate() {
                    service.condensed_service_into(EntityId(i as u32), &mut sc, row);
                }
            })
            .1
        })
        .collect();
    values.set("service.condensed_us", median_f64(&per_item) / 1e3);

    let spec = ShardSpec::default();
    let (dp, qp) = (
        dir.join("probe-w-dense.pkgmss3"),
        dir.join("probe-w-int8.pkgmss3"),
    );
    let mb_s: Vec<f64> = (0..3u64)
        .map(|r| {
            let (bytes, ns) = buf.time("snapshot3.write", r, 1, || {
                let what = "snapshot write";
                let mut w = util::ok(
                    Ss3DenseWriter::create(&dp, DIM, K, n_rows as u64, spec),
                    what,
                );
                util::ok(w.write_rows(&rows), what);
                util::ok(w.finish(), what);
                let mut q = util::ok(
                    Ss3QuantWriter::create(&qp, DIM, K, n_rows as u64, spec),
                    what,
                );
                util::ok(q.write_rows(&rows), what);
                util::ok(
                    q.finish(|i, out| {
                        let i = i as usize * 2 * DIM;
                        out.copy_from_slice(&rows[i..i + 2 * DIM]);
                    }),
                    what,
                );
                let len = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
                len(&dp) + len(&qp)
            });
            bytes as f64 / 1e6 / (ns / 1e9)
        })
        .collect();
    let _ = std::fs::remove_file(&dp);
    let _ = std::fs::remove_file(&qp);
    values.set("snapshot3.write_mb_s", median_f64(&mb_s));

    let sample = eval_sample(catalog, 256);
    let model = service.model();
    let qmodel = QuantEvalModel::build(model);
    let (fused, f_ns) = buf.time("eval.fused_rank_tails", 0, 1, || {
        fused_rank_tails(model, &sample, Some(store))
    });
    let (quant, q_ns) = buf.time("eval.quantized_rank_tails", 0, 1, || {
        quantized_rank_tails_with_stats(model, &qmodel, &sample, Some(store))
    });
    let fused = fused.unwrap_or_else(|e| util::die(&format!("fused ranks: {e:?}")));
    let (quant, stats) = quant.unwrap_or_else(|e| util::die(&format!("quantized ranks: {e:?}")));
    out.attempted += 1;
    if fused != quant {
        eprintln!("[pipebench] quantized ranks differ from fused ranks");
        out.mismatches += 1;
        out.failed += 1;
    }
    values.set("eval.prune_rate", stats.prune_rate());
    values.set("eval.fused_qps", sample.len() as f64 / (f_ns / 1e9));
    values.set("eval.quant_qps", sample.len() as f64 / (q_ns / 1e9));
}
