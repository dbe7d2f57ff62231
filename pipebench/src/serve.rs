//! The serving workloads, `serve-hot` and `serve-wide`: child daemons serve
//! mapped PKGMSS3 snapshots of a seeded world; the generator drives them
//! with `nproc` connections in a closed loop (throughput) and then at a
//! fixed open-loop rate (latency), checking every row bit-for-bit against
//! the same shard files opened here.

use crate::fleet::{self, secs, sum_stat, DaemonProc};
use crate::metrics::Values;
use crate::trace::{SpanBuf, Tracer};
use crate::util::{self, median_f64, percentile};
use crate::{probes, Outcome, Run};
use pkgm_core::retry::RetryStats;
use pkgm_core::router::{RouterError, RouterStats};
use pkgm_core::{
    open_mapped_snapshot, serialize, shard_ranges, snapshot_to_ss3_bytes, ArtifactIo, ClientError,
    DaemonClient, KnowledgeService, PkgmConfig, PkgmModel, RetryClient, RetryPolicy,
    ServiceSnapshot, ShardRouter, StdIo,
};
use pkgm_store::EntityId;
use pkgm_synth::{Catalog, CatalogConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Zipf};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Embedding dimension and key relations per item of every serving world.
pub const DIM: usize = 32;
pub const K: usize = 10;

/// Deadline carried by every serve-hot lookup.
const LOOKUP_BUDGET: Duration = Duration::from_secs(5);

/// An open-loop send that starts this long after its due time is late.
const LATE: Duration = Duration::from_millis(1);

/// Rounds of (closed window, open window) per run.
const ROUNDS: u32 = 10;

/// Closed-loop sub-windows per run; the rate is their median.
const SUBS: u32 = 30;

/// Reloads timed on the idle daemon at the start of each round when none
/// run under traffic.
const IDLE_RELOADS_PER_ROUND: usize = 30;

/// Request batches pre-generated per connection (cycled).
const POOL_BATCHES: usize = 4096;

/// One serving workload's shape.
pub struct Shape {
    pub catalog: CatalogConfig,
    pub n_shards: u32,
    pub quantized: bool,
    pub batch: usize,
    /// `Some(s)`: ids Zipf(s) over the items; `None`: uniform.
    pub zipf: Option<f64>,
    pub cache_capacity: usize,
    /// Fixed open-loop offered rate, lookups/s: about a fifth of the
    /// closed-loop peak measured on a 2-CPU x86-64 host, so the loop stays
    /// unsaturated when a shared host loses half its speed.
    pub open_rate: f64,
    /// Reload shard 0 at this interval during the measured windows.
    pub reload_every: Option<Duration>,
}

pub fn shape(workload: &str, smoke: bool, seed: u64) -> Shape {
    match (workload, smoke) {
        ("serve-hot", false) => Shape {
            catalog: CatalogConfig::small(seed),
            n_shards: 1,
            quantized: false,
            batch: 32,
            zipf: Some(1.05),
            cache_capacity: 65_536,
            open_rate: HOT_OPEN_RATE,
            reload_every: None,
        },
        ("serve-hot", true) => Shape {
            catalog: CatalogConfig::tiny(seed),
            open_rate: 500.0,
            ..shape("serve-hot", false, seed)
        },
        ("serve-wide", false) => Shape {
            catalog: CatalogConfig::bench(seed),
            n_shards: 4,
            quantized: true,
            batch: 128,
            zipf: None,
            cache_capacity: 8192,
            open_rate: WIDE_OPEN_RATE,
            reload_every: Some(Duration::from_secs(1)),
        },
        ("serve-wide", true) => Shape {
            catalog: CatalogConfig::small(seed),
            cache_capacity: 1024,
            open_rate: 100.0,
            ..shape("serve-wide", false, seed)
        },
        _ => unreachable!("not a serving workload: {workload}"),
    }
}

/// Open-loop rates, lookups/s.
const HOT_OPEN_RATE: f64 = 2500.0;
const WIDE_OPEN_RATE: f64 = 200.0;

/// Everything one set-up builds.
pub struct World {
    pub dir: PathBuf,
    pub n_items: u32,
    pub service: KnowledgeService,
    /// The whole dense table the shards were cut from.
    pub table: ServiceSnapshot,
    pub shard_files: Vec<PathBuf>,
    /// A byte-identical copy of shard 0, so reloads can alternate paths.
    pub alt_file: PathBuf,
    pub daemons: Vec<DaemonProc>,
}

/// Build the world, write the service and shard files and start one
/// daemon per shard.
pub fn setup(shape: &Shape, run: &Run, idx: usize) -> World {
    let dir = fleet::fresh_dir(&run.work, &format!("{}-{idx}", run.workload));
    let catalog = Catalog::generate(&shape.catalog);
    let n_items = catalog.n_items() as u32;
    let model = PkgmModel::new(
        catalog.store.n_entities() as usize,
        catalog.store.n_relations() as usize,
        PkgmConfig::new(DIM).with_seed(run.seed),
    );
    let service = KnowledgeService::new(model, catalog.key_relation_selector(K));
    drop(catalog);
    let table = ServiceSnapshot::build(&service);
    let service_file = dir.join("service.pkgm");
    serialize::write_service_file(&StdIo, &service_file, &service)
        .unwrap_or_else(|e| util::die(&format!("write service: {e}")));
    let shard_files = write_shards(
        &table,
        shape.n_shards,
        shape.quantized,
        &dir.join("table.pkgmss3"),
    );
    let alt_file = dir.join("alt.pkgmss3");
    std::fs::copy(&shard_files[0], &alt_file)
        .unwrap_or_else(|e| util::die(&format!("copy shard: {e}")));
    let daemons = shard_files
        .iter()
        .enumerate()
        .map(|(i, f)| {
            fleet::spawn(
                &run.pkgm,
                &dir,
                &format!("shard{i}"),
                &service_file,
                f,
                shape.cache_capacity,
            )
        })
        .collect();
    World {
        dir,
        n_items,
        service,
        table,
        shard_files,
        alt_file,
        daemons,
    }
}

/// Cut `table` into `n_shards` entity-range PKGMSS3 files (int8 when
/// `quantized`), named `{base}.shard{K}of{N}` (`base` for one shard).
pub fn write_shards(
    table: &ServiceSnapshot,
    n_shards: u32,
    quantized: bool,
    base: &Path,
) -> Vec<PathBuf> {
    shard_ranges(table.n_rows() as u64, n_shards)
        .into_iter()
        .map(|(spec, len)| {
            let part = if n_shards == 1 {
                table.clone()
            } else {
                table
                    .shard_slice(spec, len)
                    .unwrap_or_else(|e| util::die(&format!("shard slice: {e}")))
            };
            let part = if quantized { part.quantize() } else { part };
            let bytes = snapshot_to_ss3_bytes(&part)
                .unwrap_or_else(|e| util::die(&format!("encode shard: {e}")));
            let path = pkgm_core::ooc::shard_file_path(base, spec.shard_id, n_shards);
            StdIo
                .write_atomic(&path, &bytes)
                .unwrap_or_else(|e| util::die(&format!("write shard: {e}")));
            path
        })
        .collect()
}

impl World {
    pub fn teardown(self) {
        for d in self.daemons {
            d.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

// ---------------------------------------------------------------------------
// Correctness: served rows against the shard files opened here
// ---------------------------------------------------------------------------

pub struct Verifier {
    shards: Vec<(u32, u32, ServiceSnapshot)>,
    /// Self-test hook: this id's expected row gets one bit flipped, so a
    /// correct daemon must be reported as wrong.
    poison: Option<u32>,
}

impl Verifier {
    pub fn open(files: &[PathBuf], poison: Option<u32>) -> Self {
        let shards = files
            .iter()
            .map(|f| {
                let s = open_mapped_snapshot(f, false)
                    .unwrap_or_else(|e| util::die(&format!("open {}: {e}", f.display())));
                let start = s.shard().row_start as u32;
                (start, start + s.n_rows() as u32, s)
            })
            .collect();
        Self { shards, poison }
    }

    /// Compare `rows` (served for `items`) with the files bit-for-bit:
    /// dense rows via `lookup_exact`, int8 rows dequantized the same way.
    pub fn check(
        &self,
        items: &[u32],
        rows: &[Vec<f32>],
        buf: &mut Vec<f32>,
    ) -> Result<(), String> {
        if rows.len() != items.len() {
            return Err(format!("{} rows for {} items", rows.len(), items.len()));
        }
        for (&id, row) in items.iter().zip(rows) {
            let snap = self
                .shard_of(id)
                .ok_or_else(|| format!("item {id} is in no shard"))?;
            if !snap.lookup_exact(EntityId(id), buf) {
                return Err(format!("item {id} missing from its shard file"));
            }
            if self.poison == Some(id) {
                buf[0] = f32::from_bits(buf[0].to_bits() ^ 1);
            }
            if row.len() != buf.len()
                || row
                    .iter()
                    .zip(buf.iter())
                    .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                return Err(format!("item {id}: served row differs from the shard file"));
            }
        }
        Ok(())
    }

    fn shard_of(&self, id: u32) -> Option<&ServiceSnapshot> {
        self.shards
            .iter()
            .find(|(lo, hi, _)| (*lo..*hi).contains(&id))
            .map(|(_, _, s)| s)
    }

    /// The rows the served files hold for `items`.
    pub fn expected(&self, items: &[u32]) -> Vec<Vec<f32>> {
        items
            .iter()
            .map(|&id| {
                let snap = self
                    .shard_of(id)
                    .unwrap_or_else(|| util::die(&format!("item {id} is in no shard")));
                let mut row = Vec::new();
                snap.lookup_exact(EntityId(id), &mut row);
                row
            })
            .collect()
    }

    pub fn snapshots(&self) -> impl Iterator<Item = &ServiceSnapshot> {
        self.shards.iter().map(|(_, _, s)| s)
    }
}

// ---------------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------------

/// One connection's client: a deadline-carrying retry client against a
/// single daemon, or a shard router over the fleet.
pub enum Caller {
    Direct(RetryClient),
    /// The router keeps its per-shard retry clients private, so their
    /// counters are read from the routed lookups that fail: a
    /// `RouterError::Lookup` is a give-up after `attempts - 1` retries.
    /// Retries that end in success stay invisible.
    Routed(ShardRouter, RetryStats),
}

fn policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_retries: 6,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(160),
        budget: None,
        seed,
    }
}

impl Caller {
    pub fn connect(addrs: &[String], seed: u64) -> Self {
        if addrs.len() == 1 {
            Caller::Direct(RetryClient::new(addrs[0].clone(), policy(seed)))
        } else {
            Caller::Routed(
                ShardRouter::connect(addrs, policy(seed))
                    .unwrap_or_else(|e| util::die(&format!("router connect: {e}"))),
                RetryStats::default(),
            )
        }
    }

    pub fn span_name(&self) -> &'static str {
        match self {
            Caller::Direct(_) => "retry.lookup_with_deadline",
            Caller::Routed(..) => "router.lookup",
        }
    }

    pub fn lookup(&mut self, items: &[u32]) -> Result<Vec<Vec<f32>>, String> {
        match self {
            Caller::Direct(c) => c
                .lookup_with_deadline(items, LOOKUP_BUDGET)
                .map_err(|e| e.to_string()),
            Caller::Routed(r, seen) => r.lookup(items).map_err(|e| {
                if let RouterError::Lookup { error, .. } = &e {
                    seen.give_ups += 1;
                    seen.retries += u64::from(error.attempts.saturating_sub(1));
                    if matches!(error.last, ClientError::DeadlineExceeded(_)) {
                        seen.deadline_misses += 1;
                    }
                }
                e.to_string()
            }),
        }
    }

    /// Retry counters: the client's own for `Direct`, those read from
    /// failed lookups for `Routed`.
    pub fn retry_stats(&self) -> RetryStats {
        match self {
            Caller::Direct(c) => c.stats(),
            Caller::Routed(_, seen) => *seen,
        }
    }

    pub fn router_stats(&self) -> Option<RouterStats> {
        match self {
            Caller::Direct(_) => None,
            Caller::Routed(r, _) => Some(r.stats()),
        }
    }
}

/// The seeded request batches of connection `conn`.
pub fn request_pool(shape: &Shape, n_items: u32, seed: u64, conn: u64, n: usize) -> Vec<Vec<u32>> {
    let mut rng =
        SmallRng::seed_from_u64(seed ^ 0xB47C_4E5D ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let zipf = shape
        .zipf
        .map(|s| Zipf::new(n_items as u64, s).expect("non-empty item set"));
    (0..n)
        .map(|_| {
            (0..shape.batch)
                .map(|_| match &zipf {
                    // 1-based rank → item id: rank 1 is the hottest item.
                    Some(z) => (z.sample(&mut rng) as u32 - 1).min(n_items - 1),
                    None => rng.gen_range(0..n_items),
                })
                .collect()
        })
        .collect()
}

/// One generator connection and its counters.
pub struct Conn {
    pub caller: Caller,
    pool: Vec<Vec<u32>>,
    next: usize,
    buf: Vec<f32>,
    pub failed: u64,
    pub mismatches: u64,
    pub first_error: Option<String>,
}

impl Conn {
    fn next_batch(&mut self) -> usize {
        let i = self.next % self.pool.len();
        self.next += 1;
        i
    }

    /// One lookup plus its check. Returns when the lookup returned (the
    /// check runs after that) if it succeeded and its rows were right.
    fn request(
        &mut self,
        verifier: &Verifier,
        spans: Option<(&mut SpanBuf, u64)>,
    ) -> Option<Instant> {
        let i = self.next_batch();
        let items = &self.pool[i];
        let (res, returned, check) = match spans {
            None => {
                let res = self.caller.lookup(items);
                let returned = Instant::now();
                let check = res
                    .as_ref()
                    .ok()
                    .map(|rows| verifier.check(items, rows, &mut self.buf));
                (res, returned, check)
            }
            Some((buf, req)) => {
                let root = buf.begin("request", None, req);
                let call = buf.begin(self.caller.span_name(), Some(root.id()), req);
                let res = self.caller.lookup(items);
                buf.end(call);
                let returned = Instant::now();
                let v = buf.begin("snapshot.verify", Some(root.id()), req);
                let check = res
                    .as_ref()
                    .ok()
                    .map(|rows| verifier.check(items, rows, &mut self.buf));
                buf.end(v);
                buf.end(root);
                (res, returned, check)
            }
        };
        self.record(res.map(|_| ()), check).then_some(returned)
    }

    /// Count a lookup's outcome; true if it succeeded with the right rows.
    fn record(&mut self, res: Result<(), String>, check: Option<Result<(), String>>) -> bool {
        match (res, check) {
            (Ok(()), Some(Ok(()))) => true,
            (Ok(()), Some(Err(e))) => {
                self.mismatches += 1;
                self.failed += 1;
                self.first_error.get_or_insert(e);
                false
            }
            (Err(e), _) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
                false
            }
            (Ok(()), None) => unreachable!("a successful lookup is always checked"),
        }
    }

    /// Look up every id of `ids` once, `batch` at a time, checking the
    /// rows, so a fresh cache generation holds them all. Returns the
    /// lookups made.
    fn warm(&mut self, verifier: &Verifier, ids: &[u32], batch: usize) -> u64 {
        for chunk in ids.chunks(batch) {
            let res = self.caller.lookup(chunk);
            let check = res
                .as_ref()
                .ok()
                .map(|rows| verifier.check(chunk, rows, &mut self.buf));
            self.record(res.map(|_| ()), check);
        }
        ids.chunks(batch).len() as u64
    }
}

/// Every id the connections' request pools hold, ascending.
fn pooled_ids(conns: &[Conn]) -> Vec<u32> {
    let mut ids: Vec<u32> = conns.iter().flat_map(|c| c.pool.concat()).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

pub fn connect_all(shape: &Shape, world: &World, seed: u64, n: usize) -> Vec<Conn> {
    let addrs: Vec<String> = world.daemons.iter().map(|d| d.addr.clone()).collect();
    (0..n as u64)
        .map(|c| Conn {
            caller: Caller::connect(&addrs, seed ^ c),
            pool: request_pool(shape, world.n_items, seed, c, POOL_BATCHES),
            next: 0,
            buf: Vec::new(),
            failed: 0,
            mismatches: 0,
            first_error: None,
        })
        .collect()
}

/// Hot-swaps shard 0 between its two identical files on a fixed interval.
pub struct Reloader {
    client: DaemonClient,
    files: [String; 2],
    flip: bool,
    /// Round-trip times, ms, one list per round.
    pub rounds_ms: Vec<Vec<f64>>,
    pub errors: u64,
    /// When the next scheduled reload is due.
    next: Option<Instant>,
}

impl Reloader {
    pub fn new(world: &World) -> Self {
        let client = DaemonClient::connect(&world.daemons[0].addr)
            .unwrap_or_else(|e| util::die(&format!("reload client: {e}")));
        let files =
            [&world.alt_file, &world.shard_files[0]].map(|p| p.to_string_lossy().into_owned());
        Self {
            client,
            files,
            flip: false,
            rounds_ms: vec![Vec::new()],
            errors: 0,
            next: None,
        }
    }

    pub fn reload(&mut self) {
        let path = &self.files[self.flip as usize];
        self.flip = !self.flip;
        let t = Instant::now();
        match self.client.reload(path) {
            Ok(_) => self
                .rounds_ms
                .last_mut()
                .expect("a round is open")
                .push(secs(t) * 1e3),
            Err(e) => {
                eprintln!("[pipebench] reload failed: {e}");
                self.errors += 1;
            }
        }
    }

    /// Start the next round's list of round trips.
    pub fn next_round(&mut self) {
        self.rounds_ms.push(Vec::new());
    }

    pub fn samples(&self) -> usize {
        self.rounds_ms.iter().map(Vec::len).sum()
    }

    /// Each round's median round trip, ms.
    pub fn round_medians(&self) -> Vec<f64> {
        self.rounds_ms
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| median_f64(r))
            .collect()
    }

    /// Sleep until `until`, reloading every `every` if set. The schedule
    /// carries over between calls, so short windows still see reloads.
    fn pace(&mut self, until: Instant, every: Option<Duration>) {
        let Some(every) = every else {
            sleep_until(until);
            return;
        };
        let mut next = *self.next.get_or_insert_with(|| Instant::now() + every);
        while next < until {
            sleep_until(next);
            self.reload();
            next += every;
        }
        self.next = Some(next);
        sleep_until(until);
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

pub struct Closed {
    pub completed: u64,
    pub wall_s: f64,
    /// Completed lookups/s in each sub-window.
    pub rates: Vec<f64>,
    /// Mean lookup time, send to return, without the row check.
    pub mean_latency_ns: f64,
    /// Share of the connections' busy time spent checking rows.
    pub check_frac: f64,
}

/// Closed loop: every connection sends its next lookup as soon as the
/// last one returns and its rows are checked. Counts lookups that
/// complete inside the window, after `warmup`, per each of `subs` equal
/// sub-windows.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    conns: &mut [Conn],
    verifier: &Verifier,
    warmup: Duration,
    window: Duration,
    subs: u32,
    reloader: &mut Reloader,
    reload_every: Option<Duration>,
    tracer: Option<&Tracer>,
) -> Closed {
    let measuring = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let done = AtomicU64::new(0);
    let lat_ns = AtomicU64::new(0);
    let busy_ns = AtomicU64::new(0);
    let (measuring, stop, done, lat_ns, busy_ns) = (&measuring, &stop, &done, &lat_ns, &busy_ns);
    let mut wall_s = 0.0;
    let mut rates = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(ci, conn)| {
                s.spawn(move || {
                    let mut spans = tracer.map(Tracer::buf);
                    let mut req = (ci as u64) << 40;
                    while !stop.load(Ordering::Acquire) {
                        let t = Instant::now();
                        req += 1;
                        let returned = conn.request(verifier, spans.as_mut().map(|b| (b, req)));
                        if let Some(returned) =
                            returned.filter(|_| measuring.load(Ordering::Acquire))
                        {
                            done.fetch_add(1, Ordering::Relaxed);
                            lat_ns.fetch_add((returned - t).as_nanos() as u64, Ordering::Relaxed);
                            busy_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        reloader.pace(Instant::now() + warmup, reload_every);
        measuring.store(true, Ordering::Release);
        let t0 = Instant::now();
        let sub = window / subs;
        let (mut last_n, mut last_t) = (0, t0);
        for k in 1..=subs {
            reloader.pace(t0 + sub * k, reload_every);
            let (n, t) = (done.load(Ordering::Relaxed), Instant::now());
            rates.push((n - last_n) as f64 / (t - last_t).as_secs_f64());
            (last_n, last_t) = (n, t);
        }
        measuring.store(false, Ordering::Release);
        stop.store(true, Ordering::Release);
        wall_s = secs(t0);
        for h in handles {
            h.join().expect("generator thread panicked");
        }
    });
    let completed = done.load(Ordering::Relaxed);
    let (lat, busy) = (
        lat_ns.load(Ordering::Relaxed),
        busy_ns.load(Ordering::Relaxed),
    );
    Closed {
        completed,
        wall_s,
        rates,
        mean_latency_ns: lat as f64 / completed.max(1) as f64,
        check_frac: 1.0 - lat as f64 / busy.max(1) as f64,
    }
}

pub struct Open {
    /// Ascending latencies from each lookup's due time (ns), per round.
    pub latencies: Vec<Vec<u64>>,
    pub sent: u64,
    pub late: u64,
    pub max_lag_ns: u64,
}

impl Closed {
    fn merge(parts: Vec<Closed>) -> Closed {
        let completed: u64 = parts.iter().map(|c| c.completed).sum();
        let weighted = |f: fn(&Closed) -> f64| {
            parts.iter().map(|c| f(c) * c.completed as f64).sum::<f64>() / completed.max(1) as f64
        };
        Closed {
            completed,
            wall_s: parts.iter().map(|c| c.wall_s).sum(),
            rates: parts.iter().flat_map(|c| c.rates.iter().copied()).collect(),
            mean_latency_ns: weighted(|c| c.mean_latency_ns),
            check_frac: weighted(|c| c.check_frac),
        }
    }
}

impl Open {
    /// The `p`-th percentile over every round's samples, in ms.
    pub fn pooled(&self, p: f64) -> f64 {
        let mut all = self.latencies.concat();
        all.sort_unstable();
        percentile(&all, p) as f64 / 1e6
    }

    fn merge(parts: Vec<Open>) -> Open {
        Open {
            sent: parts.iter().map(|o| o.sent).sum(),
            late: parts.iter().map(|o| o.late).sum(),
            max_lag_ns: parts.iter().map(|o| o.max_lag_ns).max().unwrap_or(0),
            latencies: parts.into_iter().flat_map(|o| o.latencies).collect(),
        }
    }

    /// Each round's `p`-th percentile, in ms.
    pub fn per_round(&self, p: f64) -> Vec<f64> {
        self.latencies
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| percentile(l, p) as f64 / 1e6)
            .collect()
    }

    /// The median over rounds of each round's `p`-th percentile, and the
    /// total sample count.
    pub fn percentile(&self, p: f64) -> (f64, usize) {
        (
            median_f64(&self.per_round(p)),
            self.latencies.iter().map(Vec::len).sum(),
        )
    }
}

/// One connection's open-loop record: latency samples (ns), sends, late
/// sends and its largest lag in ns.
type ConnLoad = (Vec<u64>, u64, u64, u64);

/// One round of open loop at `rate` lookups/s over all connections:
/// connection `c` sends lookup `i` at `t0 + (i·n + c)/rate` whether or not
/// earlier ones have returned, and each latency is timed from that due
/// time.
pub fn open_loop(
    conns: &mut [Conn],
    verifier: &Verifier,
    rate: f64,
    window: Duration,
    reloader: &mut Reloader,
    reload_every: Option<Duration>,
) -> Open {
    let n = conns.len() as u64;
    let t0 = Instant::now() + Duration::from_millis(20);
    let end = t0 + window;
    let per_conn: Vec<ConnLoad> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(ci, conn)| {
                s.spawn(move || {
                    let mut lat = Vec::new();
                    let (mut sent, mut late, mut max_lag) = (0u64, 0u64, 0u64);
                    for i in 0u64.. {
                        let at = (i * n + ci as u64) as f64 / rate;
                        let due = t0 + Duration::from_secs_f64(at);
                        if due >= end {
                            break;
                        }
                        wait_until(due);
                        let lag = Instant::now().saturating_duration_since(due);
                        max_lag = max_lag.max(lag.as_nanos() as u64);
                        late += u64::from(lag > LATE);
                        sent += 1;
                        if let Some(returned) = conn.request(verifier, None) {
                            lat.push((returned - due).as_nanos() as u64);
                        }
                    }
                    (lat, sent, late, max_lag)
                })
            })
            .collect();
        reloader.pace(end, reload_every);
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut latencies: Vec<u64> = per_conn.iter().flat_map(|p| p.0.iter().copied()).collect();
    latencies.sort_unstable();
    Open {
        latencies: vec![latencies],
        sent: per_conn.iter().map(|p| p.1).sum(),
        late: per_conn.iter().map(|p| p.2).sum(),
        max_lag_ns: per_conn.iter().map(|p| p.3).max().unwrap_or(0),
    }
}

/// Sleep to just short of `due` (thread wake-ups overshoot by the timer
/// slack, ~50 µs on Linux), then yield the CPU until it arrives.
fn wait_until(due: Instant) {
    const SLACK: Duration = Duration::from_micros(60);
    let now = Instant::now();
    if due > now + SLACK {
        std::thread::sleep(due - now - SLACK);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

// ---------------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------------

pub fn run(run: &Run, values: &mut Values, out: &mut Outcome) {
    let shape = shape(&run.workload, run.smoke, run.seed);
    let setups = if run.trace { 1 } else { 3 };
    let mut setup_s = Vec::new();
    let mut world = None;
    for i in 0..setups {
        util::phase(&format!("setup {}", i + 1), Duration::from_secs(120));
        let t = Instant::now();
        let w = setup(&shape, run, i);
        setup_s.push(secs(t));
        if let Some(old) = world.replace(w) {
            World::teardown(old);
        }
    }
    let world = world.expect("at least one set-up");
    values.set("setup_s", median_f64(&setup_s));
    println!(
        "setup_s {:.4} s (median of {})",
        median_f64(&setup_s),
        setup_s.len()
    );

    let poison = run
        .inject_wrong_row
        .then(|| request_pool(&shape, world.n_items, run.seed, 0, 1)[0][0]);
    let verifier = Verifier::open(&world.shard_files, poison);
    let nconn = util::host_cpus();
    let mut conns = connect_all(&shape, &world, run.seed, nconn);
    let mut reloader = Reloader::new(&world);
    let secs_total = run.seconds as f64;
    let warmup = Duration::from_secs_f64((secs_total / 10.0).min(1.0));

    if run.trace {
        traced(
            run,
            &shape,
            &world,
            &verifier,
            &mut conns,
            &mut reloader,
            warmup,
            values,
            out,
        );
    } else {
        // Closed and open windows alternate over ROUNDS rounds, so a slow
        // spell on the host lands on both load shapes alike. With no
        // reloads under traffic, each round starts with a group of idle
        // reloads, then looks up every pooled id once so its windows see
        // a warm cache again.
        let window = Duration::from_secs_f64(secs_total * 0.45 / ROUNDS as f64);
        let warm_ids = shape.reload_every.is_none().then(|| pooled_ids(&conns));
        let (mut closed, mut open) = (Vec::new(), Vec::new());
        for r in 0..ROUNDS {
            reloader.next_round();
            if let Some(ids) = &warm_ids {
                util::phase(&format!("idle reloads {}", r + 1), Duration::from_secs(60));
                for _ in 0..IDLE_RELOADS_PER_ROUND {
                    reloader.reload();
                }
                out.attempted += conns[0].warm(&verifier, ids, shape.batch);
            }
            let warm = if r == 0 { warmup } else { Duration::ZERO };
            util::phase(
                &format!("closed loop {}", r + 1),
                window + warm + Duration::from_secs(60),
            );
            closed.push(closed_loop(
                &mut conns,
                &verifier,
                warm,
                window,
                SUBS / ROUNDS,
                &mut reloader,
                shape.reload_every,
                None,
            ));
            util::phase(
                &format!("open loop {}", r + 1),
                window + Duration::from_secs(60),
            );
            open.push(open_loop(
                &mut conns,
                &verifier,
                shape.open_rate,
                window,
                &mut reloader,
                shape.reload_every,
            ));
        }
        let closed = Closed::merge(closed);
        let open = Open::merge(open);
        let rounds = open.latencies.len();
        let peak_rps = median_f64(&closed.rates);
        // p50 and idle reload time are each the lowest of the rounds'
        // medians. A round on a contended host reads up to ten times
        // slower: a halted vCPU waits for the hypervisor on every wake-up,
        // and the open loop falls behind. Such rounds measure the host, so
        // the least-disturbed round is reported; a slower program is
        // slower in every round. Reloads under traffic come about twice a
        // round, too few for a round median, so there it is the median of
        // all. p90 is the median of per-round p90s (serve-wide's smallest
        // round still holds over ten samples beyond it); p99 needs every
        // round's samples.
        let round_p50 = open.per_round(50.0);
        let p50 = round_p50.iter().copied().fold(f64::INFINITY, f64::min);
        let (p90, n) = open.percentile(90.0);
        let p99 = open.pooled(99.0);
        let stats: Vec<_> = world.daemons.iter().map(DaemonProc::stats).collect();
        let rss: f64 = world.daemons.iter().map(|d| d.status_mb("VmHWM")).sum();
        let round_reload = reloader.round_medians();
        let reload_ms = if shape.reload_every.is_some() {
            median_f64(&reloader.rounds_ms.concat())
        } else {
            round_reload.iter().copied().fold(f64::INFINITY, f64::min)
        };
        values.set("throughput", peak_rps);
        values.set("p50_ms", p50);
        values.set("peak_rss_mb", rss);
        values.set("publish_ms", reload_ms);
        out.attempted += closed.completed + open.sent;
        println!(
            "peak_rps {peak_rps:.1} lookups/s (median of {} sub-windows; {} lookups, {nconn} connections, {:.2} s)",
            closed.rates.len(), closed.completed, closed.wall_s
        );
        println!(
            "p50_ms {p50:.4} ms (n={n}, lowest of {rounds} round p50s, median round {:.4} ms; open loop at {} lookups/s)",
            median_f64(&round_p50),
            shape.open_rate
        );
        println!("p90_ms {p90:.4} ms (n={n}, median of {rounds} rounds)");
        println!("p99_ms {p99:.4} ms (n={n}, pooled over {rounds} rounds)");
        println!(
            "serve_rss_mb {rss:.2} MiB ({} daemons)",
            world.daemons.len()
        );
        println!(
            "reload_ms {reload_ms:.4} ms (n={}, {})",
            reloader.samples(),
            if shape.reload_every.is_some() {
                "median of all, under traffic".to_string()
            } else {
                format!(
                    "lowest of {} round medians, median round {:.4} ms; idle, at the start of each round",
                    round_reload.len(),
                    median_f64(&round_reload)
                )
            }
        );
        out.prov_list("closed_loop_subwindow_rps", &closed.rates);
        out.prov("closed_loop_check_frac", closed.check_frac);
        out.prov("open_loop_rate", shape.open_rate);
        out.prov("open_loop_sent", open.sent as f64);
        out.prov(
            "open_loop_late_frac",
            open.late as f64 / open.sent.max(1) as f64,
        );
        out.prov("open_loop_max_lag_ms", open.max_lag_ns as f64 / 1e6);
        out.prov("latency_samples", n as f64);
        out.prov("rounds", ROUNDS as f64);
        out.prov("p99_samples_beyond", (n as f64 * 0.01).floor());
        out.prov_list("open_loop_round_p90_ms", &open.per_round(90.0));
        out.prov_list("open_loop_round_p50_ms", &round_p50);
        out.prov("reload_samples", reloader.samples() as f64);
        out.prov_list("reload_round_median_ms", &round_reload);
        let shed = sum_stat(&stats, &["batch", "shed"]);
        let rejected = sum_stat(&stats, &["conns_rejected"]);
        out.failed += (shed + rejected) as u64 + reloader.errors;
        println!(
            "daemon shed {shed}, conns_rejected {rejected}, reload errors {}",
            reloader.errors
        );
    }
    for c in &conns {
        out.failed += c.failed;
        out.mismatches += c.mismatches;
        if let Some(e) = &c.first_error {
            eprintln!("[pipebench] first client error: {e}");
        }
    }
    drop(conns);
    drop(reloader);
    util::phase("teardown", Duration::from_secs(30));
    world.teardown();
}

#[allow(clippy::too_many_arguments)]
fn traced(
    run: &Run,
    shape: &Shape,
    world: &World,
    verifier: &Verifier,
    conns: &mut [Conn],
    reloader: &mut Reloader,
    warmup: Duration,
    values: &mut Values,
    out: &mut Outcome,
) {
    let tracer = &run.tracer;
    // Untraced and traced closed loops alternate, so host drift falls on
    // both sides of the overhead ratio alike.
    let window = Duration::from_secs_f64(run.seconds as f64 * 0.4 / ROUNDS as f64);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for r in 0..ROUNDS {
        let warm = if r == 0 { warmup } else { Duration::ZERO };
        util::phase(
            &format!("closed loop {}", r + 1),
            2 * window + warm + Duration::from_secs(60),
        );
        let subs = SUBS / ROUNDS;
        plain.push(closed_loop(
            conns,
            verifier,
            warm,
            window,
            subs,
            reloader,
            shape.reload_every,
            None,
        ));
        traced.push(closed_loop(
            conns,
            verifier,
            Duration::ZERO,
            window,
            subs,
            reloader,
            shape.reload_every,
            Some(tracer),
        ));
    }
    let (plain, traced) = (Closed::merge(plain), Closed::merge(traced));
    out.attempted += plain.completed + traced.completed;
    let plain_rps = median_f64(&plain.rates);
    let traced_rps = median_f64(&traced.rates);
    values.set("trace.overhead_frac", 1.0 - traced_rps / plain_rps);
    println!("untraced {plain_rps:.1} lookups/s, traced {traced_rps:.1} lookups/s");

    let (mut retries, mut give_ups, mut misses) = (0, 0, 0);
    let mut rstats = RouterStats::default();
    for c in conns.iter() {
        let s = c.caller.retry_stats();
        retries += s.retries;
        give_ups += s.give_ups;
        misses += s.deadline_misses;
        if let Some(s) = c.caller.router_stats() {
            rstats.lookups += s.lookups;
            rstats.sub_lookups += s.sub_lookups;
            rstats.redirects += s.redirects;
            rstats.map_loads += s.map_loads;
        }
    }
    values.set("retry.retries", retries as f64);
    values.set("retry.give_ups", give_ups as f64);
    values.set("retry.deadline_misses", misses as f64);
    if rstats.lookups > 0 {
        println!("retry.* read from failed routed lookups: the router's retry clients are private, so retries that ended in success are not counted");
    }

    util::phase("serving probes", Duration::from_secs(120));
    let mut buf = tracer.buf();
    let pools: Vec<Vec<u32>> = request_pool(shape, world.n_items, run.seed ^ 0x7E57, 99, 256);
    let fleet = probes::Fleet {
        daemons: &world.daemons,
        service: &world.service,
        table: &world.table,
        served: verifier,
        shard_files: &world.shard_files,
        dir: &world.dir,
    };
    let accounted_us = probes::serving(&mut buf, &fleet, &pools, rstats, true, values, out);
    values.set(
        "trace.unaccounted_frac",
        1.0 - accounted_us * 1e3 / plain.mean_latency_ns,
    );
    println!(
        "accounted {accounted_us:.2} us of the untraced mean latency {:.2} us",
        plain.mean_latency_ns / 1e3
    );
    drop(buf);

    util::phase("training probes", Duration::from_secs(120));
    // Training layers sit idle while serving; they are timed on a
    // small world of the same seed so every traced run reports them.
    let cfg = if run.smoke {
        CatalogConfig::tiny(run.seed)
    } else {
        CatalogConfig::small(run.seed)
    };
    let catalog = Catalog::generate(&cfg);
    let mut buf = tracer.buf();
    probes::training(&mut buf, &catalog, &world.dir, run.seed, None, values, out);
}
