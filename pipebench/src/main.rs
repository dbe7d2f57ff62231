//! `pipebench` — the PKGM pipeline benchmark.
//!
//! ```sh
//! bash pipebench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Three workloads run end to end through the shipped public API:
//! `serve-hot` and `serve-wide` drive child `pkgm daemon serve` processes,
//! `pretrain` trains, publishes and ranks in process. `--trace 0` prints
//! the end-to-end metrics, `--trace 1` the per-layer ones (see
//! `metrics.rs`). Every output is checked; a wrong row or rank makes the
//! run print `"correct": false` and exit 1. The last stdout line is the
//! JSON result.

mod fleet;
mod metrics;
mod pretrain;
mod probes;
mod serve;
mod trace;
mod util;

use metrics::{Values, END_TO_END, PER_LAYER};
use serde_json::Value;
use std::path::PathBuf;
use std::time::Duration;
use trace::Tracer;

/// One invocation's settings.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Small worlds, for the self-test.
    pub smoke: bool,
    /// Self-test hook: corrupt one expected row.
    pub inject_wrong_row: bool,
    pub pkgm: PathBuf,
    pub work: PathBuf,
    pub tracer: Tracer,
}

/// Counts and provenance gathered while a workload runs.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    provenance: Vec<(String, Value)>,
}

impl Outcome {
    pub fn prov(&mut self, key: &str, v: f64) {
        self.prov_value(key, Value::Number(v));
    }

    pub fn prov_list(&mut self, key: &str, v: &[f64]) {
        self.prov_value(
            key,
            Value::Array(v.iter().map(|&x| Value::Number(x)).collect()),
        );
    }

    fn prov_value(&mut self, key: &str, v: Value) {
        self.provenance.retain(|(k, _)| k != key);
        self.provenance.push((key.to_string(), v));
    }
}

const WORKLOADS: &[&str] = &["serve-hot", "serve-wide", "pretrain"];

fn usage() -> ! {
    eprintln!(
        "usage: pipebench --workload {{serve-hot|serve-wide|pretrain}} --seed N --seconds S \
         --trace {{0|1}} --pkgm PATH [--smoke] [--inject-wrong-row]"
    );
    std::process::exit(2);
}

fn parse() -> Run {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut pkgm) = (None, None, None, None, None);
    let (mut smoke, mut inject) = (false, false);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(val()),
            "--seed" => seed = val().parse::<u64>().ok(),
            "--seconds" => seconds = val().parse::<u64>().ok(),
            "--trace" => trace = Some(val() == "1"),
            "--pkgm" => pkgm = Some(PathBuf::from(val())),
            "--smoke" => smoke = true,
            "--inject-wrong-row" => inject = true,
            _ => usage(),
        }
    }
    let workload = workload
        .filter(|w| WORKLOADS.contains(&w.as_str()))
        .unwrap_or_else(|| usage());
    let (Some(seed), Some(seconds), Some(trace), Some(pkgm)) = (seed, seconds, trace, pkgm) else {
        usage()
    };
    if !pkgm.is_file() {
        eprintln!("[pipebench] no pkgm binary at {}", pkgm.display());
        std::process::exit(2);
    }
    let work = PathBuf::from(".pipebench_work").join(format!("{workload}-{}", std::process::id()));
    Run {
        workload,
        seed,
        seconds: seconds.max(1),
        trace,
        smoke,
        inject_wrong_row: inject,
        pkgm,
        work,
        tracer: Tracer::new(),
    }
}

fn main() {
    let run = parse();
    util::start_watchdog();
    println!(
        "pipebench workload={} seed={} seconds={} trace={}",
        run.workload, run.seed, run.seconds, run.trace as u8
    );
    let mut values = Values::default();
    let mut out = Outcome::default();
    out.prov("host_calibration_ms", util::host_calibration_ms());
    out.prov("host_wakeup_us", util::host_wakeup_us());
    let cpu0 = util::cpu_ticks();
    let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match run.workload.as_str() {
            "pretrain" => pretrain::run(&run, &mut values, &mut out),
            _ => serve::run(&run, &mut values, &mut out),
        }
    }));
    if body.is_err() {
        util::die("the benchmark panicked");
    }
    if let (Some((steal0, all0)), Some((steal1, all1))) = (cpu0, util::cpu_ticks()) {
        out.prov(
            "host_steal_frac",
            (steal1 - steal0) as f64 / (all1 - all0).max(1) as f64,
        );
    }
    util::phase("report", Duration::from_secs(60));
    let _ = std::fs::remove_dir_all(&run.work);
    let _ = std::fs::remove_dir(".pipebench_work");

    let defs = if run.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for d in defs {
        let v = values
            .get(d.name)
            .unwrap_or_else(|| util::die(&format!("metric {} was not measured", d.name)));
        if !v.is_finite() {
            util::die(&format!("metric {} is not finite ({v})", d.name));
        }
        let kind = if run.trace { "layer" } else { "metric" };
        println!(
            "{kind} {} {v:.6} {} ({} is better)  [{}]",
            d.name, d.unit, d.better, d.note
        );
        metrics.push((
            d.name.to_string(),
            serde_json::json!({ "value": v, "unit": d.unit }),
        ));
    }
    if run.trace {
        let path = PathBuf::from(".pipebench_out")
            .join(format!("trace-{}-seed{}.jsonl", run.workload, run.seed));
        match run.tracer.write_jsonl(&path) {
            Ok(()) => println!("trace spans written to {}", path.display()),
            Err(e) => util::die(&format!("write trace: {e}")),
        }
        for (name, v) in run.tracer.self_times_ns() {
            println!(
                "span {name}: {} spans, median self time {:.3} us",
                v.len(),
                util::median_f64(&v) / 1e3
            );
        }
    }
    out.prov_value("git_sha", Value::String(util::git_sha()));
    out.prov("host_cpus", util::host_cpus() as f64);
    out.prov_value("simd", Value::String(pkgm_core::simd::describe()));
    out.prov("rayon_threads", rayon::current_num_threads() as f64);
    out.prov_value("workload", Value::String(run.workload.clone()));
    out.prov("seed", run.seed as f64);
    out.prov("seconds", run.seconds as f64);
    out.prov(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.prov("mismatches", out.mismatches as f64);
    let prov = Value::Object(std::mem::take(&mut out.provenance));
    println!(
        "provenance {}",
        serde_json::to_string(&prov).expect("provenance serializes")
    );

    let correct = out.mismatches == 0;
    let result = serde_json::json!({
        "correct": correct,
        "attempted": out.attempted.max(1),
        "failed": out.failed,
        "metrics": Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    util::kill_children();
    if !correct {
        eprintln!("[pipebench] FAIL: {} output mismatch(es)", out.mismatches);
        std::process::exit(1);
    }
}
