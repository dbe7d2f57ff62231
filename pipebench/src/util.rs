//! Small helpers: order statistics, `/proc` readings, the phase watchdog
//! and the registry of child daemons it kills.

use std::process::Child;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted floats.
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    if v.is_empty() {
        return 0.0;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// A `kB` field of `/proc/<pid>/status` in MiB (`pid = "self"` for us).
pub fn proc_status_mb(pid: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line[key.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Host-wide CPU time stolen by the hypervisor and in all, in ticks, from
/// the first line of `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Reset this process's VmHWM so a later reading covers one phase only.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Host speed reference: median ms of a fixed single-threaded integer
/// loop, for reading results from a shared or throttled host.
pub fn host_calibration_ms() -> f64 {
    let times: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0u64;
            for i in 0..4_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
            std::hint::black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median_f64(&times)
}

/// Host wake-up reference: median µs of a round trip between two threads
/// over channels. Serving throughput and latency follow this figure on a
/// virtualized host, where waking an idle vCPU can take milliseconds.
pub fn host_wakeup_us() -> f64 {
    let (to, from_main) = std::sync::mpsc::channel::<u64>();
    let (back, from_peer) = std::sync::mpsc::channel::<u64>();
    std::thread::scope(|s| {
        s.spawn(move || {
            for x in from_main {
                if back.send(x).is_err() {
                    break;
                }
            }
        });
        let times: Vec<f64> = (0..400u64)
            .map(|i| {
                let t = Instant::now();
                to.send(i).expect("peer alive");
                from_peer.recv().expect("peer replies");
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        drop(to);
        median_f64(&times)
    })
}

/// The commit the benchmark runs on, from `.git` in the working directory,
/// or `"unknown"` in a checkout without git metadata.
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["--git-dir", ".git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

// ---------------------------------------------------------------------------
// Child daemons and the watchdog
// ---------------------------------------------------------------------------

static CHILDREN: Mutex<Vec<Child>> = Mutex::new(Vec::new());
static PHASE: Mutex<Option<(String, Instant)>> = Mutex::new(None);

/// Track a spawned daemon so a failing or timed-out run can kill it.
pub fn register_child(child: Child) {
    CHILDREN
        .lock()
        .expect("child registry poisoned")
        .push(child);
}

/// Wait up to `grace` for child `pid` to exit on its own, then kill it;
/// reaps it either way and drops it from the registry.
pub fn reap_child(pid: u32, grace: Duration) {
    let deadline = Instant::now() + grace;
    loop {
        let mut children = CHILDREN.lock().expect("child registry poisoned");
        let Some(pos) = children.iter().position(|c| c.id() == pid) else {
            return;
        };
        let exited = matches!(children[pos].try_wait(), Ok(Some(_)));
        if exited || Instant::now() >= deadline {
            let mut child = children.swap_remove(pos);
            drop(children);
            if !exited {
                let _ = child.kill();
            }
            let _ = child.wait();
            return;
        }
        drop(children);
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Kill and reap every registered daemon.
pub fn kill_children() {
    let mut children = match CHILDREN.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    for mut c in children.drain(..) {
        let _ = c.kill();
        let _ = c.wait();
    }
}

/// Kill the daemons and exit nonzero without printing a result.
pub fn die(msg: &str) -> ! {
    eprintln!("[pipebench] FAIL: {msg}");
    kill_children();
    std::process::exit(1);
}

/// Unwrap `r`, or fail the run naming `what`.
pub fn ok<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    r.unwrap_or_else(|e| die(&format!("{what}: {e}")))
}

/// Enter a named phase that must finish within `limit`.
pub fn phase(name: &str, limit: Duration) {
    eprintln!("[pipebench] phase {name}");
    *PHASE.lock().expect("phase poisoned") = Some((name.to_string(), Instant::now() + limit));
}

/// Start the watchdog thread: once the current phase overruns its limit it
/// kills the daemons and exits nonzero, naming the phase.
pub fn start_watchdog() {
    std::thread::spawn(|| loop {
        std::thread::sleep(Duration::from_millis(50));
        let overrun = PHASE
            .lock()
            .ok()
            .and_then(|p| p.clone())
            .filter(|(_, deadline)| Instant::now() > *deadline);
        if let Some((name, _)) = overrun {
            die(&format!("watchdog: phase '{name}' overran its time limit"));
        }
    });
}
