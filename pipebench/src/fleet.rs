//! Child `pkgm daemon serve` processes: spawn, readiness, stats, RSS and
//! graceful stop. Each daemon is its own process, so its CPU and memory
//! stay apart from the load generator's.

use crate::util::{self, proc_status_mb};
use pkgm_core::DaemonClient;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Connection cap passed to every daemon: far above the generator's
/// `nproc` connections per daemon.
const MAX_CONNS: usize = 64;

pub struct DaemonProc {
    pub addr: String,
    pub pid: u32,
}

/// Spawn `pkgm daemon serve` on an ephemeral port and wait until it
/// answers `ready`.
pub fn spawn(
    pkgm: &Path,
    dir: &Path,
    name: &str,
    service: &Path,
    snapshot: &Path,
    cache_capacity: usize,
) -> DaemonProc {
    let addr_file = dir.join(format!("{name}.addr"));
    let log = std::fs::File::create(dir.join(format!("{name}.log")))
        .unwrap_or_else(|e| util::die(&format!("create daemon log: {e}")));
    let _ = std::fs::remove_file(&addr_file);
    let child = Command::new(pkgm)
        .arg("daemon")
        .arg("serve")
        .arg("--service")
        .arg(service)
        .arg("--snapshot")
        .arg(snapshot)
        .args(["--addr", "127.0.0.1:0", "--addr-file"])
        .arg(&addr_file)
        .args(["--cache-capacity", &cache_capacity.to_string()])
        .args(["--max-conns", &MAX_CONNS.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .unwrap_or_else(|e| util::die(&format!("spawn {}: {e}", pkgm.display())));
    let pid = child.id();
    util::register_child(child);
    // The phase watchdog bounds this wait.
    let addr = loop {
        if let Some(a) = std::fs::read_to_string(&addr_file)
            .ok()
            .filter(|s| s.trim().parse::<std::net::SocketAddr>().is_ok())
        {
            break a.trim().to_string();
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    loop {
        if let Ok(true) = DaemonClient::connect(&addr).and_then(|mut c| c.ready()) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    DaemonProc { addr, pid }
}

impl DaemonProc {
    pub fn stats(&self) -> serde_json::Value {
        DaemonClient::connect(&self.addr)
            .and_then(|mut c| c.stats())
            .unwrap_or_else(|e| util::die(&format!("stats from {}: {e}", self.addr)))
    }

    /// `/proc/<pid>/status` field in MiB.
    pub fn status_mb(&self, key: &str) -> f64 {
        proc_status_mb(&self.pid.to_string(), key).unwrap_or(0.0)
    }

    /// Ask the daemon to shut down, then reap it (killing it if it has not
    /// exited within a few seconds).
    pub fn stop(self) {
        let _ = DaemonClient::connect(&self.addr).and_then(|mut c| c.shutdown());
        util::reap_child(self.pid, Duration::from_secs(5));
    }
}

/// Sum a numeric field over the daemons' `stats` replies; `path` walks
/// nested objects (`["batch", "shed"]`).
pub fn sum_stat(stats: &[serde_json::Value], path: &[&str]) -> f64 {
    stats
        .iter()
        .map(|s| {
            path.iter()
                .try_fold(s, |v, k| v.get(k))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
        })
        .sum()
}

/// A fresh work directory under `root`, emptied if it exists.
pub fn fresh_dir(root: &Path, name: &str) -> PathBuf {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| util::die(&format!("create {}: {e}", dir.display())));
    dir
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
