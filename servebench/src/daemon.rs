//! Spawning, probing and stopping one `slotsel serve --live` process.

use std::fs::File;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http;
use crate::workload::{Workload, CYCLE_ADVANCE, CYCLE_MS, INTERVAL};

/// Longest a daemon may take from spawn to its first healthy probe.
const READY_TIMEOUT: Duration = Duration::from_secs(120);

/// Longest a graceful shutdown may take before the daemon is killed.
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(60);

/// The stdout line announcing the API address (see `cmd_serve_live`).
const ADDR_LINE: &str = "live submit API on http://";

/// A running daemon. Dropping it kills the process and waits for it, so
/// no error path leaves one behind.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns the daemon for `workload`, journaling into `journal_dir`
    /// (with `recover`, resuming the journal already there), and waits
    /// until `GET /healthz` answers 200. Returns the daemon and the time
    /// from spawn to that first healthy answer. Its stdout goes to `log`,
    /// where the bench reads the ephemeral port it bound.
    pub fn spawn(
        slotsel: &Path,
        workload: &Workload,
        seed: u64,
        journal_dir: &Path,
        log: &Path,
        recover: bool,
    ) -> Result<(Daemon, Duration), String> {
        let log_file = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut command = Command::new(slotsel);
        command
            .args(["serve", "--live", "--addr", "127.0.0.1:0"])
            .arg("--journal-dir")
            .arg(journal_dir)
            .args(["--shards", &workload.shards.to_string()])
            .args(["--nodes", &workload.nodes.to_string()])
            .args(["--interval", &INTERVAL.to_string()])
            .args(["--cycle-advance", &CYCLE_ADVANCE.to_string()])
            .args(["--cycle-ms", &CYCLE_MS.to_string()])
            .args(["--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .stdout(log_file)
            .stderr(Stdio::null());
        if recover {
            command.arg("--recover");
        }
        let started = Instant::now();
        let child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", slotsel.display()))?;
        // Own the child before anything can fail, so Drop reaps it.
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        daemon.addr = daemon.wait_for_addr(log, started)?;
        loop {
            if let Ok(response) = http::request(daemon.addr, "GET", "/healthz", "") {
                if response.status == 200 {
                    return Ok((daemon, started.elapsed()));
                }
            }
            daemon.check_alive(log, started)?;
            // Spin rather than sleep: `setup_s` is a few milliseconds on
            // small platforms, and a sleep's wake-up would blur it.
            std::thread::yield_now();
        }
    }

    fn wait_for_addr(&mut self, log: &Path, started: Instant) -> Result<SocketAddr, String> {
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(rest) = text.split_once(ADDR_LINE).map(|(_, rest)| rest) {
                if let Some((addr, _)) = rest.split_once("/submit") {
                    return addr
                        .parse()
                        .map_err(|e| format!("daemon announced a bad address {addr:?}: {e}"));
                }
            }
            self.check_alive(log, started)?;
            std::thread::yield_now();
        }
    }

    fn check_alive(&mut self, log: &Path, started: Instant) -> Result<(), String> {
        let exited = self.child.try_wait().map_err(|e| e.to_string())?;
        if let Some(status) = exited {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            return Err(format!("daemon exited during start-up ({status}): {text}"));
        }
        if started.elapsed() > READY_TIMEOUT {
            return Err(format!("daemon not healthy after {READY_TIMEOUT:?}"));
        }
        Ok(())
    }

    /// The API address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's peak resident set (`VmHWM`) so far, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// Asks the daemon to stop (`POST /shutdown`) and waits for a clean
    /// exit: journal flushed and final snapshot written.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = http::request(self.addr, "POST", "/shutdown", "")
            .map_err(|e| format!("POST /shutdown: {e}"))?;
        if asked.status != 200 {
            return Err(format!("POST /shutdown answered {}", asked.status));
        }
        let deadline = Instant::now() + SHUTDOWN_TIMEOUT;
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon shut down with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(format!(
            "daemon still running {SHUTDOWN_TIMEOUT:?} after /shutdown"
        ))
    }

    /// SIGKILLs the daemon without waiting; `Drop` reaps it.
    pub fn kill_now(&mut self) {
        let _ = self.child.kill();
    }

    /// SIGKILLs the daemon and waits for it to be gone: a crash.
    pub fn kill(mut self) -> Result<(), String> {
        self.child.kill().map_err(|e| format!("kill: {e}"))?;
        self.child.wait().map_err(|e| format!("wait: {e}"))?;
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Total bytes of the regular files under `dir`, recursively, in MB.
pub fn dir_mb(dir: &Path) -> Result<f64, String> {
    let mut bytes = 0u64;
    let mut pending: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(dir) = pending.pop() {
        for entry in std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))? {
            let entry = entry.map_err(|e| e.to_string())?;
            let meta = entry.metadata().map_err(|e| e.to_string())?;
            if meta.is_dir() {
                pending.push(entry.path());
            } else {
                bytes += meta.len();
            }
        }
    }
    Ok(bytes as f64 / (1024.0 * 1024.0))
}
