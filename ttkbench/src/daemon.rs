//! Real-daemon harness: spawns `ttk serve` / `ttk serve-shard` processes,
//! times spawn-to-ready, captures each daemon's stderr, reads its peak RSS,
//! and drains it with SIGTERM.
//!
//! A daemon is never leaked: `Drop` kills and reaps a daemon that was not
//! drained (also while the benchmark unwinds from a panic), and every
//! daemon is started with a parent-death signal, so even a benchmark killed
//! outright takes its daemons with it.

use std::fs::File;
use std::os::raw::{c_int, c_ulong};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use crate::metrics::vm_hwm_mb;

extern "C" {
    fn kill(pid: c_int, sig: c_int) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

const SIGKILL: c_ulong = 9;
const SIGTERM: c_int = 15;
const PR_SET_PDEATHSIG: c_int = 1;

/// How long a daemon may take to publish its port file.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a SIGTERM drain may take before the daemon is killed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// A running daemon owned by the benchmark.
#[derive(Debug)]
pub struct Daemon {
    name: String,
    child: Option<Child>,
    stderr_path: PathBuf,
    /// The `host:port` the daemon published in its port file.
    pub addr: String,
    /// Spawn to port file.
    pub ready: Duration,
}

impl Daemon {
    /// Spawns `ttk <args> --port-file <dir>/<name>.port`, sending the
    /// daemon's stderr to `<dir>/<name>.stderr`, and waits until the port
    /// file appears (daemons write it atomically once they listen).
    pub fn spawn(ttk: &Path, name: &str, args: &[String], dir: &Path) -> Result<Daemon, String> {
        let port_file = dir.join(format!("{name}.port"));
        let stderr_path = dir.join(format!("{name}.stderr"));
        let _ = std::fs::remove_file(&port_file);
        let stderr = File::create(&stderr_path)
            .map_err(|e| format!("creating {}: {e}", stderr_path.display()))?;
        let mut command = Command::new(ttk);
        command
            .args(args)
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr);
        // SAFETY: the closure runs in the forked child before exec and only
        // calls prctl(2), which is async-signal-safe and touches no memory
        // of the parent. PR_SET_PDEATHSIG takes the signal number as its
        // single (unsigned long) argument.
        unsafe {
            command.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
        let started = Instant::now();
        let child = command
            .spawn()
            .map_err(|e| format!("spawning {} {name}: {e}", ttk.display()))?;
        let mut daemon = Daemon {
            name: name.to_string(),
            child: Some(child),
            stderr_path,
            addr: String::new(),
            ready: Duration::ZERO,
        };
        loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                let addr = addr.trim();
                if !addr.is_empty() {
                    daemon.ready = started.elapsed();
                    daemon.addr = addr.to_string();
                    return Ok(daemon);
                }
            }
            if let Some(status) = daemon.try_wait() {
                return Err(format!(
                    "daemon {name} exited before it was ready ({status}):\n{}",
                    daemon.stderr_tail()
                ));
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err(format!(
                    "daemon {name} published no port file within {READY_TIMEOUT:?}:\n{}",
                    daemon.stderr_tail()
                ));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// The daemon's peak resident set so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        vm_hwm_mb(&pid.to_string())
    }

    /// Everything the daemon wrote to stderr so far.
    pub fn stderr(&self) -> String {
        std::fs::read_to_string(&self.stderr_path).unwrap_or_default()
    }

    fn stderr_tail(&self) -> String {
        let text = self.stderr();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(20)..].join("\n")
    }

    fn try_wait(&mut self) -> Option<ExitStatus> {
        self.child.as_mut()?.try_wait().ok().flatten()
    }

    /// Drains the daemon with SIGTERM and waits for it. A daemon that does
    /// not exit within the drain timeout is killed; either that or a
    /// non-zero exit is an error carrying the daemon's stderr tail.
    pub fn drain(mut self) -> Result<String, String> {
        let Some(mut child) = self.child.take() else {
            return Ok(String::new());
        };
        // SAFETY: kill(2) with a pid this process spawned and has not yet
        // reaped, so the pid cannot have been recycled for another process.
        unsafe {
            kill(child.id() as c_int, SIGTERM);
        }
        let started = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if started.elapsed() < DRAIN_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break None;
                }
            }
        };
        let stderr = self.stderr();
        match status {
            Some(status) if status.success() => Ok(stderr),
            Some(status) => Err(format!(
                "daemon {} exited with {status} after SIGTERM:\n{}",
                self.name,
                self.stderr_tail()
            )),
            None => Err(format!(
                "daemon {} did not drain within {DRAIN_TIMEOUT:?} and was killed:\n{}",
                self.name,
                self.stderr_tail()
            )),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Drains every daemon (all of them, even after one fails) and returns the
/// first error.
pub fn drain_all(daemons: Vec<Daemon>) -> Result<(), String> {
    let mut first_error = None;
    for daemon in daemons {
        if let Err(e) = daemon.drain() {
            first_error.get_or_insert(e);
        }
    }
    first_error.map_or(Ok(()), Err)
}
