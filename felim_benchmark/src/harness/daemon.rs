//! The `felim-shardd` child process that hosts remote shards, and
//! peak-memory readings from `/proc`.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};

/// Environment variable naming the shard daemon binary (as the
/// repository's service tests use it).
pub const SHARDD_ENV: &str = "FELIM_SHARDD_BIN";

/// The daemon binary: `$FELIM_SHARDD_BIN`, else `felim-shardd` beside
/// this executable.
pub fn binary() -> Option<PathBuf> {
    if let Some(path) = std::env::var_os(SHARDD_ENV) {
        return Some(PathBuf::from(path));
    }
    let sibling = std::env::current_exe().ok()?.with_file_name("felim-shardd");
    sibling.exists().then_some(sibling)
}

/// A running shard daemon on an ephemeral loopback port; killed and
/// reaped on drop.
pub struct Daemon {
    child: Child,
    addr: String,
    // Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns the daemon and waits for its `LISTENING <addr>` line.
    ///
    /// # Errors
    ///
    /// No daemon binary, a failed spawn, or a daemon that does not
    /// advertise an address.
    pub fn spawn() -> Result<Self, String> {
        let bin =
            binary().ok_or_else(|| format!("no felim-shardd: build it or set {SHARDD_ENV}"))?;
        let mut child = Command::new(&bin)
            .args(["--listen", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line.trim().strip_prefix("LISTENING ").map(str::to_owned);
        match (read, addr) {
            (Ok(_), Some(addr)) if !addr.is_empty() => Ok(Self {
                child,
                addr,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "felim-shardd did not advertise an address (got {line:?})"
                ))
            }
        }
    }

    /// The daemon's `host:port`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The daemon's peak resident memory so far, MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        peak_rss_mib(&format!("/proc/{}/status", self.child.id())).unwrap_or(0.0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, MiB.
pub fn peak_rss_mib(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
