//! Child processes: the `objectrunner-serve` daemon and its
//! `extract-stream` subcommand, run exactly as shipped, with their
//! default configuration. Every child is killed and reaped when its
//! handle drops, and killed by the kernel if the ledger itself dies, so
//! no run leaves a process behind.

use std::fs::File;
use std::io;
use std::net::SocketAddr;
use std::os::raw::{c_int, c_ulong};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
}

const PR_SET_PDEATHSIG: c_int = 1;
const SIGKILL: c_ulong = 9;

/// Have the kernel kill the child if this process dies first (killed by
/// a signal, say), when no destructor gets to run.
fn die_with_parent(command: &mut Command) -> &mut Command {
    // SAFETY: the closure runs in the forked child before `exec`; it
    // calls only `prctl`, which is async-signal-safe, allocates nothing
    // and touches no state shared with the parent.
    unsafe {
        command.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        })
    }
}

/// How long a daemon may take to bind its listener.
const LISTEN_TIMEOUT: Duration = Duration::from_secs(30);

/// A running daemon listening on an ephemeral loopback port.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    /// Set-up time counts from here: once `spawn` has returned, which
    /// is after the child has `exec`ed. Forking the ledger, whose inputs
    /// take tens of megabytes, is no part of the daemon's start-up.
    pub spawned: Instant,
}

impl Daemon {
    /// Start `bin --listen 127.0.0.1:0 <args>` with stdin closed (the
    /// daemon then serves TCP only) and stderr in `log`, and wait for
    /// the line announcing the bound address.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<Daemon, String> {
        let err = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = die_with_parent(&mut Command::new(bin))
            .args(args)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            spawned: Instant::now(),
        };
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            // Only a complete line: the daemon may be mid-write.
            let announced = text
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_once('\n'));
            if let Some((rest, _)) = announced {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                daemon.addr = addr
                    .parse()
                    .map_err(|e| format!("daemon address '{addr}': {e}"))?;
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited early ({status}): {text}"));
            }
            if daemon.spawned.elapsed() > LISTEN_TIMEOUT {
                return Err(format!("daemon did not listen within {LISTEN_TIMEOUT:?}"));
            }
            // Polled finely: the wait counts toward set-up time.
            std::thread::sleep(Duration::from_micros(20));
        }
    }

    /// Peak resident set so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        vmhwm_mb(self.child.id())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A child's `VmHWM` (peak resident set) in MiB, while it runs.
pub fn vmhwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A command whose stdout the caller reads; killed and
/// reaped on drop.
pub struct Piped {
    pub child: Child,
    /// When the child's image started (see [`Daemon::spawned`]).
    pub spawned: Instant,
}

impl Piped {
    pub fn spawn(bin: &Path, args: &[String], log: &PathBuf) -> Result<Piped, String> {
        let err = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = die_with_parent(&mut Command::new(bin))
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        Ok(Piped {
            child,
            spawned: Instant::now(),
        })
    }
}

impl Drop for Piped {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
