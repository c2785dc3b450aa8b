//! Child-process hygiene and `/proc` readings.
//!
//! Every `psta` child lives in a [`ChildGuard`]: dropping the guard
//! (including while unwinding from a failed check) kills and reaps the
//! process, so no orphan survives a run. [`ChildGuard::terminate`] is
//! the polite path: SIGTERM, wait for the drain, check the exit status.

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

const SIGTERM: i32 = 15;
const SC_CLK_TCK: i32 = 2;

/// Sends SIGTERM to `pid`.
fn send_sigterm(pid: u32) -> std::io::Result<()> {
    let pid = i32::try_from(pid).map_err(std::io::Error::other)?;
    // SAFETY: kill(2) takes plain integers and touches no memory of
    // ours; `pid` names a child this process spawned and has not reaped.
    if unsafe { kill(pid, SIGTERM) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Clock ticks per second of `/proc/<pid>/stat` CPU times.
fn clock_ticks() -> f64 {
    // SAFETY: sysconf(3) takes an integer name and returns an integer.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// Peak resident set (`VmHWM`) of `pid` (`"self"` for this process), in
/// MB. 0 when unreadable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of `pid`, in milliseconds. 0 when unreadable.
pub fn cpu_ms(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 1000.0 / clock_ticks()
}

/// A spawned `psta` process that is always reaped.
pub struct ChildGuard {
    child: Option<Child>,
    name: String,
    stdout: Option<JoinHandle<()>>,
    /// The address the child announced on its first stdout line.
    pub addr: String,
}

impl ChildGuard {
    /// Spawns `program args…` with stderr appended to `log`, and waits
    /// (up to `timeout`) for the `… listening on http://ADDR` line.
    pub fn spawn(
        name: &str,
        program: &str,
        args: &[&str],
        log: &std::path::Path,
        timeout: Duration,
    ) -> Result<ChildGuard, String> {
        let log_file =
            std::fs::File::create(log).map_err(|e| format!("{name}: create {log:?}: {e}"))?;
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("{name}: spawn {program}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut guard = ChildGuard {
            child: Some(child),
            name: name.to_owned(),
            stdout: None,
            addr: String::new(),
        };
        let (tx, rx) = mpsc::channel();
        guard.stdout = Some(std::thread::spawn(move || drain_stdout(stdout, tx)));
        let line: String = rx
            .recv_timeout(timeout)
            .map_err(|_| format!("{name}: no listening line within {timeout:?}"))?;
        guard.addr = line
            .split("http://")
            .nth(1)
            .map(|a| a.trim().to_owned())
            .ok_or_else(|| format!("{name}: unexpected first line {line:?}"))?;
        Ok(guard)
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// SIGTERM, then wait up to `grace` for a clean exit. Returns the
    /// exit status, or an error when the child did not exit in time (it
    /// is then killed) or exited non-zero.
    pub fn terminate(mut self, grace: Duration) -> Result<ExitStatus, String> {
        let mut child = self.child.take().expect("terminate runs once");
        let deadline = Instant::now() + grace;
        let outcome = send_sigterm(child.id())
            .map_err(|e| format!("SIGTERM: {e}"))
            .and_then(|()| loop {
                match child.try_wait() {
                    Ok(Some(status)) => break Ok(status),
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20))
                    }
                    Ok(None) => break Err(format!("no exit within {grace:?} of SIGTERM")),
                    Err(e) => break Err(format!("wait: {e}")),
                }
            });
        let status = match outcome {
            Ok(status) => status,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{}: {e}", self.name));
            }
        };
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        if status.success() {
            Ok(status)
        } else {
            Err(format!("{}: drain exited with {status}", self.name))
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

/// Forwards the first stdout line, then discards the rest so the child
/// can never block on a full pipe.
fn drain_stdout(stdout: ChildStdout, first: mpsc::Sender<String>) {
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    if reader.read_line(&mut line).is_ok() {
        let _ = first.send(line.trim_end().to_owned());
    }
    let _ = std::io::copy(&mut reader, &mut std::io::sink());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_proc_entries() {
        assert!(peak_rss_mb("self") > 0.0);
        assert!(cpu_ms(std::process::id()) >= 0.0);
        assert_eq!(peak_rss_mb("no-such-pid"), 0.0);
    }

    #[test]
    fn terminate_reaps_and_checks_the_exit() {
        let dir = std::env::temp_dir().join(format!("perfbench-procs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        // The trap comes first: SIGTERM may follow the listening line at once.
        let script = "trap 'exit 0' TERM; echo 'fake listening on http://127.0.0.1:1'; \
                      while :; do sleep 0.05; done";
        let guard = ChildGuard::spawn(
            "fake",
            "sh",
            &["-c", script],
            &dir.join("log"),
            Duration::from_secs(5),
        )
        .expect("spawn");
        assert_eq!(guard.addr, "127.0.0.1:1");
        let pid = guard.pid();
        guard.terminate(Duration::from_secs(5)).expect("clean exit");
        assert!(!std::path::Path::new(&format!("/proc/{pid}")).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
