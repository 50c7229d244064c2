//! Runs one `fsim` child process and measures it from the outside: wall
//! time from spawn to exit, user+system CPU, and peak resident memory.
//!
//! Everything comes from `std` and `/proc` (Linux only): CPU is the delta
//! of this process's `cutime + cstime` in `/proc/self/stat` around the
//! wait, and peak memory is the child's `VmHWM` in `/proc/<pid>/status`,
//! polled every [`POLL`] until exit.

use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

/// `VmHWM` polling period.
pub const POLL: Duration = Duration::from_millis(10);

/// Linux reports `/proc/*/stat` times in `USER_HZ` ticks, fixed at 100 by
/// the kernel ABI.
const TICKS_PER_SECOND: f64 = 100.0;

/// What one invocation cost and whether it succeeded.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// Child user + system CPU, seconds.
    pub cpu_s: f64,
    /// Highest `VmHWM` seen, in megabytes (10^6 bytes); 0 when the child
    /// exited before the first poll.
    pub peak_rss_mb: f64,
    /// Exited with status 0 before the timeout.
    pub ok: bool,
}

/// Runs `exe args…` with stdout discarded and stderr inherited, killing it
/// after `timeout`.
pub fn run(exe: &Path, args: &[String], timeout: Duration) -> std::io::Result<Measured> {
    let cpu_before = children_cpu_s()?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()?;
    let pid = child.id();
    let (exited, exit_seen) = mpsc::channel::<()>();
    let (status, wall, (peak_kb, killed)) = thread::scope(|s| {
        let poller = s.spawn(move || {
            let mut peak_kb = 0u64;
            let mut killed = false;
            loop {
                if let Some(kb) = fs::read_to_string(format!("/proc/{pid}/status"))
                    .ok()
                    .and_then(|text| vm_hwm_kb(&text))
                {
                    peak_kb = peak_kb.max(kb);
                }
                if exit_seen.recv_timeout(POLL) != Err(RecvTimeoutError::Timeout) {
                    return (peak_kb, killed);
                }
                if !killed && start.elapsed() > timeout {
                    // `Child::kill` needs the handle the waiting thread holds.
                    killed = Command::new("kill")
                        .args(["-KILL", &pid.to_string()])
                        .status()
                        .is_ok_and(|s| s.success());
                }
            }
        });
        let status = child.wait();
        let wall = start.elapsed();
        drop(exited);
        let polled = poller.join().expect("the poller thread does not panic");
        (status, wall, polled)
    });
    let status = status?;
    Ok(Measured {
        wall_s: wall.as_secs_f64(),
        cpu_s: children_cpu_s()? - cpu_before,
        peak_rss_mb: peak_kb as f64 * 1024.0 / 1e6,
        ok: status.success() && !killed,
    })
}

/// CPU seconds of this process's reaped children (`cutime + cstime`).
pub fn children_cpu_s() -> std::io::Result<f64> {
    let text = fs::read_to_string("/proc/self/stat")?;
    let f = stat_fields(&text).ok_or_else(|| bad_stat(&text))?;
    Ok((f.cutime + f.cstime) as f64 / TICKS_PER_SECOND)
}

/// CPU seconds this process has used itself (`utime + stime`), all threads.
pub fn self_cpu_s() -> std::io::Result<f64> {
    let text = fs::read_to_string("/proc/self/stat")?;
    let f = stat_fields(&text).ok_or_else(|| bad_stat(&text))?;
    Ok((f.utime + f.stime) as f64 / TICKS_PER_SECOND)
}

fn bad_stat(text: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("unparsable /proc/self/stat: {text:?}"),
    )
}

/// The CPU-time fields of a `/proc/<pid>/stat` line, in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatTimes {
    /// Field 14.
    pub utime: u64,
    /// Field 15.
    pub stime: u64,
    /// Field 16: waited-for children's user time.
    pub cutime: u64,
    /// Field 17: waited-for children's system time.
    pub cstime: u64,
}

/// Parses `/proc/<pid>/stat`. The command name (field 2) sits in
/// parentheses and may itself hold spaces or `)`, so fields are counted
/// from the last `)`.
pub fn stat_fields(text: &str) -> Option<StatTimes> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (the state letter).
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(StatTimes {
        utime: field(14)?,
        stime: field(15)?,
        cutime: field(16)?,
        cstime: field(17)?,
    })
}

/// The `VmHWM` line of `/proc/<pid>/status`, in kB. `None` for a process
/// without memory (a zombie or kernel thread) or unparsable text.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_awkward_command_name() {
        let line = "4242 (fsim (x) y) S 1 4242 4242 0 -1 4194560 1021 0 0 0 \
                    137 21 58 9 20 0 1 0 123456 10485760 512 18446744073709551615 \
                    1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n";
        assert_eq!(
            stat_fields(line),
            Some(StatTimes {
                utime: 137,
                stime: 21,
                cutime: 58,
                cstime: 9
            })
        );
        assert_eq!(stat_fields("4242 (truncated"), None);
        assert_eq!(stat_fields("1 (a) S 1 2 3"), None);
    }

    #[test]
    fn reads_own_stat() {
        let text = fs::read_to_string("/proc/self/stat").expect("Linux /proc");
        assert!(stat_fields(&text).is_some());
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tfsim\nState:\tR (running)\nVmPeak:\t   20480 kB\n\
                      VmHWM:\t    7312 kB\nVmRSS:\t    7100 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(7312));
        let zombie = "Name:\tfsim\nState:\tZ (zombie)\nThreads:\t1\n";
        assert_eq!(vm_hwm_kb(zombie), None);
        assert_eq!(vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }
}
