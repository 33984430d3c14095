//! Resident-memory probes: this process's peak since a reset, and the
//! peak of each of its child processes as it exits.

use std::fs;

fn status_kib(path: &str, field: &str) -> Option<u64> {
    let status = fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Current resident set of this process, in KiB (`0` where `/proc` is
/// unavailable).
pub fn rss_kib() -> u64 {
    status_kib("/proc/self/status", "VmRSS:").unwrap_or(0)
}

/// Peak resident set of this process since the last [`reset_peak`], in
/// KiB (`0` where `/proc` is unavailable).
pub fn peak_rss_kib() -> u64 {
    status_kib("/proc/self/status", "VmHWM:").unwrap_or(0)
}

/// Reset this process's peak resident set to its current one (Linux
/// `clear_refs` value 5). Returns whether the kernel accepted it.
pub fn reset_peak() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Hand the allocator's free pages back to the kernel (glibc
/// `malloc_trim`), so the resident set counts live memory only; a no-op
/// on other platforms.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only returns unused heap pages to the
        // kernel; it takes no pointers and leaves live allocations alone.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The process ids of this process's children, exited ones not yet
/// reaped included; empty where `/proc` is unavailable.
fn children() -> Vec<u32> {
    let me = std::process::id();
    let Ok(entries) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| {
            let pid: u32 = e.file_name().to_str()?.parse().ok()?;
            let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
            // `pid (comm) state ppid ...`; `comm` may hold spaces.
            let after_comm = &stat[stat.rfind(')')? + 1..];
            let ppid: u32 = after_comm.split_whitespace().nth(1)?.parse().ok()?;
            (ppid == me).then_some(pid)
        })
        .collect()
}

/// Peak resident set of each child of this process, in KiB, read as the
/// child exits: `waitid(.., WEXITED | WNOWAIT)` waits for it to exit and
/// returns its own `ru_maxrss`, and leaves it for its owner to reap. A
/// child reaped earlier (a build tool, say) is no longer a child and never
/// counts. Blocks until every child has exited; `None` where a child
/// cannot be read.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub fn children_exit_peak_rss_kib() -> Option<Vec<u64>> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which `ru_maxrss` is the first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    #[cfg(target_arch = "x86_64")]
    const SYS_WAITID: i64 = 247;
    #[cfg(target_arch = "aarch64")]
    const SYS_WAITID: i64 = 95;
    const P_PID: i64 = 1;
    const WEXITED: i64 = 4;
    const WNOWAIT: i64 = 0x0100_0000;
    extern "C" {
        fn syscall(number: i64, ...) -> i64;
    }
    children()
        .into_iter()
        .map(|pid| {
            // `siginfo_t` is 128 bytes.
            let mut info = [0u64; 16];
            let mut usage = Rusage {
                times: [0; 4],
                maxrss: 0,
                rest: [0; 13],
            };
            // SAFETY: the raw `waitid` system call writes one `siginfo_t`
            // into `info` and one `struct rusage` into `usage`, both live,
            // writable and laid out as this target's C types; `WNOWAIT`
            // leaves the child unreaped, so its owner still waits for it.
            let rc = unsafe {
                syscall(
                    SYS_WAITID,
                    P_PID,
                    i64::from(pid),
                    info.as_mut_ptr(),
                    WEXITED | WNOWAIT,
                    &mut usage as *mut Rusage,
                )
            };
            (rc == 0).then(|| u64::try_from(usage.maxrss).unwrap_or(0))
        })
        .collect()
}

/// Peak resident set of each child as it exits; not available on this
/// platform.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub fn children_exit_peak_rss_kib() -> Option<Vec<u64>> {
    None
}
