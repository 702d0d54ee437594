//! What the benchmark knows about the host and its own resource use.

use std::path::Path;
use std::time::Duration;

/// Cores the process may run on.
pub fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The compiler that built this binary.
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// The commit checked out in the working directory, read from `.git`
/// there; `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(Path::new(".git").join(path)).ok();
    let commit = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_owned()),
        Some(name) => read(name).map(|c| c.trim().to_owned()).or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                l.strip_suffix(name)
                    .and_then(|c| c.strip_suffix(' '))
                    .map(str::to_owned)
            })
        }),
    });
    commit
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// Peak resident memory (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU time of process `pid`, from `/proc/<pid>/stat`
/// (clock-tick resolution).
pub fn process_cpu(pid: u32) -> Option<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(Duration::from_millis(ticks * 1000 / CLOCK_TICKS_PER_S))
}

/// `USER_HZ`, which Linux fixes at 100 for `/proc` on every architecture
/// this benchmark runs on.
const CLOCK_TICKS_PER_S: u64 = 100;

/// CPU time and context switches of this process, all threads included
/// (threads that have exited too).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    /// The process's usage so far.
    pub fn now() -> Usage {
        let r = rusage_self();
        let tv =
            |t: [i64; 2]| Duration::from_secs(t[0] as u64) + Duration::from_micros(t[1] as u64);
        Usage {
            cpu: tv(r.utime) + tv(r.stime),
            ctx_switches: (r.rest[12] + r.rest[13]) as u64,
        }
    }

    /// Usage accumulated since `earlier`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu: self.cpu.saturating_sub(earlier.cpu),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and `struct rusage` as laid out on 64-bit Linux");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s, of which `ru_nvcsw` and `ru_nivcsw` are the last two.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

fn rusage_self() -> RUsage {
    const RUSAGE_SELF: i32 = 0;
    let mut r = RUsage::default();
    // SAFETY: `r` is a live, writable `struct rusage` with the layout the
    // C library expects on 64-bit Linux, and `getrusage` writes only
    // within it. On failure it leaves `r` zeroed, which reads as no usage.
    unsafe {
        getrusage(RUSAGE_SELF, &mut r);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_grows_with_work_in_other_threads() {
        let before = Usage::now();
        std::thread::spawn(|| {
            let start = std::time::Instant::now();
            let mut x = 0u64;
            while start.elapsed() < Duration::from_millis(60) {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
        })
        .join()
        .expect("spinner thread");
        let used = Usage::now().since(before);
        assert!(used.cpu >= Duration::from_millis(30), "{used:?}");
        assert!(peak_rss_mib("self").is_some_and(|m| m > 0.0));
        assert!(process_cpu(std::process::id()).is_some());
    }
}
