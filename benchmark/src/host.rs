//! Where the run happened and whether the host disturbed it.
//!
//! Provenance (commit, compiler, CPU, core count, kernel width) goes into
//! every result file. The host guard reads `/proc/stat` steal time and
//! times a fixed spin loop around each round; a round the host visibly
//! slowed is *marked* `disturbed` in the output, never dropped.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// Facts about the build and the machine, recorded once per run.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git rev-parse HEAD` of the working directory, `unknown` outside a
    /// git checkout (the driver's checkouts are not repositories).
    pub git_commit: String,
    /// `rustc -V`.
    pub rustc: String,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The SIMD width the nn kernels picked on this CPU.
    pub kernel_width: &'static str,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Provenance {
    /// Collect the facts (spawns `git` and `rustc`, each waited for).
    pub fn collect() -> Provenance {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|v| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Provenance {
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["-V"]),
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel_width: autophase_nn::KernelWidth::pick().name(),
        }
    }

    /// The facts as the inside of a JSON object (no braces).
    pub fn json_fields(&self) -> String {
        format!(
            "\"git_commit\":\"{}\",\"rustc\":\"{}\",\"cpu_model\":\"{}\",\"nproc\":{},\
             \"kernel_width\":\"{}\"",
            escape(&self.git_commit),
            escape(&self.rustc),
            escape(&self.cpu_model),
            self.nproc,
            self.kernel_width
        )
    }
}

/// Minimal JSON string escaping for the few free-text fields.
pub fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// The build's target directory, found from the running executable
/// (`<target>/release/<exe>`, or `<target>/release/deps/<exe>` under
/// `cargo test`). Everything the benchmark writes goes under it, so no
/// mode can overwrite a committed file and a checkout stays clean.
pub fn target_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut dir = exe.parent().expect("executable lives in a directory");
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir = dir.parent().expect("deps has a parent");
    }
    dir.parent()
        .expect("profile dir has a parent")
        .to_path_buf()
}

/// `<target>/out`, created: result, row and span files land here.
pub fn out_dir() -> PathBuf {
    let dir = target_dir().join("out");
    std::fs::create_dir_all(&dir).expect("create the output directory");
    dir
}

/// A scratch directory under `<target>/tmp`, unique to this process and
/// removed (with everything in it) on drop.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u64>,
}

impl Scratch {
    /// Create `<target>/tmp/<tag>-<pid>`.
    pub fn new(tag: &str) -> Scratch {
        let root = target_dir()
            .join("tmp")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create the scratch directory");
        Scratch {
            root,
            next: std::cell::Cell::new(0),
        }
    }

    /// A fresh empty subdirectory. The store keeps a snapshot sidecar
    /// next to its log, so "an empty store" means a fresh *directory*.
    pub fn fresh_dir(&self, label: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        let dir = self.root.join(format!("{label}-{n}"));
        std::fs::create_dir_all(&dir).expect("create a scratch subdirectory");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`. Zeros when the file is unreadable.
pub fn host_jiffies() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = text.lines().next() else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user/nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s (seconds, microseconds), then fourteen counters.
#[repr(C)]
struct Rusage {
    user: [i64; 2],
    system: [i64; 2],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// CPU milliseconds this process (every thread, exited ones included) has
/// used, as `(user, system)`, from `getrusage(RUSAGE_SELF)`: the one
/// clock of the process that splits user from system time at better than
/// the 10 ms of `/proc/self/stat`. The kernel adds a running thread's time
/// at its scheduler tick, so a reading may lag by up to 4 ms per running
/// thread: nothing against the half second of CPU between two readings
/// here. Zeros if the call fails.
pub fn process_cpu_ms() -> (f64, f64) {
    let mut usage = Rusage {
        user: [0; 2],
        system: [0; 2],
        counters: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage`; RUSAGE_SELF is 0.
    if unsafe { getrusage(0, &mut usage) } != 0 {
        return (0.0, 0.0);
    }
    let ms = |tv: [i64; 2]| tv[0] as f64 * 1e3 + tv[1] as f64 / 1e3;
    (ms(usage.user), ms(usage.system))
}

/// User-mode CPU milliseconds of the process: the clock every gated
/// timing is read on. A co-tenant that takes a vCPU away stretches wall
/// time (2-5x here, for minutes) and the kernel's share of CPU time (a
/// cross-CPU call spins until the other, descheduled, vCPU answers), but
/// the guest does not bill stolen time to a task, so user time moves by a
/// tenth or two where the others move by a factor (README: host noise).
pub fn process_user_cpu_ms() -> f64 {
    process_cpu_ms().0
}

/// User plus system CPU milliseconds of the process.
pub fn process_total_cpu_ms() -> f64 {
    let (user, system) = process_cpu_ms();
    user + system
}

/// Peak resident set size in MiB (`VmHWM`), 0 when unreadable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time a fixed integer spin loop: the same work every call, so a slower
/// reading means the host (not the benchmark) took the core away.
pub fn spin_probe_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..2_000_000u64 {
        x = (x ^ i).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(17);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Host readings taken before and after a round.
#[derive(Debug, Clone, Copy)]
pub struct HostMark {
    steal: u64,
    total: u64,
    spin_ms: f64,
}

impl HostMark {
    /// Read the counters and run the spin probe.
    pub fn take() -> HostMark {
        let (steal, total) = host_jiffies();
        HostMark {
            steal,
            total,
            spin_ms: spin_probe_ms(),
        }
    }
}

/// What the host did during one round.
#[derive(Debug, Clone, Copy)]
pub struct HostVerdict {
    /// Share of all CPU time in the interval the hypervisor stole.
    pub steal_share: f64,
    /// The slower of the two spin probes bracketing the round.
    pub spin_ms: f64,
    /// Steal above 10 % of the interval, or a spin probe more than 1.5x
    /// the run's fastest: the round ran on a visibly disturbed host. (A few
    /// percent of steal is this host's normal state under load.)
    pub disturbed: bool,
}

/// Judge the interval between two marks against the run's fastest spin.
pub fn judge(before: HostMark, after: HostMark, fastest_spin_ms: f64) -> HostVerdict {
    let total = after.total.saturating_sub(before.total);
    let steal_share = if total == 0 {
        0.0
    } else {
        after.steal.saturating_sub(before.steal) as f64 / total as f64
    };
    let spin_ms = before.spin_ms.max(after.spin_ms);
    HostVerdict {
        steal_share,
        spin_ms,
        disturbed: steal_share > 0.10 || spin_ms > 1.5 * fastest_spin_ms,
    }
}

/// Fastest spin probe of a few tries: the undisturbed reference.
pub fn calibrate_spin_ms() -> f64 {
    (0..5)
        .map(|_| spin_probe_ms())
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_keeps_json_strings_closed() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c d");
    }

    #[test]
    fn judge_marks_steal_and_slow_spins() {
        let quiet = HostMark {
            steal: 10,
            total: 1000,
            spin_ms: 2.0,
        };
        let after_quiet = HostMark {
            steal: 10,
            total: 2000,
            spin_ms: 2.1,
        };
        assert!(!judge(quiet, after_quiet, 2.0).disturbed);
        let stolen = HostMark {
            steal: 210,
            total: 2000,
            spin_ms: 2.0,
        };
        let v = judge(quiet, stolen, 2.0);
        assert!(v.disturbed && (v.steal_share - 0.2).abs() < 1e-12);
        let slow = HostMark {
            steal: 10,
            total: 2000,
            spin_ms: 3.5,
        };
        assert!(judge(quiet, slow, 2.0).disturbed);
    }

    #[test]
    fn scratch_dirs_are_fresh_and_removed() {
        let kept;
        {
            let scratch = Scratch::new("hosttest");
            let a = scratch.fresh_dir("round");
            let b = scratch.fresh_dir("round");
            assert_ne!(a, b);
            assert!(a.is_dir() && b.is_dir());
            assert!(a.starts_with(target_dir()));
            kept = a;
        }
        assert!(!kept.exists());
    }
}
