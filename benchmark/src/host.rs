//! What the results record about the host and the build.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Iterations of the probe kernel (a few ms on a current x86 core).
const PROBE_ITERS: u64 = 2_000_000;

/// Time a fixed single-thread integer kernel, in ms. Run before each rep:
/// a rep whose probe is far off the run's median ran on a slowed host.
pub fn probe_ms() -> f64 {
    let start = Instant::now();
    let mut state = black_box(0x2545_F491_4F6C_DD1Du64);
    let mut acc = 0u64;
    for _ in 0..PROBE_ITERS {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc ^= z ^ (z >> 31);
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of this process, in MB; 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git (`"unknown"` outside a git checkout).
pub fn git_rev() -> String {
    let git = Path::new(".git");
    let read = |path: &Path| std::fs::read_to_string(path).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
