//! Facts about the host and the checkout, recorded beside every result.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Threads the host can run at once.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size of the last-level cache in bytes, when the host reports it.
fn last_level_cache_bytes() -> Option<usize> {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best = None;
    for entry in std::fs::read_dir(dir).ok()? {
        let text = std::fs::read_to_string(entry.ok()?.path().join("size")).ok()?;
        let text = text.trim();
        let bytes = if let Some(k) = text.strip_suffix('K') {
            k.parse::<usize>().ok()? << 10
        } else if let Some(m) = text.strip_suffix('M') {
            m.parse::<usize>().ok()? << 20
        } else {
            text.parse().ok()?
        };
        best = best.max(Some(bytes));
    }
    best
}

/// Streaming read bandwidth in GB/s: the best of several sequential sums
/// over a buffer four times the last-level cache (at least 64 MiB), so
/// every pass comes from memory.
pub fn stream_gb_per_s() -> f64 {
    let bytes = (last_level_cache_bytes().unwrap_or(32 << 20) * 4).clamp(64 << 20, 512 << 20);
    let buf: Vec<f64> = (0..bytes / 8).map(|i| i as f64).collect();
    let mut best = 0.0f64;
    for _ in 0..5 {
        let t0 = Instant::now();
        // Four independent accumulators keep the adds off the critical path.
        let mut acc = [0.0f64; 4];
        for c in black_box(&buf).chunks_exact(4) {
            for l in 0..4 {
                acc[l] += c[l];
            }
        }
        black_box(acc);
        best = best.max(bytes as f64 / t0.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// The commit the checkout was made from, read from `.git` without
/// running git; `"unknown"` outside a git work tree.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(reference) {
        return hash.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
