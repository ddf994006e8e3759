//! CPU time and peak memory from `/proc`.
//!
//! CPU time comes from each task's `schedstat` (nanoseconds on the CPU),
//! not from the `stat` utime/stime fields, which count 10 ms ticks.

/// The calling thread's kernel task id.
pub fn current_tid() -> std::io::Result<u64> {
    let link = std::fs::read_link("/proc/thread-self")?;
    link.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("unexpected /proc/thread-self -> {link:?}")))
}

fn schedstat_ns(path: &str) -> std::io::Result<u64> {
    std::fs::read_to_string(path)?
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("malformed {path}")))
}

/// Nanoseconds the calling thread has spent on a CPU.
pub fn thread_cpu_ns() -> std::io::Result<u64> {
    schedstat_ns("/proc/thread-self/schedstat")
}

/// Nanoseconds spent on a CPU by every live thread of this process except
/// the tasks in `exclude`. A thread that exits takes its time with it, so
/// compare two samples only across an interval in which the counted
/// threads all live.
pub fn process_cpu_ns_excluding(exclude: &[u64]) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir("/proc/self/task")? {
        let name = entry?.file_name();
        let Some(tid) = name.to_str().and_then(|n| n.parse::<u64>().ok()) else {
            continue;
        };
        if exclude.contains(&tid) {
            continue;
        }
        // A thread may exit between the listing and the read.
        if let Ok(ns) = schedstat_ns(&format!("/proc/self/task/{tid}/schedstat")) {
            total += ns;
        }
    }
    Ok(total)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let text = std::fs::read_to_string("/proc/self/status")?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))
}
