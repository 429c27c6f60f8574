//! What the kernel says about this process: CPU time, peak memory, context
//! switches, and how much of the machine the hypervisor took away.
//!
//! All readers return 0 when `/proc` is missing or unparsable — the metrics
//! built on them are then visibly absent rather than the run failing.

use std::fs;

/// Sum over the live threads of this process of what `field` reads from the
/// thread's `/proc/self/task/<tid>/<file>`. A thread that exits takes its
/// counters with it, so two sums compare only while the same threads live.
fn sum_over_threads(file: &str, field: impl Fn(&str) -> Option<u64>) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| fs::read_to_string(task.path().join(file)).ok())
        .filter_map(|text| field(&text))
        .sum()
}

/// CPU time the live threads of this process have used, nanoseconds, from
/// the scheduler's own accounting (`schedstat`): exact where the `utime` and
/// `stime` of `/proc/self/stat` count 10 ms ticks, so it resolves a
/// slice of a phase. Time the hypervisor stole is not in it.
pub fn cpu_ns_live_threads() -> u64 {
    sum_over_threads("schedstat", |stat| {
        stat.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Voluntary context switches of the live threads of this process. A
/// blocking hand-off between two threads costs each of them one.
pub fn voluntary_switches() -> u64 {
    sum_over_threads("status", |status| {
        let line = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?;
        line.trim().parse().ok()
    })
}

/// `(steal ticks, all ticks)` of the whole machine since boot, from the
/// aggregate `cpu` line of `/proc/stat`. The share of steal between two
/// readings is a condition of the run, printed beside its numbers.
pub fn machine_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(cpu) = stat.lines().next() else {
        return (0, 0);
    };
    let ticks: Vec<u64> = cpu
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so stop at steal.
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}
