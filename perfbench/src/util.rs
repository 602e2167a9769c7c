//! Small shared helpers: order statistics, seeded mixing, `/proc`
//! readers, and a parser for the server's Prometheus stats text.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// SplitMix64 step: derives independent sub-seeds from one workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank quantile of an ascending-sorted slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// FNV-1a hash of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The gaps between consecutive instants, in ms.
pub fn gaps_ms(marks: &[Instant]) -> Vec<f64> {
    marks
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect()
}

/// The fastest time of each piece over repeated runs of the same work,
/// split into the same pieces on every run. The shared host slows
/// stretches of a few seconds but leaves short quiet gaps, so a long run
/// is rarely quiet from start to end while each of its short pieces
/// usually is, in some repeat; the sum is the run's time with every
/// piece at its least disturbed.
#[derive(Debug, Default)]
pub struct FastestPieces(Vec<f64>);

impl FastestPieces {
    /// Adds one run's pieces; a run split into another number of pieces
    /// is not the same work and is refused.
    pub fn add(&mut self, pieces: &[f64]) -> Result<(), String> {
        if self.0.is_empty() {
            self.0 = pieces.to_vec();
        } else if self.0.len() != pieces.len() {
            return Err(format!(
                "a repeat split into {} pieces, the first run into {}",
                pieces.len(),
                self.0.len()
            ));
        }
        for (best, &t) in self.0.iter_mut().zip(pieces) {
            *best = best.min(t);
        }
        Ok(())
    }

    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Sorts a copy and returns its median.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The number in one field of `/proc/<pid>/status` (`VmHWM` and `VmRSS`
/// in kB, `Threads` as a count).
fn status_field(pid: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) of a process in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    status_field(&pid.to_string(), "VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Peak resident set of this process in MB.
pub fn self_peak_rss_mb() -> f64 {
    status_field("self", "VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Threads of this process that run at normal priority, from the
/// scheduling policy (field 41) of each `/proc/self/task/<tid>/stat`;
/// `SCHED_IDLE` threads (the idle spinners) are left out.
pub fn self_busy_threads() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter(|task| {
            let stat = std::fs::read_to_string(task.path().join("stat")).unwrap_or_default();
            // Fields after the parenthesised name; policy is field 41 of
            // the whole line, 39 after `) `.
            let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
            rest.split_whitespace()
                .nth(38)
                .and_then(|p| p.parse::<i32>().ok())
                != Some(SCHED_IDLE)
        })
        .count() as f64
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times.
const CLK_TCK: f64 = 100.0;

/// utime + stime of a process (all its threads) in seconds.
pub fn cpu_seconds(pid: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after `) `.
    let rest = text.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / CLK_TCK
}

/// CPU time of the calling thread in seconds, to the nanosecond.
pub fn thread_cpu_seconds() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec`.
    unsafe {
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts);
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

const SCHED_IDLE: i32 = 5;

/// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
pub type CpuMask = [u8; 128];

fn cpu_mask(cpus: &[usize]) -> CpuMask {
    let mut mask = [0u8; 128];
    for &cpu in cpus.iter().filter(|&&c| c < 1024) {
        mask[cpu / 8] |= 1 << (cpu % 8);
    }
    mask
}

/// CPUs this process may run on, ascending.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; 128];
    // SAFETY: `mask` is a writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .collect()
}

/// Restricts the calling thread, and every thread it starts afterwards,
/// to the CPUs in `mask`. Only a syscall, so it is safe between `fork`
/// and `exec`.
pub fn pin_current(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a readable buffer of the size passed.
    unsafe { sched_setaffinity(0, mask.len(), mask.as_ptr()) == 0 }
}

/// With two or more CPUs, pins the calling thread (and every thread it
/// starts afterwards) to the second-last CPU and returns masks of that CPU
/// and of the last one, for the server; left to the scheduler, thread
/// placement changed from run to run and split the figures into two
/// modes.
pub fn split_cpus() -> Option<(CpuMask, CpuMask)> {
    let cpus = allowed_cpus();
    match cpus.as_slice() {
        [.., own, last] if pin_current(&cpu_mask(&[*own])) => {
            Some((cpu_mask(&[*own]), cpu_mask(&[*last])))
        }
        _ => None,
    }
}

/// A busy loop at `SCHED_IDLE` priority on the CPUs of `mask`, stopped
/// and joined on drop. Any other thread preempts it at once, so it takes
/// no time from the generator or the server; it only keeps the CPU from
/// idling. On a
/// virtual machine an idle CPU is halted, and waking it for the next
/// request took up to a few ms, which dominated the latency tail.
pub struct IdleSpinner {
    stop: Arc<AtomicBool>,
    paused: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl IdleSpinner {
    pub fn start(mask: CpuMask) -> IdleSpinner {
        let stop = Arc::new(AtomicBool::new(false));
        let paused = Arc::new(AtomicBool::new(false));
        let (flag, pause) = (Arc::clone(&stop), Arc::clone(&paused));
        let thread = std::thread::spawn(move || {
            pin_current(&mask);
            let param = 0i32;
            // SAFETY: `param` is a readable sched_param (one int).
            unsafe {
                sched_setscheduler(0, SCHED_IDLE, &param);
            }
            while !flag.load(Ordering::Relaxed) {
                if pause.load(Ordering::Relaxed) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        IdleSpinner {
            stop,
            paused,
            thread: Some(thread),
        }
    }
}

/// Runs `f` with `spinners` paused. A busy CPU slowed CPU-bound work on
/// the other CPU by about 10% (GA runs of 312 against 283 ms at the
/// fastest), as the two share the host's cores, so the benchmark's own
/// bank builds run without them.
pub fn spinners_paused<T>(spinners: &[IdleSpinner], f: impl FnOnce() -> T) -> T {
    for s in spinners {
        s.paused.store(true, Ordering::Relaxed);
    }
    // A spinner checks the flag at every turn of its loop; let it see it.
    std::thread::sleep(std::time::Duration::from_millis(2));
    let value = f();
    for s in spinners {
        s.paused.store(false, Ordering::Relaxed);
    }
    value
}

impl Drop for IdleSpinner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Counters and histograms scraped from one stats frame.
///
/// Labeled series (`name{...}`) are summed into their family name.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    values: BTreeMap<String, f64>,
    /// Histogram family → (upper bucket edge, cumulative count).
    buckets: BTreeMap<String, Vec<(f64, f64)>>,
}

impl Stats {
    pub fn parse(text: &str) -> Stats {
        let mut stats = Stats::default();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let family = series.split('{').next().unwrap_or(series);
            if let Some(hist) = family.strip_suffix("_bucket") {
                let edge = series
                    .split("le=\"")
                    .nth(1)
                    .and_then(|r| r.split('"').next())
                    .unwrap_or("+Inf");
                let edge = edge.parse::<f64>().unwrap_or(f64::INFINITY);
                stats
                    .buckets
                    .entry(hist.to_string())
                    .or_default()
                    .push((edge, value));
            } else {
                *stats.values.entry(family.to_string()).or_default() += value;
            }
        }
        stats
    }

    /// A counter (or histogram `_sum` / `_count`) value; 0 when absent.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `self - before` for one value.
    pub fn diff(&self, before: &Stats, name: &str) -> f64 {
        self.get(name) - before.get(name)
    }

    /// Quantile of the histogram observations recorded between `before`
    /// and `self`, linearly interpolated inside the bucket that holds it.
    pub fn hist_quantile_diff(&self, before: &Stats, name: &str, q: f64) -> f64 {
        let cumulative = |s: &Stats, edge: f64| -> f64 {
            s.buckets
                .get(name)
                .and_then(|b| b.iter().find(|(e, _)| *e == edge).map(|(_, c)| *c))
                .unwrap_or(0.0)
        };
        let Some(edges) = self.buckets.get(name) else {
            return 0.0;
        };
        let total = self.diff(before, &format!("{name}_count"));
        if total <= 0.0 {
            return 0.0;
        }
        let target = q * total;
        let mut lower_edge = 0.0;
        let mut lower_count = 0.0;
        for &(edge, _) in edges {
            let count = cumulative(self, edge) - cumulative(before, edge);
            if count >= target {
                if !edge.is_finite() {
                    return lower_edge;
                }
                let inside = (count - lower_count).max(1.0);
                return lower_edge + (edge - lower_edge) * (target - lower_count) / inside;
            }
            lower_edge = edge;
            lower_count = count;
        }
        lower_edge
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn stats_parse_sums_labels_and_diffs_histograms() {
        let before = Stats::parse(
            "# TYPE x counter\nx{worker=\"0\"} 2\nx{worker=\"1\"} 3\n\
             h_bucket{le=\"1\"} 0\nh_bucket{le=\"3\"} 0\nh_bucket{le=\"+Inf\"} 0\nh_count 0\n",
        );
        let after = Stats::parse(
            "x{worker=\"0\"} 4\nx{worker=\"1\"} 3\n\
             h_bucket{le=\"1\"} 5\nh_bucket{le=\"3\"} 10\nh_bucket{le=\"+Inf\"} 10\nh_count 10\n",
        );
        assert_eq!(after.diff(&before, "x"), 2.0);
        assert_eq!(after.hist_quantile_diff(&before, "h", 0.5), 1.0);
        assert_eq!(after.hist_quantile_diff(&before, "h", 1.0), 3.0);
    }
}
