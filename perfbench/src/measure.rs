//! Measurement helpers shared by the workloads: correctness gates,
//! named metrics, order statistics, set-up timing and peak RSS.

use std::fmt::Debug;
use std::time::Instant;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Correctness gates: every check is one attempted operation; a
/// mismatch counts as failed and is kept for the report.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Gate {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records one equality check, naming both sides on mismatch.
    pub fn eq<T: PartialEq + Debug>(&mut self, what: &str, got: T, want: T) {
        let ok = got == want;
        self.check(ok, || format!("{what}: got {got:?}, want {want:?}"));
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The highest percentile that still has at least ten samples beyond
/// it, as `(percentile, value)`. With fewer than eleven samples no
/// percentile qualifies and the maximum is reported as p100.
pub fn tail(values: &[f64]) -> (u32, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return (100, 0.0);
    }
    if n < 11 {
        return (100, sorted[n - 1]);
    }
    // Largest whole percentile p with n - ceil(p/100 * n) >= 10.
    let mut p = 99;
    while p > 0 {
        let rank = (p * n).div_ceil(100);
        if n - rank >= 10 {
            return (p as u32, sorted[rank.max(1) - 1]);
        }
        p -= 1;
    }
    (0, sorted[0])
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, secs(start))
}

/// Set-up time of `f` in seconds: `f` runs in batches sized to take at
/// least 10 ms, and the median of 9 batch means is returned, so
/// sub-microsecond set-ups still read well above timer resolution and
/// allocator noise averages out within a batch.
pub fn setup_time<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut batch = 1u32;
    loop {
        let (_, t) = timed(|| (0..batch).for_each(|_| drop(std::hint::black_box(f()))));
        if t >= 10e-3 || batch >= 1 << 24 {
            break;
        }
        batch *= 4;
    }
    let means: Vec<f64> = (0..9)
        .map(|_| {
            let (_, t) = timed(|| (0..batch).for_each(|_| drop(std::hint::black_box(f()))));
            t / f64::from(batch)
        })
        .collect();
    median(&means)
}

/// What [`repeat_for`] measured.
pub struct Run<P> {
    pub passes: Vec<P>,
    /// Set-up times in seconds: one before every pass and one after
    /// the last.
    pub setups: Vec<f64>,
    /// Peak RSS in MB as it stood after the first pass: one pass's
    /// peak, before allocator growth over repeated passes can add to it.
    pub peak_rss_mb: f64,
}

/// Runs `pass` at least once and then again while another set-up and
/// pass of median length still fit in `seconds`. `setup` returns one
/// set-up time; it is sampled before every pass and once after the
/// last, so the set-up samples spread over the run as the passes do and
/// a slow spell of the host does not land on all of them.
pub fn repeat_for<P>(
    seconds: f64,
    mut setup: impl FnMut() -> f64,
    wall_of: impl Fn(&P) -> f64,
    mut pass: impl FnMut(usize) -> P,
) -> Run<P> {
    let start = Instant::now();
    let mut setups = vec![setup()];
    let mut passes = vec![pass(0)];
    let peak_rss_mb = peak_rss_mb();
    loop {
        let walls: Vec<f64> = passes.iter().map(&wall_of).collect();
        if secs(start) + median(&setups) + median(&walls) > seconds {
            setups.push(setup());
            return Run {
                passes,
                setups,
                peak_rss_mb,
            };
        }
        setups.push(setup());
        passes.push(pass(passes.len()));
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=60).map(f64::from).collect();
        let (p, v) = tail(&values);
        // p83 of 60 samples is rank 50: ten samples lie above it.
        assert_eq!((p, v), (83, 50.0));
        assert_eq!(tail(&[1.0, 5.0, 2.0]), (100, 5.0));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven), (9, 1.0));
    }

    #[test]
    fn gate_counts_failures_against_attempts() {
        let mut gate = Gate::default();
        gate.eq("states", 3, 3);
        gate.eq("edges", 4, 5);
        assert_eq!((gate.attempted, gate.failed), (2, 1));
        assert_eq!(gate.error_rate(), 0.5);
        assert!(gate.failures[0].contains("edges"));
    }
}
