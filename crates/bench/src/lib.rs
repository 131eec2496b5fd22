//! Shared measurement utilities for the experiment harness and the
//! in-tree micro-benchmarks.

pub mod harness;
pub mod hwinfo;
pub mod json;
pub mod load;
pub mod report;
pub mod serve_stats;

use dbep_runtime::counters::{self, CounterValues};
use std::time::{Duration, Instant};

/// Wall time of `reps` runs after one warm-up run: the median with the
/// run-to-run spread beside it.
#[derive(Clone, Copy, Debug)]
pub struct TimeSpread {
    pub median: Duration,
    pub min: Duration,
    pub max: Duration,
}

impl TimeSpread {
    /// The spread of a non-empty set of samples.
    pub fn of(mut times: Vec<Duration>) -> Self {
        times.sort_unstable();
        TimeSpread {
            median: times[times.len() / 2],
            min: times[0],
            max: times[times.len() - 1],
        }
    }
}

/// Time `reps` runs of `f` after one warm-up run.
pub fn time_spread(reps: usize, mut f: impl FnMut()) -> TimeSpread {
    f(); // warm-up
    TimeSpread::of(
        (0..reps.max(1))
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed()
            })
            .collect(),
    )
}

/// Median wall time of `reps` runs after one warm-up run.
pub fn time_median(reps: usize, f: impl FnMut()) -> Duration {
    time_spread(reps, f).median
}

/// One counter-instrumented run (after one warm-up run).
pub fn measure_counters(mut f: impl FnMut()) -> CounterValues {
    f(); // warm-up
    let (_, v) = counters::measure(f);
    v
}

/// Format a duration as milliseconds with sensible precision.
pub fn fmt_ms(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 1.0 {
        format!("{ms:.1}")
    } else {
        format!("{ms:.3}")
    }
}

/// Whether real hardware counters are available (printed as a caveat
/// when they are not — the container fallback is TSC-only).
pub fn counters_note() -> &'static str {
    if dbep_runtime::CounterSet::available() {
        "hardware counters: perf_event_open"
    } else {
        "hardware counters UNAVAILABLE (perf_event_paranoid); cycles derived from TSC, other events print '-'"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_stable() {
        let mut n = 0u64;
        let d = time_median(3, || {
            n += 1;
            std::thread::sleep(Duration::from_millis(1));
        });
        assert_eq!(n, 4); // warm-up + 3 reps
        assert!(d >= Duration::from_millis(1));
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ms(Duration::from_millis(250)), "250");
        assert_eq!(fmt_ms(Duration::from_micros(1500)), "1.5");
    }
}
