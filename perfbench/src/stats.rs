//! The benchmark's own arithmetic: percentiles that refuse to answer without
//! a tail behind them, ratios that carry their base, and open-loop latency
//! accounting.

use std::fmt;
use std::time::{Duration, Instant};

/// A percentile is reported only when at least this many samples lie beyond
/// it; with fewer, the tail is too thin to tell one run from the next.
pub const MIN_TAIL: usize = 10;

/// A bag of measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The nearest-rank `p` percentile (`0 < p < 1`): the smallest sample
    /// with at least `p` of all samples at or below it.  An error when fewer
    /// than [`MIN_TAIL`] samples rank above it.
    pub fn percentile(&self, p: f64) -> Result<f64, String> {
        assert!(p > 0.0 && p < 1.0, "percentile {p} out of (0, 1)");
        let n = self.values.len();
        // the epsilon keeps 0.99 * 1000 at rank 990 despite binary rounding
        let rank = ((p * n as f64 - 1e-9).ceil() as usize).max(1);
        let beyond = n.saturating_sub(rank);
        if n == 0 || beyond < MIN_TAIL {
            return Err(format!(
                "p{} of {n} samples has {beyond} beyond it, needs {MIN_TAIL}",
                p * 100.0
            ));
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        Ok(sorted[rank - 1])
    }

    /// The median, under the same tail rule as [`Samples::percentile`].
    pub fn median(&self) -> Result<f64, String> {
        self.percentile(0.5)
    }
}

/// A ratio kept with its numerator and denominator, so a report can say
/// what it is a share of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub den: f64,
}

impl Ratio {
    pub fn new(num: f64, den: f64) -> Ratio {
        Ratio { num, den }
    }

    /// `num / den`, or 0 for an empty base (nothing attempted, nothing
    /// achieved).
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let part = |x: f64| {
            if x.fract() == 0.0 {
                format!("{x}")
            } else {
                format!("{x:.4}")
            }
        };
        write!(
            f,
            "{:.4} ({}/{})",
            self.value(),
            part(self.num),
            part(self.den)
        )
    }
}

/// A fixed-rate send schedule: request `i` is due at `start + i / rate`,
/// whether or not earlier requests have finished.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    rate_per_s: f64,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_s: f64) -> Schedule {
        assert!(rate_per_s > 0.0, "an open loop needs a positive rate");
        Schedule { start, rate_per_s }
    }

    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate_per_s)
    }
}

/// One open-loop request's timing, all in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopTiming {
    /// From when the request was due to when its reply was in hand: a stall
    /// in front of it counts against it, not only its own service time.
    pub latency_ms: f64,
    /// How late the generator sent it.
    pub late_ms: f64,
    /// From send to reply.
    pub service_ms: f64,
}

impl OpenLoopTiming {
    pub fn new(due: Instant, sent: Instant, done: Instant) -> OpenLoopTiming {
        let ms = |later: Instant, earlier: Instant| {
            later.saturating_duration_since(earlier).as_secs_f64() * 1e3
        };
        OpenLoopTiming {
            latency_ms: ms(done, due),
            late_ms: ms(sent, due),
            service_ms: ms(done, sent),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::default();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p95 of 200: rank 190, exactly 10 beyond
        let s = samples((1..=200).map(f64::from));
        assert_eq!(s.percentile(0.95), Ok(190.0));
        // p95 of 199: rank 190, 9 beyond
        let s = samples((1..=199).map(f64::from));
        assert!(s.percentile(0.95).is_err());
        // p99 needs 1000 samples; the median needs 20
        assert!(samples((1..=999).map(f64::from)).percentile(0.99).is_err());
        assert_eq!(
            samples((1..=1000).map(f64::from)).percentile(0.99),
            Ok(990.0)
        );
        assert!(samples((1..=19).map(f64::from)).median().is_err());
        assert_eq!(samples((1..=20).map(f64::from)).median(), Ok(10.0));
        assert!(Samples::default().median().is_err());
    }

    #[test]
    fn percentile_ignores_insertion_order() {
        let s = samples((1..=40).rev().map(f64::from));
        assert_eq!(s.median(), Ok(20.0));
    }

    #[test]
    fn ratios_keep_their_base() {
        let r = Ratio::new(3.0, 4.0);
        assert_eq!(r.value(), 0.75);
        assert_eq!(r.to_string(), "0.7500 (3/4)");
        let empty = Ratio::new(0.0, 0.0);
        assert_eq!(empty.value(), 0.0);
        assert_eq!(empty.to_string(), "0.0000 (0/0)");
        assert_eq!(Ratio::new(0.5, 2.25).to_string(), "0.2222 (0.5000/2.2500)");
    }

    #[test]
    fn open_loop_latency_counts_the_wait_behind_a_stall() {
        // reads due every 1 ms; the first takes 50 ms, so the second can
        // only be sent at 50 ms and finishes at 51 ms
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let schedule = Schedule::new(t0, 1000.0);
        let first = OpenLoopTiming::new(schedule.due(0), at(0), at(50));
        let second = OpenLoopTiming::new(schedule.due(1), at(50), at(51));
        assert!((first.latency_ms - 50.0).abs() < 1e-6);
        // timed from when it was due: 50 ms, not its own 1 ms of service
        assert!((second.latency_ms - 50.0).abs() < 1e-6);
        assert!((second.service_ms - 1.0).abs() < 1e-6);
        assert!((second.late_ms - 49.0).abs() < 1e-6);
    }

    #[test]
    fn schedule_does_not_slow_down_with_the_system() {
        let t0 = Instant::now();
        let schedule = Schedule::new(t0, 250.0);
        assert_eq!(schedule.due(0), t0);
        assert_eq!(schedule.due(250) - t0, Duration::from_secs(1));
    }
}
