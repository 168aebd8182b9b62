//! The benchmark's bookkeeping: percentiles that the sample supports,
//! open-loop due-time accounting, and failure counting.

use std::time::{Duration, Instant};

/// Samples a reported percentile must have strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// A latency summary: the median and one tail percentile, with the
/// sample count they were taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub count: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// The requested tail percentile (nearest rank).
    pub tail: f64,
}

/// The nearest-rank `p`-th percentile of `samples`, or `None` unless at
/// least [`MIN_BEYOND`] samples lie beyond its rank. A percentile with
/// fewer samples past it is a guess about the tail, not a measurement.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Samples needed before the `p`-th percentile can be reported.
#[must_use]
pub fn samples_needed(p: f64) -> usize {
    (1..).find(|&n| percentile(&vec![0.0; n], p).is_some()).expect("some count suffices")
}

/// Median and `tail`-th percentile together, `None` if the sample does
/// not support the tail.
#[must_use]
pub fn summarize(samples: &[f64], tail: f64) -> Option<Summary> {
    Some(Summary {
        count: samples.len(),
        p50: percentile(samples, 50.0)?,
        tail: percentile(samples, tail)?,
    })
}

/// Plain median of whatever was measured (for repeated timings of one
/// operation, where no tail is reported).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Due times of an open-loop sender: request `i` is due at
/// `start + i × period`, whatever happened to request `i − 1`.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    start: Instant,
    period: Duration,
    next: u64,
    max_late: Duration,
}

impl OpenLoop {
    /// A schedule of `rate_hz` requests per second starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` is not positive.
    #[must_use]
    pub fn new(start: Instant, rate_hz: f64) -> Self {
        assert!(rate_hz > 0.0, "an open loop needs a positive rate");
        OpenLoop {
            start,
            period: Duration::from_secs_f64(1.0 / rate_hz),
            next: 0,
            max_late: Duration::ZERO,
        }
    }

    /// When the next request is due.
    #[must_use]
    pub fn next_due(&self) -> Instant {
        self.start + self.period.mul_f64(self.next as f64)
    }

    /// Claims the next request slot, recording how late the sender is at
    /// `now` (zero when early), and returns its due time. Latencies are
    /// timed from the due time, so a stall also charges every request it
    /// delayed.
    pub fn claim(&mut self, now: Instant) -> Instant {
        let due = self.next_due();
        self.max_late = self.max_late.max(now.saturating_duration_since(due));
        self.next += 1;
        due
    }

    /// Requests claimed so far.
    #[must_use]
    pub fn claimed(&self) -> u64 {
        self.next
    }

    /// The worst lateness seen at a claim: large values mean the sender,
    /// not only the system under test, fell behind its schedule.
    #[must_use]
    pub fn max_late(&self) -> Duration {
        self.max_late
    }
}

/// Operations attempted and failed, with the first few failure reasons
/// kept for the report.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

/// Failure reasons kept verbatim; later ones are only counted.
const KEPT_REASONS: usize = 8;

impl Tally {
    /// Counts `n` successful operations.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` failed operations and why.
    pub fn fail(&mut self, n: u64, reason: impl Into<String>) {
        self.attempted += n;
        self.failed += n;
        if self.reasons.len() < KEPT_REASONS {
            self.reasons.push(reason.into());
        }
    }

    /// Adds another tally's counts and kept reasons.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEPT_REASONS.saturating_sub(self.reasons.len());
        self.reasons.extend(other.reasons.into_iter().take(room));
    }

    /// Operations attempted.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// `failed / attempted` (zero when nothing was attempted).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The kept failure reasons, oldest first.
    #[must_use]
    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 1..=99: rank 90 leaves 9 beyond — not reportable.
        assert_eq!(percentile(&ramp(99), 90.0), None);
        // p90 of 1..=100: rank 90 leaves exactly 10 beyond.
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(50.0), 20);
        assert_eq!(samples_needed(99.0), 1000);
        // The median of 20 samples is rank 10.
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled = ramp(200);
        shuffled.reverse();
        shuffled.swap(3, 150);
        assert_eq!(percentile(&shuffled, 50.0), Some(100.0));
        assert_eq!(percentile(&shuffled, 90.0), Some(180.0));
    }

    #[test]
    fn summary_carries_the_count_and_refuses_thin_tails() {
        let s = summarize(&ramp(150), 90.0).expect("150 samples support p90");
        assert_eq!(s, Summary { count: 150, p50: 75.0, tail: 135.0 });
        assert!(summarize(&ramp(60), 90.0).is_none());
        assert!(summarize(&[], 50.0).is_none());
        assert_eq!(percentile(&ramp(100), 101.0), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn open_loop_due_times_do_not_slip_after_a_stall() {
        let t0 = Instant::now();
        let mut q = OpenLoop::new(t0, 10.0); // one request per 100 ms
        assert_eq!(q.claim(t0), t0);
        // The second request is sent 250 ms late (a stall) ...
        let late = t0 + Duration::from_millis(350);
        assert_eq!(q.claim(late), t0 + Duration::from_millis(100));
        assert_eq!(q.max_late(), Duration::from_millis(250));
        // ... and the third is still due on the original grid, so its
        // latency is charged from 200 ms, not from when it was sent.
        assert_eq!(q.next_due(), t0 + Duration::from_millis(200));
        assert_eq!(q.claim(late), t0 + Duration::from_millis(200));
        assert_eq!(q.max_late(), Duration::from_millis(250), "max, not last");
        // Early sends are never negative lateness.
        let _ = q.claim(t0);
        assert_eq!(q.claimed(), 4);
        assert_eq!(q.max_late(), Duration::from_millis(250));
    }

    #[test]
    #[should_panic(expected = "positive rate")]
    fn open_loop_rejects_a_zero_rate() {
        let _ = OpenLoop::new(Instant::now(), 0.0);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.ratio(), 0.0);
        t.ok(90);
        t.fail(10, "timeout");
        assert_eq!((t.attempted(), t.failed()), (100, 10));
        assert!((t.ratio() - 0.1).abs() < 1e-12);
        t.ok(5);
        t.fail(5, "lost packets");
        assert_eq!((t.attempted(), t.failed()), (110, 15));
        assert_eq!(t.reasons(), ["timeout", "lost packets"]);
        for i in 0..20 {
            t.fail(1, format!("extra {i}"));
        }
        assert_eq!(t.failed(), 35, "every failure is counted");
        assert_eq!(t.reasons().len(), KEPT_REASONS, "only the first reasons are kept");

        let mut total = Tally::default();
        total.ok(3);
        let mut querier = Tally::default();
        querier.ok(7);
        querier.fail(2, "timeout");
        total.absorb(querier);
        assert_eq!((total.attempted(), total.failed()), (12, 2));
        assert_eq!(total.reasons(), ["timeout"]);
    }
}
