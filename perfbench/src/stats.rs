//! The benchmark's own statistics: percentiles, the tail rule, the
//! least-squares stage fit and open-loop (due-time) timing.

use std::time::{Duration, Instant};

/// Samples needed beyond a percentile before it may be reported as the tail.
pub const TAIL_BEYOND: usize = 10;

/// Sort a sample vector ascending (NaN-free input).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Nearest-rank quantile `q` in `[0, 1]` of ascending `sorted` samples;
/// 0 for an empty set.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The tail of a sample set: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples strictly beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// The percentile, `100 · (rank + 1) / n`.
    pub percentile: f64,
    /// Total samples.
    pub samples: usize,
    /// Samples strictly beyond the reported one.
    pub beyond: usize,
}

/// Apply the tail rule to ascending `sorted` samples. The tail never reads
/// below the median: when fewer than [`TAIL_BEYOND`] samples lie beyond the
/// median, the median is returned, with `beyond` stating how many do.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    // The same median rank as `quantile(sorted, 0.5)`.
    let mid = ((n - 1) as f64 * 0.5).round() as usize;
    let rank = n.saturating_sub(1 + TAIL_BEYOND).max(mid);
    Tail {
        value: sorted[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples: n,
        beyond: n - 1 - rank,
    }
}

/// Ordinary least-squares fit `y = fixed + slope · x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    pub fixed: f64,
    pub slope: f64,
}

/// Fit `y` against `x`; `None` with fewer than two distinct `x` values.
pub fn least_squares(points: &[(f64, f64)]) -> Option<Fit> {
    let n = points.len() as f64;
    if points.len() < 2 {
        return None;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let slope = sxy / sxx;
    Some(Fit {
        fixed: my - slope * mx,
        slope,
    })
}

/// An open-loop arrival schedule: submission `i` is due at
/// `start + i / rate`, whether or not earlier submissions have finished.
/// Every latency is timed from the due instant, so a stall that delays the
/// generator is charged to every submission it held back.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    start: Instant,
    period: Duration,
}

impl OpenLoop {
    pub fn new(start: Instant, rate_per_s: f64) -> Self {
        OpenLoop {
            start,
            period: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    /// When submission `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.period * i as u32
    }

    /// Sleep until submission `i` is due; returns at once when it is late.
    pub fn wait_for(&self, i: usize) {
        let due = self.due(i);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
    }

    /// How late a submission call that began at `began` was, in ms.
    pub fn late_ms(&self, i: usize, began: Instant) -> f64 {
        ms(began.saturating_duration_since(self.due(i)))
    }

    /// Latency of an event at `at` for submission `i`, timed from its due
    /// instant, in ms.
    pub fn since_due_ms(&self, i: usize, at: Instant) -> f64 {
        ms(at.saturating_duration_since(self.due(i)))
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=800).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 800);
        assert_eq!(t.value, 790.0);
        assert!((t.percentile - 98.75).abs() < 1e-9);

        // 21 samples: the median is the highest rank with ten beyond.
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.beyond), (11.0, 10));
    }

    #[test]
    fn tail_with_too_few_samples_falls_back_to_the_median() {
        for n in [1u32, 5, 11, 19] {
            let v: Vec<f64> = (1..=n).map(f64::from).collect();
            let t = tail(&v);
            assert_eq!(t.value, quantile(&v, 0.5), "n={n}");
            assert!(t.beyond < TAIL_BEYOND, "n={n}");
        }
    }

    #[test]
    fn least_squares_recovers_an_exact_line() {
        let pts: Vec<(f64, f64)> = [1.0, 2.0, 4.0, 8.0]
            .iter()
            .map(|&x| (x, 12.5 + 4.0 * x))
            .collect();
        let fit = least_squares(&pts).expect("distinct x");
        assert!((fit.slope - 4.0).abs() < 1e-9);
        assert!((fit.fixed - 12.5).abs() < 1e-9);
    }

    #[test]
    fn least_squares_needs_two_distinct_x() {
        assert!(least_squares(&[(2.0, 1.0)]).is_none());
        assert!(least_squares(&[(2.0, 1.0), (2.0, 3.0)]).is_none());
    }

    #[test]
    fn open_loop_times_from_the_due_instant() {
        let t0 = Instant::now();
        let sched = OpenLoop::new(t0, 40.0); // one every 25 ms
        assert_eq!(sched.due(4), t0 + Duration::from_millis(100));
        // Submission 4 began 30 ms late (a stall held the generator) and
        // its result arrived 10 ms after the call began: the reported
        // latency charges the stall, 40 ms, not just the 10 ms.
        let began = sched.due(4) + Duration::from_millis(30);
        let done = began + Duration::from_millis(10);
        assert!((sched.late_ms(4, began) - 30.0).abs() < 1e-6);
        assert!((sched.since_due_ms(4, done) - 40.0).abs() < 1e-6);
        // Early events never read negative.
        assert_eq!(sched.late_ms(4, t0), 0.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = sorted(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
