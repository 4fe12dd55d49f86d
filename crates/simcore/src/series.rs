//! Time-series recording for experiment output.
//!
//! Experiments collect `(time, value)` traces — latency per request, CPU cap
//! per interval, Resos remaining per interval — and the figure harness later
//! down-samples them onto the axes the paper plots. [`TimeSeries`] is a plain
//! append-only recorder; [`WindowedRate`] converts event counts into rates
//! over a sliding window (used by IBMon's estimators).

use crate::stats::OnlineStats;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// An append-only `(time, value)` trace.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends a point. Times must be non-decreasing.
    ///
    /// # Panics
    /// In debug builds if `t` precedes the previous point.
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(last, _)| t >= last),
            "time series must be appended in order"
        );
        self.points.push((t, v));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Iterates values only.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|&(_, v)| v)
    }

    /// Summary statistics over all values.
    pub fn stats(&self) -> OnlineStats {
        let mut s = OnlineStats::new();
        for v in self.values() {
            s.push(v);
        }
        s
    }

    /// Summary statistics restricted to `[from, to)`.
    pub fn stats_between(&self, from: SimTime, to: SimTime) -> OnlineStats {
        let mut s = OnlineStats::new();
        for &(t, v) in &self.points {
            if t >= from && t < to {
                s.push(v);
            }
        }
        s
    }

    /// Buckets the series into fixed windows of `width`, averaging the values
    /// in each window. Windows with no points are omitted. This is how long
    /// per-interval traces are reduced to a plottable number of points.
    pub fn downsample_mean(&self, width: SimDuration) -> Vec<(SimTime, f64)> {
        assert!(!width.is_zero(), "window width must be positive");
        let mut out = Vec::new();
        let mut window_start: Option<SimTime> = None;
        let mut acc = OnlineStats::new();
        for &(t, v) in &self.points {
            match window_start {
                None => {
                    window_start = Some(t);
                    acc.push(v);
                }
                Some(ws) if t.duration_since(ws) < width => acc.push(v),
                Some(ws) => {
                    out.push((ws, acc.mean()));
                    acc.clear();
                    // Advance the window origin in whole steps so bucket
                    // boundaries stay aligned even across gaps.
                    let gap = t.duration_since(ws).as_nanos() / width.as_nanos();
                    window_start = Some(ws + width * gap);
                    acc.push(v);
                }
            }
        }
        if let Some(ws) = window_start {
            if acc.count() > 0 {
                out.push((ws, acc.mean()));
            }
        }
        out
    }

    /// Removes all points.
    pub fn clear(&mut self) {
        self.points.clear();
    }
}

/// Sliding-window rate estimator: feed timestamped counts, query the rate
/// (count per second) over the most recent window.
#[derive(Clone, Debug)]
pub struct WindowedRate {
    window: SimDuration,
    events: VecDeque<(SimTime, u64)>,
    in_window: u64,
    lifetime: u64,
}

impl WindowedRate {
    /// Creates an estimator with the given window length.
    ///
    /// # Panics
    /// If the window is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        WindowedRate {
            window,
            events: VecDeque::new(),
            in_window: 0,
            lifetime: 0,
        }
    }

    /// Records `count` events at time `t`.
    pub fn record(&mut self, t: SimTime, count: u64) {
        self.evict(t);
        self.events.push_back((t, count));
        self.in_window += count;
        self.lifetime += count;
    }

    fn evict(&mut self, now: SimTime) {
        let cutoff = now.saturating_duration_since(SimTime::ZERO);
        let horizon = if cutoff <= self.window {
            SimTime::ZERO
        } else {
            now - self.window
        };
        while let Some(&(t, c)) = self.events.front() {
            if t < horizon {
                self.events.pop_front();
                self.in_window -= c;
            } else {
                break;
            }
        }
    }

    /// Events per second over the window ending at `now`.
    pub fn rate_per_sec(&mut self, now: SimTime) -> f64 {
        self.evict(now);
        self.in_window as f64 / self.window.as_secs_f64()
    }

    /// Raw event count inside the window ending at `now`.
    pub fn count_in_window(&mut self, now: SimTime) -> u64 {
        self.evict(now);
        self.in_window
    }

    /// Total events ever recorded.
    pub fn lifetime_count(&self) -> u64 {
        self.lifetime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn series_records_in_order() {
        let mut s = TimeSeries::new();
        s.push(ms(1), 1.0);
        s.push(ms(2), 3.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.stats().mean(), 2.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn series_rejects_out_of_order() {
        let mut s = TimeSeries::new();
        s.push(ms(2), 1.0);
        s.push(ms(1), 1.0);
    }

    #[test]
    fn stats_between_filters() {
        let mut s = TimeSeries::new();
        for i in 0..10 {
            s.push(ms(i), i as f64);
        }
        let st = s.stats_between(ms(2), ms(5));
        assert_eq!(st.count(), 3);
        assert_eq!(st.mean(), 3.0);
    }

    #[test]
    fn downsample_averages_windows() {
        let mut s = TimeSeries::new();
        // Two points in [0, 10ms), two in [10, 20ms).
        s.push(ms(0), 1.0);
        s.push(ms(5), 3.0);
        s.push(ms(10), 10.0);
        s.push(ms(15), 20.0);
        let d = s.downsample_mean(SimDuration::from_millis(10));
        assert_eq!(d.len(), 2);
        assert_eq!(d[0], (ms(0), 2.0));
        assert_eq!(d[1], (ms(10), 15.0));
    }

    #[test]
    fn downsample_handles_gaps() {
        let mut s = TimeSeries::new();
        s.push(ms(0), 1.0);
        s.push(ms(100), 9.0);
        let d = s.downsample_mean(SimDuration::from_millis(10));
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].0, ms(0));
        assert_eq!(d[1].0, ms(100), "window origin stays grid-aligned");
    }

    #[test]
    fn downsample_empty_is_empty() {
        let s = TimeSeries::new();
        assert!(s.downsample_mean(SimDuration::from_millis(1)).is_empty());
    }

    #[test]
    fn windowed_rate_basic() {
        let mut w = WindowedRate::new(SimDuration::from_secs(1));
        w.record(ms(100), 500);
        w.record(ms(600), 500);
        assert_eq!(w.count_in_window(ms(900)), 1000);
        assert!((w.rate_per_sec(ms(900)) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn windowed_rate_evicts_old_events() {
        let mut w = WindowedRate::new(SimDuration::from_secs(1));
        w.record(ms(0), 100);
        w.record(ms(1500), 50);
        // At t=1.5s, the t=0 batch is outside the (0.5s, 1.5s] window.
        assert_eq!(w.count_in_window(ms(1500)), 50);
        assert_eq!(w.lifetime_count(), 150);
    }

    #[test]
    fn windowed_rate_near_time_zero() {
        let mut w = WindowedRate::new(SimDuration::from_secs(2));
        w.record(ms(10), 7);
        // Window extends past t=0; nothing evicted, no underflow.
        assert_eq!(w.count_in_window(ms(500)), 7);
    }
}
