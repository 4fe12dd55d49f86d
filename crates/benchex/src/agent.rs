//! The in-VM reporting agent.
//!
//! "BenchEx also provides an online monitoring interface to an external
//! agent, running inside each VM, through which it can continuously report
//! the observed server-side latencies. The agent may then forward this
//! information to the main ResEx module running in Dom0." The paper puts
//! the cost of a report at about 10 µs of the VM's CPU; the platform does
//! not charge it.

use crate::latency::LatencyWindow;
use resex_simcore::time::SimTime;
use serde::{Deserialize, Serialize};

/// One report forwarded to ResEx in dom0.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatencyReport {
    /// When the report was generated.
    pub at: SimTime,
    /// Requests covered by this report.
    pub count: u64,
    /// Mean total service latency, µs.
    pub mean_us: f64,
    /// Population standard deviation of total latency, µs.
    pub std_us: f64,
    /// Mean I/O wait component, µs (where interference lands).
    pub wtime_mean_us: f64,
}

/// Collects the server's recent latency records and produces reports.
#[derive(Default)]
pub struct ReportingAgent {
    last_report: SimTime,
    reports_sent: u64,
}

impl ReportingAgent {
    /// Number of reports generated.
    pub fn reports_sent(&self) -> u64 {
        self.reports_sent
    }

    /// Generates a report over records newer than the previous report
    /// (None when there are no new records).
    pub fn report(&mut self, window: &LatencyWindow, now: SimTime) -> Option<LatencyReport> {
        let mut total = resex_simcore::stats::OnlineStats::new();
        let mut wtime = resex_simcore::stats::OnlineStats::new();
        for r in window.since(self.last_report) {
            total.push(r.total().as_micros_f64());
            wtime.push(r.wtime.as_micros_f64());
        }
        self.last_report = now;
        self.reports_sent += 1;
        if total.count() == 0 {
            return None;
        }
        Some(LatencyReport {
            at: now,
            count: total.count(),
            mean_us: total.mean(),
            std_us: total.population_std_dev(),
            wtime_mean_us: wtime.mean(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyRecord;
    use resex_simcore::time::SimDuration;

    fn rec(at_us: u64, total_us: u64) -> LatencyRecord {
        LatencyRecord {
            at: SimTime::from_micros(at_us),
            request_id: at_us,
            ptime: SimDuration::from_micros(total_us / 4),
            ctime: SimDuration::from_micros(total_us / 2),
            wtime: SimDuration::from_micros(total_us - total_us / 4 - total_us / 2),
        }
    }

    #[test]
    fn report_summarizes_new_records_only() {
        let mut w = LatencyWindow::new(100);
        let mut agent = ReportingAgent::default();
        w.push(rec(10, 200));
        w.push(rec(20, 220));
        let r1 = agent.report(&w, SimTime::from_micros(100)).unwrap();
        assert_eq!(r1.count, 2);
        assert!((r1.mean_us - 210.0).abs() < 1e-9);
        // Next interval sees only newer records.
        w.push(rec(150, 400));
        let r2 = agent.report(&w, SimTime::from_micros(200)).unwrap();
        assert_eq!(r2.count, 1);
        assert_eq!(r2.mean_us, 400.0);
    }

    #[test]
    fn empty_interval_returns_none_but_still_counts() {
        let w = LatencyWindow::new(10);
        let mut agent = ReportingAgent::default();
        assert!(agent.report(&w, SimTime::from_micros(50)).is_none());
        assert_eq!(agent.reports_sent(), 1);
    }

    #[test]
    fn std_reflects_variation() {
        let mut w = LatencyWindow::new(10);
        let mut agent = ReportingAgent::default();
        w.push(rec(1, 200));
        w.push(rec(2, 200));
        let r = agent.report(&w, SimTime::from_micros(10));
        assert_eq!(r.unwrap().std_us, 0.0, "no jitter");
        w.push(rec(11, 100));
        w.push(rec(12, 300));
        let r = agent.report(&w, SimTime::from_micros(20));
        assert!(r.unwrap().std_us > 90.0, "interference shows as std");
    }
}
