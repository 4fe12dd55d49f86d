//! Experiment output: everything a figure needs.
//!
//! Memory is bounded by construction: latency percentiles come from a
//! fixed-size [`Histogram`] and the component means from an
//! incrementally-updated [`LatencySummary`], so a million-request run
//! costs the same bytes as a thousand-request run. The raw per-request
//! [`LatencyRecord`] stream is opt-in (`keep_records`) for tests and
//! tools that need exact-sort ground truth.

use resex_benchex::{LatencyRecord, LatencySummary};
use resex_obs::SloMonitor;
use resex_simcore::stats::Histogram;
use resex_simcore::time::SimDuration;
use resex_simcore::{ShardStats, TimeSeries};
use serde::Serialize;

/// Per-VM measurement streams collected during a run.
#[derive(Clone, Debug)]
pub struct VmMetrics {
    /// VM name (e.g. "64KB", "2MB").
    pub name: String,
    /// Post-warmup latency records in completion order — **only** kept
    /// when [`VmMetrics::keep_records`] is set; empty otherwise. Summary
    /// statistics never depend on this Vec.
    pub records: Vec<LatencyRecord>,
    /// When true, post-warmup records are retained in `records`
    /// (unbounded memory — for exact-percentile tests and offline tools).
    pub keep_records: bool,
    /// Incremental component summary (total/ptime/ctime/wtime), post-warmup.
    pub summary: LatencySummary,
    /// Latency histogram (total service time, ns), post-warmup.
    pub histogram: Histogram,
    /// SLO-violation monitor, present when the VM's spec sets a latency
    /// threshold. Pure observation — never feeds back into scheduling.
    pub slo: Option<SloMonitor>,
    /// Per-interval SLO violation fraction (violations/checked in the
    /// interval), recorded every charging interval while `slo` is active.
    pub slo_trace: TimeSeries,
    /// CPU cap over time (sampled every charging interval).
    pub cap_trace: TimeSeries,
    /// Remaining Reso fraction over time (ResEx runs only).
    pub reso_trace: TimeSeries,
    /// IBMon MTU estimate per interval.
    pub mtus_trace: TimeSeries,
    /// Mean latency per interval (µs), for timeline figures.
    pub latency_trace: TimeSeries,
    /// Requests served (lifetime).
    pub served: u64,
    /// Ground-truth MTUs sent (fabric counters), for estimator validation.
    pub true_mtus: u64,
    /// IBMon lifetime MTU estimate.
    pub ibmon_mtus: u64,
    /// Client requests re-issued after a timeout.
    pub retries: u64,
    /// Client requests permanently lost (retry budget exhausted). The
    /// recovery layer's target is zero.
    pub lost_requests: u64,
    /// QP reconnect cycles (server- plus client-side QP).
    pub reconnects: u64,
    /// Journaled sends replayed across reconnects.
    pub replayed: u64,
    /// Manager watchdog trips (stale fail-safes plus forced actuations).
    pub watchdog_trips: u64,
    /// True when the scenario's adversary spec marked this VM an attacker.
    pub attacker: bool,
    /// Lifetime Resos this VM was charged (ResEx runs only; 0 otherwise).
    /// Attacker-vs-honest spend is the economic-damage axis: a successful
    /// evasion attack shows up as interference *without* matching spend.
    pub reso_spent: f64,
    /// Charging intervals in which the IBMon cross-check rejected this
    /// VM's ring-scan estimate and substituted the counter-derived count
    /// (hardened runs only).
    pub poison_corrections: u64,
}

impl VmMetrics {
    /// Creates an empty stream set for a named VM.
    pub fn new(name: impl Into<String>) -> Self {
        VmMetrics {
            name: name.into(),
            records: Vec::new(),
            keep_records: false,
            summary: LatencySummary::new(),
            histogram: Histogram::with_default_resolution(),
            slo: None,
            slo_trace: TimeSeries::new(),
            cap_trace: TimeSeries::new(),
            reso_trace: TimeSeries::new(),
            mtus_trace: TimeSeries::new(),
            latency_trace: TimeSeries::new(),
            served: 0,
            true_mtus: 0,
            ibmon_mtus: 0,
            retries: 0,
            lost_requests: 0,
            reconnects: 0,
            replayed: 0,
            watchdog_trips: 0,
            attacker: false,
            reso_spent: 0.0,
            poison_corrections: 0,
        }
    }

    /// Attaches an SLO monitor with the given latency threshold (ns).
    pub fn enable_slo(&mut self, threshold_ns: u64) {
        self.slo = Some(SloMonitor::new(threshold_ns));
    }

    /// Whole-run `(checked, violations)` SLO totals, if monitoring.
    pub fn slo_stats(&self) -> Option<(u64, u64)> {
        self.slo.as_ref().map(|m| m.totals())
    }

    /// Summary over all post-warmup records. Computed incrementally, so
    /// it is valid whether or not raw records were kept.
    pub fn summary(&self) -> LatencySummary {
        self.summary.clone()
    }
}

/// Everything one simulation run produced.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// Scenario label.
    pub label: String,
    /// Active policy name ("none" for unmanaged runs).
    pub policy: String,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Warmup excluded from summaries.
    pub warmup: SimDuration,
    /// Per-VM streams, in VM declaration order.
    pub vms: Vec<VmMetrics>,
    /// Total events processed by the platform loop (sanity/throughput).
    pub events_processed: u64,
    /// What the antagonist plane did (and what the hardening caught).
    /// All-zero in adversary-free runs.
    pub adversary: AdversaryTotals,
    /// What the crash plane did: manager/host/VM crashes, re-admissions,
    /// and the end-of-run journal conservation audit. All-zero in
    /// crash-free runs.
    pub crashes: CrashTotals,
    /// Per-shard calendar accounting, indexed by host shard: events
    /// processed, sync windows joined, and barrier stalls. Empty for
    /// monolithic (single-calendar) runs.
    pub shards: Vec<ShardStats>,
}

impl RunMetrics {
    /// The named VM's metrics.
    pub fn vm(&self, name: &str) -> Option<&VmMetrics> {
        self.vms.iter().find(|v| v.name == name)
    }

    /// Run-wide recovery tallies, summed over VMs.
    pub fn recovery_totals(&self) -> RecoveryTotals {
        let mut t = RecoveryTotals::default();
        for v in &self.vms {
            t.retries += v.retries;
            t.lost_requests += v.lost_requests;
            t.reconnects += v.reconnects;
            t.replayed += v.replayed;
            t.watchdog_trips += v.watchdog_trips;
        }
        t
    }

    /// Compact per-VM summary rows suitable for printing.
    pub fn rows(&self) -> Vec<SummaryRow> {
        self.vms
            .iter()
            .map(|v| {
                let s = v.summary();
                let pct_us = |q: f64| v.histogram.quantile(q) as f64 / 1000.0;
                SummaryRow {
                    vm: v.name.clone(),
                    requests: s.count(),
                    mean_us: s.total.mean(),
                    std_us: s.total.population_std_dev(),
                    p99_us: pct_us(0.99),
                    ptime_us: s.ptime.mean(),
                    ctime_us: s.ctime.mean(),
                    wtime_us: s.wtime.mean(),
                    p50_us: pct_us(0.50),
                    p90_us: pct_us(0.90),
                    p999_us: pct_us(0.999),
                }
            })
            .collect()
    }
}

/// Run-wide recovery tallies — what the self-healing layer did during a
/// faulted run. All-zero (and printed nowhere) in clean runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct RecoveryTotals {
    /// Client requests re-issued after a timeout.
    pub retries: u64,
    /// Client requests permanently lost. Target: zero.
    pub lost_requests: u64,
    /// QP reconnect cycles.
    pub reconnects: u64,
    /// Journaled sends replayed across reconnects.
    pub replayed: u64,
    /// Manager watchdog trips.
    pub watchdog_trips: u64,
}

impl RecoveryTotals {
    /// Accumulates another tally into this one.
    pub fn merge(&mut self, other: RecoveryTotals) {
        self.retries += other.retries;
        self.lost_requests += other.lost_requests;
        self.reconnects += other.reconnects;
        self.replayed += other.replayed;
        self.watchdog_trips += other.watchdog_trips;
    }
}

/// Run-wide adversary tallies — what the antagonist plane did during a
/// run and what the hardened policies caught. All-zero (and printed
/// nowhere) in adversary-free runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct AdversaryTotals {
    /// Attacker sends deferred into a burst window by the gate.
    pub deferred_sends: u64,
    /// Distinct burst windows the attackers fired in.
    pub bursts: u64,
    /// Charging intervals where the IBMon cross-check substituted the
    /// counter-derived MTU count for a poisoned ring-scan estimate.
    pub poison_corrections: u64,
    /// Lifetime Resos charged to attacker VMs.
    pub attacker_spent: f64,
    /// Lifetime Resos charged to honest VMs.
    pub honest_spent: f64,
}

impl AdversaryTotals {
    /// Accumulates another tally into this one.
    pub fn merge(&mut self, other: AdversaryTotals) {
        self.deferred_sends += other.deferred_sends;
        self.bursts += other.bursts;
        self.poison_corrections += other.poison_corrections;
        self.attacker_spent += other.attacker_spent;
        self.honest_spent += other.honest_spent;
    }
}

/// Run-wide crash-domain tallies — what the crash fault classes did and
/// how recovery settled. All-zero (and printed nowhere) in crash-free
/// runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CrashTotals {
    /// Manager crashes (pricing state lost, journal taken).
    pub mgr_crashes: u64,
    /// Host crashes (every resident QP torn, all vCPUs killed).
    pub host_crashes: u64,
    /// Individual VM crashes.
    pub vm_crashes: u64,
    /// VM re-admissions through the normal lifecycle after a crash.
    pub readmissions: u64,
    /// In-flight requests dropped because they landed on a crashed VM
    /// (the client sees an honest timeout and re-issues).
    pub requests_dropped: u64,
    /// End-of-run conservation audit: per-VM accounts where replaying the
    /// decision journal from scratch did *not* land exactly on the live
    /// books. Zero means Resos were conserved across every outage.
    pub journal_divergence: u64,
}

impl CrashTotals {
    /// Accumulates another tally into this one.
    pub fn merge(&mut self, other: CrashTotals) {
        self.mgr_crashes += other.mgr_crashes;
        self.host_crashes += other.host_crashes;
        self.vm_crashes += other.vm_crashes;
        self.readmissions += other.readmissions;
        self.requests_dropped += other.requests_dropped;
        self.journal_divergence += other.journal_divergence;
    }
}

/// One printable summary row (also serialized as JSON for plotting).
#[derive(Clone, Debug, Serialize)]
pub struct SummaryRow {
    /// VM name.
    pub vm: String,
    /// Post-warmup requests.
    pub requests: u64,
    /// Mean total service latency, µs.
    pub mean_us: f64,
    /// Latency standard deviation, µs.
    pub std_us: f64,
    /// 99th percentile latency, µs.
    pub p99_us: f64,
    /// Mean polling time, µs.
    pub ptime_us: f64,
    /// Mean compute time, µs.
    pub ctime_us: f64,
    /// Mean I/O wait, µs.
    pub wtime_us: f64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 90th percentile latency, µs.
    pub p90_us: f64,
    /// 99.9th percentile latency, µs.
    pub p999_us: f64,
}

/// Helper: record a latency sample into the per-interval timeline.
pub fn record_latency(metrics: &mut VmMetrics, r: &LatencyRecord, after_warmup: bool) {
    if after_warmup {
        if metrics.keep_records {
            metrics.records.push(*r);
        }
        metrics.summary.push(r);
        metrics.histogram.record(r.total().as_nanos());
        if let Some(slo) = &mut metrics.slo {
            slo.observe(r.total().as_nanos());
        }
    }
    metrics.latency_trace.push(r.at, r.total().as_micros_f64());
}

#[cfg(test)]
mod tests {
    use super::*;
    use resex_simcore::time::SimTime;

    fn rec(at_us: u64, total_us: u64) -> LatencyRecord {
        LatencyRecord {
            at: SimTime::from_micros(at_us),
            request_id: at_us,
            ptime: SimDuration::from_micros(total_us / 4),
            ctime: SimDuration::from_micros(total_us / 2),
            wtime: SimDuration::from_micros(total_us / 4),
        }
    }

    #[test]
    fn warmup_gates_summary_but_not_trace() {
        let mut m = VmMetrics::new("64KB");
        record_latency(&mut m, &rec(10, 200), false);
        record_latency(&mut m, &rec(20, 300), true);
        assert!(m.records.is_empty(), "raw records are opt-in");
        assert_eq!(m.latency_trace.len(), 2);
        assert_eq!(m.summary().total.mean(), 300.0);
        assert_eq!(m.histogram.count(), 1);
    }

    #[test]
    fn keep_records_retains_the_raw_stream() {
        let mut m = VmMetrics::new("64KB");
        m.keep_records = true;
        record_latency(&mut m, &rec(10, 200), false);
        record_latency(&mut m, &rec(20, 300), true);
        assert_eq!(m.records.len(), 1, "warmup still gates records");
        assert_eq!(m.summary().count(), 1);
    }

    #[test]
    fn rows_compute_components() {
        let mut run = RunMetrics::default();
        let mut m = VmMetrics::new("vm");
        record_latency(&mut m, &rec(1, 200), true);
        record_latency(&mut m, &rec(2, 200), true);
        run.vms.push(m);
        let rows = run.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].requests, 2);
        assert_eq!(rows[0].mean_us, 200.0);
        assert_eq!(rows[0].ctime_us, 100.0);
        assert_eq!(rows[0].ptime_us, 50.0);
        assert!(rows[0].p50_us <= rows[0].p90_us);
        assert!(rows[0].p90_us <= rows[0].p99_us);
        assert!(rows[0].p99_us <= rows[0].p999_us);
    }

    #[test]
    fn slo_monitor_counts_post_warmup_only() {
        let mut m = VmMetrics::new("vm");
        m.enable_slo(SimDuration::from_micros(250).as_nanos());
        record_latency(&mut m, &rec(1, 400), false); // warmup: not checked
        record_latency(&mut m, &rec(2, 200), true); // compliant
        record_latency(&mut m, &rec(3, 400), true); // violation
        assert_eq!(m.slo_stats(), Some((2, 1)));
    }

    #[test]
    fn vm_lookup_by_name() {
        let mut run = RunMetrics::default();
        run.vms.push(VmMetrics::new("a"));
        run.vms.push(VmMetrics::new("b"));
        assert!(run.vm("b").is_some());
        assert!(run.vm("zz").is_none());
    }
}
