//! Conservative-lookahead sharding primitives.
//!
//! A partitioned simulation splits the event calendar into shards that
//! advance independently. The classic conservative (Chandy–Misra–Bryant)
//! argument makes that safe: if no shard can influence another sooner
//! than `lookahead` from now, every shard may process all events up to
//! `min(next event across shards) + lookahead` without ever seeing a
//! message from its past. This module supplies the pieces a sharded
//! driver needs — the horizon computation and per-shard accounting —
//! while the shards themselves stay ordinary sequential simulations.
//!
//! Determinism is the design constraint throughout: the horizon is a pure
//! function of the shard clocks, and nothing here consults wall clocks or
//! thread identity. A sharded run is therefore byte-identical to the same
//! events processed on one calendar.

use crate::time::{SimDuration, SimTime};
use serde::Serialize;

/// Per-shard accounting the sharded driver reports alongside run metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ShardStats {
    /// Events this shard's local calendar processed.
    pub events: u64,
    /// Synchronization windows the shard participated in.
    pub windows: u64,
    /// Windows the shard reached the barrier with nothing to do — its
    /// next event lay beyond the horizon, so it merely waited. High stall
    /// counts mean the lookahead is too small for the workload's cadence.
    pub stalls: u64,
}

impl ShardStats {
    /// Folds another shard's counters into this one.
    pub fn merge(&mut self, other: &ShardStats) {
        self.events += other.events;
        self.windows += other.windows;
        self.stalls += other.stalls;
    }
}

/// The conservative horizon: the earliest next event across all shards
/// plus the lookahead, or `None` when every shard is idle (`nexts` all
/// `None`), which ends the simulation.
///
/// Every shard may safely process all events `≤` the returned horizon:
/// no cross-shard influence can arrive earlier than the earliest event
/// anywhere plus the minimum propagation delay.
pub fn conservative_horizon(
    nexts: impl IntoIterator<Item = Option<SimTime>>,
    lookahead: SimDuration,
) -> Option<SimTime> {
    nexts
        .into_iter()
        .flatten()
        .min()
        .map(|t| t.saturating_add(lookahead))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(ns)
    }

    #[test]
    fn horizon_is_min_next_plus_lookahead() {
        let la = SimDuration::from_nanos(100);
        assert_eq!(
            conservative_horizon([Some(t(500)), Some(t(300)), None], la),
            Some(t(400))
        );
        assert_eq!(conservative_horizon([None, None], la), None);
        assert_eq!(
            conservative_horizon(std::iter::empty::<Option<SimTime>>(), la),
            None
        );
    }

    #[test]
    fn horizon_saturates_at_time_max() {
        assert_eq!(
            conservative_horizon([Some(SimTime::MAX)], SimDuration::from_nanos(5)),
            Some(SimTime::MAX)
        );
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = ShardStats {
            events: 1,
            windows: 2,
            stalls: 3,
        };
        a.merge(&ShardStats {
            events: 10,
            windows: 20,
            stalls: 30,
        });
        assert_eq!(
            a,
            ShardStats {
                events: 11,
                windows: 22,
                stalls: 33,
            }
        );
    }

    /// A toy conservative simulation: N logical processes pass a token
    /// around a ring, each hop delayed by exactly the lookahead. Run it
    /// monolithically and with every shard count; the delivery trace must
    /// be identical — the determinism contract the rack runner relies on.
    #[test]
    fn sharded_ring_matches_monolith_for_any_shard_count() {
        const PROCS: usize = 6;
        const HOPS: u64 = 50;
        let la = SimDuration::from_nanos(7);

        fn run(shards: usize, la: SimDuration) -> Vec<(u64, usize, u64)> {
            // Each process p has an inbound FIFO of (arrival, hop count);
            // process p forwards the token to (p+1) % PROCS after the link
            // delay.
            let mut inbox: Vec<VecDeque<(SimTime, u64)>> = vec![VecDeque::new(); PROCS];
            inbox[0].push_back((SimTime::ZERO + la, 0));
            let mut trace = Vec::new();
            let group_of = |p: usize| p * shards / PROCS;
            loop {
                let nexts = inbox.iter().map(|q| q.front().map(|&(at, _)| at));
                let Some(h) = conservative_horizon(nexts, la) else {
                    break;
                };
                // Advance shard groups in index order; inside a group,
                // deliveries merge by (time, process).
                for g in 0..shards {
                    let mut due: Vec<(SimTime, usize, u64)> = Vec::new();
                    for p in (0..PROCS).filter(|&p| group_of(p) == g) {
                        while inbox[p].front().is_some_and(|&(at, _)| at <= h) {
                            let (at, hop) = inbox[p].pop_front().expect("front checked");
                            due.push((at, p, hop));
                        }
                    }
                    due.sort();
                    for (at, p, hop) in due {
                        trace.push((at.as_nanos(), p, hop));
                        if hop < HOPS {
                            inbox[(p + 1) % PROCS].push_back((at + la, hop + 1));
                        }
                    }
                }
            }
            trace
        }

        let mono = run(1, la);
        assert_eq!(mono.len() as u64, HOPS + 1);
        for shards in [2, 3, PROCS] {
            assert_eq!(run(shards, la), mono, "shard count {shards} diverged");
        }
    }
}
