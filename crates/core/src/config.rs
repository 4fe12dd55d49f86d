//! ResEx configuration.

use resex_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Hardened runs jitter each charging interval's sampling instant
/// uniformly within `±INTERVAL_JITTER_FRAC / 2` of the nominal interval.
pub const INTERVAL_JITTER_FRAC: f64 = 0.3;

/// Consecutive stale IBMon intervals after which the manager stops
/// trusting the decayed last-known rate and fails safe: cap to
/// `min_cap_pct`, basis zeroed, streak reset. Past ~8 dark intervals the
/// decayed estimate is mostly noise (0.85^8 ≈ 0.27 of the last fresh
/// rate); long enough that the ordinary one-to-three-interval stale blips
/// the fault plane injects never trip it.
pub const WATCHDOG_STALE_INTERVALS: u32 = 8;

/// Consecutive failed cap actuations on one domain after which the
/// platform escalates to the slow-but-reliable privileged reset path.
pub const WATCHDOG_ACTUATION_FAILURES: u32 = 5;

/// What happens to a VM's CPU cap once its Reso balance runs low — the
/// paper uses the gradual walk-down and notes "there are multiple ways in
/// order to reduce the CPU when the VM runs out of Resos"; these are the
/// obvious alternatives, ablated in `resex-bench`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DepletionMode {
    /// Walk the cap down by `cap_decrement_pct` per interval (the paper's
    /// "gradual decrease in performance … rather than a sudden stoppage").
    Gradual,
    /// Drop straight to the floor cap the moment the balance crosses the
    /// threshold (the "abrupt stop" the paper avoids).
    HardStop,
    /// Track the balance: cap follows the remaining fraction linearly from
    /// 100 at the threshold down to the floor at zero.
    Proportional,
}

/// Parameters of the ResEx manager and its charging machinery, defaulting
/// to the paper's numbers (§VI-A).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ResExConfig {
    /// Allocation epoch ("in our case 1 second").
    pub epoch: SimDuration,
    /// Charging interval ("every interval of 1 millisecond").
    pub interval: SimDuration,
    /// CPU Resos allocated to each VM per epoch
    /// (`PercentPerInterval * NumberOfIntervals = 100 * 1000 = 100,000`).
    pub cpu_resos_per_epoch: i64,
    /// Aggregate I/O Resos per epoch, shared among VMs — the link's MTU
    /// capacity (`LinkBW / MTUSize = 1,048,576` for 1 GiB/s and 1 KiB).
    pub io_resos_per_epoch: i64,
    /// FreeMarket: start throttling when the remaining balance drops below
    /// this fraction ("below a certain limit (10% in our case)").
    pub low_balance_fraction: f64,
    /// FreeMarket: only throttle if at least this fraction of the epoch is
    /// still ahead ("more than 10% of the epoch is remaining").
    pub min_epoch_remaining_fraction: f64,
    /// FreeMarket: cap decrement per throttled interval, in percentage
    /// points ("decremented by 10% from its earlier allocated value").
    pub cap_decrement_pct: u32,
    /// Floor below which no policy will push a VM's cap (keeps guests
    /// live-lockable-free; the paper sweeps down to 3%).
    pub min_cap_pct: u32,
    /// IOShares: interference threshold in percent over the SLA baseline
    /// ("if the percentage increase is greater than a certain value (i.e.,
    /// SLA guarantee)").
    pub sla_threshold_pct: f64,
    /// IOShares: per-interval decay of an elevated charging rate back
    /// toward 1 when no interference is detected (the "back off" behaviour
    /// of Figure 8).
    pub rate_decay: f64,
    /// How FreeMarket throttles a VM whose balance runs low.
    pub depletion: DepletionMode,
    /// Adversary hardening, one switch for every measure (off by
    /// default, and in scenario files that predate it):
    /// - phase-locked bursts: the platform jitters each charging interval
    ///   within ±[`INTERVAL_JITTER_FRAC`]/2 of nominal, so an attacker who
    ///   times bursts to the interval tail cannot predict when the next
    ///   sample lands;
    /// - telemetry poisoning: the platform cross-checks IBMon's ring-scan
    ///   MTU estimate against the fabric's per-QP completion counters and
    ///   substitutes the counter value when the scan under-reports by more
    ///   than 2× (ring-wrap aliasing bias);
    /// - collusion (the *group clamp*): IOShares tracks per-VM activity
    ///   EWMAs and co-indicts every non-SLA VM within half of the top
    ///   interferer's activity, so a group that alternates bursts cannot
    ///   rotate blame;
    /// - free-riding: epoch replenishment carries overdrafts forward
    ///   (`remaining = alloc + min(remaining, 0)`), and FreeMarket's *hard
    ///   floor* throttles any fully depleted VM however little of the
    ///   epoch is left and keeps VMs still in debt throttled across the
    ///   epoch boundary.
    #[serde(default)]
    pub hardened: bool,
}

impl Default for ResExConfig {
    fn default() -> Self {
        ResExConfig {
            epoch: SimDuration::from_secs(1),
            interval: SimDuration::from_millis(1),
            cpu_resos_per_epoch: 100_000,
            io_resos_per_epoch: 1_048_576,
            low_balance_fraction: 0.10,
            min_epoch_remaining_fraction: 0.10,
            cap_decrement_pct: 10,
            min_cap_pct: 3,
            sla_threshold_pct: 10.0,
            rate_decay: 0.85,
            depletion: DepletionMode::Gradual,
            hardened: false,
        }
    }
}

impl ResExConfig {
    /// Charging intervals per epoch.
    pub fn intervals_per_epoch(&self) -> u64 {
        (self.epoch.as_nanos() / self.interval.as_nanos()).max(1)
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.interval.is_zero() || self.epoch.is_zero() {
            return Err("epoch and interval must be positive".into());
        }
        if self.epoch < self.interval {
            return Err("epoch must be at least one interval".into());
        }
        if !(0.0..=1.0).contains(&self.low_balance_fraction) {
            return Err("low_balance_fraction must be in [0,1]".into());
        }
        if !(0.0..1.0).contains(&self.rate_decay) {
            return Err("rate_decay must be in [0,1)".into());
        }
        if self.min_cap_pct == 0 || self.min_cap_pct > 100 {
            return Err("min_cap_pct must be in 1..=100".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ResExConfig::default();
        assert_eq!(c.intervals_per_epoch(), 1000);
        assert_eq!(c.cpu_resos_per_epoch, 100_000);
        assert_eq!(c.io_resos_per_epoch, 1_048_576);
        assert!(!c.hardened, "hardening is opt-in");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_errors() {
        let c = ResExConfig {
            epoch: SimDuration::from_micros(1),
            ..Default::default()
        };
        assert!(c.validate().is_err(), "epoch < interval");
        let c = ResExConfig {
            rate_decay: 1.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ResExConfig {
            min_cap_pct: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}
