//! Recovery-layer claims: a flapping link is survived end to end with
//! nothing permanently lost, and the manager watchdog unsticks a jammed
//! actuation path instead of decaying forever.

use resex_core::{WATCHDOG_ACTUATION_FAILURES, WATCHDOG_STALE_INTERVALS};
use resex_faults::{FaultKind, FaultSchedule, FaultSpec, FaultWindow};
use resex_platform::{run_scenario, PolicyKind, ScenarioConfig};
use resex_simcore::time::{SimDuration, SimTime};

/// The canonical managed contention case at a short span (the same shape
/// `tests/fault_claims.rs` uses).
fn managed_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::managed(2 * 1024 * 1024, PolicyKind::IoShares);
    cfg.duration = SimDuration::from_millis(600);
    cfg.warmup = SimDuration::from_millis(100);
    cfg
}

/// Six 30 ms outages plus 1 % background loss over 600 ms: every outage
/// exhausts the transport retry budget (7 × 50 µs) and breaks QPs, and is
/// long enough that requests caught in it blow their 10 ms deadline. The
/// connection manager reconnects, journaled sends replay, timed-out
/// requests re-issue — and nothing is permanently lost.
#[test]
fn a_flapping_link_is_survived_without_losing_requests() {
    let mut cfg = managed_cfg();
    cfg.faults = FaultSchedule::from(
        FaultSpec::parse("loss=0.01,flap_ms=100,flap_down_us=30000,seed=7").unwrap(),
    );
    let run = run_scenario(cfg);
    let t = run.recovery_totals();
    assert_eq!(t.lost_requests, 0, "the recovery layer's target: {t:?}");
    assert!(
        t.reconnects >= 1,
        "a 2 ms outage must break and heal at least one QP: {t:?}"
    );
    assert!(
        t.replayed >= 1,
        "journaled sends replay through the reconnect: {t:?}"
    );
    assert!(
        t.retries >= 1,
        "requests caught in the outage re-issue after their deadline: {t:?}"
    );
    // The workload kept flowing through every outage. (The 2MB streamer
    // moves ~2048 MTUs per response, so its absolute count is low even
    // healthy; what matters is that neither loop wedged.)
    for vm in &run.vms {
        assert!(
            vm.served > 20,
            "{} stalled at {} served requests",
            vm.name,
            vm.served
        );
    }
}

/// Runs the managed case with telemetry forced stale for exactly
/// `intervals` consecutive charging intervals and returns the watchdog
/// trip count. Charging ticks land at 1 ms multiples, so a window of
/// `[50ms, 50ms + intervals)` covers exactly `intervals` scan instants.
fn trips_after_stale_intervals(intervals: u64) -> u64 {
    let mut cfg = managed_cfg();
    assert_eq!(
        cfg.resex.interval,
        SimDuration::from_millis(1),
        "window arithmetic below assumes the paper's 1 ms cadence"
    );
    let start = SimTime::from_micros(50_000);
    let end = SimTime::from_micros(50_000 + intervals * 1_000);
    cfg.faults = FaultSchedule {
        spec: FaultSpec::parse("seed=9").unwrap(),
        windows: vec![FaultWindow {
            start,
            end,
            kind: FaultKind::StaleMapping(1.0),
        }],
    };
    run_scenario(cfg).recovery_totals().watchdog_trips
}

/// The stale fail-safe is an exact threshold, not a fuzzy one: `K - 1`
/// consecutive dark intervals ride out on the decayed estimate, the
/// `K`-th trips the fail-safe.
#[test]
fn the_stale_watchdog_trips_at_exactly_k_intervals() {
    let k = u64::from(WATCHDOG_STALE_INTERVALS);
    assert!(k >= 2, "boundary probe needs a real threshold, got {k}");
    assert_eq!(
        trips_after_stale_intervals(k - 1),
        0,
        "K-1 stale intervals must ride out on the decayed estimate"
    );
    assert!(
        trips_after_stale_intervals(k) >= 1,
        "K consecutive stale intervals must trip the fail-safe"
    );
}

/// The dense-actuation scenario `the_watchdog_unsticks_a_jammed_actuation_path`
/// uses, without any faults installed.
fn dense_actuation_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::managed(2 * 1024 * 1024, PolicyKind::FreeMarket);
    cfg.duration = SimDuration::from_millis(1200);
    cfg.warmup = SimDuration::from_millis(100);
    cfg
}

/// Runs the dense-actuation case with the cap path jammed for exactly
/// `failures` consecutive actuations and returns the watchdog trips.
/// The window starts at the first throttling actuation (discovered from
/// a clean run's cap timeline — FreeMarket then decrements every
/// interval for ~10 intervals, one actuation per tick).
fn trips_after_actuation_failures(failures: u64) -> u64 {
    let clean = run_scenario(dense_actuation_cfg());
    let t0 = clean
        .vm("2MB")
        .expect("interferer present")
        .cap_trace
        .points()
        .iter()
        .find(|&&(_, cap)| cap < 100.0)
        .map(|&(t, _)| t)
        .expect("the depleted interferer is throttled in a clean run");
    let mut cfg = dense_actuation_cfg();
    assert_eq!(cfg.resex.interval, SimDuration::from_millis(1));
    cfg.faults = FaultSchedule {
        spec: FaultSpec::parse("seed=5").unwrap(),
        windows: vec![FaultWindow {
            start: t0,
            end: t0 + SimDuration::from_micros(failures * 1_000),
            kind: FaultKind::CapFail(1.0),
        }],
    };
    run_scenario(cfg).recovery_totals().watchdog_trips
}

/// Same off-by-one probe for the actuation watchdog: `M - 1` consecutive
/// failed actuations stay on the fast path, the `M`-th escalates to the
/// forced (reliable) path.
#[test]
fn the_actuation_watchdog_escalates_at_exactly_m_failures() {
    let m = u64::from(WATCHDOG_ACTUATION_FAILURES);
    assert!(m >= 2, "boundary probe needs a real threshold, got {m}");
    assert_eq!(
        trips_after_actuation_failures(m - 1),
        0,
        "M-1 consecutive failures must not escalate"
    );
    assert!(
        trips_after_actuation_failures(m) >= 1,
        "M consecutive failures must force the cap through"
    );
}

/// With every fast-path cap actuation failing, the actuation watchdog
/// escalates to the forced (reliable) path after M consecutive failures —
/// so caps still land instead of drifting unactuated forever.
#[test]
fn the_watchdog_unsticks_a_jammed_actuation_path() {
    // FreeMarket walks the depleted interferer's cap down one decrement
    // per interval — a dense stream of actuations for the fault plane to
    // jam. IoShares at this span issues too few to build a streak.
    let mut cfg = ScenarioConfig::managed(2 * 1024 * 1024, PolicyKind::FreeMarket);
    cfg.duration = SimDuration::from_millis(1200);
    cfg.warmup = SimDuration::from_millis(100);
    cfg.faults = FaultSchedule::from(FaultSpec::parse("capfail=1.0,seed=5").unwrap());
    let run = run_scenario(cfg);
    let t = run.recovery_totals();
    assert!(
        t.watchdog_trips >= 1,
        "a fully jammed actuation path must trip the watchdog: {t:?}"
    );
    assert_eq!(t.lost_requests, 0, "control-plane faults lose no requests");
}
