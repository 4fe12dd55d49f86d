//! The `RESEX_SHARDED` env flag may not change a byte of the figures.
//!
//! This test sets and clears a process-wide env var, and every scenario
//! run reads it, so it is the only test in its binary: no other test can
//! run while the flag is set.

use resex_platform::experiments::{fig9, Scale};
use resex_simcore::time::SimDuration;

/// `RESEX_SHARDED=1` must be invisible in the figure data, end to end
/// through a real sweep.
#[test]
fn sharded_env_flag_never_changes_fig9() {
    let scale = Scale {
        duration: SimDuration::from_millis(300),
        timeline: SimDuration::from_millis(600),
        warmup: SimDuration::from_millis(50),
        faults: resex_faults::FaultSpec::default(),
        adversary: resex_adversary::AdversarySpec::default(),
        rack_hosts: 8,
    };
    std::env::remove_var("RESEX_SHARDED");
    let monolithic = serde_json::to_string(&fig9::run(&scale)).expect("serialize");
    std::env::set_var("RESEX_SHARDED", "1");
    let sharded = serde_json::to_string(&fig9::run(&scale)).expect("serialize");
    std::env::remove_var("RESEX_SHARDED");
    assert_eq!(
        monolithic, sharded,
        "RESEX_SHARDED changed fig9 — the windowed calendar is not state-neutral"
    );
}
