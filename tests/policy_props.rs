//! Property-based hardening suite for the pricing policies under extreme
//! usage patterns — the shapes an adversarial tenant (or a buggy agent)
//! can actually present: all-zero telemetry, all-max floods, and
//! phase-locked alternating bursts.
//!
//! Three invariant families, per the robustness issue:
//! - **No overflow / NaN**: every rate and charge stays finite and
//!   non-negative no matter how absurd the reported usage is.
//! - **Caps in range**: every actuated cap lands in
//!   `[min_cap_pct, 100]` — policies never emit an unactuatable cap.
//! - **Monotone price response**: more interference never gets cheaper —
//!   the indicted rate is weakly increasing in both the interferer's
//!   link share and the reporter's latency inflation.

use proptest::prelude::*;
use resex_core::{
    DepletionMode, FreeMarket, IntervalCtx, IoShares, LatencyFeedback, ManagerAction,
    PricingPolicy, ResExConfig, ResExManager, ResoAccount, Resos, SlaTarget, VmId, VmSnapshot,
};
use resex_simcore::time::SimTime;

const REPORTER: VmId = VmId::new(0);

fn sla() -> Vec<(VmId, SlaTarget)> {
    vec![(
        REPORTER,
        SlaTarget {
            base_mean_us: 209.0,
            base_std_us: 2.0,
        },
    )]
}

/// Runs one IOShares interval: a reporter at `latency_us` against
/// interferer slots with the given MTU counts. Returns the verdicts.
fn ioshares_interval(
    policy: &mut IoShares,
    cfg: &ResExConfig,
    k: u64,
    reporter_mtus: u64,
    latency_us: f64,
    intf_mtus: &[u64],
) -> Vec<resex_core::VmVerdict> {
    let mut vms = vec![(
        REPORTER,
        VmSnapshot {
            mtus: reporter_mtus,
            cpu_pct: 50.0,
            latency: Some(LatencyFeedback {
                mean_us: latency_us,
                std_us: 5.0,
                count: 10,
            }),
            est_buffer_bytes: 65536.0,
            stale: false,
        },
    )];
    for (i, &m) in intf_mtus.iter().enumerate() {
        vms.push((
            VmId::new(i as u32 + 1),
            VmSnapshot {
                mtus: m,
                cpu_pct: 95.0,
                ..Default::default()
            },
        ));
    }
    let lookup = |_vm: VmId| None;
    let ctx = IntervalCtx {
        now: SimTime::ZERO,
        interval_in_epoch: k % 1000,
        intervals_per_epoch: 1000,
        vms: &vms,
        accounts: &lookup,
        cfg,
    };
    policy.on_interval(&ctx)
}

/// Every verdict invariant the policies promise, checked in one place.
fn assert_verdicts_sane(
    verdicts: &[resex_core::VmVerdict],
    cfg: &ResExConfig,
) -> Result<(), TestCaseError> {
    for v in verdicts {
        prop_assert!(
            v.io_rate.is_finite() && v.io_rate >= 1.0,
            "io_rate {} for {:?}",
            v.io_rate,
            v.vm
        );
        prop_assert!(
            v.cpu_rate.is_finite() && v.cpu_rate >= 1.0,
            "cpu_rate {} for {:?}",
            v.cpu_rate,
            v.vm
        );
        if let Some(cap) = v.cap_pct {
            prop_assert!(
                (cfg.min_cap_pct..=100).contains(&cap),
                "cap {cap} out of [{}, 100]",
                cfg.min_cap_pct
            );
        }
    }
    Ok(())
}

proptest! {
    /// All-zero usage: VMs that report nothing are never charged, never
    /// taxed, and never capped below 100 — under the legacy *and* the
    /// fully hardened configuration.
    #[test]
    fn all_zero_usage_is_free_and_uncapped(
        n_vms in 2usize..6,
        intervals in 1u64..200,
        hardened in any::<bool>(),
    ) {
        let cfg = ResExConfig { hardened, ..ResExConfig::default() };
        let mut mgr = ResExManager::new(cfg, Box::new(IoShares::new(sla()))).unwrap();
        let vms: Vec<VmId> = (0..n_vms as u32).map(VmId::new).collect();
        for &vm in &vms {
            mgr.register_vm(vm, 1);
        }
        for k in 0..intervals {
            let snaps: Vec<(VmId, VmSnapshot)> = vms
                .iter()
                .map(|&vm| (vm, VmSnapshot::default()))
                .collect();
            let out = mgr.on_interval(SimTime::from_millis(k), &snaps);
            for c in &out.charges {
                prop_assert_eq!(c.io + c.cpu, Resos::ZERO, "charged an idle VM");
            }
            for act in &out.actions {
                let ManagerAction::SetCap { cap_pct, .. } = *act;
                prop_assert_eq!(cap_pct, 100, "capped an idle VM");
            }
        }
    }

    /// All-max flood: absurdly large MTU counts and latency reports must
    /// not overflow, NaN, or push a cap outside `[min_cap, 100]` — with
    /// and without every hardening measure.
    #[test]
    fn all_max_flood_never_overflows_or_nans(
        intf_mtus in prop::collection::vec(1u64..(u64::MAX / 64), 1..4),
        latency_us in 250f64..1e12,
        intervals in 1u64..50,
        hardened in any::<bool>(),
    ) {
        let cfg = ResExConfig { hardened, ..ResExConfig::default() };
        let mut policy = IoShares::new(sla());
        for k in 0..intervals {
            let v = ioshares_interval(&mut policy, &cfg, k, u64::MAX / 64, latency_us, &intf_mtus);
            assert_verdicts_sane(&v, &cfg)?;
        }
    }

    /// The manager's end-to-end charging path at the largest usage the
    /// milli-Reso range can represent: charges stay finite, non-negative,
    /// and saturating — an attacker can peg its own bill at the maximum
    /// but can never mint currency by wrapping it negative.
    #[test]
    fn max_usage_charges_saturate_without_minting(
        mtus in 1u64..1_000_000_000,
        cpu in 0f64..100.0,
        intervals in 1u64..100,
        hardened in any::<bool>(),
    ) {
        let cfg = ResExConfig { hardened, ..ResExConfig::default() };
        let mut mgr = ResExManager::new(cfg, Box::new(FreeMarket::new())).unwrap();
        let vm = VmId::new(0);
        mgr.register_vm(vm, 1);
        for k in 0..intervals {
            let out = mgr.on_interval(
                SimTime::from_millis(k),
                &[(vm, VmSnapshot { mtus, cpu_pct: cpu, ..Default::default() })],
            );
            for c in &out.charges {
                let total = (c.io + c.cpu).as_f64();
                prop_assert!(total.is_finite() && total >= 0.0, "charge {total}");
            }
            for act in &out.actions {
                let ManagerAction::SetCap { cap_pct, .. } = *act;
                prop_assert!((cfg.min_cap_pct..=100).contains(&cap_pct));
            }
        }
        let acct = mgr.account(vm).unwrap();
        prop_assert!(acct.total_remaining().as_f64().is_finite());
    }

    /// Alternating phase-locked bursts — the collusion shape — keep every
    /// verdict inside the invariants for any burst size and inflation,
    /// and under the group clamp a sustained alternation repriced *both*
    /// partners (neither coasts at the base rate while the other burns).
    #[test]
    fn alternating_bursts_keep_invariants_and_clamp_coindicts(
        burst in 1_000u64..1_000_000_000,
        inflation in 1.15f64..4.0,
        intervals in 6u64..60,
        clamp in any::<bool>(),
    ) {
        let cfg = ResExConfig { hardened: clamp, ..ResExConfig::default() };
        let mut policy = IoShares::new(sla());
        let latency = 209.0 * inflation;
        for k in 0..intervals {
            let (m1, m2) = if k.is_multiple_of(2) { (burst, 0) } else { (0, burst) };
            let v = ioshares_interval(&mut policy, &cfg, k, 64, latency, &[m1, m2]);
            assert_verdicts_sane(&v, &cfg)?;
        }
        if clamp {
            prop_assert!(
                policy.rate_of(VmId::new(1)) > 1.0 && policy.rate_of(VmId::new(2)) > 1.0,
                "clamped alternation must reprice both partners: {} / {}",
                policy.rate_of(VmId::new(1)),
                policy.rate_of(VmId::new(2)),
            );
        }
    }

    /// Monotone price response in link share: with the reporter's latency
    /// fixed over threshold, a fresh policy taxes a bigger sender at least
    /// as hard as a smaller one.
    #[test]
    fn price_response_is_monotone_in_link_share(
        m_lo in 1u64..1_000_000,
        extra in 0u64..1_000_000,
        inflation in 1.11f64..10.0,
    ) {
        let m_hi = m_lo + extra;
        let latency = 209.0 * inflation;
        let rate_at = |m: u64| {
            let mut p = IoShares::new(sla());
            ioshares_interval(&mut p, &ResExConfig::default(), 1, 64, latency, &[m]);
            p.rate_of(VmId::new(1))
        };
        let (lo, hi) = (rate_at(m_lo), rate_at(m_hi));
        prop_assert!(
            hi >= lo - 1e-9,
            "bigger sender got cheaper: {m_lo} MTUs → {lo}, {m_hi} MTUs → {hi}"
        );
    }

    /// Monotone price response in latency inflation: with the traffic
    /// fixed, a worse SLA violation never prices the culprit lower.
    #[test]
    fn price_response_is_monotone_in_latency(
        mtus in 1u64..1_000_000,
        infl_lo in 1.11f64..5.0,
        extra in 0f64..5.0,
    ) {
        let infl_hi = infl_lo + extra;
        let rate_at = |infl: f64| {
            let mut p = IoShares::new(sla());
            ioshares_interval(&mut p, &ResExConfig::default(), 1, 64, 209.0 * infl, &[mtus]);
            p.rate_of(VmId::new(1))
        };
        let (lo, hi) = (rate_at(infl_lo), rate_at(infl_hi));
        prop_assert!(
            hi >= lo - 1e-9,
            "worse violation got cheaper: {infl_lo}x → {lo}, {infl_hi}x → {hi}"
        );
    }

    /// FreeMarket depletion stays in range for arbitrary account states —
    /// including deep overdrafts — under every depletion mode, with and
    /// without the hard floor.
    #[test]
    fn freemarket_depletion_caps_stay_in_range(
        overdraft in -100i64..10_000,
        interval in 0u64..1000,
        mode_ix in 0usize..3,
        hardened in any::<bool>(),
    ) {
        let mode = [DepletionMode::Gradual, DepletionMode::HardStop, DepletionMode::Proportional]
            [mode_ix];
        let cfg = ResExConfig { depletion: mode, hardened, ..ResExConfig::default() };
        let mut fm = FreeMarket::new();
        let vms = vec![(
            VmId::new(0),
            VmSnapshot { mtus: 500, cpu_pct: 90.0, ..Default::default() },
        )];
        let lookup = move |_vm: VmId| {
            let mut a = ResoAccount::new(Resos::from_whole(100), Resos::ZERO);
            a.charge_cpu(Resos::from_whole(100 + overdraft));
            Some(a)
        };
        for k in 0..30u64 {
            let ctx = IntervalCtx {
                now: SimTime::ZERO,
                interval_in_epoch: (interval + k) % 1000,
                intervals_per_epoch: 1000,
                vms: &vms,
                accounts: &lookup,
                cfg: &cfg,
            };
            for v in fm.on_interval(&ctx) {
                prop_assert!(v.io_rate == 1.0 && v.cpu_rate == 1.0, "FreeMarket reprices");
                if let Some(cap) = v.cap_pct {
                    prop_assert!(
                        (cfg.min_cap_pct..=100).contains(&cap),
                        "cap {cap} out of range (mode {mode:?}, overdraft {overdraft})"
                    );
                }
            }
        }
        let cap = fm.cap_of(VmId::new(0));
        prop_assert!((cfg.min_cap_pct..=100).contains(&cap));
    }
}
