//! End-to-end platform tests: full scenarios through the composed world.

use resex_platform::{run_scenario, PolicyKind, ScenarioConfig};
use resex_simcore::time::SimDuration;

fn short(mut cfg: ScenarioConfig) -> ScenarioConfig {
    cfg.duration = SimDuration::from_secs(2);
    cfg.warmup = SimDuration::from_millis(100);
    cfg
}

#[test]
fn base_case_latency_is_calibrated() {
    let m = run_scenario(short(ScenarioConfig::base_case(64 * 1024)));
    let rows = m.rows();
    assert_eq!(rows.len(), 1);
    let r = &rows[0];
    println!(
        "base: n={} mean={:.1} std={:.1} p={:.1} c={:.1} w={:.1}",
        r.requests, r.mean_us, r.std_us, r.ptime_us, r.ctime_us, r.wtime_us
    );
    assert!(r.requests > 1000, "server actually served: {}", r.requests);
    // Calibration target: the paper's ~209 µs base with low jitter.
    assert!(
        (r.mean_us - 209.0).abs() < 25.0,
        "base latency {:.1}µs off the 209µs target",
        r.mean_us
    );
    assert!(r.std_us < 10.0, "base case is stable, std={:.1}", r.std_us);
    // Decomposition: CTime ≈ 100 µs, WTime ≈ 64 µs.
    assert!((r.ctime_us - 100.0).abs() < 10.0, "ctime={:.1}", r.ctime_us);
    assert!((r.wtime_us - 64.0).abs() < 10.0, "wtime={:.1}", r.wtime_us);
}

#[test]
fn interference_raises_latency_and_jitter() {
    let base = run_scenario(short(ScenarioConfig::base_case(64 * 1024)));
    let intf = run_scenario(short(ScenarioConfig::interfered(2 * 1024 * 1024)));
    let b = &base.rows()[0];
    let rows = intf.rows();
    let i = rows.iter().find(|r| r.vm == "64KB").unwrap();
    println!(
        "interfered: mean {:.1} -> {:.1}, std {:.1} -> {:.1}",
        b.mean_us, i.mean_us, b.std_us, i.std_us
    );
    assert!(
        i.mean_us > b.mean_us * 1.15,
        "2MB neighbour must hurt: {:.1} vs {:.1}",
        i.mean_us,
        b.mean_us
    );
    assert!(
        i.std_us > b.std_us * 3.0,
        "interference shows as jitter: {:.1} vs {:.1}",
        i.std_us,
        b.std_us
    );
    // The I/O wait component absorbs the interference; compute does not.
    assert!((i.ctime_us - b.ctime_us).abs() < 5.0, "CTime stays flat");
    assert!(i.wtime_us > b.wtime_us * 1.3, "WTime absorbs the hit");
}

#[test]
fn ioshares_restores_near_base_latency() {
    let base = run_scenario(short(ScenarioConfig::base_case(64 * 1024)));
    let intf = run_scenario(short(ScenarioConfig::interfered(2 * 1024 * 1024)));
    let ios = run_scenario(short(ScenarioConfig::managed(
        2 * 1024 * 1024,
        PolicyKind::IoShares,
    )));
    let b = base.rows()[0].mean_us;
    let i = intf.rows().iter().find(|r| r.vm == "64KB").unwrap().mean_us;
    let s = ios.rows().iter().find(|r| r.vm == "64KB").unwrap().mean_us;
    println!("base={b:.1} interfered={i:.1} ioshares={s:.1}");
    assert!(s < i, "IOShares must improve on unmanaged interference");
    // The paper: IOShares brings latency near the base case. Require at
    // least 50% of the interference removed.
    let removed = (i - s) / (i - b);
    assert!(
        removed > 0.5,
        "interference removed: {:.0}%",
        removed * 100.0
    );
}

#[test]
fn freemarket_helps_but_less_than_ioshares() {
    let intf = run_scenario(short(ScenarioConfig::interfered(2 * 1024 * 1024)));
    let fm = run_scenario(short(ScenarioConfig::managed(
        2 * 1024 * 1024,
        PolicyKind::FreeMarket,
    )));
    let ios = run_scenario(short(ScenarioConfig::managed(
        2 * 1024 * 1024,
        PolicyKind::IoShares,
    )));
    let i = intf.rows().iter().find(|r| r.vm == "64KB").unwrap().mean_us;
    let f = fm.rows().iter().find(|r| r.vm == "64KB").unwrap().mean_us;
    let s = ios.rows().iter().find(|r| r.vm == "64KB").unwrap().mean_us;
    println!("interfered={i:.1} freemarket={f:.1} ioshares={s:.1}");
    assert!(f < i, "FreeMarket reduces interference somewhat");
    assert!(
        s <= f,
        "IOShares at least matches FreeMarket (paper Fig. 9)"
    );
}

#[test]
fn static_cap_by_buffer_ratio_restores_base() {
    // Figure 3's premise: cap = 100/BR makes the interference disappear.
    let base = run_scenario(short(ScenarioConfig::base_case(64 * 1024)));
    let mut cfg = ScenarioConfig::interfered(2 * 1024 * 1024);
    cfg.vms[1] = cfg.vms[1].clone().with_cap(3); // 100/32 ≈ 3
    let capped = run_scenario(short(cfg));
    let b = base.rows()[0].mean_us;
    let c = capped
        .rows()
        .iter()
        .find(|r| r.vm == "64KB")
        .unwrap()
        .mean_us;
    let intf = run_scenario(short(ScenarioConfig::interfered(2 * 1024 * 1024)));
    let i = intf.rows().iter().find(|r| r.vm == "64KB").unwrap().mean_us;
    println!("base={b:.1} cap3={c:.1} uncapped-intf={i:.1}");
    assert!(c < i, "capping reduces interference");
    assert!(
        (c - b) < (i - b) * 0.5,
        "cap=100/BR removes most interference"
    );
}

#[test]
fn runs_are_deterministic() {
    let cfg = || {
        let mut c = short(ScenarioConfig::managed(
            2 * 1024 * 1024,
            PolicyKind::IoShares,
        ));
        c.duration = SimDuration::from_millis(800);
        c
    };
    let a = run_scenario(cfg());
    let b = run_scenario(cfg());
    assert_eq!(a.events_processed, b.events_processed);
    let ra = a.rows();
    let rb = b.rows();
    for (x, y) in ra.iter().zip(rb.iter()) {
        assert_eq!(x.requests, y.requests);
        assert_eq!(x.mean_us.to_bits(), y.mean_us.to_bits(), "bit-identical");
    }
}

#[test]
fn ibmon_estimates_track_ground_truth() {
    let m = run_scenario(short(ScenarioConfig::managed(
        2 * 1024 * 1024,
        PolicyKind::FreeMarket,
    )));
    for vm in &m.vms {
        assert!(vm.true_mtus > 0, "{} sent traffic", vm.name);
        let err = (vm.ibmon_mtus as f64 - vm.true_mtus as f64).abs() / vm.true_mtus as f64;
        println!(
            "{}: true={} ibmon={} err={:.2}%",
            vm.name,
            vm.true_mtus,
            vm.ibmon_mtus,
            err * 100.0
        );
        assert!(
            err < 0.05,
            "{}: estimator within 5%: {:.1}%",
            vm.name,
            err * 100.0
        );
    }
}

#[test]
fn scenario_config_json_roundtrip() {
    // The `simulate` binary's contract: any scenario serializes to JSON and
    // back without loss, and the rebuilt scenario runs identically.
    for hardened in [false, true] {
        let mut cfg = ScenarioConfig::managed(2 * 1024 * 1024, PolicyKind::IoShares);
        cfg.duration = SimDuration::from_millis(600);
        cfg.warmup = SimDuration::from_millis(100);
        cfg.resex.hardened = hardened;
        let json = serde_json::to_string_pretty(&cfg).unwrap();
        let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.label, cfg.label);
        assert_eq!(back.vms.len(), cfg.vms.len());
        assert_eq!(back.policy, cfg.policy);
        assert_eq!(back.resex.hardened, hardened);
        let a = run_scenario(cfg);
        let b = run_scenario(back);
        assert_eq!(a.events_processed, b.events_processed, "identical runs");
        assert_eq!(a.rows()[0].requests, b.rows()[0].requests);
    }
    // A scenario file written before the switch existed has no
    // `resex.hardened` key and loads unhardened.
    let mut cfg = ScenarioConfig::managed(2 * 1024 * 1024, PolicyKind::IoShares);
    cfg.resex.hardened = true;
    let mut doc = serde_json::to_value(&cfg).unwrap();
    let serde_json::Value::Object(top) = &mut doc else {
        panic!("a scenario serializes to an object")
    };
    let Some(serde_json::Value::Object(resex)) = top.get_mut("resex") else {
        panic!("the scenario has a resex block")
    };
    assert!(resex.remove("hardened").is_some());
    let old: ScenarioConfig = serde_json::from_value(doc).unwrap();
    assert!(!old.resex.hardened);
    // A scenario naming a policy outside None/FreeMarket/IoShares is
    // refused at load time rather than run unmanaged.
    for (name, policy) in [
        ("DemandPricing", serde_json::json!("DemandPricing")),
        (
            "StaticReserve",
            serde_json::json!({ "StaticReserve": [[1, 25]] }),
        ),
        (
            "BufferRatio",
            serde_json::json!({ "BufferRatio": { "reference": 0 } }),
        ),
    ] {
        let mut doc = serde_json::to_value(&cfg).unwrap();
        doc["policy"] = policy;
        let err = serde_json::from_value::<ScenarioConfig>(doc)
            .err()
            .unwrap_or_else(|| panic!("{name} loaded"));
        assert!(
            err.to_string()
                .contains(&format!("unknown variant `{name}`")),
            "{name}: {err}"
        );
    }
}

/// Long soak under management: many epochs, invariants hold throughout.
#[test]
fn multi_epoch_soak_invariants() {
    let mut cfg = ScenarioConfig::managed(2 * 1024 * 1024, PolicyKind::IoShares);
    cfg.duration = SimDuration::from_secs(8); // 8 epochs
    cfg.warmup = SimDuration::from_millis(500);
    let run = run_scenario(cfg);

    let reporter = run.vm("64KB").unwrap();
    let streamer = run.vm("2MB").unwrap();

    // 1. Reso accounting saw-tooths but never wanders: the balance fraction
    //    returns to ~1.0 after every epoch boundary.
    let mut replenishes = 0;
    let points = streamer.reso_trace.points();
    for w in points.windows(2) {
        if w[1].1 > w[0].1 + 0.5 {
            replenishes += 1;
            // The trace records the balance *after* the first interval's
            // charge, so "restored" means close to full, not exactly full.
            assert!(
                w[1].1 > 0.7,
                "replenish restores the allocation: {}",
                w[1].1
            );
        }
    }
    assert!(
        replenishes >= 6,
        "one replenish per epoch, saw {replenishes}"
    );

    // 2. Caps stay inside [min, 100] forever.
    for &(_, c) in streamer.cap_trace.points() {
        assert!((3.0..=100.0).contains(&c), "cap out of range: {c}");
    }
    // 3. The reporter is never capped at all.
    assert!(reporter.cap_trace.values().all(|c| c == 100.0));

    // 4. IBMon stays within 1% of ground truth over the whole soak.
    for vm in &run.vms {
        let err = (vm.ibmon_mtus as f64 - vm.true_mtus as f64).abs() / vm.true_mtus.max(1) as f64;
        assert!(
            err < 0.01,
            "{}: estimator drift {:.2}%",
            vm.name,
            err * 100.0
        );
    }

    // 5. Latency stays controlled in every post-convergence 1 s window.
    let total_secs = 8;
    for sec in 1..total_secs {
        let from = resex_simcore::time::SimTime::from_secs(sec);
        let to = resex_simcore::time::SimTime::from_secs(sec + 1);
        let window = reporter.latency_trace.stats_between(from, to);
        assert!(
            window.mean() < 260.0,
            "second {sec}: mean {:.1} µs drifted",
            window.mean()
        );
    }
}
