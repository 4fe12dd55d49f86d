//! A fuller exchange scenario: three trading VMs with different
//! service tiers and a bursty market-data workload, managed by IOShares.
//!
//! * `64KB` — the latency-critical matching engine (strict SLA).
//! * `256KB` — a market-data fan-out server (mid-size responses).
//! * `1MB` — an end-of-day analytics VM that bulk-ships result sets and is
//!   the natural congestion suspect.
//!
//! Shows per-VM latency decomposition, the caps ResEx converged to, and
//! the Reso spend of each VM.
//!
//! ```text
//! cargo run --release --example trading_exchange
//! ```

use resex_benchex::{Burstiness, TaskMix, TraceProfile};
use resex_platform::{run_scenario, PolicyKind, ScenarioConfig, VmSpec, BASE_LATENCY_US};
use resex_simcore::time::SimDuration;

fn main() {
    let mut cfg = ScenarioConfig::base_case(64 * 1024);
    cfg.label = "trading-exchange".into();
    cfg.policy = PolicyKind::IoShares;
    cfg.duration = SimDuration::from_secs(4);
    cfg.warmup = SimDuration::from_millis(250);

    // The matching engine: tight SLA, steady quote flow, and an SLO
    // threshold 10% above the uncontended baseline for violation tracking.
    cfg.vms = vec![VmSpec::server("64KB", 64 * 1024)
        .with_sla(BASE_LATENCY_US, 2.0)
        .with_slo(BASE_LATENCY_US * 1.1)];

    // Market-data fan-out: mixed transactions, mild bursts.
    let mut md = VmSpec::server("256KB", 256 * 1024);
    md.trace = TraceProfile {
        mix: TaskMix {
            quote: 80,
            risk: 15,
            reprice: 0,
            implied: 5,
        },
        base_batch: 8,
        reprice_steps: 0,
        burstiness: Burstiness::Bursty {
            regime_len: 200,
            burst_factor: 2,
        },
    };
    cfg.vms.push(md);

    // Analytics: continuously streams 1 MiB result sets.
    cfg.vms.push(VmSpec::server("1MB", 1024 * 1024));

    let run = run_scenario(cfg);

    println!("trading exchange under {}", run.policy);
    println!(
        "\n{:<8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "VM", "req", "mean µs", "std µs", "ptime", "ctime", "wtime"
    );
    for r in run.rows() {
        println!(
            "{:<8} {:>9} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            r.vm, r.requests, r.mean_us, r.std_us, r.ptime_us, r.ctime_us, r.wtime_us
        );
    }

    println!("\nfinal CPU caps and I/O volumes:");
    for vm in &run.vms {
        let final_cap = vm
            .cap_trace
            .points()
            .last()
            .map(|&(_, c)| c)
            .unwrap_or(100.0);
        println!(
            "  {:<8} cap={:>3.0}%  mtus_sent={:>9}  ibmon_estimate={:>9}",
            vm.name, final_cap, vm.true_mtus, vm.ibmon_mtus
        );
    }

    let sla = BASE_LATENCY_US * 1.1;
    let engine = run.vm("64KB").expect("matching engine");
    let (checked, violations) = engine.slo_stats().expect("SLO monitor armed");
    let pct_us = |q: f64| engine.histogram.quantile(q) as f64 / 1000.0;
    println!(
        "\nmatching-engine SLA ({sla:.0} µs): {} of {} requests over ({:.2}%)",
        violations,
        checked,
        100.0 * violations as f64 / checked.max(1) as f64
    );
    println!(
        "latency percentiles: p50={:.0}µs p90={:.0}µs p99={:.0}µs p99.9={:.0}µs",
        pct_us(0.50),
        pct_us(0.90),
        pct_us(0.99),
        pct_us(0.999)
    );
}
