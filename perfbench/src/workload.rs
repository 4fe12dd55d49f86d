//! The three workloads: their inputs (generated from the seed), one
//! timed iteration through the simulator's public API, and the output
//! checks behind `failed_pct`.

use crate::host::{self, CpuRotation};
use crate::spans::Spans;
use resex_obs::{profiler, Profile};
use resex_platform::experiments::Scale;
use resex_platform::{
    run_rack, PolicyKind, RackConfig, RackRun, RunMetrics, ScenarioConfig, VmSpec, World,
    BASE_LATENCY_US,
};
use resex_simcore::time::SimDuration;
use std::fmt::Write as _;
use std::time::Instant;

/// The `pair` interferer: 1 MiB, the widest point of Fig. 9's plotted
/// axis. It is fixed rather than drawn from the seed because the spread
/// of every end-to-end metric across seeds must stay within its bound,
/// and across the axis peak RSS (7.0–10.4 MiB), set-up time (1.2–2.3 ms)
/// and reporter latency (211–231 µs) move with the size itself.
pub const PAIR_INTERFERER: u32 = 1 << 20;

/// Reporters sharing the host in `consolidation`.
const CONSOLIDATION_REPORTERS: u32 = 6;

/// Hosts in the `rack` workload.
const RACK_HOSTS: u32 = 128;

/// Largest |IBMon − fabric| MTU disagreement, in percent of the fabric's
/// count, that a managed run may show. Clean runs read every ring before
/// it wraps, so the estimate is exact up to the MTUs still in flight at
/// the last scan.
pub const IBMON_ERR_BOUND_PCT: f64 = 1.0;

/// Which workload a run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Solo reporter, unmanaged pair and IOShares pair at one size.
    Pair,
    /// Six reporters plus a 2 MiB streamer, unmanaged and IOShares.
    Consolidation,
    /// The sharded 128-host rack at pool width.
    Rack,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "pair" => Some(Workload::Pair),
            "consolidation" => Some(Workload::Consolidation),
            "rack" => Some(Workload::Rack),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pair => "pair",
            Workload::Consolidation => "consolidation",
            Workload::Rack => "rack",
        }
    }
}

/// Everything one run feeds the simulator, generated from the seed.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The seed the inputs came from.
    pub seed: u64,
    /// Scenarios of one iteration, in run order (empty for `rack`).
    pub scenarios: Vec<ScenarioConfig>,
    /// The rack (for `rack` only).
    pub rack: Option<RackConfig>,
}

impl Inputs {
    /// Generates the workload's inputs from `seed`, which becomes every
    /// scenario's (and the rack's) simulator seed; seed 42 reproduces the
    /// figure suite's runs.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let quick = Scale::quick();
        let stamp = |mut cfg: ScenarioConfig| {
            cfg.duration = quick.duration;
            cfg.warmup = quick.warmup;
            cfg.seed = seed;
            cfg
        };
        match workload {
            Workload::Pair => Inputs {
                workload,
                seed,
                scenarios: vec![
                    stamp(ScenarioConfig::base_case(64 * 1024)),
                    stamp(ScenarioConfig::interfered(PAIR_INTERFERER)),
                    stamp(ScenarioConfig::managed(
                        PAIR_INTERFERER,
                        PolicyKind::IoShares,
                    )),
                ],
                rack: None,
            },
            Workload::Consolidation => {
                let mk = |policy: PolicyKind| {
                    let mut cfg = ScenarioConfig::base_case(64 * 1024);
                    cfg.label = format!("consolidation-{policy:?}");
                    cfg.policy = policy;
                    cfg.vms = (0..CONSOLIDATION_REPORTERS)
                        .map(|i| {
                            VmSpec::server(format!("64KB-{i}"), 64 * 1024)
                                .with_sla(BASE_LATENCY_US, 2.0)
                        })
                        .collect();
                    cfg.vms.push(VmSpec::server("2MB", 2 * 1024 * 1024));
                    stamp(cfg)
                };
                Inputs {
                    workload,
                    seed,
                    scenarios: vec![mk(PolicyKind::None), mk(PolicyKind::IoShares)],
                    rack: None,
                }
            }
            Workload::Rack => {
                let mut rack = RackConfig::new(RACK_HOSTS);
                rack.seed = seed;
                Inputs {
                    workload,
                    seed,
                    scenarios: Vec::new(),
                    rack: Some(rack),
                }
            }
        }
    }

    /// The rack cut to one sync window: what `setup_s` times for `rack`,
    /// since `run_rack` builds its worlds internally.
    pub fn rack_one_window(&self) -> RackConfig {
        let mut cfg = self.rack.clone().expect("rack inputs");
        cfg.duration = cfg.topology.sync_quantum;
        cfg.warmup = SimDuration::ZERO;
        cfg
    }
}

/// The simulator's outputs from one iteration.
pub enum Outputs {
    /// One [`RunMetrics`] per scenario, in input order.
    Scenarios(Vec<RunMetrics>),
    /// The rack run.
    Rack(RackRun),
}

/// Host-side measurements of one iteration.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    /// Wall seconds of the iteration's build and run calls.
    pub wall_s: f64,
    /// Process CPU seconds over the same calls.
    pub cpu_s: f64,
    /// Seconds inside `World::build` (0 for `rack`, whose set-up is
    /// timed separately).
    pub setup_s: f64,
    /// Peak RSS over the iteration, MiB.
    pub peak_rss_mb: f64,
    /// Allocations made on the calling thread during the iteration.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
}

/// Runs one iteration of the workload. With `profile`, the simulator's
/// own event-loop profiler is on for the iteration and its per-thread
/// profiles are drained and merged into the returned profile. Each
/// scenario of a single-threaded workload runs on the next CPU of `cpus`.
pub fn run_iteration(
    inputs: &Inputs,
    spans: &mut Spans,
    scenario_tag: &str,
    profile: bool,
    cpus: &mut CpuRotation,
) -> (Timing, Outputs, Option<Profile>) {
    if profile {
        profiler::set_global_enabled(true);
    }
    host::reset_peak_rss();
    let (a0, b0) = resex_obs::alloc::thread_counters();
    let cpu0 = host::process_cpu_s();
    let t0 = Instant::now();
    let mut setup_s = 0.0;
    let outputs = match &inputs.rack {
        Some(rack) => {
            Outputs::Rack(spans.span("platform.run_rack", scenario_tag, || run_rack(rack)))
        }
        None => {
            let mut runs = Vec::with_capacity(inputs.scenarios.len());
            for cfg in &inputs.scenarios {
                let tag = format!("{scenario_tag}/{}", cfg.label);
                cpus.step();
                let b = Instant::now();
                let world = spans.span("platform.build", &tag, || World::build(cfg.clone()));
                setup_s += b.elapsed().as_secs_f64();
                runs.push(spans.span("platform.run", &tag, || world.run()));
            }
            Outputs::Scenarios(runs)
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s() - cpu0;
    let (a1, b1) = resex_obs::alloc::thread_counters();
    let peak_rss_mb = host::peak_rss_mb();
    let prof = profile.then(|| {
        profiler::set_global_enabled(false);
        let mut merged = Profile::default();
        for p in profiler::drain().values() {
            merged.merge(p);
        }
        merged
    });
    let timing = Timing {
        wall_s,
        cpu_s,
        setup_s,
        peak_rss_mb,
        allocs: a1.wrapping_sub(a0),
        alloc_bytes: b1.wrapping_sub(b0),
    };
    (timing, outputs, prof)
}

/// What one iteration's outputs say, reduced to numbers and a digest.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// FNV-64 of the canonical output text.
    pub digest: u64,
    /// Scenario runs checked.
    pub runs: u64,
    /// Scenario runs that failed a check.
    pub failed: u64,
    /// Why each failed run failed.
    pub failures: Vec<String>,
    /// Mean latency of the managed run's reporters (all hosts' for
    /// `rack`), µs.
    pub reporter_mean_us: f64,
    /// Highest reporter p99 of the managed run, µs.
    pub reporter_p99_us: f64,
    /// (unmanaged − IOShares) / (unmanaged − base) reporter latency, %.
    pub interference_removed_pct: Option<f64>,
    /// |solo mean − 209 µs| / 209 µs, % (`pair` only).
    pub paper_base_err_pct: Option<f64>,
    /// Events processed, all runs.
    pub events: u64,
    /// Requests served, all runs and VMs.
    pub served: u64,
    /// Client retries, all runs.
    pub retries: u64,
    /// Requests lost, all runs.
    pub lost: u64,
    /// |IBMon − fabric| / fabric MTUs over managed runs, %.
    pub ibmon_error_pct: Option<f64>,
    /// Rack sync windows.
    pub rack_windows: u64,
    /// Rack barrier stalls, summed over shards.
    pub rack_stalls: u64,
    /// Rack windows with an oversubscribed uplink.
    pub oversub_windows: u64,
    /// The managed run's per-VM requests served per simulated ms, with
    /// each VM's buffer size (the shape of the layer drives).
    pub managed_rates: Vec<(u32, f64)>,
}

fn write_run(text: &mut String, run: &RunMetrics) {
    let _ = writeln!(
        text,
        "run {} {} events={}",
        run.label, run.policy, run.events_processed
    );
    for (row, vm) in run.rows().iter().zip(&run.vms) {
        let _ = writeln!(
            text,
            "  {} n={} mean={:?} std={:?} p99={:?} served={} true_mtus={} ibmon_mtus={}",
            row.vm,
            row.requests,
            row.mean_us,
            row.std_us,
            row.p99_us,
            vm.served,
            vm.true_mtus,
            vm.ibmon_mtus
        );
    }
}

/// Checks one scenario run's outputs: no request lost, every VM served,
/// caps inside `[min_cap, 100]`, and IBMon's lifetime MTU estimate within
/// [`IBMON_ERR_BOUND_PCT`] of the fabric's ground truth.
fn check_run(run: &RunMetrics, min_cap: u32, managed: bool) -> Vec<String> {
    let mut bad = Vec::new();
    for vm in &run.vms {
        if vm.lost_requests != 0 {
            bad.push(format!(
                "{}/{}: lost {}",
                run.label, vm.name, vm.lost_requests
            ));
        }
        if vm.served == 0 {
            bad.push(format!("{}/{}: served nothing", run.label, vm.name));
        }
        if managed {
            if let Some(c) = vm
                .cap_trace
                .values()
                .find(|&c| c < min_cap as f64 || c > 100.0)
            {
                bad.push(format!(
                    "{}/{}: cap {c} outside [{min_cap}, 100]",
                    run.label, vm.name
                ));
            }
        }
    }
    if managed {
        if let Some(err) = ibmon_error_pct([run]) {
            if err > IBMON_ERR_BOUND_PCT {
                bad.push(format!(
                    "{}: ibmon error {err:.3}% > {IBMON_ERR_BOUND_PCT}%",
                    run.label
                ));
            }
        }
    }
    bad
}

fn ibmon_error_pct<'a>(runs: impl IntoIterator<Item = &'a RunMetrics>) -> Option<f64> {
    let (mut est, mut truth) = (0u64, 0u64);
    for vm in runs.into_iter().flat_map(|r| &r.vms) {
        est += vm.ibmon_mtus;
        truth += vm.true_mtus;
    }
    (truth > 0).then(|| 100.0 * est.abs_diff(truth) as f64 / truth as f64)
}

fn mean_us(run: &RunMetrics, vm: &str) -> f64 {
    run.vm(vm).map_or(0.0, |v| v.summary.total.mean())
}

fn p99_us(run: &RunMetrics, vm: &str) -> f64 {
    run.vm(vm)
        .map_or(0.0, |v| v.histogram.quantile(0.99) as f64 / 1000.0)
}

fn reporter_names(run: &RunMetrics) -> Vec<String> {
    run.vms
        .iter()
        .map(|v| v.name.clone())
        .filter(|n| n.starts_with("64KB"))
        .collect()
}

/// Reduces an iteration's outputs to a [`Summary`], running every check.
pub fn summarize(inputs: &Inputs, outputs: &Outputs) -> Summary {
    let mut s = Summary::default();
    let mut text = format!("{} seed={}\n", inputs.workload.name(), inputs.seed);
    let check = |s: &mut Summary, run: &RunMetrics, min_cap: u32, managed: bool| {
        let bad = check_run(run, min_cap, managed);
        s.runs += 1;
        if !bad.is_empty() {
            s.failed += 1;
            s.failures.extend(bad);
        }
        s.events += run.events_processed;
        for vm in &run.vms {
            s.served += vm.served;
            s.retries += vm.retries;
            s.lost += vm.lost_requests;
        }
    };
    match outputs {
        Outputs::Scenarios(runs) => {
            for (run, cfg) in runs.iter().zip(&inputs.scenarios) {
                write_run(&mut text, run);
                check(
                    &mut s,
                    run,
                    cfg.resex.min_cap_pct,
                    cfg.policy != PolicyKind::None,
                );
            }
            let managed_idx = runs.len() - 1;
            let managed = &runs[managed_idx];
            let unmanaged = &runs[managed_idx - 1];
            let reporters = reporter_names(managed);
            let avg = |run: &RunMetrics| {
                reporters.iter().map(|n| mean_us(run, n)).sum::<f64>() / reporters.len() as f64
            };
            s.reporter_mean_us = avg(managed);
            s.reporter_p99_us = reporters
                .iter()
                .map(|n| p99_us(managed, n))
                .fold(0.0, f64::max);
            let ms = managed.duration.as_secs_f64() * 1e3;
            let cfg = &inputs.scenarios[managed_idx];
            s.managed_rates = cfg
                .vms
                .iter()
                .zip(&managed.vms)
                .map(|(spec, vm)| (spec.buffer_size, vm.served as f64 / ms))
                .collect();
            s.ibmon_error_pct = ibmon_error_pct([managed]);
            match inputs.workload {
                Workload::Pair => {
                    let base = mean_us(&runs[0], "64KB");
                    let intf = avg(unmanaged);
                    s.interference_removed_pct =
                        Some(100.0 * (intf - s.reporter_mean_us) / (intf - base));
                    s.paper_base_err_pct =
                        Some(100.0 * (base - BASE_LATENCY_US).abs() / BASE_LATENCY_US);
                }
                _ => {
                    // No solo run: the base is the reporters' SLA base latency.
                    let intf = avg(unmanaged);
                    s.interference_removed_pct =
                        Some(100.0 * (intf - s.reporter_mean_us) / (intf - BASE_LATENCY_US));
                }
            }
        }
        Outputs::Rack(rack) => {
            let _ = writeln!(
                text,
                "rack windows={} oversub={} events={}",
                rack.windows, rack.oversub_windows, rack.total_events
            );
            let (mut sum, mut n) = (0.0, 0u32);
            for (h, run) in rack.hosts.iter().enumerate() {
                let _ = writeln!(text, "host {h}");
                write_run(&mut text, run);
                check(&mut s, run, 0, false);
                sum += mean_us(run, "64KB");
                n += 1;
                s.reporter_p99_us = s.reporter_p99_us.max(p99_us(run, "64KB"));
            }
            s.reporter_mean_us = sum / n as f64;
            s.rack_windows = rack.windows;
            s.rack_stalls = rack.shards.iter().map(|x| x.stalls).sum();
            s.oversub_windows = rack.oversub_windows;
        }
    }
    s.digest = host::fnv64(text.as_bytes());
    s
}
