//! End-to-end and per-layer benchmark of the ResEx simulator.
//!
//! ```text
//! resex-perfbench --workload pair|consolidation|rack --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs the workload's iterations back to back for `S` seconds, checks
//! every simulated output, writes a stamped record under
//! `.bench_records/`, prints each metric by name with its unit, and ends
//! with one JSON line: `correct`, `attempted`, `failed`, `metrics`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` turns the
//! simulator's own profiler on for every other iteration and reports the
//! per-layer metrics. See `README.md` for what each number means.

mod host;
mod layers;
mod spans;
mod workload;

use host::CpuRotation;
use resex_obs::alloc::CountingAlloc;
use resex_obs::Profile;
use resex_platform::run_rack;
use spans::Spans;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{Inputs, Summary, Timing, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The seed whose outputs `digests.txt` pins.
const DEFAULT_SEED: u64 = 42;
/// Warm iterations every run makes at least, so the tail percentile has
/// ten iterations beyond it.
const MIN_WARM: usize = 12;
/// Hard stop for one run's iterations, seconds.
const MAX_RUN_S: f64 = 120.0;
/// One-window rack runs timed for `rack`'s `setup_s`.
const RACK_SETUP_REPS: usize = 7;
/// Committed output digests for [`DEFAULT_SEED`], one `workload hex` per line.
const DIGESTS: &str = include_str!("../digests.txt");
/// Where records and spans are written, relative to the checkout.
const RECORD_DIR: &str = ".bench_records";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rack_leg: bool,
}

const USAGE: &str = "usage: resex-perfbench --workload pair|consolidation|rack --seed N \
                     --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rack_leg = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--rack-leg" {
            rack_leg = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(1.0),
        trace: trace.unwrap_or(false),
        rack_leg,
    })
}

/// Median of `v` (mean of the middle two for an even count).
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest nearest-rank percentile with at least ten samples above
/// it: `(value, percentile)`.
fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let k = s.len().saturating_sub(11);
    (s[k], 100.0 * (k + 1) as f64 / s.len() as f64)
}

/// What a run measured: its metrics, human-readable notes, and how many
/// iterations it made (the cold one included).
struct Report {
    metrics: Vec<Metric>,
    notes: String,
    iterations: usize,
}

/// One metric as printed and recorded.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Accumulates the outcome of every iteration of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    first: Option<Summary>,
    /// Outputs that should have been equal were not (across iterations,
    /// traced vs untraced, or one thread vs pool width), or a leg failed.
    broken: bool,
}

impl Tally {
    /// Folds in one iteration; every iteration repeats the same inputs,
    /// so its outputs must equal the first iteration's exactly.
    fn add(&mut self, s: Summary) {
        self.attempted += s.runs;
        self.failed += s.failed;
        if self.failures.len() < 20 {
            self.failures.extend(s.failures.iter().take(20).cloned());
        }
        match &self.first {
            None => self.first = Some(s),
            Some(f) if f.digest != s.digest => self.problem("outputs differ between iterations"),
            Some(_) => {}
        }
    }

    fn problem(&mut self, why: impl Into<String>) {
        self.broken = true;
        if self.failures.len() < 20 {
            self.failures.push(why.into());
        }
    }

    fn first(&self) -> &Summary {
        self.first.as_ref().expect("at least one iteration")
    }
}

fn measure_iteration(
    inputs: &Inputs,
    spans: &mut Spans,
    cpus: &mut CpuRotation,
    tally: &mut Tally,
    tag: &str,
    profile: bool,
) -> (Timing, Option<Profile>, Summary) {
    spans.open("bench.iteration", tag);
    let (timing, outputs, prof) = workload::run_iteration(inputs, spans, tag, profile, cpus);
    let summary = spans.span("bench.check", tag, || workload::summarize(inputs, &outputs));
    drop(outputs);
    spans.close();
    tally.add(summary.clone());
    (timing, prof, summary)
}

/// Median `run_rack` time over one sync window: the rack's set-up cost.
fn rack_setup_s(inputs: &Inputs, spans: &mut Spans) -> Vec<f64> {
    let cfg = inputs.rack_one_window();
    (0..RACK_SETUP_REPS)
        .map(|i| {
            let t0 = Instant::now();
            let run = spans.span("platform.run_rack_setup", &format!("setup{i}"), || {
                run_rack(&cfg)
            });
            let dt = t0.elapsed().as_secs_f64();
            drop(run);
            dt
        })
        .collect()
}

fn end_to_end(
    inputs: &Inputs,
    args: &Args,
    spans: &mut Spans,
    cpus: &mut CpuRotation,
    tally: &mut Tally,
) -> Report {
    let start = Instant::now();
    // The cold iteration runs first in the process, so its peak RSS is
    // the workload's own from a fresh heap: later iterations' peaks climb
    // with the allocator's retained memory, and so with the run's length.
    let (cold, _, _) = measure_iteration(inputs, spans, cpus, tally, "cold", false);
    let rack_setup = match inputs.workload {
        Workload::Rack => Some(rack_setup_s(inputs, spans)),
        _ => None,
    };
    let mut warm: Vec<Timing> = Vec::new();
    while (start.elapsed().as_secs_f64() < args.seconds || warm.len() < MIN_WARM)
        && start.elapsed().as_secs_f64() < MAX_RUN_S
    {
        let tag = format!("it{}", warm.len());
        warm.push(measure_iteration(inputs, spans, cpus, tally, &tag, false).0);
    }
    let col = |f: fn(&Timing) -> f64| warm.iter().map(f).collect::<Vec<f64>>();
    let walls = col(|t| t.wall_s);
    let (tail_s, tail_pct) = tail(&walls);
    let setup = rack_setup.unwrap_or_else(|| col(|t| t.setup_s));
    let s = tally.first();
    let mut notes = String::new();
    let _ = writeln!(
        notes,
        "  iterations: {} warm + 1 cold (cold wall {:.4} s, excluded from medians); \
         wall_s_tail is p{:.1} of {} warm iterations",
        warm.len(),
        cold.wall_s,
        tail_pct,
        walls.len()
    );
    let failed_pct = 100.0 * tally.failed as f64 / tally.attempted.max(1) as f64;
    let mut extra = vec![
        ("reporter_p99_us", s.reporter_p99_us, "us"),
        ("failed_pct", failed_pct, "%"),
    ];
    if let Some(v) = s.interference_removed_pct {
        extra.push(("interference_removed_pct", v, "%"));
    }
    if let Some(v) = s.paper_base_err_pct {
        extra.push(("paper_base_err_pct", v, "%"));
    }
    for (name, v, unit) in extra {
        let _ = writeln!(notes, "  {name:<28} {v:.4} {unit}");
    }
    let _ = writeln!(
        notes,
        "  samples: wall_s {walls:?}\n  samples: setup_s {setup:?}\n  samples: peak_rss_mb {:?}",
        col(|t| t.peak_rss_mb)
    );
    Report {
        metrics: vec![
            metric("wall_s", median(&walls), "s"),
            metric("wall_s_tail", tail_s, "s"),
            metric("cpu_s", median(&col(|t| t.cpu_s)), "s"),
            metric("setup_s", median(&setup), "s"),
            metric("peak_rss_mb", cold.peak_rss_mb, "MiB"),
            metric("reporter_mean_us", s.reporter_mean_us, "us"),
        ],
        notes,
        iterations: warm.len() + 1,
    }
}

fn frame(p: &Profile, chain: &str) -> resex_obs::FrameStats {
    p.frames.get(chain).copied().unwrap_or_default()
}

/// Per-layer values of one traced iteration.
fn layer_values(
    p: &Profile,
    s: &Summary,
    t: &Timing,
    width: usize,
    managed_vms: usize,
) -> BTreeMap<&'static str, f64> {
    let self_s = |chain: &str| frame(p, chain).self_ns as f64 * 1e-9;
    let event_self_ns: u64 = p.frames.values().map(|f| f.self_ns).sum();
    let root_self_ns: u64 = p.event_types().map(|(_, f)| f.self_ns).sum();
    let event_wall_s = event_self_ns as f64 * 1e-9 / width as f64;
    BTreeMap::from([
        ("simcore.calendar_mean", p.calendar.mean_len()),
        ("simcore.dispatch_self_s", root_self_ns as f64 * 1e-9),
        (
            "fabric.advance_calls",
            frame(p, "FabricSync;fabric.advance").calls as f64,
        ),
        ("fabric.advance_self_s", self_s("FabricSync;fabric.advance")),
        (
            "fabric.sync_per_request",
            frame(p, "FabricSync").calls as f64 / s.served.max(1) as f64,
        ),
        (
            "ibmon.samples",
            (frame(p, "ResExInterval;telemetry").calls * managed_vms as u64) as f64,
        ),
        ("ibmon.telemetry_self_s", self_s("ResExInterval;telemetry")),
        ("hypervisor.advance_self_s", self_s("HvSync;hv.advance")),
        ("hypervisor.jobdone_self_s", self_s("HvSync;JobDone")),
        ("core.intervals", frame(p, "ResExInterval").calls as f64),
        ("core.policy_self_s", self_s("ResExInterval;policy")),
        ("core.actuate_self_s", self_s("ResExInterval;actuate")),
        ("benchex.client_timer_self_s", self_s("ClientTimer")),
        (
            "benchex.recv_complete_self_s",
            self_s("FabricSync;RecvComplete"),
        ),
        ("platform.event_share", event_wall_s / t.wall_s),
        ("platform.rack_nonevent_s", t.wall_s - event_wall_s),
        ("traced_wall_s", t.wall_s),
    ])
}

/// What the one-thread rack leg reports: median warm wall, output
/// digest, and the allocations and bytes of one warm iteration.
struct RackLeg {
    wall_s: f64,
    digest: u64,
    allocs: u64,
    alloc_bytes: u64,
}

/// Runs the rack at pool width 1 in a child process (the pool's width is
/// fixed for a process's lifetime) and waits for it.
fn rack_leg_child(args: &Args) -> Result<RackLeg, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--rack-leg",
            "--workload",
            "rack",
            "--seed",
            &args.seed.to_string(),
        ])
        .env("RESEX_THREADS", "1")
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "one-thread rack leg failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("RACKLEG "))
        .ok_or("no RACKLEG line")?;
    let f: Vec<&str> = line.split_whitespace().collect();
    let num = |i: usize| f.get(i).ok_or("short RACKLEG line".to_string());
    Ok(RackLeg {
        wall_s: num(0)?.parse().map_err(|e| format!("{e}"))?,
        digest: u64::from_str_radix(num(1)?, 16).map_err(|e| format!("{e}"))?,
        allocs: num(2)?.parse().map_err(|e| format!("{e}"))?,
        alloc_bytes: num(3)?.parse().map_err(|e| format!("{e}"))?,
    })
}

/// The child side of [`rack_leg_child`]: one cold and three warm
/// iterations.
fn rack_leg(args: &Args) {
    let inputs = Inputs::generate(Workload::Rack, args.seed);
    let mut spans = Spans::new(String::new(), false);
    let mut cpus = CpuRotation::new();
    let _ = workload::run_iteration(&inputs, &mut spans, "cold", false, &mut cpus);
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let (t, outputs, _) =
            workload::run_iteration(&inputs, &mut spans, "warm", false, &mut cpus);
        walls.push(t.wall_s);
        last = Some((t, workload::summarize(&inputs, &outputs)));
    }
    let (t, s) = last.expect("three warm iterations");
    println!(
        "RACKLEG {} {:016x} {} {}",
        median(&walls),
        s.digest,
        t.allocs,
        t.alloc_bytes
    );
}

fn per_layer(
    inputs: &Inputs,
    args: &Args,
    spans: &mut Spans,
    cpus: &mut CpuRotation,
    tally: &mut Tally,
    width: usize,
) -> Report {
    let start = Instant::now();
    let _ = measure_iteration(inputs, spans, cpus, tally, "cold", false);
    let mut plain: Vec<Timing> = Vec::new();
    let mut traced: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut traced_digests = Vec::new();
    let managed_vms = inputs.scenarios.last().map_or(0, |c| c.vms.len());
    while (start.elapsed().as_secs_f64() < args.seconds || traced.len() < MIN_WARM / 2)
        && start.elapsed().as_secs_f64() < MAX_RUN_S
    {
        let i = plain.len();
        let (t, _, _) = measure_iteration(inputs, spans, cpus, tally, &format!("it{i}"), false);
        plain.push(t);
        let (t, prof, s) =
            measure_iteration(inputs, spans, cpus, tally, &format!("it{i}-traced"), true);
        let prof = prof.expect("traced iteration yields a profile");
        traced.push(layer_values(&prof, &s, &t, width, managed_vms));
        traced_digests.push(s.digest);
    }
    let med = |k: &str| median(&traced.iter().map(|m| m[k]).collect::<Vec<_>>());
    let s = tally.first().clone();
    let shape = shape_of(inputs, &s, med("simcore.calendar_mean").round() as usize);
    let managed = inputs.workload != Workload::Rack;
    let tag = "drives";
    let queue_ns = spans.span("drive.simcore.queue", tag, || {
        layers::simcore_queue_ns(&shape, inputs.seed)
    });
    let send_ns = spans.span("drive.fabric.send", tag, || layers::fabric_send_ns(&shape));
    let (sample_ns, sample_bytes) = if managed {
        spans.span("drive.ibmon.sample", tag, || layers::ibmon_sample(&shape))
    } else {
        (0.0, 0.0)
    };
    let set_cap_ns = spans.span("drive.hypervisor.set_cap", tag, || {
        layers::hypervisor_set_cap_ns(&shape)
    });
    let batch_ns = spans.span("drive.finance.batch", tag, || {
        layers::finance_batch_ns(inputs.seed)
    });
    let on_interval_ns = if managed {
        spans.span("drive.core.on_interval", tag, || {
            layers::core_on_interval_ns(&shape)
        })
    } else {
        0.0
    };
    let plain_wall = median(&plain.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    let mut notes = String::new();
    let (allocs, alloc_bytes, speedup) = match inputs.workload {
        Workload::Rack => {
            let leg = spans.span("bench.rack_leg_1thread", tag, || rack_leg_child(args));
            match leg {
                Ok(leg) => {
                    if leg.digest != s.digest {
                        tally.problem("rack output differs between 1 thread and pool width");
                    }
                    let _ = writeln!(
                        notes,
                        "  one-thread rack wall {:.4} s, pool width {width}",
                        leg.wall_s
                    );
                    (
                        leg.allocs as f64,
                        leg.alloc_bytes as f64,
                        leg.wall_s / plain_wall,
                    )
                }
                Err(e) => {
                    tally.problem(e);
                    (0.0, 0.0, 0.0)
                }
            }
        }
        _ => (
            median(&plain.iter().map(|t| t.allocs as f64).collect::<Vec<_>>()),
            median(
                &plain
                    .iter()
                    .map(|t| t.alloc_bytes as f64)
                    .collect::<Vec<_>>(),
            ),
            0.0,
        ),
    };
    if traced_digests.iter().any(|&d| d != s.digest) {
        tally.problem("traced outputs differ from untraced ones");
    }
    let _ = writeln!(
        notes,
        "  iterations: {} untraced + {} traced (+1 cold); event-frame share of wall {:.3}",
        plain.len(),
        traced.len(),
        med("platform.event_share")
    );
    let metrics = vec![
        metric("simcore.events", s.events as f64, "count"),
        metric(
            "simcore.calendar_mean",
            med("simcore.calendar_mean"),
            "count",
        ),
        metric(
            "simcore.dispatch_self_s",
            med("simcore.dispatch_self_s"),
            "s",
        ),
        metric("simcore.queue_ns", queue_ns, "ns"),
        metric("fabric.advance_calls", med("fabric.advance_calls"), "count"),
        metric("fabric.advance_self_s", med("fabric.advance_self_s"), "s"),
        metric(
            "fabric.sync_per_request",
            med("fabric.sync_per_request"),
            "ratio",
        ),
        metric("fabric.send_ns", send_ns, "ns"),
        metric(
            "fabric.uplink_oversub_windows",
            s.oversub_windows as f64,
            "count",
        ),
        metric("ibmon.samples", med("ibmon.samples"), "count"),
        metric("ibmon.telemetry_self_s", med("ibmon.telemetry_self_s"), "s"),
        metric("ibmon.sample_ns", sample_ns, "ns"),
        metric("ibmon.sample_alloc_bytes", sample_bytes, "bytes"),
        metric("ibmon.error_pct", s.ibmon_error_pct.unwrap_or(0.0), "%"),
        metric(
            "hypervisor.advance_self_s",
            med("hypervisor.advance_self_s"),
            "s",
        ),
        metric(
            "hypervisor.jobdone_self_s",
            med("hypervisor.jobdone_self_s"),
            "s",
        ),
        metric("hypervisor.set_cap_ns", set_cap_ns, "ns"),
        metric("finance.batch_ns", batch_ns, "ns"),
        metric("core.intervals", med("core.intervals"), "count"),
        metric("core.policy_self_s", med("core.policy_self_s"), "s"),
        metric("core.actuate_self_s", med("core.actuate_self_s"), "s"),
        metric("core.on_interval_ns", on_interval_ns, "ns"),
        metric("benchex.served", s.served as f64, "count"),
        metric("benchex.retries", s.retries as f64, "count"),
        metric("benchex.lost", s.lost as f64, "count"),
        metric(
            "benchex.client_timer_self_s",
            med("benchex.client_timer_self_s"),
            "s",
        ),
        metric(
            "benchex.recv_complete_self_s",
            med("benchex.recv_complete_self_s"),
            "s",
        ),
        metric("platform.allocs", allocs, "count"),
        metric("platform.alloc_bytes", alloc_bytes, "bytes"),
        metric("platform.event_share", med("platform.event_share"), "ratio"),
        metric("platform.rack_windows", s.rack_windows as f64, "count"),
        metric("platform.rack_stalls", s.rack_stalls as f64, "count"),
        metric(
            "platform.rack_nonevent_s",
            med("platform.rack_nonevent_s"),
            "s",
        ),
        metric("platform.rack_speedup", speedup, "ratio"),
        metric(
            "obs.trace_overhead",
            med("traced_wall_s") / plain_wall,
            "ratio",
        ),
    ];
    Report {
        metrics,
        notes,
        iterations: plain.len() + traced.len() + 1,
    }
}

/// The layer-drive shape of a workload: its managed run's VMs.
fn shape_of(inputs: &Inputs, s: &Summary, calendar_depth: usize) -> layers::Shape {
    match inputs.scenarios.last() {
        Some(cfg) => layers::Shape {
            buffers: s.managed_rates.iter().map(|&(b, _)| b).collect(),
            rates_per_ms: s.managed_rates.iter().map(|&(_, r)| r).collect(),
            sla: cfg.vms.iter().map(|v| v.sla.is_some()).collect(),
            calendar_depth,
        },
        // A rack host: one 64 KiB reporter and one 2 MiB interferer.
        None => layers::Shape {
            buffers: vec![64 << 10, 2 << 20],
            rates_per_ms: vec![0.0, 0.0],
            sla: vec![false, false],
            calendar_depth,
        },
    }
}

fn committed_digest(w: Workload) -> Option<u64> {
    DIGESTS.lines().find_map(|l| {
        let (name, hex) = l.split_once(' ')?;
        (name == w.name()).then(|| u64::from_str_radix(hex.trim(), 16).ok())?
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn opt_json(v: &Option<impl std::fmt::Display>, quote: bool) -> String {
    match v {
        None => "null".into(),
        Some(x) if quote => json_str(&x.to_string()),
        Some(x) => x.to_string(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.rack_leg {
        rack_leg(&args);
        return ExitCode::SUCCESS;
    }
    let root = std::env::current_dir().expect("working directory");
    let prov = host::Provenance::of(&root);
    let inputs = Inputs::generate(args.workload, args.seed);
    let run_id = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        args.trace as u8
    );
    let mut spans = Spans::new(run_id.clone(), args.trace);
    let mut tally = Tally::default();
    let mut cpus = CpuRotation::new();
    let rss_reset = host::reset_peak_rss();
    // Only the rack uses the work-stealing pool; the other workloads run
    // sequentially on this thread and never start it, so no pool worker
    // spends CPU inside their timings.
    let width = match args.workload {
        Workload::Rack => rayon::current_num_threads(),
        _ => 1,
    };
    let Report {
        metrics,
        notes,
        iterations,
    } = if args.trace {
        per_layer(&inputs, &args, &mut spans, &mut cpus, &mut tally, width)
    } else {
        end_to_end(&inputs, &args, &mut spans, &mut cpus, &mut tally)
    };
    // Stamped after every timing: resolving the width starts the pool.
    let pool_resolved = rayon::current_num_threads();

    let summary = tally.first().clone();
    let digest_ok = match (args.seed == DEFAULT_SEED, committed_digest(args.workload)) {
        (false, _) => None,
        (true, Some(d)) => Some(d == summary.digest),
        (true, None) => Some(false),
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = tally.failed == 0 && !tally.broken && digest_ok != Some(false) && finite;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench {run_id}: nproc {} pool width {width}, git {} dirty {} tree {}",
        host::nproc(),
        prov.git_rev.as_deref().unwrap_or("none"),
        opt_json(&prov.dirty, false),
        prov.tree_hash
    );
    for m in &metrics {
        let _ = writeln!(out, "  {:<28} {:.6} {}", m.name, m.value, m.unit);
    }
    out.push_str(&notes);
    let _ = writeln!(
        out,
        "  output digest {:016x} ({}); {} of {} scenario runs failed; outputs consistent: {}",
        summary.digest,
        match digest_ok {
            None => "no committed digest for this seed",
            Some(true) => "matches the committed digest",
            Some(false) => "DIFFERS from the committed digest",
        },
        tally.failed,
        tally.attempted,
        !tally.broken
    );
    for f in &tally.failures {
        let _ = writeln!(out, "  FAILED: {f}");
    }
    print!("{out}");

    let metric_json = |with_units: bool| {
        metrics
            .iter()
            .map(|m| {
                if with_units {
                    format!(
                        "{}:{{\"value\":{},\"unit\":{}}}",
                        json_str(m.name),
                        m.value,
                        json_str(m.unit)
                    )
                } else {
                    format!("{}:{}", json_str(m.name), m.value)
                }
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let record = format!(
        "{{\"run\":{},\"workload\":{},\"seed\":{},\"trace\":{},\"git_rev\":{},\"dirty\":{},\
         \"diff_hash\":{},\"tree_hash\":{},\"nproc\":{},\"pool_width\":{},\"pool_width_resolved\":{},\"iterations\":{},\"rss_reset\":{},\
         \"attempted\":{},\"failed\":{},\"correct\":{},\"digest\":\"{:016x}\",\"metrics\":{{{}}},\
         \"notes\":{}}}\n",
        json_str(&run_id),
        json_str(args.workload.name()),
        args.seed,
        args.trace,
        opt_json(&prov.git_rev, true),
        opt_json(&prov.dirty, false),
        opt_json(&prov.diff_hash, true),
        json_str(&prov.tree_hash),
        host::nproc(),
        width,
        pool_resolved,
        iterations,
        rss_reset,
        tally.attempted,
        tally.failed,
        correct,
        summary.digest,
        metric_json(false),
        json_str(&notes)
    );
    let dir = Path::new(RECORD_DIR);
    let written = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(dir.join(format!("{run_id}.json")), record))
        .and_then(|_| {
            if args.trace {
                std::fs::write(dir.join(format!("{run_id}.spans.jsonl")), spans.to_jsonl())
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("cannot write records under {RECORD_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        metric_json(true)
    );
    ExitCode::SUCCESS
}
