//! The machine-readable perf report behind `repro profile` and
//! `BENCH_profile.json`.
//!
//! A [`ProfileReport`] is what the perf-regression harness commits: the
//! merged self-profile of a `repro` run (top event types by self-time,
//! allocations per event, events per second, calendar shape), stamped
//! with enough provenance (git revision, thread count, flags) that
//! reports from different PRs are comparable. Schema changes bump
//! [`SCHEMA`].

use resex_obs::Profile;
use serde::Serialize;
use std::collections::BTreeMap;

/// Report schema identifier; bump on breaking layout changes.
pub const SCHEMA: &str = "resex-profile-v1";

/// Where and how the profiled run happened.
#[derive(Clone, Debug, Serialize)]
pub struct Provenance {
    /// `git rev-parse --short=12 HEAD`, or `"unknown"` outside a repo.
    pub git_rev: String,
    /// Whether tracked files differed from `git_rev` when the run started
    /// (`git status --porcelain --untracked-files=no` non-empty), so the
    /// numbers came from an uncommitted tree. `false` outside a repo.
    pub dirty: bool,
    /// Worker threads the pool ran (1 = sequential).
    pub threads: u64,
    /// Host CPU count.
    pub cores: u64,
    /// The full `repro` argument list.
    pub flags: Vec<String>,
}

impl Provenance {
    /// Captures the current process's provenance.
    pub fn capture(flags: Vec<String>) -> Provenance {
        Provenance {
            git_rev: git_rev(),
            dirty: git_dirty(),
            threads: rayon::current_num_threads() as u64,
            cores: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            flags,
        }
    }
}

/// The current git revision (short), or `"unknown"`.
pub fn git_rev() -> String {
    git_stdout(&["rev-parse", "--short=12", "HEAD"])
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Whether any tracked file differs from `HEAD`; `false` outside a repo.
/// Read-only: `--no-optional-locks` keeps `git status` from refreshing the
/// index, so a run never takes `.git/index.lock` from concurrent git use.
pub fn git_dirty() -> bool {
    git_stdout(&[
        "--no-optional-locks",
        "status",
        "--porcelain",
        "--untracked-files=no",
    ])
    .is_some_and(|s| !s.is_empty())
}

/// Trimmed stdout of a successful `git` invocation.
fn git_stdout(args: &[&str]) -> Option<String> {
    std::process::Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
}

/// Aggregate numbers over the whole profiled run.
#[derive(Clone, Debug, Serialize)]
pub struct Totals {
    /// Events dispatched across every simulated world.
    pub events: u64,
    /// Harness wall-clock seconds (what a user waits).
    pub wall_s: f64,
    /// Seconds spent inside event frames, summed over every world (the
    /// root frames' inclusive time; CPU-busy proxy, exceeds `wall_s` only
    /// when worlds run concurrently).
    pub busy_s: f64,
    /// `events / wall_s` — the headline throughput number.
    pub events_per_sec: f64,
    /// Heap allocations attributed to profiled frames (0 unless the
    /// counting allocator is installed — `repro` installs it).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// `allocs / events`.
    pub allocs_per_event: f64,
    /// Mean event-calendar size at dispatch.
    pub calendar_mean: f64,
    /// Largest calendar size seen.
    pub calendar_max: u64,
}

/// One per-event-type row (top-level frames), sorted by self-time.
#[derive(Clone, Debug, Serialize)]
pub struct EventTypeRow {
    /// Event-type name (e.g. `FabricSync`).
    pub name: String,
    /// Dispatch count.
    pub calls: u64,
    /// Inclusive wall nanoseconds.
    pub wall_ns: u64,
    /// Exclusive (self) wall nanoseconds.
    pub self_ns: u64,
    /// Share of total self-time, percent.
    pub self_pct: f64,
    /// Self heap allocations.
    pub allocs: u64,
    /// Self bytes requested.
    pub alloc_bytes: u64,
}

/// One full-chain frame row (`a;b;c` collapsed-stack key).
#[derive(Clone, Debug, Serialize)]
pub struct FrameRow {
    /// `;`-joined event-type chain.
    pub chain: String,
    /// Times entered.
    pub calls: u64,
    /// Inclusive wall nanoseconds.
    pub wall_ns: u64,
    /// Exclusive wall nanoseconds.
    pub self_ns: u64,
    /// Self heap allocations.
    pub allocs: u64,
    /// Self bytes requested.
    pub alloc_bytes: u64,
}

/// Per-worker-thread share of the run. The split depends on work
/// stealing and is *not* run-deterministic — only the merged numbers are.
#[derive(Clone, Debug, Serialize)]
pub struct ThreadRow {
    /// Thread name (`main`, `resex-worker-3`, ...).
    pub label: String,
    /// Events this thread dispatched.
    pub events: u64,
    /// Seconds this thread spent inside event frames.
    pub busy_s: f64,
}

/// Wall-clock of one figure target inside a multi-target run.
#[derive(Clone, Debug, Serialize)]
pub struct TargetTiming {
    /// Target name (`fig1` ... `scaling`).
    pub target: String,
    /// Wall-clock seconds for the target.
    pub seconds: f64,
}

/// The complete committed artifact.
#[derive(Clone, Debug, Serialize)]
pub struct ProfileReport {
    /// [`SCHEMA`].
    pub schema: String,
    /// Profiled target (`fig9`, `all`, ...).
    pub target: String,
    /// `quick` or `full`.
    pub mode: String,
    /// Build/run provenance.
    pub provenance: Provenance,
    /// Aggregates.
    pub totals: Totals,
    /// Per-event-type table, self-time descending.
    pub event_types: Vec<EventTypeRow>,
    /// Every frame chain, in chain order.
    pub frames: Vec<FrameRow>,
    /// Per-thread split (not run-deterministic; informational).
    pub threads: Vec<ThreadRow>,
    /// Per-target wall-clock (one entry for single-target runs).
    pub targets: Vec<TargetTiming>,
}

/// Builds the report from the profiles the global collector drained.
pub fn build_report(
    target: &str,
    mode: &str,
    provenance: Provenance,
    per_thread: &BTreeMap<String, Profile>,
    wall_s: f64,
    timings: &[(String, f64)],
) -> ProfileReport {
    let mut merged = Profile::default();
    for profile in per_thread.values() {
        merged.merge(profile);
    }
    let total_self_ns: u64 = merged.frames.values().map(|f| f.self_ns).sum();
    let allocs: u64 = merged.frames.values().map(|f| f.allocs).sum();
    let alloc_bytes: u64 = merged.frames.values().map(|f| f.alloc_bytes).sum();

    let mut event_types: Vec<EventTypeRow> = merged
        .event_types()
        .map(|(name, s)| EventTypeRow {
            name: name.to_string(),
            calls: s.calls,
            wall_ns: s.wall_ns,
            self_ns: s.self_ns,
            self_pct: pct(s.self_ns, total_self_ns),
            allocs: s.allocs,
            alloc_bytes: s.alloc_bytes,
        })
        .collect();
    event_types.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));

    let frames: Vec<FrameRow> = merged
        .frames
        .iter()
        .map(|(chain, s)| FrameRow {
            chain: chain.clone(),
            calls: s.calls,
            wall_ns: s.wall_ns,
            self_ns: s.self_ns,
            allocs: s.allocs,
            alloc_bytes: s.alloc_bytes,
        })
        .collect();

    let threads: Vec<ThreadRow> = per_thread
        .iter()
        .map(|(label, p)| ThreadRow {
            label: label.clone(),
            events: p.events,
            busy_s: busy_s(p),
        })
        .collect();

    ProfileReport {
        schema: SCHEMA.to_string(),
        target: target.to_string(),
        mode: mode.to_string(),
        totals: Totals {
            events: merged.events,
            wall_s,
            busy_s: busy_s(&merged),
            events_per_sec: if wall_s > 0.0 {
                merged.events as f64 / wall_s
            } else {
                0.0
            },
            allocs,
            alloc_bytes,
            allocs_per_event: if merged.events > 0 {
                allocs as f64 / merged.events as f64
            } else {
                0.0
            },
            calendar_mean: merged.calendar.mean_len(),
            calendar_max: merged.calendar.max_len,
        },
        provenance,
        event_types,
        frames,
        threads,
        targets: timings
            .iter()
            .map(|(t, s)| TargetTiming {
                target: t.clone(),
                seconds: *s,
            })
            .collect(),
    }
}

/// Re-merges the per-thread profiles (for the flamegraph export, which
/// wants one collapsed-stack document, not one per thread).
pub fn merged_profile(per_thread: &BTreeMap<String, Profile>) -> Profile {
    let mut merged = Profile::default();
    for profile in per_thread.values() {
        merged.merge(profile);
    }
    merged
}

/// Seconds inside event frames: the summed inclusive time of the root
/// frames. A profile's own `wall_ns` spans each world's whole lifetime
/// (build to finish), so a merge of many worlds that overlap in time
/// would count the same wall-clock once per world.
fn busy_s(p: &Profile) -> f64 {
    p.event_types().map(|(_, s)| s.wall_ns).sum::<u64>() as f64 / 1e9
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

impl ProfileReport {
    /// Prints the human-readable profile summary.
    pub fn print(&self) {
        println!(
            "profile: {} ({}) — rev {}, {} pool thread(s)",
            self.target, self.mode, self.provenance.git_rev, self.provenance.threads
        );
        let t = &self.totals;
        println!(
            "  {} events in {:.2}s wall ({:.0} events/s, {:.2}s busy)",
            t.events, t.wall_s, t.events_per_sec, t.busy_s
        );
        println!(
            "  allocations: {} ({} bytes), {:.2} allocs/event",
            t.allocs, t.alloc_bytes, t.allocs_per_event
        );
        println!(
            "  calendar: mean {:.1} pending, max {}",
            t.calendar_mean, t.calendar_max
        );
        println!(
            "\n  {:<16} {:>12} {:>10} {:>10} {:>6} {:>12}",
            "event type", "calls", "self ms", "wall ms", "self%", "allocs"
        );
        for row in &self.event_types {
            println!(
                "  {:<16} {:>12} {:>10.1} {:>10.1} {:>6.1} {:>12}",
                row.name,
                row.calls,
                row.self_ns as f64 / 1e6,
                row.wall_ns as f64 / 1e6,
                row.self_pct,
                row.allocs
            );
        }
        if !self.targets.is_empty() {
            println!("\n  {:<10} {:>8}", "target", "seconds");
            for t in &self.targets {
                println!("  {:<10} {:>8.2}", t.target, t.seconds);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resex_obs::FrameStats;

    fn profile_with(frames: &[(&str, u64, u64)], events: u64) -> Profile {
        let mut p = Profile {
            events,
            wall_ns: frames.iter().map(|&(_, w, _)| w).sum(),
            ..Profile::default()
        };
        p.calendar.samples = events;
        p.calendar.sum_len = events * 4;
        p.calendar.max_len = 9;
        for &(chain, wall_ns, allocs) in frames {
            p.frames.insert(
                chain.to_string(),
                FrameStats {
                    calls: 1,
                    wall_ns,
                    self_ns: wall_ns,
                    allocs,
                    alloc_bytes: allocs * 16,
                },
            );
        }
        p
    }

    fn provenance() -> Provenance {
        Provenance {
            git_rev: "abc123def456".into(),
            dirty: false,
            threads: 2,
            cores: 8,
            flags: vec!["profile".into(), "fig9".into()],
        }
    }

    #[test]
    fn event_types_sorted_by_self_time() {
        let mut per_thread = BTreeMap::new();
        per_thread.insert(
            "main".to_string(),
            profile_with(
                &[
                    ("FabricSync", 500, 3),
                    ("FabricSync;fabric.advance", 400, 1),
                    ("HvSync", 900, 0),
                    ("ClientTimer", 100, 2),
                ],
                10,
            ),
        );
        let r = build_report("fig9", "quick", provenance(), &per_thread, 2.0, &[]);
        assert_eq!(r.schema, SCHEMA);
        let names: Vec<&str> = r.event_types.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["HvSync", "FabricSync", "ClientTimer"]);
        assert!(!r.event_types.iter().any(|e| e.name.contains(';')));
        assert_eq!(r.frames.len(), 4, "frames keep the full chains");
        assert_eq!(r.totals.events, 10);
        assert_eq!(r.totals.events_per_sec, 5.0);
        assert_eq!(r.totals.allocs, 6);
        assert_eq!(r.totals.calendar_max, 9);
        let pct_sum: f64 = r.event_types.iter().map(|e| e.self_pct).sum();
        // Percentages are over ALL frames' self time, so roots alone sum
        // below 100 when nested frames claimed some.
        assert!(pct_sum < 100.0);
    }

    #[test]
    fn merges_across_threads() {
        let mut per_thread = BTreeMap::new();
        per_thread.insert(
            "main".to_string(),
            profile_with(&[("FabricSync", 100, 1)], 4),
        );
        per_thread.insert(
            "resex-worker-0".to_string(),
            profile_with(&[("FabricSync", 300, 2)], 6),
        );
        let r = build_report("all", "quick", provenance(), &per_thread, 1.0, &[]);
        assert_eq!(r.totals.events, 10);
        assert_eq!(r.event_types[0].calls, 2);
        assert_eq!(r.event_types[0].self_ns, 400);
        assert_eq!(r.threads.len(), 2);
        assert_eq!(r.threads[0].label, "main");
        let merged = merged_profile(&per_thread);
        assert!(merged.collapsed().contains("FabricSync 400"));
    }

    #[test]
    fn busy_time_counts_event_frames_not_world_lifetimes() {
        // Two worlds interleaved on one thread over a 1.2 s run: each
        // lived 1 s (overlapping), but only 0.3 s + 0.4 s went into event
        // frames, nested frames included in their roots.
        let mut a = profile_with(
            &[
                ("FabricSync", 300_000_000, 0),
                ("FabricSync;fabric.advance", 200_000_000, 0),
            ],
            5,
        );
        a.wall_ns = 1_000_000_000;
        let mut b = profile_with(&[("HvSync", 400_000_000, 0)], 5);
        b.wall_ns = 1_000_000_000;
        a.merge(&b);
        let mut per_thread = BTreeMap::new();
        per_thread.insert("main".to_string(), a);
        let wall_s = 1.2;
        let r = build_report("rack", "quick", provenance(), &per_thread, wall_s, &[]);
        assert!(r.totals.busy_s <= wall_s, "busy {} s", r.totals.busy_s);
        assert!((r.totals.busy_s - 0.7).abs() < 1e-9);
        assert_eq!(r.threads[0].busy_s, r.totals.busy_s);
    }

    #[test]
    fn report_serializes_with_provenance_and_timings() {
        let mut per_thread = BTreeMap::new();
        per_thread.insert("main".to_string(), profile_with(&[("End", 10, 0)], 1));
        let timings = vec![("fig1".to_string(), 0.5), ("fig9".to_string(), 1.25)];
        let r = build_report("all", "full", provenance(), &per_thread, 2.0, &timings);
        let json = serde_json::to_string(&r).expect("report serializes");
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["schema"].as_str(), Some("resex-profile-v1"));
        assert_eq!(v["provenance"]["git_rev"].as_str(), Some("abc123def456"));
        assert_eq!(v["provenance"]["dirty"].as_bool(), Some(false));
        assert!(v["totals"]["events_per_sec"].as_f64().unwrap() > 0.0);
        assert_eq!(v["targets"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn git_rev_is_nonempty() {
        assert!(!git_rev().is_empty());
    }
}
