//! The benchmark's own spans: one around every public call it makes into
//! the simulator (build, run, `run_rack`, the output checks, each layer
//! drive). Spans are kept in memory and written as JSON Lines when the
//! run ends; a span's self time is its duration minus the part of it its
//! child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    id: u32,
    parent: Option<u32>,
    scenario: String,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder for one benchmark run.
pub struct Spans {
    run_id: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    enabled: bool,
}

impl Spans {
    /// A recorder for `run_id`; a disabled one records nothing.
    pub fn new(run_id: String, enabled: bool) -> Spans {
        Spans {
            run_id,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled,
        }
    }

    /// Runs `f` inside a span named `name` for `scenario`, nested under
    /// whatever span is open.
    pub fn span<R>(&mut self, name: &'static str, scenario: &str, f: impl FnOnce() -> R) -> R {
        self.open(name, scenario);
        let out = f();
        self.close();
        out
    }

    /// Opens a span that [`Spans::close`] ends, nested under whatever
    /// span is open.
    pub fn open(&mut self, name: &'static str, scenario: &str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            scenario: scenario.to_string(),
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Self time of span `id`: its duration minus the union of its
    /// children's intervals.
    fn self_ns(&self, id: u32) -> u64 {
        let me = &self.spans[id as usize];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = me.start_ns;
        for (s, e) in kids {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        (me.end_ns - me.start_ns).saturating_sub(covered)
    }

    /// All spans as JSON Lines, one object per span in opening order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{},\"parent\":{},\"scenario\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                self.run_id,
                s.id,
                parent,
                s.scenario,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(s.id)
            );
        }
        out
    }
}
