//! Spans recorded around the benchmark's calls into the workspace's
//! layers. They are kept in memory and written out when the run ends;
//! nothing inside the crates is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Which part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// One repetition of the workload's set-up.
    Setup,
    /// A measured workload pass.
    Pass,
    /// A traced-run-only call that gives a layer its baseline.
    Probe,
}

impl Phase {
    fn label(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Pass => "pass",
            Phase::Probe => "probe",
        }
    }
}

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call (`trace.record`, `net.run`, ...) or `pass`/`setup`.
    pub name: &'static str,
    /// Part of the run the span belongs to.
    pub phase: Phase,
    /// Repetition or pass number within the phase.
    pub pass: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The interval was timed by the layer's own clock and reported back
    /// to the benchmark, not timed around a call.
    pub reported: bool,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. While off, [`Tracer::span`] only calls its closure.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    phase: Phase,
    pass: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder, initially on or off.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            phase: Phase::Setup,
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off for what follows.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Label the spans that follow.
    pub fn begin(&mut self, phase: Phase, pass: u32) {
        self.phase = phase;
        self.pass = pass;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            phase: self.phase,
            pass: self.pass,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            reported: false,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Add a child of the open span covering `seconds` from `start_ns`,
    /// for a phase a layer timed itself inside one call.
    pub fn reported(&mut self, name: &'static str, start_ns: u64, seconds: f64) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            phase: self.phase,
            pass: self.pass,
            start_ns,
            end_ns: start_ns + (seconds * 1e9) as u64,
            parent: self.open.last().copied(),
            reported: true,
        });
    }

    /// Start of the next span, for [`Tracer::reported`].
    pub fn mark(&self) -> u64 {
        if self.on {
            self.now_ns()
        } else {
            0
        }
    }

    /// Self time of span `i`: its duration minus its children's.
    fn self_ns(&self, i: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(Span::ns)
            .sum();
        self.spans[i].ns().saturating_sub(children)
    }

    /// Per repetition of `phase`, the summed duration (or self time) of
    /// the spans named `name`; the median over repetitions in seconds.
    /// Zero when no such span was recorded.
    pub fn median_s(&self, phase: Phase, name: &str, self_time: bool) -> f64 {
        let mut per_pass: BTreeMap<u32, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.phase == phase && s.name == name {
                let ns = if self_time { self.self_ns(i) } else { s.ns() };
                *per_pass.entry(s.pass).or_default() += ns;
            }
        }
        let secs: Vec<f64> = per_pass.values().map(|&ns| ns as f64 / 1e9).collect();
        if secs.is_empty() {
            0.0
        } else {
            crate::median(&secs)
        }
    }

    /// Span names recorded in `phase`, in first-seen order.
    pub fn names(&self, phase: Phase) -> Vec<&'static str> {
        let mut names = Vec::new();
        for s in self.spans.iter().filter(|s| s.phase == phase) {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"phase\": \"{}\", \"pass\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"reported\": {}}}",
                s.name,
                s.phase.label(),
                s.pass,
                s.start_ns,
                s.end_ns,
                s.reported
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.begin(Phase::Pass, 0);
        t.span("pass", |t| {
            let at = t.mark();
            t.reported("child", at, 0.0);
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let whole = t.median_s(Phase::Pass, "pass", false);
        let own = t.median_s(Phase::Pass, "pass", true);
        let inner = t.median_s(Phase::Pass, "inner", false);
        assert!(inner >= 0.002);
        assert!((whole - own - inner).abs() < 1e-6);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.names(Phase::Pass), vec!["pass", "child", "inner"]);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.median_s(Phase::Pass, "x", false), 0.0);
    }
}
