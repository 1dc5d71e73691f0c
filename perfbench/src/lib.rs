//! The tamsim benchmark: three workloads driven through the workspace
//! crates' public functions from one process, with every output checked.
//! See `NOTES.md` beside this crate for why each workload exists and how
//! to read the traced run.

pub mod mesh;
pub mod paper;
pub mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use spans::{Phase, Tracer};
use tamsim_metrics::serve::percentile;

/// The seed at which `paper_suite` reproduces the committed `results/`
/// (and `tests/golden/` at smoke size): the paper suite's QS input seed.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Timed groups of set-ups per run; `setup_s` is the median over groups
/// of the mean set-up time within a group.
pub const SETUP_GROUPS: u32 = 15;

/// Each group repeats set-up until this many seconds have passed, so a
/// set-up of a few microseconds is not left to timer and cache jitter.
pub const SETUP_GROUP_S: f64 = 0.02;

/// Fewest measured passes per run, whatever `--seconds` says.
pub const MIN_PASSES: usize = 3;

/// End-to-end metrics (tracing off), in output order, with units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("wall_s", "s"),
    ("sim_mips", "MIPS"),
    ("ns_per_cycle", "ns"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("sim_cycles", "cycles"),
    ("p50_cycles", "cycles"),
    ("p99_cycles", "cycles"),
    ("achieved_ppm", "1/Mcycle"),
    ("latency_samples", "count"),
];

/// Per-layer metrics (traced run), in output order, with units. A layer
/// a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("core.link_s", "s"),
    ("mdp.dispatch_s", "s"),
    ("mdp.ns_per_instr", "ns"),
    ("mdp.instructions", "count"),
    ("trace.record_s", "s"),
    ("trace.events", "count"),
    ("trace.ns_per_event", "ns"),
    ("cache.replay_s", "s"),
    ("cache.ns_per_event_geom", "ns"),
    ("cache.log_mb", "MB"),
    ("metrics.render_s", "s"),
    ("net.run_s", "s"),
    ("net.ns_per_instr", "ns"),
    ("net.one_node_s", "s"),
    ("net.active_frac", "ratio"),
    ("net.watchdog_trips", "count"),
    ("net.backstop_rearms", "count"),
    ("net.fabric.delivered_msgs", "count"),
    ("net.fabric.hop_traversals", "count"),
    ("net.fabric.deliver_stalls", "cycles"),
    ("net.fabric.mean_latency_cycles", "cycles"),
    ("net.inject_stall_cycles", "cycles"),
    ("net.serve_s", "s"),
    ("net.steal.migrations", "count"),
    ("net.steal.per_request", "ratio"),
    ("net.steal.local_serve_s", "s"),
    ("net.steal.overhead_s", "s"),
    ("net.serve.queue_wait_p99", "cycles"),
    ("bench.wall_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("bench.pass_self_s", "s"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's record-and-replay cache sweep and its figures.
    PaperSuite,
    /// One batch MMT run on a 64-node mesh.
    MeshWide,
    /// Open-loop requests skewed onto one corner, with frame stealing.
    ServeSkew,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSuite,
        Workload::MeshWide,
        Workload::ServeSkew,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper_suite",
            Workload::MeshWide => "mesh_wide",
            Workload::ServeSkew => "serve_skew",
        }
    }

    /// Parse a [`Workload::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Build the workload's inputs (programs, links, schedules).
    pub fn setup(self, size: Size, seed: u64, t: &mut Tracer) -> Box<dyn Bench> {
        match self {
            Workload::PaperSuite => Box::new(paper::PaperSuite::setup(size, seed, t)),
            Workload::MeshWide => Box::new(mesh::MeshWide::setup(size, t)),
            Workload::ServeSkew => Box::new(mesh::ServeSkew::setup(size, t)),
        }
    }
}

/// Input size: the measured one, or a seconds-long one for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Paper sizes, a 64-node mesh, 1000 requests.
    Full,
    /// `small_suite()`, a 4-node mesh, 64 requests.
    Smoke,
}

impl Size {
    /// The `--size` name.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }
}

/// One run of the benchmark.
#[derive(Debug, Clone)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// At what size.
    pub size: Size,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measured passes.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Checked operations.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// What went wrong, one line each.
    pub errors: Vec<String>,
}

impl Checks {
    /// Count one operation; a false `ok` fails it with `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(why());
        }
    }
}

/// What one workload pass produced, beyond its checks.
#[derive(Debug, Clone, PartialEq)]
pub struct PassOut {
    /// Simulated instructions.
    pub instructions: u64,
    /// Simulated cycles.
    pub sim_cycles: u64,
    /// Completion latency in cycles of every request, ascending. A batch
    /// program run counts as one request arriving at cycle 0.
    pub latencies: Vec<u64>,
    /// Deterministic counts that must repeat exactly in every pass and
    /// every run at the same seed.
    pub exact: Vec<(&'static str, u64)>,
}

/// A set-up workload.
pub trait Bench {
    /// One pass of the work a user waits for, every output checked.
    fn pass(&mut self, t: &mut Tracer, c: &mut Checks) -> PassOut;

    /// The workload's per-layer metrics, from the traced passes' spans
    /// and from probe calls made here (phase [`Phase::Probe`]).
    fn layers(&mut self, t: &mut Tracer, c: &mut Checks) -> Vec<(&'static str, f64)>;
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// Checked operations.
    pub checks: Checks,
    /// Metric name, unit, value, in output order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable lines printed before the result line.
    pub text: Vec<String>,
    /// Spans of the traced run, as JSON.
    pub spans_json: Option<String>,
    /// Deterministic counts of the passes, one `name=value` per line.
    pub fingerprint: String,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed
        )
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// Run `cfg`: set up in [`SETUP_GROUPS`] timed groups, one warm-up pass, then
/// measured passes for `cfg.seconds`. A traced run alternates untraced
/// and traced passes, so the tracing overhead is measured under the same
/// host conditions, then calls [`Bench::layers`].
pub fn measure(cfg: &Config, setup: &mut dyn FnMut(&mut Tracer) -> Box<dyn Bench>) -> Report {
    let mut t = Tracer::new(cfg.trace);
    let mut checks = Checks::default();

    let mut setup_s = Vec::new();
    let mut rep = 0;
    let mut benches = Vec::new();
    for _ in 0..SETUP_GROUPS {
        benches.clear();
        let start = Instant::now();
        while benches.is_empty() || start.elapsed().as_secs_f64() < SETUP_GROUP_S {
            t.begin(Phase::Setup, rep);
            rep += 1;
            benches.push(t.span("setup", |t| setup(t)));
        }
        setup_s.push(start.elapsed().as_secs_f64() / benches.len() as f64);
    }
    let mut bench = benches.pop().expect("at least one set-up");
    drop(benches);

    t.set_on(false);
    let warm = bench.pass(&mut t, &mut checks);

    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    let mut i = 0u32;
    while start.elapsed().as_secs_f64() < cfg.seconds
        || plain.len() < MIN_PASSES
        || (cfg.trace && traced.len() < MIN_PASSES)
    {
        let on = cfg.trace && i % 2 == 1;
        t.set_on(on);
        t.begin(Phase::Pass, i);
        let pass_start = Instant::now();
        let out = t.span("pass", |t| bench.pass(t, &mut checks));
        let secs = pass_start.elapsed().as_secs_f64();
        checks.check(out.exact == warm.exact, || {
            format!(
                "pass {i}: deterministic counts {:?} != warm-up {:?}",
                out.exact, warm.exact
            )
        });
        if on { &mut traced } else { &mut plain }.push(secs);
        i += 1;
    }

    let wall = median(&plain);
    let mut text = Vec::new();
    let metrics: Vec<(&'static str, &'static str, f64)> = if cfg.trace {
        t.set_on(true);
        t.begin(Phase::Probe, 0);
        let mut values: BTreeMap<&str, f64> =
            bench.layers(&mut t, &mut checks).into_iter().collect();
        let traced_wall = median(&traced);
        values.insert("core.link_s", t.median_s(Phase::Setup, "core.link", false));
        values.insert("bench.wall_s", wall);
        values.insert("bench.traced_wall_s", traced_wall);
        values.insert("bench.trace_overhead_s", traced_wall - wall);
        values.insert("bench.pass_self_s", t.median_s(Phase::Pass, "pass", true));
        text.extend(self_time_table(&t, traced_wall, wall));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let lat = &warm.latencies;
        let values = [
            wall,
            warm.instructions as f64 / wall / 1e6,
            wall * 1e9 / warm.sim_cycles as f64,
            peak_rss_mb(),
            median(&setup_s),
            warm.sim_cycles as f64,
            percentile(lat, 50, 100) as f64,
            percentile(lat, 99, 100) as f64,
            lat.len() as f64 * 1e6 / warm.sim_cycles as f64,
            lat.len() as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    let list = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    text.push(format!("untraced passes (s): {}", list(&plain)));
    if cfg.trace {
        text.push(format!("traced passes (s): {}", list(&traced)));
    }

    let fingerprint: String = warm
        .exact
        .iter()
        .map(|(k, v)| format!("{k}={v}\n"))
        .collect();
    Report {
        checks,
        metrics,
        text,
        spans_json: cfg.trace.then(|| t.to_json()),
        fingerprint,
    }
}

/// The traced passes' layer times: inclusive and self, medians per pass.
fn self_time_table(t: &Tracer, traced_wall: f64, wall: f64) -> Vec<String> {
    let mut lines = vec![format!(
        "{:<24} {:>12} {:>12}",
        "span (median per pass)", "total s", "self s"
    )];
    let mut layers = 0.0;
    for name in t.names(Phase::Pass) {
        let own = t.median_s(Phase::Pass, name, true);
        if name != "pass" {
            layers += own;
        }
        lines.push(format!(
            "{name:<24} {:>12.6} {own:>12.6}",
            t.median_s(Phase::Pass, name, false)
        ));
    }
    lines.push(format!(
        "layer self times {layers:.6} s = {:.2}% of the traced pass; traced pass {traced_wall:.6} s, \
         untraced pass {wall:.6} s, tracing overhead {:+.6} s",
        100.0 * layers / t.median_s(Phase::Pass, "pass", false),
        traced_wall - wall
    ));
    lines
}

/// Compare `fingerprint` with the one an earlier run at the same
/// workload, size and seed left in `dir`, or leave it there for later
/// runs. Counts as one checked operation.
pub fn check_repeat(dir: &Path, cfg: &Config, fingerprint: &str, checks: &mut Checks) {
    let file = dir.join(format!(
        "exact-{}-{}-{}.txt",
        cfg.workload.name(),
        cfg.size.name(),
        cfg.seed
    ));
    match std::fs::read_to_string(&file) {
        Ok(earlier) => checks.check(earlier == fingerprint, || {
            format!(
                "deterministic counts differ from an earlier run ({}):\n{earlier}vs\n{fingerprint}",
                file.display()
            )
        }),
        Err(_) => {
            // Write then rename, so a concurrent run never reads half a file.
            let tmp = file.with_extension(format!("tmp{}", std::process::id()));
            let wrote = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&tmp, fingerprint))
                .and_then(|()| std::fs::rename(&tmp, &file));
            checks.check(wrote.is_ok(), || format!("cannot write {}", file.display()));
        }
    }
}
