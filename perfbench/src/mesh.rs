//! The two mesh workloads. `mesh_wide` is one batch run whose cost is
//! the driver's per-cycle bookkeeping and the fabric tick; `serve_skew`
//! is many short requests, frame migration and forwarding, where the
//! placement/steal engine dominates.

use tamsim_core::{Experiment, Implementation};
use tamsim_metrics::serve::{percentile, serve_latency_table, serve_profile, sorted_latencies};
use tamsim_net::{
    ArrivalKind, MeshExperiment, MeshRunResult, NodeState, OriginDist, PlacementPolicy, ServeConfig,
};
use tamsim_programs as programs;
use tamsim_tam::Program;

use crate::spans::{Phase, Tracer};
use crate::{Bench, Checks, PassOut, Size, DEFAULT_SEED};

/// Link `program` as set-up does for every workload.
fn link(program: &Program, impl_: Implementation, t: &mut Tracer) {
    let linked = t.span("core.link", |_| Experiment::new(impl_).link(program));
    std::hint::black_box(linked);
}

/// Per-layer counts of a mesh run, from its own statistics.
fn net_counts(r: &MeshRunResult) -> Vec<(&'static str, f64)> {
    let run_cycles: u64 = r.activity.iter().map(|a| a.cycles_in(NodeState::Run)).sum();
    let net = &r.net;
    vec![
        (
            "net.active_frac",
            run_cycles as f64 / (r.nodes as f64 * r.cycles as f64),
        ),
        ("net.watchdog_trips", r.watchdog_trips as f64),
        ("net.backstop_rearms", r.backstop_rearms as f64),
        ("net.fabric.delivered_msgs", net.delivered_msgs as f64),
        ("net.fabric.hop_traversals", net.hop_traversals as f64),
        ("net.fabric.deliver_stalls", net.deliver_stalls as f64),
        (
            "net.fabric.mean_latency_cycles",
            net.latency_total as f64 / net.delivered_msgs.max(1) as f64,
        ),
        ("net.inject_stall_cycles", r.total_stall_cycles() as f64),
    ]
}

/// `mesh_wide`: `mmt(50)` under MD on an 8x8 mesh with round-robin
/// placement and the default fast-forward driver, as one batch run.
pub struct MeshWide {
    program: Program,
    exp: MeshExperiment,
    /// Expected result word (compared exactly).
    pub expect: f64,
    last: Option<MeshRunResult>,
}

impl MeshWide {
    /// Build and link the program.
    pub fn setup(size: Size, t: &mut Tracer) -> Self {
        let (n, nodes) = match size {
            Size::Full => (50, 64),
            Size::Smoke => (10, 4),
        };
        let program = programs::mmt(n);
        link(&program, Implementation::Md, t);
        MeshWide {
            program,
            exp: MeshExperiment::new(Implementation::Md, nodes)
                .with_placement(PlacementPolicy::RoundRobin),
            expect: programs::mmt_expected(n),
            last: None,
        }
    }
}

impl Bench for MeshWide {
    fn pass(&mut self, t: &mut Tracer, c: &mut Checks) -> PassOut {
        let r = t.span("net.run", |_| self.exp.run(&self.program));
        let got = r.result.first().map(|w| w.as_f64());
        c.check(got == Some(self.expect), || {
            format!("mmt result {got:?}, expected {}", self.expect)
        });
        let out = PassOut {
            instructions: r.instructions,
            sim_cycles: r.cycles,
            latencies: vec![r.cycles],
            exact: vec![
                ("instructions", r.instructions),
                ("sim_cycles", r.cycles),
                ("messages", r.net.delivered_msgs),
            ],
        };
        self.last = Some(r);
        out
    }

    fn layers(&mut self, t: &mut Tracer, c: &mut Checks) -> Vec<(&'static str, f64)> {
        let last = self.last.as_ref().expect("layers after a pass");
        // The same program on one node: the instructions without the
        // driver's per-node work.
        let one = t.span("net.one_node", |_| {
            MeshExperiment::new(Implementation::Md, 1).run(&self.program)
        });
        let got = one.result.first().map(|w| w.as_f64());
        c.check(got == Some(self.expect), || {
            format!("1-node mmt result {got:?}, expected {}", self.expect)
        });
        let run_s = t.median_s(Phase::Pass, "net.run", false);
        let mut v = vec![
            ("net.run_s", run_s),
            ("net.ns_per_instr", run_s * 1e9 / last.instructions as f64),
            (
                "net.one_node_s",
                t.median_s(Phase::Probe, "net.one_node", false),
            ),
        ];
        v.extend(net_counts(last));
        v
    }
}

/// `serve_skew`: open-loop Poisson arrivals of `fib(8)` requests, all at
/// corner node 0 of a 4x4 mesh, under AM with frame stealing, at 1000
/// requests per Mcycle (below the ~1.46k the 16-node corner golden
/// achieves).
pub struct ServeSkew {
    program: Program,
    exp: MeshExperiment,
    cfg: ServeConfig,
    /// Expected result of every request.
    pub expect: i64,
    last: Option<(tamsim_net::ServeRunResult, Vec<u64>)>,
}

impl ServeSkew {
    /// Build and link the request program. The arrival schedule is the
    /// one [`DEFAULT_SEED`] draws, whatever the benchmark's seed: from
    /// seed to seed, 1000 Poisson arrivals moved p99 by 19% and p50 by
    /// 14% (IQR over median, five seeds), too much for a regression
    /// bound of a few percent on exact simulated metrics.
    pub fn setup(size: Size, t: &mut Tracer) -> Self {
        let (nodes, requests) = match size {
            Size::Full => (16, 1000),
            Size::Smoke => (4, 64),
        };
        let program = programs::fib(8);
        link(&program, Implementation::Am, t);
        ServeSkew {
            program,
            exp: MeshExperiment::new(Implementation::Am, nodes)
                .with_placement(PlacementPolicy::WorkStealing),
            cfg: ServeConfig {
                rate_ppm: 1000,
                requests,
                seed: DEFAULT_SEED,
                kind: ArrivalKind::Poisson,
                origins: OriginDist::Corner,
            },
            expect: programs::fib_expected(8),
            last: None,
        }
    }
}

impl Bench for ServeSkew {
    fn pass(&mut self, t: &mut Tracer, c: &mut Checks) -> PassOut {
        let r = t.span("net.serve", |_| self.exp.serve(&self.program, &self.cfg));
        let rendered = t.span("metrics.render", |_| {
            serve_latency_table(&[&r]).to_csv().len() + serve_profile(&r, &self.program.name).len()
        });
        std::hint::black_box(rendered);
        // Every request completes exactly once, with the right result.
        c.check(r.records.len() == self.cfg.requests as usize, || {
            format!(
                "{} of {} requests completed",
                r.records.len(),
                self.cfg.requests
            )
        });
        for (i, rec) in r.records.iter().enumerate() {
            c.check(rec.id as usize == i && rec.result == [self.expect], || {
                format!(
                    "request {i}: id {} result {:?}, expected [{}]",
                    rec.id, rec.result, self.expect
                )
            });
        }
        let latencies = sorted_latencies(&r);
        let mut waits: Vec<u64> = r.records.iter().map(|rec| rec.queue_wait()).collect();
        waits.sort_unstable();
        let m = &r.mesh;
        let out = PassOut {
            instructions: m.instructions,
            sim_cycles: m.cycles,
            exact: vec![
                ("instructions", m.instructions),
                ("sim_cycles", m.cycles),
                ("p99_cycles", percentile(&latencies, 99, 100)),
                ("migrations", m.steals.iter().sum()),
                ("messages", m.net.delivered_msgs),
            ],
            latencies,
        };
        self.last = Some((r, waits));
        out
    }

    fn layers(&mut self, t: &mut Tracer, c: &mut Checks) -> Vec<(&'static str, f64)> {
        let (last, waits) = self.last.as_ref().expect("layers after a pass");
        // The same schedule with locality-aware placement and no
        // migration: what serving costs without the steal engine.
        let local = t.span("net.steal.local_serve", |_| {
            let exp = MeshExperiment {
                placement: PlacementPolicy::LocalityAware,
                ..self.exp
            };
            exp.serve(&self.program, &self.cfg)
        });
        c.check(
            local.records.iter().all(|rec| rec.result == [self.expect]),
            || "locality-aware serve returned a wrong result".to_string(),
        );
        let serve_s = t.median_s(Phase::Pass, "net.serve", false);
        let local_s = t.median_s(Phase::Probe, "net.steal.local_serve", false);
        let migrations: u64 = last.mesh.steals.iter().sum();
        let mut v = vec![
            ("net.serve_s", serve_s),
            (
                "net.ns_per_instr",
                serve_s * 1e9 / last.mesh.instructions as f64,
            ),
            ("net.steal.migrations", migrations as f64),
            (
                "net.steal.per_request",
                migrations as f64 / last.records.len() as f64,
            ),
            ("net.steal.local_serve_s", local_s),
            ("net.steal.overhead_s", serve_s - local_s),
            (
                "net.serve.queue_wait_p99",
                percentile(waits, 99, 100) as f64,
            ),
            (
                "metrics.render_s",
                t.median_s(Phase::Pass, "metrics.render", false),
            ),
        ];
        v.extend(net_counts(&last.mesh));
        v
    }
}
