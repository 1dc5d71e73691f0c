//! `paper_suite`: the paper's own pipeline. The six programs under MD
//! and AM are each recorded once, replayed into the 24-geometry cache
//! sweep, and Table 2 and Figure 3 are rendered, as `tamsim all` does.
//! Dispatch, trace recording and cache replay do all the work; the mesh
//! is never touched.

use tamsim_cache::paper_sweep;
use tamsim_core::{Experiment, Implementation};
use tamsim_mdp::NoHooks;
use tamsim_metrics::{figure3, table2, SuiteData};
use tamsim_programs::{self as programs, PaperBenchmark};

use crate::spans::{Phase, Tracer};
use crate::{Bench, Checks, PassOut, Size, DEFAULT_SEED};

const IMPLS: [Implementation; 2] = [Implementation::Md, Implementation::Am];

/// Repetitions of the dispatch probe; `mdp.dispatch_s` is their median.
const PROBE_REPS: u32 = 3;

/// An expected result word.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Want {
    /// Compared with `Word::as_i64`.
    Int(i64),
    /// Compared exactly with `Word::as_f64` (accumulation order is fixed).
    Float(f64),
}

/// The workload, set up.
pub struct PaperSuite {
    suite: Vec<PaperBenchmark>,
    /// Expected result words per program, in suite order.
    pub expect: Vec<Vec<Want>>,
    /// Committed CSVs the rendered figures must equal: `(file name,
    /// contents or None when unreadable)`. Empty off the default seed.
    pub goldens: Vec<(String, Option<String>)>,
    /// `(program, implementation, queue words, instructions)` of the last
    /// pass, for the dispatch probe.
    last: Vec<(usize, Implementation, [u32; 2], u64)>,
    /// Access events the last pass recorded.
    events: u64,
}

impl PaperSuite {
    /// Build the suite (the QS input from `seed`), link every program
    /// under both implementations, and load the goldens.
    pub fn setup(size: Size, seed: u64, t: &mut Tracer) -> Self {
        let (mut suite, sizes) = match size {
            Size::Full => (programs::paper_suite(), &FULL),
            Size::Smoke => (programs::small_suite(), &SMOKE),
        };
        for b in &mut suite {
            if b.name == "QS" {
                b.program = programs::quicksort(sizes.qs, seed);
            }
        }
        for b in &suite {
            for impl_ in IMPLS {
                let linked = t.span("core.link", |_| Experiment::new(impl_).link(&b.program));
                std::hint::black_box(linked);
            }
        }
        let expect = suite
            .iter()
            .map(|b| expected(b.name, sizes, seed))
            .collect();
        let goldens = if seed == DEFAULT_SEED {
            let dir = match size {
                Size::Full => "results",
                Size::Smoke => "tests/golden",
            };
            [
                "table2.csv",
                "figure3_miss12.csv",
                "figure3_miss24.csv",
                "figure3_miss48.csv",
            ]
            .iter()
            .map(|f| {
                (
                    f.to_string(),
                    std::fs::read_to_string(format!("{dir}/{f}")).ok(),
                )
            })
            .collect()
        } else {
            Vec::new()
        };
        PaperSuite {
            suite,
            expect,
            goldens,
            last: Vec::new(),
            events: 0,
        }
    }
}

/// Argument sizes of the programs `paper_suite()` and `small_suite()`
/// build, for their reference results.
struct Sizes {
    mmt: usize,
    qs: usize,
    dtw: (usize, usize),
    paraffins: usize,
    wavefront: (usize, usize),
    ss: u32,
}

const FULL: Sizes = Sizes {
    mmt: 50,
    qs: 100,
    dtw: (10, 8),
    paraffins: 13,
    wavefront: (40, 3),
    ss: 100,
};

const SMOKE: Sizes = Sizes {
    mmt: 10,
    qs: 24,
    dtw: (5, 4),
    paraffins: 8,
    wavefront: (8, 2),
    ss: 24,
};

/// The reference result of program `name`.
fn expected(name: &str, n: &Sizes, seed: u64) -> Vec<Want> {
    match name {
        "MMT" => vec![Want::Float(programs::mmt_expected(n.mmt))],
        "QS" => vec![Want::Int(programs::quicksort_expected(n.qs, seed))],
        "DTW" => vec![Want::Float(programs::dtw_expected(n.dtw.0, n.dtw.1))],
        "Paraffins" => {
            let (total, last) = programs::paraffins_expected(n.paraffins);
            vec![Want::Int(total), Want::Int(last)]
        }
        "Wavefront" => vec![Want::Float(programs::wavefront_expected(
            n.wavefront.0,
            n.wavefront.1,
        ))],
        "SS" => vec![Want::Int(programs::ss_expected(n.ss))],
        other => panic!("no reference result for program {other}"),
    }
}

impl Bench for PaperSuite {
    fn pass(&mut self, t: &mut Tracer, c: &mut Checks) -> PassOut {
        // `collect_timed` records every (program, implementation) with
        // `Experiment::run_recorded`, then replays each log with
        // `CacheBank::replay_parallel`; it times the two phases itself,
        // and those times become its child spans.
        let (data, perf) = t.span("metrics.collect", |t| {
            let at = t.mark();
            let (data, perf) = SuiteData::collect_timed(self.suite.clone(), &IMPLS, paper_sweep());
            t.reported("trace.record", at, perf.machine_seconds);
            t.reported(
                "cache.replay",
                at + (perf.machine_seconds * 1e9) as u64,
                perf.replay_seconds,
            );
            (data, perf)
        });
        let csvs: Vec<(String, String)> = t.span("metrics.render", |_| {
            let mut csvs = vec![("table2.csv".to_string(), table2(&data).to_csv())];
            for (cost, table) in figure3(&data) {
                csvs.push((format!("figure3_miss{cost}.csv"), table.to_csv()));
            }
            csvs
        });

        self.last.clear();
        let mut latencies = Vec::new();
        for (i, (b, want)) in self.suite.iter().zip(&self.expect).enumerate() {
            for impl_ in IMPLS {
                let run = &data.get(b.name, impl_).run;
                let got: Vec<Want> = want
                    .iter()
                    .zip(&run.result)
                    .map(|(w, word)| match w {
                        Want::Int(_) => Want::Int(word.as_i64()),
                        Want::Float(_) => Want::Float(word.as_f64()),
                    })
                    .collect();
                c.check(&got == want, || {
                    format!(
                        "{} {}: result {got:?}, expected {want:?}",
                        b.name,
                        impl_.label()
                    )
                });
                self.last
                    .push((i, impl_, run.queue_words, run.instructions));
                latencies.push(run.instructions);
            }
        }
        for (file, golden) in &self.goldens {
            let rendered = csvs.iter().find(|(f, _)| f == file).map(|(_, csv)| csv);
            c.check(golden.is_some() && rendered == golden.as_ref(), || {
                format!("rendered {file} differs from the committed one")
            });
        }
        self.events = perf.events;
        latencies.sort_unstable();
        let instructions: u64 = latencies.iter().sum();
        PassOut {
            instructions,
            sim_cycles: instructions,
            latencies,
            exact: vec![("instructions", instructions), ("events", perf.events)],
        }
    }

    fn layers(&mut self, t: &mut Tracer, c: &mut Checks) -> Vec<(&'static str, f64)> {
        // Hook-free dispatch of the same programs at the queue sizes the
        // recorded runs settled on: the floor under `trace.record`.
        for rep in 0..PROBE_REPS {
            t.begin(Phase::Probe, rep);
            for &(i, impl_, queue_words, instructions) in &self.last {
                let linked = Experiment {
                    queue_words,
                    ..Experiment::new(impl_)
                }
                .link(&self.suite[i].program);
                let ran = t.span("mdp.dispatch", |_| {
                    linked
                        .run(&mut NoHooks)
                        .map(|(stats, _)| stats.instructions)
                });
                c.check(ran.as_ref().ok() == Some(&instructions), || {
                    format!(
                        "{} {}: hook-free run gave {ran:?} instructions, recorded run {instructions}",
                        self.suite[i].name,
                        impl_.label()
                    )
                });
            }
        }
        let dispatch_instr: u64 = self.last.iter().map(|l| l.3).sum();
        let dispatch = t.median_s(Phase::Probe, "mdp.dispatch", false);
        let record = t.median_s(Phase::Pass, "trace.record", false);
        let replay = t.median_s(Phase::Pass, "cache.replay", false);
        let events = self.events as f64;
        vec![
            ("mdp.dispatch_s", dispatch),
            ("mdp.ns_per_instr", dispatch * 1e9 / dispatch_instr as f64),
            ("mdp.instructions", dispatch_instr as f64),
            ("trace.record_s", record),
            ("trace.events", events),
            ("trace.ns_per_event", (record - dispatch) * 1e9 / events),
            ("cache.replay_s", replay),
            (
                "cache.ns_per_event_geom",
                replay * 1e9 / (events * paper_sweep().len() as f64),
            ),
            // Four bytes per event (`TraceLog::packed_bytes`); every log
            // is held until the replay phase has scored it.
            ("cache.log_mb", events * 4.0 / 1e6),
            (
                "metrics.render_s",
                t.median_s(Phase::Pass, "metrics.render", false),
            ),
        ]
    }
}
