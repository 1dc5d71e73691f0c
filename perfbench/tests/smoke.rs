//! Smoke-size checks of the benchmark itself: `small_suite()`, a 4-node
//! mesh and 64 requests, so each run takes well under a second.

use std::path::Path;
use std::process::Command;

use perfbench::{measure, mesh, Config, Size, Workload, END_TO_END, PER_LAYER};

/// The repository root: the benchmark reads `tests/golden/` from there.
fn root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Run the binary on `workload` at smoke size; its last stdout line.
fn result_line(workload: Workload, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root())
        .args([
            "--workload",
            workload.name(),
            "--size",
            "smoke",
            "--seconds",
            "0",
        ])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{} trace={trace} failed: {}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    stdout.lines().last().expect("a result line").to_string()
}

/// The value printed for `name` with `unit`, if it is there.
fn value(line: &str, name: &str, unit: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let (num, tail) = rest.split_once(',')?;
    tail.starts_with(&format!(" \"unit\": \"{unit}\"}}"))
        .then(|| num.parse().ok())
        .flatten()
}

/// Every metric is declared in `BENCHMARK.json` under `section`, with
/// its unit, and no other metric is.
fn assert_declared(section: &str, metrics: &[(&str, &str)]) {
    let json = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    for (name, unit) in metrics {
        assert!(
            body.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{section}: {name} ({unit}) not declared"
        );
    }
    assert_eq!(
        body.matches("\"name\"").count(),
        metrics.len(),
        "{section}: extra metrics declared"
    );
}

#[test]
fn every_end_to_end_metric_is_printed_with_its_unit() {
    assert_declared("end_to_end", &END_TO_END);
    for w in Workload::ALL {
        let line = result_line(w, 0);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0, "), "{line}");
        for (name, unit) in END_TO_END {
            let v = value(&line, name, unit)
                .unwrap_or_else(|| panic!("{}: {name} ({unit}) missing from {line}", w.name()));
            assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", w.name());
        }
    }
}

#[test]
fn traced_run_emits_every_per_layer_metric() {
    assert_declared("per_layer", &PER_LAYER);
    for w in Workload::ALL {
        let line = result_line(w, 1);
        for (name, unit) in PER_LAYER {
            let v = value(&line, name, unit)
                .unwrap_or_else(|| panic!("{}: {name} ({unit}) missing from {line}", w.name()));
            assert!(v.is_finite(), "{}: {name} = {v}", w.name());
        }
        // Each workload reaches the layers it is there to measure.
        let reached = match w {
            Workload::PaperSuite => ["mdp.dispatch_s", "trace.record_s", "cache.replay_s"],
            Workload::MeshWide => ["net.run_s", "net.one_node_s", "net.active_frac"],
            Workload::ServeSkew => ["net.serve_s", "net.steal.migrations", "metrics.render_s"],
        };
        for name in reached {
            let unit = PER_LAYER.iter().find(|m| m.0 == name).expect("listed").1;
            assert!(
                value(&line, name, unit).is_some_and(|v| v > 0.0),
                "{}: {name}",
                w.name()
            );
        }
    }
}

#[test]
fn a_wrong_expected_value_is_a_failed_operation() {
    let cfg = Config {
        workload: Workload::MeshWide,
        size: Size::Smoke,
        seed: perfbench::DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
    };
    let report = measure(&cfg, &mut |t| {
        let mut w = mesh::MeshWide::setup(Size::Smoke, t);
        w.expect += 1.0;
        Box::new(w)
    });
    // The warm-up and every measured pass check the result once each.
    assert!(report.checks.failed >= 4, "{:?}", report.checks);
    assert!(
        report.checks.errors[0].contains("mmt result"),
        "{:?}",
        report.checks.errors
    );
    assert!(report.json().starts_with("{\"correct\": false, "));
}
