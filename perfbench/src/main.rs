//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! [--size full|smoke]`, run from the repository root. Prints a report,
//! then one JSON result line; exits 1 when any output was wrong and 2 on
//! bad arguments.

use std::path::Path;
use std::process::ExitCode;

use perfbench::{check_repeat, measure, Config, Size, Workload, DEFAULT_SEED};

/// Spans and the per-seed deterministic counts go here, relative to the
/// repository root.
const OUT_DIR: &str = "perfbench/out";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::PaperSuite,
        size: Size::Full,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad())?;
                if !(cfg.seconds >= 0.0 && cfg.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                cfg.size = match value.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload =
        workload.ok_or("--workload is required (paper_suite | mesh_wide | serve_skew)")?;
    Ok(cfg)
}

/// The source revision: git's, or a digest of the sources outside git.
fn revision() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    let mut files = Vec::new();
    let mut dirs = vec![Path::new("crates").to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    files.sort();
    // FNV-1a over each path and its contents.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("source-digest-{h:016x}")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if !Path::new("crates").is_dir() {
        eprintln!("error: run from the repository root (no crates/ here)");
        return ExitCode::from(2);
    }
    // One worker: `par_map` and `CacheBank::replay_parallel` run serially,
    // so a shared host's second core does not add its noise. Set before
    // any thread exists.
    std::env::set_var("TAMSIM_JOBS", "1");

    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench {} size={} seed={} seconds={} trace={} host_cores={host_cores} rev={}",
        cfg.workload.name(),
        cfg.size.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        revision()
    );
    let mut report = measure(&cfg, &mut |t| cfg.workload.setup(cfg.size, cfg.seed, t));
    let out = Path::new(OUT_DIR);
    check_repeat(out, &cfg, &report.fingerprint, &mut report.checks);
    if let Some(spans) = &report.spans_json {
        let file = out.join(format!(
            "spans-{}-{}-{}.json",
            cfg.workload.name(),
            cfg.size.name(),
            cfg.seed
        ));
        if let Err(e) = std::fs::write(&file, spans) {
            eprintln!("warning: cannot write {}: {e}", file.display());
        }
    }
    for line in &report.text {
        println!("{line}");
    }
    for e in &report.checks.errors {
        eprintln!("FAILED: {e}");
    }
    println!("{}", report.json());
    if report.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
