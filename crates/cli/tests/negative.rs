//! CLI negative table: flags a user can get wrong must exit 2 with a
//! named error on stderr, never panic (exit 101).

use std::process::Command;

/// Run `tamsim` with `args`; return (exit code, stderr).
fn tamsim(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tamsim"))
        .args(args)
        .output()
        .expect("spawn tamsim");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_flags_exit_2_with_a_named_error() {
    let table: &[(&[&str], &str)] = &[
        (
            &["mesh", "fib", "--nodes", "0"],
            "error: flag '--nodes' needs a node count in 1..=256, got 0",
        ),
        (
            &["mesh", "fib", "--nodes", "1000"],
            "error: flag '--nodes' needs a node count in 1..=256, got 1000",
        ),
        // Would wrap to 1 through a plain `as u32`.
        (
            &["serve", "--nodes", "4294967297"],
            "error: flag '--nodes' needs a node count in 1..=256, got 4294967297",
        ),
        (
            &["mesh", "fib", "--nodes", "four"],
            "error: flag '--nodes' needs a number, got 'four'",
        ),
        // A flag the CLI no longer has.
        (
            &["mesh", "fib", "--threads", "2"],
            "error: unknown flag '--threads'",
        ),
    ];
    for (args, expect) in table {
        let (code, stderr) = tamsim(args);
        assert_eq!(
            code,
            Some(2),
            "tamsim {args:?}: exit {code:?}, stderr:\n{stderr}"
        );
        assert!(
            stderr.contains(expect),
            "tamsim {args:?}: stderr lacks {expect:?}:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "tamsim {args:?} panicked:\n{stderr}"
        );
    }
}
