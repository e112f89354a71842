//! The `repro` command line rejects what it does not understand instead of
//! guessing: unknown flags and figure names print the usage and exit
//! non-zero before any figure runs, and `--help` prints the usage and
//! exits 0.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Asserts `args` fail with `message` and the usage, having run nothing.
fn rejects(args: &[&str], message: &str) {
    let out = repro(args);
    let err = stderr(&out);
    assert!(!out.status.success(), "{args:?} must fail");
    assert!(
        err.contains(message),
        "{args:?}: expected `{message}` in\n{err}"
    );
    assert!(err.contains("usage: repro"), "{args:?}: no usage in\n{err}");
    assert!(out.stdout.is_empty(), "{args:?} ran something:\n{err}");
}

#[test]
fn help_prints_usage_and_runs_nothing() {
    for flag in ["--help", "-h"] {
        let out = repro(&["fig8", flag]);
        assert!(out.status.success(), "{flag} must exit 0");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.starts_with("usage: repro"), "{flag}: {text}");
        assert!(stderr(&out).is_empty(), "{flag} ran something");
    }
}

#[test]
fn the_removed_shards_flag_is_an_unknown_flag() {
    rejects(&["fig8", "--shards", "2"], "unknown flag `--shards`");
}

#[test]
fn unknown_flags_are_rejected() {
    rejects(&["fig8", "--quik"], "unknown flag `--quik`");
}

#[test]
fn unknown_figures_are_rejected() {
    rejects(&["fig12"], "unknown figure `fig12`");
    rejects(&["fig8", "figure8"], "unknown figure `figure8`");
}

#[test]
fn bad_flag_values_are_rejected() {
    rejects(&["fig8", "--jobs"], "--jobs needs a value");
    rejects(&["fig8", "--jobs", "many"], "--jobs `many`");
    rejects(&["fig8", "--json"], "--json needs a value");
}
