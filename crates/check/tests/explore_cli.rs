//! `explore` has no `--shards` flag any more: asking for one is an unknown
//! flag, reported with the usage and a non-zero exit before anything runs.

use std::process::Command;

#[test]
fn the_removed_shards_flag_is_an_unknown_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_explore"))
        .args(["--scenario", "failover", "--seeds", "1", "--shards", "2"])
        .output()
        .expect("explore runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "--shards must fail");
    assert!(err.contains("unknown flag `--shards`"), "{err}");
    assert!(err.contains("usage: explore"), "{err}");
    assert!(out.stdout.is_empty(), "explore ran something:\n{err}");
}
