//! Bad `repro` and `bench` invocations end with a one-line error naming
//! the flag and exit code 2, never a Rust panic or a run that cannot
//! finish.

use std::process::Command;

/// Run `bin` and check it fails with status 2 and a message mentioning
/// `needle`; returns its standard error.
fn assert_exit_2(bin: &str, args: &[&str], needle: &str) -> String {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?} panicked:\n{stderr}"
    );
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}:\n{stderr}");
    assert!(
        stderr.contains(needle),
        "{bin} {args:?}: message does not mention {needle:?}:\n{stderr}"
    );
    stderr.into_owned()
}

#[test]
fn bad_scale_exits_2() {
    for bad in ["0", "-1", "nan", "inf"] {
        for (bin, args) in [
            (env!("CARGO_BIN_EXE_repro"), ["table2", "--scale", bad]),
            (env!("CARGO_BIN_EXE_bench"), ["wallclock", "--scale", bad]),
        ] {
            let stderr = assert_exit_2(bin, &args, "--scale");
            assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}:\n{stderr}");
        }
    }
}

#[test]
fn structs_is_not_a_subcommand() {
    assert_exit_2(env!("CARGO_BIN_EXE_bench"), &["structs"], "usage: bench");
}
