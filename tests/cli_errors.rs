//! Bad `iosim` invocations end with a located one-line error and exit
//! code 2, never a Rust panic (exit 101). Each row names the flag (or the
//! machine property) the message must mention.

use std::path::PathBuf;
use std::process::Command;

/// A trace file under the system temp dir, removed on drop.
struct TempTrace(PathBuf);

impl TempTrace {
    fn new(name: &str, text: &str) -> TempTrace {
        let path = std::env::temp_dir().join(format!("iosim-cli-{}-{name}", std::process::id()));
        std::fs::write(&path, text).expect("write temp trace");
        TempTrace(path)
    }
}

impl Drop for TempTrace {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn assert_located_error(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_iosim"))
        .args(args)
        .output()
        .expect("spawn iosim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "iosim {args:?} panicked:\n{stderr}"
    );
    assert_eq!(out.status.code(), Some(2), "iosim {args:?}:\n{stderr}");
    assert!(
        stderr.contains(needle),
        "iosim {args:?}: message does not mention {needle:?}:\n{stderr}"
    );
}

#[test]
fn bad_application_flags_exit_2() {
    let cases: &[(&[&str], &str)] = &[
        (&["scf11", "--io-nodes", "0"], "--io-nodes"),
        (&["scf11", "--procs", "100000"], "mesh"),
        (&["ast", "--io-nodes", "0"], "--io-nodes"),
        (&["ast", "--procs", "3"], "--procs"),
        (&["btio", "--procs", "0"], "--procs"),
        (&["btio", "--procs", "10"], "--procs"),
        (&["btio", "--procs", "100"], "mesh"),
        (&["fft", "--procs", "0"], "--procs"),
        (&["fft", "--n", "100"], "--n"),
        (&["scf30", "--procs", "0"], "--procs"),
        (&["scf30", "--cached", "101"], "--cached"),
        (&["synth", "--clients", "0"], "--clients"),
        (&["synth", "--read-frac", "2"], "--read-frac"),
        (&["scf11", "--threads", "2"], "--threads"),
        (&["scf30", "--threads", "2"], "--threads"),
        (&["fft", "--threads", "2"], "--threads"),
        (&["btio", "--threads", "2"], "--threads"),
        (&["ast", "--threads", "2"], "--threads"),
        (&["nosuchapp"], "unknown application"),
    ];
    for (args, needle) in cases {
        assert_located_error(args, needle);
    }
}

#[test]
fn bad_scale_exits_2() {
    // `inf` would never finish; zero, negative and NaN would run a
    // meaningless problem and exit 0.
    for app in ["scf11", "scf30", "sweep"] {
        for bad in ["0", "-1", "nan", "inf"] {
            assert_located_error(&[app, "--scale", bad], "--scale");
        }
    }
    // The advisor's scale is a fidelity: a fraction of the full run.
    assert_located_error(&["sweep", "--scale", "2"], "--scale");
}

#[test]
fn bad_arrival_flags_exit_2() {
    // `--rate inf` would never finish; NaN and non-positive rates, means
    // or durations would panic or run an empty window and exit 0.
    for bad in ["0", "-5", "nan", "inf"] {
        assert_located_error(&["synth", "--rate", bad], "--rate");
        assert_located_error(&["synth", "--duration", bad], "--duration");
        assert_located_error(&["synth", "--bursty", "--mean-on", bad], "--mean-on");
    }
    for bad in ["-1", "nan", "inf"] {
        assert_located_error(&["synth", "--bursty", "--mean-off", bad], "--mean-off");
    }
}

#[test]
fn memo_save_failure_exits_2() {
    let path = std::env::temp_dir()
        .join(format!("iosim-cli-{}-no-such-dir", std::process::id()))
        .join("memo");
    let path = path.to_str().unwrap();
    for cmd in ["sweep", "advise"] {
        assert_located_error(&[cmd, "--memo-file", path], path);
    }
}

#[test]
fn bad_replay_inputs_exit_2() {
    // One write per rank: more ranks than any preset mesh holds.
    let wide: String = (0..10_000)
        .map(|r| format!("{r} w {} 512\n", r * 512))
        .collect();
    let wide = TempTrace::new("wide.trace", &wide);
    let bad_line = TempTrace::new("bad.trace", "0 w 0 512\n0 x 0 512\n");
    let sample = format!(
        "{}/tests/data/sample_opstream.trace",
        env!("CARGO_MANIFEST_DIR")
    );
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["replay", "--trace", wide.0.to_str().unwrap()], "mesh"),
        (
            vec!["replay", "--trace", bad_line.0.to_str().unwrap()],
            "trace line 2",
        ),
        (vec!["replay"], "--trace"),
        (
            vec![
                "replay", "--trace", &sample, "--mode", "list", "--batch", "0",
            ],
            "--batch",
        ),
    ];
    for (args, needle) in &cases {
        assert_located_error(args, needle);
    }
}
