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
        (&["nosuchapp"], "unknown application"),
    ];
    for (args, needle) in cases {
        assert_located_error(args, needle);
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
