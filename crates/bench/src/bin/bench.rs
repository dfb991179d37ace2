//! `bench` — host wall-clock benchmark driver.
//!
//! ```text
//! bench wallclock [--smoke] [--scale F] [--out PATH]
//! bench check PATH
//! ```
//!
//! `wallclock` times the scheduler microbenchmarks on the `simkit`
//! executor, the flat core structures, the five applications and the
//! full repro suite, prints a summary, and writes the report as JSON
//! (default `BENCH_wallclock.json`; `--smoke` defaults to
//! `target/BENCH_wallclock.smoke.json` so a CI smoke run never clobbers
//! the committed trajectory file).
//!
//! `check` parses an existing report and validates its layout (schema
//! marker, all storms, the struct_ops section, all apps, every repro
//! id). It never judges the timings themselves — wall-clock numbers are
//! machine-dependent and the CI gate is "runs without panicking and
//! emits a well-formed document".

use std::process::ExitCode;

use iosim_bench::wallclock;

fn usage() -> ExitCode {
    eprintln!("usage: bench wallclock [--smoke] [--scale F] [--out PATH]");
    eprintln!("       bench check PATH");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("wallclock") => {
            let mut smoke = false;
            let mut scale: Option<f64> = None;
            let mut out: Option<String> = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--smoke" => smoke = true,
                    "--scale" => match it.next().map(|v| iosim_bench::parse_scale(v)) {
                        Some(Ok(v)) => scale = Some(v),
                        Some(Err(e)) => {
                            eprintln!("bench: {e}");
                            return ExitCode::from(2);
                        }
                        None => return usage(),
                    },
                    "--out" => match it.next() {
                        Some(v) => out = Some(v.clone()),
                        None => return usage(),
                    },
                    _ => return usage(),
                }
            }
            let scale = scale.unwrap_or(if smoke { 0.02 } else { 0.1 });
            let out = out.unwrap_or_else(|| {
                if smoke {
                    "target/BENCH_wallclock.smoke.json".into()
                } else {
                    "BENCH_wallclock.json".into()
                }
            });
            let report = wallclock::run_suite(smoke, scale);
            print!("{}", wallclock::render_summary(&report));
            let doc = wallclock::emit_json(&report);
            if let Err(e) = wallclock::validate(&doc) {
                eprintln!("bench: emitted document failed validation: {e}");
                return ExitCode::FAILURE;
            }
            if let Some(dir) = std::path::Path::new(&out).parent() {
                if !dir.as_os_str().is_empty() {
                    let _ = std::fs::create_dir_all(dir);
                }
            }
            if let Err(e) = std::fs::write(&out, doc) {
                eprintln!("bench: cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {out}");
            ExitCode::SUCCESS
        }
        Some("check") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let doc = match std::fs::read_to_string(path) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("bench: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match wallclock::validate(&doc) {
                Ok(()) => {
                    println!("{path}: well-formed wall-clock report");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{path}: invalid: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
