//! Seeded mutation fuzzing of the loaders that read untrusted files: the
//! trace parsers behind `iosim replay` (all three formats, through
//! [`parse_any`]) and the advisor memo snapshot behind
//! `iosim sweep --memo-file` ([`BatchAdvisor::load`]).
//!
//! Each seed mutates the committed samples (and a freshly saved memo)
//! with byte flips, truncations, and duplicated or deleted lines. The
//! contract: every mutant parses or is rejected, never panics, and every
//! trace parse error names a line that exists in the mutated text.

use std::path::PathBuf;

use iosim::bench::advisor::{render_batch, BatchAdvisor, Query};
use iosim::optim::Hints;
use iosim::simkit::rng::SimRng;
use iosim::workload::parse_any;

const SEEDS: u64 = 12;
/// Mutants per input per seed.
const MUTANTS: u64 = 16;

/// Apply 1–3 random mutations to `bytes`. `lines` splits the input into
/// the units that get duplicated or deleted.
fn mutate(rng: &mut SimRng, bytes: &[u8], lines: fn(&[u8]) -> Vec<(usize, usize)>) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..rng.range(1, 4) {
        if out.is_empty() {
            break;
        }
        match rng.range(0, 4) {
            0 => {
                let at = rng.range(0, out.len() as u64) as usize;
                out[at] ^= rng.range(1, 256) as u8;
            }
            1 => out.truncate(rng.range(0, out.len() as u64) as usize),
            op => {
                let spans = lines(&out);
                if spans.is_empty() {
                    continue;
                }
                let (s, e) = spans[rng.range(0, spans.len() as u64) as usize];
                if op == 2 {
                    let copy = out[s..e].to_vec();
                    out.splice(e..e, copy);
                } else {
                    out.drain(s..e);
                }
            }
        }
    }
    out
}

/// Text lines, each span including its newline.
fn text_lines(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            spans.push((start, i + 1));
            start = i + 1;
        }
    }
    if start < bytes.len() {
        spans.push((start, bytes.len()));
    }
    spans
}

#[test]
fn mutated_traces_parse_or_fail_with_a_line_number() {
    let dir = format!("{}/tests/data", env!("CARGO_MANIFEST_DIR"));
    for name in [
        "sample_legacy.trace",
        "sample_opstream.trace",
        "sample_darshan.txt",
    ] {
        let original = std::fs::read(format!("{dir}/{name}")).expect("read sample");
        let (mut parsed, mut rejected) = (0, 0);
        for seed in 0..SEEDS {
            let mut rng = SimRng::seed_from(0xf022_0000 + seed);
            for m in 0..MUTANTS {
                let bytes = mutate(&mut rng, &original, text_lines);
                let text = String::from_utf8_lossy(&bytes);
                let case = format!("{name} seed {seed} mutant {m}");
                let result = std::panic::catch_unwind(|| parse_any(&text, seed));
                match result {
                    Err(_) => panic!("{case}: parser panicked on:\n{text}"),
                    Ok(Ok(_)) => parsed += 1,
                    Ok(Err(e)) => {
                        rejected += 1;
                        let lines = text.lines().count();
                        assert!(
                            (1..=lines).contains(&e.line),
                            "{case}: error line {} outside 1..={lines}: {e}",
                            e.line
                        );
                        assert!(
                            e.to_string()
                                .starts_with(&format!("trace line {}:", e.line)),
                            "{case}: message does not lead with its line: {e}"
                        );
                    }
                }
            }
        }
        // Both outcomes occur, or the mutations are not biting.
        assert!(
            parsed > 0 && rejected > 0,
            "{name}: {parsed} parsed, {rejected} rejected"
        );
    }
}

/// Memo file under the system temp dir, removed on drop.
struct TempPath(PathBuf);

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The 9-byte header (version, count) and then one span per record.
fn memo_records(bytes: &[u8]) -> Vec<(usize, usize)> {
    const HEADER: usize = 9;
    const RECORD: usize = 64;
    (HEADER..bytes.len())
        .step_by(RECORD)
        .map(|s| (s, (s + RECORD).min(bytes.len())))
        .collect()
}

#[test]
fn mutated_memo_snapshots_load_or_start_cold() {
    let tmp =
        TempPath(std::env::temp_dir().join(format!("iosim-memo-fuzz-{}.bin", std::process::id())));
    let queries: Vec<Query> = [0, 2]
        .into_iter()
        .flat_map(|cache_mb| {
            [1, 8].map(|io_queue_depth| {
                let hints = Hints {
                    cache_mb,
                    io_queue_depth,
                    ..Hints::default()
                };
                Query::new("synth", hints).expect("synth is advisable")
            })
        })
        .collect();
    const SCALE: f64 = 0.25;
    const MEMO_CAP: usize = 64;
    let mut warm = BatchAdvisor::new(MEMO_CAP, 1);
    warm.evaluate(&queries, SCALE).expect("valid hints");
    warm.save(&tmp.0).expect("save memo");
    let original = std::fs::read(&tmp.0).expect("read memo");
    let (mut restored, mut cold) = (0, 0);
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from(0x3e30_0000 + seed);
        for m in 0..MUTANTS {
            let bytes = mutate(&mut rng, &original, memo_records);
            std::fs::write(&tmp.0, &bytes).expect("write mutant");
            let case = format!("memo seed {seed} mutant {m}");
            // Loading, and then serving a batch from whatever loaded
            // (corrupt summaries included), must not panic.
            let outcome = std::panic::catch_unwind(|| {
                let mut adv = BatchAdvisor::new(MEMO_CAP, 1);
                let n = adv.load(&tmp.0);
                if n > 0 {
                    let report = adv.evaluate(&queries, SCALE).expect("valid hints");
                    render_batch(&report);
                }
                n
            });
            let Ok(n) = outcome else {
                panic!("{case}: load or evaluate panicked");
            };
            assert!(n <= MEMO_CAP, "{case}: restored {n} entries");
            if n > 0 {
                restored += 1;
            } else {
                cold += 1;
            }
        }
    }
    assert!(
        restored > 0 && cold > 0,
        "memo: {restored} restored, {cold} cold"
    );
}
