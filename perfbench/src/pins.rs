//! The pin table: virtual times, schedule fingerprints and digests the
//! simulator produced for each workload and seed (`pins.tsv`). A
//! performance change must leave every one of them unchanged.
//!
//! Lines are `workload seed key value`, whitespace-separated; a seed of
//! `*` pins a workload whose inputs do not depend on the seed. Print the
//! lines for a seed with `perfbench --workload W --seed S --print-pins`,
//! and change the table only with a change that means to alter the
//! simulated model.

use std::collections::BTreeMap;

const TABLE: &str = include_str!("../pins.tsv");

/// Pinned values of `workload` at `seed`, or `None` if the table holds
/// none (then the run pins its own first repetition).
pub fn lookup(workload: &str, seed: u64) -> Option<BTreeMap<String, u64>> {
    let seed = seed.to_string();
    let mut out = BTreeMap::new();
    for line in TABLE.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let [w, s, key, value] = f[..] else {
            panic!("pins.tsv: malformed line {line:?}");
        };
        if w == workload && (s == "*" || s == seed) {
            let value = value
                .parse()
                .unwrap_or_else(|_| panic!("pins.tsv: bad value in {line:?}"));
            out.insert(key.to_string(), value);
        }
    }
    (!out.is_empty()).then_some(out)
}

/// Table lines pinning `pins` for `workload` at `seed`.
pub fn render(workload: &str, seed: &str, pins: &[(String, u64)]) -> String {
    pins.iter()
        .map(|(k, v)| format!("{workload}\t{seed}\t{k}\t{v}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_parses_and_pins_every_workload() {
        for w in crate::workloads::NAMES {
            let pinned = lookup(w, 1).unwrap_or_else(|| panic!("{w} has no pins for seed 1"));
            assert!(pinned.values().all(|&v| v != 0), "{w}: zero pin");
        }
        assert!(lookup("no_such_workload", 1).is_none());
    }
}
