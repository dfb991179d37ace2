//! Metric names and units, medians, and the one-line JSON result.

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("io_ops_per_s", "1/s"),
    ("queries_per_s", "1/s"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 55] = [
    ("simkit.polls", "count"),
    ("simkit.self_s", "s"),
    ("simkit.ns_per_poll", "ns"),
    ("simkit.sync_rounds", "count"),
    ("apps.rank_poll_s.original", "s"),
    ("apps.rank_poll_s.two_phase", "s"),
    ("pfs.ops", "count"),
    ("pfs.read_ops", "count"),
    ("pfs.write_ops", "count"),
    ("pfs.seek_ops", "count"),
    ("pfs.bytes", "bytes"),
    ("pfs.listio_requests", "count"),
    ("pfs.listio_fragments", "count"),
    ("buf.bytes_allocated", "bytes"),
    ("buf.bytes_copied", "bytes"),
    ("buf.buffers_allocated", "count"),
    ("machine.cmdq_bookings", "count"),
    ("machine.cmdq_dispatches", "count"),
    ("machine.cmdq_mean_depth", "commands"),
    ("machine.cmdq_reorders", "count"),
    ("machine.cmdq_seeks_avoided", "count"),
    ("machine.shard_plan_s", "s"),
    ("machine.shards", "count"),
    ("workload.parse_s", "s"),
    ("workload.trace_ops", "count"),
    ("workload.data_ops", "count"),
    ("workload.replay_s", "s"),
    ("workload.replay_threaded_s", "s"),
    ("cache.hits.mono", "count"),
    ("cache.misses.mono", "count"),
    ("cache.evictions.mono", "count"),
    ("cache.flushed.mono", "count"),
    ("cache.readahead_hits.mono", "count"),
    ("cache.writes_absorbed.mono", "count"),
    ("cache.hit_ratio.mono", "ratio"),
    ("cache.hits.sharded", "count"),
    ("cache.misses.sharded", "count"),
    ("cache.evictions.sharded", "count"),
    ("cache.flushed.sharded", "count"),
    ("cache.readahead_hits.sharded", "count"),
    ("cache.writes_absorbed.sharded", "count"),
    ("cache.hit_ratio.sharded", "ratio"),
    ("advisor.queries", "count"),
    ("advisor.unique", "count"),
    ("advisor.deduped", "count"),
    ("advisor.memo_hits", "count"),
    ("advisor.evaluated", "count"),
    ("advisor.memo_evictions", "count"),
    ("advisor.useful_ratio", "ratio"),
    ("advisor.evaluate_s.cold", "s"),
    ("advisor.evaluate_s.warm", "s"),
    ("advisor.s_per_evaluated", "s"),
    ("advisor.save_s", "s"),
    ("advisor.load_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Median of `values` (mean of the middle two for an even count);
/// 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}, …}}`. Values print with
/// Rust's shortest round-trip formatting, so no digit is lost.
pub fn result_json(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True when `name` is a valid metric or workload name: it starts with
    /// a letter or digit and has at most 64 letters, digits, `_`, `.`, `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// True when `unit` is a valid unit: at most 16 letters, digits, `_`,
    /// `/`, `%`, `.`, `-`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    /// Every `"name": "…"` value in `BENCHMARK.json`, in order.
    fn declared_names() -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        text.split("\"name\"")
            .skip(1)
            .map(|rest| {
                let start = rest.find('"').expect("name value") + 1;
                let len = rest[start..].find('"').expect("closing quote");
                rest[start..start + len].to_string()
            })
            .collect()
    }

    #[test]
    fn metric_names_and_units_use_the_allowed_charset() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
        }
        for name in crate::workloads::NAMES {
            assert!(valid_name(name), "bad workload name {name:?}");
        }
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_unit("per second"));
    }

    #[test]
    fn names_are_unique_and_match_benchmark_json() {
        let ours: Vec<String> = crate::workloads::NAMES
            .iter()
            .chain(END_TO_END.iter().map(|(n, _)| n))
            .chain(PER_LAYER.iter().map(|(n, _)| n))
            .map(|n| n.to_string())
            .collect();
        let mut sorted = ours.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), ours.len(), "duplicate names");
        assert_eq!(declared_names(), ours);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(3, 0, &[("wall_s", "s", 1.25), ("x", "count", f64::NAN)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
