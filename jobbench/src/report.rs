//! The metrics the benchmark reports and the document it prints.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`
//! with the end-to-end metrics of an untraced run or the per-layer
//! metrics of a traced one. The lists below are the ones `BENCHMARK.json`
//! declares; a test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("jobs_per_s", "1/s"),
    ("sim_cycles", "cycles"),
    ("code_insts", "insts"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs): name and unit. "Per job" values are
/// means over the traced jobs of the run.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("frontend.ms", "ms"),
    ("frontend.tokens_per_ms", "1/ms"),
    ("frontend.ir_insts", "insts"),
    ("opt.generic_ms", "ms"),
    ("opt.generic_rounds", "count"),
    ("opt.recurrence_loads_eliminated", "count"),
    ("opt.partition_ms", "ms"),
    ("opt.partition_applied", "ratio"),
    ("target.expand_ms", "ms"),
    ("opt.wm_ms", "ms"),
    ("opt.streams", "count"),
    ("opt.streams_degraded", "count"),
    ("opt.modulo_ms", "ms"),
    ("opt.modulo_loops_pipelined", "count"),
    ("opt.modulo_ii_over_mii", "ratio"),
    ("target.regalloc_ms", "ms"),
    ("target.insts_out", "insts"),
    ("sim.build_ms", "ms"),
    ("sim.decoded_insts", "insts"),
    ("sim.run_ms", "ms"),
    ("sim.mcycles_per_s", "Mcycles/s"),
    ("sim.instructions", "insts"),
    ("sim.stall_frac", "ratio"),
    ("mem.l1_hit_ratio", "ratio"),
    ("mem.sb_hit_ratio", "ratio"),
    ("mem.row_hit_ratio", "ratio"),
    ("mem.bank_conflicts", "count"),
    ("tiled.run_ms", "ms"),
    ("tiled.imbalance", "ratio"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.worker_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.retries", "count"),
    ("serve.degraded", "count"),
    ("serve.shed", "count"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.jobs", "count"),
];

/// Render the result document for the metrics named in `list`.
///
/// # Errors
///
/// Names a listed metric that is missing or not a finite number.
pub fn document(
    correct: bool,
    attempted: usize,
    failed: usize,
    list: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> Result<String, String> {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in list.iter().enumerate() {
        let v = values
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is {v}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    Ok(s)
}

/// The same metrics as an aligned table for people.
pub fn table(list: &[(&str, &str)], values: &BTreeMap<&str, f64>) -> String {
    let mut s = String::new();
    for (name, unit) in list {
        if let Some(v) = values.get(name) {
            let _ = writeln!(s, "  {name:<34} {v:>16.4} {unit}");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_stream::json::{self, Value};

    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn ours(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn the_lists_are_the_declared_ones() {
        assert_eq!(ours(&END_TO_END), declared("end_to_end"));
        assert_eq!(ours(&PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn the_document_parses_and_names_every_declared_metric() {
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let values: BTreeMap<&str, f64> = list
                .iter()
                .enumerate()
                .map(|(i, (n, _))| (*n, 0.25 + i as f64))
                .collect();
            let doc = json::parse(&document(true, 120, 0, list, &values).unwrap()).unwrap();
            assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(120));
            assert_eq!(doc.get("failed").and_then(Value::as_u64), Some(0));
            let metrics = doc.get("metrics").unwrap();
            for (name, unit) in declared(key) {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                assert!(m.get("value").and_then(Value::as_f64).is_some());
            }
        }
    }

    #[test]
    fn missing_or_non_finite_values_are_refused() {
        let list = [("a", "ms"), ("b", "ms")];
        let mut values = BTreeMap::from([("a", 1.0)]);
        assert!(document(true, 1, 0, &list, &values)
            .unwrap_err()
            .contains('b'));
        values.insert("b", f64::NAN);
        assert!(document(true, 1, 0, &list, &values).is_err());
    }
}
