//! The metric catalogue and the one-line JSON result.
//!
//! The catalogue below is the benchmark's contract with `BENCHMARK.json`:
//! a run with `--trace 0` reports exactly [`END_TO_END`], a run with
//! `--trace 1` exactly [`PER_LAYER`]. A test keeps the two in step.

use std::collections::BTreeMap;

/// Most end-to-end metrics the catalogue may hold.
pub const MAX_END_TO_END: usize = 16;
/// Most per-layer metrics the catalogue may hold.
pub const MAX_PER_LAYER: usize = 128;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, error rates).
    Lower,
    /// Larger is better (rates, speed-ups, success shares).
    Higher,
}

/// One named metric and its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`, starting with a letter or digit.
    pub name: &'static str,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees, measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    m("throughput_img_s", "img/s", Higher),
    m("latency_p50_ms", "ms", Lower),
    m("latency_p90_ms", "ms", Lower),
    m("misclass_pct", "%", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("ok_ratio", "ratio", Higher),
    m("setup_s", "s", Lower),
];

/// Metrics of single layers, from the traced run.
pub const PER_LAYER: &[Metric] = &[
    m("data.generate_s", "s", Lower),
    m("retrain.train_base_s", "s", Lower),
    m("scenario.compile_ms", "ms", Lower),
    m("stochastic.forward_us_p50", "us", Lower),
    m("stochastic.forward_us_p90", "us", Lower),
    m("stochastic.busy_s", "s", Lower),
    m("stochastic.images", "count", Higher),
    m("stochastic.lut_share", "ratio", Higher),
    m("faults.overhead_x", "x", Lower),
    m("faults.injected", "count", Higher),
    m("baseline.forward_us_p50", "us", Lower),
    m("baseline.busy_s", "s", Lower),
    m("hybrid.feature_batch_ms_p50", "ms", Lower),
    m("network.forward_us_p50", "us", Lower),
    m("network.L0_conv2d.fwd_us", "us", Lower),
    m("network.L0_conv2d.bwd_us", "us", Lower),
    m("network.L1_relu.fwd_us", "us", Lower),
    m("network.L1_relu.bwd_us", "us", Lower),
    m("network.L2_maxpool2.fwd_us", "us", Lower),
    m("network.L2_maxpool2.bwd_us", "us", Lower),
    m("network.L3_flatten.fwd_us", "us", Lower),
    m("network.L3_flatten.bwd_us", "us", Lower),
    m("network.L4_dense.fwd_us", "us", Lower),
    m("network.L4_dense.bwd_us", "us", Lower),
    m("network.L5_relu.fwd_us", "us", Lower),
    m("network.L5_relu.bwd_us", "us", Lower),
    m("network.L6_dropout.fwd_us", "us", Lower),
    m("network.L6_dropout.bwd_us", "us", Lower),
    m("network.L7_dense.fwd_us", "us", Lower),
    m("network.L7_dense.bwd_us", "us", Lower),
    m("optim.step_us", "us", Lower),
    m("data.gather_us", "us", Lower),
    m("network.train_epoch_s", "s", Lower),
    m("parallel.extract_speedup_x", "x", Higher),
    m("parallel.train_speedup_x", "x", Higher),
    m("conv.images", "count", Lower),
    m("nn.batches_trained", "count", Lower),
    m("nn.images_evaluated", "count", Lower),
    m("scratch_pool.allocs_per_checkout", "ratio", Lower),
    m("input.zero_window_frac", "ratio", Higher),
    m("obs.trace_overhead_x", "x", Lower),
];

/// Whether `name` is a legal metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, the first a letter or digit.
pub fn is_valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a legal unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn is_valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok_char)
}

/// Checks a catalogue: at most `max` metrics, each with a legal name and
/// unit, no name twice.
pub fn validate(catalogue: &[Metric], max: usize) -> Result<(), String> {
    if catalogue.is_empty() || catalogue.len() > max {
        return Err(format!("{} metrics, expected 1 to {max}", catalogue.len()));
    }
    let mut seen = std::collections::BTreeSet::new();
    for metric in catalogue {
        if !is_valid_name(metric.name) {
            return Err(format!("illegal metric name {:?}", metric.name));
        }
        if !is_valid_unit(metric.unit) {
            return Err(format!("illegal unit {:?} of {}", metric.unit, metric.name));
        }
        if !seen.insert(metric.name) {
            return Err(format!("metric {} listed twice", metric.name));
        }
    }
    Ok(())
}

/// Operation tallies of one run: every operation attempted, and those that
/// failed (a library error or a failed output check).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Records `n` operations with outcome `ok`; a failure is explained on
    /// stderr by `what`.
    pub fn record(&mut self, n: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += n;
        if !ok {
            self.failed += n;
            eprintln!("perfbench: FAILED {}", what());
        }
    }

    /// Share of operations that succeeded.
    pub fn ok_ratio(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// Renders the result line. `values` must hold exactly the metrics of
/// `catalogue`, each finite; anything else is a bug in the benchmark and is
/// returned as an error instead of a result.
pub fn render(
    catalogue: &[Metric],
    values: &BTreeMap<&'static str, f64>,
    tally: &Tally,
) -> Result<String, String> {
    for name in values.keys() {
        if !catalogue.iter().any(|m| m.name == *name) {
            return Err(format!("metric {name} is not in the catalogue"));
        }
    }
    let mut fields = Vec::with_capacity(catalogue.len());
    for metric in catalogue {
        let value = *values.get(metric.name).ok_or(format!("metric {} missing", metric.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", metric.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_rule() {
        for ok in ["setup_s", "network.L0_conv2d.fwd_us", "infer-tff", "0x", "a"] {
            assert!(is_valid_name(ok), "{ok}");
        }
        for bad in ["", "_lead", ".lead", "-lead", "has space", "slash/no", "ü", "x\"y"] {
            assert!(!is_valid_name(bad), "{bad}");
        }
        assert!(is_valid_name(&"a".repeat(64)));
        assert!(!is_valid_name(&"a".repeat(65)));
    }

    #[test]
    fn unit_rule() {
        for ok in ["ms", "s", "1/s", "count", "%", "img/s", "x"] {
            assert!(is_valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a b", &"u".repeat(17)] {
            assert!(!is_valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn catalogues_are_valid_and_within_limits() {
        validate(END_TO_END, MAX_END_TO_END).unwrap();
        validate(PER_LAYER, MAX_PER_LAYER).unwrap();
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn validate_rejects_bad_catalogues() {
        let one = m("a", "s", Lower);
        assert!(validate(&[], 4).is_err());
        assert!(validate(&[one, one], 4).is_err());
        assert!(validate(&[one, m("b", "s", Lower), m("c", "s", Lower)], 2).is_err());
        assert!(validate(&[m("bad name", "s", Lower)], 4).is_err());
        assert!(validate(&[m("a", "", Lower)], 4).is_err());
        let too_many: Vec<Metric> = (0..=MAX_END_TO_END)
            .map(|i| m(Box::leak(format!("m{i}").into_boxed_str()), "s", Lower))
            .collect();
        assert!(validate(&too_many, MAX_END_TO_END).is_err());
        assert!(validate(&too_many[..MAX_END_TO_END], MAX_END_TO_END).is_ok());
    }

    #[test]
    fn render_requires_exactly_the_catalogue() {
        let cat = [m("a_ms", "ms", Lower), m("b", "count", Higher)];
        let tally = Tally { attempted: 3, failed: 0 };
        let mut values = BTreeMap::from([("a_ms", 1.25), ("b", 3.0)]);
        let line = render(&cat, &values, &tally).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        values.insert("extra", 1.0);
        assert!(render(&cat, &values, &tally).is_err());
        values.remove("extra");
        values.remove("b");
        assert!(render(&cat, &values, &tally).is_err());
        values.insert("b", f64::NAN);
        assert!(render(&cat, &values, &tally).is_err());
    }

    #[test]
    fn failures_make_the_result_incorrect() {
        let mut tally = Tally::default();
        tally.record(4, true, || "fine".into());
        tally.record(1, false, || "broken".into());
        assert_eq!(tally, Tally { attempted: 5, failed: 1 });
        assert!((tally.ok_ratio() - 0.8).abs() < 1e-12);
        let cat = [m("a", "s", Lower)];
        let line = render(&cat, &BTreeMap::from([("a", 1.0)]), &tally).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 5, \"failed\": 1"));
    }

    /// `BENCHMARK.json` at the repository root declares the same metrics,
    /// units and directions as the catalogue, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.lines().filter(|l| l.contains("\"name\"")).map(|l| l.trim().to_owned()).collect()
        };
        let expect = |cat: &[Metric], bound: bool| -> Vec<String> {
            cat.iter()
                .map(|m| {
                    let head = format!(
                        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                        m.name,
                        m.unit,
                        format!("{:?}", m.better).to_lowercase()
                    );
                    if bound {
                        head
                    } else {
                        format!("{head}}}")
                    }
                })
                .collect()
        };
        let e2e = section("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (line, head) in e2e.iter().zip(expect(END_TO_END, true)) {
            assert!(line.starts_with(&format!("{head}, \"bound\": ")), "{line} vs {head}");
        }
        let per_layer: Vec<String> =
            section("per_layer").iter().map(|l| l.trim_end_matches(',').to_owned()).collect();
        assert_eq!(per_layer, expect(PER_LAYER, false));
        let workloads = section("workloads");
        let names: Vec<&str> = crate::workload::NAMES.to_vec();
        assert_eq!(workloads.len(), names.len());
        for (line, name) in workloads.iter().zip(names) {
            assert!(line.starts_with(&format!("{{\"name\": \"{name}\", \"why\": ")), "{line}");
        }
    }
}
