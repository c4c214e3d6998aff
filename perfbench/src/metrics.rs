//! Metric names and units, correctness bookkeeping, the recorded accuracy
//! ledger, and the result line.

use crate::loadgen::PhaseReport;
use crate::stats;
use crate::workload::{self, WORKLOADS};
use std::collections::BTreeMap;
use std::sync::Arc;
use tsg_serve::{BatchConfig, ModelRegistry, ServerMetrics, TrainingSource};

/// End-to-end metrics: every untraced run prints each of them.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("predict_series_per_s", "series/s"),
    ("accuracy", "share"),
    ("light_p50_ms", "ms"),
    ("heavy_p50_ms", "ms"),
    ("slo_met_share", "share"),
    ("capacity_rps", "req/s"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: every traced run prints each of them.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("datasets.generate_ms", "ms"),
    ("extract.scale_us", "us"),
    ("extract.graph_build_us", "us"),
    ("extract.motif_count_us", "us"),
    ("extract.statistical_us", "us"),
    ("extract.total_us", "us"),
    ("extract.unattributed_us", "us"),
    ("extract.layout_us", "us"),
    ("graph.stats_us", "us"),
    ("graph.edges_per_series", "count"),
    ("core.features_per_series", "count"),
    ("core.extract_dataset_s", "s"),
    ("parallel.extract_efficiency", "ratio"),
    ("ml.fit_self_s", "s"),
    ("ml.scaler_transform_us_per_row", "us"),
    ("ml.predict_us_per_row", "us"),
    ("serve.http_parse_us", "us"),
    ("serve.json_parse_us", "us"),
    ("serve.json_write_us", "us"),
    ("serve.batcher_classify_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.stage.queue_wait_ms", "ms"),
    ("serve.stage.batch_coalesce_ms", "ms"),
    ("serve.stage.write_out_ms", "ms"),
    ("serve.server_total_p50_ms", "ms"),
    ("serve.client_gap_ms", "ms"),
    ("serve.wire_fit_s", "s"),
    ("client.late_p99_ms", "ms"),
    ("client.light.sent", "count"),
    ("client.light.ok", "count"),
    ("client.light.rejected_429", "count"),
    ("client.light.failed", "count"),
    ("client.heavy.sent", "count"),
    ("client.heavy.ok", "count"),
    ("client.heavy.rejected_429", "count"),
    ("client.heavy.failed", "count"),
    ("client.closed.sent", "count"),
    ("client.closed.ok", "count"),
    ("client.closed.rejected_429", "count"),
    ("client.closed.failed", "count"),
    ("trace.overhead_share", "share"),
];

/// Test accuracy recorded per workload and seed, as `correct/total`.
const RECORDED_ACCURACY: &str = include_str!("../expected_accuracy.txt");

/// The recorded `(correct, total)` of a workload at a seed, if any.
pub fn recorded_accuracy(workload: &str, seed: u64) -> Option<(usize, usize)> {
    RECORDED_ACCURACY.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        if parts.next()? != workload || parts.next()?.parse::<u64>().ok()? != seed {
            return None;
        }
        let (correct, total) = parts.next()?.split_once('/')?;
        Some((correct.parse().ok()?, total.parse().ok()?))
    })
}

/// The metrics and correctness state of one run.
pub struct Metrics {
    workload: &'static str,
    seed: u64,
    values: BTreeMap<String, f64>,
    tails: BTreeMap<String, stats::Tail>,
    /// False once any check failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed.
    pub failed: usize,
    problems: Vec<String>,
}

impl Metrics {
    /// An empty record for `workload` at `seed`.
    pub fn new(workload: &'static str, seed: u64) -> Metrics {
        Metrics {
            workload,
            seed,
            values: BTreeMap::new(),
            tails: BTreeMap::new(),
            correct: true,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Sets a tail percentile; an unsupported one is a failed check.
    pub fn set_tail(&mut self, name: &str, values: &[f64], q: f64) {
        match stats::tail(values, q) {
            Some(t) => {
                self.set(name, t.value);
                self.tails.insert(name.to_string(), t);
            }
            None => self.check(
                false,
                &format!(
                    "{name}: fewer than {} of {} samples beyond it",
                    stats::MIN_SAMPLES_BEYOND,
                    values.len()
                ),
            ),
        }
    }

    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.correct = false;
            self.problems.push(what.to_string());
        }
    }

    /// Checks the accuracy against the ledger for this seed, when recorded.
    pub fn check_accuracy(&mut self, correct: usize, total: usize) {
        match recorded_accuracy(self.workload, self.seed) {
            Some(recorded) => self.check(
                recorded == (correct, total),
                &format!(
                    "accuracy {correct}/{total} differs from the recorded {}/{}",
                    recorded.0, recorded.1
                ),
            ),
            None => eprintln!(
                "perfbench: no recorded accuracy for {} seed {}; checked repeatability only",
                self.workload, self.seed
            ),
        }
    }

    /// Counts a phase's requests. A 429 is backpressure and only lowers
    /// `ok_share`; a request without a reply, with an unexpected status or
    /// with a wrong answer fails the run.
    pub fn count_requests(&mut self, phase: &str, report: &PhaseReport) {
        self.attempted += report.sent();
        self.failed += report.rejected() + report.failed();
        self.check(
            report.mismatched() == 0,
            &format!(
                "{phase}: {} predictions differ from in-process predict",
                report.mismatched()
            ),
        );
        let unanswered = report.failed() - report.mismatched();
        self.check(
            unanswered == 0,
            &format!(
                "{phase}: {unanswered} of {} requests got no reply or an unexpected status",
                report.sent()
            ),
        );
    }

    /// Counts non-request operations (fits, predict passes); a failed or
    /// disagreeing one fails the run.
    pub fn count_ops(&mut self, attempted: usize, failed: usize, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        self.check(
            failed == 0,
            &format!("{failed} of {attempted} {what} failed or disagreed"),
        );
    }

    /// Prints one line per metric, then returns the result line. Every name
    /// of the mode's list must be present.
    pub fn report(&mut self, trace: bool) -> String {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for problem in &self.problems {
            println!("FAIL {problem}");
        }
        let missing: Vec<&str> = list
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.values.contains_key(*n))
            .collect();
        if !missing.is_empty() {
            println!("FAIL metrics not measured: {}", missing.join(", "));
            self.correct = false;
        }
        let mut members = Vec::new();
        for (name, unit) in list {
            let Some(&value) = self.values.get(*name) else {
                continue;
            };
            match self.tails.get(*name) {
                Some(t) => println!(
                    "{name:<32} {value:>14.6} {unit} (n={}, {} beyond)",
                    t.n, t.beyond
                ),
                None => println!("{name:<32} {value:>14.6} {unit}"),
            }
            members.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            members.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `--record-accuracy <first> <last>`: prints ledger lines for every
/// workload and seed in the range, fitting each model the way the server
/// does (through an in-process registry).
pub fn record_accuracy(args: &[String], threads: usize) -> Result<(), String> {
    let [first, last] = args else {
        return Err("usage: --record-accuracy <first-seed> <last-seed>".into());
    };
    let first: u64 = first.parse().map_err(|e| format!("first seed: {e}"))?;
    let last: u64 = last.parse().map_err(|e| format!("last seed: {e}"))?;
    let registry = ModelRegistry::new(
        threads,
        BatchConfig::default(),
        Arc::new(ServerMetrics::default()),
    )
    .map_err(|e| e.to_string())?;
    for spec in &WORKLOADS {
        for seed in first..=last {
            let (train, test) = workload::generate(spec, seed);
            let source = TrainingSource::Inline(train);
            let fitted = match spec.prune {
                Some(k) => registry.fit_pruned("ledger", source, spec.preset, seed, k),
                None => registry.fit("ledger", source, spec.preset, seed),
            };
            fitted.map_err(|e| e.to_string())?;
            let entry = registry.get("ledger").map_err(|e| e.to_string())?;
            let pred = entry
                .classifier()
                .predict(&test)
                .map_err(|e| e.to_string())?;
            let labels = test.labels_required().map_err(|e| e.to_string())?;
            let correct = pred.iter().zip(&labels).filter(|(p, l)| p == l).count();
            println!("{} {seed} {correct}/{}", spec.name, test.len());
        }
    }
    registry.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::Outcome;

    fn names_in_benchmark_json(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let json = tsg_serve::Json::parse(&text).expect("BENCHMARK.json parses");
        json.get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(|n| n.as_str())
                    .expect("named metric")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn printed_metric_names_are_those_in_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in_benchmark_json("end_to_end"), e2e);
        assert_eq!(names_in_benchmark_json("per_layer"), layer);
    }

    #[test]
    fn units_in_benchmark_json_match() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = tsg_serve::Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let units: Vec<&str> = json
                .get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| m.get("unit").and_then(|u| u.as_str()).unwrap())
                .collect();
            let expected: Vec<&str> = list.iter().map(|(_, u)| *u).collect();
            assert_eq!(units, expected, "{key}");
        }
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let names: Vec<String> = names_in_benchmark_json("workloads");
        let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn ledger_lines_parse() {
        assert!(recorded_accuracy("no-such-workload", 1).is_none());
        for line in RECORDED_ACCURACY.lines() {
            let mut parts = line.split_whitespace();
            let name = parts.next().unwrap();
            let seed: u64 = parts.next().unwrap().parse().unwrap();
            assert!(recorded_accuracy(name, seed).is_some(), "{line}");
        }
    }

    #[test]
    fn a_request_without_a_reply_fails_the_run_and_a_429_does_not() {
        let ok = Outcome::Ok {
            latency_ms: 1.0,
            late_ms: 0.0,
            batch_size: 1,
        };
        let mut m = Metrics::new("serve-pruned", 1);
        let report = PhaseReport {
            outcomes: vec![ok, Outcome::Rejected],
            ..PhaseReport::default()
        };
        m.count_requests("heavy", &report);
        assert!(m.correct);
        assert_eq!((m.attempted, m.failed), (2, 1));
        let report = PhaseReport {
            outcomes: vec![ok, Outcome::Failed],
            ..PhaseReport::default()
        };
        m.count_requests("heavy", &report);
        assert!(!m.correct);
    }

    #[test]
    fn an_unsupported_tail_fails_the_run() {
        let mut m = Metrics::new("train-grid", 1);
        m.set_tail("client.late_p99_ms", &[1.0; 50], 0.99);
        assert!(!m.correct);
    }
}
