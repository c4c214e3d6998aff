//! The traced run: per-layer numbers from timing calls into each layer's
//! public functions, on the workload's own inputs, with every call kept as
//! a span. End-to-end numbers never come from this run.

use crate::loadgen::{self, Outcome, PhaseReport, Target};
use crate::metrics::Metrics;
use crate::spans::{StageSink, Tracer};
use crate::stats;
use crate::workload::{self, Spec, MODEL};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsg_core::{extract_dataset_features, extract_series_features, extract_series_features_traced};
use tsg_core::{ExtractStage, MvgClassifier, SeriesGraphs};
use tsg_graph::{GraphStatistics, MotifWorkspace};
use tsg_ml::data::FeatureMatrix;
use tsg_ml::scaling::MinMaxScaler;
use tsg_serve::http::RequestParser;
use tsg_serve::{BatchConfig, Json, ModelRegistry, ServerMetrics, TrainingSource};
use tsg_ts::TimeSeries;

/// Flight-recorder capacity of the traced run's server: large enough to
/// keep every request of the served probe.
const TRACE_CAPACITY: usize = 1 << 16;

/// Requests in each open-loop phase of the served probe: the light and
/// heavy phases together leave 11 lateness samples beyond their p99.
const PROBE_REQUESTS: usize = 550;

/// Series sampled for the per-series graph and parser measurements.
const SAMPLE_SERIES: usize = 100;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn median_time(reps: usize, mut op: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            op();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

/// One traced extraction pass over `series` on the pool: each worker
/// extracts through [`extract_series_features_traced`] with its own
/// [`StageSink`].
fn traced_extraction(
    series: &[TimeSeries],
    model: &MvgClassifier,
    threads: usize,
) -> Vec<(Vec<f64>, StageSink, Instant, Instant)> {
    let features = &model.config().features;
    tsg_parallel::parallel_map(series, threads, |s| {
        let mut sink = StageSink::default();
        let mut workspace = MotifWorkspace::new();
        let start = Instant::now();
        let row = extract_series_features_traced(s, features, &mut workspace, &mut sink);
        (row, sink, start, Instant::now())
    })
}

/// Runs the traced measurement of `spec` and returns its per-layer
/// metrics; spans go to `out_dir`. Its size is fixed by the workload, not
/// by `--seconds`.
pub fn run(spec: &Spec, seed: u64, threads: usize, out_dir: &Path) -> Result<Metrics, String> {
    let mut m = Metrics::new(spec.name, seed);
    let mut tr = Tracer::new(Instant::now());
    let root = tr.reserve_id();
    let run_start = Instant::now();

    let (setup, _) = tr.time("setup", root, || {
        workload::setup(spec, seed, threads, true, TRACE_CAPACITY, Instant::now())
    });
    let mut setup = setup?;
    m.check_accuracy(setup.correct, setup.test.len());
    let generate: Vec<f64> = (0..3)
        .map(|_| {
            tr.time("archive::generate_scaled", root, || {
                workload::generate(spec, seed)
            })
            .1
        })
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    m.set("datasets.generate_ms", stats::median(&generate));
    let model = &setup.model;
    let features = &model.config().features;
    let test = &setup.test;
    let train = &setup.train;
    let n = test.len();

    // --- the headline operation, untraced and traced (trace.overhead_share)
    let predict_untraced = median_time(3, || {
        let p = model.predict(std::hint::black_box(test));
        m.check(
            matches!(p, Ok(ref p) if *p == setup.expected),
            "untraced predict pass disagrees",
        );
    });
    let mut traced_rows = Vec::new();
    let mut traced_times = Vec::new();
    for rep in 0..3 {
        let pass_id = tr.reserve_id();
        let start = Instant::now();
        let results = traced_extraction(test.series(), model, threads);
        let rows: Vec<Vec<f64>> = results.iter().map(|r| r.0.clone()).collect();
        let predicted = model.predict_from_feature_rows(rows.clone());
        let end = Instant::now();
        tr.record("traced_predict_pass", pass_id, root, start, end);
        traced_times.push((end - start).as_secs_f64());
        m.check(
            matches!(predicted, Ok(ref p) if *p == setup.expected),
            "traced extraction predicts differently from untraced predict",
        );
        if rep == 2 {
            // per-series stage attribution, from the last pass
            let mut stage_sum = [0.0f64; 4];
            let mut total = 0.0;
            for (_, sink, s, e) in &results {
                for (slot, stage) in [
                    ExtractStage::Scale,
                    ExtractStage::GraphBuild,
                    ExtractStage::MotifCount,
                    ExtractStage::Statistical,
                ]
                .into_iter()
                .enumerate()
                {
                    stage_sum[slot] += us(sink.total(stage));
                }
                total += us(*e - *s);
            }
            let per = |v: f64| v / n as f64;
            m.set("extract.scale_us", per(stage_sum[0]));
            m.set("extract.graph_build_us", per(stage_sum[1]));
            m.set("extract.motif_count_us", per(stage_sum[2]));
            let statistical = if features.statistical.enabled {
                per(stage_sum[3])
            } else {
                // the configuration has no statistical layer (the paper's MVG
                // features): time the standard layer on the same series, so
                // the row still reads the layer's cost at this input
                let standard = tsg_core::StatisticalConfig::standard();
                let start = Instant::now();
                for s in test.series() {
                    std::hint::black_box(standard.compute(s.values()));
                }
                per(us(start.elapsed()))
            };
            m.set("extract.statistical_us", statistical);
            m.set("extract.total_us", per(total));
            m.set(
                "extract.unattributed_us",
                per(total - stage_sum.iter().sum::<f64>()),
            );
            for (_, sink, s, e) in results {
                tr.absorb(sink, pass_id, s, e);
            }
            traced_rows = rows;
        }
    }
    let predict_traced = stats::median(&traced_times);

    // --- fits, untraced and inside a span
    let config = model.config().clone();
    let fit_once = || {
        let mut clf = MvgClassifier::new(config.clone());
        clf.fit(std::hint::black_box(train)).is_ok()
    };
    let fit_untraced = median_time(2, || {
        let ok = fit_once();
        m.check(ok, "fit failed");
    });
    let fit_traced: Vec<f64> = (0..2)
        .map(|_| {
            tr.time("MvgClassifier::fit", root, fit_once)
                .1
                .as_secs_f64()
        })
        .collect();

    // --- core and parallel layers
    let extract_dataset_s = stats::median(
        &(0..3)
            .map(|_| {
                tr.time("MvgClassifier::extract_features", root, || {
                    model.extract_features(train)
                })
                .1
                .as_secs_f64()
            })
            .collect::<Vec<_>>(),
    );
    m.set("core.extract_dataset_s", extract_dataset_s);
    m.set("ml.fit_self_s", fit_untraced - extract_dataset_s);
    m.set(
        "core.features_per_series",
        model.feature_names().len() as f64,
    );
    let serial: f64 = train
        .series()
        .iter()
        .map(|s| {
            let t = Instant::now();
            std::hint::black_box(extract_series_features(s, features));
            t.elapsed().as_secs_f64()
        })
        .sum();
    m.set(
        "parallel.extract_efficiency",
        serial / (extract_dataset_s * threads as f64),
    );
    let wide = tsg_core::FeatureConfig {
        selection: None,
        ..features.clone()
    };
    let len = test.max_length();
    let layout = median_time(51, || {
        std::hint::black_box(wide.feature_names_for_length(len));
    });
    m.set("extract.layout_us", layout * 1e6);

    // --- graph layer
    let sample: Vec<&TimeSeries> = test.series().iter().take(SAMPLE_SERIES).collect();
    let mut stats_time = 0.0;
    let mut edges = 0usize;
    for s in &sample {
        let graphs = SeriesGraphs::build(s, &wide.kinds, wide.scale_mode, wide.multiscale);
        for g in &graphs.graphs {
            edges += g.graph.n_edges();
            let t = Instant::now();
            std::hint::black_box(GraphStatistics::compute(&g.graph));
            stats_time += us(t.elapsed());
        }
    }
    m.set("graph.stats_us", stats_time / sample.len() as f64);
    m.set("graph.edges_per_series", edges as f64 / sample.len() as f64);

    // --- ML layer on pre-extracted rows
    let (x_train, _) = extract_dataset_features(train, features, threads);
    let scaler = MinMaxScaler::fit_transform(&x_train)
        .map_err(|e| e.to_string())?
        .0;
    let x_test = FeatureMatrix::from_rows(&traced_rows).map_err(|e| e.to_string())?;
    let scale_s = median_time(5, || {
        std::hint::black_box(scaler.transform(&x_test).is_ok());
    });
    m.set("ml.scaler_transform_us_per_row", scale_s * 1e6 / n as f64);
    let mut predict_rows = Vec::new();
    for _ in 0..3 {
        let rows = traced_rows.clone();
        let (p, d) = tr.time("predict_from_feature_rows", root, || {
            model.predict_from_feature_rows(rows)
        });
        m.check(
            matches!(p, Ok(ref p) if *p == setup.expected),
            "predict_from_feature_rows disagrees",
        );
        predict_rows.push(d.as_secs_f64());
    }
    m.set(
        "ml.predict_us_per_row",
        stats::median(&predict_rows) * 1e6 / n as f64,
    );

    // --- serving layer, in process on the workload's exact bytes
    let requests: Vec<Vec<u8>> = sample
        .iter()
        .map(|&s| {
            loadgen::classify_request(
                MODEL,
                &tsg_ts::Dataset::from_series("request", vec![s.clone()]),
            )
        })
        .collect();
    let (mut http_us, mut parse_us, mut write_us) = (0.0, 0.0, 0.0);
    for bytes in &requests {
        let t = Instant::now();
        let mut parser = RequestParser::new();
        parser.push(bytes);
        let request = parser.next_request();
        http_us += us(t.elapsed());
        let body = match request {
            Ok(Some(r)) => r.body,
            _ => {
                m.check(false, "request parser rejected a classify request");
                continue;
            }
        };
        let text = std::str::from_utf8(&body).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let json = Json::parse(text);
        parse_us += us(t.elapsed());
        let Ok(json) = json else {
            m.check(false, "JSON parser rejected a classify body");
            continue;
        };
        let t = Instant::now();
        let written = json.write();
        write_us += us(t.elapsed());
        m.check(
            written == text,
            "JSON write does not reproduce the request body",
        );
    }
    let per_request = requests.len() as f64;
    m.set("serve.http_parse_us", http_us / per_request);
    m.set("serve.json_parse_us", parse_us / per_request);
    m.set("serve.json_write_us", write_us / per_request);
    let batcher_ms = batcher_classify_ms(spec, seed, threads, &setup, &mut m)?;
    m.set("serve.batcher_classify_ms", batcher_ms);

    // --- the served probe
    let served = setup.served.take().ok_or("traced run without a server")?;
    m.set("serve.wire_fit_s", served.wire_fit_s);
    let target = Target::Http {
        addr: served.addr,
        requests: &served.requests,
    };
    let expected = &setup.item_expected;
    let before = recorded_total(served.addr)?;
    let light = loadgen::open_loop(
        &target,
        expected,
        threads,
        spec.light_rps,
        PROBE_REQUESTS,
        0,
    );
    let server_totals = classify_totals_ms(served.addr, before)?;
    let heavy = loadgen::open_loop(
        &target,
        expected,
        threads,
        spec.heavy_rps,
        PROBE_REQUESTS,
        0,
    );
    // the client's own tracing: one span per request, recorded once the
    // phase is over so it never delays a send
    let recording = Instant::now();
    for phase in [&light, &heavy] {
        let phase_id = tr.reserve_id();
        record_requests(&mut tr, phase_id, root, phase);
    }
    let recording_s = recording.elapsed().as_secs_f64();
    let closed = loadgen::closed_loop(&target, expected, threads, Duration::from_secs(1), 0);
    for (phase, report) in [("light", &light), ("heavy", &heavy), ("closed", &closed)] {
        m.count_requests(phase, report);
        m.set(&format!("client.{phase}.sent"), report.sent() as f64);
        m.set(&format!("client.{phase}.ok"), report.ok() as f64);
        m.set(
            &format!("client.{phase}.rejected_429"),
            report.rejected() as f64,
        );
        m.set(&format!("client.{phase}.failed"), report.failed() as f64);
    }
    let mut late = light.late_ms();
    late.extend(heavy.late_ms());
    m.set_tail("client.late_p99_ms", &late, 0.99);
    let batches =
        light.batch_size_mean() * light.ok() as f64 + heavy.batch_size_mean() * heavy.ok() as f64;
    m.set(
        "serve.batch_size_mean",
        batches / (light.ok() + heavy.ok()) as f64,
    );
    let client_p50 = stats::median(&light.latencies_ms());
    let server_p50 = stats::median(&server_totals);
    m.set("serve.server_total_p50_ms", server_p50);
    m.set("serve.client_gap_ms", client_p50 - server_p50);
    let text = workload::scrape_metrics(served.addr)?;
    for stage in ["queue_wait", "batch_coalesce", "write_out"] {
        let sum = workload::scrape_value(
            &text,
            &format!("tsg_serve_stage_seconds_sum{{stage=\"{stage}\"}}"),
        );
        let count = workload::scrape_value(
            &text,
            &format!("tsg_serve_stage_seconds_count{{stage=\"{stage}\"}}"),
        );
        let mean_ms = match (sum, count) {
            (Some(s), Some(c)) if c > 0.0 => s / c * 1e3,
            _ => 0.0,
        };
        m.set(&format!("serve.stage.{stage}_ms"), mean_ms);
    }
    served.stop()?;

    let overhead = match spec.name {
        "train-grid" => {
            let fit_traced = stats::median(&fit_traced);
            (fit_traced - fit_untraced) / fit_untraced
        }
        "batch-wide" => (predict_traced - predict_untraced) / predict_untraced,
        // nothing inside the server changes between a traced and an
        // untraced run: the cost is the client's span recording over the
        // wall time of the phases it records
        _ => recording_s / (light.elapsed_s + heavy.elapsed_s),
    };
    m.set("trace.overhead_share", overhead);

    tr.record("run", root, 0, run_start, Instant::now());
    let path = out_dir.join(format!("spans-{}-seed{seed}.jsonl", spec.name));
    tr.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tr.spans().len(),
        path.display()
    );
    m.attempted += 1;
    Ok(m)
}

/// Median latency of in-process [`tsg_serve::registry::ModelEntry::classify`]
/// calls at the light probe rate, one series each, with no socket.
fn batcher_classify_ms(
    spec: &Spec,
    seed: u64,
    threads: usize,
    setup: &workload::Setup,
    m: &mut Metrics,
) -> Result<f64, String> {
    let registry = ModelRegistry::new(
        threads,
        BatchConfig::default(),
        Arc::new(ServerMetrics::default()),
    )
    .map_err(|e| e.to_string())?;
    let source = TrainingSource::Inline(setup.train.clone());
    let fitted = match spec.prune {
        Some(k) => registry.fit_pruned(MODEL, source, spec.preset, seed, k),
        None => registry.fit(MODEL, source, spec.preset, seed),
    };
    fitted.map_err(|e| e.to_string())?;
    let entry = registry.get(MODEL).map_err(|e| e.to_string())?;
    let interval = Duration::from_secs_f64(1.0 / spec.light_rps);
    let mut latencies = Vec::new();
    let mut due = Instant::now();
    for (i, series) in setup.test.series().iter().take(150).enumerate() {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let t = Instant::now();
        let out = entry.classify(vec![series.clone()], false);
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        m.check(
            matches!(out, Ok(ref o) if o.predictions == [setup.expected[i]]),
            "in-process batcher classify disagrees with predict",
        );
        due += interval;
    }
    registry.shutdown();
    Ok(stats::median(&latencies))
}

/// Records one span per completed request of a phase, under one span for
/// the phase.
fn record_requests(tr: &mut Tracer, phase_id: u64, root: u64, report: &PhaseReport) {
    let mut bounds: Option<(Instant, Instant)> = None;
    for (outcome, sent) in report.outcomes.iter().zip(&report.sent_at) {
        if let (
            Outcome::Ok {
                latency_ms,
                late_ms,
                ..
            },
            Some(sent),
        ) = (outcome, sent)
        {
            let end = *sent + Duration::from_secs_f64((latency_ms - late_ms).max(0.0) / 1e3);
            let id = tr.reserve_id();
            tr.record("classify_request", id, phase_id, *sent, end);
            bounds = Some(bounds.map_or((*sent, end), |(s, e)| (s.min(*sent), e.max(end))));
        }
    }
    if let Some((start, end)) = bounds {
        tr.record("open_loop_phase", phase_id, root, start, end);
    }
}

/// The flight recorder's running total of recorded traces.
fn recorded_total(addr: std::net::SocketAddr) -> Result<u64, String> {
    // a threshold no request reaches keeps the reply small
    let json = traces(addr, "/debug/traces?slow_ms=1000000000")?;
    json.get("recorded_total")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| "/debug/traces without recorded_total".into())
}

/// Server-side total latency (ms) of the successful classify requests
/// recorded after the `after`-th trace.
fn classify_totals_ms(addr: std::net::SocketAddr, after: u64) -> Result<Vec<f64>, String> {
    let json = traces(addr, "/debug/traces")?;
    let totals: Vec<f64> = json
        .get("traces")
        .and_then(|t| t.as_array())
        .ok_or("/debug/traces without traces")?
        .iter()
        .filter(|t| {
            t.get("seq")
                .and_then(|s| s.as_u64())
                .is_some_and(|s| s >= after)
        })
        .filter(|t| {
            t.get("path")
                .and_then(|p| p.as_str())
                .is_some_and(|p| p.ends_with("/classify"))
        })
        .filter(|t| t.get("status").and_then(|s| s.as_u64()) == Some(200))
        .filter_map(|t| t.get("total_micros").and_then(|v| v.as_f64()))
        .map(|micros| micros / 1e3)
        .collect();
    if totals.is_empty() {
        return Err("the flight recorder kept no classify traces".into());
    }
    Ok(totals)
}

fn traces(addr: std::net::SocketAddr, path: &str) -> Result<Json, String> {
    let reply = loadgen::exchange(addr, "GET", path, None)?;
    if reply.status != 200 {
        return Err(format!("{path} answered {}", reply.status));
    }
    let text = String::from_utf8(reply.body).map_err(|e| e.to_string())?;
    Json::parse(&text).map_err(|e| format!("{path}: {e:?}"))
}
