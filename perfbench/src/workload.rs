//! The three workloads, their set-up, and the untraced end-to-end run.
//!
//! Each workload is a dataset shape plus a serving preset
//! ([`tsg_serve::config_named`]), so the in-process model, the in-process
//! registry and the server all build the identical configuration.

use crate::loadgen::{self, PhaseReport, Target};
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tsg_core::{FeatureSelection, MvgClassifier, MvgConfig};
use tsg_datasets::archive::{generate_scaled, spec_by_name, ArchiveOptions};
use tsg_serve::{Json, ServeConfig, Server, ShutdownHandle};
use tsg_ts::Dataset;

/// The p99 latency limit of the SLO share, in ms.
pub const SLO_P99_MS: f64 = 25.0;

/// Open-loop phases send at least this many requests, so a p99 has ten
/// samples beyond it whatever `--seconds` is. Every phase sends its pool a
/// whole number of times ([`Spec::phase_cycles`]), so runs of one seed
/// time the same requests.
pub const MIN_PHASE_REQUESTS: usize = 1010;
const _: () = assert!(MIN_PHASE_REQUESTS >= 100 * crate::stats::MIN_SAMPLES_BEYOND);

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Registry name of the served model.
pub const MODEL: &str = "bench";

/// Each round repeats its predict pass until this much time went into
/// passes, and at least [`MIN_ROUND_PASSES`] times.
const ROUND_PASS_S: f64 = 0.5;

/// See [`ROUND_PASS_S`].
const MIN_ROUND_PASSES: usize = 1;

/// Static description of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name on the command line.
    pub name: &'static str,
    /// Catalogue dataset whose shape the inputs follow.
    pub dataset: &'static str,
    /// Series length cap (the catalogue length when larger).
    pub max_length: usize,
    /// Serving preset naming the model configuration.
    pub preset: &'static str,
    /// Importance pruning of the served model (`"prune"` on the wire).
    pub prune: Option<usize>,
    /// Whether the latency phases go through the server; otherwise they
    /// call the model in process.
    pub served: bool,
    /// Light and heavy open-loop rates, requests/s, fixed as constants
    /// against the closed-loop capacity measured on a 2-CPU machine.
    pub light_rps: f64,
    /// See `light_rps`.
    pub heavy_rps: f64,
    /// Seconds of the light, heavy and closed-loop chunk of each round.
    pub chunk_s: [f64; 3],
    /// Test splits (from seeds derived from `--seed`) that make up the
    /// pool latency requests cycle through.
    pub pool_splits: u64,
    /// Most series the pool keeps, from its start.
    pub pool_limit: usize,
    /// Times each open-loop phase sends every series of the pool.
    pub phase_cycles: usize,
}

impl Spec {
    /// Requests each open-loop phase sends, given the pool's size.
    pub fn phase_requests(&self, pool: usize) -> usize {
        pool * self.phase_cycles
    }
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Spec; 3] = [
    // The paper's configuration: MVG features, the 8-candidate CV-grid
    // booster and oversampling, on a 276 x 80 two-class split. The ML layer
    // does ~95% of the fit, so an ML change shows here and an extraction
    // change should not. Fits and predict passes run in process; latency
    // goes through the server, because an in-process call takes ~0.3 ms of
    // pure compute and its p99 is the machine's scheduling noise, which
    // moved twofold between runs.
    Spec {
        name: "train-grid",
        dataset: "DistalPhalanxOutlineCorrect",
        max_length: usize::MAX,
        preset: "paper",
        prune: None,
        served: true,
        light_rps: 150.0,
        heavy_rps: 300.0,
        chunk_s: [1.6, 0.8, 0.5],
        pool_splits: 1,
        pool_limit: usize::MAX,
        phase_cycles: 2,
    },
    // The wide catalogue with the small fixed booster on a Worms-shaped
    // Motion split at length 512: graph kernels, the motif census above
    // all, do almost all the work, in offline-throughput mode. In-process
    // capacity_rps reads ~330 predictions/s. Per-series cost has a heavy tail
    // (p50 ~6 ms, p99 ~20 ms), so latency requests cycle through three
    // test splits: a p99 over 181 series would rest on the two costliest.
    Spec {
        name: "batch-wide",
        dataset: "Worms",
        max_length: 512,
        preset: "wide",
        prune: None,
        served: false,
        light_rps: 100.0,
        heavy_rps: 135.0,
        chunk_s: [2.2, 1.65, 0.5],
        pool_splits: 3,
        pool_limit: usize::MAX,
        phase_cycles: 2,
    },
    // A pruned wide model fitted over the wire and served on loopback:
    // the only workload through the selected-column extraction path, and
    // the one whose model is fitted over the wire. It keeps 48 features:
    // the top 24 sometimes left out every full-resolution graph, so
    // per-series cost moved threefold from seed to seed (240-720 us); the
    // top 48 cost 640-880 us on every seed tried. Its capacity_rps reads
    // ~590 req/s; light is ~20% of it, heavy ~40% (higher rates queue on
    // the machine's own noise and make the latencies unrepeatable). Its latency pool
    // is the first 1020 of the 1980 test series, sent once per phase.
    Spec {
        name: "serve-pruned",
        dataset: "InsectWingbeatSound",
        max_length: usize::MAX,
        preset: "wide",
        prune: Some(48),
        served: true,
        light_rps: 120.0,
        heavy_rps: 240.0,
        chunk_s: [2.1, 1.05, 0.5],
        pool_splits: 1,
        pool_limit: 1020,
        phase_cycles: 1,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// A running in-process server.
pub struct Served {
    /// Its loopback address.
    pub addr: SocketAddr,
    handle: ShutdownHandle,
    thread: JoinHandle<std::io::Result<()>>,
    /// Client wall time of the wire fit, s.
    pub wire_fit_s: f64,
    /// One classify request per test series.
    pub requests: Vec<Vec<u8>>,
    /// Classify requests sent so far (warm-up and phases).
    pub classify_sent: usize,
}

impl Served {
    /// Stops the server and waits for its thread.
    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// Everything one set-up produced.
pub struct Setup {
    /// Training split.
    pub train: Dataset,
    /// Test split.
    pub test: Dataset,
    /// The in-process model (for served workloads: the served model's
    /// configuration, fitted in process).
    pub model: MvgClassifier,
    /// In-process predictions for the test split.
    pub expected: Vec<usize>,
    /// Correct test predictions.
    pub correct: usize,
    /// The latency requests' pool: the series of each request.
    pub items: Vec<Dataset>,
    /// In-process predictions for each pool item.
    pub item_expected: Vec<Vec<usize>>,
    /// The server, for served workloads and traced runs.
    pub served: Option<Served>,
    /// Wall time of this set-up, s.
    pub setup_s: f64,
}

/// The configuration every layer of a workload uses, optionally restricted
/// to a served feature selection.
pub fn model_config(
    spec: &Spec,
    seed: u64,
    threads: usize,
    selection: Option<Vec<String>>,
) -> MvgConfig {
    let mut config = tsg_serve::config_named(spec.preset, seed, threads)
        .expect("every workload names an existing preset");
    config.features.selection = selection.map(FeatureSelection::new);
    config
}

/// Generates the workload's splits from the seed.
pub fn generate(spec: &Spec, seed: u64) -> (Dataset, Dataset) {
    let shape = spec_by_name(spec.dataset).expect("every workload names a catalogue dataset");
    generate_scaled(
        shape,
        ArchiveOptions {
            max_length: spec.max_length,
            ..ArchiveOptions::full(seed)
        },
    )
}

fn fit_body(spec: &Spec, seed: u64, train: &Dataset) -> Json {
    let series = train
        .series()
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("values", Json::nums(s.values().iter().copied())),
                ("label", Json::Num(s.label().unwrap_or(0) as f64)),
            ])
        })
        .collect();
    let mut members = vec![
        ("config", Json::Str(spec.preset.to_string())),
        ("seed", Json::Num(seed as f64)),
        ("train", Json::obj(vec![("series", Json::Arr(series))])),
    ];
    if let Some(k) = spec.prune {
        members.push(("prune", Json::Num(k as f64)));
    }
    Json::obj(members)
}

/// The feature selection a fit reply reports (`None` for unpruned models
/// or an unreadable reply).
fn selection_of(body: &[u8]) -> Option<Vec<String>> {
    let info = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let names = info.get("features")?.as_array()?;
    Some(
        names
            .iter()
            .filter_map(|n| n.as_str().map(str::to_string))
            .collect(),
    )
}

/// Binds a server on loopback, fits the workload's model over the wire
/// from the inline training split, and returns it running with the
/// feature selection it reported.
pub fn start_server(
    spec: &Spec,
    seed: u64,
    threads: usize,
    train: &Dataset,
    trace_capacity: usize,
) -> Result<(Served, Option<Vec<String>>), String> {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        n_threads: threads,
        trace_capacity,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    let body = fit_body(spec, seed, train);
    let started = Instant::now();
    let reply = loadgen::exchange(addr, "POST", &format!("/models/{MODEL}/fit"), Some(&body));
    let wire_fit_s = started.elapsed().as_secs_f64();
    let served = Served {
        addr,
        handle,
        thread,
        wire_fit_s,
        requests: Vec::new(),
        classify_sent: 0,
    };
    let reply = match reply {
        Ok(r) if r.status == 200 => r,
        Ok(r) => {
            let _ = served.stop();
            return Err(format!(
                "wire fit answered {}: {}",
                r.status,
                String::from_utf8_lossy(&r.body)
            ));
        }
        Err(e) => {
            let _ = served.stop();
            return Err(format!("wire fit: {e}"));
        }
    };
    let selection = selection_of(&reply.body);
    if spec.prune.is_some() && selection.is_none() {
        let _ = served.stop();
        return Err("pruned wire fit reported no feature selection".into());
    }
    Ok((served, selection))
}

/// The pool latency requests cycle through: the test split plus
/// `pool_splits - 1` test splits from derived seeds, cut to `pool_limit`
/// series, one series per request, with the model's prediction for each.
fn request_pool(
    spec: &Spec,
    seed: u64,
    test: &Dataset,
    expected: &[usize],
    model: &MvgClassifier,
) -> Result<(Vec<Dataset>, Vec<Vec<usize>>), String> {
    let mut pool = test.series().to_vec();
    let mut pool_expected = expected.to_vec();
    for split in 1..spec.pool_splits {
        let (_, extra) = generate(
            spec,
            seed.wrapping_add(split.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        pool_expected.extend(model.predict(&extra).map_err(|e| format!("predict: {e}"))?);
        pool.extend(extra.series().iter().cloned());
    }
    pool.truncate(spec.pool_limit);
    pool_expected.truncate(spec.pool_limit);
    if spec.phase_requests(pool.len()) < MIN_PHASE_REQUESTS {
        return Err(format!(
            "a pool of {} series sent {} times gives fewer than {MIN_PHASE_REQUESTS} requests",
            pool.len(),
            spec.phase_cycles
        ));
    }
    let items = pool
        .into_iter()
        .map(|s| Dataset::from_series("request", vec![s]))
        .collect();
    Ok((items, pool_expected.into_iter().map(|p| vec![p]).collect()))
}

/// One set-up: generate the splits, start the server and fit over the wire
/// (served workloads, or any workload when `with_server`), fit the
/// in-process model, and warm up. Nothing here is timed except the set-up
/// itself.
pub fn setup(
    spec: &Spec,
    seed: u64,
    threads: usize,
    with_server: bool,
    trace_capacity: usize,
    started: Instant,
) -> Result<Setup, String> {
    let (train, test) = generate(spec, seed);
    let (mut served, selection) = if spec.served || with_server {
        let (s, sel) = start_server(spec, seed, threads, &train, trace_capacity)?;
        (Some(s), sel)
    } else {
        (None, None)
    };
    let mut model = MvgClassifier::new(model_config(spec, seed, threads, selection));
    model
        .fit(&train)
        .map_err(|e| format!("in-process fit: {e}"))?;
    let expected = model.predict(&test).map_err(|e| format!("predict: {e}"))?;
    let labels = test.labels_required().map_err(|e| e.to_string())?;
    let correct = expected.iter().zip(&labels).filter(|(p, l)| p == l).count();
    let (items, item_expected) = request_pool(spec, seed, &test, &expected, &model)?;
    if let Some(s) = served.as_mut() {
        s.requests = items
            .iter()
            .map(|item| loadgen::classify_request(MODEL, item))
            .collect();
        // warm-up: one closed-loop pass of a few dozen requests
        let target = Target::Http {
            addr: s.addr,
            requests: &s.requests,
        };
        let warm = loadgen::closed_loop(&target, &item_expected, 1, Duration::from_millis(150), 0);
        s.classify_sent += warm.sent();
        if warm.ok() != warm.sent() {
            return Err("warm-up classify requests failed".into());
        }
    } else {
        // warm-up: the in-process path
        let target = Target::InProcess {
            model: &model,
            items: &items,
        };
        let warm = loadgen::closed_loop(&target, &item_expected, 1, Duration::from_millis(100), 0);
        if warm.ok() != warm.sent() {
            return Err("warm-up predictions failed".into());
        }
    }
    Ok(Setup {
        train,
        test,
        model,
        expected,
        correct,
        items,
        item_expected,
        served,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// Repeats the set-up [`SETUP_REPEATS`] times, checking each repeat
/// produced the identical model, and keeps the last one running. The first
/// repeat is timed from process start.
pub fn repeated_setup(
    spec: &Spec,
    seed: u64,
    threads: usize,
    process_start: Instant,
) -> Result<(Setup, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last: Option<Setup> = None;
    for rep in 0..SETUP_REPEATS {
        // the previous repeat's server stops before this repeat's clock starts
        let previous = last.take().map(|prev| {
            let stopped = prev.served.map(Served::stop);
            (prev.item_expected, stopped)
        });
        let started = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let s = setup(
            spec,
            seed,
            threads,
            false,
            ServeConfig::default().trace_capacity,
            started,
        )?;
        times.push(s.setup_s);
        if let Some((expected, stopped)) = previous {
            stopped.transpose()?;
            if expected != s.item_expected {
                return Err("set-up repeats fitted models that predict differently".into());
            }
        }
        last = Some(s);
    }
    let s = last.expect("at least one set-up");
    Ok((s, times))
}

/// End-to-end measurements of one untraced run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Wall time of each fit, s.
    pub fit_times: Vec<f64>,
    /// Fits that failed or whose model disagreed with the set-up's.
    pub fits_failed: usize,
    /// Wall time of each predict pass over the test split, s.
    pub pass_times: Vec<f64>,
    /// Passes that failed or disagreed.
    pub passes_failed: usize,
    /// The open-loop light chunks, pooled.
    pub light: PhaseReport,
    /// The open-loop heavy chunks, pooled.
    pub heavy: PhaseReport,
    /// The closed-loop chunks, pooled.
    pub closed: PhaseReport,
    /// Completion rate of each closed-loop chunk, req/s.
    pub closed_rates: Vec<f64>,
}

/// Runs the measured rounds of an untraced run against a set-up.
///
/// Every round runs one of each operation: an in-process fit of the
/// set-up's configuration, predict passes (at least [`MIN_ROUND_PASSES`],
/// and [`ROUND_PASS_S`] of them), and a light, a heavy and a closed-loop
/// chunk of requests. Rounds repeat until `seconds` have passed and each
/// open-loop phase has sent its [`Spec::phase_requests`], so each metric
/// samples the whole run and a passing disturbance of the machine touches
/// every metric alike.
pub fn run_end_to_end(spec: &Spec, setup: &Setup, threads: usize, seconds: f64) -> EndToEnd {
    let mut e2e = EndToEnd::default();
    let n = setup.items.len();
    let quota = spec.phase_requests(n);
    let config = setup.model.config().clone();
    let target = match setup.served.as_ref() {
        Some(s) => Target::Http {
            addr: s.addr,
            requests: &s.requests,
        },
        None => Target::InProcess {
            model: &setup.model,
            items: &setup.items,
        },
    };
    let light_chunk = (spec.light_rps * spec.chunk_s[0]).round() as usize;
    let heavy_chunk = (spec.heavy_rps * spec.chunk_s[1]).round() as usize;
    let closed_chunk = Duration::from_secs_f64(spec.chunk_s[2]);
    let started = Instant::now();
    let mut closed_next = 0;
    let mut rounds = 0;
    while rounds < 3
        || started.elapsed().as_secs_f64() < seconds
        || e2e.light.sent() < quota
        || e2e.heavy.sent() < quota
    {
        rounds += 1;
        let t = Instant::now();
        let mut clf = MvgClassifier::new(config.clone());
        let fitted = clf.fit(std::hint::black_box(&setup.train));
        e2e.fit_times.push(t.elapsed().as_secs_f64());
        // a refit must predict exactly what the set-up's model did
        // (checked on the first round; it costs a pass)
        let agrees = fitted.is_ok()
            && (rounds > 1 || matches!(clf.predict(&setup.test), Ok(p) if p == setup.expected));
        if !agrees {
            e2e.fits_failed += 1;
        }
        let mut passes_s = 0.0;
        let mut passes = 0;
        while passes < MIN_ROUND_PASSES || passes_s < ROUND_PASS_S {
            let t = Instant::now();
            let pred = setup.model.predict(std::hint::black_box(&setup.test));
            let pass_s = t.elapsed().as_secs_f64();
            e2e.pass_times.push(pass_s);
            passes_s += pass_s;
            passes += 1;
            if !matches!(pred, Ok(p) if p == setup.expected) {
                e2e.passes_failed += 1;
            }
        }
        // each phase sends the pool in order from where its last chunk
        // stopped, so a run's phases hold the same requests whatever the
        // number of rounds
        for (report, rate, chunk) in [
            (&mut e2e.light, spec.light_rps, light_chunk),
            (&mut e2e.heavy, spec.heavy_rps, heavy_chunk),
        ] {
            let count = chunk.min(quota - report.sent());
            if count > 0 {
                let first = report.sent() % n;
                report.extend(loadgen::open_loop(
                    &target,
                    &setup.item_expected,
                    threads,
                    rate,
                    count,
                    first,
                ));
            }
        }
        let closed = loadgen::closed_loop(
            &target,
            &setup.item_expected,
            threads,
            closed_chunk,
            closed_next,
        );
        closed_next = (closed_next + closed.sent()) % n;
        e2e.closed_rates.push(closed.completion_rate());
        e2e.closed.extend(closed);
    }
    e2e
}

/// Reads a counter or a labelled histogram's `_sum`/`_count` line from a
/// Prometheus text scrape.
pub fn scrape_value(text: &str, series: &str) -> Option<f64> {
    text.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        l.strip_prefix(series)?
            .strip_prefix(' ')?
            .trim()
            .parse()
            .ok()
    })
}

/// Scrapes `/metrics` from a running server.
pub fn scrape_metrics(addr: SocketAddr) -> Result<String, String> {
    let reply = loadgen::exchange(addr, "GET", "/metrics", None)?;
    if reply.status != 200 {
        return Err(format!("/metrics answered {}", reply.status));
    }
    String::from_utf8(reply.body).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_reads_counters_and_labelled_series() {
        let text = "# TYPE a counter\ntsg_serve_classify_requests_total 1234\n\
                    tsg_serve_stage_seconds_sum{stage=\"queue_wait\"} 0.5\n\
                    tsg_serve_stage_seconds_count{stage=\"queue_wait\"} 100\n";
        assert_eq!(
            scrape_value(text, "tsg_serve_classify_requests_total"),
            Some(1234.0)
        );
        assert_eq!(
            scrape_value(text, "tsg_serve_stage_seconds_sum{stage=\"queue_wait\"}"),
            Some(0.5)
        );
        assert_eq!(scrape_value(text, "tsg_serve_classify_requests"), None);
    }

    #[test]
    fn phases_always_support_a_p99() {
        for spec in &WORKLOADS {
            assert!(spec.light_rps < spec.heavy_rps, "{}", spec.name);
            // every chunk sends requests
            assert!(spec.light_rps * spec.chunk_s[0] >= 1.0);
            assert!(spec.heavy_rps * spec.chunk_s[1] >= 1.0);
            assert!(spec.phase_cycles >= 1, "{}", spec.name);
        }
    }

    #[test]
    fn pools_are_sent_whole() {
        let wide = spec("batch-wide").unwrap();
        assert_eq!(wide.phase_requests(3 * 181), 1086);
        assert!(wide.phase_requests(3 * 181) >= MIN_PHASE_REQUESTS);
        let served = spec("serve-pruned").unwrap();
        assert_eq!(served.phase_requests(served.pool_limit), 1020);
    }
}
