//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```sh
//! perfbench --workload <train-grid|batch-wide|serve-pruned> --seed <n> \
//!           --seconds <s> --trace <0|1> [--out-dir <dir>]
//! perfbench --record-accuracy <first-seed> <last-seed>
//! ```
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric of
//! `BENCHMARK.json`; a traced run (`--trace 1`) prints every per-layer
//! metric and writes its spans under `--out-dir`. The last stdout line is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. Any
//! correctness mismatch exits with status 1. See `README.md` for what each
//! workload is for.

mod layers;
mod loadgen;
mod metrics;
mod spans;
mod stats;
mod workload;

use metrics::Metrics;
use std::path::PathBuf;
use std::time::Instant;
use workload::Spec;

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads and generator lanes: the CPU count, capped at 2 so runs
/// on wider machines stay comparable with the figures recorded on 2 CPUs.
fn default_threads() -> usize {
    nproc().min(2)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("perfbench-out");
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag {
            "--workload" => {
                workload = Some(
                    workload::spec(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// Process high-water resident set (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--record-accuracy") {
        std::process::exit(
            match metrics::record_accuracy(&argv[1..], default_threads()) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    2
                }
            },
        );
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let threads = default_threads();
    println!(
        "context workload={} seed={} seconds={} trace={} threads={} nproc={} rev={}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads,
        nproc(),
        std::env::var("PERFBENCH_REV").unwrap_or_else(|_| "unknown".into()),
    );
    let result = if args.trace {
        layers::run(args.workload, args.seed, threads, &args.out_dir)
    } else {
        untraced(
            args.workload,
            args.seed,
            threads,
            args.seconds,
            process_start,
        )
    };
    match result {
        Ok(mut metrics) => {
            let correct = metrics.correct;
            println!("{}", metrics.report(args.trace));
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn untraced(
    spec: &Spec,
    seed: u64,
    threads: usize,
    seconds: f64,
    process_start: Instant,
) -> Result<Metrics, String> {
    let (mut setup, setup_times) = workload::repeated_setup(spec, seed, threads, process_start)?;
    let e2e = workload::run_end_to_end(spec, &setup, threads, seconds);
    let mut m = Metrics::new(spec.name, seed);
    m.check_accuracy(setup.correct, setup.test.len());
    m.set("setup_s", stats::median(&setup_times));
    m.set("fit_s", stats::fast_time(&e2e.fit_times));
    m.count_ops(e2e.fit_times.len(), e2e.fits_failed, "fits");
    let capacity = stats::fast_rate(&e2e.closed_rates);
    if spec.prune.is_some() {
        // the pruned model's in-process pass over 1980 series spread 22-34%
        // across runs of five seeds, its served rate 10-12%: report the
        // series the server classified per second, one per request
        m.set("predict_series_per_s", capacity);
    } else {
        m.set(
            "predict_series_per_s",
            setup.test.len() as f64 / stats::fast_time(&e2e.pass_times),
        );
    }
    m.set("accuracy", setup.correct as f64 / setup.test.len() as f64);
    for (phase, report) in [("light", &e2e.light), ("heavy", &e2e.heavy)] {
        m.set(
            &format!("{phase}_p50_ms"),
            stats::median(&report.latencies_ms()),
        );
    }
    let open_sent = e2e.light.sent() + e2e.heavy.sent();
    let within = e2e.light.within(workload::SLO_P99_MS) + e2e.heavy.within(workload::SLO_P99_MS);
    m.set("slo_met_share", within as f64 / open_sent as f64);
    m.set("capacity_rps", capacity);
    for (phase, report) in [
        ("light", &e2e.light),
        ("heavy", &e2e.heavy),
        ("closed", &e2e.closed),
    ] {
        m.count_requests(phase, report);
        // latency tails and the generator's lateness, for reading only
        // (see README.md), where the sample supports them
        let tail = |values: &[f64], q: f64| match stats::tail(values, q) {
            Some(t) => format!("{:.3} (n={}, {} beyond)", t.value, t.n, t.beyond),
            None => "unsupported".into(),
        };
        let latencies = report.latencies_ms();
        println!(
            "phase {phase:<6} sent={} ok={} rejected_429={} failed={} latency_p90_ms={} latency_p99_ms={} generator_late_p99_ms={}",
            report.sent(),
            report.ok(),
            report.rejected(),
            report.failed(),
            tail(&latencies, 0.90),
            tail(&latencies, 0.99),
            tail(&report.late_ms(), 0.99),
        );
    }
    m.count_ops(e2e.pass_times.len(), e2e.passes_failed, "predict passes");
    if let Some(mut served) = setup.served.take() {
        served.classify_sent += e2e.light.sent() + e2e.heavy.sent() + e2e.closed.sent();
        // every request sent got exactly one response: the server counted
        // as many classify requests as the client sent
        let text = workload::scrape_metrics(served.addr)?;
        let counted =
            workload::scrape_value(&text, "tsg_serve_classify_requests_total").unwrap_or(-1.0);
        m.check(
            counted == served.classify_sent as f64,
            &format!(
                "server counted {counted} classify requests, client sent {}",
                served.classify_sent
            ),
        );
        served.stop()?;
    }
    m.set("ok_share", 1.0 - m.failed as f64 / m.attempted as f64);
    m.set("peak_rss_mb", peak_rss_mb());
    Ok(m)
}
