//! perfbench: the repository's benchmark. Runs one workload against the
//! optimizer facade or service in a closed loop, checks every output
//! against `expected.txt`, and prints every metric by name with its unit;
//! the last line of standard output is one JSON object.
//!
//! ```text
//! perfbench --workload <cold_small|sql_hot|paper_sweep> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny] [--expected <file>]
//! perfbench --regen-expected
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, measured untraced and
//! scaled to a reference speed of the host (see `calib.rs`).
//! `--trace 1` reports the per-layer metrics: exact work counters from a
//! fixed request list, and layer self times from a traced run. See
//! README.md for the workloads and metrics.

mod alloc;
mod calib;
mod expected;
mod hist;
mod inputs;
mod sys;
mod trace;
mod workloads;

use expected::Expected;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Layer;
use workloads::{ColdSmall, Counters, PaperSweep, Params, SqlHot, Tally, Workload};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <cold_small|sql_hot|paper_sweep> --seed <n> \
                     --seconds <s> --trace <0|1> [--tiny] [--expected <file>]\n       \
                     perfbench --regen-expected [--expected <file>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
    regen: bool,
    expected: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        tiny: false,
        regen: false,
        expected: manifest.join("expected.txt"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--expected" => args.expected = PathBuf::from(value()?),
            "--tiny" => args.tiny = true,
            "--regen-expected" => args.regen = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    if !args.regen && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn median(mut v: Vec<Duration>) -> Duration {
    v.sort();
    v[v.len() / 2]
}

fn median_f64(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Set-ups before each window of an end-to-end run, and after the last.
const SETUPS_BETWEEN: usize = 3;

/// Untraced run: set up `params.setups` times (the last set-up is kept),
/// then measure for `dur`, setting up [`SETUPS_BETWEEN`] times more before
/// each window and after the last.
///
/// Every time metric is scaled to the reference speed of the host (see
/// [`calib`]): each window's figures, and each set-up in the measured
/// phase, by the mean tick of its window. `setup_s` is the median of the
/// scaled set-ups; the other time metrics are medians over the windows.
fn end_to_end<W: Workload>(
    w: &W,
    dur: Duration,
    params: &Params,
    pre: Duration,
    tally: &Tally,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let mut state = w.setup(tally);
    for _ in 1..params.setups {
        state = w.setup(tally);
    }
    let mut setups = Vec::new();
    let timed = w.measure(
        &state,
        1,
        dur,
        tally,
        Some(&mut || {
            for _ in 0..SETUPS_BETWEEN {
                let t0 = Instant::now();
                let s = w.setup(tally);
                setups.push(t0.elapsed());
                drop(s);
            }
        }),
    );
    // Set-up `i` ran just before window `i`; the last one, after the
    // last window.
    let last = timed.windows.len().saturating_sub(1);
    let scaled_setups: Vec<f64> = setups
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let slowdown = timed
                .windows
                .get(i.min(last))
                .map_or(1.0, |w| w.ticks.slowdown());
            s.as_secs_f64() / slowdown
        })
        .collect();
    let setup = pre.as_secs_f64() + median_f64(scaled_setups);
    let all = timed.total();
    let lat = &timed.latency;
    let ticks: u32 = timed.windows.iter().map(|w| w.ticks.count()).sum();
    notes.push(format!(
        "1 client, closed loop; {} requests in {} windows, {} beyond p99; {} set-ups, {} ticks",
        lat.n,
        timed.windows.len(),
        lat.beyond(0.99),
        setups.len(),
        ticks
    ));
    let show = |f: &dyn Fn(&workloads::Window) -> f64| {
        timed
            .windows
            .iter()
            .map(|w| format!("{:.1}", f(w)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    notes.push(format!(
        "window tick_us {}",
        show(&|w| w.ticks.mean().as_secs_f64() * 1e6)
    ));
    notes.push(format!(
        "window throughput_rps {}",
        show(&|w| w.throughput())
    ));
    notes.push(format!(
        "window cpu_us_per_request {}",
        show(&|w| w.cpu_us_per_request())
    ));
    notes.push(format!(
        "window latency_p50_us {}",
        show(&|w| w.p50_ns / 1e3)
    ));
    notes.push(format!(
        "window latency_p99_us {}",
        show(&|w| w.p99_ns / 1e3)
    ));
    notes.push(format!(
        "unscaled, pooled over the run: throughput_rps {:.1}, latency_p50_us {:.3}, \
         latency_p99_us {:.3}, cpu_us_per_request {:.3}, setup_s {:.6}",
        all.throughput(),
        lat.quantile(0.50) / 1e3,
        lat.quantile(0.99) / 1e3,
        all.cpu_us_per_request(),
        (pre + median(setups.clone())).as_secs_f64()
    ));
    let scaled = |f: fn(&workloads::Window) -> f64| {
        median_f64(
            timed
                .windows
                .iter()
                .map(|w| f(w) / w.ticks.slowdown())
                .collect(),
        )
    };
    vec![
        metric("setup_s", setup, "s"),
        metric(
            "throughput_rps",
            scaled(|w| 1.0 / w.throughput()).recip(),
            "1/s",
        ),
        metric("latency_p50_us", scaled(|w| w.p50_ns) / 1e3, "us"),
        metric("latency_p99_us", scaled(|w| w.p99_ns) / 1e3, "us"),
        metric(
            "cpu_us_per_request",
            scaled(|w| w.cpu_us_per_request()),
            "us",
        ),
        metric("peak_rss_mib", sys::peak_rss_mib(), "MiB"),
    ]
}

/// Traced run: an untraced phase (the base for the tracing overhead), the
/// same with two clients, the counter pass, then the traced phase.
fn per_layer<W: Workload>(
    w: &W,
    dur: Duration,
    params: &Params,
    tally: &Tally,
    spans: &Path,
    notes: &mut Vec<String>,
) -> (Vec<Metric>, Counters) {
    let untraced = w.measure(&w.setup(tally), 1, dur, tally, None);
    let clients = workloads::CONCURRENT_CLIENTS;
    let concurrent = w.measure(&w.setup(tally), clients, dur, tally, None);
    let untraced_mean_us = untraced.latency.mean_us();
    let c = w.count(tally);
    let traced = w.traced(dur, tally, params.span_cap);
    if let Err(e) = traced.tracer.write_spans(spans) {
        notes.push(format!("could not write spans: {e}"));
    }
    let t = &traced.tracer.totals;
    let layers: f64 = Layer::NAMED.iter().map(|&l| t.mean_us(l)).sum::<f64>() + t.other_us();
    assert!(
        (layers - t.request_us()).abs() <= 1e-6 * t.request_us().max(1.0),
        "layer self times must add up to the traced request latency"
    );
    notes.push(format!(
        "traced {} requests: named layers + core.other = {:.3} us = request {:.3} us",
        t.requests,
        layers,
        t.request_us()
    ));
    let core = &traced.core;
    let per_opt = |ns: u64| ns as f64 / core.optimized.max(1) as f64 / 1e3;
    let metrics = vec![
        metric("sql.parse_us", t.mean_us(Layer::SqlParse), "us"),
        metric("sql.bind_us", t.mean_us(Layer::SqlBind), "us"),
        metric("serve.fingerprint_us", t.mean_us(Layer::Fingerprint), "us"),
        metric("serve.cache_probe_us", t.mean_us(Layer::CacheProbe), "us"),
        metric("core.memo_reset_us", t.mean_us(Layer::MemoReset), "us"),
        metric(
            "core.context_build_us",
            t.mean_us(Layer::ContextBuild),
            "us",
        ),
        metric("core.enumerate_us", t.mean_us(Layer::Enumerate), "us"),
        metric("core.other_us", t.other_us(), "us"),
        metric("obs.traced_request_us", t.request_us(), "us"),
        metric(
            "obs.trace_overhead_share",
            t.request_us() / untraced_mean_us - 1.0,
            "ratio",
        ),
        metric(
            "concurrency.two_client_speedup",
            concurrent.throughput() / untraced.throughput(),
            "ratio",
        ),
        metric(
            "core.plans_per_s",
            ratio(core.plans_built * 1_000_000_000, core.enumerate_ns),
            "1/s",
        ),
        metric("core.worker_us", per_opt(core.worker_ns), "us"),
        metric("core.replay_us", per_opt(core.replay_ns), "us"),
        metric(
            "serve.cache_hit_ratio",
            ratio(c.cache_hits, c.cache_hits + c.cache_misses),
            "ratio",
        ),
        metric("serve.cache_evictions", c.cache_evictions as f64, "count"),
        metric(
            "serve.pool_reuse_ratio",
            ratio(c.pool_reused, c.pool_created + c.pool_reused),
            "ratio",
        ),
        metric("core.plans_built", c.core.plans_built as f64, "count"),
        metric("core.prune_attempts", c.core.prune_attempts as f64, "count"),
        metric(
            "core.prune_hit_rate",
            ratio(c.core.prune_hits, c.core.prune_attempts),
            "ratio",
        ),
        metric("core.arena_plans", c.core.arena_plans as f64, "count"),
        metric(
            "core.live_bytes_peak",
            c.core.live_bytes_peak as f64,
            "bytes",
        ),
        metric(
            "core.threads_used_max",
            c.core.threads_used_max as f64,
            "count",
        ),
        metric(
            "core.par_bucket_strata",
            c.core.par_bucket_strata as f64,
            "count",
        ),
        metric(
            "alloc.count_per_request",
            ratio(c.alloc.count, c.requests),
            "count",
        ),
        metric(
            "alloc.bytes_per_request",
            ratio(c.alloc.bytes, c.requests),
            "bytes",
        ),
    ];
    (metrics, c)
}

/// The counter pass as one JSON object; every field repeats exactly
/// across runs with the same seed.
fn exact_json(c: &Counters) -> String {
    format!(
        "{{\"requests\":{},\"allocs\":{},\"alloc_bytes\":{},\"cache_hits\":{},\"cache_misses\":{},\
         \"cache_evictions\":{},\"pool_created\":{},\"pool_reused\":{},\"optimized\":{},\
         \"plans_built\":{},\"prune_attempts\":{},\"prune_hits\":{},\"arena_plans\":{},\
         \"live_bytes_peak\":{},\"threads_used_max\":{},\"par_bucket_strata\":{}}}",
        c.requests,
        c.alloc.count,
        c.alloc.bytes,
        c.cache_hits,
        c.cache_misses,
        c.cache_evictions,
        c.pool_created,
        c.pool_reused,
        c.core.optimized,
        c.core.plans_built,
        c.core.prune_attempts,
        c.core.prune_hits,
        c.core.arena_plans,
        c.core.live_bytes_peak,
        c.core.threads_used_max,
        c.core.par_bucket_strata
    )
}

fn run<W: Workload>(
    w: &W,
    args: &Args,
    params: &Params,
    pre: Duration,
    out_dir: &Path,
) -> (Vec<Metric>, Option<Counters>, Tally, Vec<String>) {
    let tally = Tally::default();
    let dur = Duration::from_secs(args.seconds);
    let mut notes = Vec::new();
    if args.trace {
        let spans = out_dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        let (m, c) = per_layer(w, dur, params, &tally, &spans, &mut notes);
        (m, Some(c), tally, notes)
    } else {
        let m = end_to_end(w, dur, params, pre, &tally, &mut notes);
        (m, None, tally, notes)
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.regen {
        return match expected::regenerate(&args.expected) {
            Ok(()) => {
                eprintln!("wrote {}", args.expected.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("expected results not regenerated:\n{e}");
                ExitCode::FAILURE
            }
        };
    }

    // Input generation and loading the expected results are the
    // benchmark's own work: excluded from `setup_s`.
    let own = Instant::now();
    let expected = match Expected::load(&args.expected) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let params = Params::new(args.tiny);
    let seed = args.seed;
    enum Any {
        Cold(ColdSmall),
        Sql(SqlHot),
        Sweep(PaperSweep),
    }
    let workload = match args.workload.as_str() {
        "cold_small" => Any::Cold(ColdSmall::new(seed, &params, &expected)),
        "sql_hot" => Any::Sql(SqlHot::new(seed, &params, &expected)),
        "paper_sweep" => Any::Sweep(PaperSweep::new(seed, &params, &expected)),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    drop(expected);
    let pre = started.elapsed() - own.elapsed();

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let (metrics, counters, tally, notes) = match &workload {
        Any::Cold(w) => run(w, &args, &params, pre, &out_dir),
        Any::Sql(w) => run(w, &args, &params, pre, &out_dir),
        Any::Sweep(w) => run(w, &args, &params, pre, &out_dir),
    };

    let attempted = tally.attempted();
    let failed = tally.failed.load(std::sync::atomic::Ordering::Relaxed);
    let machine = sys::machine_tag(Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap());
    println!("# machine {machine}");
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for n in &notes {
        println!("# {n}");
    }
    for f in tally.notes() {
        println!("# FAILED {f}");
    }
    let failed_share = ratio(failed, attempted);
    println!("# {:<28} {:>16} ratio", "failed_share", failed_share);
    for m in &metrics {
        println!("# {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let exact = counters.as_ref().map(exact_json);
    if let Some(e) = &exact {
        println!("# exact {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    );
    let record = format!(
        "{{\"machine\": {machine}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"failed_share\": {failed_share}, \"exact\": {}, \"result\": {result}}}\n",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        exact.as_deref().unwrap_or("null")
    );
    let file = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    if let Err(e) = std::fs::write(&file, record) {
        eprintln!("cannot write {}: {e}", file.display());
    }
    println!("{result}");
    ExitCode::SUCCESS
}
