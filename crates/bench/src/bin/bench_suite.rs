//! The repo's first perf-trajectory harness: times the full figure fan-out
//! and each paper figure at 1 thread and at P threads, and writes
//! `BENCH_par.json`.
//!
//! Wall time comes from `sustain_obs::WallClock` — the workspace's one
//! sanctioned wall-clock source. Timing never touches figure *content*:
//! the `sustain-par` determinism contract guarantees every table is
//! byte-identical at any thread count, so this binary only measures how
//! long the identical bytes take to produce.
//!
//! ```text
//! usage: bench_suite [--quick] [--reps <n>] [--threads <p>] [--out <path>]
//! ```
//!
//! * `--quick` — one rep, fan-out only (CI smoke mode).
//! * `--reps <n>` — samples per measurement (default 3).
//! * `--threads <p>` — the "parallel" thread count (default: the pool's
//!   current default, i.e. `SUSTAIN_THREADS` or available parallelism).
//! * `--out <path>` — output path (default `BENCH_par.json`).

use std::path::PathBuf;
use std::process::ExitCode;

use sustain_bench::figs;
use sustain_cache::Cache;
use sustain_core::units::{Power, TimeSpan};
use sustain_des::{Engine, Event, EventKind};
use sustain_obs::{ClockSource, WallClock};
use sustain_par::ParPool;
use sustain_stream::pipeline::{StreamConfig, StreamPipeline};
use sustain_stream::queue::Sample;
use sustain_stream::validate;
use sustain_telemetry::faults::{FaultPlan, ImputationPolicy};
use sustain_telemetry::meter::FaultTolerantIntegrator;

/// Version of the `BENCH_par.json` layout. Bumped whenever row names or
/// structure change so `cargo xtask perf --check` can refuse to compare a
/// baseline written by a different layout instead of misreading it.
/// History: 1 = unversioned seed layout; 2 = adds `schema_version` + `host`
/// fingerprint.
const SCHEMA_VERSION: u64 = 2;

struct Args {
    quick: bool,
    reps: usize,
    threads: usize,
    out: PathBuf,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("usage: bench_suite [--quick] [--reps <n>] [--threads <p>] [--out <path>]");
            return ExitCode::FAILURE;
        }
    };
    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "bench_suite: reps={} threads=1 vs {} (available parallelism {}){}",
        args.reps,
        args.threads,
        hardware,
        if args.quick { " [quick]" } else { "" }
    );

    // Warm-up: touch every code path once so the first sample is not
    // paying one-time costs the others do not.
    run_fanout(args.threads);

    let serial = sample(args.reps, || run_fanout(1));
    let parallel = sample(args.reps, || run_fanout(args.threads));
    let speedup = median(&serial) / median(&parallel).max(f64::MIN_POSITIVE);
    let tables = figs::all().len();
    // A single-core box cannot show parallel speedup: reporting the ~1.0x it
    // measures reads as a perf regression to anyone diffing the committed
    // report, so the ratio is suppressed and the reason recorded instead.
    let speedup_meaningful = hardware > 1;
    if speedup_meaningful {
        println!(
            "fan-out ({tables} tables): 1 thread median {:.1} ms, {} threads median {:.1} ms -> {:.2}x",
            median(&serial),
            args.threads,
            median(&parallel),
            speedup
        );
    } else {
        println!(
            "fan-out ({tables} tables): 1 thread median {:.1} ms, {} threads median {:.1} ms \
             (speedup suppressed: single-core host)",
            median(&serial),
            args.threads,
            median(&parallel)
        );
    }

    // Warm-vs-cold cache row: cold pays the full fan-out plus store
    // writes, warm serves every table from the content-addressed cache.
    // In-memory cache so the row measures memoization, not disk.
    let cold = sample(args.reps, || {
        run_fanout_cached(args.threads, &Cache::in_memory());
    });
    let warm_cache = Cache::in_memory();
    run_fanout_cached(args.threads, &warm_cache);
    let warm = sample(args.reps, || run_fanout_cached(args.threads, &warm_cache));
    let cache_speedup = median(&cold) / median(&warm).max(f64::MIN_POSITIVE);
    println!(
        "cache ({tables} tables): cold median {:.1} ms, warm median {:.1} ms -> {:.2}x",
        median(&cold),
        median(&warm),
        cache_speedup
    );

    // Streaming ingestion throughput: the same degraded sample stream
    // pushed through the full queue -> reorder -> integrate pipeline at 1
    // thread and at P threads. Content is thread-count-invariant (the
    // determinism suite holds it to byte equality); this only measures
    // samples/sec and the pipeline's bounded steady-state memory.
    let stream_serial = sample(args.reps, || run_stream_ingest(1));
    let stream_parallel = sample(args.reps, || run_stream_ingest(args.threads));
    let stream_samples = (STREAM_SOURCES as u64 * STREAM_TICKS) as f64;
    let rate = |ms: f64| stream_samples / (ms / 1e3).max(f64::MIN_POSITIVE);
    let peak_buffered = stream_peak_buffered();
    let buffered_bytes = peak_buffered * std::mem::size_of::<Sample>();
    println!(
        "stream-ingest ({STREAM_SOURCES} meters x {STREAM_TICKS} ticks): \
         1 thread {:.0} samples/s, {} threads {:.0} samples/s, \
         peak buffered {peak_buffered} samples ({buffered_bytes} bytes)",
        rate(median(&stream_serial)),
        args.threads,
        rate(median(&stream_parallel)),
    );

    // Batched integration kernel throughput: one million synthetic ticks
    // through the dense `FaultTolerantIntegrator::push_batch` in one call —
    // the columnar hot loop alone, no queue or reorder traffic in front of
    // it. The faulty variant leaves 1% of readings out of the batch, so
    // each hole is a 2 s gap that forces a run split plus gap imputation.
    let energy_clean_batch = energy_batch(false);
    let energy_faulty_batch = energy_batch(true);
    let energy_clean = sample(args.reps, || run_energy_integrate(&energy_clean_batch));
    let energy_faulty = sample(args.reps, || run_energy_integrate(&energy_faulty_batch));
    let energy_rate = |ms: f64| ENERGY_SAMPLES as f64 / (ms / 1e3).max(f64::MIN_POSITIVE);
    println!(
        "energy-integrate ({ENERGY_SAMPLES} samples): \
         clean {:.0} samples/s, 1% faults {:.0} samples/s",
        energy_rate(median(&energy_clean)),
        energy_rate(median(&energy_faulty)),
    );

    // Discrete-event engine dispatch throughput: a fixed token population
    // self-rescheduling through the binary-heap timeline until ~1M events
    // have dispatched. The hot row is the bare pop -> handler -> push loop
    // (what every simulated fleet-hour rides on); the logged row adds the
    // replay log the determinism suites diff against.
    let des_dispatched = run_des_events(false);
    let des_hot = sample(args.reps, || {
        run_des_events(false);
    });
    let des_logged = sample(args.reps, || {
        run_des_events(true);
    });
    let des_rate = |ms: f64| des_dispatched as f64 / (ms / 1e3).max(f64::MIN_POSITIVE);
    println!(
        "des-events ({des_dispatched} events, {DES_TOKENS} tokens): \
         hot {:.0} events/s, logged {:.0} events/s",
        des_rate(median(&des_hot)),
        des_rate(median(&des_logged)),
    );

    let mut figures_json = Vec::new();
    if !args.quick {
        for (name, generate) in figs::FIGURES {
            let serial_fig = sample(args.reps, || {
                ParPool::set_threads(1);
                let _ = generate();
            });
            let parallel_fig = sample(args.reps, || {
                ParPool::set_threads(args.threads);
                let _ = generate();
            });
            ParPool::set_threads(0);
            println!(
                "  {name}: 1 thread median {:.1} ms, {} threads median {:.1} ms",
                median(&serial_fig),
                args.threads,
                median(&parallel_fig)
            );
            figures_json.push(format!(
                "    {{\"name\": \"{name}\", \"serial\": {}, \"parallel\": {}}}",
                stat_json(&serial_fig),
                stat_json(&parallel_fig)
            ));
        }
    }

    let figures_block = if figures_json.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{}\n  ]", figures_json.join(",\n"))
    };
    // `speedup_median: null` + the note marks "not measurable here", which
    // downstream diffing must treat differently from "got slower".
    let speedup_field = if speedup_meaningful {
        format!("\"speedup_median\": {speedup:.3}")
    } else {
        "\"speedup_median\": null,\n    \
         \"speedup_note\": \"suppressed: single-core host cannot show parallel speedup\""
            .to_string()
    };
    let json = format!(
        "{{\n  \"bench\": \"par_fanout\",\n  \"schema_version\": {SCHEMA_VERSION},\n  \
         \"host\": {{\"available_parallelism\": {hardware}, \"os\": \"{}\"}},\n  \
         \"reps\": {},\n  \"threads\": {},\n  \
         \"available_parallelism\": {},\n  \"quick\": {},\n  \"fanout\": {{\n    \
         \"tables\": {},\n    \"serial\": {},\n    \"parallel\": {},\n    \
         {}\n  }},\n  \"cache\": {{\n    \
         \"tables\": {},\n    \"cold\": {},\n    \"warm\": {},\n    \
         \"warm_speedup_median\": {:.3}\n  }},\n  \"stream\": {{\n    \
         \"sources\": {},\n    \"ticks\": {},\n    \"serial\": {},\n    \"parallel\": {},\n    \
         \"samples_per_sec_serial\": {:.0},\n    \"samples_per_sec_parallel\": {:.0},\n    \
         \"peak_buffered_samples\": {},\n    \"peak_buffered_bytes\": {}\n  }},\n  \
         \"energy_integrate\": {{\n    \
         \"samples\": {},\n    \"clean\": {},\n    \"faulty\": {},\n    \
         \"samples_per_sec_clean\": {:.0},\n    \"samples_per_sec_faulty\": {:.0}\n  }},\n  \
         \"des_events\": {{\n    \
         \"events\": {},\n    \"tokens\": {},\n    \"hot\": {},\n    \"logged\": {},\n    \
         \"events_per_sec_hot\": {:.0},\n    \"events_per_sec_logged\": {:.0}\n  }},\n  \
         \"figures\": {}\n}}\n",
        std::env::consts::OS,
        args.reps,
        args.threads,
        hardware,
        args.quick,
        tables,
        stat_json(&serial),
        stat_json(&parallel),
        speedup_field,
        tables,
        stat_json(&cold),
        stat_json(&warm),
        cache_speedup,
        STREAM_SOURCES,
        STREAM_TICKS,
        stat_json(&stream_serial),
        stat_json(&stream_parallel),
        rate(median(&stream_serial)),
        rate(median(&stream_parallel)),
        peak_buffered,
        buffered_bytes,
        ENERGY_SAMPLES,
        stat_json(&energy_clean),
        stat_json(&energy_faulty),
        energy_rate(median(&energy_clean)),
        energy_rate(median(&energy_faulty)),
        des_dispatched,
        DES_TOKENS,
        stat_json(&des_hot),
        stat_json(&des_logged),
        des_rate(median(&des_hot)),
        des_rate(median(&des_logged)),
        figures_block
    );
    if let Err(err) = std::fs::write(&args.out, json) {
        eprintln!("bench_suite: failed to write {}: {err}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!("bench_suite: wrote {}", args.out.display());
    ExitCode::SUCCESS
}

/// One full figure fan-out (the same 26 tables `all_figures` prints) on a
/// pool with exactly `threads` workers.
fn run_fanout(threads: usize) {
    for table in figs::all_with_pool(&ParPool::new(threads)) {
        let _ = table.to_string();
    }
}

/// Meters and ticks of the stream-ingest measurement: enough samples
/// (128k) that queue/reorder traffic dominates setup cost, small enough
/// for a CI smoke run.
const STREAM_SOURCES: usize = 64;
const STREAM_TICKS: u64 = 2000;

/// Ticks in the energy-integrate microbench: large enough (one million)
/// that the batched kernel's per-sample cost dominates the integrator's
/// fixed setup.
const ENERGY_SAMPLES: usize = 1_000_000;

/// One reading every second with a deterministic sawtooth power profile;
/// with `fault` set, every hundredth reading is left out of the batch.
/// Each hole is a 2 s gap, past the 1.5 s detection limit, so the kernel
/// pays a run split plus linear gap imputation at 1% of the ticks.
fn energy_batch(fault: bool) -> Vec<(TimeSpan, Power)> {
    (0..ENERGY_SAMPLES)
        .filter(|i| !(fault && i % 100 == 99))
        .map(|i| {
            let at = TimeSpan::from_secs(i as f64);
            (at, Power::from_watts(250.0 + 50.0 * ((i % 17) as f64)))
        })
        .collect()
}

/// One million-tick batch through the columnar integration kernel.
fn run_energy_integrate(batch: &[(TimeSpan, Power)]) {
    let mut meter =
        FaultTolerantIntegrator::new(TimeSpan::from_secs(1.0), ImputationPolicy::Linear);
    std::hint::black_box(meter.push_batch(batch));
    std::hint::black_box(meter.report());
}

/// Target dispatch count and live token population of the `des_events`
/// microbench. One million events keeps the heap's push/pop cost dominant
/// over engine setup; 1024 concurrent tokens keeps the heap deep enough
/// that sift costs resemble a busy fleet timeline rather than a toy queue.
const DES_EVENT_TARGET: u64 = 1_000_000;
const DES_TOKENS: u64 = 1024;

/// Drains ~[`DES_EVENT_TARGET`] self-rescheduling events through a
/// [`sustain_des::Engine`] and returns the exact dispatch count (constant
/// across runs — the schedule is fully deterministic). Each token hops
/// forward by an id-derived stride so due times interleave instead of
/// marching in lockstep; with `logged`, the engine also retains the replay
/// log, measuring the bookkeeping the equivalence suites rely on.
fn run_des_events(logged: bool) -> u64 {
    let mut engine: Engine<u64> = Engine::new();
    if logged {
        engine.record_log();
    }
    engine.on(
        EventKind::CheckpointTick,
        |dispatched: &mut u64, event, timeline| {
            *dispatched += 1;
            if *dispatched < DES_EVENT_TARGET {
                let stride = event.id() % 61 + 1;
                timeline.schedule_after(stride, Event::CheckpointTick { id: event.id() });
            }
        },
    );
    for id in 0..DES_TOKENS {
        engine.schedule_at(id % 7, Event::CheckpointTick { id });
    }
    let mut dispatched = 0;
    engine.run(&mut dispatched);
    std::hint::black_box(engine.log().len());
    std::hint::black_box(dispatched)
}

fn stream_bench_config() -> StreamConfig {
    StreamConfig {
        shards: 4,
        queue_capacity: 512,
        reorder_capacity: 256,
        flush_every: 32,
        ..StreamConfig::default()
    }
}

/// One full degraded-stream ingest run on `threads` pool workers.
fn run_stream_ingest(threads: usize) {
    ParPool::set_threads(threads);
    let plan = FaultPlan::degraded().with_seed(sustain_bench::SEED);
    let mut pipe = StreamPipeline::new(stream_bench_config());
    for i in 0..STREAM_SOURCES {
        pipe.add_source(&validate::source_label(i), &plan);
    }
    pipe.run(STREAM_TICKS, validate::synthetic_power);
    let report = pipe.finish();
    ParPool::set_threads(0);
    assert!(report.is_conserved(), "bench stream must stay conserved");
}

/// The pipeline's peak in-flight sample count over a run with the flush
/// cadence of [`stream_bench_config`] — the steady-state memory bound the
/// report records alongside throughput.
fn stream_peak_buffered() -> usize {
    let plan = FaultPlan::degraded().with_seed(sustain_bench::SEED);
    let mut pipe = StreamPipeline::new(stream_bench_config());
    for i in 0..STREAM_SOURCES {
        pipe.add_source(&validate::source_label(i), &plan);
    }
    let mut peak = 0;
    for i in 0..STREAM_TICKS {
        pipe.ingest_tick(validate::synthetic_power);
        peak = peak.max(pipe.buffered());
        if (i + 1) % stream_bench_config().flush_every == 0 {
            pipe.flush();
        }
    }
    peak
}

/// [`run_fanout`] through a `sustain-cache` handle: first call per cache
/// computes and stores, later calls are served content-addressed.
fn run_fanout_cached(threads: usize, cache: &Cache) {
    for table in figs::all_with_pool_cached(&ParPool::new(threads), Some(cache)) {
        let _ = table.to_string();
    }
}

/// `reps` wall-time samples of `f`, in milliseconds.
fn sample(reps: usize, f: impl Fn()) -> Vec<f64> {
    (0..reps.max(1))
        .map(|_| {
            let clock = WallClock::new();
            f();
            clock.now().as_secs() * 1e3
        })
        .collect()
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    sorted[sorted.len() / 2]
}

fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn stat_json(samples: &[f64]) -> String {
    let rendered: Vec<String> = samples.iter().map(|s| format!("{s:.3}")).collect();
    format!(
        "{{\"median_ms\": {:.3}, \"min_ms\": {:.3}, \"samples_ms\": [{}]}}",
        median(samples),
        min(samples),
        rendered.join(", ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        quick: false,
        reps: 3,
        threads: ParPool::current().threads(),
        out: PathBuf::from("BENCH_par.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                parsed.quick = true;
                parsed.reps = 1;
            }
            "--reps" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => parsed.reps = n,
                _ => return Err("--reps requires a positive integer".to_string()),
            },
            "--threads" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => parsed.threads = n,
                _ => return Err("--threads requires a positive integer".to_string()),
            },
            "--out" => match args.next() {
                Some(path) => parsed.out = PathBuf::from(path),
                None => return Err("--out requires a path".to_string()),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}
