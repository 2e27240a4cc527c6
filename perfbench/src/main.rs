//! The benchmark's command line.
//!
//! ```text
//! perfbench --workload <figures|fleet_year|stream_ingest> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! Run it from the root of the repository with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- <args>`.
//! It prints a readable summary, then a `{"record": ...}` line holding the
//! seed, the host facts, the percentile `latency_ms` is taken at, the
//! median latency, the latency tail with its percentile, the spread of
//! operation latencies within the run (interquartile distance over the
//! median), each metric's workload-specific name, and last the result line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! Failed output checks make `correct` false; a run that cannot start
//! (unknown workload, missing inputs) prints no result and exits 1.

use std::process::ExitCode;

use sustain_perfbench::report::{self, Host, Metric, Tally};
use sustain_perfbench::{stats, Config, EndToEnd, Traced, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <figures|fleet_year|stream_ingest> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        threads: host.threads,
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} threads={} nproc={} profile={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.threads,
        host.nproc,
        host.profile
    );
    let outcome = if args.trace {
        sustain_perfbench::run_traced(&args.workload, &cfg).map(traced_outcome)
    } else {
        sustain_perfbench::run_end_to_end(&args.workload, &cfg).and_then(end_to_end_outcome)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("perfbench: {}: {msg}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    for m in &outcome.metrics {
        let name = match outcome.aliases.iter().find(|(n, _)| *n == m.name) {
            Some((_, alias)) => format!("{} ({alias})", m.name),
            None => m.name.to_string(),
        };
        println!("  {name:<48} {:>16.6} {}", m.value, m.unit);
    }
    for line in &outcome.summary {
        println!("  {line}");
    }
    let tally = &outcome.tally;
    println!(
        "  {:<48} {:>16.6} ratio  ({} of {} checks failed)",
        "error_rate",
        tally.error_rate(),
        tally.failed,
        tally.attempted
    );

    let mut record = vec![
        ("workload", report::string(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", report::number(args.seconds)),
        ("trace", u8::from(args.trace).to_string()),
        (
            "host",
            format!(
                "{{\"nproc\": {}, \"threads\": {}, \"profile\": \"{}\", \"os\": \"{}\", \"arch\": \"{}\"}}",
                host.nproc, host.threads, host.profile, host.os, host.arch
            ),
        ),
        ("error_rate", report::number(tally.error_rate())),
    ];
    record.extend(outcome.record);
    if let Some(failure) = &tally.first_failure {
        record.push(("first_failure", report::string(failure)));
    }
    record.push(("metrics", report::metrics_object(&outcome.metrics)));
    let fields: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("{}: {v}", report::string(k)))
        .collect();
    println!("{{\"record\": {{{}}}}}", fields.join(", "));
    println!("{}", report::result_line(tally, &outcome.metrics));
    ExitCode::SUCCESS
}

/// Everything one run prints.
struct Outcome {
    /// The metrics of the result line.
    metrics: Vec<Metric>,
    tally: Tally,
    /// `(metric, the workload's own name for it)`.
    aliases: Vec<(&'static str, &'static str)>,
    /// Readable lines printed after the metrics.
    summary: Vec<String>,
    /// Extra fields of the record line, as JSON values.
    record: Vec<(&'static str, String)>,
}

fn end_to_end_outcome(run: EndToEnd) -> Result<Outcome, String> {
    let metrics = sustain_perfbench::end_to_end_metrics(&run)?;
    let tail = stats::tail(&run.latencies_ms).ok_or("no latency was recorded")?;
    let p50 = stats::median(&run.latencies_ms).ok_or("no latency was recorded")?;
    let throughput = sustain_perfbench::throughput_per_s(&run).ok_or("no operation was timed")?;
    let [throughput_name, latency_name, p50_name, tail_name] = run.names;
    let aliases = vec![("latency_ms", latency_name)];
    let summary = vec![
        format!(
            "{:<48} {:>16.6} 1/s    (median of 10 windows; not bounded)",
            format!("throughput_per_s ({throughput_name})"),
            throughput
        ),
        format!(
            "{:<48} {:>16.6} ms     (median of {} operations; not bounded)",
            format!("latency_p50_ms ({p50_name})"),
            p50,
            run.latencies_ms.len()
        ),
        format!(
            "{:<48} {:>16.6} ms     (p{:.2} of {} operations, {} beyond; not bounded)",
            format!("latency_tail_ms ({tail_name})"),
            tail.value,
            tail.percentile,
            tail.samples,
            stats::TAIL_BEYOND
        ),
    ];
    let names: Vec<String> = [
        ("throughput_per_s", throughput_name),
        ("latency_ms", latency_name),
        ("latency_p50_ms", p50_name),
        ("latency_tail_ms", tail_name),
    ]
    .iter()
    .map(|(m, a)| format!("{}: {}", report::string(m), report::string(a)))
    .collect();
    let mut record = vec![
        ("operations", run.latencies_ms.len().to_string()),
        ("throughput_per_s", report::number(throughput)),
        ("latency_percentile", report::number(run.latency_percentile)),
        ("latency_p50_ms", report::number(p50)),
        (
            "latency_tail_ms",
            format!(
                "{{\"value\": {}, \"percentile\": {}, \"samples\": {}}}",
                report::number(tail.value),
                report::number(tail.percentile),
                tail.samples
            ),
        ),
        (
            "latency_spread",
            report::number(stats::spread(&run.latencies_ms).unwrap_or(0.0)),
        ),
        ("aliases", format!("{{{}}}", names.join(", "))),
    ];
    record.extend(notes(&run.notes));
    Ok(Outcome {
        metrics,
        tally: run.tally,
        aliases,
        summary,
        record,
    })
}

fn traced_outcome(run: Traced) -> Outcome {
    let metrics = sustain_perfbench::per_layer_metrics(&run);
    let zero: Vec<String> = metrics
        .iter()
        .filter(|m| m.value == 0.0)
        .map(|m| report::string(m.name))
        .collect();
    let mut record = vec![("zero_metrics", format!("[{}]", zero.join(", ")))];
    record.extend(notes(&run.notes));
    Outcome {
        metrics,
        tally: run.tally,
        aliases: Vec::new(),
        summary: Vec::new(),
        record,
    }
}

/// Workload notes as JSON string fields.
fn notes(notes: &[(&'static str, String)]) -> Vec<(&'static str, String)> {
    notes.iter().map(|(k, v)| (*k, report::string(v))).collect()
}
