//! `stream_ingest`: 256 synthetic meters (`validate::source_label` /
//! `validate::synthetic_power`) on 4 shards with a seeded
//! `FaultPlan::degraded()`, driven tick by tick with a flush every 16 ticks,
//! so the online rollup is at most 16 sampled seconds stale.
//!
//! The benchmark calls `ingest_tick` and `flush` itself. Each pipeline runs a
//! fixed number of ticks and is then finished and checked: the report must
//! conserve every `(tick, meter)` pair and stay within the relative-error
//! bound of the stream determinism suite against `validate::exact_energy`.
//! Pipeline `k` is seeded with `sub_seed(seed, k)`. One operation is one
//! 16-tick ingest-plus-flush cycle, the time a reading takes to reach the
//! rollup; one unit of work is one sample.

use std::time::Instant;

use sustain_core::quality::DataQualityReport;
use sustain_core::units::Energy;
use sustain_stream::pipeline::{StreamConfig, StreamPipeline, StreamReport};
use sustain_stream::validate;
use sustain_telemetry::faults::FaultPlan;
use sustain_telemetry::hierarchy::{EnergyRollup, TraceTree};

use crate::report::Tally;
use crate::trace::Passes;
use crate::{repeat_for, set_up, sub_seed, Config, EndToEnd, Traced};

/// Meters feeding the pipeline.
pub const METERS: usize = 256;
/// Ingest shards.
pub const SHARDS: usize = 4;
/// Ticks between flushes.
pub const CYCLE_TICKS: u64 = 16;
/// Cycles before a pipeline is finished, checked and replaced; bounds the
/// traces a pipeline holds to `METERS × CYCLE_TICKS × CYCLES` samples.
pub const CYCLES: u64 = 128;
/// Relative error against the exact energy that a degraded stream must
/// stay within (the bound of the stream determinism suite).
pub const MAX_RELATIVE_ERROR: f64 = 0.5;

/// Ticks one pipeline ingests.
pub fn ticks() -> u64 {
    CYCLE_TICKS * CYCLES
}

/// A pipeline with every meter registered, seeded with `seed`.
pub fn pipeline(seed: u64) -> StreamPipeline {
    let config = StreamConfig {
        shards: SHARDS,
        flush_every: CYCLE_TICKS,
        ..StreamConfig::default()
    }
    .with_seed(seed);
    let plan = FaultPlan::degraded().with_seed(seed);
    let mut pipe = StreamPipeline::new(config);
    for i in 0..METERS {
        pipe.add_source(&validate::source_label(i), &plan);
    }
    pipe
}

/// Ground truth for one pipeline's ticks.
pub fn exact_energy() -> Energy {
    validate::exact_energy(METERS, ticks(), StreamConfig::default().interval)
}

/// Whether a finished pipeline's report conserves samples, and its
/// relative error against `exact`.
pub fn verdict(report: &StreamReport, exact: Energy) -> (bool, f64) {
    (report.is_conserved(), report.relative_error(exact))
}

/// Checks a finished pipeline's [`verdict`].
pub fn check_verdict(tally: &mut Tally, seed: u64, (conserved, error): (bool, f64)) {
    tally.check(conserved, || {
        format!("pipeline {seed:#x}: report does not conserve samples")
    });
    tally.check(error < MAX_RELATIVE_ERROR, || {
        format!("pipeline {seed:#x}: relative error {error} against the exact energy")
    });
}

/// Every field of a [`StreamReport`] that the thread count must not change.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    quality: DataQualityReport,
    energy: Energy,
    ticks: u64,
    sources: usize,
    tree: TraceTree,
    rollup: EnergyRollup,
    lost_reads: u64,
    retries: u64,
    blocked_offers: u64,
    forced_releases: u64,
}

impl From<&StreamReport> for Fingerprint {
    fn from(r: &StreamReport) -> Fingerprint {
        Fingerprint {
            quality: r.quality,
            energy: r.energy,
            ticks: r.ticks,
            sources: r.sources,
            tree: r.tree.clone(),
            rollup: r.rollup.clone(),
            lost_reads: r.lost_reads,
            retries: r.retries,
            blocked_offers: r.blocked_offers,
            forced_releases: r.forced_releases,
        }
    }
}

/// The untraced run: pipelines on `cfg.threads` workers until
/// `cfg.seconds` have passed.
pub fn end_to_end(cfg: &Config) -> Result<EndToEnd, String> {
    let mut run = EndToEnd {
        latency_percentile: 1.0,
        names: [
            "samples_per_s",
            "rollup_p1_ms",
            "rollup_p50_ms",
            "rollup_tail_ms",
        ],
        ..EndToEnd::default()
    };
    sustain_par::ParPool::set_threads(cfg.threads);
    let tally = &mut run.tally;
    let samples_per_cycle = (METERS as u64 * CYCLE_TICKS) as f64;
    let run_pipeline = |tally: &mut Tally, exact: Energy, k: u64| {
        let seed = sub_seed(cfg.seed, k);
        let mut pipe = pipeline(seed);
        let mut ops = Vec::with_capacity(CYCLES as usize + 1);
        for _ in 0..CYCLES {
            let start = Instant::now();
            for _ in 0..CYCLE_TICKS {
                pipe.ingest_tick(validate::synthetic_power);
            }
            pipe.flush();
            ops.push((samples_per_cycle, start.elapsed().as_secs_f64()));
        }
        let start = Instant::now();
        let report = pipe.finish();
        let finish_s = start.elapsed().as_secs_f64();
        check_verdict(tally, seed, verdict(&report, exact));
        (ops, finish_s)
    };
    // Set-up: the exact reference energy, a pipeline with every meter
    // registered (seeded apart from the measured pipelines), and one
    // warm-up cycle.
    let (exact, setup_s) = set_up(|i| {
        let exact = exact_energy();
        let mut pipe = pipeline(sub_seed(cfg.seed, u64::MAX - i));
        for _ in 0..CYCLE_TICKS {
            pipe.ingest_tick(validate::synthetic_power);
        }
        pipe.flush();
        Ok(exact)
    })?;
    run.setup_s = setup_s;

    let (ops, latencies) = (&mut run.ops, &mut run.latencies_ms);
    let pipelines = repeat_for(cfg.seconds, |k| {
        let (cycles, finish_s) = run_pipeline(tally, exact, k);
        latencies.extend(cycles.iter().map(|&(_, s)| s * 1e3));
        ops.extend(cycles);
        ops.push((0.0, finish_s));
    });
    sustain_par::ParPool::set_threads(0);
    run.notes.push(("pipelines", pipelines.to_string()));
    run.notes.push(("ticks_per_pipeline", ticks().to_string()));
    Ok(run)
}

/// The traced run: one pipeline seeded with `sub_seed(seed, 0)` in the
/// three passes, with `bench.stream.ingest_tick`, `bench.stream.flush` and
/// `bench.stream.finish` spans around the benchmark's calls.
pub fn traced(cfg: &Config) -> Result<Traced, String> {
    let seed = sub_seed(cfg.seed, 0);
    let exact = exact_energy();
    let mut tally = Tally::default();
    let mut verdicts = Vec::new();
    let mut last = None;
    let passes = Passes::run(cfg.threads, &mut tally, |_| {
        let obs = sustain_obs::handle();
        let mut pipe = pipeline(seed);
        let mut peak = 0;
        for _ in 0..CYCLES {
            for _ in 0..CYCLE_TICKS {
                let _span = obs.span("bench.stream.ingest_tick");
                pipe.ingest_tick(validate::synthetic_power);
                peak = peak.max(pipe.buffered());
            }
            let _span = obs.span("bench.stream.flush");
            pipe.flush();
        }
        let report = {
            let _span = obs.span("bench.stream.finish");
            pipe.finish()
        };
        let fingerprint = (Fingerprint::from(&report), peak);
        verdicts.push(verdict(&report, exact));
        last = Some(report);
        fingerprint
    });
    for v in verdicts {
        check_verdict(&mut tally, seed, v);
    }
    let layers = passes.layers(&mut tally);
    let report = last.ok_or("no pipeline ran")?;
    let faults = &report.quality.faults;
    let cycles = CYCLES as f64;

    let mut metrics = passes.common_metrics(&layers, cycles);
    metrics.extend([
        (
            "stream.ingest_busy_ms",
            layers.total_ms("bench.stream.ingest_tick") / cycles,
        ),
        (
            "stream.flush_busy_ms",
            layers.total_ms("bench.stream.flush") / cycles,
        ),
        (
            "stream.flush_p50_us",
            layers.median_ms("bench.stream.flush") * 1e3,
        ),
        ("stream.finish_ms", layers.median_ms("bench.stream.finish")),
        ("stream.blocked_offers_total", report.blocked_offers as f64),
        ("stream.queue_drops_total", faults.queue_drops as f64),
        ("stream.retries_total", report.retries as f64),
        ("stream.late_total", faults.late_arrivals as f64),
        ("stream.peak_buffered_samples", passes.output.1 as f64),
        ("telemetry.coverage", report.quality.coverage().value()),
        (
            "telemetry.imputed_share",
            report.quality.imputed_share().value(),
        ),
    ]);
    Ok(Traced {
        metrics,
        tally,
        notes: vec![
            ("pipeline_seed", format!("{seed:#x}")),
            ("ticks", ticks().to_string()),
            ("per", "ms metrics are per 16-tick cycle".into()),
            (
                "zero_because",
                "no figure generator or fleet replica runs in this workload".into(),
            ),
        ],
    })
}
