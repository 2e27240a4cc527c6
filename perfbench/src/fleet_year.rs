//! `fleet_year`: Monte Carlo sweeps of `FleetSim::run_replicas_with_chaos`
//! over a year-long fleet of 500 `gpu_training` servers taking 400
//! `Research` job arrivals a day under `ChaosConfig::datacenter_default()`.
//!
//! Sweep `k` uses base seed `sub_seed(seed, k)`, which also seeds the
//! telemetry fault plan of the fleet's power meter. After each sweep, and
//! outside its timing, one replica is recomputed serially with
//! `run_with_chaos` from `task_seed(base, i)` and must equal the sweep's
//! report. One operation is one sweep; one unit of work is one simulated
//! server-hour.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sustain_core::intensity::GridRegion;
use sustain_core::quality::DataQualityReport;
use sustain_core::units::{Power, TimeSpan};
use sustain_fleet::chaos::ChaosConfig;
use sustain_fleet::cluster::Cluster;
use sustain_fleet::datacenter::DataCenter;
use sustain_fleet::sim::{FleetSim, FleetSimReport};
use sustain_fleet::utilization::UtilizationModel;
use sustain_telemetry::faults::FaultPlan;
use sustain_workload::training::{JobClass, JobGenerator};

use crate::report::Tally;
use crate::trace::Passes;
use crate::{repeat_for, set_up, stats, sub_seed, Config, EndToEnd, Traced};

/// Servers in the fleet.
pub const SERVERS: u32 = 500;
/// `Research` job arrivals per day.
pub const ARRIVALS_PER_DAY: f64 = 400.0;
/// Simulated horizon, in days.
pub const DAYS: f64 = 365.0;

/// The simulated fleet.
pub fn sim() -> Result<FleetSim, String> {
    let jobs = JobGenerator::calibrated(JobClass::Research).map_err(|e| e.to_string())?;
    Ok(FleetSim::new(
        Cluster::gpu_training(SERVERS),
        DataCenter::hyperscale("dc", GridRegion::UsAverage, Power::from_megawatts(10.0)),
        jobs,
        UtilizationModel::research_cluster(),
        ARRIVALS_PER_DAY,
        TimeSpan::from_days(DAYS),
    ))
}

/// The chaos preset, with the fleet meter's fault plan seeded from `seed`.
pub fn chaos(seed: u64) -> ChaosConfig {
    ChaosConfig::datacenter_default().with_telemetry(FaultPlan::degraded().with_seed(seed))
}

/// Replicas per sweep: two per worker thread, so both workers stay busy
/// while replica run times differ.
pub fn replicas(threads: usize) -> usize {
    2 * threads
}

/// Simulated server-hours in one replica.
fn server_hours() -> f64 {
    f64::from(SERVERS) * DAYS * 24.0
}

/// One serial `run_with_chaos` of replica `index` of the sweep with `base`.
fn serial_replica(sim: &FleetSim, base: u64, index: usize) -> FleetSimReport {
    let mut rng = StdRng::seed_from_u64(sustain_par::task_seed(base, index as u64));
    sim.run_with_chaos(&mut rng, &chaos(base))
}

/// Checks that replica `index` of a sweep equals its serial recompute and
/// that it simulated work; returns the recompute's wall time in seconds.
fn check_replica(
    tally: &mut Tally,
    sim: &FleetSim,
    base: u64,
    index: usize,
    report: Option<&FleetSimReport>,
) -> f64 {
    let start = Instant::now();
    let serial = serial_replica(sim, base, index);
    let secs = start.elapsed().as_secs_f64();
    tally.check(report == Some(&serial), || {
        format!("sweep {base:#x}: replica {index} differs from its serial recompute")
    });
    tally.check(
        serial.jobs_completed > 0 && serial.it_energy.as_joules() > 0.0,
        || format!("sweep {base:#x}: replica {index} completed no work"),
    );
    secs
}

/// The untraced run: sweeps on `cfg.threads` workers until `cfg.seconds`
/// have passed.
pub fn end_to_end(cfg: &Config) -> Result<EndToEnd, String> {
    let mut run = EndToEnd {
        latency_percentile: 50.0,
        names: [
            "server_hours_per_s",
            "sweep_p50_ms",
            "sweep_p50_ms",
            "sweep_tail_ms",
        ],
        ..EndToEnd::default()
    };
    sustain_par::ParPool::set_threads(cfg.threads);
    let n = replicas(cfg.threads);
    let tally = &mut run.tally;
    let mut allocation = Vec::new();
    let mut sweep = |tally: &mut Tally, sim: &FleetSim, k: u64| {
        let base = sub_seed(cfg.seed, k);
        let start = Instant::now();
        let reports = sim.run_replicas_with_chaos(n, base, &chaos(base));
        let secs = start.elapsed().as_secs_f64();
        tally.check(reports.len() == n, || {
            format!("sweep {base:#x}: {} reports", reports.len())
        });
        let index = k as usize % n;
        check_replica(tally, sim, base, index, reports.get(index));
        allocation.extend(reports.iter().map(|r| r.mean_allocation.value()));
        secs
    };
    // Set-up: build the fleet and run one checked warm-up sweep (with
    // seeds the measured sweeps do not use).
    let (sim, setup_s) = set_up(|i| {
        let sim = sim()?;
        sweep(tally, &sim, u64::MAX - i);
        Ok(sim)
    })?;
    run.setup_s = setup_s;

    let (ops, latencies) = (&mut run.ops, &mut run.latencies_ms);
    repeat_for(cfg.seconds, |k| {
        let secs = sweep(tally, &sim, k);
        ops.push((n as f64 * server_hours(), secs));
        latencies.push(secs * 1e3);
    });
    sustain_par::ParPool::set_threads(0);
    run.notes.push(("replicas_per_sweep", n.to_string()));
    run.notes.push((
        "mean_allocation",
        format!("{:.4}", stats::median(&allocation).unwrap_or(0.0)),
    ));
    Ok(run)
}

/// The traced run: one sweep with base `sub_seed(seed, 0)` in the three
/// passes, then every replica of it recomputed serially (untraced, timed as
/// `fleet.replica_busy_ms`).
pub fn traced(cfg: &Config) -> Result<Traced, String> {
    let sim = sim()?;
    let base = sub_seed(cfg.seed, 0);
    let n = replicas(cfg.threads);
    let mut tally = Tally::default();
    let passes = Passes::run(cfg.threads, &mut tally, |_| {
        sim.run_replicas_with_chaos(n, base, &chaos(base))
    });
    let layers = passes.layers(&mut tally);
    let reports = &passes.output;

    let busy: Vec<f64> = (0..n)
        .map(|i| check_replica(&mut tally, &sim, base, i, reports.get(i)) * 1e3)
        .collect();
    let replica_ms = stats::median(&busy).unwrap_or(0.0);
    let events = passes.counter("des_events_total");

    let gpus = f64::from(Cluster::gpu_training(SERVERS).total_gpus());
    let allocated_gpu_hours: f64 = reports
        .iter()
        .map(|r| r.mean_allocation.value() * gpus * DAYS * 24.0)
        .sum();
    let recomputed: f64 = reports.iter().map(|r| r.recomputed_gpu_hours).sum();
    let mut quality = DataQualityReport::default();
    for r in reports {
        if let Some(q) = &r.quality {
            quality.merge(q);
        }
    }

    let mut metrics = passes.common_metrics(&layers, n as f64);
    metrics.extend([
        ("fleet.replica_busy_ms", replica_ms),
        ("des.events_per_s", events / n as f64 / (replica_ms / 1e3)),
        (
            "fleet.jobs_completed",
            reports.iter().map(|r| r.jobs_completed as f64).sum(),
        ),
        ("fleet.recompute_share", recomputed / allocated_gpu_hours),
        ("telemetry.coverage", quality.coverage().value()),
        ("telemetry.imputed_share", quality.imputed_share().value()),
    ]);
    Ok(Traced {
        metrics,
        tally,
        notes: vec![
            ("base_seed", format!("{base:#x}")),
            ("replicas", n.to_string()),
            ("per", "ms metrics are per replica".into()),
            (
                "zero_because",
                "no figure generator or stream pipeline runs in this workload".into(),
            ),
        ],
    })
}
