//! End-to-end chaos determinism: the same seed and [`ChaosConfig`] must
//! yield a byte-identical serialized [`FleetSimReport`], a zero-rate config
//! must reproduce the undisturbed simulation exactly, and a nonzero fault
//! plan must surface in the report as sub-unity coverage with imputed energy
//! accounted separately from measured.
//!
//! With the simulation on the `sustain-des` event queue, chaos is also
//! pinned at *event* granularity: a scripted crash landing mid-hour must
//! roll up to the same recovered GPU-hours as the hourly model charges at
//! the boundary, and `ChaosConfig::none()` must stay a strict byte-for-byte
//! no-op on the DES path.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sustain_core::intensity::GridRegion;
use sustain_core::units::{Energy, Power, TimeSpan};
use sustain_fleet::chaos::ChaosConfig;
use sustain_fleet::cluster::Cluster;
use sustain_fleet::datacenter::DataCenter;
use sustain_fleet::sim::FleetSim;
use sustain_fleet::utilization::UtilizationModel;
use sustain_telemetry::faults::FaultPlan;
use sustain_workload::training::{JobClass, JobGenerator};

fn sim() -> FleetSim {
    FleetSim::new(
        Cluster::gpu_training(20),
        DataCenter::hyperscale("dc", GridRegion::UsAverage, Power::from_megawatts(10.0)),
        JobGenerator::calibrated(JobClass::Research).expect("calibrated generator"),
        UtilizationModel::research_cluster(),
        20.0,
        TimeSpan::from_days(30.0),
    )
}

#[test]
fn same_seed_same_plan_is_byte_identical() {
    let chaos =
        ChaosConfig::datacenter_default().with_telemetry(FaultPlan::degraded().with_seed(99));
    let a = sim().run_with_chaos(&mut StdRng::seed_from_u64(42), &chaos);
    let b = sim().run_with_chaos(&mut StdRng::seed_from_u64(42), &chaos);
    let ja = serde_json::to_string(&a).expect("report serializes");
    let jb = serde_json::to_string(&b).expect("report serializes");
    assert_eq!(ja, jb, "same FaultPlan seed must give byte-identical JSON");
}

#[test]
fn different_seeds_diverge() {
    let chaos = ChaosConfig::datacenter_default();
    let a = sim().run_with_chaos(&mut StdRng::seed_from_u64(1), &chaos);
    let b = sim().run_with_chaos(&mut StdRng::seed_from_u64(2), &chaos);
    assert_ne!(
        serde_json::to_string(&a).expect("serializes"),
        serde_json::to_string(&b).expect("serializes")
    );
}

#[test]
fn zero_rate_config_matches_undisturbed_run_byte_for_byte() {
    let plain = sim().run(&mut StdRng::seed_from_u64(7));
    let chaotic = sim().run_with_chaos(&mut StdRng::seed_from_u64(7), &ChaosConfig::none());
    assert_eq!(
        serde_json::to_string(&plain).expect("serializes"),
        serde_json::to_string(&chaotic).expect("serializes"),
        "ChaosConfig::none() must be a strict no-op"
    );
    assert!(plain.quality.is_none());
    assert_eq!(plain.host_crashes, 0);
    assert_eq!(plain.recomputed_gpu_hours, 0.0);
}

#[test]
fn nonzero_plan_reports_degraded_coverage_and_separate_imputation() {
    let chaos = ChaosConfig::datacenter_default()
        .with_telemetry(FaultPlan::degraded().with_seed(5).with_dropout(0.1));
    let report = sim().run_with_chaos(&mut StdRng::seed_from_u64(21), &chaos);
    let q = report
        .quality
        .expect("nonzero plan attaches a quality report");
    assert!(
        q.coverage().value() < 1.0,
        "coverage must drop below 1, got {}",
        q.coverage()
    );
    assert!(q.imputed_energy > Energy::ZERO, "gaps must be imputed");
    assert!(q.measured_energy > Energy::ZERO, "most hours still metered");
    assert_eq!(q.accounted_energy(), q.measured_energy + q.imputed_energy);
    assert!(q.faults.total() > 0, "fault tallies must be recorded");
    // The quality section survives a serde round-trip with the split intact.
    let json = serde_json::to_string(&report).expect("serializes");
    let back: sustain_fleet::sim::FleetSimReport =
        serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back.quality, report.quality);
}

#[test]
fn mid_hour_crash_rolls_up_like_the_hourly_model() {
    // The hourly model charges a crash between one hour's rollup and the
    // next hour's events. On the event queue that position is the hour
    // boundary; a crash landing mid-hour (t = h:30:00) observes the exact
    // same fleet state, so the rolled-up report — recovered GPU-hours
    // included — must be byte-identical.
    let chaos = ChaosConfig::none();
    for (hour, victim) in [(10u64, 0usize), (200, 3), (700, 17)] {
        let mid_hour = [(hour * 3600 + 1800, victim)];
        let boundary = [((hour + 1) * 3600, victim)];
        let a = sim().run_with_scripted_crashes(&mut StdRng::seed_from_u64(31), &chaos, &mid_hour);
        let b = sim().run_with_scripted_crashes(&mut StdRng::seed_from_u64(31), &chaos, &boundary);
        assert!(
            a.recomputed_gpu_hours > 0.0,
            "scripted crash at hour {hour} must hit a running job"
        );
        assert_eq!(
            a.recomputed_gpu_hours, b.recomputed_gpu_hours,
            "mid-hour crash must roll up to the hourly model's recovery"
        );
        assert_eq!(
            serde_json::to_string(&a).expect("serializes"),
            serde_json::to_string(&b).expect("serializes"),
            "whole report must agree, not just the recovery tally"
        );
        assert_eq!(a.host_crashes, 1);
    }
}

#[test]
fn scripted_crash_recovery_matches_checkpoint_closed_form() {
    // One crash against a fleet busy enough that completed work exceeds
    // half a checkpoint interval: the charge is exactly
    // 0.5 × interval × victim rate, i.e. strictly positive and bounded by
    // 0.5 × interval × the whole cluster's GPU count.
    let chaos = ChaosConfig::none();
    let crash_at = 500 * 3600 + 900; // 15 minutes into hour 500
    let report =
        sim().run_with_scripted_crashes(&mut StdRng::seed_from_u64(31), &chaos, &[(crash_at, 2)]);
    let interval_hours = 6.0; // CHECKPOINT_INTERVAL_HOURS
    let cluster_gpus = 20.0 * 8.0;
    assert!(report.recomputed_gpu_hours > 0.0);
    assert!(
        report.recomputed_gpu_hours <= 0.5 * interval_hours * cluster_gpus,
        "recovery {} exceeds the half-interval bound",
        report.recomputed_gpu_hours
    );
}

#[test]
fn empty_crash_script_is_a_byte_for_byte_no_op() {
    // Scripted mode with no crashes must not perturb the RNG stream: the
    // report is byte-identical to the undisturbed run. This is the DES-path
    // analogue of the ChaosConfig::none() guarantee (the checkpoint policy
    // in `none()` has zero overhead, so the derate is exactly ×1.0).
    let plain = sim().run(&mut StdRng::seed_from_u64(7));
    let scripted =
        sim().run_with_scripted_crashes(&mut StdRng::seed_from_u64(7), &ChaosConfig::none(), &[]);
    assert_eq!(
        serde_json::to_string(&plain).expect("serializes"),
        serde_json::to_string(&scripted).expect("serializes"),
        "an empty crash script must be a strict no-op"
    );
}

#[test]
fn zero_chaos_stays_a_no_op_across_the_public_des_surface() {
    // ChaosConfig::none() under a variable-intensity feed draws no feed
    // gaps: the simulated fleet is byte-for-byte the undisturbed run, and
    // only the feed-accounted carbon differs.
    use sustain_fleet::scheduler::IntensitySeries;
    let series = IntensitySeries::solar_day(6);
    let plain = sim().run(&mut StdRng::seed_from_u64(19));
    let fed = sim().run_with_chaos_and_intensity(
        &mut StdRng::seed_from_u64(19),
        &series,
        &ChaosConfig::none(),
    );
    assert_eq!(fed.intensity_gap_hours, 0);
    // Hyperscale DC fully matches renewables, and with no gap hours every
    // hour earns the discount.
    assert!(fed.operational_market.is_zero());
    let fleet_state = sustain_fleet::sim::FleetSimReport {
        operational_location: plain.operational_location,
        operational_market: plain.operational_market,
        ..fed
    };
    assert_eq!(
        serde_json::to_string(&plain).expect("serializes"),
        serde_json::to_string(&fleet_state).expect("serializes"),
        "ChaosConfig::none() must be a no-op under variable intensity too"
    );
}
