//! Differential tests for cached Monte Carlo replicas and the
//! `ReplicaSummary` / `run_replicas_with_chaos` edge cases, plus the
//! never-panic contract of decoding replica entries read back from disk.
//!
//! The contract: attaching a [`Cache`] to a [`FleetSim`] must be
//! *invisible* in every report — cached and uncached batches compare equal
//! with `PartialEq` (exact f64 equality), at any thread count, across
//! handle reuse, and under chaos. Replica keys derive from (config, chaos,
//! per-index seed), so shrinking a batch re-serves a strict prefix and
//! growing one only computes the new tail.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sustain_cache::{Cache, CacheValue};
use sustain_core::intensity::GridRegion;
use sustain_core::units::{Power, TimeSpan};
use sustain_fleet::chaos::ChaosConfig;
use sustain_fleet::cluster::Cluster;
use sustain_fleet::datacenter::DataCenter;
use sustain_fleet::sim::{FleetSim, FleetSimReport, ReplicaSummary};
use sustain_fleet::utilization::UtilizationModel;
use sustain_telemetry::faults::FaultPlan;
use sustain_workload::training::{JobClass, JobGenerator};

fn sim() -> FleetSim {
    FleetSim::new(
        Cluster::gpu_training(4),
        DataCenter::hyperscale("dc", GridRegion::UsAverage, Power::from_megawatts(10.0)),
        JobGenerator::calibrated(JobClass::Research).expect("calibrated generator"),
        UtilizationModel::research_cluster(),
        8.0,
        TimeSpan::from_days(2.0),
    )
}

#[test]
fn zero_replicas_is_empty_everywhere() {
    let cache = Cache::in_memory();
    let reports = sim().run_replicas_with_chaos(0, 17, &ChaosConfig::none());
    assert!(reports.is_empty());
    let cached = sim()
        .with_cache(&cache)
        .run_replicas_with_chaos(0, 17, &ChaosConfig::none());
    assert!(cached.is_empty());
    assert_eq!((cache.hits(), cache.misses()), (0, 0));
    assert!(ReplicaSummary::from_reports(&reports).is_none());
}

#[test]
fn single_replica_matches_direct_run_and_hits_when_warm() {
    let cache = Cache::in_memory();
    let fleet = sim().with_cache(&cache);
    let cold = fleet.run_replicas_with_chaos(1, 23, &ChaosConfig::none());
    assert_eq!(cold.len(), 1);
    assert_eq!((cache.hits(), cache.misses()), (0, 1));

    // The cached single replica equals a direct, cache-free run under the
    // derived seed.
    let direct = sim().run(&mut StdRng::seed_from_u64(sustain_par::task_seed(23, 0)));
    assert_eq!(cold[0], direct);

    let warm = fleet.run_replicas_with_chaos(1, 23, &ChaosConfig::none());
    assert_eq!(warm, cold);
    assert_eq!((cache.hits(), cache.misses()), (1, 1));

    let summary = ReplicaSummary::from_reports(&warm).expect("one replica");
    assert_eq!(summary.replicas, 1);
    assert_eq!(summary.min_it_energy, summary.max_it_energy);
    assert_eq!(summary.mean_it_energy, warm[0].it_energy);
}

#[test]
fn shrinking_a_cached_batch_serves_a_strict_prefix() {
    let cache = Cache::in_memory();
    let fleet = sim().with_cache(&cache);
    let six = fleet.run_replicas_with_chaos(6, 29, &ChaosConfig::none());
    assert_eq!((cache.hits(), cache.misses()), (0, 6));

    let four = fleet.run_replicas_with_chaos(4, 29, &ChaosConfig::none());
    assert_eq!(four.as_slice(), &six[..4], "shrunk batch must be a prefix");
    assert_eq!(
        (cache.hits(), cache.misses()),
        (4, 6),
        "every replica of the smaller batch must be served from cache"
    );
}

#[test]
fn growing_a_cached_batch_computes_only_the_tail() {
    let cache = Cache::in_memory();
    let fleet = sim().with_cache(&cache);
    let four = fleet.run_replicas_with_chaos(4, 31, &ChaosConfig::none());
    assert_eq!((cache.hits(), cache.misses()), (0, 4));

    let seven = fleet.run_replicas_with_chaos(7, 31, &ChaosConfig::none());
    assert_eq!(&seven[..4], four.as_slice());
    assert_eq!(
        (cache.hits(), cache.misses()),
        (4, 7),
        "growing 4 -> 7 must hit the cached prefix and compute 3 new replicas"
    );
    // The uncached batch agrees exactly.
    assert_eq!(
        seven,
        sim().run_replicas_with_chaos(7, 31, &ChaosConfig::none())
    );
}

#[test]
fn cached_batches_are_thread_count_independent() {
    use sustain_par::ParPool;
    let cache = Cache::in_memory();
    let fleet = sim().with_cache(&cache);
    ParPool::set_threads(1);
    let serial = fleet.run_replicas_with_chaos(5, 37, &ChaosConfig::none());
    ParPool::set_threads(4);
    let parallel = fleet.run_replicas_with_chaos(5, 37, &ChaosConfig::none());
    ParPool::set_threads(0);
    assert_eq!(serial, parallel);
    assert_eq!(
        (cache.hits(), cache.misses()),
        (5, 5),
        "the 4-thread run must be served entirely from the 1-thread run's entries"
    );
}

#[test]
fn chaos_batches_cache_by_config() {
    let cache = Cache::in_memory();
    let fleet = sim().with_cache(&cache);
    let chaos = ChaosConfig::datacenter_default();
    let a = fleet.run_replicas_with_chaos(3, 41, &chaos);
    assert_eq!((cache.hits(), cache.misses()), (0, 3));

    // Same chaos config: all hits, equal to the uncached batch.
    let b = fleet.run_replicas_with_chaos(3, 41, &chaos);
    assert_eq!(a, b);
    assert_eq!(a, sim().run_replicas_with_chaos(3, 41, &chaos));
    assert_eq!((cache.hits(), cache.misses()), (3, 3));

    // Zero-rate chaos under the same seeds addresses its own entries: keys
    // follow the configuration, so distinct configs never cross-serve.
    let zero = fleet.run_replicas_with_chaos(3, 41, &ChaosConfig::none());
    assert_eq!((cache.hits(), cache.misses()), (3, 6));
    for (i, replica) in zero.iter().enumerate() {
        let seed = sustain_par::task_seed(41, i as u64);
        assert_eq!(
            *replica,
            sim().run(&mut StdRng::seed_from_u64(seed)),
            "ChaosConfig::none() replicas must reproduce plain runs"
        );
    }
}

#[test]
fn disk_cached_replicas_round_trip_exactly() {
    let dir = std::env::temp_dir().join(format!("sustain-replica-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold_cache = Cache::at_dir(&dir).expect("cache dir");
    let cold = sim()
        .with_cache(&cold_cache)
        .run_replicas_with_chaos(3, 43, &ChaosConfig::none());
    assert_eq!((cold_cache.hits(), cold_cache.misses()), (0, 3));

    // A fresh handle on the same directory sees only the disk layer, so
    // equality here proves the serde round-trip is exact (PartialEq over
    // every f64 field).
    let warm_cache = Cache::at_dir(&dir).expect("cache dir");
    let warm = sim()
        .with_cache(&warm_cache)
        .run_replicas_with_chaos(3, 43, &ChaosConfig::none());
    assert_eq!(warm, cold);
    assert_eq!((warm_cache.hits(), warm_cache.misses()), (3, 0));

    let summary_cold = ReplicaSummary::from_reports(&cold).expect("non-empty");
    let summary_warm = ReplicaSummary::from_reports(&warm).expect("non-empty");
    assert_eq!(summary_cold, summary_warm);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A chaos report carrying its metering `quality` section, with its cache
/// encoding — the richest shape a replica entry on disk can take.
fn quality_entry() -> (FleetSimReport, Vec<u8>) {
    let chaos = ChaosConfig::datacenter_default()
        .with_telemetry(FaultPlan::degraded().with_seed(3).with_dropout(0.2));
    let report = sim().run_with_chaos(&mut StdRng::seed_from_u64(47), &chaos);
    assert!(report.quality.is_some(), "telemetry plan attaches quality");
    let bytes = report.to_cache_bytes();
    (report, bytes)
}

#[test]
fn replica_entries_decode_exactly_or_not_at_all() {
    let (report, bytes) = quality_entry();
    assert_eq!(FleetSimReport::from_cache_bytes(&bytes), Some(report));

    // A torn write leaves a prefix: never a report, never a panic.
    for cut in 0..bytes.len() {
        assert!(
            FleetSimReport::from_cache_bytes(&bytes[..cut]).is_none(),
            "prefix of {cut} bytes decoded"
        );
    }

    // Every object key swapped for an unpaired surrogate escape.
    let text = std::str::from_utf8(&bytes).expect("encoding is UTF-8");
    let key_ends: Vec<usize> = text.match_indices("\":").map(|(end, _)| end).collect();
    assert!(
        key_ends.len() > 20,
        "only {} keys in {text}",
        key_ends.len()
    );
    for end in key_ends {
        let open = text[..end].rfind('"').expect("key has an opening quote");
        let corrupt = format!(r"{}\uDBFF\uD800{}", &text[..=open], &text[end..]);
        assert!(
            FleetSimReport::from_cache_bytes(corrupt.as_bytes()).is_none(),
            "corrupt key {} decoded",
            &text[open..=end]
        );
    }
}

proptest! {
    #[test]
    fn arbitrary_replica_entries_never_panic(
        noise in prop::collection::vec(0u16..256, 0..512),
        splice in (0usize..4096, 0u16..256),
    ) {
        let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
        let _ = FleetSimReport::from_cache_bytes(&noise);

        // One byte of a valid entry overwritten: decodes or is rejected.
        let (_, mut spliced) = quality_entry();
        let at = splice.0 % spliced.len();
        spliced[at] = splice.1 as u8;
        let _ = FleetSimReport::from_cache_bytes(&spliced);
    }
}
