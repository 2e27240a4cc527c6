//! Differential equivalence suite: the event-driven `FleetSim` (the
//! `sustain-des` engine behind every public `run*` flavour) against
//! [`Parts::reference`], the retired hour-stepped loop kept here as the
//! rollup adapter's executable specification.
//!
//! Every comparison is on the *serialized* `FleetSimReport` — byte
//! equality, not approximate — across seeds × chaos on/off × thread counts
//! {1, 4}, plus the intensity-series accounting paths. If any of these
//! fail, the DES adapter has drifted from the hourly model and
//! `figures_output.txt` is about to drift with it.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sustainai::core::intensity::GridRegion;
use sustainai::core::stats::Poisson;
use sustainai::core::units::{Co2e, Energy, Fraction, Power, TimeSpan};
use sustainai::fleet::chaos::ChaosConfig;
use sustainai::fleet::cluster::Cluster;
use sustainai::fleet::datacenter::DataCenter;
use sustainai::fleet::scheduler::IntensitySeries;
use sustainai::fleet::sim::{FleetSim, FleetSimReport};
use sustainai::fleet::utilization::UtilizationModel;
use sustainai::par::ParPool;
use sustainai::telemetry::device::PowerModel;
use sustainai::telemetry::faults::{FaultInjector, ImputationPolicy};
use sustainai::telemetry::meter::FaultTolerantIntegrator;
use sustainai::workload::training::{JobClass, JobGenerator};

const SEEDS: [u64; 5] = [1, 7, 29, 0xDE5, 0xFEED_F00D];

/// The constructor arguments of one fleet: [`Parts::sim`] builds the
/// event-driven simulation from them, [`Parts::reference`] runs the
/// hour-stepped oracle over the very same parts.
struct Parts {
    cluster: Cluster,
    datacenter: DataCenter,
    jobs: JobGenerator,
    utilization: UtilizationModel,
    arrivals_per_day: f64,
    horizon: TimeSpan,
}

struct RunningJob {
    gpus: u32,
    total_gpu_hours: f64,
    remaining_gpu_hours: f64,
    utilization: Fraction,
}

fn parts(servers: u32, arrivals_per_day: f64, days: f64) -> Parts {
    Parts {
        cluster: Cluster::gpu_training(servers),
        datacenter: DataCenter::hyperscale(
            "dc",
            GridRegion::UsAverage,
            Power::from_megawatts(10.0),
        ),
        jobs: JobGenerator::calibrated(JobClass::Research).expect("calibrated generator"),
        utilization: UtilizationModel::research_cluster(),
        arrivals_per_day,
        horizon: TimeSpan::from_days(days),
    }
}

impl Parts {
    fn sim(&self) -> FleetSim {
        FleetSim::new(
            self.cluster.clone(),
            self.datacenter.clone(),
            self.jobs,
            self.utilization,
            self.arrivals_per_day,
            self.horizon,
        )
    }

    /// The retired hour-stepped loop: each hour draws arrivals, places FIFO,
    /// applies chaos (crashes, then SDC), advances running jobs and
    /// integrates energy, meters the hour through the fault injector, and
    /// accounts its carbon. With a `series`, the market basis charges feed
    /// gap hours at full location intensity.
    fn reference<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        series: Option<&IntensitySeries>,
        chaos: Option<&ChaosConfig>,
    ) -> FleetSimReport {
        let step = TimeSpan::from_hours(1.0);
        let steps = self.horizon.as_hours().ceil() as usize;
        let total_gpus = self.cluster.total_gpus() as f64;
        let arrivals = Poisson::new(self.arrivals_per_day / 24.0).expect("positive arrival rate");

        let mut queue: VecDeque<RunningJob> = VecDeque::new();
        let mut running: Vec<RunningJob> = Vec::new();
        let mut free_gpus = self.cluster.total_gpus();

        let mut it_energy = Energy::ZERO;
        let mut completed = 0u64;
        let mut allocation_acc = 0.0;
        let mut busy_util_acc = 0.0;
        let mut busy_gpu_hours = 0.0;
        let gpus_per_server = self.cluster.sku().accelerators().max(1) as f64;

        let account = self.datacenter.account();
        let mut variable_co2 = Co2e::ZERO;

        // Chaos machinery — every piece is inert (no RNG draws, exact ×1.0
        // derate) when `chaos` is absent or zero-rate.
        let servers = self.cluster.servers() as f64;
        let poisson = |per_hour: f64| {
            (per_hour > 0.0)
                .then(|| Poisson::new(per_hour).ok())
                .flatten()
        };
        let crash_dist = chaos.and_then(|c| poisson(c.crash_rate_per_server_day * servers / 24.0));
        let sdc_dist = chaos.and_then(|c| poisson(c.sdc_rate_per_server_hour() * servers));
        let progress_derate = chaos.map_or(1.0, |c| 1.0 / (1.0 + c.checkpoint.overhead.value()));
        let mut meter = chaos.and_then(|c| {
            (!c.telemetry.is_none()).then(|| {
                (
                    FaultInjector::new(&c.telemetry, "fleet-power"),
                    FaultTolerantIntegrator::new(step, ImputationPolicy::LastObservation),
                )
            })
        });
        let mut host_crashes = 0u64;
        let mut sdc_events = 0u64;
        let mut recomputed_gpu_hours = 0.0f64;
        let mut intensity_gap_hours = 0u64;
        let mut gap_co2 = Co2e::ZERO;

        for hour in 0..steps {
            let mut hour_energy = Energy::ZERO;
            // Arrivals.
            for _ in 0..arrivals.sample_count(rng) {
                let job = self.jobs.sample(rng);
                let gpu_hours = job.gpu_days() * 24.0;
                queue.push_back(RunningJob {
                    gpus: job.gpus().min(self.cluster.total_gpus()),
                    total_gpu_hours: gpu_hours,
                    remaining_gpu_hours: gpu_hours,
                    utilization: self.utilization.sample(rng),
                });
            }
            // Placement (FIFO).
            while let Some(job) = queue.front() {
                if job.gpus > free_gpus {
                    break;
                }
                free_gpus -= job.gpus;
                running.extend(queue.pop_front());
            }
            // Chaos: host crashes roll victims back to their last checkpoint
            // (half an interval of progress lost on average); SDC events
            // re-run a fraction of everything the victim had completed.
            if let Some(c) = chaos {
                if let Some(dist) = &crash_dist {
                    for _ in 0..dist.sample_count(rng) {
                        host_crashes += 1;
                        if running.is_empty() {
                            continue; // the crash hit an idle server
                        }
                        let victim = rng.gen_index(running.len());
                        let job = &mut running[victim];
                        let done = (job.total_gpu_hours - job.remaining_gpu_hours).max(0.0);
                        let rate = job.gpus as f64 * job.utilization.value() * progress_derate;
                        let lost = (0.5 * c.checkpoint.interval.as_hours() * rate).min(done);
                        job.remaining_gpu_hours += lost;
                        recomputed_gpu_hours += lost;
                    }
                }
                if let Some(dist) = &sdc_dist {
                    for _ in 0..dist.sample_count(rng) {
                        sdc_events += 1;
                        if running.is_empty() {
                            continue;
                        }
                        let victim = rng.gen_index(running.len());
                        let job = &mut running[victim];
                        let done = (job.total_gpu_hours - job.remaining_gpu_hours).max(0.0);
                        let lost = c.sdc_rerun.value() * done;
                        job.remaining_gpu_hours += lost;
                        recomputed_gpu_hours += lost;
                    }
                }
            }
            // Advance running jobs one hour and integrate energy.
            running.retain_mut(|job| {
                let gpu_hours = job.gpus as f64;
                let power = self.cluster.sku().power_model().power(job.utilization);
                // Per-GPU share of the server power envelope.
                hour_energy += power * step * (job.gpus as f64 / gpus_per_server);
                busy_util_acc += job.utilization.value() * gpu_hours;
                busy_gpu_hours += gpu_hours;
                job.remaining_gpu_hours -= gpu_hours * job.utilization.value() * progress_derate;
                let done = job.remaining_gpu_hours <= 0.0;
                if done {
                    completed += 1;
                    free_gpus += job.gpus;
                }
                !done
            });
            // Idle servers draw idle power.
            let idle_fraction = free_gpus as f64 / total_gpus;
            let idle_servers = self.cluster.servers() as f64 * idle_fraction;
            hour_energy += self.cluster.sku().power(Fraction::ZERO) * step * idle_servers;
            allocation_acc += 1.0 - idle_fraction;
            it_energy += hour_energy;
            // Chaos: the fleet's own metering sees a corrupted view of the
            // hour's mean power. The simulation keeps integrating the truth.
            if let Some((inj, integ)) = meter.as_mut() {
                let at = step * hour as f64;
                match inj.corrupt(at, step, hour_energy / step) {
                    Some((t, p)) => integ.push(t, Some(p)),
                    None => integ.push(at, None),
                };
            }
            if let Some(series) = series {
                let facility = account.pue().facility_energy(hour_energy);
                let feed_gap = chaos.is_some_and(|c| {
                    c.intensity_gap > Fraction::ZERO && rng.gen_bool(c.intensity_gap.value())
                });
                if feed_gap {
                    // Feed missing: fall back to the region's static average
                    // intensity; the hour cannot be renewably matched.
                    let co2 = account.location_based(hour_energy);
                    variable_co2 += co2;
                    gap_co2 += co2;
                    intensity_gap_hours += 1;
                } else {
                    variable_co2 += series.at(hour).emissions(facility);
                }
            }
        }

        // Embodied carbon on a time-share basis: the whole cluster exists for
        // the whole horizon, whoever used it.
        let embodied = self.cluster.total_embodied()
            * (self.horizon / self.cluster.sku().embodied().lifetime());
        let (operational_location, operational_market) = match series {
            Some(_) => {
                let matched = variable_co2 - gap_co2;
                let market = matched * account.renewable_matching().complement().value() + gap_co2;
                (variable_co2, market)
            }
            None => (
                account.location_based(it_energy),
                account.market_based(it_energy),
            ),
        };
        let quality = meter.map(|(inj, mut integ)| {
            integ.merge_faults(&inj.counts());
            let mut q = integ.report();
            q.faults.host_crashes += host_crashes;
            q
        });
        FleetSimReport {
            it_energy,
            operational_location,
            operational_market,
            embodied,
            jobs_completed: completed,
            jobs_outstanding: (queue.len() + running.len()) as u64,
            mean_allocation: Fraction::saturating(allocation_acc / steps as f64),
            mean_busy_utilization: if busy_gpu_hours > 0.0 {
                Fraction::saturating(busy_util_acc / busy_gpu_hours)
            } else {
                Fraction::ZERO
            },
            host_crashes,
            sdc_events,
            recomputed_gpu_hours,
            intensity_gap_hours,
            quality,
        }
    }
}

fn bytes(report: &FleetSimReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

/// Asserts the DES report and the reference report serialize to the same
/// bytes, with a seed-labelled failure message.
fn assert_byte_identical(des: &FleetSimReport, reference: &FleetSimReport, label: &str) {
    assert_eq!(
        bytes(des),
        bytes(reference),
        "DES path diverged from hour-stepped reference ({label})"
    );
}

#[test]
fn des_matches_reference_across_seeds_without_chaos() {
    let fleet = parts(10, 12.0, 5.0);
    for seed in SEEDS {
        let des = fleet.sim().run(&mut StdRng::seed_from_u64(seed));
        let reference = fleet.reference(&mut StdRng::seed_from_u64(seed), None, None);
        assert_byte_identical(&des, &reference, &format!("seed {seed}, no chaos"));
    }
}

#[test]
fn des_matches_reference_across_seeds_with_chaos() {
    let fleet = parts(10, 12.0, 5.0);
    let chaos = ChaosConfig::datacenter_default();
    for seed in SEEDS {
        let des = fleet
            .sim()
            .run_with_chaos(&mut StdRng::seed_from_u64(seed), &chaos);
        let reference = fleet.reference(&mut StdRng::seed_from_u64(seed), None, Some(&chaos));
        assert_byte_identical(&des, &reference, &format!("seed {seed}, chaos"));
    }
}

#[test]
fn des_matches_reference_with_zero_chaos() {
    // ChaosConfig::none() must be byte-for-byte the no-chaos run on both
    // the DES path and the reference path.
    let fleet = parts(8, 10.0, 4.0);
    let none = ChaosConfig::none();
    for seed in SEEDS {
        let des = fleet
            .sim()
            .run_with_chaos(&mut StdRng::seed_from_u64(seed), &none);
        let reference = fleet.reference(&mut StdRng::seed_from_u64(seed), None, None);
        assert_byte_identical(&des, &reference, &format!("seed {seed}, zero chaos"));
    }
}

#[test]
fn des_matches_reference_under_variable_intensity() {
    let fleet = parts(10, 12.0, 5.0);
    let series = IntensitySeries::solar_day(6);
    let none = ChaosConfig::none();
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let des = fleet
            .sim()
            .run_with_chaos_and_intensity(&mut rng, &series, &none);
        let reference = fleet.reference(&mut StdRng::seed_from_u64(seed), Some(&series), None);
        assert_byte_identical(&des, &reference, &format!("seed {seed}, intensity"));
    }
}

#[test]
fn des_matches_reference_under_chaos_and_intensity_gaps() {
    let fleet = parts(10, 12.0, 5.0);
    let series = IntensitySeries::solar_day(6);
    let chaos = ChaosConfig::datacenter_default().with_intensity_gap(Fraction::saturating(0.25));
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let des = fleet
            .sim()
            .run_with_chaos_and_intensity(&mut rng, &series, &chaos);
        let mut rng = StdRng::seed_from_u64(seed);
        let reference = fleet.reference(&mut rng, Some(&series), Some(&chaos));
        assert_byte_identical(&des, &reference, &format!("seed {seed}, chaos+intensity"));
    }
}

#[test]
fn des_replicas_match_reference_across_thread_counts() {
    // The DES path runs inside every replica task; the joined batch must be
    // byte-identical for 1 and 4 threads, and each replica must equal the
    // reference loop under its derived seed.
    let parts = parts(10, 10.0, 5.0);
    let fleet = parts.sim();
    let chaos = ChaosConfig::datacenter_default();
    for chaos_on in [false, true] {
        let config = if chaos_on { chaos } else { ChaosConfig::none() };
        ParPool::set_threads(1);
        let serial = fleet.run_replicas_with_chaos(6, 29, &config);
        ParPool::set_threads(4);
        let parallel = fleet.run_replicas_with_chaos(6, 29, &config);
        ParPool::set_threads(0);
        assert_eq!(serial, parallel, "thread-count drift (chaos={chaos_on})");
        for (i, replica) in serial.iter().enumerate() {
            let seed = sustainai::par::task_seed(29, i as u64);
            let reference = parts.reference(
                &mut StdRng::seed_from_u64(seed),
                None,
                chaos_on.then_some(&chaos),
            );
            assert_byte_identical(
                replica,
                &reference,
                &format!("replica {i}, chaos={chaos_on}"),
            );
        }
    }
}
