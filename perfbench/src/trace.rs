//! The traced run: the same fixed input timed untraced at the full thread
//! count, untraced at one thread, and traced at the full thread count under
//! a wall-clock `Obs`, then folded into per-layer self time with
//! `sustain_prof`.
//!
//! The benchmark opens its own `bench.<layer>.<call>` spans around the calls
//! it makes into a layer's public functions; the program's existing spans
//! (`optim.*`, `fl.*`, `des.drain`, `fleet_sim.*`, `stream.*`,
//! `telemetry.integrate.batch`, `par.task`) land in the same recording
//! because the wall-clock handle is installed process-wide.

use std::time::Instant;

use sustain_obs::{AttrValue, EventRecord, Obs, ObsConfig};
use sustain_par::ParPool;
use sustain_prof::Profile;

use crate::report::Tally;
use crate::stats::median;

/// Untraced repetitions of each timed pass; the median is kept.
const UNTRACED_REPEATS: usize = 3;

/// Timings and recording of the three passes over one fixed input.
#[derive(Debug)]
pub struct Passes<T> {
    /// Median untraced wall time at the full thread count, in seconds.
    pub untraced_s: f64,
    /// Median untraced wall time at one thread, in seconds.
    pub serial_s: f64,
    /// Wall time of the traced pass at the full thread count, in seconds.
    pub traced_s: f64,
    /// Output of the traced pass.
    pub output: T,
    /// The traced pass's recording.
    pub obs: Obs,
    /// Threads of the full-thread passes.
    pub threads: usize,
}

impl<T: PartialEq> Passes<T> {
    /// Runs `work(threads)` untraced at `threads` and at one thread, then
    /// traced at `threads`, recording a check that every pass produced the
    /// same output. `work` must give the program `threads` workers (through
    /// [`ParPool::set_threads`] or an explicit pool) and must not print.
    pub fn run(threads: usize, tally: &mut Tally, mut work: impl FnMut(usize) -> T) -> Passes<T> {
        sustain_obs::install(&Obs::disabled());
        let mut timed = |threads: usize| {
            ParPool::set_threads(threads);
            let start = Instant::now();
            let output = work(threads);
            (start.elapsed().as_secs_f64(), output)
        };
        let (reference_s, reference) = timed(threads);
        let mut untraced = vec![reference_s];
        let mut serial = Vec::new();
        for _ in 0..UNTRACED_REPEATS {
            let (s, out) = timed(1);
            tally.check(out == reference, || {
                "1-thread output differs from the multi-thread output".into()
            });
            serial.push(s);
        }
        for _ in 1..UNTRACED_REPEATS {
            let (s, out) = timed(threads);
            tally.check(out == reference, || {
                "repeated untraced output differs".into()
            });
            untraced.push(s);
        }

        let obs = ObsConfig::enabled().with_wall_clock().build();
        sustain_obs::install(&obs);
        let (traced_s, output) = timed(threads);
        sustain_obs::install(&Obs::disabled());
        ParPool::set_threads(0);
        tally.check(output == reference, || {
            "traced output differs from the untraced output".into()
        });
        Passes {
            untraced_s: median(&untraced).unwrap_or(reference_s),
            serial_s: median(&serial).unwrap_or(reference_s),
            traced_s,
            output,
            obs,
            threads,
        }
    }

    /// The layer profile of the traced pass, with a check that its self
    /// times conserve the root totals.
    pub fn layers(&self, tally: &mut Tally) -> Layers {
        let layers = Layers::new(self.obs.events(), self.threads > 1);
        tally.check(layers.profile.conserves(), || {
            format!(
                "traced profile does not conserve: {} clamped spans, self {:?} vs root {:?}",
                layers.profile.clamped_spans(),
                layers.profile.self_total(),
                layers.profile.root_total()
            )
        });
        layers
    }

    /// 1-thread wall time over full-thread wall time, untraced.
    pub fn speedup(&self) -> f64 {
        self.serial_s / self.untraced_s
    }

    /// Traced wall time over untraced wall time.
    pub fn tracing_overhead(&self) -> f64 {
        self.traced_s / self.untraced_s
    }

    /// Summed `par.task` busy time over `threads ×` the traced wall time.
    pub fn efficiency(&self, layers: &Layers) -> f64 {
        layers.task_busy_s() / (self.threads as f64 * self.traced_s)
    }

    /// The metrics every workload reads off its traced pass the same way:
    /// self time of the program's own spans by layer prefix, divided by
    /// `per` (the workload's operations in the fixed input), the program's
    /// event and flush counts, and the `par` and `obs` ratios.
    pub fn common_metrics(&self, layers: &Layers, per: f64) -> Vec<(&'static str, f64)> {
        let self_ms = |prefix: &str| layers.self_ms(&[prefix]) / per;
        vec![
            ("optim.self_ms", self_ms("optim.")),
            ("edge.self_ms", self_ms("fl.")),
            ("des.events_total", self.counter("des_events_total")),
            ("des.drain_self_ms", self_ms("des.drain")),
            ("fleet.arrivals_self_ms", self_ms("fleet_sim.arrivals")),
            ("fleet.placement_self_ms", self_ms("fleet_sim.placement")),
            (
                "fleet.chaos_recovery_self_ms",
                self_ms("fleet_sim.chaos_recovery"),
            ),
            ("fleet.integrate_self_ms", self_ms("fleet_sim.integrate")),
            ("fleet.rollup_self_ms", self_ms("fleet_sim.rollup")),
            ("stream.flushes_total", layers.calls("stream.flush") as f64),
            (
                "telemetry.integrate_batch_self_ms",
                self_ms("telemetry.integrate.batch"),
            ),
            ("par.speedup", self.speedup()),
            ("par.efficiency", self.efficiency(layers)),
            ("par.map_calls_total", layers.map_calls() as f64),
            ("obs.tracing_overhead", self.tracing_overhead()),
        ]
    }

    /// A program counter from the traced pass's registry.
    pub fn counter(&self, name: &'static str) -> f64 {
        self.obs.counter(name).value()
    }
}

/// Self time by span name over one recording, with the parallel task
/// subtrees detached.
#[derive(Debug)]
pub struct Layers {
    /// The `sustain_prof` profile.
    pub profile: Profile,
    records: Vec<EventRecord>,
}

impl Layers {
    /// Profiles `records`. With `parallel`, every outermost `par.task` span
    /// becomes a root of its own: tasks that ran on worker threads
    /// overlap, so leaving them under the submitting span would push its
    /// children's sum past its own duration. Detached, the submitting
    /// span's self time is its wall time on the calling thread (waiting
    /// for its tasks included) and each task's time counts on its worker,
    /// so the profile conserves. Nested tasks run serially inside their
    /// worker and stay where they are.
    pub fn new(mut records: Vec<EventRecord>, parallel: bool) -> Layers {
        if parallel {
            let task_ids: std::collections::HashSet<u64> = records
                .iter()
                .filter_map(|r| match r {
                    EventRecord::Span { id, name, .. } if *name == "par.task" => Some(*id),
                    _ => None,
                })
                .collect();
            let parents: std::collections::HashMap<u64, Option<u64>> = records
                .iter()
                .filter_map(|r| match r {
                    EventRecord::Span { id, parent, .. } => Some((*id, *parent)),
                    _ => None,
                })
                .collect();
            let inside_task = |mut at: Option<u64>| {
                while let Some(id) = at {
                    if task_ids.contains(&id) {
                        return true;
                    }
                    at = parents.get(&id).copied().flatten();
                }
                false
            };
            let outermost: std::collections::HashSet<u64> = task_ids
                .iter()
                .copied()
                .filter(|id| !inside_task(parents.get(id).copied().flatten()))
                .collect();
            for record in &mut records {
                if let EventRecord::Span { id, parent, .. } = record {
                    if outermost.contains(id) {
                        *parent = None;
                    }
                }
            }
        }
        Layers {
            profile: sustain_prof::profile_records(&records),
            records,
        }
    }

    /// Summed self time, in ms, of every span whose name starts with one
    /// of `prefixes`.
    pub fn self_ms(&self, prefixes: &[&str]) -> f64 {
        self.profile
            .by_name()
            .iter()
            .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
            .map(|(_, s)| s.self_time.as_secs() * 1e3)
            .fold(0.0, |a, b| a + b)
    }

    /// Summed inclusive time, in ms, of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.profile
            .stats(name)
            .map_or(0.0, |s| s.total.as_secs() * 1e3)
    }

    /// Median inclusive time, in ms, of the spans named `name`.
    pub fn median_ms(&self, name: &str) -> f64 {
        self.profile
            .stats(name)
            .map_or(0.0, |s| s.median.as_secs() * 1e3)
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.profile.stats(name).map_or(0, |s| s.calls)
    }

    /// Summed `par.task` busy time, in seconds.
    pub fn task_busy_s(&self) -> f64 {
        self.total_ms("par.task") / 1e3
    }

    /// Number of `ParPool::map_indexed` calls: one `par.task` event with
    /// task index 0 per call.
    pub fn map_calls(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| {
                matches!(r, EventRecord::Instant { name: "par.task", attrs, .. }
                    if attrs.iter().any(|(k, v)| *k == "task" && *v == AttrValue::U64(0)))
            })
            .count() as u64
    }

    /// `(name, inclusive ms)` of every span whose name starts with
    /// `prefix`, in recording order.
    pub fn spans_with_prefix(&self, prefix: &str) -> Vec<(&'static str, f64)> {
        self.records
            .iter()
            .filter_map(|r| match r {
                EventRecord::Span {
                    name, start, end, ..
                } if name.starts_with(prefix) => Some((*name, (*end - *start).as_secs() * 1e3)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_tasks_are_detached_so_the_profile_conserves() {
        let obs = ObsConfig::enabled().with_wall_clock().build();
        sustain_obs::with_task_handle(&obs, || {
            let _outer = obs.span("bench.outer");
            ParPool::new(2).map_indexed(vec![1u64, 2, 3, 4], |_, x| {
                let _inner = sustain_obs::handle().span("bench.inner");
                // Nested map calls inside a task run serially on its worker.
                ParPool::current().map_indexed(vec![x], |_, y| {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    y
                })
            });
        });
        let layers = Layers::new(obs.events(), true);
        assert!(layers.profile.conserves());
        assert_eq!(layers.calls("par.task"), 8);
        assert_eq!(layers.calls("bench.inner"), 4);
        assert_eq!(layers.map_calls(), 5);
        assert!(layers.self_ms(&["bench.outer"]) > 0.0);
        assert_eq!(layers.spans_with_prefix("bench.inner").len(), 4);
    }
}
