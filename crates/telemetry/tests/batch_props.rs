//! Differential property suite for the dense batch kernels.
//!
//! Each type has one batch kernel over observed `(time, power)` readings:
//! [`FaultTolerantIntegrator::push_batch`] and [`PowerTrace::push_batch`].
//! Both promise *bitwise* equivalence with the per-sample `push` paths —
//! same float accumulation order, same tallies, same imputation — for any
//! sample sequence and any way of cutting it into batches. Lost ticks are
//! not part of a batch; as in the stream flush, they reach the integrator
//! through scalar `push(at, None)` calls at the cut points, which is sound
//! only because a lost tick never moves the integrator's resume point.
//! These properties drive arbitrary fault shapes (lost ticks, out-of-order
//! stragglers, gaps past the detection limit) through both paths at
//! arbitrary batch boundaries and require identical end states.

use proptest::prelude::*;

use sustain_core::units::{Power, TimeSpan};
use sustain_telemetry::faults::ImputationPolicy;
use sustain_telemetry::meter::FaultTolerantIntegrator;
use sustain_telemetry::trace::PowerTrace;

/// Decodes a proptest-generated tick list into a fault-bearing sample
/// sequence. Per tick, the kind byte selects the timestamp step — clean
/// (+1 s), a gap past the detection limit (+4.5 s), or an out-of-order
/// regression (−0.6 s) — and whether the reading was lost (`None`).
fn decode(ticks: &[(u8, f64)]) -> Vec<(TimeSpan, Option<Power>)> {
    let mut at = 100.0f64;
    ticks
        .iter()
        .map(|&(kind, watts)| {
            at += match kind % 8 {
                0 => -0.6,
                1 => 4.5,
                _ => 1.0,
            };
            let sample = (kind % 8 != 2).then(|| Power::from_watts(watts));
            (TimeSpan::from_secs(at), sample)
        })
        .collect()
}

/// Turns raw cut points into sorted, deduplicated batch boundaries over
/// `len` samples, always including both ends.
fn boundaries(cuts: &[usize], len: usize) -> Vec<usize> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (len + 1)).collect();
    bounds.push(0);
    bounds.push(len);
    bounds.sort_unstable();
    bounds.dedup();
    bounds
}

/// Splits a window of ticks into its dense observed readings (the batch)
/// and the timestamps of its lost ticks.
fn split_lost(window: &[(TimeSpan, Option<Power>)]) -> (Vec<(TimeSpan, Power)>, Vec<TimeSpan>) {
    let dense = window
        .iter()
        .filter_map(|&(t, p)| p.map(|p| (t, p)))
        .collect();
    let lost = window
        .iter()
        .filter(|(_, p)| p.is_none())
        .map(|&(t, _)| t)
        .collect();
    (dense, lost)
}

fn policy(pick: u8) -> ImputationPolicy {
    match pick % 3 {
        0 => ImputationPolicy::Linear,
        1 => ImputationPolicy::LastObservation,
        _ => ImputationPolicy::ModelBased {
            assumed: Power::from_watts(111.0),
        },
    }
}

proptest! {
    /// `FaultTolerantIntegrator::push_batch` at arbitrary batch
    /// boundaries, with each window's lost ticks pushed as `(at, None)` at
    /// the cut before its batch, is bitwise identical to per-sample pushes:
    /// same quality report, same measured/imputed energy bits, same resume
    /// point (the integrator is `PartialEq` over all of them).
    #[test]
    fn fault_tolerant_push_batch_is_split_invariant(
        ticks in prop::collection::vec((0u8..255, 1.0f64..500.0), 1..120),
        cuts in prop::collection::vec(0usize..128, 0..6),
        pick in 0u8..255,
    ) {
        let samples = decode(&ticks);
        let interval = TimeSpan::from_secs(1.0);

        let mut reference = FaultTolerantIntegrator::new(interval, policy(pick));
        let mut accepted_ref = 0usize;
        for &(at, p) in &samples {
            accepted_ref += usize::from(reference.push(at, p) && p.is_some());
        }

        // The trace mirrors every batch, as in the stream flush: with the
        // integrator's resume point in lockstep, it rejects the same
        // stragglers the integrator tallies as out-of-order.
        let mut batched = FaultTolerantIntegrator::new(interval, policy(pick));
        let mut trace = PowerTrace::new();
        let mut accepted_batch = 0usize;
        for pair in boundaries(&cuts, samples.len()).windows(2) {
            let (dense, lost) = split_lost(&samples[pair[0]..pair[1]]);
            for at in lost {
                prop_assert!(batched.push(at, None));
            }
            accepted_batch += batched.push_batch(&dense);
            trace.push_batch(&dense);
        }

        prop_assert_eq!(accepted_ref, accepted_batch);
        prop_assert_eq!(&reference, &batched);
        prop_assert_eq!(trace.len(), accepted_batch);
        prop_assert_eq!(trace.rejected(), batched.report().faults.out_of_order);
        let (r, b) = (reference.report(), batched.report());
        prop_assert_eq!(
            r.measured_energy.as_joules().to_bits(),
            b.measured_energy.as_joules().to_bits(),
            "measured energy must match bit for bit"
        );
        prop_assert_eq!(
            r.imputed_energy.as_joules().to_bits(),
            b.imputed_energy.as_joules().to_bits(),
            "imputed energy must match bit for bit"
        );
    }

    /// The SoA trace matches a plain AoS reference model under per-sample
    /// pushes, batch appends at arbitrary boundaries agree with both, and
    /// `fill_gaps` reads the two columns coherently however the trace was
    /// built.
    #[test]
    fn trace_soa_matches_aos_reference_model(
        ticks in prop::collection::vec((0u8..255, 1.0f64..500.0), 1..120),
        cuts in prop::collection::vec(0usize..128, 0..6),
    ) {
        let samples = decode(&ticks);

        // Reference AoS model: a flat (time, power) vec with the trace's
        // accept rule — observed samples append unless out of order.
        let mut model: Vec<(f64, f64)> = Vec::new();
        let mut model_rejected = 0u64;
        for &(at, p) in &samples {
            let Some(p) = p else { continue };
            if model.last().is_some_and(|&(last, _)| at.as_secs() < last) {
                model_rejected += 1;
            } else {
                model.push((at.as_secs(), p.as_watts()));
            }
        }

        let mut pushed = PowerTrace::new();
        for &(at, p) in &samples {
            if let Some(p) = p {
                pushed.push(at, p);
            }
        }
        let mut batched = PowerTrace::new();
        let mut appended = 0usize;
        for pair in boundaries(&cuts, samples.len()).windows(2) {
            appended += batched.push_batch(&split_lost(&samples[pair[0]..pair[1]]).0);
        }

        // Iteration over the SoA columns reproduces the AoS model bit for
        // bit, and the batched build matches the per-sample build exactly.
        prop_assert_eq!(pushed.len(), model.len());
        for ((t, p), &(mt, mp)) in pushed.iter().zip(&model) {
            prop_assert_eq!(t.as_secs().to_bits(), mt.to_bits());
            prop_assert_eq!(p.as_watts().to_bits(), mp.to_bits());
        }
        prop_assert_eq!(pushed.rejected(), model_rejected);
        prop_assert_eq!(batched.times(), pushed.times());
        prop_assert_eq!(batched.powers(), pushed.powers());
        prop_assert_eq!(batched.rejected(), pushed.rejected());
        prop_assert_eq!(appended, batched.len());

        let interval = TimeSpan::from_secs(1.0);
        let fill_pushed = pushed.fill_gaps(interval, ImputationPolicy::Linear);
        let fill_batched = batched.fill_gaps(interval, ImputationPolicy::Linear);
        prop_assert_eq!(fill_pushed, fill_batched);
    }
}
