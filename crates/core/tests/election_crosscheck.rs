//! Cross-check between the real Raft-backed election protocol and the
//! calibrated round model the platform simulation uses (the DESIGN.md
//! substitution).
//!
//! The two measure different layers — the harness measures transport-level
//! round trips on the simulated network, the model reproduces the
//! prototype's end-to-end Fig. 11 percentiles (Python/ZMQ overhead
//! included) — so we check *structural* agreement: round counts, ordering
//! between designation modes, and the paper's "tens of milliseconds"
//! envelope.

use notebookos_core::{Designation, ElectionModel, KernelProtocolHarness, Proposal};
use notebookos_des::{SimRng, SimTime};

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

#[test]
fn harness_and_model_agree_on_round_structure() {
    // Real protocol: contested elections (proposal round + vote round)
    // take roughly twice the messages-on-the-wire time of an all-yield
    // round (which stops after the proposals commit).
    let mut contested = Vec::new();
    let mut all_yield = Vec::new();
    for seed in 0..12u64 {
        let mut h = KernelProtocolHarness::new(1000 + seed);
        contested.push(
            h.run_election(&[Proposal::Lead, Proposal::Lead, Proposal::Lead])
                .latency_us as f64,
        );
        let mut h = KernelProtocolHarness::new(2000 + seed);
        all_yield.push(
            h.run_election(&[Proposal::Yield, Proposal::Yield, Proposal::Yield])
                .latency_us as f64,
        );
    }
    let harness_ratio = mean(&contested) / mean(&all_yield);

    // Round model: same two modes.
    let model = ElectionModel::new();
    let mut rng = SimRng::seed(3);
    let elected: Vec<f64> = (0..4000)
        .map(|_| {
            model
                .designation_latency(Designation::Elected, &mut rng)
                .as_secs_f64()
        })
        .collect();
    let yielded: Vec<f64> = (0..4000)
        .map(|_| {
            model
                .designation_latency(Designation::AllYielded, &mut rng)
                .as_secs_f64()
        })
        .collect();
    let model_ratio = mean(&elected) / mean(&yielded);

    // Both layers agree the contested path costs ~2× the yield path.
    assert!(
        (1.3..3.0).contains(&harness_ratio),
        "harness contested/yield ratio {harness_ratio:.2}"
    );
    assert!(
        (1.7..2.3).contains(&model_ratio),
        "model contested/yield ratio {model_ratio:.2}"
    );
}

#[test]
fn both_layers_fit_the_papers_latency_envelope() {
    // §E: the executor-selection protocol "typically takes tens of
    // milliseconds at most".
    let mut h = KernelProtocolHarness::new(77);
    let result = h.run_election(&[Proposal::Lead, Proposal::Yield, Proposal::Yield]);
    let harness_ms = result.latency_us as f64 / 1e3;
    assert!(harness_ms < 100.0, "harness election {harness_ms:.2} ms");

    let model = ElectionModel::new();
    let mut rng = SimRng::seed(4);
    let mut samples: Vec<f64> = (0..2000)
        .map(|_| {
            model
                .designation_latency(Designation::Elected, &mut rng)
                .as_millis_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50 = samples[1000];
    assert!(
        (5.0..120.0).contains(&p50),
        "model election p50 {p50:.2} ms"
    );
}

#[test]
fn bypass_designation_skips_raft_in_both_layers() {
    // In the real protocol the bypass path never touches the Raft log for
    // LEAD/YIELD; in the model it contributes zero latency. Verify the
    // model side and verify that a harness election with a designated
    // executor (others yielding) commits exactly one LEAD for the election.
    let model = ElectionModel::new();
    let mut rng = SimRng::seed(5);
    for _ in 0..100 {
        assert_eq!(
            model.designation_latency(Designation::Bypassed, &mut rng),
            SimTime::ZERO
        );
    }

    let mut h = KernelProtocolHarness::new(88);
    let result = h.run_election(&[Proposal::Yield, Proposal::Lead, Proposal::Yield]);
    assert_eq!(result.winner, Some(1));
    let leads = h
        .network_mut()
        .applied_by(1)
        .iter()
        .filter(|c| matches!(c, notebookos_core::KernelCommand::Lead { .. }))
        .count();
    assert_eq!(leads, 1, "exactly one LEAD proposal committed");
}
