//! Random static chaos plans over random byzantine fault plans, three
//! rounds on one transport instance: the in-process bus and the socket
//! pool take the same replies, demote the same nodes for the same causes
//! and book the same traffic, round after round, and every receiver sees
//! the same word on each of them. The reference is a fresh socket pool's
//! first round, which no thread budget reaches: the pool runs one worker
//! per node whatever `CAMELOT_THREADS` says.

use camelot::cluster::{
    ChaosEffect, ChaosPlan, EvalProgram, FailureCause, FaultKind, FaultPlan, InProcess,
    ProgramEval, RoundOutcome, RoundSpec, SocketTransport, Transport, TransportTuning, WorkerMode,
};
use camelot::ff::{PrimeField, RngLike, SplitMix64};
use std::collections::BTreeSet;
use std::time::Duration;

/// Every effect, with one delay well under the 150 ms deadline and one
/// far past it, so wall clock cannot decide a delivery on the pool.
const MIX: [ChaosEffect; 8] = [
    ChaosEffect::Delay { millis: 5 },
    ChaosEffect::Delay { millis: 10_000 },
    ChaosEffect::DropFrame,
    ChaosEffect::Truncate { seed: 0 },
    ChaosEffect::Garble { seed: 0 },
    ChaosEffect::Duplicate,
    ChaosEffect::Reset,
    ChaosEffect::Hang,
];

const ROUNDS: usize = 3;

/// Each node corrupts with probability 1/5, equivocates with 1/5, and is
/// honest otherwise.
fn random_faults(nodes: usize, rng: &mut SplitMix64) -> FaultPlan {
    let faults: Vec<(usize, FaultKind)> = (0..nodes)
        .filter_map(|node| match rng.next_u64() % 5 {
            0 => Some((node, FaultKind::Corrupt { seed: rng.next_u64() })),
            1 => Some((node, FaultKind::Equivocate { seed: rng.next_u64() })),
            _ => None,
        })
        .collect();
    FaultPlan::with_faults(nodes, &faults)
}

fn assert_same_round(name: &str, got: &RoundOutcome, want: &RoundOutcome, nodes: usize) {
    assert_eq!(got.demotions, want.demotions, "{name}: demotions");
    assert_eq!(got.traffic, want.traffic, "{name}: traffic");
    assert_eq!(got.broadcasts.len(), want.broadcasts.len(), "{name}: width");
    for (poly, (got, want)) in got.broadcasts.iter().zip(&want.broadcasts).enumerate() {
        for receiver in 0..nodes {
            assert_eq!(
                got.view_for(receiver),
                want.view_for(receiver),
                "{name}: polynomial {poly}, receiver {receiver}"
            );
        }
    }
}

#[test]
fn random_static_plans_agree_across_backends_round_after_round() {
    let field = PrimeField::new(1_048_583).unwrap();
    let tuning = TransportTuning::default().with_io_deadline(Duration::from_millis(150));
    let mut causes = BTreeSet::new();
    let mut undrawn = MIX.to_vec();
    for seed in 0..6u64 {
        let mut rng = SplitMix64::new(seed);
        let nodes = 6 + (rng.next_u64() % 5) as usize;
        let chaos = ChaosPlan::random_with_mix(nodes, 50, seed, &MIX);
        for effect in (0..nodes).filter_map(|node| chaos.effect(node)) {
            // The mix's own seeds, for comparison.
            let effect = match effect {
                ChaosEffect::Truncate { .. } => ChaosEffect::Truncate { seed: 0 },
                ChaosEffect::Garble { .. } => ChaosEffect::Garble { seed: 0 },
                other => other,
            };
            undrawn.retain(|&drawn| drawn != effect);
        }
        let plan = random_faults(nodes, &mut rng);
        let points: Vec<u64> = (0..3 * nodes as u64 + 1).collect();
        let spec = RoundSpec { field: &field, points: &points, plan: &plan };
        let eval = ProgramEval::new(
            &field,
            vec![EvalProgram::Poly(vec![5, 0, 3, 1]), EvalProgram::Poly(vec![1_000_000, 999])],
        );
        let socket = || {
            SocketTransport::persistent(WorkerMode::Threads)
                .with_tuning(tuning.clone())
                .with_chaos(Some(chaos.clone()))
        };
        let backends: [(&str, Box<dyn Transport>); 2] = [
            (
                "inproc",
                Box::new(
                    InProcess::new().with_tuning(tuning.clone()).with_chaos(Some(chaos.clone())),
                ),
            ),
            ("socket", Box::new(socket())),
        ];
        let label = format!("seed {seed}, {nodes} nodes, {chaos:?}, {plan:?}");
        let reference = socket().run(&spec, &eval).unwrap_or_else(|e| panic!("{label}: {e}"));
        causes.extend(reference.demotions.iter().map(|d| d.cause));
        for round in 0..ROUNDS {
            for (name, transport) in &backends {
                let outcome =
                    transport.run(&spec, &eval).unwrap_or_else(|e| panic!("{label}: {name}: {e}"));
                let name = format!("{label}: {name}, round {round}");
                assert_same_round(&name, &outcome, &reference, nodes);
            }
        }
    }
    assert_eq!(undrawn, vec![], "the plans draw every effect of the mix");
    let expected =
        BTreeSet::from([FailureCause::Timeout, FailureCause::Reset, FailureCause::Protocol]);
    assert_eq!(causes, expected, "the plans exercise every chaos demotion");
}
