//! A provider answers whatever wave of same-instant messages it hears
//! with silence or valid proposals. The waves mix CFPs from several
//! organizers (occasionally colliding negotiation ids) with stray
//! non-CFPs, and drive providers built on hostile capacities — NaN,
//! infinite, zero or negative components, or a node already full —
//! which must answer without panicking. Every proposal they send is
//! one the CFP could have asked for: levels inside the announced
//! ladders, values read off them, a finite non-negative demand.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use std::sync::Arc;

use qosc_core::{
    Action, Msg, NegoId, Pid, ProposalStrategy, ProviderConfig, ProviderEngine, TaskAnnouncement,
};
use qosc_netsim::SimTime;
use qosc_resources::{av_demand_model, ResourceVector};
use qosc_spec::{catalog, TaskId};

fn fresh_provider(cpu: f64, strategy: ProposalStrategy) -> ProviderEngine {
    provider_with(
        ResourceVector::new(cpu, 512.0, 10_000.0, 60.0, 10_000.0),
        strategy,
    )
}

fn provider_with(capacity: ResourceVector, strategy: ProposalStrategy) -> ProviderEngine {
    let mut p = ProviderEngine::new(
        5,
        capacity,
        ProviderConfig {
            strategy,
            ..Default::default()
        },
    );
    let spec = catalog::av_spec();
    p.register_demand_model(spec.name().to_string(), Arc::new(av_demand_model(&spec)));
    p
}

/// A random wave of messages arriving at one instant: mostly CFPs from
/// different organizers (occasionally colliding negotiation ids), with
/// the odd non-CFP mixed in.
fn random_wave(rng: &mut ChaCha8Rng, wave: u32) -> Vec<(Pid, Msg)> {
    let requests = [
        catalog::surveillance_request(),
        catalog::video_conference_request(),
        catalog::voice_first_request(),
    ];
    let n = rng.gen_range(1usize..=5);
    (0..n)
        .map(|i| {
            let organizer = rng.gen_range(0u32..3);
            if rng.gen_bool(0.15) {
                // A stray non-CFP: release of a nego this provider never
                // joined — must be a no-op.
                return (
                    organizer,
                    Msg::Release {
                        nego: NegoId {
                            organizer,
                            seq: 900 + i as u32,
                        },
                    },
                );
            }
            let tasks = (0..rng.gen_range(1usize..=3))
                .map(|t| TaskAnnouncement {
                    task: TaskId(t as u32),
                    spec: catalog::av_spec(),
                    request: requests[rng.gen_range(0..requests.len())].clone(),
                    input_bytes: rng.gen_range(1_000u64..200_000),
                    output_bytes: rng.gen_range(1_000u64..50_000),
                })
                .collect();
            (
                organizer,
                Msg::CallForProposals {
                    nego: NegoId {
                        organizer,
                        seq: wave * 8 + rng.gen_range(0u32..4),
                    },
                    tasks,
                    round: 0,
                },
            )
        })
        .collect()
}

/// Every proposal in `actions`, the answer to `cfp`, is one it could have
/// asked for: levels inside the announced ladders, the offered values
/// read off them, a finite non-negative demand.
fn assert_valid_proposals(actions: &[Action], cfp: &Msg) {
    let spec = catalog::av_spec();
    for action in actions {
        let Some(Msg::Proposal { proposals, .. }) = action.payload() else {
            continue;
        };
        let Msg::CallForProposals {
            tasks: announced, ..
        } = cfp
        else {
            panic!("{cfp:?} drew a proposal");
        };
        assert!(!proposals.is_empty());
        for p in proposals {
            let ann = announced
                .iter()
                .find(|t| t.task == p.task)
                .expect("announced task");
            let request = ann
                .request
                .resolve(&spec)
                .expect("catalog requests resolve");
            assert_eq!(p.levels.len(), request.attr_count());
            for (((_, a), &l), v) in request.iter_attrs().zip(&p.levels).zip(&p.offered) {
                assert_eq!(a.levels.get(l), Some(v), "offered value is ladder[level]");
            }
            assert!(p.demand.is_valid(), "demand {:?}", p.demand);
            assert!(!p.reward.is_nan());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// A provider built on NaN, infinite, zero or negative capacity
    /// components — or a sane one whose CPU is held to the last MIPS —
    /// answers every CFP with silence or a valid proposal, never a panic.
    #[test]
    fn hostile_capacities_answer_without_panicking(
        seed in 0u64..(1 << 48), hostile in proptest::collection::vec(0usize..7, 5), joint in 0u8..2,
    ) {
        let strategy = if joint == 0 {
            ProposalStrategy::Joint
        } else {
            ProposalStrategy::Sequential
        };
        let sane = [500.0, 512.0, 10_000.0, 60.0, 10_000.0];
        let c: Vec<f64> = hostile
            .iter()
            .zip(sane)
            .map(|(&h, sane)| {
                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -5.0, sane, sane][h]
            })
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let full = {
            // Preferred surveillance demand is ~18.25 MIPS, the fully
            // degraded one ~5.95: once the first task is awarded, nothing
            // announced fits what is left of 20.
            let mut p = fresh_provider(20.0, strategy);
            let nego = NegoId { organizer: 9, seq: 0 };
            let tasks = vec![TaskAnnouncement {
                task: TaskId(0),
                spec: catalog::av_spec(),
                request: catalog::surveillance_request(),
                input_bytes: 1_000,
                output_bytes: 1_000,
            }];
            p.on_message(SimTime(1), 9, &Msg::CallForProposals { nego, tasks, round: 0 });
            p.on_message(SimTime(2), 9, &Msg::Award { nego, task: TaskId(0), round: 0 });
            prop_assert_eq!(p.executing().len(), 1);
            p
        };
        let mut providers = [
            provider_with(ResourceVector::new(c[0], c[1], c[2], c[3], c[4]), strategy),
            full,
        ];
        for wave in 0..3u32 {
            let now = SimTime(1_000 + u64::from(wave) * 50_000);
            let msgs = random_wave(&mut rng, wave);
            for p in &mut providers {
                for (from, msg) in &msgs {
                    assert_valid_proposals(&p.on_message(now, *from, msg), msg);
                }
            }
        }
        prop_assert_eq!(providers[1].holding().len(), 0, "a full node proposes nothing");
    }

}
