//! Batched CFP handling must be a pure performance optimisation: a
//! provider fed a batch through [`ProviderEngine::on_cfp_batch`] must
//! emit exactly the actions — and land in exactly the state — of an
//! identically-constructed provider fed the same messages one
//! [`ProviderEngine::on_message`] at a time. Both paths share the
//! engine's compile cache and warm-start formulation from trajectories
//! recorded by earlier messages, so this test is the pin that keeps
//! both strictly behaviour-neutral.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use std::sync::Arc;

use qosc_core::{
    digest_of, Msg, NegoId, Pid, ProposalStrategy, ProviderConfig, ProviderEngine, TaskAnnouncement,
};
use qosc_netsim::SimTime;
use qosc_resources::{av_demand_model, ResourceVector};
use qosc_spec::{catalog, TaskId};

fn fresh_provider(cpu: f64, strategy: ProposalStrategy) -> ProviderEngine {
    let mut p = ProviderEngine::new(
        5,
        ResourceVector::new(cpu, 512.0, 10_000.0, 60.0, 10_000.0),
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
/// the odd non-CFP mixed in, which the batch path must route through the
/// ordinary handler.
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
                // joined — must be a no-op on both paths.
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

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Sequential and batched delivery of the same waves produce
    /// identical action streams and identical provider state, for both
    /// proposal strategies and across capacities from starved to rich.
    #[test]
    fn batch_is_equivalent_to_sequential_delivery(
        seed in 0u64..(1 << 48), cpu in 1.0f64..600.0, joint in 0u8..2,
    ) {
        let strategy = if joint == 0 {
            ProposalStrategy::Joint
        } else {
            ProposalStrategy::Sequential
        };
        let mut sequential = fresh_provider(cpu, strategy);
        let mut batched = fresh_provider(cpu, strategy);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Several waves so warm trajectories persist across batches.
        for wave in 0..3u32 {
            let now = SimTime(1_000 + u64::from(wave) * 50_000);
            let msgs = random_wave(&mut rng, wave);
            let mut seq_actions = Vec::new();
            for (from, msg) in &msgs {
                seq_actions.extend(sequential.on_message(now, *from, msg));
            }
            let refs: Vec<(Pid, &Msg)> = msgs.iter().map(|(f, m)| (*f, m)).collect();
            let batch_actions = batched.on_cfp_batch(now, &refs);
            prop_assert_eq!(&batch_actions, &seq_actions, "wave {} diverged", wave);
            prop_assert_eq!(
                digest_of(&batched),
                digest_of(&sequential),
                "state diverged after wave {}",
                wave
            );
        }
    }
}
