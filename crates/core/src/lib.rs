//! # qosc-core — Dynamic QoS-Aware Coalition Formation
//!
//! The primary contribution of Nogueira & Pinho (2005), as a library:
//!
//! * [`CompiledRequest`] — the multi-attribute proposal evaluation of
//!   §6 (equations 2–5: rank-derived weights, normalised continuous
//!   differences, Quality-Index positional differences, admissibility),
//!   compiled once per resolved request (flat `w_k·w_i` weight products,
//!   domain normalizers, Quality-Index position tables) with batched
//!   scoring ([`CompiledRequest::evaluate_batch`]).
//! * [`Formulator`] / [`BundlePlan`] — the local proposal-formulation
//!   heuristic of §5 with the eq. 1 reward ([`LinearPenalty`],
//!   [`QuadraticPenalty`]), built as a reusable engine: heap-driven
//!   O(log A) degradation steps, prefix-feasibility shedding for
//!   overloaded bundles, and one shared [`BundlePlan`] per announced
//!   bundle (compiled tasks, recorded degradation trajectories).
//! * [`OrganizerEngine`] / [`ProviderEngine`] — the §4.2 negotiation
//!   protocol as sans-IO state machines covering the full coalition life
//!   cycle (Formation / Operation with heartbeat monitoring and
//!   failure-triggered reconfiguration / Dissolution).
//! * [`select_winners`] — winner selection with the paper's three-level
//!   tie-break (evaluation value ≻ communication cost ≻ distinct members),
//!   fully configurable for ablations ([`TieBreak`]).
//! * [`runtime`] — one execution API, two backends: the engines run
//!   unmodified on the deterministic DES ([`DesRuntime`]) or the
//!   zero-latency in-memory fast path ([`DirectRuntime`]).
//!
//! ## Quick start
//!
//! Three heterogeneous nodes negotiate a one-task coalition on the
//! zero-latency [`DirectRuntime`]; swap in [`DesRuntime`] without
//! touching the scenario (see the [`runtime`] module docs for the
//! two-backend version of this exact snippet).
//!
//! ```
//! use std::sync::Arc;
//! use qosc_core::{
//!     CoalitionNode, DirectRuntime, NegoEvent, OrganizerConfig, OrganizerEngine,
//!     ProviderConfig, ProviderEngine, Runtime,
//! };
//! use qosc_netsim::SimTime;
//! use qosc_resources::{av_demand_model, ResourceVector};
//! use qosc_spec::{catalog, ServiceDef, TaskDef};
//!
//! let spec = catalog::av_spec();
//! let mut rt = DirectRuntime::new();
//! for i in 0..3u32 {
//!     // Providers with heterogeneous CPU; node 0 also organizes.
//!     let mut p = ProviderEngine::new(
//!         i,
//!         ResourceVector::new(100.0 + 150.0 * i as f64, 256.0, 5000.0, 40.0, 4000.0),
//!         ProviderConfig::default(),
//!     );
//!     p.register_demand_model(spec.name(), Arc::new(av_demand_model(&spec)));
//!     let mut node = CoalitionNode::new(i).with_provider(p);
//!     if i == 0 {
//!         node = node.with_organizer(OrganizerEngine::new(i, OrganizerConfig::default()));
//!     }
//!     rt.add_node(node).unwrap();
//! }
//! // One service with one surveillance task, requested at node 0.
//! let service = ServiceDef::new(
//!     "demo",
//!     vec![TaskDef {
//!         name: "camera".into(),
//!         spec: spec.clone(),
//!         request: catalog::surveillance_request(),
//!         input_bytes: 50_000,
//!         output_bytes: 5_000,
//!     }],
//! );
//! rt.submit(0, service, SimTime(1_000)).unwrap();
//! rt.run(SimTime(5_000_000));
//! assert!(rt
//!     .events()
//!     .iter()
//!     .any(|e| matches!(e.event, NegoEvent::Formed { .. })));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod compiled;
mod evaluation;
mod formation;
mod formulation;
mod metrics;
mod organizer;
mod protocol;
mod provider;
pub mod runtime;
pub mod snapshot;
pub mod strategy;

// The unit tests pin the engines to the `qosc_baselines` reference
// oracles on catalog inputs. Compiling the oracle source here (rather
// than depending on `qosc-baselines`, which depends on this crate) keeps
// one copy of the oracles and lets them run on this crate's own types;
// the alias resolves the oracle's `qosc_core::` imports to this crate.
#[cfg(test)]
extern crate self as qosc_core;
// Its items are `pub` for `qosc-baselines`, which re-exports them; here
// the module is private, so `unreachable_pub` would flag every one.
#[cfg(test)]
#[allow(unreachable_pub)]
#[path = "../../baselines/src/oracle.rs"]
mod oracle;

pub use compiled::CompiledRequest;
pub use evaluation::{DifMode, EvalConfig, Inadmissible, WeightScheme};
pub use formation::{select_winners, Candidate, Criterion, Selection, TieBreak};
pub use formulation::{
    BundlePlan, Formulated, FormulationError, Formulator, LinearPenalty, PreparedTask,
    QuadraticPenalty, RewardModel,
};
pub use metrics::{NegoEvent, NegotiationMetrics, TaskOutcome};
pub use organizer::{NegoPhase, OrganizerConfig, OrganizerEngine, TaskLifecycle};
pub use protocol::{
    decode_timer, Action, Msg, NegoId, Pid, TaskAnnouncement, TaskProposal, TimerKind,
};
pub use provider::{ProposalStrategy, ProviderConfig, ProviderEngine};
pub use runtime::{
    dissolve_token, kickoff_token, single_organizer_scenario, CoalitionNode, DesRuntime,
    DirectRuntime, LoggedEvent, NodeEngine, Runtime, RuntimeError,
};
pub use snapshot::{digest_of, StableHasher, StateDigest};
pub use strategy::{OrganizerComponent, OrganizerStrategy, ProviderComponent, ProviderStrategy};
