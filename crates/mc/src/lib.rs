//! # qosc-mc — exhaustive-interleaving model checking for the protocol
//!
//! Every other backend executes *one* schedule of the negotiation
//! protocol. This crate executes **all of them**: a
//! [`ModelCheckedRuntime`] implements the normal
//! [`Runtime`](qosc_core::Runtime) surface, but its `run` DFS-explores
//! every interleaving of deliverable events — pending messages × per-node
//! timers — plus every way of spending a [`FaultPlan`](qosc_netsim::FaultPlan) budget (message
//! drop, message duplication, provider crash-restart, network
//! partition), deduplicating states by canonical digest and checking
//! the configured [`Invariant`]s at every distinct state.
//!
//! Shipped properties ([`default_invariants`]):
//!
//! * `capacity_conservation` — no provider's holds overbook its
//!   resources, across concurrent CFPs;
//! * `no_orphaned_winner` — every assignment an organizer records is
//!   backed by a committed grant at the winning provider;
//! * `task_conservation` — announced tasks partition exactly into
//!   open / awarded / assigned / given-up, in every reachable state;
//! * `liveness_at_quiescence` — when no message or timer remains,
//!   every negotiation has settled (Operating or Dissolved).
//!
//! Message *reorder* needs no fault budget here: the explorer already
//! visits every delivery order. Clocks are per-node and advance only
//! when a timer fires, so "the proposal deadline beat the proposals"
//! is just another explored branch, not a tuned timeout.
//!
//! A `with_partitions(n)` budget adds *partition branches*: at any
//! unpartitioned state the explorer may split the nodes into any two
//! nonempty groups, blocking (not dropping) cross-cut messages until a
//! heal branch restores the links. Partitioned states are never
//! quiescent (heal is always enabled), so liveness judgements still see
//! every blocked delivery. [`partition_invariants`] bundles the shipped
//! properties with `no_split_brain_double_award` and
//! `liveness_after_heal` for exactly these runs — proving the
//! timeout/backoff re-announce layer neither double-awards a task
//! across a cut nor strands one after the network heals.
//!
//! ## Worked example: 2 organizers × 2 providers, drop + duplicate
//!
//! The scenario code is exactly what [`DesRuntime`](qosc_core::DesRuntime)
//! or [`DirectRuntime`](qosc_core::DirectRuntime) would take, with one
//! convention: use the `for_model_checking` configurations. They pin
//! every duration to zero — the explorer is time-abstract and visits
//! every timer-vs-delivery ordering regardless, so nonzero durations
//! only smear path-dependent timestamps into the state digest — and
//! disable heartbeats/monitoring, whose timers re-arm forever and would
//! leave no quiescent states to prove liveness on.
//!
//! This is the paper's ad-hoc-grid setting: two peer nodes, each
//! hosting *both* an organizer and a provider, each submitting one
//! single-task service — two concurrent single-round CFPs contending
//! for the same two providers. With a one-drop + one-duplicate fault
//! budget the walk applies 2 914 411 transitions to reach 1 223 731
//! distinct states; an optimised build exhausts it in about 2 s on a
//! 2-core host (the `MC_SMOKE` CI step runs exactly this check in
//! release, with the counts pinned), so the snippet below is compiled but
//! not executed as a doctest:
//!
//! ```no_run
//! use std::sync::Arc;
//! use qosc_core::{
//!     CoalitionNode, OrganizerConfig, OrganizerEngine, ProviderConfig, ProviderEngine, Runtime,
//! };
//! use qosc_mc::ModelCheckedRuntime;
//! use qosc_netsim::{FaultPlan, SimTime};
//! use qosc_resources::{av_demand_model, ResourceVector};
//! use qosc_spec::{catalog, ServiceDef, TaskDef};
//!
//! let spec = catalog::av_spec();
//! let mut rt = ModelCheckedRuntime::new();
//! // Two dual-role peers: each node is organizer *and* provider.
//! for (id, cpu) in [(0u32, 400.0), (1u32, 300.0)] {
//!     let org = OrganizerEngine::new(id, OrganizerConfig::for_model_checking());
//!     let mut p = ProviderEngine::new(
//!         id,
//!         ResourceVector::new(cpu, 512.0, 10_000.0, 60.0, 10_000.0),
//!         ProviderConfig::for_model_checking(),
//!     );
//!     p.register_demand_model(spec.name(), Arc::new(av_demand_model(&spec)));
//!     rt.add_node(CoalitionNode::new(id).with_organizer(org).with_provider(p))
//!         .unwrap();
//! }
//! // Each organizer runs one single-task CFP round, concurrently.
//! for id in 0..2u32 {
//!     let service = ServiceDef::new(
//!         format!("svc-{id}"),
//!         vec![TaskDef {
//!             name: "sense".into(),
//!             spec: spec.clone(),
//!             request: catalog::surveillance_request(),
//!             input_bytes: 50_000,
//!             output_bytes: 5_000,
//!         }],
//!     );
//!     rt.submit(id, service, SimTime::ZERO).unwrap();
//! }
//! // Branch over one drop and one duplicate anywhere in the round.
//! rt.set_fault_plan(FaultPlan::exhaustive(1, 1));
//!
//! let report = rt.check().clone();
//! assert!(report.verified(), "{:?}", report.counterexample);
//! assert!(report.quiescent_states > 0, "liveness was never exercised");
//! ```
//!
//! Dropping the `set_fault_plan` line shrinks the same scenario to
//! ~56 k transitions — small enough that the ordinary test suite
//! exhausts it on every run, in debug, alongside its one-drop variant
//! and fully faulted 1-organizer × 2-provider rounds.
//!
//! ## Why millions of states cost hundreds of engine calls
//!
//! The dedup set rests on one assumption, stated and discharged in
//! `qosc_core::snapshot` (`crates/core/src/snapshot.rs`): equal digest ⇒
//! identical future behaviour. The explorer spends the same assumption
//! once more, one level down. A walk reaches millions of *system* states
//! but only a few hundred distinct *node* states, so node states are
//! **interned** by digest (one shared instance each) and node
//! transitions **memoized** under `(node digest, local clock,
//! stimulus)` — the stimulus being start, a message by sender and
//! payload digest, a timer token, or a crash — storing the successor and
//! the messages and timers it emitted, tap applied, payloads digested.
//! The one-drop 2×2 proof applies 148 762 transitions and runs 798
//! engine callbacks ([`CheckReport::engine_calls`]); debug builds
//! recompute every hit and assert it agrees. System states are never
//! cached: each is digested and deduplicated.
//!
//! The same argument covers the properties. Everything a [`SystemView`]
//! exposes is each node's state, which its digest stands for, plus the
//! quiescent and partitioned flags. So every distinct state is checked,
//! but each *verdict* is computed once per walk, under the node digests
//! and the two flags; a hit skips `check_all`, and debug builds
//! recompute it and assert it still passes. The 73 229 distinct states
//! of the one-drop proof share 3 515 views. This is why an
//! [`Invariant`] must be a pure function of its view.
//!
//! Finally, the walk skips transitions it can prove redundant, with
//! *sleep sets* (Godefroid, *Partial-Order Methods for the Verification
//! of Concurrent Systems*, LNCS 1032, 1996, ch. 5). Two choices are
//! independent when they step different nodes, consume different
//! messages and spend different fault budgets, and neither cuts nor
//! heals the network: from any state, each stays enabled after the
//! other and both orders reach the same state. Each DFS frame keeps a
//! sleep set. A child inherits the sleep-set entries that are independent
//! of the choice it was reached by, and every choice a frame has explored
//! joins that frame's set; a choice found asleep is neither applied nor
//! counted. That loses no state: a choice `t` asleep at `s` was explored
//! from an ancestor `p`, and every step from `p` to `s` commutes with
//! it, so `t` taken at `s` leads where `t` taken at `p` followed by those
//! same steps leads — into the subtree already walked from `p`. Sleep
//! sets prune transitions, never states: the dedup set holds plain
//! digests, the pinned distinct-state, quiescent and depth counts are
//! those of the unreduced walk, and on the one-drop proof about half of
//! the transitions that walk would apply are asleep.
//!
//! An interned node keeps the fields no digest covers — metrics, caches,
//! raw hold ids — from whichever path reached it first, so whatever a
//! caller can read bypasses the table: [`ModelCheckedRuntime::replay`]
//! and the reference path behind `Runtime::{events, node,
//! messages_sent}` (the first quiescent schedule, re-executed once per
//! check) run every callback on their own nodes.
//!
//! ## Reading a counterexample
//!
//! When an invariant fails, [`CheckReport::counterexample`] carries the
//! exact schedule. [`Counterexample::render`] prints it as a numbered
//! event log, e.g. (from the mutation self-test, where a test-local
//! [`ActionTap`] rewrites a provider's `Decline` into an `Accept`):
//!
//! ```text
//! invariant `no-orphaned-winner` violated: organizer 0: nego(0/0) task
//! TaskId(0) assigned to node 1 without a backing committed grant (after
//! 7 step(s), 21 state(s) explored)
//! schedule:
//!     1. timer     n0    Kickoff nego(0/0) @0µs
//!     2. deliver   0→1  CallForProposals nego(0/0) round 0 (1 task(s))
//!     3. deliver   1→0  Proposal nego(0/0) from 1 (1 offer(s))
//!     4. timer     n0    ProposalDeadline nego(0/0) @0µs
//!     5. timer     n1    HoldExpiry nego(0/0) @0µs
//!     6. deliver   0→1  Award nego(0/0) TaskId(0) round 0
//!     7. deliver   1→0  Accept nego(0/0) TaskId(0) round 0 from 1
//! replay: ModelCheckedRuntime::replay(&counterexample.schedule)
//! ```
//!
//! Step 5 is the race: the provider's hold expired before the award
//! arrived, so its commit fails and it declines — which the planted bug
//! rewrites into an accept the organizer then trusts.
//! [`ModelCheckedRuntime::replay`] re-executes the schedule and must
//! reproduce the same violation.
//!
//! ## One fault vocabulary, two consumers
//!
//! The same [`FaultPlan`](qosc_netsim::FaultPlan) drives the sampled backends: `set_fault_plan`
//! on [`DesRuntime`](qosc_core::DesRuntime) or
//! [`DirectRuntime`](qosc_core::DirectRuntime) draws drop / duplicate /
//! reorder faults probabilistically (deterministic per seed), and
//! [`verify_runtime`] evaluates the very same invariant closures at
//! settle time. A property proved exhaustively on a small instance and
//! spot-checked on a seeded 200-node run is exercised by the *same*
//! adversity, differing only in exhaustiveness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod invariants;
mod runtime;
mod state;
pub mod trace;

pub use invariants::{
    default_invariants, partition_invariants, verify_runtime, Invariant, SystemView, Violation,
};
pub use runtime::{CheckConfig, CheckReport, ModelCheckedRuntime, Replay};
pub use state::ActionTap;
pub use trace::{Counterexample, TraceStep};
