//! An [`Instance`] on the engines: the snapshot re-assembled as a
//! zero-latency [`DirectRuntime`] scenario, run to its settling event and
//! read back as an [`Allocation`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use qosc_core::strategy::{CfpContext, OfferResponse, TaskOffer};
use qosc_core::{
    CoalitionNode, DirectRuntime, Formulator, NegoEvent, OrganizerConfig, OrganizerEngine,
    ProposalStrategy, ProviderComponent, ProviderConfig, ProviderEngine, Runtime, TieBreak,
};
use qosc_netsim::SimTime;
use qosc_resources::ResourceVector;
use qosc_spec::{ServiceDef, TaskDef, TaskId};

use crate::instance::{default_reward, Allocation, Instance, Pid, Placement};

/// When the instance's service is submitted.
const SUBMIT_AT: SimTime = SimTime(1_000);

/// What each node last offered per task: `(levels, demand)` under
/// `(node, task)`, as the node's chain left the offer.
type OfferLog = Arc<Mutex<BTreeMap<(Pid, TaskId), (Vec<usize>, ResourceVector)>>>;

/// Pass-through component appended last to every node's chain: records
/// each offer that survived review, decides nothing.
struct RecordOffers(OfferLog);

impl ProviderComponent for RecordOffers {
    fn name(&self) -> &'static str {
        "record-offers"
    }

    fn review_offer(&self, ctx: &CfpContext, offer: &mut TaskOffer) -> OfferResponse {
        // Clamped to the ladders exactly as the provider clamps what it
        // proposes.
        let levels = offer
            .levels
            .iter()
            .zip(&offer.ladder)
            .map(|(&l, &len)| l.min(len.saturating_sub(1)))
            .collect();
        self.0
            .lock()
            .expect("offer log poisoned")
            .insert((ctx.node, offer.task), (levels, offer.demand));
        OfferResponse::Offer
    }
}

/// The round budget that stands for "until a round makes no progress": a
/// productive round places at least one task, and with stateless chains
/// an unproductive round repeats itself.
fn round_budget(inst: &Instance) -> u32 {
    u32::try_from(inst.tasks.len())
        .unwrap_or(u32::MAX)
        .saturating_add(1)
}

fn build(
    inst: &Instance,
    tiebreak: &TieBreak,
    strategy: ProposalStrategy,
    log: Option<&OfferLog>,
) -> DirectRuntime {
    let mut rt = DirectRuntime::new();
    let mut organizer = Some(OrganizerEngine::new(
        inst.requester,
        OrganizerConfig {
            max_rounds: round_budget(inst),
            tiebreak: *tiebreak,
            eval: inst.eval,
            monitor: false,
            chain: inst.chain.clone(),
            ..Default::default()
        },
    ));
    // One §5 engine per reward model, so nodes that degrade alike price
    // from one book of bundle plans.
    let mut formulators: Vec<Formulator> = Vec::new();
    for n in &inst.nodes {
        let reward = n.reward.as_ref().unwrap_or_else(|| default_reward());
        let formulator = match formulators
            .iter()
            .find(|f| std::ptr::addr_eq(Arc::as_ptr(f.reward()), Arc::as_ptr(reward)))
        {
            Some(f) => f.clone(),
            None => {
                formulators.push(Formulator::new(Arc::clone(reward)));
                formulators[formulators.len() - 1].clone()
            }
        };
        let chain = match log {
            Some(log) => n.chain.clone().with(RecordOffers(Arc::clone(log))),
            None => n.chain.clone(),
        };
        let mut provider = ProviderEngine::new(
            n.id,
            n.capacity,
            ProviderConfig {
                link_kbps: n.link_kbps,
                policy: n.policy,
                heartbeats: false,
                reward: Arc::clone(reward),
                strategy,
                chain,
                ..Default::default()
            },
        )
        .with_formulator(formulator);
        for (name, model) in &n.models {
            provider.register_demand_model(name.clone(), Arc::clone(model));
        }
        let mut node = CoalitionNode::new(n.id).with_provider(provider);
        if n.id == inst.requester {
            if let Some(o) = organizer.take() {
                node = node.with_organizer(o);
            }
        }
        rt.add_node(node).expect("instance node ids are unique");
    }
    // A requester that is not among the nodes only organizes.
    if let Some(o) = organizer {
        rt.add_node(CoalitionNode::new(inst.requester).with_organizer(o))
            .expect("instance node ids are unique");
    }
    rt
}

/// Re-assembles an [`Instance`] as a zero-latency runtime scenario: one
/// [`CoalitionNode`] per [`OfflineNode`](crate::OfflineNode) with its
/// capacity, link bandwidth, demand models, reward policy and chain,
/// pricing bundles by `strategy`; the requester also organizes, with the
/// instance's evaluation config and chain, `tiebreak`, a round budget
/// that follows the task count, and monitoring and heartbeats off —
/// formation only.
pub fn instance_runtime(
    inst: &Instance,
    tiebreak: &TieBreak,
    strategy: ProposalStrategy,
) -> DirectRuntime {
    build(inst, tiebreak, strategy, None)
}

/// The instance's task list as a [`ServiceDef`]: each task's own request
/// as stated, with its payload sizes. Task `i` of the service is
/// `inst.tasks[i]`.
pub fn instance_service(inst: &Instance, name: &str) -> ServiceDef {
    ServiceDef::new(
        name,
        inst.tasks
            .iter()
            .map(|t| TaskDef {
                name: format!("t{}", t.id.0),
                spec: t.spec.clone(),
                request: t.source.clone(),
                input_bytes: t.input_bytes,
                output_bytes: t.output_bytes,
            })
            .collect(),
    )
}

/// Runs the §4.2 negotiation for `inst` on the engines and reads the
/// outcome back: winner and comm cost from the settling event's metrics,
/// levels and demand from what the winner offered, and the eq. 2 distance
/// of those levels (so a rescoring organizer chain still leaves each
/// placement its true distance). Also returns the runtime as the run left
/// it, for invariant checks on the real ledgers.
pub fn protocol_run(
    inst: &Instance,
    tiebreak: &TieBreak,
    strategy: ProposalStrategy,
) -> (Allocation, DirectRuntime) {
    let log = OfferLog::default();
    let mut rt = build(inst, tiebreak, strategy, Some(&log));
    let waits = OrganizerConfig::default();
    let round = waits.proposal_wait.as_micros() + waits.award_wait.as_micros();
    let horizon = SimTime(
        SUBMIT_AT
            .as_micros()
            .saturating_add(round.saturating_mul(u64::from(round_budget(inst)))),
    );
    rt.submit(
        inst.requester,
        instance_service(inst, "instance"),
        SUBMIT_AT,
    )
    .expect("the requester organizes");
    rt.run(horizon);
    // Retry rounds update the metrics in place; the last settling event
    // carries the final ones.
    let outcomes =
        rt.events()
            .iter()
            .rev()
            .find_map(|e| match &e.event {
                NegoEvent::Formed { metrics, .. }
                | NegoEvent::FormationIncomplete { metrics, .. } => Some(metrics.outcomes.clone()),
                _ => None,
            })
            .unwrap_or_default();
    let mut offers = log.lock().expect("offer log poisoned");
    let mut alloc = Allocation::default();
    for (tid, outcome) in outcomes {
        let task = &inst.tasks[tid.0 as usize];
        let (levels, demand) = offers
            .remove(&(outcome.node, tid))
            .expect("the winner offered");
        let distance = task
            .compiled(inst.eval)
            .distance_of_levels(&levels)
            .expect("clamped levels are in range");
        alloc.placements.insert(
            task.id,
            Placement {
                node: outcome.node,
                levels,
                distance,
                comm_cost: outcome.comm_cost,
                demand,
                reward: 0.0,
            },
        );
    }
    drop(offers);
    alloc.unassigned = inst
        .tasks
        .iter()
        .map(|t| t.id)
        .filter(|id| !alloc.placements.contains_key(id))
        .collect();
    (alloc, rt)
}
