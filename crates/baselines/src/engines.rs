//! An [`Instance`] on the engines: the snapshot re-assembled as a
//! zero-latency [`DirectRuntime`] scenario, run to its settling event and
//! read back as an [`Allocation`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use qosc_core::strategy::{CfpContext, OfferResponse, TaskOffer};
use qosc_core::{
    CoalitionNode, DirectRuntime, NegoEvent, OrganizerConfig, OrganizerEngine, ProposalStrategy,
    ProviderComponent, ProviderConfig, ProviderEngine, Runtime, TieBreak,
};
use qosc_netsim::SimTime;
use qosc_resources::ResourceVector;
use qosc_spec::{ServiceDef, TaskDef, TaskId};

use crate::instance::{default_reward, Allocation, Instance, OfflineTask, Pid, Placement};

/// When the instance's service is submitted.
const SUBMIT_AT: SimTime = SimTime(1_000);

/// `(levels, demand)` of the last offer each node made per task.
type OfferLog = Arc<Mutex<BTreeMap<(Pid, TaskId), (Vec<usize>, ResourceVector)>>>;

/// Pass-through component appended last to a node's chain: records every
/// offer that survived review, levels clamped as the provider clamps them.
struct RecordOffers(OfferLog);

impl ProviderComponent for RecordOffers {
    fn name(&self) -> &'static str {
        "record-offers"
    }

    fn review_offer(&self, ctx: &CfpContext, offer: &mut TaskOffer) -> OfferResponse {
        let clamped = offer.levels.iter().zip(&offer.ladder);
        let levels = clamped.map(|(&l, &len)| l.min(len.saturating_sub(1)));
        let entry = (levels.collect(), offer.demand);
        let mut log = self.0.lock().expect("offer log poisoned");
        log.insert((ctx.node, offer.task), entry);
        OfferResponse::Offer
    }
}

fn build(
    inst: &Instance,
    tiebreak: &TieBreak,
    strategy: ProposalStrategy,
    log: Option<&OfferLog>,
) -> DirectRuntime {
    let mut rt = DirectRuntime::new();
    // "Until a round makes no progress": a productive round places at
    // least one task, and with stateless chains an unproductive one repeats.
    let max_rounds = inst.tasks.len() as u32 + 1;
    for n in &inst.nodes {
        let mut chain = n.chain.clone();
        if let Some(log) = log {
            chain = chain.with(RecordOffers(Arc::clone(log)));
        }
        let config = ProviderConfig {
            link_kbps: n.link_kbps,
            policy: n.policy,
            heartbeats: false,
            reward: Arc::clone(n.reward.as_ref().unwrap_or_else(|| default_reward())),
            strategy,
            chain,
            ..Default::default()
        };
        let mut provider = ProviderEngine::new(n.id, n.capacity, config);
        for (name, model) in &n.models {
            provider.register_demand_model(name.clone(), Arc::clone(model));
        }
        let mut node = CoalitionNode::new(n.id).with_provider(provider);
        if n.id == inst.requester {
            let config = OrganizerConfig {
                max_rounds,
                tiebreak: *tiebreak,
                eval: inst.eval,
                monitor: false,
                chain: inst.chain.clone(),
                ..Default::default()
            };
            node = node.with_organizer(OrganizerEngine::new(n.id, config));
        }
        rt.add_node(node).expect("instance node ids are unique");
    }
    rt
}

/// Re-assembles an [`Instance`] as a zero-latency runtime scenario: one
/// [`CoalitionNode`] per node with its capacity, bandwidth, models, reward
/// policy and chain, pricing bundles by `strategy`; the requester also
/// organizes under the instance's evaluation config and chain, `tiebreak`
/// and a round budget that follows the task count. Monitoring and
/// heartbeats are off — formation only.
pub fn instance_runtime(
    inst: &Instance,
    tiebreak: &TieBreak,
    strategy: ProposalStrategy,
) -> DirectRuntime {
    build(inst, tiebreak, strategy, None)
}

/// The instance's task list as a [`ServiceDef`], each task announcing its
/// own request as stated. Task `i` of the service is `inst.tasks[i]`.
pub fn instance_service(inst: &Instance, name: &str) -> ServiceDef {
    let task = |t: &OfflineTask| TaskDef {
        name: format!("t{}", t.id.0),
        spec: t.spec.clone(),
        request: t.source.clone(),
        input_bytes: t.input_bytes,
        output_bytes: t.output_bytes,
    };
    ServiceDef::new(name, inst.tasks.iter().map(task).collect())
}

/// Runs the §4.2 negotiation for `inst` on the engines and reads the
/// outcome back: winner and comm cost from the settling event's metrics,
/// levels and demand from what the winner offered, and the eq. 2 distance
/// of those levels (so a rescoring organizer chain still leaves each
/// placement its true distance). Nothing is placed when the requester is
/// not a node. Also returns the runtime as the run left it.
pub fn run_on_engines(
    inst: &Instance,
    tiebreak: &TieBreak,
    strategy: ProposalStrategy,
) -> (Allocation, DirectRuntime) {
    let log = OfferLog::default();
    let mut rt = build(inst, tiebreak, strategy, Some(&log));
    let service = instance_service(inst, "instance");
    if rt.submit(inst.requester, service, SUBMIT_AT).is_ok() {
        let waits = OrganizerConfig::default();
        let round = waits.proposal_wait.as_micros() + waits.award_wait.as_micros();
        rt.run(SimTime(SUBMIT_AT.0 + round * (inst.tasks.len() as u64 + 1)));
    }
    // Retry rounds update the metrics in place; the last settling event
    // carries the final ones.
    let settled = rt.events().iter().rev().find_map(|e| match &e.event {
        NegoEvent::Formed { metrics, .. } | NegoEvent::FormationIncomplete { metrics, .. } => {
            Some(&metrics.outcomes)
        }
        _ => None,
    });
    let mut offers = log.lock().expect("offer log poisoned");
    let mut alloc = Allocation::default();
    for (tid, outcome) in settled.into_iter().flatten() {
        let task = &inst.tasks[tid.0 as usize];
        let (levels, demand) = offers
            .remove(&(outcome.node, *tid))
            .expect("the winner offered");
        let distance = task
            .compiled(inst.eval)
            .distance_of_levels(&levels)
            .expect("clamped levels are in range");
        let placement = Placement {
            node: outcome.node,
            levels,
            distance,
            comm_cost: outcome.comm_cost,
            demand,
        };
        alloc.placements.insert(task.id, placement);
    }
    let open = inst.tasks.iter().map(|t| t.id);
    alloc.unassigned = open
        .filter(|id| !alloc.placements.contains_key(id))
        .collect();
    (alloc, rt)
}
