//! The exhaustive explorer behind the [`Runtime`] surface.
//!
//! [`ModelCheckedRuntime`] accepts the exact scenario-description calls
//! every other backend accepts — `add_node`, `submit`,
//! `schedule_dissolve` — but `run` does not execute *one* schedule: it
//! DFS-explores **every** interleaving of deliverable events (pending
//! messages × per-node timers), plus every way of spending the
//! [`FaultPlan`] budgets, checking the configured [`Invariant`]s at each
//! distinct state. The first violation stops the search and yields a
//! [`Counterexample`] whose schedule [`ModelCheckedRuntime::replay`]
//! re-executes deterministically.
//!
//! Two things keep the walk from repeating work the graph does not need.
//! Each DFS frame carries a *sleep set*: choices explored from an
//! ancestor that commute with every step taken since, which would only
//! reach states already reached, so they are skipped, not applied and
//! not counted (see the crate docs for why no state is lost). And the
//! invariants are judged once per distinct view — node digests plus the
//! quiescent and partitioned flags — in a [`Verdicts`] memo that, like
//! the node table, lives and dies inside one exploration.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use qosc_core::runtime::NodeEngine;
use qosc_core::snapshot::digest_of;
use qosc_core::{
    dissolve_token, kickoff_token, CoalitionNode, LoggedEvent, Msg, NegoId, Pid, Runtime,
    RuntimeError,
};
use qosc_netsim::{FaultPlan, SimTime};
use qosc_spec::ServiceDef;

use crate::invariants::{check_all, default_invariants, Invariant, SystemView, Violation};
use crate::state::{
    ActionTap, Choice, McState, MsgKey, NodeTable, StepLog, Stepper, Stimulus, WordBuild,
};
use crate::trace::{Counterexample, TraceStep};

/// Exploration budgets and the properties to prove.
#[derive(Clone)]
pub struct CheckConfig {
    /// Fault branches the explorer may take (budgets only; the plan's
    /// sampling probabilities are ignored here).
    pub fault_plan: FaultPlan,
    /// Stop after this many transitions, reporting budget exhaustion.
    pub max_states: u64,
    /// Do not extend any schedule beyond this many steps.
    pub max_depth: usize,
    /// Properties checked at every distinct state
    /// ([`default_invariants`] unless replaced).
    pub invariants: Vec<Invariant>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self {
            fault_plan: FaultPlan::none(),
            max_states: 2_000_000,
            max_depth: 10_000,
            invariants: default_invariants(),
        }
    }
}

impl std::fmt::Debug for CheckConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckConfig")
            .field("fault_plan", &self.fault_plan)
            .field("max_states", &self.max_states)
            .field("max_depth", &self.max_depth)
            .field("invariants", &self.invariants.len())
            .finish()
    }
}

/// What an exhaustive check established.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Transitions applied (counting revisits of deduplicated states).
    /// Choices the walk's sleep sets skip are not applied and not
    /// counted: each one commutes with every step since an ancestor
    /// that already explored it, so it could only reach a state that is
    /// reached anyway.
    pub states_explored: u64,
    /// Distinct states by canonical digest (including the initial one).
    pub distinct_states: u64,
    /// Length of the longest schedule explored.
    pub max_depth_reached: usize,
    /// Distinct states with no deliverable event left.
    pub quiescent_states: u64,
    /// The first invariant violation found, with its schedule.
    pub counterexample: Option<Counterexample>,
    /// True if `max_states` or `max_depth` cut the exploration short —
    /// absence of a counterexample is then *not* a proof.
    pub budget_exhausted: bool,
    /// Distinct node states the walk interned: every successor some
    /// engine call produced (the root's nodes, stepped through `on_start`
    /// before the walk, are not counted).
    pub node_states: u64,
    /// Engine callbacks the walk actually executed — one per distinct
    /// `(node state, local clock, stimulus)`; every other transition
    /// replayed a stored result. `on_start` runs outside the table and
    /// is not counted.
    pub engine_calls: u64,
}

impl CheckReport {
    /// `true` when the full graph was explored and no invariant failed.
    pub fn verified(&self) -> bool {
        self.counterexample.is_none() && !self.budget_exhausted
    }
}

/// One deterministic re-execution of a schedule (see
/// [`ModelCheckedRuntime::replay`]).
#[derive(Debug, Clone)]
pub struct Replay {
    /// Everything the engines reported along the schedule.
    pub events: Vec<LoggedEvent>,
    /// The first invariant violation encountered, if any.
    pub violation: Option<Violation>,
}

/// End-of-path snapshot backing the read side of the [`Runtime`] API:
/// the first quiescent schedule, re-executed plainly.
struct Reference {
    state: McState,
    log: StepLog,
}

/// DFS frame: a state, the step that produced it, the cursor over its
/// enabled choices, and its sleep set — the choices not to take from
/// here: those inherited from the parent that commute with the step
/// that led here, plus every choice already explored from this frame.
struct Frame {
    state: McState,
    step: Option<TraceStep>,
    choices: Vec<Choice>,
    next: usize,
    sleep: Vec<Choice>,
}

/// One walk's invariant verdicts, keyed by [`McState::view_key`]:
/// everything a [`SystemView`] exposes. Only passing views are stored —
/// the first failure ends the walk. Lives and dies inside one
/// exploration, like the [`NodeTable`].
#[derive(Default)]
struct Verdicts {
    passed: HashSet<Box<[u64]>, WordBuild>,
    key: Vec<u64>,
}

impl Verdicts {
    /// [`ModelCheckedRuntime::check_state`], run once per distinct view.
    /// Debug builds re-run every hit and require it still passes.
    fn check(
        &mut self,
        state: &McState,
        quiescent: bool,
        invariants: &[Invariant],
    ) -> Result<(), Violation> {
        state.view_key(quiescent, &mut self.key);
        if self.passed.contains(&*self.key) {
            #[cfg(debug_assertions)]
            assert_eq!(
                ModelCheckedRuntime::check_state(state, quiescent, invariants),
                Ok(()),
                "memoized verdict diverged"
            );
            return Ok(());
        }
        ModelCheckedRuntime::check_state(state, quiescent, invariants)?;
        self.passed.insert(self.key.as_slice().into());
        Ok(())
    }
}

/// The walk's dedup set. Its keys are already well-mixed 64-bit digests, so
/// they are used as their own hash, and the set is split 256 ways by
/// bits 48..56 — clear of the low bits the tables index by and of the
/// top seven they tag slots with — so growing rehashes 1/256 of the
/// entries at a time instead of holding an old and a new full-size table
/// side by side: that doubling, not the entries, is the walk's peak.
struct SeenSet {
    shards: Vec<HashSet<u64, BuildHasherDefault<DigestHasher>>>,
}

#[derive(Default)]
struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the only keys are u64 digests, hashed through write_u64");
    }

    fn write_u64(&mut self, digest: u64) {
        self.0 = digest;
    }
}

impl SeenSet {
    fn new() -> Self {
        Self {
            shards: (0..256).map(|_| HashSet::default()).collect(),
        }
    }

    /// True iff `digest` was not in the set yet.
    fn insert(&mut self, digest: u64) -> bool {
        self.shards[(digest >> 48) as usize & 0xff].insert(digest)
    }
}

/// A [`Runtime`] whose `run` exhaustively model-checks the scenario
/// instead of executing one schedule of it.
///
/// Scenario setup is byte-for-byte the code used with the other
/// backends. `run(deadline)` ignores the deadline — exploration is
/// bounded by [`CheckConfig::max_states`]/[`CheckConfig::max_depth`],
/// not by virtual time — and returns the number of transitions applied.
/// After the run, [`Runtime::events`], [`Runtime::messages_sent`] and
/// [`Runtime::node`] describe the *first quiescent schedule* the search
/// completed, so existing assertion helpers keep working; the full
/// verdict lives in the [`CheckReport`] from
/// [`ModelCheckedRuntime::check`].
pub struct ModelCheckedRuntime {
    initial: McState,
    config: CheckConfig,
    tap: Option<ActionTap>,
    report: Option<CheckReport>,
    reference: Option<Reference>,
}

impl ModelCheckedRuntime {
    /// An empty runtime with [`CheckConfig::default`] (no faults, the
    /// shipped invariants).
    pub fn new() -> Self {
        Self::with_config(CheckConfig::default())
    }

    /// An empty runtime with explicit budgets/faults/invariants.
    pub fn with_config(config: CheckConfig) -> Self {
        Self {
            initial: McState::default(),
            config,
            tap: None,
            report: None,
            reference: None,
        }
    }

    /// Replaces the invariant set (invalidates any previous check).
    pub fn set_invariants(&mut self, invariants: Vec<Invariant>) {
        self.config.invariants = invariants;
        self.invalidate();
    }

    /// Installs a hook over every action batch the engines emit. Used by
    /// mutation self-tests to plant protocol bugs the checker must catch;
    /// a tap that mutates nothing leaves exploration unchanged.
    pub fn set_action_tap(&mut self, tap: ActionTap) {
        self.tap = Some(tap);
        self.invalidate();
    }

    fn invalidate(&mut self) {
        self.report = None;
        self.reference = None;
    }

    /// The root of the interleaving graph: the registered nodes after
    /// their `on_start` hooks, with kickoff/dissolve timers armed.
    fn root_state(&self, log: &mut StepLog) -> McState {
        assert!(
            self.config.fault_plan.max_partitions == 0 || self.initial.node_count() <= 64,
            "a partition budget needs at most 64 nodes (cut masks hold one bit per node), got {}",
            self.initial.node_count()
        );
        let mut state = self.initial.clone();
        let mut stepper = Stepper::Plain(log);
        for pid in state.node_ids() {
            state.step_node(pid, Stimulus::Start, None, self.tap.as_ref(), &mut stepper);
        }
        state
    }

    fn check_state(
        state: &McState,
        quiescent: bool,
        invariants: &[Invariant],
    ) -> Result<(), Violation> {
        let view = SystemView::new(state.nodes(), quiescent).with_partitioned(state.partitioned());
        check_all(&view, invariants)
    }

    /// Runs (or returns the cached result of) the exhaustive check.
    /// Idempotent until the scenario, faults, invariants or tap change.
    pub fn check(&mut self) -> &CheckReport {
        if self.report.is_none() {
            let (report, first_quiescent) = self.explore();
            // What callers read back is one plain execution: the walk's
            // own nodes are interned, and carry undigested fields
            // (metrics, caches) from whichever path reached them first.
            self.reference = first_quiescent.map(|schedule| {
                let (state, log) = self
                    .run_plain(&schedule, |_| {})
                    .expect("a schedule the walk took is enabled step by step");
                Reference { state, log }
            });
            self.report = Some(report);
        }
        self.report.as_ref().expect("just computed")
    }

    /// The walk. Returns the verdict and the first quiescent schedule
    /// the DFS completed, if any.
    fn explore(&self) -> (CheckReport, Option<Vec<TraceStep>>) {
        let plan = self.config.fault_plan;
        let mut report = CheckReport::default();
        let mut first_quiescent: Option<Vec<TraceStep>> = None;
        let mut seen = SeenSet::new();
        let mut table = NodeTable::default();
        let mut verdicts = Verdicts::default();

        let root = self.root_state(&mut StepLog::default());
        seen.insert(root.digest());
        report.distinct_states = 1;
        let quiescent = root.quiescent();
        if let Err(violation) = verdicts.check(&root, quiescent, &self.config.invariants) {
            report.counterexample = Some(Counterexample {
                violation,
                schedule: Vec::new(),
                states_explored: 0,
            });
            return (report, None);
        }
        if quiescent {
            report.quiescent_states = 1;
            first_quiescent = Some(Vec::new());
        }
        let mut stack = vec![Frame {
            choices: root.enabled(&plan),
            state: root,
            step: None,
            next: 0,
            sleep: Vec::new(),
        }];
        // The schedule from the root through `last`, the step just
        // applied on top of `stack`.
        let path = |stack: &[Frame], last: &TraceStep| -> Vec<TraceStep> {
            let taken = stack.iter().filter_map(|f| f.step.clone());
            taken.chain([last.clone()]).collect()
        };

        'dfs: while let Some(frame) = stack.last_mut() {
            if frame.next >= frame.choices.len() {
                stack.pop();
                continue;
            }
            if report.states_explored >= self.config.max_states {
                report.budget_exhausted = true;
                break;
            }
            let choice = frame.choices[frame.next];
            frame.next += 1;
            if frame.sleep.contains(&choice) {
                continue; // explored from an ancestor, commuting since
            }
            frame.sleep.push(choice);
            let mut state = frame.state.clone();
            let step = state.apply(choice, self.tap.as_ref(), &mut Stepper::Walk(&mut table));
            report.states_explored += 1;
            if !seen.insert(state.digest()) {
                continue; // converged with an already-explored state
            }
            report.distinct_states += 1;
            let quiescent = state.quiescent();
            if let Err(violation) = verdicts.check(&state, quiescent, &self.config.invariants) {
                report.counterexample = Some(Counterexample {
                    violation,
                    schedule: path(&stack, &step),
                    states_explored: report.states_explored,
                });
                break 'dfs;
            }
            if quiescent {
                report.quiescent_states += 1;
                if first_quiescent.is_none() {
                    first_quiescent = Some(path(&stack, &step));
                }
            }
            if stack.len() >= self.config.max_depth {
                // This schedule is cut short; siblings still explore.
                report.budget_exhausted = true;
                continue;
            }
            report.max_depth_reached = report.max_depth_reached.max(stack.len());
            let parent = stack.last().expect("the frame just stepped").sleep.iter();
            let sleep = parent.copied().filter(|z| z.independent(choice)).collect();
            stack.push(Frame {
                choices: state.enabled(&plan),
                state,
                step: Some(step),
                next: 0,
                sleep,
            });
        }
        report.node_states = table.node_states();
        report.engine_calls = table.engine_calls();
        (report, first_quiescent)
    }

    /// Executes `schedule` from the root with no table — every callback
    /// runs on this path's own nodes — showing `visit` each state reached.
    fn run_plain(
        &self,
        schedule: &[TraceStep],
        mut visit: impl FnMut(&McState),
    ) -> Result<(McState, StepLog), String> {
        let mut log = StepLog::default();
        let mut state = self.root_state(&mut log);
        for (i, step) in schedule.iter().enumerate() {
            let choice = self
                .choice_for(&state, step)
                .ok_or_else(|| format!("step {}: `{step}` is not enabled here", i + 1))?;
            state.apply(choice, self.tap.as_ref(), &mut Stepper::Plain(&mut log));
            visit(&state);
        }
        Ok((state, log))
    }

    /// Deterministically re-executes `schedule` (typically a
    /// [`Counterexample::schedule`]) against the registered scenario.
    /// Messages are matched by content (sender, receiver, payload
    /// digest); timers fire in their canonical per-node order, so a
    /// schedule the explorer produced always matches. A step replays only
    /// if the explorer would enable it at that point — its message in
    /// flight and not behind the cut, its fault budget not spent, its cut
    /// mask canonical — and errors describe the first step that does not.
    pub fn replay(&self, schedule: &[TraceStep]) -> Result<Replay, String> {
        let mut violation = None;
        let (_, log) = self.run_plain(schedule, |state| {
            if violation.is_none() {
                violation =
                    Self::check_state(state, state.quiescent(), &self.config.invariants).err();
            }
        })?;
        Ok(Replay {
            events: log.events,
            violation,
        })
    }

    /// Maps a trace step back onto a [`Choice`] of `state`, if that
    /// choice is one the explorer would enable there.
    fn choice_for(&self, state: &McState, step: &TraceStep) -> Option<Choice> {
        let key = |from: &Pid, to: &Pid, msg: &Msg| MsgKey {
            from: *from,
            to: *to,
            digest: digest_of(msg),
        };
        let choice = match step {
            TraceStep::Deliver { from, to, msg } => Choice::Deliver(key(from, to, msg)),
            TraceStep::Drop { from, to, msg } => Choice::Drop(key(from, to, msg)),
            TraceStep::Duplicate { from, to, msg } => Choice::Duplicate(key(from, to, msg)),
            TraceStep::Fire { node, .. } => Choice::Fire(*node),
            TraceStep::Crash { node } => Choice::Crash(*node),
            TraceStep::Partition { mask } => Choice::Partition(*mask),
            TraceStep::Heal => Choice::Heal,
        };
        state
            .enabled(&self.config.fault_plan)
            .contains(&choice)
            .then_some(choice)
    }
}

impl Default for ModelCheckedRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl Runtime for ModelCheckedRuntime {
    fn backend_name(&self) -> &'static str {
        "mc"
    }

    fn add_node(&mut self, node: CoalitionNode) -> Result<(), RuntimeError> {
        let id = node.id();
        if self.initial.node(id).is_some() {
            return Err(RuntimeError::DuplicateNode(id));
        }
        self.initial.insert_node(node);
        self.invalidate();
        Ok(())
    }

    fn submit(&mut self, node: Pid, service: ServiceDef, at: SimTime) -> Result<(), RuntimeError> {
        match self.initial.node(node) {
            None => return Err(RuntimeError::UnknownNode(node)),
            Some(n) if n.organizer().is_none() => return Err(RuntimeError::NoOrganizer(node)),
            Some(_) => {}
        }
        self.initial
            .with_node_mut(node, |n| n.queue_service_at(at, service));
        self.initial.arm_timer_at(node, at, kickoff_token(node));
        self.invalidate();
        Ok(())
    }

    fn schedule_dissolve(&mut self, nego: NegoId, at: SimTime) -> Result<(), RuntimeError> {
        if self.initial.node(nego.organizer).is_none() {
            return Err(RuntimeError::UnknownNode(nego.organizer));
        }
        self.initial
            .arm_timer_at(nego.organizer, at, dissolve_token(nego));
        self.invalidate();
        Ok(())
    }

    /// Runs the exhaustive check. `deadline` is ignored: the explorer is
    /// bounded by state/depth budgets, not virtual time. Returns the
    /// number of transitions applied.
    fn run(&mut self, _deadline: SimTime) -> u64 {
        self.check().states_explored
    }

    /// Installs the fault budgets the explorer branches over (the plan's
    /// sampling probabilities are ignored on this backend).
    fn set_fault_plan(&mut self, plan: FaultPlan) -> bool {
        self.config.fault_plan = plan;
        self.invalidate();
        true
    }

    fn events(&self) -> &[LoggedEvent] {
        self.reference.as_ref().map_or(&[], |r| &r.log.events)
    }

    fn messages_sent(&self) -> u64 {
        self.reference.as_ref().map_or(0, |r| r.log.sent)
    }

    fn node(&self, id: Pid) -> Option<&CoalitionNode> {
        let state = self.reference.as_ref().map_or(&self.initial, |r| &r.state);
        state.node(id)
    }
}
