//! The name the repo benchmark's `netsim.shard.*` rows still call.
//!
//! [`ShardedSimulator`] wraps the per-copy reference engine,
//! [`Simulator::per_copy`], behind the few methods the benchmark's
//! `gossip_sharded` uses. It runs one shard on the calling thread whatever
//! worker count it is given. It exists only for that benchmark function;
//! the benchmark change that drops the `netsim.shard.*` rows deletes it.

use crate::mobility::Mobility;
use crate::sim::{NetApp, NodeId, SimConfig, Simulator};
use crate::time::{SimDuration, SimTime};

/// The per-copy reference engine under the benchmark's old name; see
/// the module docs.
#[doc(hidden)]
pub struct ShardedSimulator<M>(Simulator<M>);

impl<M> ShardedSimulator<M> {
    /// A per-copy [`Simulator`]; the worker count is ignored.
    pub fn new(config: SimConfig, _workers: usize) -> Self {
        Self(Simulator::per_copy(config))
    }

    /// See [`Simulator::add_node_random`].
    pub fn add_node_random(&mut self, mobility: Mobility) -> NodeId {
        self.0.add_node_random(mobility)
    }

    /// See [`Simulator::schedule_timer`].
    pub fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        self.0.schedule_timer(node, delay, token);
    }

    /// Nothing to freeze: there is one shard.
    pub fn freeze(&mut self) {}

    /// Always 1.
    pub fn shard_count(&mut self) -> usize {
        1
    }

    /// Runs `apps[0]` until `deadline`; returns the events processed.
    pub fn run_until<A: NetApp<M>>(&mut self, apps: &mut [A], deadline: SimTime) -> u64 {
        self.0.run_until(&mut apps[0], deadline)
    }
}
