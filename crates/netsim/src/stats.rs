//! Network observability counters.
//!
//! T1 of the experiment suite reports protocol message counts and latency;
//! these counters are maintained by the simulator so harness code never has
//! to instrument the protocol by hand.

use crate::time::SimDuration;

/// Aggregate counters for one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetStats {
    /// Unicast messages submitted.
    pub unicasts_sent: u64,
    /// Unicast messages delivered.
    pub unicasts_delivered: u64,
    /// Unicasts dropped: destination out of range or down at send time.
    pub unicasts_unreachable: u64,
    /// Unicasts dropped by the loss model.
    pub unicasts_lost: u64,
    /// Broadcast messages submitted.
    pub broadcasts_sent: u64,
    /// Per-neighbour broadcast deliveries.
    pub broadcast_deliveries: u64,
    /// Per-neighbour broadcast copies dropped by the loss model.
    pub broadcasts_lost: u64,
    /// Per-neighbour broadcast copies whose target died in flight.
    pub broadcasts_undelivered: u64,
    /// Total payload bytes delivered (unicast + broadcast copies).
    pub bytes_delivered: u64,
    /// Deliveries dropped by the fault layer (not the radio loss model).
    pub faults_dropped: u64,
    /// Deliveries duplicated by the fault layer.
    pub faults_duplicated: u64,
    /// Delivery copies delayed (reordered) by the fault layer.
    pub faults_reordered: u64,
    /// Delivery copies cut by a network partition (link down between
    /// sender and receiver at the delivery timestamp).
    pub partition_cuts: u64,
    /// Sum of delivery latencies (for the mean).
    latency_sum_us: u64,
    /// Number of latency samples.
    latency_samples: u64,
}

impl NetStats {
    /// Records one delivered message's latency and size.
    pub(crate) fn record_delivery(&mut self, latency: SimDuration, bytes: u64) {
        self.latency_sum_us += latency.as_micros();
        self.latency_samples += 1;
        self.bytes_delivered += bytes;
    }

    /// Mean delivery latency over all delivered messages.
    pub fn mean_latency(&self) -> SimDuration {
        self.latency_sum_us
            .checked_div(self.latency_samples)
            .map_or(SimDuration::ZERO, SimDuration::micros)
    }

    /// All messages that entered the medium (unicasts + broadcasts).
    pub fn messages_sent(&self) -> u64 {
        self.unicasts_sent + self.broadcasts_sent
    }

    /// Adds `other`'s counters into `self`. Every field is a sum (the
    /// mean latency is carried as sum + sample count).
    #[cfg(test)]
    pub(crate) fn merge(&mut self, other: &NetStats) {
        self.unicasts_sent += other.unicasts_sent;
        self.unicasts_delivered += other.unicasts_delivered;
        self.unicasts_unreachable += other.unicasts_unreachable;
        self.unicasts_lost += other.unicasts_lost;
        self.broadcasts_sent += other.broadcasts_sent;
        self.broadcast_deliveries += other.broadcast_deliveries;
        self.broadcasts_lost += other.broadcasts_lost;
        self.broadcasts_undelivered += other.broadcasts_undelivered;
        self.bytes_delivered += other.bytes_delivered;
        self.faults_dropped += other.faults_dropped;
        self.faults_duplicated += other.faults_duplicated;
        self.faults_reordered += other.faults_reordered;
        self.partition_cuts += other.partition_cuts;
        self.latency_sum_us += other.latency_sum_us;
        self.latency_samples += other.latency_samples;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_latency_averages() {
        let mut s = NetStats::default();
        s.record_delivery(SimDuration::millis(2), 10);
        s.record_delivery(SimDuration::millis(4), 20);
        assert_eq!(s.mean_latency(), SimDuration::millis(3));
        assert_eq!(s.bytes_delivered, 30);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = NetStats::default();
        assert_eq!(s.mean_latency(), SimDuration::ZERO);
        assert_eq!(s.messages_sent(), 0);
    }

    #[test]
    fn merge_sums_everything_including_latency() {
        let mut a = NetStats {
            unicasts_sent: 2,
            unicasts_delivered: 1,
            broadcast_deliveries: 3,
            broadcasts_lost: 1,
            ..Default::default()
        };
        a.record_delivery(SimDuration::millis(2), 10);
        let mut b = NetStats {
            unicasts_sent: 1,
            unicasts_delivered: 1,
            broadcasts_undelivered: 2,
            ..Default::default()
        };
        b.record_delivery(SimDuration::millis(4), 20);
        a.merge(&b);
        assert_eq!(a.unicasts_sent, 3);
        assert_eq!(a.unicasts_delivered, 2);
        assert_eq!(a.broadcast_deliveries, 3);
        assert_eq!(a.broadcasts_lost, 1);
        assert_eq!(a.broadcasts_undelivered, 2);
        assert_eq!(a.bytes_delivered, 30);
        assert_eq!(a.mean_latency(), SimDuration::millis(3));
    }
}
