//! Admission control: deciding whether a set of tasks "is schedulable"
//! (the loop condition of the paper's §5 heuristic).
//!
//! The paper never fixes a scheduling theory; it only needs a yes/no
//! predicate over a proposed resource allocation. We provide the classic
//! utilisation-based test: CPU demands are treated as utilisations of the
//! node's processing capacity and admitted while
//! `Σ demand_cpu ≤ bound × capacity_cpu`, with the bound selectable per
//! scheduling policy (EDF admits up to 1.0; rate-monotonic uses the
//! Liu & Layland bound `n(2^{1/n} − 1)`). Non-CPU kinds use plain capacity
//! tests, which is exact for rate-type resources (bandwidth, I/O, power).

use crate::kind::{ResourceKind, ResourceVector};

/// The local scheduling policy assumed by the admission test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulingPolicy {
    /// Earliest-deadline-first: utilisation bound 1.0 (optimal on one CPU).
    Edf,
    /// Fixed-priority rate-monotonic: Liu & Layland bound
    /// `n(2^{1/n} − 1)`, which tends to ln 2 ≈ 0.693 as n grows.
    RateMonotonic,
    /// A fixed caller-chosen utilisation ceiling (e.g. 0.8 to keep
    /// headroom for OS interference).
    FixedBound(
        /// The ceiling in (0, 1].
        f64,
    ),
}

impl SchedulingPolicy {
    /// Utilisation bound for `n` admitted tasks.
    pub(crate) fn bound(&self, n: usize) -> f64 {
        match self {
            SchedulingPolicy::Edf => 1.0,
            SchedulingPolicy::RateMonotonic => {
                if n == 0 {
                    1.0
                } else {
                    let nf = n as f64;
                    nf * (2f64.powf(1.0 / nf) - 1.0)
                }
            }
            SchedulingPolicy::FixedBound(b) => *b,
        }
    }
}

/// Utilisation-based admission over a capacity vector.
///
/// Stateless: callers pass the demands they want tested. Stateful tracking
/// (what is already admitted) lives in the reservation ledger, keeping a
/// single source of truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionControl {
    /// CPU scheduling policy used for the utilisation bound.
    pub policy: SchedulingPolicy,
    /// Node capacity being admitted against.
    pub capacity: ResourceVector,
}

impl AdmissionControl {
    /// Creates an admission controller.
    pub fn new(policy: SchedulingPolicy, capacity: ResourceVector) -> Self {
        Self { policy, capacity }
    }

    /// The schedulability predicate of the §5 heuristic: would this *set*
    /// of per-task demands be schedulable together on this node?
    pub fn schedulable(&self, demands: &[ResourceVector]) -> bool {
        let mut total = ResourceVector::ZERO;
        for d in demands {
            total += *d;
        }
        self.schedulable_total(&total, demands.len())
    }

    /// Same predicate given a pre-summed demand and the task count.
    ///
    /// NaN-safe: a NaN anywhere (capacity or demand) rejects. A plain
    /// `total > bound` test silently *admits* under NaN (the comparison is
    /// false), which let nodes advertising a corrupt capacity win every
    /// task at preferred quality.
    pub fn schedulable_total(&self, total: &ResourceVector, task_count: usize) -> bool {
        // CPU: utilisation bound per policy.
        let cpu_cap = self.capacity.get(ResourceKind::Cpu);
        let cpu_bound = self.policy.bound(task_count) * cpu_cap;
        let cpu = total.get(ResourceKind::Cpu);
        if cpu.is_nan() || cpu_bound.is_nan() || cpu > cpu_bound + 1e-9 {
            return false;
        }
        // Rate resources: plain capacity.
        for k in [
            ResourceKind::Memory,
            ResourceKind::NetBandwidth,
            ResourceKind::IoBus,
            ResourceKind::Energy,
        ] {
            let t = total.get(k);
            let cap = self.capacity.get(k);
            if t.is_nan() || cap.is_nan() || t > cap + 1e-9 {
                return false;
            }
        }
        true
    }

    /// Slack left after admitting `admitted` (CPU slack honours the bound).
    #[cfg(test)]
    pub(crate) fn slack(&self, admitted: &ResourceVector, task_count: usize) -> ResourceVector {
        let mut s = self.capacity - *admitted;
        let cpu_bound = self.policy.bound(task_count) * self.capacity.get(ResourceKind::Cpu);
        s[ResourceKind::Cpu] = (cpu_bound - admitted.get(ResourceKind::Cpu)).max(0.0);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap() -> ResourceVector {
        ResourceVector::new(100.0, 256.0, 1000.0, 40.0, 500.0)
    }

    #[test]
    fn edf_admits_to_full_utilisation() {
        let ac = AdmissionControl::new(SchedulingPolicy::Edf, cap());
        let d = ResourceVector::single(ResourceKind::Cpu, 50.0);
        assert!(ac.schedulable(&[d, d]));
        let d3 = ResourceVector::single(ResourceKind::Cpu, 34.0);
        assert!(!ac.schedulable(&[d3, d3, d3])); // 102 > 100
    }

    #[test]
    fn rm_bound_matches_liu_layland() {
        assert!((SchedulingPolicy::RateMonotonic.bound(1) - 1.0).abs() < 1e-12);
        assert!((SchedulingPolicy::RateMonotonic.bound(2) - 0.8284).abs() < 1e-3);
        assert!((SchedulingPolicy::RateMonotonic.bound(100) - 0.6956).abs() < 1e-3);
        assert_eq!(SchedulingPolicy::RateMonotonic.bound(0), 1.0);
    }

    #[test]
    fn rm_is_stricter_than_edf() {
        let edf = AdmissionControl::new(SchedulingPolicy::Edf, cap());
        let rm = AdmissionControl::new(SchedulingPolicy::RateMonotonic, cap());
        let d = ResourceVector::single(ResourceKind::Cpu, 45.0);
        assert!(edf.schedulable(&[d, d])); // 90 <= 100
        assert!(!rm.schedulable(&[d, d])); // 90 > 82.8
    }

    #[test]
    fn non_cpu_kinds_use_plain_capacity() {
        let ac = AdmissionControl::new(SchedulingPolicy::Edf, cap());
        let d = ResourceVector::single(ResourceKind::Memory, 300.0);
        assert!(!ac.schedulable(&[d]));
        let d = ResourceVector::single(ResourceKind::NetBandwidth, 999.0);
        assert!(ac.schedulable(&[d]));
    }

    #[test]
    fn fixed_bound_keeps_headroom() {
        let ac = AdmissionControl::new(SchedulingPolicy::FixedBound(0.8), cap());
        let d = ResourceVector::single(ResourceKind::Cpu, 81.0);
        assert!(!ac.schedulable(&[d]));
        let d = ResourceVector::single(ResourceKind::Cpu, 79.0);
        assert!(ac.schedulable(&[d]));
    }

    #[test]
    fn slack_reflects_bound() {
        let ac = AdmissionControl::new(SchedulingPolicy::FixedBound(0.5), cap());
        let admitted = ResourceVector::single(ResourceKind::Cpu, 30.0);
        let s = ac.slack(&admitted, 1);
        assert!((s[ResourceKind::Cpu] - 20.0).abs() < 1e-9);
        assert!((s[ResourceKind::Memory] - 256.0).abs() < 1e-9);
    }

    #[test]
    fn empty_task_set_is_schedulable() {
        let ac = AdmissionControl::new(SchedulingPolicy::RateMonotonic, cap());
        assert!(ac.schedulable(&[]));
    }

    #[test]
    fn nan_capacity_or_demand_rejects() {
        let nan_cap = ResourceVector::new(f64::NAN, 256.0, 1000.0, 40.0, 500.0);
        let ac = AdmissionControl::new(SchedulingPolicy::Edf, nan_cap);
        let d = ResourceVector::single(ResourceKind::Cpu, 1.0);
        assert!(!ac.schedulable(&[d]));
        let ac = AdmissionControl::new(SchedulingPolicy::Edf, cap());
        let nan_d = ResourceVector::single(ResourceKind::Memory, f64::NAN);
        assert!(!ac.schedulable(&[nan_d]));
        // The empty set stays schedulable even on a NaN-capacity node only
        // if nothing is demanded of the NaN kind — total 0.0 vs NaN cap
        // still rejects, by design.
        let ac = AdmissionControl::new(SchedulingPolicy::Edf, nan_cap);
        assert!(!ac.schedulable(&[]));
    }
}
