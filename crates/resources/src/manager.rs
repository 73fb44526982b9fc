//! Resource Managers and two-phase reservations (paper §4.1).
//!
//! "Resource Manager: the object that manages a particular resource. ...
//! QoS Provider: a server that negotiates access to node's resources.
//! Rather than reserving resources directly it will contact the Resource
//! Managers to grant specific resource amounts to the requesting task."
//!
//! During negotiation a provider must *hold* capacity while its proposal is
//! in flight (otherwise two concurrent negotiations could both promise the
//! same CPU), but must release it if it loses. [`ResourceManager`] therefore
//! implements a two-phase reservation:
//!
//! 1. [`ResourceManager::prepare`] — tentative hold with an expiry instant;
//! 2. [`ResourceManager::commit`] — the hold becomes a durable grant on
//!    award, or [`ResourceManager::release`] returns it on loss;
//! 3. [`ResourceManager::expire`] — garbage-collects tentative holds whose
//!    negotiation died (organizer crashed, message lost).
//!
//! [`NodeLedger`] aggregates one manager per [`ResourceKind`] behind a
//! vector interface; the provider engine owns it, so the sans-IO engines
//! need no lock around it.

use crate::error::ResourceError;
use crate::kind::{ResourceKind, ResourceVector};

/// Identifier of a reservation hold, unique per manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HoldId(pub u64);

/// Lifecycle state of a hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HoldState {
    /// Phase 1: held for an in-flight proposal, expires at `expires_at`.
    Tentative,
    /// Phase 2: durable grant backing an awarded task.
    Committed,
}

#[derive(Debug, Clone, PartialEq)]
struct Hold {
    amount: f64,
    state: HoldState,
    /// Monotonic timestamp (units defined by the caller: the DES passes
    /// simulated microseconds, the live runtime passes `Instant`-derived
    /// millis). Only compared against values from the same clock.
    expires_at: u64,
}

/// Manages one resource of one node: a capacity plus outstanding holds.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceManager {
    kind: ResourceKind,
    capacity: f64,
    /// Outstanding holds in id order (ids are handed out monotonically,
    /// so pushing keeps it): every sum over them adds in one fixed order.
    holds: Vec<(u64, Hold)>,
    next_id: u64,
}

impl ResourceManager {
    /// Creates a manager with the given capacity.
    pub fn new(kind: ResourceKind, capacity: f64) -> Self {
        Self {
            kind,
            capacity,
            holds: Vec::new(),
            next_id: 0,
        }
    }

    /// The resource this manager controls.
    pub(crate) fn kind(&self) -> ResourceKind {
        self.kind
    }

    /// Total capacity.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Capacity not covered by any hold (tentative or committed).
    pub fn available(&self) -> f64 {
        (self.capacity - self.held()).max(0.0)
    }

    /// Sum of all outstanding holds.
    pub fn held(&self) -> f64 {
        self.holds.iter().map(|(_, h)| h.amount).sum()
    }

    /// Sum of committed grants only.
    #[cfg(test)]
    pub(crate) fn committed(&self) -> f64 {
        self.holds
            .iter()
            .filter(|(_, h)| h.state == HoldState::Committed)
            .map(|(_, h)| h.amount)
            .sum()
    }

    /// Phase 1: tentatively hold `amount` until `expires_at`.
    pub fn prepare(&mut self, amount: f64, expires_at: u64) -> Result<HoldId, ResourceError> {
        if !(amount.is_finite() && amount >= 0.0) {
            return Err(ResourceError::InvalidAmount);
        }
        if amount > self.available() + 1e-9 {
            return Err(ResourceError::Insufficient {
                kind: self.kind,
                requested: amount,
                available: self.available(),
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.holds.push((
            id,
            Hold {
                amount,
                state: HoldState::Tentative,
                expires_at,
            },
        ));
        Ok(HoldId(id))
    }

    fn position(&self, id: HoldId) -> Result<usize, ResourceError> {
        self.holds
            .binary_search_by_key(&id.0, |(i, _)| *i)
            .map_err(|_| ResourceError::UnknownHold)
    }

    /// Phase 2: upgrade a tentative hold into a durable grant.
    pub fn commit(&mut self, id: HoldId) -> Result<(), ResourceError> {
        let at = self.position(id)?;
        self.holds[at].1.state = HoldState::Committed;
        Ok(())
    }

    /// Releases a hold (either phase), returning its amount to the pool.
    pub fn release(&mut self, id: HoldId) -> Result<f64, ResourceError> {
        let at = self.position(id)?;
        Ok(self.holds.remove(at).1.amount)
    }

    /// Drops every tentative hold with `expires_at <= now`; returns how
    /// many were collected. Committed grants never expire.
    pub fn expire(&mut self, now: u64) -> usize {
        let before = self.holds.len();
        self.holds
            .retain(|(_, h)| h.state == HoldState::Committed || h.expires_at > now);
        before - self.holds.len()
    }

    /// Canonical view of every outstanding hold as
    /// `(id, amount, state, expires_at)`, in id order — the order the
    /// holds are stored in, which is what state-hashing consumers (the
    /// model checker) need.
    pub fn holds_snapshot(&self) -> Vec<(u64, f64, HoldState, u64)> {
        self.holds
            .iter()
            .map(|(id, h)| (*id, h.amount, h.state, h.expires_at))
            .collect()
    }
}

/// A vector-shaped reservation across several managers: one optional hold
/// per resource kind (kinds with zero demand get no hold).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorHold {
    ids: [Option<HoldId>; 5],
}

impl VectorHold {
    /// Hold id for a kind, if that kind was part of the reservation.
    pub fn get(&self, kind: ResourceKind) -> Option<HoldId> {
        self.ids[kind.index()]
    }
}

/// All Resource Managers of one node, addressed as a vector.
///
/// This is the object a QoS Provider contacts when formulating a proposal
/// ("the QoS Provider contacts the required Resource Managers for resource
/// availability", §5).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeLedger {
    managers: [ResourceManager; 5],
}

impl NodeLedger {
    /// Creates a ledger from a capacity vector.
    pub fn new(capacity: ResourceVector) -> Self {
        let mk = |k: ResourceKind| ResourceManager::new(k, capacity.get(k));
        Self {
            managers: [
                mk(ResourceKind::Cpu),
                mk(ResourceKind::Memory),
                mk(ResourceKind::NetBandwidth),
                mk(ResourceKind::IoBus),
                mk(ResourceKind::Energy),
            ],
        }
    }

    /// Capacity of every kind.
    pub fn capacity(&self) -> ResourceVector {
        let mut v = ResourceVector::ZERO;
        for m in &self.managers {
            v[m.kind()] = m.capacity();
        }
        v
    }

    /// Currently available amount of every kind.
    pub fn available(&self) -> ResourceVector {
        let mut v = ResourceVector::ZERO;
        for m in &self.managers {
            v[m.kind()] = m.available();
        }
        v
    }

    /// Access to one kind's manager.
    pub fn manager(&self, kind: ResourceKind) -> &ResourceManager {
        &self.managers[kind.index()]
    }

    /// Mutable access to one kind's manager. Private: a caller holding
    /// one kind alone could prepare or commit it outside the
    /// all-or-nothing [`VectorHold`] contract the ledger keeps.
    fn manager_mut(&mut self, kind: ResourceKind) -> &mut ResourceManager {
        &mut self.managers[kind.index()]
    }

    /// Atomically prepares a vector-shaped hold: either every non-zero
    /// component is held, or none is (partial failures are rolled back).
    pub fn prepare(
        &mut self,
        demand: &ResourceVector,
        expires_at: u64,
    ) -> Result<VectorHold, ResourceError> {
        if !demand.is_valid() {
            return Err(ResourceError::InvalidAmount);
        }
        let mut ids: [Option<HoldId>; 5] = [None; 5];
        for k in ResourceKind::ALL {
            let amount = demand.get(k);
            if amount <= 0.0 {
                continue;
            }
            match self.manager_mut(k).prepare(amount, expires_at) {
                Ok(id) => ids[k.index()] = Some(id),
                Err(e) => {
                    // Roll back the components already held.
                    for k2 in ResourceKind::ALL {
                        if let Some(id2) = ids[k2.index()] {
                            let _ = self.manager_mut(k2).release(id2);
                        }
                    }
                    return Err(e);
                }
            }
        }
        Ok(VectorHold { ids })
    }

    /// Commits every component of a vector hold.
    pub fn commit(&mut self, hold: VectorHold) -> Result<(), ResourceError> {
        for k in ResourceKind::ALL {
            if let Some(id) = hold.get(k) {
                self.manager_mut(k).commit(id)?;
            }
        }
        Ok(())
    }

    /// Releases every component of a vector hold.
    pub fn release(&mut self, hold: VectorHold) {
        for k in ResourceKind::ALL {
            if let Some(id) = hold.get(k) {
                let _ = self.manager_mut(k).release(id);
            }
        }
    }

    /// Expires tentative holds across all managers; returns total collected.
    pub fn expire(&mut self, now: u64) -> usize {
        self.managers.iter_mut().map(|m| m.expire(now)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap() -> ResourceVector {
        ResourceVector::new(100.0, 256.0, 1000.0, 40.0, 500.0)
    }

    #[test]
    fn prepare_commit_release_cycle() {
        let mut m = ResourceManager::new(ResourceKind::Cpu, 100.0);
        let h = m.prepare(60.0, 10).unwrap();
        assert_eq!(m.available(), 40.0);
        assert_eq!(
            m.holds_snapshot(),
            vec![(h.0, 60.0, HoldState::Tentative, 10)]
        );
        m.commit(h).unwrap();
        assert_eq!(
            m.holds_snapshot(),
            vec![(h.0, 60.0, HoldState::Committed, 10)]
        );
        assert_eq!(m.committed(), 60.0);
        assert_eq!(m.release(h).unwrap(), 60.0);
        assert_eq!(m.available(), 100.0);
    }

    /// Sums over holds add in id order, whatever was released in between:
    /// `(0.1 + 0.2) + 0.3` and `0.1 + (0.2 + 0.3)` differ in the last bit,
    /// so an order that varied from map to map would show in the ledger.
    #[test]
    fn sums_over_holds_add_in_id_order() {
        for _ in 0..32 {
            let mut m = ResourceManager::new(ResourceKind::Cpu, 100.0);
            let gone = m.prepare(50.0, 10).unwrap();
            let ids = [0.1, 0.2, 0.3].map(|a| m.prepare(a, 10).unwrap());
            m.release(gone).unwrap();
            assert_eq!(m.held().to_bits(), ((0.1 + 0.2) + 0.3f64).to_bits());
            for id in ids {
                m.commit(id).unwrap();
            }
            assert_eq!(m.committed().to_bits(), m.held().to_bits());
            let snapshot: Vec<u64> = m.holds_snapshot().iter().map(|h| h.0).collect();
            assert_eq!(snapshot, ids.map(|id| id.0));
        }
    }

    #[test]
    fn prepare_rejects_overcommit() {
        let mut m = ResourceManager::new(ResourceKind::Cpu, 100.0);
        let _ = m.prepare(80.0, 10).unwrap();
        let err = m.prepare(30.0, 10).unwrap_err();
        match err {
            ResourceError::Insufficient {
                kind, requested, ..
            } => {
                assert_eq!(kind, ResourceKind::Cpu);
                assert_eq!(requested, 30.0);
            }
            e => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn prepare_rejects_invalid_amounts() {
        let mut m = ResourceManager::new(ResourceKind::Cpu, 100.0);
        assert!(matches!(
            m.prepare(f64::NAN, 10),
            Err(ResourceError::InvalidAmount)
        ));
        assert!(matches!(
            m.prepare(-1.0, 10),
            Err(ResourceError::InvalidAmount)
        ));
        // Zero-amount holds are legal (a task may not need this kind).
        assert!(m.prepare(0.0, 10).is_ok());
    }

    #[test]
    fn expiry_collects_only_stale_tentatives() {
        let mut m = ResourceManager::new(ResourceKind::Cpu, 100.0);
        let h1 = m.prepare(10.0, 5).unwrap();
        let _h2 = m.prepare(10.0, 50).unwrap();
        let h3 = m.prepare(10.0, 5).unwrap();
        m.commit(h3).unwrap();
        assert_eq!(m.expire(5), 1); // only h1: h2 is later, h3 committed
        assert!(m.holds_snapshot().iter().all(|&(id, ..)| id != h1.0));
        assert_eq!(m.available(), 80.0);
    }

    #[test]
    fn unknown_hold_errors() {
        let mut m = ResourceManager::new(ResourceKind::Cpu, 100.0);
        assert!(matches!(
            m.commit(HoldId(99)),
            Err(ResourceError::UnknownHold)
        ));
        assert!(matches!(
            m.release(HoldId(99)),
            Err(ResourceError::UnknownHold)
        ));
    }

    #[test]
    fn ledger_vector_prepare_all_or_nothing() {
        let mut l = NodeLedger::new(cap());
        let demand = ResourceVector::new(50.0, 100.0, 0.0, 0.0, 200.0);
        let h = l.prepare(&demand, 10).unwrap();
        assert_eq!(l.available()[ResourceKind::Cpu], 50.0);
        assert!(h.get(ResourceKind::Cpu).is_some());
        assert!(h.get(ResourceKind::NetBandwidth).is_none());

        // Second demand overflows memory: nothing must be held afterwards.
        let too_big = ResourceVector::new(10.0, 200.0, 0.0, 0.0, 0.0);
        assert!(l.prepare(&too_big, 10).is_err());
        assert_eq!(l.available()[ResourceKind::Cpu], 50.0); // unchanged
        assert_eq!(l.available()[ResourceKind::Memory], 156.0);
    }

    #[test]
    fn ledger_commit_and_release() {
        let mut l = NodeLedger::new(cap());
        let d = ResourceVector::new(10.0, 10.0, 10.0, 10.0, 10.0);
        let h = l.prepare(&d, 10).unwrap();
        l.commit(h).unwrap();
        assert_eq!(l.expire(1000), 0); // committed grants survive expiry
        l.release(h);
        assert_eq!(l.available(), cap());
    }

    #[test]
    fn ledger_can_fit_tracks_availability() {
        let mut l = NodeLedger::new(cap());
        let d = ResourceVector::new(90.0, 0.0, 0.0, 0.0, 0.0);
        assert!(d.fits_within(&l.available()));
        let _ = l.prepare(&d, 10).unwrap();
        assert!(!d.fits_within(&l.available()));
        assert_eq!(l.expire(11), 1);
        assert!(d.fits_within(&l.available()));
    }

    #[test]
    fn utilisation_reporting() {
        let mut m = ResourceManager::new(ResourceKind::Cpu, 100.0);
        assert_eq!(m.held(), 0.0);
        let _ = m.prepare(25.0, 10).unwrap();
        assert_eq!((m.held(), m.capacity()), (25.0, 100.0));
        let zero = ResourceManager::new(ResourceKind::IoBus, 0.0);
        assert_eq!((zero.held(), zero.capacity()), (0.0, 0.0));
    }
}
