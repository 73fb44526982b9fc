//! Canonical state hashing for the model checker.
//!
//! The `qosc-mc` explorer deduplicates system states by a 64-bit digest:
//! two states with equal digests are assumed to have identical future
//! behaviour and the later one is pruned. That puts two obligations on the
//! digest, both discharged here rather than in the checker:
//!
//! * **Determinism across executions** — the digest must not depend on
//!   allocation addresses or hash-map iteration order. [`StableHasher`] is
//!   a fixed-constant FNV-1a over explicitly ordered writes; every
//!   [`StateDigest`] impl iterates unordered containers through a sorted
//!   view and hashes floats by their IEEE bit patterns.
//! * **Completeness** — everything that can influence an engine's future
//!   [`Action`](crate::protocol::Action)s must be written. Pure
//!   configuration (which never mutates after construction) and caches
//!   (which change performance, never behaviour) are deliberately
//!   excluded so equivalent states actually merge.
//!
//! Engines implement [`StateDigest`] next to their private fields; this
//! module provides the hasher, the trait, and impls for the shared leaf
//! types (`Msg`, `TaskAnnouncement`, resource ledgers).

use qosc_resources::{HoldState, NodeLedger, ResourceKind};

use crate::protocol::{Msg, TaskAnnouncement};

/// Deterministic 64-bit FNV-1a hasher with explicit typed writes.
///
/// Unlike `std::hash::Hasher` implementations, the output is a pure
/// function of the written byte sequence — stable across processes,
/// platforms and runs, which the model checker's dedup set relies on.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl StableHasher {
    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Writes raw bytes.
    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Writes a `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Writes a `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Writes a `usize` (as `u64`, so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Writes an `f64` by bit pattern (`-0.0` and `NaN` payloads are
    /// distinct on purpose: engines never produce them on live paths, and
    /// collapsing them would hide a bug rather than canonicalise state).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Writes a `bool`.
    pub(crate) fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[v as u8]);
    }

    /// Writes a string (length-prefixed, so `"ab","c"` ≠ `"a","bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// A type whose semantically relevant state can be written into a
/// [`StableHasher`] in a canonical order.
pub trait StateDigest {
    /// Writes this value's canonical representation into `h`.
    fn digest(&self, h: &mut StableHasher);
}

/// Convenience: the digest of one value on a fresh hasher.
pub fn digest_of<T: StateDigest + ?Sized>(value: &T) -> u64 {
    let mut h = StableHasher::new();
    value.digest(&mut h);
    h.finish()
}

impl StateDigest for TaskAnnouncement {
    fn digest(&self, h: &mut StableHasher) {
        // The spec and request enter by the content hash their handle
        // computed once at `build()` — nothing is rendered or walked here.
        h.write_u32(self.task.0);
        h.write_u64(self.spec.content_hash());
        h.write_u64(self.request.content_hash());
        h.write_u64(self.input_bytes);
        h.write_u64(self.output_bytes);
    }
}

impl StateDigest for Msg {
    fn digest(&self, h: &mut StableHasher) {
        match self {
            Msg::CallForProposals { nego, tasks, round } => {
                h.write_u32(nego.organizer);
                h.write_u32(nego.seq);
                h.write_u32(*round);
                h.write_usize(tasks.len());
                for t in tasks {
                    t.digest(h);
                }
            }
            // Every other message is a small tree of Vecs and scalars (no
            // unordered containers), so its derived Debug rendering is
            // already canonical and covers new fields without plumbing.
            other => h.write_str(&format!("{other:?}")),
        }
    }
}

impl StateDigest for NodeLedger {
    fn digest(&self, h: &mut StableHasher) {
        for kind in ResourceKind::ALL {
            let m = self.manager(kind);
            h.write_usize(kind.index());
            h.write_f64(m.capacity());
            let holds = m.holds_snapshot();
            h.write_usize(holds.len());
            // Holds are written in allocation-rank order but their raw
            // ids are omitted: ids are opaque monotonic handles, so two
            // ledgers that differ only by historical churn (an expired
            // hold shifting every later id) are behaviourally identical
            // and must hash equal, or the explorer forks dead states.
            for (_id, amount, state, expires_at) in holds {
                h.write_f64(amount);
                h.write_bool(state == HoldState::Committed);
                h.write_u64(expires_at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_resources::ResourceVector;

    #[test]
    fn hasher_is_order_sensitive_and_stable() {
        let mut a = StableHasher::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = StableHasher::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = StableHasher::new();
        c.write_u64(1);
        c.write_u64(2);
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn string_writes_are_length_prefixed() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn ledger_digest_tracks_holds() {
        let cap = ResourceVector::new(100.0, 256.0, 1000.0, 40.0, 500.0);
        let mut l = NodeLedger::new(cap);
        let clean = digest_of(&l);
        let demand = ResourceVector::new(10.0, 0.0, 0.0, 0.0, 0.0);
        let hold = l.prepare(&demand, 500).expect("fits");
        assert_ne!(digest_of(&l), clean);
        l.release(hold);
        assert_eq!(digest_of(&l), clean);
    }

    /// The `Debug` rendering of an announced spec or request is what its
    /// content hash, and through it every state digest, is computed over.
    /// Both constants were captured while the two types were owned trees.
    #[test]
    fn announced_renderings_are_pinned() {
        use qosc_spec::catalog;
        let of = |rendering: String| {
            let mut h = StableHasher::new();
            h.write_str(&rendering);
            h.finish()
        };
        assert_eq!(
            of(format!("{:?}", catalog::av_spec())),
            0x457a_7986_1ad6_6865
        );
        assert_eq!(
            of(format!("{:?}", catalog::surveillance_request())),
            0x82f3_3f3c_a9da_75a0
        );
    }

    /// A CFP is digested through its handles' content hashes: equal
    /// content in another allocation digests equal, different content
    /// under the same names does not.
    #[test]
    fn cfp_digest_follows_content_not_allocation() {
        use crate::protocol::NegoId;
        use qosc_spec::{catalog, LevelSpec, ServiceRequest, TaskId};
        let request = |floor: i64| {
            ServiceRequest::builder("r")
                .dimension("Video Quality")
                .attribute("frame_rate", vec![LevelSpec::int_range(10, floor)])
                .build()
        };
        let cfp = |request: ServiceRequest| Msg::CallForProposals {
            nego: NegoId {
                organizer: 0,
                seq: 0,
            },
            tasks: vec![TaskAnnouncement {
                task: TaskId(0),
                spec: catalog::av_spec(),
                request,
                input_bytes: 1,
                output_bytes: 1,
            }],
            round: 0,
        };
        assert_eq!(digest_of(&cfp(request(5))), digest_of(&cfp(request(5))));
        assert_ne!(digest_of(&cfp(request(5))), digest_of(&cfp(request(4))));
    }

    #[test]
    fn msg_digest_differs_by_content() {
        use crate::protocol::NegoId;
        use qosc_spec::TaskId;
        let nego = NegoId {
            organizer: 0,
            seq: 0,
        };
        let a = Msg::Award {
            nego,
            task: TaskId(0),
            round: 0,
        };
        let b = Msg::Award {
            nego,
            task: TaskId(1),
            round: 0,
        };
        assert_ne!(digest_of(&a), digest_of(&b));
    }
}
