//! Resource kinds and resource vectors.
//!
//! The paper (§4.1) names the resources a node supplies: "CPU time, memory,
//! I/O bus bandwidth, network bandwidth". We add an energy budget, which §7
//! motivates ("battery energy loss"). A [`ResourceVector`] is a quantity of
//! each kind at once — the shape of capacities, demands and reservations.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Sub, SubAssign};

/// The limited hardware/software quantities a node can supply (paper §4.1,
/// "Resource" definition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceKind {
    /// Processing throughput, in MIPS-equivalents.
    Cpu,
    /// Main memory, in megabytes.
    Memory,
    /// Wireless link throughput, in kilobits per second.
    NetBandwidth,
    /// I/O bus throughput, in megabytes per second.
    IoBus,
    /// Power draw budget, in milliwatts.
    Energy,
}

impl ResourceKind {
    /// All kinds, in [`ResourceVector`] component order.
    pub const ALL: [ResourceKind; 5] = [
        ResourceKind::Cpu,
        ResourceKind::Memory,
        ResourceKind::NetBandwidth,
        ResourceKind::IoBus,
        ResourceKind::Energy,
    ];

    /// Component index of this kind inside a [`ResourceVector`].
    pub const fn index(self) -> usize {
        match self {
            ResourceKind::Cpu => 0,
            ResourceKind::Memory => 1,
            ResourceKind::NetBandwidth => 2,
            ResourceKind::IoBus => 3,
            ResourceKind::Energy => 4,
        }
    }

    /// Measurement unit, for table headers and logs.
    pub const fn unit(self) -> &'static str {
        match self {
            ResourceKind::Cpu => "MIPS",
            ResourceKind::Memory => "MB",
            ResourceKind::NetBandwidth => "kbps",
            ResourceKind::IoBus => "MB/s",
            ResourceKind::Energy => "mW",
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResourceKind::Cpu => "cpu",
            ResourceKind::Memory => "memory",
            ResourceKind::NetBandwidth => "net-bandwidth",
            ResourceKind::IoBus => "io-bus",
            ResourceKind::Energy => "energy",
        };
        write!(f, "{s}")
    }
}

/// A quantity of every resource kind at once. Components are non-negative
/// by convention; arithmetic saturates at zero on subtraction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceVector([f64; 5]);

impl ResourceVector {
    /// The zero vector.
    pub const ZERO: ResourceVector = ResourceVector([0.0; 5]);

    /// Builds a vector from named components, leaving the rest zero.
    pub fn new(cpu: f64, memory: f64, net: f64, io: f64, energy: f64) -> Self {
        Self([cpu, memory, net, io, energy])
    }

    /// A vector with a single non-zero component.
    #[cfg(test)]
    pub(crate) fn single(kind: ResourceKind, amount: f64) -> Self {
        let mut v = Self::ZERO;
        v[kind] = amount;
        v
    }

    /// Component accessor.
    pub fn get(&self, kind: ResourceKind) -> f64 {
        self.0[kind.index()]
    }

    /// True if every component of `self` is ≤ the matching component of
    /// `other` (with a small epsilon): "this demand fits in that capacity".
    pub fn fits_within(&self, other: &ResourceVector) -> bool {
        self.0
            .iter()
            .zip(other.0.iter())
            .all(|(a, b)| *a <= *b + 1e-9)
    }

    /// Component-wise scale.
    pub fn scale(&self, s: f64) -> ResourceVector {
        let mut out = *self;
        for x in &mut out.0 {
            *x *= s;
        }
        out
    }

    /// True when every component is ≥ 0 and finite.
    pub fn is_valid(&self) -> bool {
        self.0.iter().all(|x| x.is_finite() && *x >= 0.0)
    }
}

impl Index<ResourceKind> for ResourceVector {
    type Output = f64;
    fn index(&self, k: ResourceKind) -> &f64 {
        &self.0[k.index()]
    }
}

impl IndexMut<ResourceKind> for ResourceVector {
    fn index_mut(&mut self, k: ResourceKind) -> &mut f64 {
        &mut self.0[k.index()]
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;
    fn add(mut self, rhs: ResourceVector) -> ResourceVector {
        self += rhs;
        self
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, rhs: ResourceVector) {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a += *b;
        }
    }
}

impl Sub for ResourceVector {
    type Output = ResourceVector;
    /// Saturating at zero: capacities never go negative.
    fn sub(mut self, rhs: ResourceVector) -> ResourceVector {
        self -= rhs;
        self
    }
}

impl SubAssign for ResourceVector {
    fn sub_assign(&mut self, rhs: ResourceVector) {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a = (*a - *b).max(0.0);
        }
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[cpu={:.1} mem={:.1} net={:.1} io={:.1} pwr={:.1}]",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indexes_are_distinct_and_dense() {
        let mut seen = [false; 5];
        for k in ResourceKind::ALL {
            assert!(!seen[k.index()]);
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn vector_accessors() {
        let v = ResourceVector::new(100.0, 256.0, 1000.0, 40.0, 500.0);
        assert_eq!(v.get(ResourceKind::Cpu), 100.0);
        assert_eq!(v[ResourceKind::Memory], 256.0);
        let s = ResourceVector::single(ResourceKind::Energy, 5.0);
        assert_eq!(s[ResourceKind::Energy], 5.0);
        assert_eq!(s[ResourceKind::Cpu], 0.0);
    }

    #[test]
    fn fits_within_is_componentwise() {
        let demand = ResourceVector::new(50.0, 10.0, 0.0, 0.0, 0.0);
        let cap = ResourceVector::new(100.0, 256.0, 1000.0, 40.0, 500.0);
        assert!(demand.fits_within(&cap));
        let too_big = ResourceVector::new(150.0, 10.0, 0.0, 0.0, 0.0);
        assert!(!too_big.fits_within(&cap));
    }

    #[test]
    fn subtraction_saturates() {
        let a = ResourceVector::new(10.0, 0.0, 0.0, 0.0, 0.0);
        let b = ResourceVector::new(25.0, 5.0, 0.0, 0.0, 0.0);
        let c = a - b;
        assert_eq!(c[ResourceKind::Cpu], 0.0);
        assert_eq!(c[ResourceKind::Memory], 0.0);
    }

    #[test]
    fn addition_is_componentwise() {
        let a = ResourceVector::new(1.0, 2.0, 3.0, 4.0, 5.0);
        let b = ResourceVector::new(5.0, 4.0, 3.0, 2.0, 1.0);
        let c = a + b;
        for k in ResourceKind::ALL {
            assert_eq!(c[k], 6.0);
        }
    }

    #[test]
    fn max_ratio_identifies_bottleneck() {
        // The bottleneck ratio is the smallest capacity scale the demand
        // fits: memory's 80 of 100 here.
        let cap = ResourceVector::new(100.0, 100.0, 100.0, 100.0, 100.0);
        let d = ResourceVector::new(50.0, 80.0, 10.0, 0.0, 0.0);
        assert!(d.fits_within(&cap.scale(0.8)));
        assert!(!d.fits_within(&cap.scale(0.79)));
        // Demanding a kind with no capacity fits at no scale.
        let impossible = ResourceVector::single(ResourceKind::IoBus, 1.0);
        let no_io = ResourceVector::new(100.0, 100.0, 100.0, 0.0, 100.0);
        assert!(!impossible.fits_within(&no_io.scale(1e9)));
        assert!(ResourceVector::ZERO.fits_within(&cap.scale(0.0)));
    }

    #[test]
    fn validity() {
        assert!(ResourceVector::new(1.0, 0.0, 0.0, 0.0, 0.0).is_valid());
        assert!(!ResourceVector::new(-1.0, 0.0, 0.0, 0.0, 0.0).is_valid());
        assert!(!ResourceVector::new(f64::NAN, 0.0, 0.0, 0.0, 0.0).is_valid());
    }

    #[test]
    fn display_formats() {
        let v = ResourceVector::new(1.0, 2.0, 3.0, 4.0, 5.0);
        assert!(v.to_string().contains("cpu=1.0"));
        assert_eq!(ResourceKind::Cpu.unit(), "MIPS");
        assert_eq!(ResourceKind::NetBandwidth.to_string(), "net-bandwidth");
    }
}
