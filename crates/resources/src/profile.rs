//! Node hardware profiles — the heterogeneous device population of §2.
//!
//! "Very different types of mobile devices are currently available:
//! telephones, PDAs, laptops, etc." Each [`DeviceClass`] carries canonical
//! capacities (loosely calibrated to 2005-era hardware, which is what the
//! paper's scenario assumes); [`NodeProfile`] is one concrete node.

use crate::kind::ResourceVector;

/// Coarse device classes of the heterogeneous ad-hoc population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// A phone: minimal CPU/memory, tight energy budget.
    Phone,
    /// A PDA: modest CPU, small memory.
    Pda,
    /// A laptop: strong CPU and memory, good radio.
    Laptop,
    /// A mains-powered fixed node (the paper's §1 "fixed wired
    /// infrastructure collaborating with the wireless nodes").
    FixedServer,
}

impl DeviceClass {
    /// All classes.
    pub const ALL: [DeviceClass; 4] = [
        DeviceClass::Phone,
        DeviceClass::Pda,
        DeviceClass::Laptop,
        DeviceClass::FixedServer,
    ];

    /// Canonical capacity vector of the class.
    pub fn capacity(self) -> ResourceVector {
        match self {
            // cpu MIPS, mem MB, net kbps, io MB/s, energy mW
            DeviceClass::Phone => ResourceVector::new(40.0, 32.0, 400.0, 5.0, 300.0),
            DeviceClass::Pda => ResourceVector::new(80.0, 64.0, 800.0, 10.0, 600.0),
            DeviceClass::Laptop => ResourceVector::new(400.0, 512.0, 5000.0, 60.0, 4000.0),
            DeviceClass::FixedServer => {
                ResourceVector::new(1600.0, 2048.0, 20000.0, 200.0, 100_000.0)
            }
        }
    }

    /// Whether the device is battery constrained (affects willingness to
    /// volunteer for remote work in workload policies).
    pub fn battery_powered(self) -> bool {
        !matches!(self, DeviceClass::FixedServer)
    }
}

impl std::fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DeviceClass::Phone => "phone",
            DeviceClass::Pda => "pda",
            DeviceClass::Laptop => "laptop",
            DeviceClass::FixedServer => "fixed-server",
        };
        write!(f, "{s}")
    }
}

/// One concrete node's hardware description.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeProfile {
    /// Device class.
    pub class: DeviceClass,
    /// Actual capacities (defaults to the class capacity, but generators
    /// jitter it so no two laptops are identical).
    pub capacity: ResourceVector,
}

impl NodeProfile {
    /// Profile with the class capacity uniformly scaled by `factor`
    /// (e.g. 0.7 for a congested node — §1: "more powerful (or less
    /// congested) devices").
    pub fn scaled(class: DeviceClass, factor: f64) -> Self {
        Self {
            class,
            capacity: class.capacity().scale(factor),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::ResourceKind;

    #[test]
    fn classes_are_strictly_ordered_by_cpu() {
        let caps: Vec<f64> = DeviceClass::ALL
            .iter()
            .map(|c| c.capacity().get(ResourceKind::Cpu))
            .collect();
        for w in caps.windows(2) {
            assert!(w[0] < w[1], "device classes should escalate in CPU");
        }
    }

    #[test]
    fn only_fixed_server_is_mains_powered() {
        assert!(DeviceClass::Phone.battery_powered());
        assert!(DeviceClass::Laptop.battery_powered());
        assert!(!DeviceClass::FixedServer.battery_powered());
    }

    #[test]
    fn scaled_profile_scales_every_component() {
        let p = NodeProfile::scaled(DeviceClass::Laptop, 0.5);
        let full = DeviceClass::Laptop.capacity();
        for k in ResourceKind::ALL {
            assert!((p.capacity.get(k) - full.get(k) * 0.5).abs() < 1e-9);
        }
        assert_eq!(p.class, DeviceClass::Laptop);
    }

    #[test]
    fn display_names() {
        assert_eq!(DeviceClass::FixedServer.to_string(), "fixed-server");
    }
}
