//! Dynamic-parallelism launch models for the GPU simulator.
//!
//! The LaPerm paper studies two device-side launch mechanisms:
//!
//! * **CDP** (CUDA Dynamic Parallelism): a device thread launches a new
//!   *kernel*. The launch travels through the software/driver path back
//!   to the KMU, costs thousands of cycles, and the child kernel occupies
//!   one of the 32 KDU entries — so at most 32 dynamic kernels are
//!   visible to the SMX scheduler at a time.
//! * **DTBL** (Dynamic Thread Block Launch): a device thread launches a
//!   lightweight *TB group* that is coalesced onto an existing kernel's
//!   KDU entry. Launches mature far faster and every dynamic TB is always
//!   visible to the SMX scheduler.
//!
//! Both are implemented as [`gpu_sim::launch::DynamicLaunchModel`]s:
//! [`CdpModel`] and [`DtblModel`]. [`LaunchLatency`] captures the timing
//! of the launch path and [`LaunchModelKind`] selects a model by name.
//!
//! # Example
//!
//! ```
//! use dynpar::{LaunchLatency, LaunchModelKind};
//!
//! let cdp = LaunchModelKind::Cdp.build(LaunchLatency::default_for(LaunchModelKind::Cdp));
//! assert_eq!(cdp.name(), "cdp");
//! ```

// Library code must not panic on fallible lookups; tests opt back
// in locally.
#![deny(clippy::unwrap_used)]

pub mod cdp;
pub mod dtbl;
pub mod latency;
pub mod tracking;

pub use cdp::CdpModel;
pub use dtbl::DtblModel;
pub use latency::LaunchLatency;
pub use tracking::FamilyTree;

use gpu_sim::launch::DynamicLaunchModel;

/// Selects one of the two dynamic-parallelism mechanisms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaunchModelKind {
    /// CUDA Dynamic Parallelism: device-side kernel launch.
    Cdp,
    /// Dynamic Thread Block Launch: device-side TB-group launch.
    Dtbl,
}

impl LaunchModelKind {
    /// Builds the launch model with the given latency parameters.
    pub fn build(self, latency: LaunchLatency) -> Box<dyn DynamicLaunchModel> {
        match self {
            LaunchModelKind::Cdp => Box::new(CdpModel::new(latency)),
            LaunchModelKind::Dtbl => Box::new(DtblModel::new(latency)),
        }
    }

    /// Builds the launch model with its default latency.
    pub fn build_default(self) -> Box<dyn DynamicLaunchModel> {
        self.build(LaunchLatency::default_for(self))
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            LaunchModelKind::Cdp => "cdp",
            LaunchModelKind::Dtbl => "dtbl",
        }
    }

    /// Both mechanisms, in paper order.
    pub fn all() -> [LaunchModelKind; 2] {
        [LaunchModelKind::Cdp, LaunchModelKind::Dtbl]
    }

    /// The mechanism whose [`name`](Self::name) is `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::all().into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for LaunchModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_builds_matching_model() {
        assert_eq!(LaunchModelKind::Cdp.build_default().name(), "cdp");
        assert_eq!(LaunchModelKind::Dtbl.build_default().name(), "dtbl");
    }

    #[test]
    fn all_lists_both() {
        assert_eq!(LaunchModelKind::all(), [LaunchModelKind::Cdp, LaunchModelKind::Dtbl]);
    }

    #[test]
    fn names_round_trip() {
        for k in LaunchModelKind::all() {
            assert_eq!(LaunchModelKind::from_name(k.name()), Some(k));
        }
        assert_eq!(LaunchModelKind::from_name("cuda"), None);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(LaunchModelKind::Cdp.to_string(), "cdp");
        assert_eq!(LaunchModelKind::Dtbl.to_string(), "dtbl");
    }
}
