//! Surrogates: system-managed, system-wide object identifiers.
//!
//! The paper (§3): "Automatically, any object has an attribute called
//! *surrogate* which allows a system-wide identification of the object and
//! which is managed by the system."

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// A system-wide object identifier. Never reused within a store.
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize, Default,
)]
pub struct Surrogate(pub u64);

impl std::fmt::Display for Surrogate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Monotonic surrogate generator. Clones share one counter: every
/// copy-on-write clone of a store — published snapshots, the master, and
/// transaction workspaces — draws from the same sequence, so a surrogate
/// handed out inside a transaction is unique store-wide and stays the
/// object's surrogate after commit.
#[derive(Debug, Clone)]
pub struct SurrogateGen {
    next: Arc<AtomicU64>,
}

impl Default for SurrogateGen {
    fn default() -> Self {
        Self::new()
    }
}

impl SurrogateGen {
    /// Start issuing from 1 (0 is reserved as a niche/sentinel).
    pub fn new() -> Self {
        Self::resume_after(0)
    }

    /// Resume issuing above `highest` (used when loading a persisted store).
    pub fn resume_after(highest: u64) -> Self {
        SurrogateGen {
            next: Arc::new(AtomicU64::new(highest + 1)),
        }
    }

    /// Issue the next surrogate.
    pub fn issue(&self) -> Surrogate {
        Surrogate(self.next.fetch_add(1, Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_and_unique() {
        let g = SurrogateGen::new();
        let a = g.issue();
        let b = g.issue();
        assert!(b > a);
        assert_ne!(a, b);
        assert_eq!(a, Surrogate(1));
    }

    #[test]
    fn resume_skips_used_range() {
        let g = SurrogateGen::resume_after(41);
        assert_eq!(g.issue(), Surrogate(42));
    }

    #[test]
    fn clones_draw_from_one_sequence() {
        let g = SurrogateGen::new();
        let h = g.clone();
        assert_eq!(g.issue(), Surrogate(1));
        assert_eq!(h.issue(), Surrogate(2));
        assert_eq!(g.issue(), Surrogate(3));
    }

    #[test]
    fn display_format() {
        assert_eq!(Surrogate(7).to_string(), "#7");
    }
}
