//! The resilience layer: supervised estimation and transactional,
//! recoverable sessions.
//!
//! The paper's layer leans on *external* estimation tools (the CC3
//! contexts pick a `BehaviorDelayEstimator` and friends) and on a
//! long-lived interactive exploration loop — exactly the two places a
//! production system fails: a tool panics, hangs or returns garbage
//! mid-session. This module makes both failure surfaces survivable:
//!
//! * [`Supervisor`] runs estimators under `catch_unwind` with a
//!   deterministic [`Fuel`] budget, bounded seeded-backoff retry for
//!   transient failures, and declarative fallback chains ending at the
//!   output property's declared range. Every figure it produces is a
//!   [`Figure`] tagged with [`Provenance`], so degraded numbers are
//!   visible, never silent.
//! * [`Journal`] is a session's append-only decision journal (JSON
//!   lines) with replay and recovery, tolerant of a truncated tail
//!   record. [`JournalDir`] is the on-disk home of per-session
//!   journals; [`JournalAppender`] is the one path records take to
//!   disk, rendered straight from the session's log, and
//!   [`Journal::checkpoint`] is what compaction writes.
//! * [`FaultPlan`] is a deterministic fault-injection harness: it wraps
//!   any estimator to inject panics, transient failures, fuel exhaustion
//!   and NaN/garbage outputs on a seeded schedule, so chaos tests can
//!   prove the invariants (no poisoned registry, no partial decisions,
//!   replay ≡ original) reproducibly.

use std::fmt;

pub mod cache;
pub mod fault;
pub mod fuel;
pub mod journal;
pub mod supervisor;

pub use cache::{CacheStats, EstimateCache};
pub use fault::{Fault, FaultPlan, FaultRates, FaultyEstimator};
pub use fuel::Fuel;
pub use journal::{
    Journal, JournalAppender, JournalDir, JournalRecord, RecoverError, RecoveryReport,
};
pub use supervisor::{BreakerConfig, BreakerView, Supervisor, SupervisorConfig, SupervisorStats};

/// How trustworthy a produced figure is — the provenance ladder.
///
/// Ordering matters: `Exact < Estimated < Fallback < Unavailable` ranks
/// figures from most to least trustworthy, so `max()` over a report
/// yields the overall degradation level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Provenance {
    /// Derived exactly (a designer decision, or an exact quantitative
    /// relation).
    Exact,
    /// Produced by the primary estimation tool.
    Estimated,
    /// Produced by a fallback: a coarser tool, or the output property's
    /// declared range.
    Fallback,
    /// Nothing could produce the figure; the value is absent.
    Unavailable,
}

impl Provenance {
    /// Lower-case label used in rendered reports.
    pub fn label(self) -> &'static str {
        match self {
            Provenance::Exact => "exact",
            Provenance::Estimated => "estimated",
            Provenance::Fallback => "fallback",
            Provenance::Unavailable => "unavailable",
        }
    }

    /// Whether the figure is degraded (fallback or absent).
    pub fn is_degraded(self) -> bool {
        matches!(self, Provenance::Fallback | Provenance::Unavailable)
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A provenance-tagged figure: the unit of supervised estimation that
/// flows into session bindings, the evaluation space and reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// The produced value, absent when [`Provenance::Unavailable`].
    pub value: Option<f64>,
    /// Where the value came from.
    pub provenance: Provenance,
    /// The tool (or `"range"`) that produced it, for reports.
    pub source: String,
}

impl Figure {
    /// An exact figure (designer decision / exact relation).
    pub fn exact(value: f64, source: impl Into<String>) -> Self {
        Figure {
            value: Some(value),
            provenance: Provenance::Exact,
            source: source.into(),
        }
    }

    /// A figure the primary tool estimated.
    pub fn estimated(value: f64, source: impl Into<String>) -> Self {
        Figure {
            value: Some(value),
            provenance: Provenance::Estimated,
            source: source.into(),
        }
    }

    /// A degraded figure from a fallback source.
    pub fn fallback(value: f64, source: impl Into<String>) -> Self {
        Figure {
            value: Some(value),
            provenance: Provenance::Fallback,
            source: source.into(),
        }
    }

    /// The marker for a figure nothing could produce.
    pub fn unavailable(source: impl Into<String>) -> Self {
        Figure {
            value: None,
            provenance: Provenance::Unavailable,
            source: source.into(),
        }
    }
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.value {
            Some(v) => write!(f, "{v:.3} [{}: {}]", self.provenance, self.source),
            None => write!(f, "— [{}: {}]", self.provenance, self.source),
        }
    }
}

foundation::impl_json_enum!(Provenance { Exact, Estimated, Fallback, Unavailable });
foundation::impl_json_struct!(Figure { value, provenance, source });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_ladder_orders_by_degradation() {
        assert!(Provenance::Exact < Provenance::Estimated);
        assert!(Provenance::Estimated < Provenance::Fallback);
        assert!(Provenance::Fallback < Provenance::Unavailable);
        assert!(!Provenance::Estimated.is_degraded());
        assert!(Provenance::Fallback.is_degraded());
        assert!(Provenance::Unavailable.is_degraded());
    }

    #[test]
    fn figures_render_their_provenance() {
        let f = Figure::estimated(3.25, "BehaviorDelayEstimator");
        assert_eq!(f.to_string(), "3.250 [estimated: BehaviorDelayEstimator]");
        let u = Figure::unavailable("MaxCombDelayNs");
        assert!(u.to_string().contains("unavailable"));
        assert!(u.value.is_none());
    }

    #[test]
    fn figures_roundtrip_through_json() {
        let f = Figure::fallback(7.5, "range");
        let json = foundation::json::encode(&f);
        let back: Figure = foundation::json::decode(&json).unwrap();
        assert_eq!(f, back);
    }
}
