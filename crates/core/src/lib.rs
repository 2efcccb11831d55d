#![warn(missing_docs)]
//! The **design space layer**: the paper's primary contribution.
//!
//! A design space layer is a library layer that sits on top of
//! conventional IP-reuse libraries and gives designers an *implicit*
//! representation of the space of all feasible implementations of a
//! design object, organised for systematic pruning during early
//! (conceptual) design. Its building blocks, all implemented here:
//!
//! * **Classes of design objects** ([`hierarchy::DesignSpace`],
//!   [`hierarchy::CdoId`]) — a generalization/specialization hierarchy of
//!   CDOs built on common functionality *and* proximity in the evaluation
//!   space. Properties are inherited from ancestor CDOs.
//! * **Properties** ([`property::Property`]) — the meta-data attached to a
//!   CDO: behavioural/structural *descriptions*, *requirements* (problem
//!   givens and target figures of merit), and *design issues* (areas of
//!   design decision with enumerated options). A CDO may carry at most one
//!   **generalized design issue**; each of its options spawns a child CDO,
//!   partitioning the design space.
//! * **Consistency constraints** ([`constraint::ConsistencyConstraint`]) —
//!   a single construct expressing option inconsistencies, quantitative or
//!   heuristic relations (with dependency ordering between an independent
//!   and a dependent property set), estimation-tool contexts, and
//!   dominance elimination.
//! * **Exploration sessions** ([`session::ExplorationSession`]) — the
//!   conceptual-design loop: enter requirement values, decide issues
//!   (descending the hierarchy at generalized issues), get violations and
//!   derived values from the constraints, revisit decisions.
//! * **The evaluation space** ([`eval::EvaluationSpace`]) — figures of
//!   merit, ranges, Pareto fronts and clustering, used both to organise
//!   the hierarchy and to present surviving candidates.
//! * **Estimation tools** ([`estimate::Estimator`]) — the plugin interface
//!   that CC3-style constraints bind into specific utilization contexts,
//!   for conceptual design when no suitable core exists.
//! * **Self-documentation** ([`doc`]) — every layer renders itself to
//!   human-readable Markdown, the paper's "self-documented" claim.
//! * **Static analysis** ([`analyze`], [`diag`]) — a compiler-style
//!   verification pass over a finished layer: derivation-graph cycles and
//!   unresolved references, statically contradictory constraints, dead
//!   options, unreachable child CDOs and shadowed properties, reported as
//!   [`diag::Diagnostic`]s with stable `DSLnnn` codes.
//! * **Resilience** ([`robust`]) — supervised estimator execution
//!   (panic isolation, deterministic fuel budgets, seeded retry,
//!   declarative fallback chains, provenance-tagged figures),
//!   transactional sessions with an append-only decision journal and
//!   crash recovery, and a deterministic fault-injection harness for
//!   chaos testing.
//!
//! Domain-specific layers (cryptography, IDCT) and the reuse-library
//! indexing live in the `dse-library` crate; this crate is
//! domain-agnostic.
//!
//! # A tiny layer
//!
//! ```
//! use dse::prelude::*;
//!
//! # fn main() -> Result<(), dse::DseError> {
//! let mut space = DesignSpace::new("adders");
//! let adder = space.add_root("Adder", "all adder implementations");
//! space.add_property(adder, Property::requirement(
//!     "WordSize", Domain::int_range(1, 1024), Some(Unit::bits()), "operand width",
//! ))?;
//! space.add_property(adder, Property::generalized_issue(
//!     "LogicStyle",
//!     Domain::options(["ripple-carry", "carry-look-ahead", "carry-save"]),
//!     "dominant area/delay lever",
//! ))?;
//! let children = space.specialize(adder, "LogicStyle")?;
//! assert_eq!(children.len(), 3);
//!
//! let mut session = ExplorationSession::new(&space, adder);
//! session.set_requirement("WordSize", Value::from(64))?;
//! session.decide("LogicStyle", Value::from("carry-save"))?;
//! assert_eq!(space.path_string(session.focus()), "Adder.carry-save");
//! # Ok(())
//! # }
//! ```

pub mod analyze;
pub mod behavior;
pub mod constraint;
pub mod diag;
pub mod diff;
pub mod doc;
pub mod error;
pub mod estimate;
pub mod eval;
pub mod expr;
pub mod hierarchy;
pub mod intern;
pub mod property;
pub mod robust;
pub mod script;
pub mod session;
pub mod value;

pub use error::DseError;

/// Convenient glob-import surface for layer authors.
pub mod prelude {
    pub use crate::analyze::{
        analyze, analyze_detailed, analyze_with_engine, evaluation_order, Analysis,
        DerivationGraph, DomainEngine,
    };
    pub use crate::analyze::solve::{Conflict, Net, Solver, SolveTotals, Viability};
    pub use crate::behavior::{BehavioralDescription, OperandCoding, OperatorUse};
    pub use crate::constraint::{ConsistencyConstraint, ConstraintOutcome, Relation};
    pub use crate::diag::{DiagCode, Diagnostic, Report, Severity, Span};
    pub use crate::diff::{diff, LayerChange};
    pub use crate::error::DseError;
    pub use crate::estimate::{EstimateError, Estimator, EstimatorRegistry};
    pub use crate::eval::{EvalPoint, EvaluationSpace, FigureOfMerit};
    pub use crate::expr::{Bindings, CmpOp, Expr, Pred};
    pub use crate::hierarchy::{CdoId, DesignSpace, Symbol};
    pub use crate::property::{Property, PropertyKind, Unit};
    pub use crate::robust::{
        BreakerConfig, BreakerView, CacheStats, EstimateCache, Fault, FaultPlan, FaultRates,
        Figure, Fuel, Journal, JournalAppender, JournalDir, JournalRecord, Provenance,
        RecoverError, RecoveryReport, Supervisor, SupervisorConfig,
    };
    pub use crate::script::{SessionAction, SessionScript};
    pub use crate::session::{Decision, ExplorationSession, SessionSnapshot};
    pub use crate::value::{Domain, Value};
}
