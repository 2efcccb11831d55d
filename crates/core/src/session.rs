//! Exploration sessions: the conceptual-design loop over a layer.
//!
//! A session tracks the designer's requirement entries and design
//! decisions against a (read-only) [`DesignSpace`]. Each decision:
//!
//! 1. is validated against the property's domain,
//! 2. is ordered by the consistency constraints (a dependent property may
//!    not be decided before its independents — the paper's partial
//!    ordering of design issues),
//! 3. is checked against every effective constraint (inconsistent or
//!    dominated combinations are rejected with the violated CC), and
//! 4. if it decides a *generalized* issue, descends the hierarchy into the
//!    spawned child CDO — the paper's design space pruning step.
//!
//! Revising an already-decided independent marks all decisions that depend
//! on it as *stale* ("when the independent set is modified, the dependent
//! set needs to be re-assessed").
//!
//! Every mutating operation is **transactional**: it either commits
//! completely or rolls the session back to its pre-operation
//! [`SessionSnapshot`] — a failed decision can never leave partial
//! bindings, a moved focus or a half-written log behind.

use std::collections::BTreeMap;

use crate::analyze::solve::Solver;
use crate::constraint::{ConsistencyConstraint, ConstraintOutcome, Fidelity, Relation};
use crate::error::DseError;
use crate::expr::Bindings;
use crate::hierarchy::{CdoId, DesignSpace, Symbol};
use crate::property::{Property, PropertyKind};
use crate::robust::{Figure, Supervisor};
use crate::value::Value;

/// One entry in the session's decision log.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The decided property.
    pub property: String,
    /// The chosen value.
    pub value: Value,
    /// The property's kind at decision time.
    pub kind: PropertyKind,
    /// The focus CDO *before* this decision (for undo).
    pub prev_focus: CdoId,
    /// Whether a later revision of an independent invalidated this
    /// decision (it must be re-assessed).
    pub stale: bool,
    /// The designer's rationale, if recorded (see
    /// [`ExplorationSession::annotate`]).
    pub note: Option<String>,
}

/// A complete copy of a session's mutable state — focus, bindings,
/// decision log, and estimate cache. Mutating operations take one before
/// touching anything and [`ExplorationSession::restore`] it on any error,
/// which is what makes them all-or-nothing.
/// The `Default` state (empty, focused on the id-0 CDO) is a detached
/// placeholder for `std::mem::take`-style handoff; reattach a real
/// state before using it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionSnapshot {
    focus: CdoId,
    bindings: Bindings,
    log: Vec<Decision>,
    estimates: BTreeMap<Symbol, Figure>,
}

impl SessionSnapshot {
    /// The CDO the saved session is focused on, read without resuming it.
    pub fn focus(&self) -> CdoId {
        self.focus
    }
}

/// An in-progress conceptual-design session.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationSession<'a> {
    space: &'a DesignSpace,
    focus: CdoId,
    bindings: Bindings,
    log: Vec<Decision>,
    estimates: BTreeMap<Symbol, Figure>,
}

impl<'a> ExplorationSession<'a> {
    /// Starts a session focused on `root`.
    pub fn new(space: &'a DesignSpace, root: CdoId) -> Self {
        ExplorationSession {
            space,
            focus: root,
            bindings: Bindings::new(),
            log: Vec::new(),
            estimates: BTreeMap::new(),
        }
    }

    /// Reattaches a detached [`SessionSnapshot`] to a space — the
    /// `Arc`-friendly constructor a multi-session server uses: the
    /// per-session state lives in owned snapshots while every live
    /// session borrows one shared, immutable space, so opening or
    /// serving a session never clones the space itself.
    pub fn resume(space: &'a DesignSpace, state: SessionSnapshot) -> Self {
        ExplorationSession {
            space,
            focus: state.focus,
            bindings: state.bindings,
            log: state.log,
            estimates: state.estimates,
        }
    }

    /// Captures the session's full mutable state.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            focus: self.focus,
            bindings: self.bindings.clone(),
            log: self.log.clone(),
            estimates: self.estimates.clone(),
        }
    }

    /// Detaches the session's full mutable state without cloning it —
    /// the inverse of [`resume`](Self::resume). A server stashing
    /// per-session state between requests moves it out with this and
    /// back in with `resume`, so a request round-trip copies nothing.
    pub fn into_snapshot(self) -> SessionSnapshot {
        SessionSnapshot {
            focus: self.focus,
            bindings: self.bindings,
            log: self.log,
            estimates: self.estimates,
        }
    }

    /// Restores a previously captured state, discarding everything that
    /// happened since.
    pub fn restore(&mut self, snapshot: SessionSnapshot) {
        self.focus = snapshot.focus;
        self.bindings = snapshot.bindings;
        self.log = snapshot.log;
        self.estimates = snapshot.estimates;
    }

    /// The layer being explored.
    pub fn space(&self) -> &DesignSpace {
        self.space
    }

    /// The CDO the session is currently focused on. Deciding generalized
    /// issues descends; the focus path is the pruned design-space region.
    pub fn focus(&self) -> CdoId {
        self.focus
    }

    /// The decided/entered values.
    pub fn bindings(&self) -> &Bindings {
        &self.bindings
    }

    /// The decision log, oldest first.
    pub fn log(&self) -> &[Decision] {
        &self.log
    }

    /// The decided value of `property`, if any.
    pub fn decided(&self, property: &str) -> Option<&Value> {
        self.bindings.get(property)
    }

    /// The decided value, falling back to the property's default.
    pub fn effective_value(&self, property: &str) -> Option<Value> {
        if let Some(v) = self.bindings.get(property) {
            return Some(v.clone());
        }
        self.space
            .find_property(self.focus, property)
            .and_then(|(_, p)| p.default().cloned())
    }

    /// Enters a requirement value (the paper's Req1–Req5 step).
    ///
    /// # Errors
    ///
    /// Domain violations, ordering violations, constraint violations, or
    /// re-deciding an already-entered requirement.
    pub fn set_requirement(&mut self, name: &str, value: Value) -> Result<(), DseError> {
        self.apply(name, value, &[PropertyKind::Requirement], "requirement")
    }

    /// Decides a design issue (regular or generalized) or selects a
    /// description. Deciding a generalized issue moves the focus into the
    /// spawned child CDO.
    ///
    /// # Errors
    ///
    /// Domain violations, ordering violations, constraint violations,
    /// re-deciding, or a generalized option whose child was never
    /// specialized by the layer author.
    pub fn decide(&mut self, issue: &str, option: Value) -> Result<(), DseError> {
        self.apply(
            issue,
            option,
            &[
                PropertyKind::DesignIssue,
                PropertyKind::GeneralizedIssue,
                PropertyKind::Description,
            ],
            "design issue",
        )
    }

    fn apply(
        &mut self,
        name: &str,
        value: Value,
        kinds: &[PropertyKind],
        expected: &'static str,
    ) -> Result<(), DseError> {
        // All-or-nothing without a pre-state snapshot: `apply_inner`
        // mutates at most the new binding and the focus (the log entry
        // lands last, after every check), and rolls both back itself in
        // its error arm.
        self.apply_inner(name, value, kinds, expected)
    }

    /// Checks every effective constraint at the current focus against the
    /// current bindings; violations and evaluation failures are errors.
    fn check_constraints(&self) -> Result<(), DseError> {
        self.check_constraints_where(|_| true)
    }

    /// Incremental variant: checks only the constraints that mention
    /// `changed`. Sound because committed session states never hold a
    /// violated or failed constraint — re-binding one property can only
    /// change the outcome of constraints that reference it, so the
    /// untouched rest are still known-good. Same error selection as the
    /// full scan: `effective_constraints` order, first violation wins.
    fn check_constraints_touching(&self, changed: &str) -> Result<(), DseError> {
        self.check_constraints_where(|cc| cc.mentions(changed))
    }

    fn check_constraints_where(
        &self,
        relevant: impl Fn(&ConsistencyConstraint) -> bool,
    ) -> Result<(), DseError> {
        for (_, cc) in self.space.effective_constraints(self.focus) {
            if !relevant(cc) {
                continue;
            }
            match cc.evaluate(&self.bindings) {
                ConstraintOutcome::Violated { detail } => {
                    return Err(DseError::ConstraintViolation {
                        constraint: cc.name().to_owned(),
                        detail,
                    });
                }
                ConstraintOutcome::Failed { detail } => {
                    return Err(DseError::EvaluationFailed {
                        constraint: cc.name().to_owned(),
                        detail,
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn apply_inner(
        &mut self,
        name: &str,
        value: Value,
        kinds: &[PropertyKind],
        expected: &'static str,
    ) -> Result<(), DseError> {
        if self.bindings.contains_key(name) {
            return Err(DseError::AlreadyDecided(name.to_owned()));
        }
        let (_, prop) = self
            .space
            .find_property(self.focus, name)
            .ok_or_else(|| DseError::UnknownProperty(name.to_owned()))?;
        if !kinds.contains(&prop.kind()) {
            return Err(DseError::WrongPropertyKind {
                property: name.to_owned(),
                expected,
            });
        }
        if !prop.domain().contains(&value) {
            return Err(DseError::ValueOutsideDomain {
                property: name.to_owned(),
                value,
            });
        }
        // Ordering: a dependent property may not precede its independents.
        for (_, cc) in self.space.effective_constraints(self.focus) {
            if let Some(missing) = cc.blocking_dependency(name, &self.bindings) {
                return Err(DseError::DependencyNotReady {
                    constraint: cc.name().to_owned(),
                    missing: missing.to_owned(),
                });
            }
        }

        let kind = prop.kind();
        let prev_focus = self.focus;

        // Tentatively bind and check consistency. The only state this
        // can dirty is the binding itself and (for generalized issues)
        // the focus, so the error arm rolls exactly those back — no
        // full pre-state snapshot. Only constraints mentioning the new
        // binding can have changed outcome, so the check is O(touched),
        // not O(constraints).
        self.bindings.insert(name.to_owned(), value.clone());
        if let Err(e) = self.check_and_descend(name, &value, kind) {
            self.bindings.remove(name);
            self.focus = prev_focus;
            return Err(e);
        }

        self.log.push(Decision {
            property: name.to_owned(),
            value,
            kind,
            prev_focus,
            stale: false,
            note: None,
        });
        Ok(())
    }

    /// The check-and-mutate tail of [`apply_inner`], run after the
    /// tentative binding: incremental constraint check, then (for
    /// generalized issues) the hierarchy descent and the full re-check
    /// the new region requires. The caller rolls back the binding and
    /// the focus if any step errs.
    fn check_and_descend(
        &mut self,
        name: &str,
        value: &Value,
        kind: PropertyKind,
    ) -> Result<(), DseError> {
        self.check_constraints_touching(name)?;
        if kind == PropertyKind::GeneralizedIssue {
            let child = self
                .space
                .node(self.focus)
                .children()
                .iter()
                .copied()
                .find(|&c| {
                    self.space
                        .node(c)
                        .spawned_by()
                        .is_some_and(|(i, v)| i == name && v.matches(value))
                });
            match child {
                Some(c) => self.focus = c,
                None => {
                    return Err(DseError::OptionNotSpecialized {
                        issue: name.to_owned(),
                        option: value.clone(),
                    });
                }
            }
            // Entering the child brings its own constraints into effect;
            // a region already inconsistent with the requirements must be
            // rejected at the descent, not discovered later.
            self.check_constraints()?;
        }
        Ok(())
    }

    /// Records the designer's rationale for an already-made decision —
    /// part of the layer's self-documentation story: an archived session
    /// explains *why*, not just *what*.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::UnknownProperty`] if `property` has not been
    /// decided in this session.
    pub fn annotate(&mut self, property: &str, note: impl Into<String>) -> Result<(), DseError> {
        match self.log.iter_mut().find(|d| d.property == property) {
            Some(d) => {
                d.note = Some(note.into());
                Ok(())
            }
            None => Err(DseError::UnknownProperty(property.to_owned())),
        }
    }

    /// The recorded rationale for a decision, if any.
    pub fn note(&self, property: &str) -> Option<&str> {
        self.log
            .iter()
            .find(|d| d.property == property)
            .and_then(|d| d.note.as_deref())
    }

    /// Undoes the most recent decision, restoring focus if it was a
    /// generalized one.
    ///
    /// # Errors
    ///
    /// [`DseError::NothingToUndo`] on an empty log.
    pub fn undo(&mut self) -> Result<Decision, DseError> {
        let d = self.log.pop().ok_or(DseError::NothingToUndo)?;
        self.bindings.remove(&d.property);
        self.focus = d.prev_focus;
        Ok(d)
    }

    /// Revises an already-decided property to a new value, marking every
    /// decision that depends on it (per the constraints' dependency
    /// ordering) as stale for re-assessment. Returns the names marked.
    ///
    /// Generalized issues cannot be revised in place (the focus would have
    /// to move across the hierarchy); undo back to them instead.
    ///
    /// # Errors
    ///
    /// Unknown/undecided properties, domain violations, constraint
    /// violations, or attempts to revise a generalized issue.
    pub fn revise(&mut self, name: &str, value: Value) -> Result<Vec<String>, DseError> {
        let snapshot = self.snapshot();
        let result = self.revise_inner(name, value);
        if result.is_err() {
            self.restore(snapshot);
        }
        result
    }

    fn revise_inner(&mut self, name: &str, value: Value) -> Result<Vec<String>, DseError> {
        let idx = self
            .log
            .iter()
            .position(|d| d.property == name)
            .ok_or_else(|| DseError::UnknownProperty(name.to_owned()))?;
        if self.log[idx].kind == PropertyKind::GeneralizedIssue {
            return Err(DseError::WrongPropertyKind {
                property: name.to_owned(),
                expected: "revisable (non-generalized) property",
            });
        }
        let (_, prop) = self
            .space
            .find_property(self.focus, name)
            .ok_or_else(|| DseError::UnknownProperty(name.to_owned()))?;
        if !prop.domain().contains(&value) {
            return Err(DseError::ValueOutsideDomain {
                property: name.to_owned(),
                value,
            });
        }
        self.bindings.insert(name.to_owned(), value.clone());
        self.check_constraints_touching(name)?;
        self.log[idx].value = value;

        // Mark dependents stale (transitively).
        let mut stale = Vec::new();
        let mut frontier = vec![name.to_owned()];
        while let Some(cur) = frontier.pop() {
            for (_, cc) in self.space.effective_constraints(self.focus) {
                if cc.indep().contains(&cur) {
                    for dep in cc.dep() {
                        if let Some(d) =
                            self.log.iter_mut().find(|d| &d.property == dep && !d.stale)
                        {
                            d.stale = true;
                            stale.push(dep.clone());
                            frontier.push(dep.clone());
                        }
                    }
                }
            }
        }
        Ok(stale)
    }

    /// A propagation [`Solver`] primed with the session's focus and
    /// bindings: an advisory lookahead over the remaining freedom.
    /// `viable`/`is_viable` on the result answer "which options can
    /// still survive the constraints?" *before* committing a decision —
    /// the wire-visible decide/retract semantics are unchanged (a
    /// rejected decision still reports the violated constraint on
    /// commit, exactly as before).
    pub fn lookahead(&self) -> Solver {
        Solver::with_bindings(self.space, self.focus, &self.bindings)
    }

    /// Decisions currently flagged stale (needing re-assessment).
    pub fn stale(&self) -> Vec<&Decision> {
        self.log.iter().filter(|d| d.stale).collect()
    }

    /// Confirms a stale decision after re-assessment.
    pub fn reaffirm(&mut self, property: &str) {
        if let Some(d) = self.log.iter_mut().find(|d| d.property == property) {
            d.stale = false;
        }
    }

    /// The design issues (and description slots) visible at the focus that
    /// have not been decided yet — what the designer should look at next.
    pub fn open_issues(&self) -> Vec<&'a Property> {
        self.space
            .effective_properties(self.focus)
            .into_iter()
            .map(|(_, p)| p)
            .filter(|p| {
                matches!(
                    p.kind(),
                    PropertyKind::DesignIssue
                        | PropertyKind::GeneralizedIssue
                        | PropertyKind::Description
                ) && !self.bindings.contains_key(p.name())
            })
            .collect()
    }

    /// Requirements visible at the focus that have not been entered yet.
    pub fn open_requirements(&self) -> Vec<&'a Property> {
        self.space
            .effective_properties(self.focus)
            .into_iter()
            .map(|(_, p)| p)
            .filter(|p| {
                p.kind() == PropertyKind::Requirement && !self.bindings.contains_key(p.name())
            })
            .collect()
    }

    /// Values derived by ready quantitative constraints (e.g. CC2's
    /// latency estimate once EOL and radix are known).
    pub fn derived(&self) -> Vec<(String, Value)> {
        let mut out = Vec::new();
        for (_, cc) in self.space.effective_constraints(self.focus) {
            if let ConstraintOutcome::Derived { property, value } = cc.evaluate(&self.bindings) {
                out.push((property, value));
            }
        }
        out
    }

    /// Estimator contexts that are ready to run (CC3-style), as
    /// `(estimator, output)` pairs.
    pub fn ready_estimators(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (_, cc) in self.space.effective_constraints(self.focus) {
            if let ConstraintOutcome::EstimatorReady { estimator, output } =
                cc.evaluate(&self.bindings)
            {
                out.push((estimator, output));
            }
        }
        out
    }

    /// Full constraint diagnostics at the current focus.
    pub fn diagnostics(&self) -> Vec<(String, ConstraintOutcome)> {
        self.space
            .effective_constraints(self.focus)
            .into_iter()
            .map(|(_, cc)| (cc.name().to_owned(), cc.evaluate(&self.bindings)))
            .collect()
    }

    /// Whether any effective constraint has a [`Relation::Quantitative`]
    /// relation targeting `property` (i.e. the layer derives it rather
    /// than asking the designer).
    pub fn is_derived_property(&self, property: &str) -> bool {
        self.space
            .effective_constraints(self.focus)
            .iter()
            .any(|(_, cc)| {
                matches!(cc.relation(), Relation::Quantitative { target, .. } if target == property)
            })
    }

    /// The supervised estimate cache: provenance-tagged figures produced
    /// by [`run_estimators`](Self::run_estimators) and
    /// [`absorb_derived`](Self::absorb_derived), keyed by output property.
    /// The cache is a convenience view, not a binding — revisions and
    /// undos leave it alone; re-run the estimators to refresh it.
    pub fn estimates(&self) -> &BTreeMap<Symbol, Figure> {
        &self.estimates
    }

    /// The cached figure for one derived property, if any.
    pub fn estimate_of(&self, property: &str) -> Option<&Figure> {
        self.estimates.get(property)
    }

    /// Runs every ready estimator context (CC3-style) under `supervisor`,
    /// caching and returning the provenance-tagged figures.
    ///
    /// The output property's declared domain (see [`Property::derived`])
    /// anchors the supervisor's last-resort fallback range, and doubles
    /// as a garbage filter: a tool value outside the declared bounds is
    /// degraded to the range midpoint rather than trusted.
    pub fn run_estimators(&mut self, supervisor: &Supervisor) -> Vec<(String, Figure)> {
        self.run_estimators_budgeted(supervisor, None)
            .expect("unbudgeted estimator run cannot exhaust a deadline")
    }

    /// [`run_estimators`](Self::run_estimators) under a caller-owned
    /// [`Fuel`] budget shared by every ready estimator context — the
    /// request-deadline path.
    ///
    /// # Errors
    ///
    /// [`crate::estimate::EstimateError::FuelExhausted`] when the budget
    /// ran dry mid-run. Figures produced before the cutoff stay cached
    /// (they are real results); the caller decides whether to surface
    /// or roll back.
    pub fn run_estimators_within(
        &mut self,
        supervisor: &Supervisor,
        budget: &crate::robust::Fuel,
    ) -> Result<Vec<(String, Figure)>, crate::estimate::EstimateError> {
        self.run_estimators_budgeted(supervisor, Some(budget))
    }

    fn run_estimators_budgeted(
        &mut self,
        supervisor: &Supervisor,
        budget: Option<&crate::robust::Fuel>,
    ) -> Result<Vec<(String, Figure)>, crate::estimate::EstimateError> {
        let mut out = Vec::new();
        for (estimator, output) in self.ready_estimators() {
            let range = self
                .space
                .find_property(self.focus, &output)
                .and_then(|(_, p)| p.domain().numeric_bounds());
            let mut fig = match budget {
                Some(b) => supervisor.estimate_within(&estimator, &self.bindings, range, b)?,
                None => supervisor.estimate(&estimator, &self.bindings, range),
            };
            if let (Some(v), Some((lo, hi))) = (fig.value, range) {
                if v < lo || v > hi {
                    fig = Figure::fallback(
                        (lo + hi) / 2.0,
                        format!("declared-range (tool value {v} outside [{lo}, {hi}])"),
                    );
                }
            }
            self.estimates.insert(Symbol::from(&output), fig.clone());
            out.push((output, fig));
        }
        Ok(out)
    }

    /// Folds the ready quantitative derivations (see
    /// [`derived`](Self::derived)) into the estimate cache as figures —
    /// exact when the relation's fidelity is exact, estimated otherwise.
    pub fn absorb_derived(&mut self) -> Vec<(String, Figure)> {
        let mut out = Vec::new();
        for (_, cc) in self.space.effective_constraints(self.focus) {
            if let ConstraintOutcome::Derived { property, value } = cc.evaluate(&self.bindings) {
                if let Some(v) = value.as_f64() {
                    let fig = match cc.relation() {
                        Relation::Quantitative {
                            fidelity: Fidelity::Exact,
                            ..
                        } => Figure::exact(v, cc.name()),
                        _ => Figure::estimated(v, cc.name()),
                    };
                    self.estimates.insert(Symbol::from(&property), fig.clone());
                    out.push((property, fig));
                }
            }
        }
        out
    }
}

foundation::impl_json_struct!(Decision { property, value, kind, prev_focus, stale, note });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{ConsistencyConstraint, Fidelity, Relation};
    use crate::expr::{CmpOp, Expr, Pred};
    use crate::value::Domain;

    /// A miniature of the paper's modular-multiplier layer.
    fn crypto_like_space() -> (DesignSpace, CdoId) {
        let mut s = DesignSpace::new("omm");
        let omm = s.add_root("ModularMultiplier", "");
        s.add_property(
            omm,
            Property::requirement("EOL", Domain::int_range(8, 4096), None, ""),
        )
        .unwrap();
        s.add_property(
            omm,
            Property::requirement(
                "ModuloIsOdd",
                Domain::options(["Guaranteed", "notGuaranteed"]),
                None,
                "",
            ),
        )
        .unwrap();
        s.add_property(
            omm,
            Property::generalized_issue(
                "ImplementationStyle",
                Domain::options(["Hardware", "Software"]),
                "",
            ),
        )
        .unwrap();
        let kids = s.specialize(omm, "ImplementationStyle").unwrap();
        let hw = kids[0];
        s.add_property(
            hw,
            Property::generalized_issue(
                "Algorithm",
                Domain::options(["Montgomery", "Brickell"]),
                "",
            ),
        )
        .unwrap();
        s.specialize(hw, "Algorithm").unwrap();
        s.add_property(
            hw,
            Property::issue_with_default(
                "Radix",
                Domain::PowersOfTwo { max_exp: 4 },
                Value::Int(2),
                "",
            ),
        )
        .unwrap();
        s.add_property(
            hw,
            Property::issue(
                "Adder",
                Domain::options(["carry-save", "carry-look-ahead"]),
                "",
            ),
        )
        .unwrap();
        // CC1: Montgomery needs odd modulus; ordering ModuloIsOdd -> Algorithm.
        s.add_constraint(
            hw,
            ConsistencyConstraint::new(
                "CC1",
                "Montgomery requires odd modulo",
                vec!["ModuloIsOdd".to_owned()],
                vec!["Algorithm".to_owned()],
                Relation::InconsistentOptions(Pred::all([
                    Pred::is("ModuloIsOdd", "notGuaranteed"),
                    Pred::is("Algorithm", "Montgomery"),
                ])),
            ),
        ).unwrap();
        // CC2: latency formula.
        s.add_constraint(
            hw,
            ConsistencyConstraint::new(
                "CC2",
                "latency from radix",
                vec!["EOL".to_owned(), "Radix".to_owned()],
                vec!["LatencyCycles".to_owned()],
                Relation::Quantitative {
                    target: "LatencyCycles".to_owned(),
                    formula: Expr::constant(2)
                        .mul(Expr::prop("EOL"))
                        .div(Expr::prop("Radix"))
                        .add(Expr::constant(1)),
                    fidelity: Fidelity::Heuristic,
                },
            ),
        ).unwrap();
        // CC4: big Montgomery multipliers must use carry-save adders.
        s.add_constraint(
            hw,
            ConsistencyConstraint::new(
                "CC4",
                "inferior adder choices eliminated",
                vec!["EOL".to_owned(), "Algorithm".to_owned()],
                vec!["Adder".to_owned()],
                Relation::Dominance(Pred::all([
                    Pred::is("Algorithm", "Montgomery"),
                    Pred::cmp(CmpOp::Ge, Expr::prop("EOL"), Expr::constant(32)),
                    Pred::is_not("Adder", "carry-save"),
                ])),
            ),
        ).unwrap();
        (s, omm)
    }

    #[test]
    fn walkthrough_descends_the_hierarchy() {
        let (s, root) = crypto_like_space();
        let mut ses = ExplorationSession::new(&s, root);
        ses.set_requirement("EOL", Value::Int(768)).unwrap();
        ses.set_requirement("ModuloIsOdd", Value::from("Guaranteed"))
            .unwrap();
        ses.decide("ImplementationStyle", Value::from("Hardware"))
            .unwrap();
        assert_eq!(s.path_string(ses.focus()), "ModularMultiplier.Hardware");
        ses.decide("Algorithm", Value::from("Montgomery")).unwrap();
        assert_eq!(
            s.path_string(ses.focus()),
            "ModularMultiplier.Hardware.Montgomery"
        );
        assert_eq!(ses.log().len(), 4);
    }

    #[test]
    fn cc1_blocks_montgomery_for_even_modulus() {
        let (s, root) = crypto_like_space();
        let mut ses = ExplorationSession::new(&s, root);
        ses.set_requirement("EOL", Value::Int(768)).unwrap();
        ses.set_requirement("ModuloIsOdd", Value::from("notGuaranteed"))
            .unwrap();
        ses.decide("ImplementationStyle", Value::from("Hardware"))
            .unwrap();
        let err = ses
            .decide("Algorithm", Value::from("Montgomery"))
            .unwrap_err();
        assert!(
            matches!(err, DseError::ConstraintViolation { ref constraint, .. } if constraint == "CC1")
        );
        // Brickell remains legal.
        ses.decide("Algorithm", Value::from("Brickell")).unwrap();
    }

    #[test]
    fn ordering_blocks_algorithm_before_modulo() {
        let (s, root) = crypto_like_space();
        let mut ses = ExplorationSession::new(&s, root);
        ses.decide("ImplementationStyle", Value::from("Hardware"))
            .unwrap();
        let err = ses
            .decide("Algorithm", Value::from("Montgomery"))
            .unwrap_err();
        assert!(
            matches!(err, DseError::DependencyNotReady { ref missing, .. } if missing == "ModuloIsOdd")
        );
    }

    #[test]
    fn cc4_rejects_dominated_adder() {
        let (s, root) = crypto_like_space();
        let mut ses = ExplorationSession::new(&s, root);
        ses.set_requirement("EOL", Value::Int(768)).unwrap();
        ses.set_requirement("ModuloIsOdd", Value::from("Guaranteed"))
            .unwrap();
        ses.decide("ImplementationStyle", Value::from("Hardware"))
            .unwrap();
        ses.decide("Algorithm", Value::from("Montgomery")).unwrap();
        let err = ses
            .decide("Adder", Value::from("carry-look-ahead"))
            .unwrap_err();
        assert!(
            matches!(err, DseError::ConstraintViolation { ref constraint, .. } if constraint == "CC4")
        );
        ses.decide("Adder", Value::from("carry-save")).unwrap();
    }

    #[test]
    fn derived_latency_appears_once_ready() {
        let (s, root) = crypto_like_space();
        let mut ses = ExplorationSession::new(&s, root);
        ses.set_requirement("EOL", Value::Int(768)).unwrap();
        ses.set_requirement("ModuloIsOdd", Value::from("Guaranteed"))
            .unwrap();
        ses.decide("ImplementationStyle", Value::from("Hardware"))
            .unwrap();
        assert!(ses.derived().is_empty(), "radix not decided yet");
        ses.decide("Radix", Value::Int(4)).unwrap();
        let derived = ses.derived();
        assert_eq!(derived, vec![("LatencyCycles".to_owned(), Value::Int(385))]);
        assert!(ses.is_derived_property("LatencyCycles"));
        assert!(!ses.is_derived_property("Radix"));
    }

    #[test]
    fn undo_restores_focus_and_bindings() {
        let (s, root) = crypto_like_space();
        let mut ses = ExplorationSession::new(&s, root);
        ses.set_requirement("EOL", Value::Int(64)).unwrap();
        ses.decide("ImplementationStyle", Value::from("Hardware"))
            .unwrap();
        assert_ne!(ses.focus(), root);
        let undone = ses.undo().unwrap();
        assert_eq!(undone.property, "ImplementationStyle");
        assert_eq!(ses.focus(), root);
        assert!(ses.decided("ImplementationStyle").is_none());
        ses.undo().unwrap();
        assert!(matches!(ses.undo().unwrap_err(), DseError::NothingToUndo));
    }

    #[test]
    fn revision_marks_dependents_stale() {
        let (s, root) = crypto_like_space();
        let mut ses = ExplorationSession::new(&s, root);
        ses.set_requirement("EOL", Value::Int(768)).unwrap();
        ses.set_requirement("ModuloIsOdd", Value::from("Guaranteed"))
            .unwrap();
        ses.decide("ImplementationStyle", Value::from("Hardware"))
            .unwrap();
        ses.decide("Algorithm", Value::from("Montgomery")).unwrap();
        ses.decide("Adder", Value::from("carry-save")).unwrap();
        // Revising the modulus guarantee invalidates the algorithm choice.
        let stale = ses
            .revise("ModuloIsOdd", Value::from("Guaranteed"))
            .unwrap();
        assert!(stale.contains(&"Algorithm".to_owned()));
        // ... and transitively the adder choice, which CC4 ties to the
        // algorithm.
        assert!(stale.contains(&"Adder".to_owned()));
        assert!(!ses.stale().is_empty());
        ses.reaffirm("Algorithm");
        ses.reaffirm("Adder");
        assert!(ses.stale().is_empty());
    }

    #[test]
    fn revision_to_violating_value_is_rejected_and_rolled_back() {
        let (s, root) = crypto_like_space();
        let mut ses = ExplorationSession::new(&s, root);
        ses.set_requirement("EOL", Value::Int(768)).unwrap();
        ses.set_requirement("ModuloIsOdd", Value::from("Guaranteed"))
            .unwrap();
        ses.decide("ImplementationStyle", Value::from("Hardware"))
            .unwrap();
        ses.decide("Algorithm", Value::from("Montgomery")).unwrap();
        let err = ses
            .revise("ModuloIsOdd", Value::from("notGuaranteed"))
            .unwrap_err();
        assert!(matches!(err, DseError::ConstraintViolation { .. }));
        assert_eq!(
            ses.decided("ModuloIsOdd"),
            Some(&Value::from("Guaranteed")),
            "rolled back"
        );
    }

    #[test]
    fn open_issues_shrink_as_decisions_land() {
        let (s, root) = crypto_like_space();
        let mut ses = ExplorationSession::new(&s, root);
        assert_eq!(ses.open_issues().len(), 1); // ImplementationStyle
        assert_eq!(ses.open_requirements().len(), 2);
        ses.set_requirement("EOL", Value::Int(64)).unwrap();
        ses.decide("ImplementationStyle", Value::from("Hardware"))
            .unwrap();
        let names: Vec<&str> = ses.open_issues().iter().map(|p| p.name()).collect();
        assert!(names.contains(&"Algorithm"));
        assert!(names.contains(&"Radix"));
        assert!(!names.contains(&"ImplementationStyle"));
    }

    #[test]
    fn misc_rejections() {
        let (s, root) = crypto_like_space();
        let mut ses = ExplorationSession::new(&s, root);
        // Wrong kind.
        assert!(matches!(
            ses.decide("EOL", Value::Int(5)).unwrap_err(),
            DseError::WrongPropertyKind { .. }
        ));
        assert!(matches!(
            ses.set_requirement("ImplementationStyle", Value::from("Hardware"))
                .unwrap_err(),
            DseError::WrongPropertyKind { .. }
        ));
        // Domain violation.
        assert!(matches!(
            ses.set_requirement("EOL", Value::Int(5)).unwrap_err(),
            DseError::ValueOutsideDomain { .. }
        ));
        // Unknown.
        assert!(matches!(
            ses.decide("Nope", Value::Int(1)).unwrap_err(),
            DseError::UnknownProperty(_)
        ));
        // Double decision.
        ses.set_requirement("EOL", Value::Int(64)).unwrap();
        assert!(matches!(
            ses.set_requirement("EOL", Value::Int(64)).unwrap_err(),
            DseError::AlreadyDecided(_)
        ));
    }

    #[test]
    fn descending_into_an_inconsistent_region_is_rejected() {
        // A constraint declared on the *child* CDO fires the moment the
        // generalized decision would enter that region.
        let mut s = DesignSpace::new("descend");
        let root = s.add_root("Block", "");
        s.add_property(
            root,
            Property::requirement("N", Domain::int_range(1, 100), None, ""),
        )
        .unwrap();
        s.add_property(
            root,
            Property::generalized_issue("Style", Domain::options(["fast", "small"]), ""),
        )
        .unwrap();
        let kids = s.specialize(root, "Style").unwrap();
        // The "small" family cannot serve N >= 50.
        s.add_constraint(
            kids[1],
            ConsistencyConstraint::new(
                "CCchild",
                "small blocks cap out at N = 49",
                ["N".to_owned()],
                vec![],
                Relation::InconsistentOptions(Pred::cmp(
                    CmpOp::Ge,
                    Expr::prop("N"),
                    Expr::constant(50),
                )),
            ),
        ).unwrap();
        let mut ses = ExplorationSession::new(&s, root);
        ses.set_requirement("N", Value::Int(80)).unwrap();
        let err = ses.decide("Style", Value::from("small")).unwrap_err();
        assert!(
            matches!(err, DseError::ConstraintViolation { ref constraint, .. } if constraint == "CCchild")
        );
        // Focus and bindings rolled back; the other family still works.
        assert_eq!(ses.focus(), root);
        assert!(ses.decided("Style").is_none());
        ses.decide("Style", Value::from("fast")).unwrap();
    }

    #[test]
    fn annotations_record_rationale() {
        let (s, root) = crypto_like_space();
        let mut ses = ExplorationSession::new(&s, root);
        ses.set_requirement("EOL", Value::Int(768)).unwrap();
        ses.annotate("EOL", "from the Koç coprocessor spec")
            .unwrap();
        assert_eq!(ses.note("EOL"), Some("from the Koç coprocessor spec"));
        assert_eq!(ses.note("ModuloIsOdd"), None);
        assert!(matches!(
            ses.annotate("Nope", "x").unwrap_err(),
            DseError::UnknownProperty(_)
        ));
    }

    #[test]
    fn failed_decide_restores_the_exact_pre_decision_state() {
        let (s, root) = crypto_like_space();
        let mut ses = ExplorationSession::new(&s, root);
        ses.set_requirement("EOL", Value::Int(768)).unwrap();
        ses.set_requirement("ModuloIsOdd", Value::from("notGuaranteed"))
            .unwrap();
        ses.decide("ImplementationStyle", Value::from("Hardware"))
            .unwrap();
        let before = ses.clone();
        ses.decide("Algorithm", Value::from("Montgomery"))
            .unwrap_err();
        assert_eq!(ses, before, "rejected decision must be a no-op");
        ses.decide("Nope", Value::Int(1)).unwrap_err();
        assert_eq!(ses, before);
    }

    #[test]
    fn evaluation_failure_rolls_back_and_names_the_constraint() {
        // A quantitative relation that divides by a decidable property:
        // deciding it to zero must fail the decision, not poison the
        // session with a half-applied binding.
        let mut s = DesignSpace::new("div");
        let root = s.add_root("Block", "");
        s.add_property(
            root,
            Property::requirement("N", Domain::int_range(1, 100), None, ""),
        )
        .unwrap();
        s.add_property(root, Property::issue("K", Domain::int_range(0, 8), ""))
            .unwrap();
        s.add_constraint(
            root,
            ConsistencyConstraint::new(
                "CCdiv",
                "throughput from K",
                vec!["N".to_owned(), "K".to_owned()],
                vec!["Throughput".to_owned()],
                Relation::Quantitative {
                    target: "Throughput".to_owned(),
                    formula: Expr::prop("N").div(Expr::prop("K")),
                    fidelity: Fidelity::Heuristic,
                },
            ),
        )
        .unwrap();
        let mut ses = ExplorationSession::new(&s, root);
        ses.set_requirement("N", Value::Int(10)).unwrap();
        let before = ses.clone();
        let err = ses.decide("K", Value::Int(0)).unwrap_err();
        assert!(
            matches!(err, DseError::EvaluationFailed { ref constraint, .. } if constraint == "CCdiv"),
            "{err}"
        );
        assert_eq!(ses, before, "failed evaluation must roll back");
        ses.decide("K", Value::Int(2)).unwrap();
    }

    #[test]
    fn absorb_derived_caches_provenance_tagged_figures() {
        let (s, root) = crypto_like_space();
        let mut ses = ExplorationSession::new(&s, root);
        ses.set_requirement("EOL", Value::Int(768)).unwrap();
        ses.set_requirement("ModuloIsOdd", Value::from("Guaranteed"))
            .unwrap();
        ses.decide("ImplementationStyle", Value::from("Hardware"))
            .unwrap();
        assert!(ses.absorb_derived().is_empty());
        ses.decide("Radix", Value::Int(4)).unwrap();
        let figs = ses.absorb_derived();
        assert_eq!(figs.len(), 1);
        let fig = ses.estimate_of("LatencyCycles").unwrap();
        assert_eq!(fig.value, Some(385.0));
        // CC2 is declared heuristic, so the figure is estimated, not exact.
        assert_eq!(fig.provenance, crate::robust::Provenance::Estimated);
        assert_eq!(fig.source, "CC2");
        assert_eq!(ses.estimates().len(), 1);
    }

    #[test]
    fn default_values_are_visible_but_not_binding() {
        let (s, root) = crypto_like_space();
        let mut ses = ExplorationSession::new(&s, root);
        ses.set_requirement("EOL", Value::Int(64)).unwrap();
        ses.decide("ImplementationStyle", Value::from("Hardware"))
            .unwrap();
        assert_eq!(ses.effective_value("Radix"), Some(Value::Int(2)));
        assert!(ses.decided("Radix").is_none());
    }
}
