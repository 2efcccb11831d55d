//! `dse::analyze::solve` — a propagation-based incremental constraint
//! engine over option domains, replacing exhaustive enumeration.
//!
//! Two cooperating layers live here:
//!
//! * An **exact counting engine** ([`count_firing_exact`] /
//!   [`survives_exact`]): a propagation-guided search that returns the
//!   *same numbers* the old odometer enumeration produced, but prunes
//!   with a three-valued abstract evaluation ([`eval3`]) so entire
//!   subspaces are counted (or discarded) without being visited. A
//!   deterministic node budget ([`SEARCH_NODE_BUDGET`]) bounds
//!   adversarial inputs; budget exhaustion is reported, never guessed
//!   around.
//! * An **incremental [`Solver`]**: per-variable domain lattices
//!   (bitsets over finite option sets, integer/real intervals), a
//!   watched-constraint propagation queue (generalized arc consistency
//!   over [`Pred`]s with bounds propagation for arithmetic), a
//!   trail/backtrack API so each [`Solver::decide`] / [`Solver::retract`]
//!   re-solves in O(changed domains), and conflict explanation: the
//!   minimal decisions proving a contradiction, as a "because" chain.
//!
//! Soundness contract: [`eval3`] *over-approximates* the outcome set of
//! `Pred::eval` over all completions of the current domains, modelling
//! its exact short-circuit semantics (`And` stops at the first `false`,
//! errors propagate in element order). The exact engine therefore only
//! takes a cutoff when the abstraction proves it, and resolves every
//! ambiguous leaf with a concrete `Pred::eval` call — which is what
//! makes its counts bit-identical to the exhaustive oracle.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::expr::{Bindings, CmpOp, Expr, Pred};
use crate::hierarchy::{CdoId, DesignSpace};
use crate::value::{Domain, Value};

/// Deterministic per-query search-node budget for the exact engine.
/// Exhaustion surfaces as "unknown" (a skipped check plus a DSL111
/// note), never as a wrong verdict.
pub(crate) const SEARCH_NODE_BUDGET: u64 = 500_000;

/// Endpoint probes per side when shaving integer-interval bounds.
const BOUND_PROBES: u32 = 32;

/// Outcome bit: the predicate can evaluate to `Ok(true)`.
const T: u8 = 0b001;
/// Outcome bit: the predicate can evaluate to `Ok(false)`.
const F: u8 = 0b010;
/// Outcome bit: the predicate can evaluate to `Err(_)`.
const E: u8 = 0b100;

// ---------------------------------------------------------------------
// Counters.
// ---------------------------------------------------------------------

/// Work counters for one solve/analysis run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SolveTotals {
    /// Constraint (re-)evaluations: abstract revisions plus concrete
    /// leaf evaluations.
    pub propagations: u64,
    /// Conflicts proven (definite-fire cutoffs and emptied domains).
    pub conflicts: u64,
    /// Propagation-queue pops across all fixpoints.
    pub fixpoint_iterations: u64,
    /// Nodes visited by the exact counting search.
    pub search_nodes: u64,
}

impl SolveTotals {
    /// Accumulates `other` into `self`.
    pub fn add(&mut self, other: &SolveTotals) {
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.fixpoint_iterations += other.fixpoint_iterations;
        self.search_nodes += other.search_nodes;
    }
}

/// Thread-safe accumulator for [`SolveTotals`], shared by the per-CDO
/// parallel analysis fan-out.
#[derive(Debug, Default)]
pub(crate) struct SolveStats {
    propagations: AtomicU64,
    conflicts: AtomicU64,
    fixpoint_iterations: AtomicU64,
    search_nodes: AtomicU64,
}

impl SolveStats {
    pub(crate) fn new() -> SolveStats {
        SolveStats::default()
    }

    pub(crate) fn absorb(&self, t: &SolveTotals) {
        self.propagations.fetch_add(t.propagations, Ordering::Relaxed);
        self.conflicts.fetch_add(t.conflicts, Ordering::Relaxed);
        self.fixpoint_iterations
            .fetch_add(t.fixpoint_iterations, Ordering::Relaxed);
        self.search_nodes.fetch_add(t.search_nodes, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> SolveTotals {
        SolveTotals {
            propagations: self.propagations.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            fixpoint_iterations: self.fixpoint_iterations.load(Ordering::Relaxed),
            search_nodes: self.search_nodes.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------
// Abstract numeric values: interval + may-error lattice.
// ---------------------------------------------------------------------

/// The abstract result of `Expr::eval` over a set of completions:
/// every achievable `Ok` value lies in `[lo, hi]`; `err` records
/// whether any completion can error (unbound, type mismatch, division
/// by zero, non-finite). `lo > hi` encodes "no `Ok` value achievable".
#[derive(Debug, Clone, Copy, PartialEq)]
struct AbsNum {
    lo: f64,
    hi: f64,
    err: bool,
}

impl AbsNum {
    /// Anything at all: all values, may error.
    fn top() -> AbsNum {
        AbsNum {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            err: true,
        }
    }

    /// Always errors, never a numeric value.
    fn err_only() -> AbsNum {
        AbsNum {
            lo: 1.0,
            hi: 0.0,
            err: true,
        }
    }

    fn point(x: f64) -> AbsNum {
        AbsNum {
            lo: x,
            hi: x,
            err: false,
        }
    }

    fn has_num(&self) -> bool {
        self.lo <= self.hi
    }

    /// The abstraction of one concrete value: finite numerics are
    /// points, everything else (text, flags, NaN/±∞) errors under
    /// `Expr::eval`.
    fn of_value(v: &Value) -> AbsNum {
        match v.as_f64() {
            Some(x) if x.is_finite() => AbsNum::point(x),
            _ => AbsNum::err_only(),
        }
    }

    /// Corner hull for a binary operation monotone-in-corners
    /// (add/sub/mul, and div once the divisor excludes zero). Non-finite
    /// corners stay as interval *bounds* and additionally set `err`,
    /// since the concrete evaluator rejects non-finite results.
    fn join(a: AbsNum, b: AbsNum, f: impl Fn(f64, f64) -> f64) -> AbsNum {
        if !a.has_num() || !b.has_num() {
            return AbsNum::err_only();
        }
        let mut out = AbsNum {
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
            err: a.err || b.err,
        };
        for x in [f(a.lo, b.lo), f(a.lo, b.hi), f(a.hi, b.lo), f(a.hi, b.hi)] {
            if x.is_nan() {
                return AbsNum::top();
            }
            out.lo = out.lo.min(x);
            out.hi = out.hi.max(x);
            if !x.is_finite() {
                out.err = true;
            }
        }
        out
    }

    fn div(self, b: AbsNum) -> AbsNum {
        if !self.has_num() || !b.has_num() {
            return AbsNum::err_only();
        }
        if b.lo <= 0.0 && b.hi >= 0.0 {
            // The divisor interval admits zero: division by zero plus
            // unbounded quotients near it.
            return AbsNum::top();
        }
        AbsNum::join(self, b, |x, y| x / y)
    }

    fn pow(self, b: AbsNum) -> AbsNum {
        if !self.has_num() || !b.has_num() {
            return AbsNum::err_only();
        }
        if self.lo == self.hi && b.lo == b.hi {
            let r = self.lo.powf(b.lo);
            if r.is_finite() {
                return AbsNum {
                    lo: r,
                    hi: r,
                    err: self.err || b.err,
                };
            }
            return AbsNum::err_only();
        }
        // powf over boxes has interior extrema (x = 1, x = 0, NaN for
        // negative bases): stay conservative.
        AbsNum::top()
    }
}

// ---------------------------------------------------------------------
// Variable views: what the abstraction knows about one property.
// ---------------------------------------------------------------------

/// A bitset over the indices of a finite candidate list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitSet {
    bits: Vec<u64>,
    len: usize,
    ones: usize,
}

impl BitSet {
    pub(crate) fn full(len: usize) -> BitSet {
        let words = len.div_ceil(64);
        let mut bits = vec![u64::MAX; words];
        if !len.is_multiple_of(64) {
            if let Some(last) = bits.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        BitSet { bits, len, ones: len }
    }

    pub(crate) fn get(&self, i: usize) -> bool {
        i < self.len && self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Clears bit `i`; returns whether it was set.
    pub(crate) fn clear(&mut self, i: usize) -> bool {
        if !self.get(i) {
            return false;
        }
        self.bits[i / 64] &= !(1u64 << (i % 64));
        self.ones -= 1;
        true
    }

    pub(crate) fn count(&self) -> usize {
        self.ones
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(|&i| self.get(i))
    }
}

/// What the evaluator knows about one referenced property.
enum VarView<'a> {
    /// Bound to exactly this value.
    Val(&'a Value),
    /// One of a finite candidate list (optionally masked by `live`).
    Finite {
        values: &'a [Value],
        live: Option<&'a BitSet>,
    },
    /// Any integer in `lo..=hi`.
    Int(i64, i64),
    /// Any real in `[lo, hi]`.
    Real(f64, f64),
    /// Could be anything (open domain).
    Open,
    /// Not bound and not enumerable here: evaluation errors.
    Missing,
}

impl VarView<'_> {
    fn abs(&self) -> AbsNum {
        match self {
            VarView::Val(v) => AbsNum::of_value(v),
            VarView::Finite { values, live } => {
                let mut out = AbsNum {
                    lo: f64::INFINITY,
                    hi: f64::NEG_INFINITY,
                    err: false,
                };
                for (i, v) in values.iter().enumerate() {
                    if let Some(l) = live {
                        if !l.get(i) {
                            continue;
                        }
                    }
                    match v.as_f64() {
                        Some(x) if x.is_finite() => {
                            out.lo = out.lo.min(x);
                            out.hi = out.hi.max(x);
                        }
                        _ => out.err = true,
                    }
                }
                out
            }
            VarView::Int(lo, hi) => AbsNum {
                lo: *lo as f64,
                hi: *hi as f64,
                err: false,
            },
            VarView::Real(lo, hi) => {
                if lo.is_finite() && hi.is_finite() && lo <= hi {
                    AbsNum {
                        lo: *lo,
                        hi: *hi,
                        err: false,
                    }
                } else {
                    AbsNum::top()
                }
            }
            VarView::Open => AbsNum::top(),
            VarView::Missing => AbsNum::err_only(),
        }
    }

    /// Outcome set of `Is(prop, lit)` (or `IsNot` when `negate`).
    fn is_outcomes(&self, lit: &Value, negate: bool) -> u8 {
        let base = match self {
            VarView::Val(v) => {
                if v.matches(lit) {
                    T
                } else {
                    F
                }
            }
            VarView::Finite { values, live } => {
                let mut s = 0u8;
                for (i, v) in values.iter().enumerate() {
                    if let Some(l) = live {
                        if !l.get(i) {
                            continue;
                        }
                    }
                    s |= if v.matches(lit) { T } else { F };
                    if s == T | F {
                        break;
                    }
                }
                s
            }
            VarView::Int(lo, hi) => match lit.as_f64() {
                Some(x) => {
                    let mut s = 0u8;
                    if x >= *lo as f64 && x <= *hi as f64 {
                        s |= T;
                    }
                    if !(lo == hi && (*lo as f64) == x) {
                        s |= F;
                    }
                    s
                }
                None => F,
            },
            VarView::Real(lo, hi) => match lit.as_f64() {
                Some(x) => {
                    let mut s = 0u8;
                    if x >= *lo && x <= *hi {
                        s |= T;
                    }
                    if !(lo == hi && *lo == x) {
                        s |= F;
                    }
                    s
                }
                None => F,
            },
            VarView::Open => T | F,
            VarView::Missing => return E,
        };
        if negate {
            let mut out = base & E;
            if base & T != 0 {
                out |= F;
            }
            if base & F != 0 {
                out |= T;
            }
            out
        } else {
            base
        }
    }
}

/// Source of variable views for [`eval3`].
trait Vars {
    fn view(&self, name: &str) -> VarView<'_>;
}

// ---------------------------------------------------------------------
// Three-valued abstract evaluation.
// ---------------------------------------------------------------------

fn abs_expr(e: &Expr, vars: &dyn Vars) -> AbsNum {
    match e {
        Expr::Const(v) => AbsNum::of_value(v),
        Expr::Prop(name) => vars.view(name).abs(),
        Expr::Add(a, b) => AbsNum::join(abs_expr(a, vars), abs_expr(b, vars), |x, y| x + y),
        Expr::Sub(a, b) => AbsNum::join(abs_expr(a, vars), abs_expr(b, vars), |x, y| x - y),
        Expr::Mul(a, b) => AbsNum::join(abs_expr(a, vars), abs_expr(b, vars), |x, y| x * y),
        Expr::Div(a, b) => abs_expr(a, vars).div(abs_expr(b, vars)),
        Expr::Pow(a, b) => abs_expr(a, vars).pow(abs_expr(b, vars)),
    }
}

fn can_true(op: CmpOp, a: &AbsNum, b: &AbsNum) -> bool {
    match op {
        CmpOp::Eq => a.lo <= b.hi && b.lo <= a.hi,
        CmpOp::Ne => !(a.lo == a.hi && b.lo == b.hi && a.lo == b.lo),
        CmpOp::Lt => a.lo < b.hi,
        CmpOp::Le => a.lo <= b.hi,
        CmpOp::Gt => a.hi > b.lo,
        CmpOp::Ge => a.hi >= b.lo,
    }
}

fn can_false(op: CmpOp, a: &AbsNum, b: &AbsNum) -> bool {
    match op {
        CmpOp::Eq => !(a.lo == a.hi && b.lo == b.hi && a.lo == b.lo),
        CmpOp::Ne => a.lo <= b.hi && b.lo <= a.hi,
        CmpOp::Lt => a.hi >= b.lo,
        CmpOp::Le => a.hi > b.lo,
        CmpOp::Gt => a.lo <= b.hi,
        CmpOp::Ge => a.lo < b.hi,
    }
}

/// Over-approximates the outcome set (`T`/`F`/`E` bits) of
/// `pred.eval(..)` over every completion of the variable views,
/// modelling the concrete evaluator's short-circuit order exactly:
/// `And` evaluates elements left to right, an `Ok(false)` stops before
/// later errors can surface, and an error stops before later elements
/// can rescue the result (dually for `Or`).
fn eval3(pred: &Pred, vars: &dyn Vars) -> u8 {
    match pred {
        Pred::Cmp(op, ea, eb) => {
            let a = abs_expr(ea, vars);
            let mut s = 0u8;
            if a.err {
                s |= E;
            }
            if a.has_num() {
                // The rhs is only evaluated once the lhs succeeded.
                let b = abs_expr(eb, vars);
                if b.err {
                    s |= E;
                }
                if b.has_num() {
                    if can_true(*op, &a, &b) {
                        s |= T;
                    }
                    if can_false(*op, &a, &b) {
                        s |= F;
                    }
                }
            }
            s
        }
        Pred::Is(p, v) => vars.view(p).is_outcomes(v, false),
        Pred::IsNot(p, v) => vars.view(p).is_outcomes(v, true),
        Pred::And(ps) => {
            let mut out = 0u8;
            let mut prefix_true = true;
            for p in ps {
                if !prefix_true {
                    break;
                }
                let s = eval3(p, vars);
                out |= s & (F | E);
                prefix_true = s & T != 0;
            }
            if prefix_true {
                out |= T;
            }
            out
        }
        Pred::Or(ps) => {
            let mut out = 0u8;
            let mut prefix_false = true;
            for p in ps {
                if !prefix_false {
                    break;
                }
                let s = eval3(p, vars);
                out |= s & (T | E);
                prefix_false = s & F != 0;
            }
            if prefix_false {
                out |= F;
            }
            out
        }
        Pred::Not(p) => {
            let s = eval3(p, vars);
            let mut out = s & E;
            if s & T != 0 {
                out |= F;
            }
            if s & F != 0 {
                out |= T;
            }
            out
        }
    }
}

// ---------------------------------------------------------------------
// The exact counting engine (propagation-guided search).
// ---------------------------------------------------------------------

/// Views for the counting search: bound names resolve from the scratch
/// bindings, unassigned axes to their full candidate lists, everything
/// else is missing (unbound at concrete evaluation).
struct EnumVars<'a> {
    axes: &'a [(String, Vec<Value>)],
    assigned: &'a [Option<usize>],
    bound: &'a Bindings,
}

impl Vars for EnumVars<'_> {
    fn view(&self, name: &str) -> VarView<'_> {
        if let Some(v) = self.bound.get(name) {
            return VarView::Val(v);
        }
        for (i, (n, vs)) in self.axes.iter().enumerate() {
            if n == name && self.assigned[i].is_none() {
                return VarView::Finite {
                    values: vs,
                    live: None,
                };
            }
        }
        VarView::Missing
    }
}

struct Exact<'a> {
    preds: &'a [(&'a str, &'a Pred)],
    axes: &'a [(String, Vec<Value>)],
    /// `fixed` merged with the currently assigned axis values.
    scratch: Bindings,
    assigned: Vec<Option<usize>>,
    /// Axis indices referenced per predicate.
    pred_axes: Vec<Vec<usize>>,
    budget: u64,
    totals: SolveTotals,
    overrun: bool,
}

impl<'a> Exact<'a> {
    fn new(
        preds: &'a [(&'a str, &'a Pred)],
        axes: &'a [(String, Vec<Value>)],
        fixed: &Bindings,
        budget: u64,
    ) -> Exact<'a> {
        let pred_axes = preds
            .iter()
            .map(|(_, p)| {
                let refs = p.references();
                axes.iter()
                    .enumerate()
                    .filter(|(_, (n, _))| refs.iter().any(|r| r == n))
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
        Exact {
            preds,
            axes,
            scratch: fixed.clone(),
            assigned: vec![None; axes.len()],
            pred_axes,
            budget,
            totals: SolveTotals::default(),
            overrun: false,
        }
    }

    /// Product of the unassigned axis sizes: the number of completions
    /// of the current partial assignment.
    fn free_product(&self) -> u64 {
        self.axes
            .iter()
            .zip(&self.assigned)
            .filter(|(_, a)| a.is_none())
            .map(|((_, vs), _)| vs.len() as u64)
            .product()
    }

    /// Examines every predicate under the current partial assignment.
    /// Returns `Ok(Some(fires))` when the node is decided for *all*
    /// completions, `Ok(None)` with a branch predicate otherwise.
    fn classify(&mut self) -> Result<bool, usize> {
        let view = EnumVars {
            axes: self.axes,
            assigned: &self.assigned,
            bound: &self.scratch,
        };
        let mut branch: Option<usize> = None;
        for (pi, (_, p)) in self.preds.iter().enumerate() {
            self.totals.propagations += 1;
            let s = eval3(p, &view);
            if s == T {
                // Fires on every completion of this node.
                return Ok(true);
            }
            if s & T != 0 {
                if self.pred_axes[pi]
                    .iter()
                    .all(|&a| self.assigned[a].is_some())
                {
                    // Every referenced axis is assigned: the abstraction
                    // is ambiguous only about error kinds — resolve by
                    // one concrete evaluation.
                    if p.eval(&self.scratch) == Ok(true) {
                        return Ok(true);
                    }
                } else if branch.is_none() {
                    branch = Some(pi);
                }
            }
        }
        match branch {
            Some(pi) => Err(pi),
            None => Ok(false),
        }
    }

    fn first_open_axis(&self, pi: usize) -> usize {
        self.pred_axes[pi]
            .iter()
            .copied()
            .find(|&a| self.assigned[a].is_none())
            .expect("branch predicate has an unassigned axis")
    }

    fn assign(&mut self, ai: usize, j: usize) {
        self.assigned[ai] = Some(j);
        let (name, vs) = &self.axes[ai];
        self.scratch.insert(name.clone(), vs[j].clone());
    }

    fn unassign(&mut self, ai: usize) {
        self.assigned[ai] = None;
        self.scratch.remove(&self.axes[ai].0);
    }

    /// Combinations (completions of the current node) on which at least
    /// one predicate fires.
    fn count_rec(&mut self) -> u64 {
        self.totals.search_nodes += 1;
        if self.totals.search_nodes > self.budget {
            self.overrun = true;
            return 0;
        }
        match self.classify() {
            Ok(true) => {
                self.totals.conflicts += 1;
                self.free_product()
            }
            Ok(false) => 0,
            Err(pi) => {
                let ai = self.first_open_axis(pi);
                let n = self.axes[ai].1.len();
                let mut sum = 0u64;
                for j in 0..n {
                    self.assign(ai, j);
                    sum += self.count_rec();
                    if self.overrun {
                        break;
                    }
                }
                self.unassign(ai);
                sum
            }
        }
    }

    /// Whether any completion avoids every predicate.
    fn survives_rec(&mut self) -> bool {
        self.totals.search_nodes += 1;
        if self.totals.search_nodes > self.budget {
            self.overrun = true;
            return false;
        }
        match self.classify() {
            Ok(true) => {
                self.totals.conflicts += 1;
                false
            }
            Ok(false) => true,
            Err(pi) => {
                let ai = self.first_open_axis(pi);
                let n = self.axes[ai].1.len();
                let mut found = false;
                for j in 0..n {
                    self.assign(ai, j);
                    found = self.survives_rec();
                    if found || self.overrun {
                        break;
                    }
                }
                self.unassign(ai);
                found
            }
        }
    }
}

/// `(firing, total)` over the joint enumeration, computed by
/// propagation-guided search: bit-identical to the exhaustive odometer,
/// without visiting decided subspaces. `None` when the joint count
/// overflows or the node budget is exhausted.
pub(crate) fn count_firing_exact(
    preds: &[(&str, &Pred)],
    axes: &[(String, Vec<Value>)],
    fixed: &Bindings,
    budget: u64,
) -> (Option<(usize, usize)>, SolveTotals) {
    let total = axes
        .iter()
        .try_fold(1u64, |acc, (_, vs)| acc.checked_mul(vs.len() as u64));
    let Some(total) = total else {
        return (None, SolveTotals::default());
    };
    if total == 0 {
        return (Some((0, 0)), SolveTotals::default());
    }
    if usize::try_from(total).is_err() {
        return (None, SolveTotals::default());
    }
    let mut ex = Exact::new(preds, axes, fixed, budget);
    let firing = ex.count_rec();
    if ex.overrun {
        (None, ex.totals)
    } else {
        (Some((firing as usize, total as usize)), ex.totals)
    }
}

/// Whether any joint combination survives every predicate — the exact
/// engine's analogue of the enumerated `survives` check. `None` when
/// the joint count overflows or the budget is exhausted.
pub(crate) fn survives_exact(
    preds: &[(&str, &Pred)],
    axes: &[(String, Vec<Value>)],
    fixed: &Bindings,
    budget: u64,
) -> (Option<bool>, SolveTotals) {
    let total = axes
        .iter()
        .try_fold(1u64, |acc, (_, vs)| acc.checked_mul(vs.len() as u64));
    if total.is_none() {
        return (None, SolveTotals::default());
    }
    if total == Some(0) {
        // No combinations at all: nothing survives.
        return (Some(false), SolveTotals::default());
    }
    let mut ex = Exact::new(preds, axes, fixed, budget);
    let ok = ex.survives_rec();
    if ex.overrun {
        (None, ex.totals)
    } else {
        (Some(ok), ex.totals)
    }
}

// ---------------------------------------------------------------------
// The incremental solver.
// ---------------------------------------------------------------------

/// One variable's current domain lattice value.
#[derive(Debug, Clone, PartialEq)]
enum Dom {
    /// A finite candidate list with a liveness mask. The list is shared:
    /// narrowing only ever touches the mask.
    Finite { values: Arc<[Value]>, live: BitSet },
    /// Integers in `lo..=hi`.
    Int { lo: i64, hi: i64 },
    /// Reals in `[lo, hi]`.
    Real { lo: f64, hi: f64 },
    /// Decided (or region-fixed) to exactly this value.
    Fixed(Value),
    /// Open-ended: never pruned, never blamed.
    Open,
    /// No value left: a conflict was proven here.
    Empty,
}

impl Dom {
    fn of_domain(domain: &Domain) -> Dom {
        if let Some(values) = domain.enumerate().map(Arc::<[Value]>::from) {
            let live = BitSet::full(values.len());
            return Dom::Finite { values, live };
        }
        match domain {
            Domain::IntRange { min, max } => {
                if max.checked_sub(*min).is_some_and(|s| (0..=super::domains::MAX_INT_RANGE_SPAN).contains(&s)) {
                    let values: Arc<[Value]> = (*min..=*max).map(Value::Int).collect();
                    let live = BitSet::full(values.len());
                    Dom::Finite { values, live }
                } else {
                    Dom::Int { lo: *min, hi: *max }
                }
            }
            Domain::RealRange { min, max } => Dom::Real { lo: *min, hi: *max },
            _ => Dom::Open,
        }
    }

    fn contains(&self, value: &Value) -> bool {
        match self {
            Dom::Fixed(v) => v.matches(value),
            Dom::Finite { values, live } => live.iter().any(|i| values[i].matches(value)),
            Dom::Int { lo, hi } => value
                .as_f64()
                .is_some_and(|x| x >= *lo as f64 && x <= *hi as f64),
            Dom::Real { lo, hi } => value.as_f64().is_some_and(|x| x >= *lo && x <= *hi),
            Dom::Open => true,
            Dom::Empty => false,
        }
    }

    fn view(&self) -> VarView<'_> {
        match self {
            Dom::Fixed(v) => VarView::Val(v),
            Dom::Finite { values, live } => VarView::Finite {
                values,
                live: Some(live),
            },
            Dom::Int { lo, hi } => VarView::Int(*lo, *hi),
            Dom::Real { lo, hi } => VarView::Real(*lo, *hi),
            Dom::Open => VarView::Open,
            Dom::Empty => VarView::Finite {
                values: &[],
                live: None,
            },
        }
    }
}

/// One watched constraint: an inconsistency/dominance predicate that
/// *eliminates* any combination it fires on.
#[derive(Debug, Clone)]
struct Con {
    name: String,
    pred: Pred,
    refs: Vec<usize>,
}

/// The immutable constraint network of one region (space, focus):
/// variables, base domains, watched constraints and watch lists, plus
/// the inherited-binding domains and constraint components every
/// initial fixpoint starts from. No session state: [`Solver`]s on the
/// region share one `Arc<Net>` and own only their domains and trail.
#[derive(Debug)]
pub struct Net {
    names: Vec<String>,
    index: HashMap<String, usize>,
    base: Vec<Dom>,
    cons: Vec<Con>,
    watchers: Vec<Vec<usize>>,
    /// `base` narrowed by the region's inherited option bindings.
    level0: Vec<Dom>,
    /// The first inherited binding outside its variable's domain.
    level0_conflict: Option<RawConflict>,
    /// Reference-free constraints, in constraint order.
    free: Vec<usize>,
    /// Variable-disjoint constraint components, in constraint order.
    components: Vec<Vec<usize>>,
}

impl Net {
    /// Builds the network for the region at `focus`: every property
    /// visible from it plus every effective inconsistency/dominance
    /// predicate.
    pub fn new(space: &DesignSpace, focus: CdoId) -> Net {
        let mut names: Vec<String> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut base: Vec<Dom> = Vec::new();
        let mut add_var = |name: &str, dom: Dom, names: &mut Vec<String>, base: &mut Vec<Dom>| {
            if let Some(&i) = index.get(name) {
                return i;
            }
            let i = names.len();
            names.push(name.to_owned());
            index.insert(name.to_owned(), i);
            base.push(dom);
            i
        };
        // Every property visible from `focus` (inheritance chain plus
        // subtree), in deterministic scope order.
        for n in super::scope_nodes(space, focus) {
            for p in space.node(n).own_properties() {
                let dom = super::domain_at(space, focus, p.name())
                    .map(Dom::of_domain)
                    .unwrap_or(Dom::Open);
                add_var(p.name(), dom, &mut names, &mut base);
            }
        }
        // Watched constraints: every effective inconsistency/dominance
        // predicate. References to undeclared names (derived figures
        // bound mid-session) become open variables — never pruned.
        let mut cons: Vec<Con> = Vec::new();
        for (_, c) in space.effective_constraints(focus) {
            let Some(pred) = super::constraint_pred(c) else {
                continue;
            };
            let refs: Vec<usize> = pred
                .references()
                .into_iter()
                .map(|r| add_var(&r, Dom::Open, &mut names, &mut base))
                .collect();
            cons.push(Con {
                name: c.name().to_owned(),
                pred: pred.clone(),
                refs,
            });
        }
        let mut watchers: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
        for (ci, con) in cons.iter().enumerate() {
            for &v in &con.refs {
                if !watchers[v].contains(&ci) {
                    watchers[v].push(ci);
                }
            }
        }
        let mut level0 = base.clone();
        let mut level0_conflict = None;
        for (name, value) in space.inherited_bindings(focus) {
            level0_conflict = level0_conflict.or(narrow(&index, &mut level0, &name, &value));
        }
        // Union-find over variables, joined through each constraint's
        // refs, splits the constraints into variable-disjoint components.
        let mut parent: Vec<usize> = (0..names.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for con in &cons {
            let mut it = con.refs.iter();
            if let Some(&first) = it.next() {
                let r = find(&mut parent, first);
                for &v in it {
                    let s = find(&mut parent, v);
                    parent[s] = r;
                }
            }
        }
        // Group constraints by component root, in first-seen order.
        let mut comp_of_root: HashMap<usize, usize> = HashMap::new();
        let mut free: Vec<usize> = Vec::new();
        let mut components: Vec<Vec<usize>> = Vec::new();
        for (ci, con) in cons.iter().enumerate() {
            match con.refs.first() {
                Some(&v) => {
                    let root = find(&mut parent, v);
                    let slot = *comp_of_root.entry(root).or_insert_with(|| {
                        components.push(Vec::new());
                        components.len() - 1
                    });
                    components[slot].push(ci);
                }
                None => free.push(ci),
            }
        }
        Net {
            names,
            index,
            base,
            cons,
            watchers,
            level0,
            level0_conflict,
            free,
            components,
        }
    }
}

/// Level-0 narrowing of `name` to `value`: fixes the variable, or
/// empties it when `value` lies outside its current domain. Unknown
/// names are ignored.
fn narrow(
    index: &HashMap<String, usize>,
    doms: &mut [Dom],
    name: &str,
    value: &Value,
) -> Option<RawConflict> {
    let &v = index.get(name)?;
    if !doms[v].contains(value) {
        doms[v] = Dom::Empty;
        return Some(RawConflict::Incompatible { var: v });
    }
    doms[v] = Dom::Fixed(value.clone());
    None
}

struct DomView<'a> {
    net: &'a Net,
    doms: &'a [Dom],
}

impl Vars for DomView<'_> {
    fn view(&self, name: &str) -> VarView<'_> {
        match self.net.index.get(name) {
            Some(&i) => self.doms[i].view(),
            None => VarView::Missing,
        }
    }
}

/// A [`DomView`] with one variable overridden to a concrete candidate —
/// the probe used to decide whether that candidate is prunable.
struct OverrideView<'a> {
    inner: DomView<'a>,
    name: &'a str,
    val: &'a Value,
}

impl Vars for OverrideView<'_> {
    fn view(&self, name: &str) -> VarView<'_> {
        if name == self.name {
            VarView::Val(self.val)
        } else {
            self.inner.view(name)
        }
    }
}

/// An undoable domain write.
#[derive(Debug, Clone)]
struct Change {
    var: usize,
    old: Dom,
}

/// A raw (unexplained) conflict found during propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RawConflict {
    /// The constraint fires on every completion of the current domains.
    Fires(usize),
    /// Revising the constraint left the variable without values.
    Emptied { var: usize, con: usize },
    /// A decision fell outside the variable's current domain.
    Incompatible { var: usize },
}

/// A proven contradiction with its "because" chain: the minimal set of
/// already-fixed decisions under which the conflict is inevitable.
#[derive(Debug, Clone, PartialEq)]
pub struct Conflict {
    /// The constraint that fires (or empties a domain), if any.
    pub constraint: Option<String>,
    /// The variable whose domain was emptied (or decided illegally).
    pub variable: Option<String>,
    /// The minimal fixed decisions proving the conflict, in name order.
    pub because: Vec<(String, Value)>,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.because.is_empty() {
            write!(f, "no prior decisions required")?;
        } else {
            write!(f, "because ")?;
            for (i, (name, value)) in self.because.iter().enumerate() {
                if i > 0 {
                    write!(f, " ∧ ")?;
                }
                write!(f, "{name} = {value}")?;
            }
        }
        match (&self.constraint, &self.variable) {
            (Some(c), Some(v)) => write!(f, ": no value of {v} survives constraint {c}"),
            (Some(c), None) => write!(f, ": constraint {c} fires on every completion"),
            (None, Some(v)) => write!(f, ": the decision on {v} lies outside its domain"),
            (None, None) => write!(f, ": contradiction"),
        }
    }
}

/// The viable values the solver still admits for one property.
#[derive(Debug, Clone, PartialEq)]
pub enum Viability {
    /// A finite list of surviving candidates.
    Values(Vec<Value>),
    /// Any integer in the (shaved) range.
    IntRange(i64, i64),
    /// Any real in the range.
    RealRange(f64, f64),
    /// Open-ended: the solver cannot enumerate it.
    Open,
    /// Nothing survives.
    Empty,
}

/// Incremental propagation solver over one region of a design space.
///
/// Built once per session/region ([`Solver::for_space`],
/// [`Solver::with_bindings`] or [`Solver::on_net`]); each
/// [`decide`](Solver::decide) pushes a trail level and re-propagates
/// only from the changed variable, each [`retract`](Solver::retract)
/// pops the level in O(trailed changes) — no full re-scan.
#[derive(Debug, Clone)]
pub struct Solver {
    net: Arc<Net>,
    doms: Vec<Dom>,
    trail: Vec<Change>,
    levels: Vec<usize>,
    totals: SolveTotals,
    buffers: Buffers,
    initial_conflict: Option<Conflict>,
}

impl Solver {
    /// Builds the network for the region at `focus` and runs the
    /// initial propagation fixpoint.
    pub fn for_space(space: &DesignSpace, focus: CdoId) -> Solver {
        Solver::with_bindings(space, focus, &Bindings::new())
    }

    /// Like [`for_space`](Solver::for_space), but additionally narrows
    /// by the session's current `bindings` (in name order) before the
    /// initial fixpoint — the from-scratch equivalent of replaying
    /// every decision.
    pub fn with_bindings(space: &DesignSpace, focus: CdoId, bindings: &Bindings) -> Solver {
        Solver::on_net(Arc::new(Net::new(space, focus)), bindings)
    }

    /// [`with_bindings`](Solver::with_bindings) over a shared, already
    /// built network: only the domains are built and solved.
    pub fn on_net(net: Arc<Net>, bindings: &Bindings) -> Solver {
        let mut doms = net.level0.clone();
        let mut totals = SolveTotals::default();
        let mut buffers = Buffers::default();
        // Inherited conflicts come before session ones.
        let mut raw = net.level0_conflict;
        for (name, value) in bindings.iter() {
            raw = raw.or(narrow(&net.index, &mut doms, name.as_str(), value));
        }
        if raw.is_none() {
            raw = initial_fixpoint(&net, &mut doms, &mut totals, &mut buffers);
        }
        let mut solver = Solver {
            net,
            doms,
            trail: Vec::new(),
            levels: Vec::new(),
            totals,
            buffers,
            initial_conflict: None,
        };
        solver.initial_conflict = raw.map(|r| solver.explain(r));
        solver
    }

    /// Fixes `name = value`, pushes a trail level and re-propagates
    /// incrementally from the changed variable. On conflict the level
    /// stays committed (mirroring session semantics, where the caller
    /// decides whether to retract) and the explained conflict is
    /// returned.
    pub fn decide(&mut self, name: &str, value: &Value) -> Option<Conflict> {
        self.levels.push(self.trail.len());
        let &v = self.net.index.get(name)?;
        let old = self.doms[v].clone();
        if !old.contains(value) {
            self.trail.push(Change { var: v, old });
            self.doms[v] = Dom::Empty;
            self.totals.conflicts += 1;
            return Some(self.explain(RawConflict::Incompatible { var: v }));
        }
        self.trail.push(Change { var: v, old });
        self.doms[v] = Dom::Fixed(value.clone());
        let mut totals = SolveTotals::default();
        let raw = fixpoint(
            &self.net,
            &mut self.doms,
            &self.net.watchers[v],
            Some(&mut self.trail),
            &mut totals,
            &mut self.buffers,
        );
        self.totals.add(&totals);
        raw.map(|r| self.explain(r))
    }

    /// Pops the most recent decision level, undoing its trailed domain
    /// writes in reverse. Returns `false` when no level is left.
    pub fn retract(&mut self) -> bool {
        let Some(mark) = self.levels.pop() else {
            return false;
        };
        while self.trail.len() > mark {
            let Change { var, old } = self.trail.pop().expect("trail length checked");
            self.doms[var] = old;
        }
        true
    }

    /// The number of open decision levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Work counters accumulated since construction.
    pub fn stats(&self) -> SolveTotals {
        self.totals
    }

    /// The conflict proven during construction, if the region (or the
    /// replayed bindings) is contradictory before any new decision.
    pub fn initial_conflict(&self) -> Option<&Conflict> {
        self.initial_conflict.as_ref()
    }

    /// The values the solver still admits for `name`. Unknown names are
    /// [`Viability::Open`] — the solver never claims knowledge it lacks.
    pub fn viable(&self, name: &str) -> Viability {
        let Some(&v) = self.net.index.get(name) else {
            return Viability::Open;
        };
        match &self.doms[v] {
            Dom::Fixed(val) => Viability::Values(vec![val.clone()]),
            Dom::Finite { values, live } => {
                if live.count() == 0 {
                    Viability::Empty
                } else {
                    Viability::Values(live.iter().map(|i| values[i].clone()).collect())
                }
            }
            Dom::Int { lo, hi } => Viability::IntRange(*lo, *hi),
            Dom::Real { lo, hi } => Viability::RealRange(*lo, *hi),
            Dom::Open => Viability::Open,
            Dom::Empty => Viability::Empty,
        }
    }

    /// Whether `value` is still admitted for `name` (`true` for open or
    /// unknown variables: propagation only ever *proves* inviability).
    pub fn is_viable(&self, name: &str, value: &Value) -> bool {
        match self.net.index.get(name) {
            Some(&v) => self.doms[v].contains(value),
            None => true,
        }
    }

    /// Greedy minimization of a conflict's "because" chain: every fixed
    /// decision among the firing constraint's references, minus any
    /// whose relaxation (back to its base domain) leaves the conflict
    /// intact.
    fn explain(&self, raw: RawConflict) -> Conflict {
        match raw {
            RawConflict::Incompatible { var } => Conflict {
                constraint: None,
                variable: Some(self.net.names[var].clone()),
                because: Vec::new(),
            },
            RawConflict::Fires(ci) => Conflict {
                constraint: Some(self.net.cons[ci].name.clone()),
                variable: None,
                because: self.minimize(ci, None),
            },
            RawConflict::Emptied { var, con } => Conflict {
                constraint: Some(self.net.cons[con].name.clone()),
                variable: Some(self.net.names[var].clone()),
                because: self.minimize(con, Some(var)),
            },
        }
    }

    /// The fixed references of `ci` that are jointly sufficient for the
    /// conflict: start from all of them, drop any that can be relaxed
    /// to its base domain with the conflict still provable by [`eval3`].
    fn minimize(&self, ci: usize, emptied: Option<usize>) -> Vec<(String, Value)> {
        let con = &self.net.cons[ci];
        let mut fixed_refs: Vec<usize> = con
            .refs
            .iter()
            .copied()
            .filter(|&v| Some(v) != emptied && matches!(self.doms[v], Dom::Fixed(_)))
            .collect();
        fixed_refs.sort_unstable();
        fixed_refs.dedup();
        let mut scratch = self.doms.clone();
        let still_conflicts = |doms: &[Dom], totals: &mut SolveTotals| -> bool {
            totals.propagations += 1;
            let view = DomView {
                net: &self.net,
                doms,
            };
            match emptied {
                None => eval3(&con.pred, &view) == T,
                Some(var) => {
                    // Every surviving candidate of `var` must still be
                    // forced to fire.
                    let name = &self.net.names[var];
                    match self.net.base[var].view() {
                        VarView::Finite { values, live } => {
                            let mut any = false;
                            for (i, val) in values.iter().enumerate() {
                                if let Some(l) = live {
                                    if !l.get(i) {
                                        continue;
                                    }
                                }
                                any = true;
                                let probe = OverrideView {
                                    inner: DomView {
                                        net: &self.net,
                                        doms,
                                    },
                                    name,
                                    val,
                                };
                                if eval3(&con.pred, &probe) != T {
                                    return false;
                                }
                            }
                            any
                        }
                        _ => false,
                    }
                }
            }
        };
        let mut totals = SolveTotals::default();
        if !still_conflicts(&scratch, &mut totals) {
            // The conflict is not re-provable from the constraint alone
            // (it needed a propagation chain): keep the full fixed set
            // as the honest, unminimized chain.
            return fixed_refs
                .into_iter()
                .filter_map(|v| match &self.doms[v] {
                    Dom::Fixed(val) => Some((self.net.names[v].clone(), val.clone())),
                    _ => None,
                })
                .collect();
        }
        let mut kept: Vec<usize> = Vec::new();
        for &v in &fixed_refs {
            let saved = scratch[v].clone();
            scratch[v] = self.net.base[v].clone();
            if !still_conflicts(&scratch, &mut totals) {
                // Needed: restore.
                scratch[v] = saved;
                kept.push(v);
            }
        }
        let mut out: Vec<(String, Value)> = kept
            .into_iter()
            .filter_map(|v| match &self.doms[v] {
                Dom::Fixed(val) => Some((self.net.names[v].clone(), val.clone())),
                _ => None,
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Runs one revision of constraint `ci`: proves a definite fire, or
/// prunes candidate values / shaves interval bounds whose assignment
/// would force the constraint to fire on every completion. The
/// variables it narrowed are pushed onto `changed`.
fn revise(
    net: &Net,
    doms: &mut [Dom],
    ci: usize,
    trail: &mut Option<&mut Vec<Change>>,
    totals: &mut SolveTotals,
    changed: &mut Vec<usize>,
) -> Result<(), RawConflict> {
    let con = &net.cons[ci];
    totals.propagations += 1;
    let s = {
        let view = DomView { net, doms };
        eval3(&con.pred, &view)
    };
    if s == T {
        totals.conflicts += 1;
        return Err(RawConflict::Fires(ci));
    }
    if s & T == 0 {
        // Can never fire: nothing to prune.
        return Ok(());
    }
    for &v in &con.refs {
        let name = &net.names[v];
        // Moved out while probing: every probe overrides `v` by name, so
        // nothing reads its slot until it is put back. The placeholder
        // is also what an emptied domain becomes.
        match std::mem::replace(&mut doms[v], Dom::Empty) {
            Dom::Finite { values, live } => {
                // Copied only once a value is actually pruned.
                let mut new_live: Option<BitSet> = None;
                for i in live.iter() {
                    totals.propagations += 1;
                    let probe = OverrideView {
                        inner: DomView { net, doms },
                        name,
                        val: &values[i],
                    };
                    if eval3(&con.pred, &probe) == T {
                        new_live.get_or_insert_with(|| live.clone()).clear(i);
                    }
                }
                let Some(new_live) = new_live else {
                    doms[v] = Dom::Finite { values, live };
                    continue;
                };
                if let Some(t) = trail.as_deref_mut() {
                    t.push(Change {
                        var: v,
                        old: Dom::Finite {
                            values: Arc::clone(&values),
                            live,
                        },
                    });
                }
                if new_live.count() == 0 {
                    totals.conflicts += 1;
                    return Err(RawConflict::Emptied { var: v, con: ci });
                }
                doms[v] = Dom::Finite {
                    values,
                    live: new_live,
                };
                changed.push(v);
            }
            Dom::Int { lo, hi } => {
                let (mut lo2, mut hi2) = (lo, hi);
                let mut probes = 0u32;
                while lo2 <= hi2 && probes < BOUND_PROBES {
                    totals.propagations += 1;
                    let val = Value::Int(lo2);
                    let probe = OverrideView {
                        inner: DomView { net, doms },
                        name,
                        val: &val,
                    };
                    if eval3(&con.pred, &probe) == T {
                        lo2 += 1;
                        probes += 1;
                    } else {
                        break;
                    }
                }
                probes = 0;
                while lo2 <= hi2 && probes < BOUND_PROBES {
                    totals.propagations += 1;
                    let val = Value::Int(hi2);
                    let probe = OverrideView {
                        inner: DomView { net, doms },
                        name,
                        val: &val,
                    };
                    if eval3(&con.pred, &probe) == T {
                        hi2 -= 1;
                        probes += 1;
                    } else {
                        break;
                    }
                }
                if (lo2, hi2) == (lo, hi) {
                    doms[v] = Dom::Int { lo, hi };
                    continue;
                }
                if let Some(t) = trail.as_deref_mut() {
                    t.push(Change {
                        var: v,
                        old: Dom::Int { lo, hi },
                    });
                }
                if lo2 > hi2 {
                    totals.conflicts += 1;
                    return Err(RawConflict::Emptied { var: v, con: ci });
                }
                doms[v] = Dom::Int { lo: lo2, hi: hi2 };
                changed.push(v);
            }
            // Fixed values cannot be pruned (a forced fire surfaces as
            // `Fires` above); real intervals and open/empty domains are
            // left alone.
            other => doms[v] = other,
        }
    }
    Ok(())
}

/// Propagation buffers reused across fixpoints, so a warm solver's
/// decide allocates none. Between fixpoints the queue is empty and no
/// `in_queue` flag is set.
#[derive(Debug, Clone, Default)]
struct Buffers {
    queue: VecDeque<usize>,
    in_queue: Vec<bool>,
    changed: Vec<usize>,
}

/// Drains a propagation queue seeded with `seed` to fixpoint.
fn fixpoint(
    net: &Net,
    doms: &mut [Dom],
    seed: &[usize],
    mut trail: Option<&mut Vec<Change>>,
    totals: &mut SolveTotals,
    buffers: &mut Buffers,
) -> Option<RawConflict> {
    let Buffers {
        queue,
        in_queue,
        changed,
    } = buffers;
    in_queue.resize(net.cons.len(), false);
    for &ci in seed {
        if !in_queue[ci] {
            in_queue[ci] = true;
            queue.push_back(ci);
        }
    }
    while let Some(ci) = queue.pop_front() {
        in_queue[ci] = false;
        totals.fixpoint_iterations += 1;
        changed.clear();
        if let Err(raw) = revise(net, doms, ci, &mut trail, totals, changed) {
            for ci in queue.drain(..) {
                in_queue[ci] = false;
            }
            return Some(raw);
        }
        for &v in changed.iter() {
            for &w in &net.watchers[v] {
                if w != ci && !in_queue[w] {
                    in_queue[w] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    None
}

/// The initial fixpoint: the reference-free constraints first, then
/// each of the network's independent components to its own fixpoint,
/// in order, in place. Components share no variable, so each sees
/// exactly the domains it would see alone; every component runs even
/// after a conflict, and the first conflict in component order wins.
fn initial_fixpoint(
    net: &Net,
    doms: &mut [Dom],
    totals: &mut SolveTotals,
    buffers: &mut Buffers,
) -> Option<RawConflict> {
    for &ci in &net.free {
        totals.propagations += 1;
        if eval3(&net.cons[ci].pred, &DomView { net, doms }) == T {
            totals.conflicts += 1;
            return Some(RawConflict::Fires(ci));
        }
    }
    let mut first: Option<RawConflict> = None;
    for component in &net.components {
        let raw = fixpoint(net, doms, component, None, totals, buffers);
        if first.is_none() {
            first = raw;
        }
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{ConsistencyConstraint, Relation};
    use crate::expr::Expr;
    use crate::hierarchy::DesignSpace;
    use crate::property::Property;
    use foundation::check::{self, Gen};

    // -- exact engine vs brute-force enumeration ----------------------

    fn brute_force(
        preds: &[(&str, &Pred)],
        axes: &[(String, Vec<Value>)],
        fixed: &Bindings,
    ) -> (usize, usize) {
        fn rec(
            preds: &[(&str, &Pred)],
            axes: &[(String, Vec<Value>)],
            b: &mut Bindings,
            i: usize,
            firing: &mut usize,
            total: &mut usize,
        ) {
            if i == axes.len() {
                *total += 1;
                if preds.iter().any(|(_, p)| p.eval(b) == Ok(true)) {
                    *firing += 1;
                }
                return;
            }
            let (name, vs) = &axes[i];
            for v in vs {
                b.insert(name.clone(), v.clone());
                rec(preds, axes, b, i + 1, firing, total);
            }
            b.remove(name);
        }
        let (mut firing, mut total) = (0, 0);
        let mut b = fixed.clone();
        rec(preds, axes, &mut b, 0, &mut firing, &mut total);
        (firing, total)
    }

    fn arb_expr(g: &mut Gen, vars: &[&str], depth: usize) -> Expr {
        if depth == 0 || g.usize_in(0, 2) == 0 {
            return match g.usize_in(0, 2) {
                0 => Expr::constant(g.i64_in(-3, 3)),
                1 => Expr::prop(vars[g.usize_in(0, vars.len() - 1)]),
                _ => Expr::constant(g.i64_in(0, 2)),
            };
        }
        let a = arb_expr(g, vars, depth - 1);
        let b = arb_expr(g, vars, depth - 1);
        match g.usize_in(0, 4) {
            0 => a.add(b),
            1 => a.sub(b),
            2 => a.mul(b),
            3 => a.div(b),
            _ => a.pow(b),
        }
    }

    fn arb_pred(g: &mut Gen, vars: &[&str], depth: usize) -> Pred {
        if depth == 0 || g.usize_in(0, 2) == 0 {
            return match g.usize_in(0, 3) {
                0 => Pred::is(vars[g.usize_in(0, vars.len() - 1)], g.i64_in(0, 3)),
                1 => Pred::is_not(vars[g.usize_in(0, vars.len() - 1)], g.i64_in(0, 3)),
                _ => {
                    let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
                    Pred::cmp(
                        ops[g.usize_in(0, 5)],
                        arb_expr(g, vars, 1),
                        arb_expr(g, vars, 1),
                    )
                }
            };
        }
        match g.usize_in(0, 2) {
            0 => Pred::all((0..g.usize_in(1, 3)).map(|_| arb_pred(g, vars, depth - 1))),
            1 => Pred::any((0..g.usize_in(1, 3)).map(|_| arb_pred(g, vars, depth - 1))),
            _ => Pred::Not(Box::new(arb_pred(g, vars, depth - 1))),
        }
    }

    #[test]
    fn exact_counts_match_brute_force_enumeration() {
        check::run("exact_counts_match_brute_force_enumeration", |g| {
            // "M" is deliberately never an axis: referencing it tests the
            // unbound-error path on both engines.
            let vars = ["V0", "V1", "V2", "M"];
            let n_axes = g.usize_in(1, 3);
            let axes: Vec<(String, Vec<Value>)> = (0..n_axes)
                .map(|i| {
                    let len = g.usize_in(1, 3);
                    (
                        format!("V{i}"),
                        (0..len as i64).map(Value::Int).collect(),
                    )
                })
                .collect();
            let p1 = arb_pred(g, &vars, 2);
            let p2 = arb_pred(g, &vars, 2);
            let preds: Vec<(&str, &Pred)> = vec![("C1", &p1), ("C2", &p2)];
            let mut fixed = Bindings::new();
            if g.usize_in(0, 1) == 1 {
                fixed.insert("F", Value::Int(g.i64_in(0, 3)));
            }
            let (firing, total) = brute_force(&preds, &axes, &fixed);
            let (exact, _) = count_firing_exact(&preds, &axes, &fixed, SEARCH_NODE_BUDGET);
            assert_eq!(exact, Some((firing, total)), "preds {p1} / {p2}");
            let (sat, _) = survives_exact(&preds, &axes, &fixed, SEARCH_NODE_BUDGET);
            assert_eq!(sat, Some(firing < total), "preds {p1} / {p2}");
        });
    }

    #[test]
    fn exact_engine_respects_its_budget() {
        // 2^30 combinations of a subset-sum predicate: interval
        // abstraction cannot decide it high up, so the search must
        // branch combinatorially — the budget must trip, not hang.
        let axes: Vec<(String, Vec<Value>)> = (0..30)
            .map(|i| (format!("B{i}"), vec![Value::Int(0), Value::Int(1)]))
            .collect();
        let sum = (1..30).fold(Expr::prop("B0"), |acc, i| acc.add(Expr::prop(format!("B{i}"))));
        let pred = Pred::cmp(CmpOp::Eq, sum, Expr::constant(15));
        let preds: Vec<(&str, &Pred)> = vec![("A", &pred)];
        let fixed = Bindings::new();
        let (count, totals) = count_firing_exact(&preds, &axes, &fixed, 1_000);
        assert_eq!(count, None);
        assert!(totals.search_nodes >= 1_000);
    }

    #[test]
    fn exact_engine_prunes_decided_subspaces() {
        // One pred fixed false by a fixed binding: zero branching needed.
        let axes: Vec<(String, Vec<Value>)> = (0..20)
            .map(|i| {
                (
                    format!("B{i}"),
                    vec![Value::Flag(false), Value::Flag(true)],
                )
            })
            .collect();
        let pred = Pred::all([Pred::is("Gate", "open"), Pred::is("B0", true)]);
        let preds: Vec<(&str, &Pred)> = vec![("C", &pred)];
        let mut fixed = Bindings::new();
        fixed.insert("Gate", Value::from("shut"));
        let (count, totals) = count_firing_exact(&preds, &axes, &fixed, SEARCH_NODE_BUDGET);
        assert_eq!(count, Some((0, 1 << 20)));
        assert!(totals.search_nodes <= 2, "{totals:?}");
    }

    // -- the incremental solver ---------------------------------------

    fn cc(name: &str, pred: Pred) -> ConsistencyConstraint {
        let refs = pred.references();
        ConsistencyConstraint::new(name, "", refs, [], Relation::InconsistentOptions(pred))
    }

    fn style_mode_space() -> (DesignSpace, CdoId) {
        let mut s = DesignSpace::new("t");
        let root = s.add_root("Root", "");
        s.add_property(
            root,
            Property::issue("Style", Domain::options(["A", "B"]), ""),
        )
        .unwrap();
        s.add_property(
            root,
            Property::issue("Mode", Domain::options(["x", "y"]), ""),
        )
        .unwrap();
        (s, root)
    }

    #[test]
    fn decide_propagates_and_retract_restores() {
        let (mut s, root) = style_mode_space();
        s.add_constraint(
            root,
            cc("CC1", Pred::all([Pred::is("Style", "A"), Pred::is("Mode", "x")])),
        )
        .unwrap();
        let mut solver = Solver::for_space(&s, root);
        assert!(solver.initial_conflict().is_none());
        assert_eq!(
            solver.viable("Mode"),
            Viability::Values(vec![Value::from("x"), Value::from("y")])
        );
        assert!(solver.decide("Style", &Value::from("A")).is_none());
        assert_eq!(solver.depth(), 1);
        // Propagation pruned Mode = x without a second decision.
        assert_eq!(solver.viable("Mode"), Viability::Values(vec![Value::from("y")]));
        assert!(!solver.is_viable("Mode", &Value::from("x")));
        assert!(solver.retract());
        assert_eq!(solver.depth(), 0);
        assert_eq!(
            solver.viable("Mode"),
            Viability::Values(vec![Value::from("x"), Value::from("y")])
        );
        assert!(!solver.retract(), "no level left to pop");
    }

    #[test]
    fn conflict_carries_a_minimal_because_chain() {
        let (mut s, root) = style_mode_space();
        s.add_constraint(
            root,
            cc("CC1", Pred::all([Pred::is("Style", "A"), Pred::is("Mode", "x")])),
        )
        .unwrap();
        s.add_constraint(
            root,
            cc("CC2", Pred::all([Pred::is("Style", "A"), Pred::is("Mode", "y")])),
        )
        .unwrap();
        let mut solver = Solver::for_space(&s, root);
        let conflict = solver
            .decide("Style", &Value::from("A"))
            .expect("Style = A leaves no Mode value");
        assert_eq!(conflict.because, vec![("Style".to_owned(), Value::from("A"))]);
        assert!(conflict.constraint.is_some());
        let shown = conflict.to_string();
        assert!(shown.contains("because Style = A"), "{shown}");
        // Committed-on-conflict: the caller decides to retract.
        assert_eq!(solver.depth(), 1);
        assert!(solver.retract());
        assert_eq!(
            solver.viable("Mode"),
            Viability::Values(vec![Value::from("x"), Value::from("y")])
        );
    }

    #[test]
    fn initial_conflict_on_a_contradictory_region() {
        let (mut s, root) = style_mode_space();
        s.add_constraint(
            root,
            cc(
                "CCdead",
                Pred::any([Pred::is("Style", "A"), Pred::is_not("Style", "A")]),
            ),
        )
        .unwrap();
        let solver = Solver::for_space(&s, root);
        let conflict = solver.initial_conflict().expect("region is contradictory");
        assert_eq!(conflict.constraint.as_deref(), Some("CCdead"));
        assert!(conflict.because.is_empty());
        assert!(conflict.to_string().contains("no prior decisions required"));
    }

    #[test]
    fn bounds_propagation_shaves_integer_intervals() {
        let mut s = DesignSpace::new("t");
        let root = s.add_root("Root", "");
        s.add_property(
            root,
            Property::issue("Style", Domain::options(["A", "B"]), ""),
        )
        .unwrap();
        // Span 95 > MAX_INT_RANGE_SPAN: stays an interval, not a bitset.
        s.add_property(
            root,
            Property::requirement("Width", Domain::int_range(65, 160), None, ""),
        )
        .unwrap();
        s.add_constraint(
            root,
            cc(
                "CCwide",
                Pred::all([
                    Pred::is("Style", "A"),
                    Pred::cmp(CmpOp::Gt, Expr::prop("Width"), Expr::constant(140)),
                ]),
            ),
        )
        .unwrap();
        let mut solver = Solver::for_space(&s, root);
        assert_eq!(solver.viable("Width"), Viability::IntRange(65, 160));
        assert!(solver.decide("Style", &Value::from("A")).is_none());
        assert_eq!(solver.viable("Width"), Viability::IntRange(65, 140));
        assert!(solver.retract());
        assert_eq!(solver.viable("Width"), Viability::IntRange(65, 160));
    }

    #[test]
    fn deciding_outside_the_domain_conflicts() {
        let (s, root) = style_mode_space();
        let mut solver = Solver::for_space(&s, root);
        let conflict = solver
            .decide("Style", &Value::from("C"))
            .expect("C is not an option");
        assert_eq!(conflict.variable.as_deref(), Some("Style"));
        assert_eq!(solver.viable("Style"), Viability::Empty);
        assert!(solver.retract());
        assert_eq!(
            solver.viable("Style"),
            Viability::Values(vec![Value::from("A"), Value::from("B")])
        );
    }

    #[test]
    fn with_bindings_replays_session_state() {
        let (mut s, root) = style_mode_space();
        s.add_constraint(
            root,
            cc("CC1", Pred::all([Pred::is("Style", "A"), Pred::is("Mode", "x")])),
        )
        .unwrap();
        let mut b = Bindings::new();
        b.insert("Style", Value::from("A"));
        let solver = Solver::with_bindings(&s, root, &b);
        assert!(solver.initial_conflict().is_none());
        assert_eq!(solver.viable("Mode"), Viability::Values(vec![Value::from("y")]));
        assert_eq!(solver.viable("Style"), Viability::Values(vec![Value::from("A")]));
    }

    #[test]
    fn unknown_and_open_names_stay_viable() {
        let (s, root) = style_mode_space();
        let solver = Solver::for_space(&s, root);
        assert_eq!(solver.viable("NoSuchProp"), Viability::Open);
        assert!(solver.is_viable("NoSuchProp", &Value::Int(1)));
    }

    #[test]
    fn bitset_basics() {
        let mut b = BitSet::full(70);
        assert_eq!(b.count(), 70);
        assert!(b.get(69));
        assert!(b.clear(69));
        assert!(!b.clear(69), "already cleared");
        assert!(!b.get(69));
        assert_eq!(b.count(), 69);
        assert_eq!(BitSet::full(0).count(), 0);
        assert_eq!(b.iter().count(), 69);
    }

    #[test]
    fn eval3_over_approximates_concrete_outcomes() {
        check::run("eval3_over_approximates_concrete_outcomes", |g| {
            let vars = ["V0", "V1", "M"];
            let pred = arb_pred(g, &vars, 2);
            let mut b = Bindings::new();
            b.insert("V0", Value::Int(g.i64_in(0, 3)));
            b.insert("V1", Value::Int(g.i64_in(0, 3)));
            struct BoundVars<'a>(&'a Bindings);
            impl Vars for BoundVars<'_> {
                fn view(&self, name: &str) -> VarView<'_> {
                    match self.0.get(name) {
                        Some(v) => VarView::Val(v),
                        None => VarView::Missing,
                    }
                }
            }
            let s = eval3(&pred, &BoundVars(&b));
            let actual = match pred.eval(&b) {
                Ok(true) => T,
                Ok(false) => F,
                Err(_) => E,
            };
            assert_eq!(
                s & actual,
                actual,
                "eval3 {s:03b} must contain concrete outcome {actual:03b} for {pred}"
            );
        });
    }
}
