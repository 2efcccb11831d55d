//! The explorer: a session joined with reuse libraries.
//!
//! This is the paper's headline workflow: each design decision made in
//! the session corresponds to a pruning of the design space, and the
//! reusable designs that fall outside the selected region are immediately
//! eliminated from consideration; critical information on the surviving
//! set (ranges of performance, area, …) is directly available.
//!
//! Queries run on the columnar [`CoreStore`]: the surviving set is a
//! bitset maintained incrementally across `decide`/`retract` (see
//! [`core_store`](crate::core_store)). [`scan_oracle`](crate::scan_oracle)
//! answers the same queries core by core over the same deduplicated
//! roster; the differential suites demand bit-identical answers from
//! both at every `DSE_THREADS` setting.

use std::sync::{Arc, Mutex, MutexGuard};

use dse::analyze::solve::Viability;
use dse::eval::{EvaluationSpace, FigureOfMerit};
use dse::hierarchy::{CdoId, DesignSpace};
use dse::session::ExplorationSession;

use crate::core_record::CoreRecord;
use crate::core_store::{roster, CoreStore, Cursor, PAR_MIN_CORES};
use crate::reuse::ReuseLibrary;

/// An exploration session transparently connected to reuse libraries.
#[derive(Debug)]
pub struct Explorer<'a> {
    /// The conceptual-design session (public: decisions are made here).
    pub session: ExplorationSession<'a>,
    libraries: Vec<&'a ReuseLibrary>,
    /// Deduplicated `(vendor, name)` roster in concatenated library
    /// order; the store indexes cores by their position in it.
    roster: Vec<&'a CoreRecord>,
    store: Arc<CoreStore>,
    /// The incremental surviving-set cursor, re-synced to the session
    /// log at each query (decisions happen on the public `session`
    /// field, outside our sight).
    cursor: Mutex<Cursor>,
}

impl<'a> Explorer<'a> {
    /// Starts an explorer over one library.
    pub fn new(space: &'a DesignSpace, root: CdoId, library: &'a ReuseLibrary) -> Self {
        Explorer::with_libraries(space, root, [library])
    }

    /// Starts an explorer over several libraries (the layer can reference
    /// designs residing in different libraries, Fig. 1). Records sharing
    /// a `(vendor, name)` pair are deduplicated — passing the same
    /// library twice yields union semantics, not doubled cores.
    pub fn with_libraries(
        space: &'a DesignSpace,
        root: CdoId,
        libraries: impl IntoIterator<Item = &'a ReuseLibrary>,
    ) -> Self {
        Explorer::from_session(ExplorationSession::new(space, root), libraries)
    }

    /// Wraps an *existing* session — a server answering a
    /// `surviving_cores` query resumes the session's state and joins it
    /// to the snapshot's library without replaying any decisions or
    /// cloning the space.
    pub fn from_session(
        session: ExplorationSession<'a>,
        libraries: impl IntoIterator<Item = &'a ReuseLibrary>,
    ) -> Self {
        let libraries: Vec<&'a ReuseLibrary> = libraries.into_iter().collect();
        let roster = roster(&libraries);
        let store = Arc::new(CoreStore::build(&roster));
        Explorer::assemble(session, libraries, roster, store)
    }

    /// Like [`from_session`](Self::from_session), but reuses a pre-built
    /// roster (see [`crate::core_store::roster_from_indices`]) and store,
    /// skipping the per-construction `(vendor, name)` dedup and index
    /// build — the hot path for a server answering many
    /// `surviving_cores` requests against one snapshot, which builds the
    /// store once at load time and shares it across sessions. The roster
    /// must be exactly what [`roster`] would return for `libraries`, over
    /// which `store` was built.
    pub fn from_session_with_store_and_roster(
        session: ExplorationSession<'a>,
        libraries: impl IntoIterator<Item = &'a ReuseLibrary>,
        roster: Vec<&'a CoreRecord>,
        store: Arc<CoreStore>,
    ) -> Self {
        let libraries: Vec<&'a ReuseLibrary> = libraries.into_iter().collect();
        debug_assert_eq!(roster.len(), store.len(), "store/roster mismatch");
        Explorer::assemble(session, libraries, roster, store)
    }

    fn assemble(
        session: ExplorationSession<'a>,
        libraries: Vec<&'a ReuseLibrary>,
        roster: Vec<&'a CoreRecord>,
        store: Arc<CoreStore>,
    ) -> Self {
        let cursor = Mutex::new(Cursor::new(&store));
        Explorer {
            session,
            libraries,
            roster,
            store,
            cursor,
        }
    }

    /// The connected libraries.
    pub fn libraries(&self) -> &[&'a ReuseLibrary] {
        &self.libraries
    }

    /// The columnar store indexing the roster.
    pub fn store(&self) -> &Arc<CoreStore> {
        &self.store
    }

    /// Locks the cursor and re-syncs it to the session's decision log:
    /// retract to the longest common prefix, replay the rest — so
    /// `undo`/`revise` on the public session field cost only their word
    /// deltas.
    fn synced(&self) -> MutexGuard<'_, Cursor> {
        let mut cur = self.cursor.lock().unwrap();
        cur.sync(
            &self.store,
            self.session
                .log()
                .iter()
                .map(|d| (d.property.as_str(), &d.value)),
        );
        cur
    }

    /// Cores (across all libraries) complying with every decision made so
    /// far. Compliance is lenient: a core is only filtered on properties
    /// it actually binds.
    pub fn surviving_cores(&self) -> Vec<&'a CoreRecord> {
        let cur = self.synced();
        self.records(self.store.indices(cur.surviving()))
    }

    /// Roster positions back to records.
    fn records(&self, indices: Vec<usize>) -> Vec<&'a CoreRecord> {
        indices.into_iter().map(|i| self.roster[i]).collect()
    }

    /// Number of surviving cores — O(words), no materialization.
    pub fn surviving_count(&self) -> usize {
        self.synced().surviving().count()
    }

    /// One page of the surviving cores: skips `offset` survivors,
    /// returns at most `limit`, in the same order as
    /// [`surviving_cores`](Self::surviving_cores). The server's
    /// paginated `surviving_cores` op sits on this.
    pub fn surviving_page(&self, offset: usize, limit: usize) -> Vec<&'a CoreRecord> {
        let cur = self.synced();
        self.records(self.store.page(cur.surviving(), offset, limit))
    }

    /// The evaluation space of the surviving cores.
    pub fn evaluation_space(&self) -> EvaluationSpace {
        evaluation_space_of(self.surviving_cores())
    }

    /// The `(min, max)` range of a merit over the surviving cores — the
    /// "critical information on the set of reusable designs that do comply
    /// with the decision". This folds the merit column under the
    /// surviving bitset (memoized per trail depth) without materializing
    /// a core list.
    pub fn merit_range(&self, merit: &FigureOfMerit) -> Option<(f64, f64)> {
        self.synced().range(&self.store, merit)
    }

    /// The Pareto-optimal surviving cores under `merits`.
    pub fn pareto_cores(&self, merits: &[FigureOfMerit]) -> Vec<&'a CoreRecord> {
        pareto_of(self.surviving_cores(), merits)
    }

    /// Surviving cores whose `merit` is at most `bound` — requirement
    /// checks like the case study's "768-bit modmul in ≤ 8 µs".
    pub fn cores_meeting(&self, merit: &FigureOfMerit, bound: f64) -> Vec<&'a CoreRecord> {
        let cur = self.synced();
        self.records(self.store.meeting(cur.surviving(), merit, bound))
    }

    /// The options of `issue` that can still survive the constraints
    /// given the decisions made so far, proved by the propagation
    /// solver ([`dse::analyze::solve`]). Advisory: deciding a
    /// non-viable option still fails with the violated constraint as
    /// before; this answers the question *without* trial-committing.
    pub fn viable_options(&self, issue: &str) -> Viability {
        self.session.lookahead().viable(issue)
    }

    /// Surviving cores additionally pruned by the propagation solver:
    /// for every open issue, cores binding an option the solver proves
    /// non-viable are eliminated — `analyze::solve` shaving the
    /// surviving-core bitsets directly, without trial-committing any
    /// decision. Cores not binding an issue are untouched (lenient
    /// compliance, as everywhere).
    pub fn solver_pruned_cores(&self) -> Vec<&'a CoreRecord> {
        let solver = self.session.lookahead();
        let mut set = self.synced().surviving().clone();
        for prop in self.session.open_issues() {
            let viability = solver.viable(prop.name());
            self.store.prune_non_viable(&mut set, prop.name(), &viability);
        }
        self.records(self.store.indices(&set))
    }

    /// Ranks the still-open design issues by their impact on `merit`
    /// over the surviving cores — the paper's rule that design issues
    /// "should be partially ordered ... considering the degree to which
    /// they impact key requirements".
    ///
    /// Impact of an issue = relative spread of the per-option mean merit
    /// (`(max − min) / overall mean`); an issue every surviving core
    /// answers identically has zero impact. Issues are returned most
    /// impactful first.
    pub fn issue_impact(&self, merit: &FigureOfMerit) -> Vec<(String, f64)> {
        let cur = self.synced();
        let surviving = cur.surviving();
        let (sum, n) = self.store.merit_sum(surviving, merit);
        if n == 0 {
            return Vec::new();
        }
        let overall_mean = sum / n as f64;
        let mut out = Vec::new();
        for prop in self.session.open_issues() {
            let Some(options) = prop.domain().enumerate() else {
                continue;
            };
            let mut means = Vec::new();
            for option in &options {
                let (sum, n) = self
                    .store
                    .option_merit_sum(surviving, prop.name(), option, merit);
                if n > 0 {
                    means.push(sum / n as f64);
                }
            }
            out.push((prop.name().to_owned(), impact_of(&means, overall_mean)));
        }
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }
}

/// The evaluation space of `cores`, fanned out on the pool past the
/// parallel threshold (shared with [`crate::scan_oracle`]).
pub(crate) fn evaluation_space_of(cores: Vec<&CoreRecord>) -> EvaluationSpace {
    if cores.len() < PAR_MIN_CORES {
        return cores.into_iter().map(CoreRecord::eval_point).collect();
    }
    foundation::par::par_map(cores, CoreRecord::eval_point)
        .into_iter()
        .collect()
}

/// The Pareto-optimal members of `cores` under `merits`, in `cores`
/// order (shared with [`crate::scan_oracle`]).
pub(crate) fn pareto_of<'a>(
    cores: Vec<&'a CoreRecord>,
    merits: &[FigureOfMerit],
) -> Vec<&'a CoreRecord> {
    let space: EvaluationSpace = cores.iter().map(|c| c.eval_point()).collect();
    space
        .pareto_front(merits)
        .into_iter()
        .map(|i| cores[i])
        .collect()
}

/// Impact formula shared with [`crate::scan_oracle`]: relative spread of
/// per-option means.
pub(crate) fn impact_of(means: &[f64], overall_mean: f64) -> f64 {
    if means.len() < 2 || overall_mean == 0.0 {
        0.0
    } else {
        let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (hi - lo) / overall_mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan_oracle;
    use dse::prelude::*;

    fn space() -> (DesignSpace, CdoId) {
        let mut s = DesignSpace::new("t");
        let root = s.add_root("Multiplier", "");
        s.add_property(
            root,
            Property::generalized_issue("Style", Domain::options(["Hardware", "Software"]), ""),
        )
        .unwrap();
        s.specialize(root, "Style").unwrap();
        (s, root)
    }

    fn library() -> ReuseLibrary {
        let mut lib = ReuseLibrary::new("lib");
        lib.push(
            CoreRecord::new("hw-fast", "x", "")
                .bind("Style", "Hardware")
                .merit(FigureOfMerit::DelayNs, 100.0)
                .merit(FigureOfMerit::AreaUm2, 900.0),
        );
        lib.push(
            CoreRecord::new("hw-small", "x", "")
                .bind("Style", "Hardware")
                .merit(FigureOfMerit::DelayNs, 300.0)
                .merit(FigureOfMerit::AreaUm2, 200.0),
        );
        lib.push(
            CoreRecord::new("hw-bad", "x", "")
                .bind("Style", "Hardware")
                .merit(FigureOfMerit::DelayNs, 400.0)
                .merit(FigureOfMerit::AreaUm2, 1000.0),
        );
        lib.push(
            CoreRecord::new("sw", "x", "")
                .bind("Style", "Software")
                .merit(FigureOfMerit::DelayNs, 9000.0),
        );
        lib
    }

    #[test]
    fn decisions_prune_the_core_set() {
        let (s, root) = space();
        let lib = library();
        let mut exp = Explorer::new(&s, root, &lib);
        assert_eq!(exp.surviving_cores().len(), 4);
        exp.session
            .decide("Style", Value::from("Hardware"))
            .unwrap();
        let names: Vec<&str> = exp.surviving_cores().iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 3);
        assert!(!names.contains(&"sw"));
    }

    #[test]
    fn ranges_follow_the_pruning() {
        let (s, root) = space();
        let lib = library();
        let mut exp = Explorer::new(&s, root, &lib);
        let (_, hi) = exp.merit_range(&FigureOfMerit::DelayNs).unwrap();
        assert_eq!(hi, 9000.0);
        exp.session
            .decide("Style", Value::from("Hardware"))
            .unwrap();
        let (lo, hi) = exp.merit_range(&FigureOfMerit::DelayNs).unwrap();
        assert_eq!((lo, hi), (100.0, 400.0));
    }

    #[test]
    fn ranges_follow_undo_and_revise() {
        let (s, root) = space();
        let lib = library();
        let mut exp = Explorer::new(&s, root, &lib);
        exp.session
            .decide("Style", Value::from("Hardware"))
            .unwrap();
        assert_eq!(exp.surviving_count(), 3);
        exp.session.undo().unwrap();
        assert_eq!(exp.surviving_count(), 4);
        exp.session
            .decide("Style", Value::from("Software"))
            .unwrap();
        let names: Vec<&str> = exp.surviving_cores().iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["sw"]);
        exp.session.undo().unwrap();
        exp.session
            .decide("Style", Value::from("Hardware"))
            .unwrap();
        assert_eq!(exp.surviving_count(), 3);
    }

    #[test]
    fn pareto_and_bound_queries() {
        let (s, root) = space();
        let lib = library();
        let mut exp = Explorer::new(&s, root, &lib);
        exp.session
            .decide("Style", Value::from("Hardware"))
            .unwrap();
        let pareto = exp.pareto_cores(&[FigureOfMerit::DelayNs, FigureOfMerit::AreaUm2]);
        let names: Vec<&str> = pareto.iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["hw-fast", "hw-small"]);
        let fast = exp.cores_meeting(&FigureOfMerit::DelayNs, 150.0);
        assert_eq!(fast.len(), 1);
        assert_eq!(fast[0].name(), "hw-fast");
    }

    #[test]
    fn paging_partitions_the_survivors() {
        let (s, root) = space();
        let lib = library();
        let exp = Explorer::new(&s, root, &lib);
        let all: Vec<&str> = exp.surviving_cores().iter().map(|c| c.name()).collect();
        let mut paged: Vec<&str> = Vec::new();
        for offset in (0..all.len()).step_by(2) {
            paged.extend(exp.surviving_page(offset, 2).iter().map(|c| c.name()));
        }
        assert_eq!(paged, all);
        assert!(exp.surviving_page(all.len(), 2).is_empty());
    }

    #[test]
    fn issue_impact_ranks_discriminating_issues_first() {
        use crate::crypto;
        use techlib::Technology;

        let layer = crypto::build_layer().unwrap();
        let lib = crypto::build_library(&Technology::g10_035(), 768);
        let mut exp = Explorer::new(&layer.space, layer.omm, &lib);
        exp.session
            .set_requirement("EOL", Value::from(768))
            .unwrap();
        exp.session
            .set_requirement("MaxLatencyUs", Value::from(8.0))
            .unwrap();
        exp.session
            .set_requirement("ModuloIsOdd", Value::from("Guaranteed"))
            .unwrap();
        exp.session
            .decide("ImplementationStyle", Value::from("Hardware"))
            .unwrap();

        let ranking = exp.issue_impact(&FigureOfMerit::DelayNs);
        let impact = |name: &str| {
            ranking
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        // Every hardware core shares the layout style, so it cannot
        // discriminate; the algorithm and the slicing can.
        assert_eq!(impact("LayoutStyle"), 0.0);
        assert!(impact("Algorithm") > 0.0);
        assert!(impact("SliceWidth") > impact("LayoutStyle"));
        // The ranking is sorted descending.
        for pair in ranking.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
        // And the scan oracle agrees exactly.
        let roster = roster(&[&lib]);
        let oracle = scan_oracle::issue_impact(&roster, &exp.session, &FigureOfMerit::DelayNs);
        assert_eq!(ranking, oracle);
    }

    #[test]
    fn multiple_libraries_union() {
        let (s, root) = space();
        let lib1 = library();
        let mut lib2 = ReuseLibrary::new("second");
        lib2.push(CoreRecord::new("extra", "y", "").bind("Style", "Hardware"));
        let exp = Explorer::with_libraries(&s, root, [&lib1, &lib2]);
        assert_eq!(exp.surviving_cores().len(), 5);
        assert_eq!(exp.libraries().len(), 2);
    }

    #[test]
    fn duplicate_libraries_dedupe_to_union_semantics() {
        let (s, root) = space();
        let lib = library();
        // The same library twice is a union, not a doubling.
        let exp = Explorer::with_libraries(&s, root, [&lib, &lib]);
        assert_eq!(exp.surviving_cores().len(), 4);
        assert_eq!(exp.surviving_count(), 4);
        // An overlapping record (same vendor+name) in a second library
        // is also deduplicated; a same-named core from a different
        // vendor is distinct.
        let mut lib2 = ReuseLibrary::new("second");
        lib2.push(CoreRecord::new("hw-fast", "x", "dup").bind("Style", "Hardware"));
        lib2.push(CoreRecord::new("hw-fast", "elsewhere", "").bind("Style", "Hardware"));
        let exp = Explorer::with_libraries(&s, root, [&lib, &lib2]);
        assert_eq!(exp.surviving_cores().len(), 5);
        // First occurrence wins: the original doc string, not "dup".
        let first = exp
            .surviving_cores()
            .into_iter()
            .find(|c| c.name() == "hw-fast" && c.vendor() == "x")
            .unwrap();
        assert_eq!(first.doc(), "");
    }

    #[test]
    fn solver_pruning_shaves_non_viable_bindings() {
        use dse::constraint::{ConsistencyConstraint, Relation};
        use dse::expr::Pred;

        let mut s = DesignSpace::new("t");
        let root = s.add_root("Thing", "");
        s.add_property(
            root,
            Property::issue("Style", Domain::options(["Hardware", "Software"]), ""),
        )
        .unwrap();
        s.add_property(
            root,
            Property::issue("Target", Domain::options(["asic", "mcu"]), ""),
        )
        .unwrap();
        // Choosing the MCU target kills the hardware style.
        s.add_constraint(
            root,
            ConsistencyConstraint::new(
                "CC",
                "mcu targets rule out hardware style",
                ["Target".to_owned()],
                ["Style".to_owned()],
                Relation::InconsistentOptions(Pred::all([
                    Pred::is("Target", "mcu"),
                    Pred::is("Style", "Hardware"),
                ])),
            ),
        )
        .unwrap();
        let lib = library();
        let mut exp = Explorer::new(&s, root, &lib);
        exp.session.decide("Target", Value::from("mcu")).unwrap();
        // Plain compliance keeps every core (none binds Target)…
        assert_eq!(exp.surviving_cores().len(), 4);
        // …but the solver proves Style=Hardware dead, so pruning drops
        // the three hardware cores.
        let pruned: Vec<&str> = exp.solver_pruned_cores().iter().map(|c| c.name()).collect();
        assert_eq!(pruned, vec!["sw"]);
        // The scan oracle agrees exactly.
        let oracle = scan_oracle::solver_pruned_cores(&roster(&[&lib]), &exp.session);
        let oracle_pruned: Vec<&str> = oracle.iter().map(|c| c.name()).collect();
        assert_eq!(pruned, oracle_pruned);
    }
}
