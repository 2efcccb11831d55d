//! Differential property suite for the columnar core store.
//!
//! Seeded random spaces and libraries, driven through random
//! decide/undo/revise trails; after every step, every [`Explorer`]
//! query answered by the columnar store must be **bit-identical** to
//! the per-core scan reference in [`scan_oracle`] — survivor lists,
//! counts, pages, evaluation spaces, merit ranges, Pareto fronts, bound
//! queries, issue-impact rankings and solver-pruned sets — and
//! identical again at every `DSE_THREADS` ∈ {1, 2, 8}.

use design_space_layer::dse::eval::FigureOfMerit;
use design_space_layer::dse::prelude::*;
use design_space_layer::dse_library::core_store::roster;
use design_space_layer::dse_library::synthetic::{
    synthetic_core_space, synthetic_cores, CoreSpaceSpec,
};
use design_space_layer::dse_library::{scan_oracle, CoreRecord, Explorer, ReuseLibrary};
use design_space_layer::foundation::par;
use design_space_layer::foundation::rng::{Rng, SeedableRng, StdRng};

/// Random spec: large enough to cross the parallel threshold (256
/// cores) on most draws, small enough to keep the suite quick.
fn random_spec(rng: &mut StdRng, seed: u64) -> CoreSpaceSpec {
    CoreSpaceSpec {
        cores: rng.gen_range(40usize..700),
        properties: rng.gen_range(2usize..6),
        arity: rng.gen_range(2usize..5),
        merits: rng.gen_range(1usize..4),
        unbound_permille: rng.gen_range(0u64..400),
        seed,
    }
}

fn names(cores: &[&CoreRecord]) -> Vec<String> {
    cores.iter().map(|c| c.name().to_owned()).collect()
}

/// Every query the explorer answers, snapshotted for comparison.
#[derive(Debug, PartialEq)]
struct QuerySnapshot {
    survivors: Vec<String>,
    count: usize,
    page: Vec<String>,
    eval_len: usize,
    ranges: Vec<Option<(f64, f64)>>,
    pareto: Vec<String>,
    meeting: Vec<Vec<String>>,
    impact: Vec<(String, f64)>,
    pruned: Vec<String>,
}

fn snapshot(exp: &Explorer<'_>, merits: &[FigureOfMerit], page_at: (usize, usize)) -> QuerySnapshot {
    QuerySnapshot {
        survivors: names(&exp.surviving_cores()),
        count: exp.surviving_count(),
        page: names(&exp.surviving_page(page_at.0, page_at.1)),
        eval_len: exp.evaluation_space().len(),
        ranges: merits.iter().map(|m| exp.merit_range(m)).collect(),
        pareto: names(&exp.pareto_cores(merits)),
        meeting: merits
            .iter()
            .map(|m| names(&exp.cores_meeting(m, 5_000.0)))
            .collect(),
        impact: exp.issue_impact(&merits[0]),
        pruned: names(&exp.solver_pruned_cores()),
    }
}

/// The same queries answered by the scan reference over `roster`.
fn scan_snapshot(
    roster: &[&CoreRecord],
    session: &ExplorationSession<'_>,
    merits: &[FigureOfMerit],
    page_at: (usize, usize),
) -> QuerySnapshot {
    let survivors = scan_oracle::surviving_cores(roster, session);
    let page: Vec<&CoreRecord> = survivors
        .iter()
        .copied()
        .skip(page_at.0)
        .take(page_at.1)
        .collect();
    QuerySnapshot {
        survivors: names(&survivors),
        count: survivors.len(),
        page: names(&page),
        eval_len: scan_oracle::evaluation_space(roster, session).len(),
        ranges: merits
            .iter()
            .map(|m| scan_oracle::merit_range(roster, session, m))
            .collect(),
        pareto: names(&scan_oracle::pareto_cores(roster, session, merits)),
        meeting: merits
            .iter()
            .map(|m| names(&scan_oracle::cores_meeting(roster, session, m, 5_000.0)))
            .collect(),
        impact: scan_oracle::issue_impact(roster, session, &merits[0]),
        pruned: names(&scan_oracle::solver_pruned_cores(roster, session)),
    }
}

/// Runs one seeded trail, asserting columnar/scan agreement after every
/// step, and returns the per-step snapshots (for cross-thread-count
/// comparison).
fn run_trail(seed: u64) -> Vec<QuerySnapshot> {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = random_spec(&mut rng, seed);
    let (space, root) = synthetic_core_space(&spec);
    let library = synthetic_cores(&spec);
    let merits: Vec<FigureOfMerit> = {
        let probe = synthetic_cores(&CoreSpaceSpec { cores: 1, ..spec.clone() });
        probe.cores()[0].merits().keys().copied().collect()
    };
    let mut exp = Explorer::new(&space, root, &library);
    let roster = roster(&[&library]);
    let mut history = Vec::new();

    for _step in 0..12 {
        // One random session op: decide an undecided issue, undo, or
        // revise an already-decided one.
        let p = format!("P{}", rng.gen_range(0..spec.properties));
        let o = Value::from(format!("o{}", rng.gen_range(0..spec.arity)));
        match rng.gen_range(0u32..10) {
            0..=5 => {
                if exp.session.decided(&p).is_none() {
                    exp.session.decide(&p, o).expect("unconstrained decide");
                }
            }
            6..=7 => {
                let _ = exp.session.undo();
            }
            _ => {
                if exp.session.decided(&p).is_some() {
                    exp.session.revise(&p, o).expect("unconstrained revise");
                }
            }
        }

        let page_at = (rng.gen_range(0usize..50), rng.gen_range(1usize..40));
        let columnar = snapshot(&exp, &merits, page_at);
        let scan = scan_snapshot(&roster, &exp.session, &merits, page_at);
        assert_eq!(
            columnar, scan,
            "engines diverged (seed {seed}, step {_step})"
        );
        history.push(columnar);
    }
    history
}

#[test]
fn columnar_matches_scan_across_trails_and_thread_counts() {
    for seed in [1u64, 7, 42, 1999, 0xD5E] {
        let baseline = par::with_thread_limit(1, || run_trail(seed));
        for threads in [2usize, 8] {
            let got = par::with_thread_limit(threads, || run_trail(seed));
            assert_eq!(
                baseline, got,
                "thread count {threads} changed results (seed {seed})"
            );
        }
    }
}

/// Duplicate libraries collapse to union semantics in the roster, for
/// the store and the scan reference alike.
#[test]
fn duplicate_library_union_is_engine_independent() {
    let spec = CoreSpaceSpec::sized(300);
    let (space, root) = synthetic_core_space(&spec);
    let library = synthetic_cores(&spec);
    let exp = Explorer::with_libraries(&space, root, [&library, &library]);
    assert_eq!(exp.surviving_count(), 300);
    let roster = roster(&[&library, &library]);
    assert_eq!(
        scan_oracle::surviving_cores(&roster, &exp.session).len(),
        300
    );
}

/// A second library only contributes records with novel
/// `(vendor, name)` pairs.
#[test]
fn overlapping_records_keep_first_occurrence() {
    let spec = CoreSpaceSpec::sized(12);
    let (space, root) = synthetic_core_space(&spec);
    let library = synthetic_cores(&spec);
    let mut other = ReuseLibrary::new("other");
    other.push(CoreRecord::new("c3", "synthetic", "shadowed duplicate"));
    other.push(CoreRecord::new("novel", "synthetic", ""));
    let exp = Explorer::with_libraries(&space, root, [&library, &other]);
    let all = exp.surviving_cores();
    assert_eq!(all.len(), 13);
    let c3 = all.iter().find(|c| c.name() == "c3").unwrap();
    assert_eq!(c3.doc(), "", "first occurrence wins");
}
