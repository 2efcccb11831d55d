//! The scan reference for [`Explorer`](crate::Explorer) queries.
//!
//! Each function answers one explorer query by filtering a roster (see
//! [`roster`](crate::core_store::roster)) against a session's bindings
//! core by core, with no [`CoreStore`](crate::CoreStore). Nothing
//! selects this module at run time: the differential suites call it
//! beside the explorer and demand bit-identical answers, and the
//! `explore_scale/from_scratch_1M` bench times it as the from-scratch
//! baseline.

use dse::analyze::solve::Viability;
use dse::eval::{EvaluationSpace, FigureOfMerit};
use dse::session::ExplorationSession;

use crate::core_record::CoreRecord;
use crate::core_store::{value_viable, PAR_MIN_CORES};
use crate::explorer::{evaluation_space_of, impact_of, pareto_of};

/// Cores of `roster` complying with every decision in `session`, in
/// roster order. Fans out past the parallel threshold; verdicts return
/// in submission order, so the list is `DSE_THREADS`-independent.
pub fn surviving_cores<'a>(
    roster: &[&'a CoreRecord],
    session: &ExplorationSession<'_>,
) -> Vec<&'a CoreRecord> {
    let filter = session.bindings();
    if roster.len() < PAR_MIN_CORES {
        return roster
            .iter()
            .copied()
            .filter(|c| c.complies_with(filter))
            .collect();
    }
    let verdicts = foundation::par::par_map(roster.to_vec(), |c| c.complies_with(filter));
    roster
        .iter()
        .copied()
        .zip(verdicts)
        .filter_map(|(c, ok)| ok.then_some(c))
        .collect()
}

/// The evaluation space of the surviving cores.
pub fn evaluation_space(
    roster: &[&CoreRecord],
    session: &ExplorationSession<'_>,
) -> EvaluationSpace {
    evaluation_space_of(surviving_cores(roster, session))
}

/// The `(min, max)` range of `merit` over the surviving cores.
pub fn merit_range(
    roster: &[&CoreRecord],
    session: &ExplorationSession<'_>,
    merit: &FigureOfMerit,
) -> Option<(f64, f64)> {
    evaluation_space(roster, session).range(merit)
}

/// The Pareto-optimal surviving cores under `merits`.
pub fn pareto_cores<'a>(
    roster: &[&'a CoreRecord],
    session: &ExplorationSession<'_>,
    merits: &[FigureOfMerit],
) -> Vec<&'a CoreRecord> {
    pareto_of(surviving_cores(roster, session), merits)
}

/// Surviving cores whose `merit` is at most `bound`.
pub fn cores_meeting<'a>(
    roster: &[&'a CoreRecord],
    session: &ExplorationSession<'_>,
    merit: &FigureOfMerit,
    bound: f64,
) -> Vec<&'a CoreRecord> {
    surviving_cores(roster, session)
        .into_iter()
        .filter(|c| c.merit_value(merit).is_some_and(|v| v <= bound))
        .collect()
}

/// Surviving cores minus those binding an open issue to an option the
/// propagation solver proves non-viable.
pub fn solver_pruned_cores<'a>(
    roster: &[&'a CoreRecord],
    session: &ExplorationSession<'_>,
) -> Vec<&'a CoreRecord> {
    let solver = session.lookahead();
    let verdicts: Vec<(&str, Viability)> = session
        .open_issues()
        .iter()
        .map(|p| (p.name(), solver.viable(p.name())))
        .collect();
    surviving_cores(roster, session)
        .into_iter()
        .filter(|c| {
            verdicts.iter().all(|(name, viability)| {
                c.binding(name)
                    .is_none_or(|have| value_viable(have, viability))
            })
        })
        .collect()
}

/// The open issues ranked by their impact on `merit` over the surviving
/// cores, most impactful first.
pub fn issue_impact(
    roster: &[&CoreRecord],
    session: &ExplorationSession<'_>,
    merit: &FigureOfMerit,
) -> Vec<(String, f64)> {
    let cores = surviving_cores(roster, session);
    let overall_mean = {
        let vals: Vec<f64> = cores.iter().filter_map(|c| c.merit_value(merit)).collect();
        if vals.is_empty() {
            return Vec::new();
        }
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    let mut out = Vec::new();
    for prop in session.open_issues() {
        let Some(options) = prop.domain().enumerate() else {
            continue;
        };
        let mut means = Vec::new();
        for option in &options {
            let vals: Vec<f64> = cores
                .iter()
                .filter(|c| {
                    c.binding(prop.name())
                        .is_some_and(|have| have.matches(option))
                })
                .filter_map(|c| c.merit_value(merit))
                .collect();
            if !vals.is_empty() {
                means.push(vals.iter().sum::<f64>() / vals.len() as f64);
            }
        }
        out.push((prop.name().to_owned(), impact_of(&means, overall_mean)));
    }
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}
