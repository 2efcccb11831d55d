//! Seeded chaos suite for the resilience layer (`dse::robust`).
//!
//! Every test runs under several fixed seeds (plus an optional extra one
//! from `DSE_CHAOS_SEED`) and proves the layer's invariants under
//! injected panics, transient failures, fuel exhaustion and garbage
//! output:
//!
//! * the estimator registry is never poisoned — after any amount of
//!   chaos, healthy calls still answer;
//! * a failed decision leaves the session bit-identical to its
//!   pre-decision state (no partial decisions);
//! * journal recovery replays to the exact original state, and a torn
//!   tail drops only the torn record;
//! * the whole walkthrough completes under fault injection, degrading
//!   figures instead of failing.

use design_space_layer::coproc::spec::KocSpec;
use design_space_layer::coproc::walkthrough;
use design_space_layer::dse::analyze::analyze;
use design_space_layer::dse::diag::DiagCode;
use design_space_layer::dse::prelude::*;
use design_space_layer::dse::robust::fault::silence_injected_panics;
use design_space_layer::dse_library::crypto;
use design_space_layer::dse_library::estimators::full_registry;
use design_space_layer::foundation::par;
use design_space_layer::foundation::rng::{Rng, SeedableRng, StdRng};
use design_space_layer::techlib::Technology;

/// Thread caps the determinism tests sweep. Every parallelized path
/// (analyzer fan-out, explorer compliance checks, walkthrough range
/// reads) must produce bit-identical output at each of them.
const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

/// The fixed seeds every chaos test runs under, extended by
/// `DSE_CHAOS_SEED` when the environment provides one.
fn chaos_seeds() -> Vec<u64> {
    let mut seeds = vec![1, 7, 42];
    if let Ok(s) = std::env::var("DSE_CHAOS_SEED") {
        if let Ok(extra) = s.trim().parse::<u64>() {
            if !seeds.contains(&extra) {
                seeds.push(extra);
            }
        }
    }
    seeds
}

/// A session at the point where CC3's estimation context is ready.
fn cc3_ready_session(layer: &crypto::CryptoLayer) -> ExplorationSession<'_> {
    let mut ses = ExplorationSession::new(&layer.space, layer.omm);
    ses.set_requirement("EOL", Value::from(768)).unwrap();
    ses.set_requirement("MaxLatencyUs", Value::from(8.0))
        .unwrap();
    ses.set_requirement("ModuloIsOdd", Value::from("Guaranteed"))
        .unwrap();
    ses.decide("ImplementationStyle", Value::from("Hardware"))
        .unwrap();
    ses.decide("Algorithm", Value::from("Montgomery")).unwrap();
    ses.decide("BehavioralDecomposition", Value::from("use-default"))
        .unwrap();
    ses
}

#[test]
fn registry_survives_repeated_injected_panics() {
    silence_injected_panics();
    let tech = Technology::g10_035();
    let layer = crypto::build_layer().unwrap();
    for seed in chaos_seeds() {
        // Panic-heavy plan: roughly one call in three unwinds.
        let plan = FaultPlan::new(
            seed,
            64,
            FaultRates {
                panic: 0.30,
                transient: 0.10,
                fuel: 0.05,
                nan: 0.05,
                garbage: 0.05,
            },
        );
        let sup = Supervisor::new(plan.wrap_registry(full_registry(tech.clone())));
        let mut ses = cc3_ready_session(&layer);
        for _ in 0..24 {
            // The loop itself not unwinding is the containment proof;
            // every produced figure must carry a coherent provenance.
            for (_, fig) in ses.run_estimators(&sup) {
                match fig.provenance {
                    Provenance::Unavailable => assert_eq!(fig.value, None),
                    _ => assert!(fig.value.is_some(), "{fig:?}"),
                }
            }
        }
        let stats = sup.stats();
        assert!(
            stats.panics_caught > 0,
            "seed {seed}: the plan should have injected panics"
        );
        // The registry is not poisoned: a benign supervisor over the
        // same tool set still answers exactly.
        let clean = Supervisor::new(full_registry(tech.clone()));
        let fig = clean.estimate("BehaviorDelayEstimator", ses.bindings(), None);
        assert_eq!(fig.provenance, Provenance::Estimated);
        assert!(fig.value.unwrap() > 0.0);
    }
}

#[test]
fn chaos_estimation_is_deterministic_per_seed() {
    silence_injected_panics();
    let tech = Technology::g10_035();
    let layer = crypto::build_layer().unwrap();
    for seed in chaos_seeds() {
        let run = || {
            let plan = FaultPlan::new(seed, 32, FaultRates::chaos());
            let sup = Supervisor::new(plan.wrap_registry(full_registry(tech.clone())));
            let mut ses = cc3_ready_session(&layer);
            let mut figures = Vec::new();
            for _ in 0..12 {
                figures.extend(ses.run_estimators(&sup));
            }
            (figures, sup.stats())
        };
        assert_eq!(run(), run(), "seed {seed}: chaos must be replayable");
    }
}

#[test]
fn failed_operations_leave_the_session_bit_identical() {
    let layer = crypto::build_layer().unwrap();
    for seed in chaos_seeds() {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ses = ExplorationSession::new(&layer.space, layer.omm);
        ses.set_requirement("EOL", Value::from(768)).unwrap();
        ses.set_requirement("MaxLatencyUs", Value::from(8.0))
            .unwrap();
        ses.set_requirement("ModuloIsOdd", Value::from("Guaranteed"))
            .unwrap();
        // A pool of operations, some valid and some doomed: unknown
        // properties, options outside the domain, and the software
        // family the latency requirement rejects (CC6).
        let mut failures = 0u32;
        for _ in 0..40 {
            let before = ses.clone();
            let outcome = match rng.gen_range(1..=8) {
                1 => ses.decide("ImplementationStyle", Value::from("Hardware")),
                2 => ses.decide("ImplementationStyle", Value::from("Software")),
                3 => ses.decide("Algorithm", Value::from("Montgomery")),
                4 => ses.decide("Algorithm", Value::from("Sieve")),
                5 => ses.decide("NoSuchIssue", Value::from(1)),
                6 => ses.decide("BehavioralDecomposition", Value::from("use-default")),
                7 => ses.revise("EOL", Value::from("not a number")).map(|_| ()),
                _ => ses.undo().map(|_| ()),
            };
            if outcome.is_err() {
                failures += 1;
                assert_eq!(
                    ses, before,
                    "seed {seed}: a rejected operation must not leave a trace"
                );
            }
        }
        assert!(failures > 0, "seed {seed}: the pool should produce failures");
    }
}

/// Applies `record` to `session` and journals it only if the session
/// accepted it, as the daemon does. Returns whether it was accepted.
fn apply_journaled(
    session: &mut ExplorationSession<'_>,
    journal: &mut Journal,
    record: JournalRecord,
) -> bool {
    let applied = match &record {
        JournalRecord::SetRequirement { name, value } => {
            session.set_requirement(name, value.clone())
        }
        JournalRecord::Decide { name, value } => session.decide(name, value.clone()),
        JournalRecord::Undo => session.undo().map(|_| ()),
        JournalRecord::Annotate { name, note } => session.annotate(name, note.clone()),
        other => unreachable!("not generated here: {other:?}"),
    };
    if applied.is_ok() {
        journal.append(record);
    }
    applied.is_ok()
}

fn requirement(name: &str, value: Value) -> JournalRecord {
    JournalRecord::SetRequirement {
        name: name.into(),
        value,
    }
}

fn decision(name: &str, value: Value) -> JournalRecord {
    JournalRecord::Decide {
        name: name.into(),
        value,
    }
}

/// The crypto session's three requirements, journaled.
fn crypto_requirements(session: &mut ExplorationSession<'_>, journal: &mut Journal) {
    for record in [
        requirement("EOL", Value::from(768)),
        requirement("MaxLatencyUs", Value::from(8.0)),
        requirement("ModuloIsOdd", Value::from("Guaranteed")),
    ] {
        assert!(apply_journaled(session, journal, record));
    }
}

#[test]
fn recovery_replays_to_the_exact_original_state() {
    let layer = crypto::build_layer().unwrap();
    for seed in chaos_seeds() {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut session = ExplorationSession::new(&layer.space, layer.omm);
        let mut journal = Journal::new();
        crypto_requirements(&mut session, &mut journal);
        // A seeded mix of decisions, rejections, undos and annotations;
        // rejected operations must never reach the journal.
        let mut accepted = 0;
        let mut rejected = 0;
        for _ in 0..30 {
            let record = match rng.gen_range(1..=6) {
                1 => decision("ImplementationStyle", Value::from("Hardware")),
                2 => decision("ImplementationStyle", Value::from("Software")),
                3 => decision("Algorithm", Value::from("Montgomery")),
                4 => JournalRecord::Undo,
                5 => JournalRecord::Annotate {
                    name: "EOL".into(),
                    note: "chaos note".into(),
                },
                _ => decision("BehavioralDecomposition", Value::from("use-default")),
            };
            if apply_journaled(&mut session, &mut journal, record) {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(
            rejected > 0,
            "seed {seed}: the mix should produce rejections"
        );
        assert_eq!(
            journal.len(),
            3 + accepted,
            "seed {seed}: rejected ops journaled"
        );
        let text = journal.to_jsonl();
        let (recovered, report) = Journal::from_jsonl(&text).unwrap();
        assert!(report.is_clean() && report.is_appendable());
        assert_eq!(recovered, journal);
        assert_eq!(
            recovered.replay(&layer.space, layer.omm).unwrap(),
            session,
            "seed {seed}: recover(replay(s)) must equal s"
        );
        // The compaction checkpoint replays to the same state too.
        let checkpoint = Journal::checkpoint(&session).expect("no stale decisions");
        assert!(checkpoint.len() <= journal.len());
        assert_eq!(checkpoint.replay(&layer.space, layer.omm).unwrap(), session);
    }
}

#[test]
fn torn_journal_tail_drops_only_the_torn_record() {
    let layer = crypto::build_layer().unwrap();
    let mut session = ExplorationSession::new(&layer.space, layer.omm);
    let mut journal = Journal::new();
    crypto_requirements(&mut session, &mut journal);
    assert!(apply_journaled(
        &mut session,
        &mut journal,
        decision("ImplementationStyle", Value::from("Hardware"))
    ));
    let intact = journal.to_jsonl();

    // Crash mid-append: the final record is half-written.
    let torn = format!("{intact}{{\"Decide\":{{\"name\":\"Algo");
    let (recovered, report) = Journal::from_jsonl(&torn).unwrap();
    assert!(!report.is_clean() && !report.is_appendable());
    assert_eq!(report.diagnostics.diagnostics()[0].code, DiagCode::TornJournalTail);
    assert_eq!(recovered.len(), journal.len());
    assert_eq!(recovered.replay(&layer.space, layer.omm).unwrap(), session);

    // A corrupt record *before* the tail is not recoverable silently.
    let mut lines: Vec<&str> = intact.lines().collect();
    lines.insert(1, "garbage mid-journal");
    let garbled = lines.join("\n");
    let err = Journal::from_jsonl(&garbled).unwrap_err();
    assert!(matches!(err, RecoverError::Corrupt { line: 2, .. }), "{err}");
}

#[test]
fn walkthrough_completes_under_fault_injection() {
    silence_injected_panics();
    let tech = Technology::g10_035();
    let spec = KocSpec::paper();
    let baseline = walkthrough::run(&spec, &tech).unwrap();
    let baseline_core = baseline
        .selected
        .as_ref()
        .expect("paper spec selects")
        .name()
        .to_owned();
    for seed in chaos_seeds() {
        let plan = FaultPlan::new(seed, 48, FaultRates::chaos());
        let registry = plan.wrap_registry(full_registry(tech.clone()));
        let report = walkthrough::run_supervised(&spec, &tech, registry)
            .unwrap_or_else(|e| panic!("seed {seed}: walkthrough must survive chaos: {e}"));
        // Faults degrade figures, never the exploration: the same core
        // is selected and verified as in the fault-free run.
        assert_eq!(
            report.selected.as_ref().map(|c| c.name().to_owned()),
            Some(baseline_core.clone()),
            "seed {seed}"
        );
        assert!(report.functionally_verified, "seed {seed}");
        assert!(!report.estimates.is_empty(), "seed {seed}");
    }
}

#[test]
fn analysis_reports_are_bit_identical_across_thread_counts() {
    let layer = crypto::build_layer().unwrap();
    let rendered: Vec<String> = THREAD_SWEEP
        .iter()
        .map(|&n| par::with_thread_limit(n, || analyze(&layer.space).to_string()))
        .collect();
    for (i, r) in rendered.iter().enumerate().skip(1) {
        assert_eq!(
            r, &rendered[0],
            "analyzer output diverged at {} threads",
            THREAD_SWEEP[i]
        );
    }
}

#[test]
fn walkthrough_is_bit_identical_across_thread_counts() {
    let tech = Technology::g10_035();
    let spec = KocSpec::paper();
    let reports: Vec<String> = THREAD_SWEEP
        .iter()
        .map(|&n| {
            par::with_thread_limit(n, || {
                format!("{:?}", walkthrough::run(&spec, &tech).unwrap())
            })
        })
        .collect();
    for (i, r) in reports.iter().enumerate().skip(1) {
        assert_eq!(
            r, &reports[0],
            "walkthrough diverged at {} threads",
            THREAD_SWEEP[i]
        );
    }
}

#[test]
fn session_bindings_are_bit_identical_across_thread_counts() {
    let layer = crypto::build_layer().unwrap();
    let tech = Technology::g10_035();
    let run_at = |n: usize| {
        par::with_thread_limit(n, || {
            let sup = Supervisor::new(full_registry(tech.clone()));
            let mut ses = cc3_ready_session(&layer);
            let figures = ses.run_estimators(&sup);
            (ses, figures)
        })
    };
    let (base_ses, base_figs) = run_at(1);
    for &n in &THREAD_SWEEP[1..] {
        let (ses, figs) = run_at(n);
        assert_eq!(ses, base_ses, "session state diverged at {n} threads");
        assert_eq!(
            format!("{figs:?}"),
            format!("{base_figs:?}"),
            "estimated figures diverged at {n} threads"
        );
    }
}

#[test]
fn chaos_walkthrough_is_thread_count_invariant() {
    silence_injected_panics();
    let tech = Technology::g10_035();
    let spec = KocSpec::paper();
    for seed in chaos_seeds() {
        let run_at = |n: usize| {
            par::with_thread_limit(n, || {
                let plan = FaultPlan::new(seed, 48, FaultRates::chaos());
                let registry = plan.wrap_registry(full_registry(tech.clone()));
                format!(
                    "{:?}",
                    walkthrough::run_supervised(&spec, &tech, registry).unwrap()
                )
            })
        };
        let base = run_at(1);
        for &n in &THREAD_SWEEP[1..] {
            assert_eq!(
                run_at(n),
                base,
                "seed {seed}: chaos walkthrough diverged at {n} threads"
            );
        }
    }
}

#[test]
fn pool_never_leaks_worker_threads() {
    // Mirror of `par::default_threads`: the pool is sized from
    // `DSE_THREADS` (or available parallelism) and the caller is one of
    // the lanes, so at most `cap - 1` workers may ever be alive.
    let cap = std::env::var("DSE_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
    let layer = crypto::build_layer().unwrap();
    // Repeated fan-outs at varying caps must reuse the same workers —
    // the live count settles after the first call and never grows.
    // (`par::scope` additionally runs the no-leak debug assertion after
    // every drained scope in debug builds.)
    let _ = par::with_thread_limit(8, || analyze(&layer.space));
    let settled = par::live_worker_threads();
    assert!(
        settled <= cap.saturating_sub(1),
        "{settled} live workers exceed the configured pool of {cap} lanes"
    );
    for &n in &THREAD_SWEEP {
        let _ = par::with_thread_limit(n, || analyze(&layer.space));
        assert_eq!(
            par::live_worker_threads(),
            settled,
            "worker count changed after a fan-out at {n} threads"
        );
    }
}
