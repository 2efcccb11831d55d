//! Fixture tests for the static analyzer: every `DSL0xx` diagnostic code
//! gets a space that triggers it and a near-miss that stays clean, plus
//! seeded property tests over randomly generated spaces, and the checks
//! that a lookahead solver over a shared network answers exactly as one
//! built from scratch.
//!
//! (`DSL1xx` core-binding lints are exercised in `dse-library`'s
//! `lint` module tests.)

use design_space_layer::dse::analyze::{analyze, DerivationGraph};
use design_space_layer::dse::constraint::Fidelity;
use design_space_layer::dse::prelude::*;
use design_space_layer::foundation::check::{self, Gen};
use design_space_layer::foundation::json::{encode, Json};

fn codes(space: &DesignSpace) -> Vec<DiagCode> {
    analyze(space).diagnostics().iter().map(|d| d.code).collect()
}

fn quant(name: &str, indep: &[&str], target: &str) -> ConsistencyConstraint {
    let formula = indep
        .iter()
        .map(|p| Expr::prop(*p))
        .reduce(Expr::add)
        .unwrap_or(Expr::constant(0));
    ConsistencyConstraint::new(
        name,
        "",
        indep.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>(),
        [target.to_owned()],
        Relation::Quantitative {
            target: target.to_owned(),
            formula,
            fidelity: Fidelity::Exact,
        },
    )
}

fn inconsistent(name: &str, pred: Pred) -> ConsistencyConstraint {
    let refs: Vec<String> = pred.references();
    ConsistencyConstraint::new(name, "", refs, [], Relation::InconsistentOptions(pred))
}

// ---------------------------------------------------------------- DSL001

#[test]
fn dsl001_malformed_constraint_is_flagged() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    s.add_property(root, Property::issue("X", Domain::options(["a", "b"]), ""))
        .unwrap();
    // The relation references "Ghost", which the indep/dep sets omit.
    s.add_constraint_unchecked(
        root,
        ConsistencyConstraint::new(
            "CCbad",
            "",
            ["X".to_owned()],
            [],
            Relation::InconsistentOptions(Pred::all([Pred::is("X", "a"), Pred::is("Ghost", 1)])),
        ),
    );
    assert!(codes(&s).contains(&DiagCode::MalformedConstraint));
}

#[test]
fn dsl001_add_constraint_rejects_it_up_front() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    let err = s
        .add_constraint(
            root,
            ConsistencyConstraint::new(
                "CCbad",
                "",
                ["X".to_owned()],
                [],
                Relation::InconsistentOptions(Pred::is("Ghost", 1)),
            ),
        )
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("CCbad") && msg.contains("Ghost"), "{msg}");
    // Nothing was stored: the space still analyzes without DSL001.
    assert!(!codes(&s).contains(&DiagCode::MalformedConstraint));
}

#[test]
fn dsl001_near_miss_fully_listed_references_are_fine() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    s.add_property(root, Property::issue("X", Domain::options(["a", "b"]), ""))
        .unwrap();
    s.add_property(root, Property::issue("Y", Domain::options([1, 2]), ""))
        .unwrap();
    s.add_constraint(
        root,
        inconsistent("CCok", Pred::all([Pred::is("X", "a"), Pred::is("Y", 1)])),
    )
    .unwrap();
    assert!(!codes(&s).contains(&DiagCode::MalformedConstraint));
}

// ---------------------------------------------------------------- DSL002

#[test]
fn dsl002_unresolved_reference_is_flagged() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    // Well-formed (refs listed), but "Phantom" is declared nowhere.
    s.add_constraint(root, inconsistent("CCphantom", Pred::is("Phantom", "x")))
        .unwrap();
    let r = analyze(&s);
    let hit = r
        .diagnostics()
        .iter()
        .find(|d| d.code == DiagCode::UnresolvedReference)
        .expect("DSL002 expected");
    assert!(hit.is_error());
    assert!(hit.message.contains("Phantom"), "{hit}");
}

#[test]
fn dsl002_near_miss_subtree_and_derived_names_resolve() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    let child = s.add_child(root, "Leaf", "");
    // "Deep" only exists further down the hierarchy; "Derived" only as a
    // quantitative target. Both are legitimate references at the root.
    s.add_property(child, Property::issue("Deep", Domain::options([1, 2]), ""))
        .unwrap();
    s.add_constraint(root, quant("CCderive", &["Deep"], "Derived"))
        .unwrap();
    s.add_constraint(
        root,
        ConsistencyConstraint::new(
            "CCuse",
            "",
            ["Derived".to_owned(), "Deep".to_owned()],
            [],
            Relation::InconsistentOptions(Pred::cmp(
                CmpOp::Gt,
                Expr::prop("Derived"),
                Expr::prop("Deep"),
            )),
        ),
    )
    .unwrap();
    assert!(!codes(&s).contains(&DiagCode::UnresolvedReference));
}

// ---------------------------------------------------------------- DSL003

#[test]
fn dsl003_derivation_cycle_is_flagged() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    s.add_constraint(root, quant("C1", &["A"], "B")).unwrap();
    s.add_constraint(root, quant("C2", &["B"], "A")).unwrap();
    let r = analyze(&s);
    let hit = r
        .diagnostics()
        .iter()
        .find(|d| d.code == DiagCode::DerivationCycle)
        .expect("DSL003 expected");
    assert!(hit.message.contains("→"), "{hit}");
}

#[test]
fn dsl003_near_miss_a_chain_is_fine() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    s.add_constraint(root, quant("C1", &["A"], "B")).unwrap();
    s.add_constraint(root, quant("C2", &["B"], "C")).unwrap();
    s.add_property(root, Property::issue("A", Domain::options([1, 2]), ""))
        .unwrap();
    assert!(!codes(&s).contains(&DiagCode::DerivationCycle));
}

// ---------------------------------------------------------------- DSL004

#[test]
fn dsl004_multiply_derived_target_is_flagged() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    s.add_property(root, Property::issue("A", Domain::options([1, 2]), ""))
        .unwrap();
    s.add_property(root, Property::issue("B", Domain::options([1, 2]), ""))
        .unwrap();
    s.add_constraint(root, quant("C1", &["A"], "T")).unwrap();
    s.add_constraint(root, quant("C2", &["B"], "T")).unwrap();
    let r = analyze(&s);
    let hit = r
        .diagnostics()
        .iter()
        .find(|d| d.code == DiagCode::MultiplyDerived)
        .expect("DSL004 expected");
    assert_eq!(hit.span.property.as_deref(), Some("T"));
}

#[test]
fn dsl004_near_miss_one_deriver_per_target() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    s.add_property(root, Property::issue("A", Domain::options([1, 2]), ""))
        .unwrap();
    s.add_constraint(root, quant("C1", &["A"], "T")).unwrap();
    s.add_constraint(root, quant("C2", &["A"], "U")).unwrap();
    assert!(!codes(&s).contains(&DiagCode::MultiplyDerived));
}

// ---------------------------------------------------------------- DSL005

#[test]
fn dsl005_contradiction_is_flagged() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    s.add_property(root, Property::issue("X", Domain::options(["a", "b"]), ""))
        .unwrap();
    // True for every option of X: the constraint can never be satisfied.
    s.add_constraint(
        root,
        inconsistent("CCall", Pred::any([Pred::is("X", "a"), Pred::is_not("X", "a")])),
    )
    .unwrap();
    let r = analyze(&s);
    assert!(
        r.diagnostics().iter().any(|d| d.code == DiagCode::Contradiction && d.is_error()),
        "{r}"
    );
}

#[test]
fn dsl005_near_miss_partial_elimination_is_fine() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    s.add_property(root, Property::issue("X", Domain::options(["a", "b"]), ""))
        .unwrap();
    s.add_property(root, Property::issue("Y", Domain::options(["p", "q"]), ""))
        .unwrap();
    // Eliminates 1 of 4 combinations; every option still has an escape.
    s.add_constraint(
        root,
        inconsistent("CCsome", Pred::all([Pred::is("X", "a"), Pred::is("Y", "p")])),
    )
    .unwrap();
    assert!(codes(&s).is_empty(), "{}", analyze(&s));
}

// ---------------------------------------------------------------- DSL006

#[test]
fn dsl006_dead_option_is_flagged() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    s.add_property(root, Property::issue("X", Domain::options(["a", "b", "c"]), ""))
        .unwrap();
    // X = a is always inconsistent — a dead option (but not a
    // contradiction: b and c survive).
    s.add_constraint(root, inconsistent("CCa", Pred::is("X", "a")))
        .unwrap();
    let r = analyze(&s);
    let hit = r
        .diagnostics()
        .iter()
        .find(|d| d.code == DiagCode::DeadOption)
        .expect("DSL006 expected");
    assert!(hit.message.contains('a'), "{hit}");
    assert!(!r.has_errors(), "{r}");
}

#[test]
fn dsl006_near_miss_option_with_an_escape_is_fine() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    s.add_property(root, Property::issue("X", Domain::options(["a", "b", "c"]), ""))
        .unwrap();
    s.add_property(root, Property::issue("Y", Domain::options(["p", "q"]), ""))
        .unwrap();
    // X = a dies only under Y = p; Y = q keeps it alive.
    s.add_constraint(
        root,
        inconsistent("CCap", Pred::all([Pred::is("X", "a"), Pred::is("Y", "p")])),
    )
    .unwrap();
    assert!(!codes(&s).contains(&DiagCode::DeadOption));
}

// ---------------------------------------------------------------- DSL007

#[test]
fn dsl007_shadowed_property_is_flagged() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    let child = s.add_child(root, "C", "");
    // Declare at the child first, then at the root: `add_property` only
    // checks ancestors, so this leaves the child shadowing the root.
    s.add_property(child, Property::issue("W", Domain::options([8, 16]), ""))
        .unwrap();
    s.add_property(root, Property::issue("W", Domain::options([8, 16, 32]), ""))
        .unwrap();
    let r = analyze(&s);
    let hit = r
        .diagnostics()
        .iter()
        .find(|d| d.code == DiagCode::ShadowedProperty)
        .expect("DSL007 expected");
    assert!(hit.span.path.ends_with(".C"), "{hit}");
}

#[test]
fn dsl007_near_miss_distinct_names_are_fine() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    let child = s.add_child(root, "C", "");
    s.add_property(root, Property::issue("W", Domain::options([8, 16]), ""))
        .unwrap();
    s.add_property(child, Property::issue("V", Domain::options([8, 16]), ""))
        .unwrap();
    assert!(!codes(&s).contains(&DiagCode::ShadowedProperty));
}

// ---------------------------------------------------------------- DSL008

#[test]
fn dsl008_child_of_eliminated_option_is_flagged() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    s.add_property(
        root,
        Property::generalized_issue("Style", Domain::options(["A", "B"]), ""),
    )
    .unwrap();
    s.specialize(root, "Style").unwrap();
    // Style = B is statically eliminated, so the spawned child R.B can
    // never be descended into.
    s.add_constraint(root, inconsistent("CCkill", Pred::is("Style", "B")))
        .unwrap();
    let r = analyze(&s);
    assert!(
        r.diagnostics()
            .iter()
            .any(|d| d.code == DiagCode::UnreachableChild && d.span.path.ends_with(".B")),
        "{r}"
    );
}

#[test]
fn dsl008_structural_variant_unknown_spawning_issue() {
    // Corrupt a serialized space so a child claims to be spawned by an
    // issue nobody declares — the analyzer must catch what the builder
    // API cannot.
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    s.add_property(
        root,
        Property::generalized_issue("Style", Domain::options(["A", "B"]), ""),
    )
    .unwrap();
    s.specialize(root, "Style").unwrap();

    fn rename_spawning_issue(j: &mut Json) {
        match j {
            Json::Object(fields) => {
                for (k, v) in fields.iter_mut() {
                    if k == "spawned_by" {
                        if let Json::Array(parts) = v {
                            if let Some(first) = parts.first_mut() {
                                *first = Json::Str("Ghost".to_owned());
                            }
                        }
                    } else {
                        rename_spawning_issue(v);
                    }
                }
            }
            Json::Array(items) => items.iter_mut().for_each(rename_spawning_issue),
            _ => {}
        }
    }

    let mut j = Json::parse(&encode(&s)).unwrap();
    rename_spawning_issue(&mut j);
    let tampered: DesignSpace =
        design_space_layer::foundation::json::decode(&j.to_string()).unwrap();
    let r = analyze(&tampered);
    assert!(
        r.diagnostics()
            .iter()
            .any(|d| d.code == DiagCode::UnreachableChild && d.message.contains("Ghost")),
        "{r}"
    );
}

#[test]
fn dsl008_near_miss_reachable_children_are_fine() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    s.add_property(
        root,
        Property::generalized_issue("Style", Domain::options(["A", "B"]), ""),
    )
    .unwrap();
    s.specialize(root, "Style").unwrap();
    assert!(codes(&s).is_empty(), "{}", analyze(&s));
}

// ---------------------------------------------------------------- DSL009

#[test]
fn dsl009_partial_dominance_yields_a_note() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    s.add_property(root, Property::issue("X", Domain::options(["a", "b"]), ""))
        .unwrap();
    s.add_property(root, Property::issue("Y", Domain::options(["p", "q"]), ""))
        .unwrap();
    let refs: Vec<String> = vec!["X".to_owned(), "Y".to_owned()];
    s.add_constraint(
        root,
        ConsistencyConstraint::new(
            "CCdom",
            "",
            refs,
            [],
            Relation::Dominance(Pred::all([Pred::is("X", "a"), Pred::is("Y", "p")])),
        ),
    )
    .unwrap();
    let r = analyze(&s);
    let hit = r
        .diagnostics()
        .iter()
        .find(|d| d.code == DiagCode::DominanceHint)
        .expect("DSL009 expected");
    assert_eq!(hit.severity, Severity::Note);
    assert!(hit.message.contains("1 of 4"), "{hit}");
}

#[test]
fn dsl009_near_miss_never_firing_dominance_is_silent() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    s.add_property(root, Property::issue("X", Domain::options(["a", "b"]), ""))
        .unwrap();
    s.add_constraint(
        root,
        ConsistencyConstraint::new(
            "CCdom",
            "",
            vec!["X".to_owned()],
            [],
            Relation::Dominance(Pred::is("X", "c")),
        ),
    )
    .unwrap();
    // (X = "c" is outside the domain, so the dominance never fires; the
    // literal itself is flagged as DSL011, but no dominance note appears.)
    assert!(!codes(&s).contains(&DiagCode::DominanceHint));
}

// ---------------------------------------------------------------- DSL010

#[test]
fn dsl010_partially_specialized_issue_is_flagged() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    s.add_property(
        root,
        Property::generalized_issue("Style", Domain::options(["A", "B", "C"]), ""),
    )
    .unwrap();
    s.specialize_option(root, "Style", Value::from("A")).unwrap();
    let r = analyze(&s);
    let hits = r
        .diagnostics()
        .iter()
        .filter(|d| d.code == DiagCode::UnspecializedOption)
        .count();
    assert_eq!(hits, 2, "{r}");
}

#[test]
fn dsl010_near_miss_fully_deferred_issue_is_fine() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    s.add_property(
        root,
        Property::generalized_issue("Style", Domain::options(["A", "B", "C"]), ""),
    )
    .unwrap();
    assert!(codes(&s).is_empty(), "{}", analyze(&s));
}

// ---------------------------------------------------------------- DSL011

#[test]
fn dsl011_literal_outside_domain_is_flagged() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    s.add_property(root, Property::issue("X", Domain::options(["a", "b"]), ""))
        .unwrap();
    s.add_constraint(root, inconsistent("CCtypo", Pred::is("X", "z")))
        .unwrap();
    let r = analyze(&s);
    let hit = r
        .diagnostics()
        .iter()
        .find(|d| d.code == DiagCode::LiteralOutsideDomain)
        .expect("DSL011 expected");
    assert!(hit.message.contains('z'), "{hit}");
}

#[test]
fn dsl011_near_miss_in_domain_literal_is_fine() {
    let mut s = DesignSpace::new("t");
    let root = s.add_root("R", "");
    s.add_property(root, Property::issue("X", Domain::options(["a", "b", "c"]), ""))
        .unwrap();
    s.add_constraint(root, inconsistent("CCok", Pred::is("X", "a")))
        .unwrap();
    assert!(!codes(&s).contains(&DiagCode::LiteralOutsideDomain));
}

// ------------------------------------------------- shipped-space gates

#[test]
fn shipped_spaces_are_error_free() {
    use design_space_layer::dse_library::{crypto, fir, idct};
    let spaces = [
        crypto::build_layer().unwrap().space,
        crypto::build_layer_technology_first().unwrap().space,
        idct::build_layer_generalization().unwrap().space,
        idct::build_layer_abstraction().unwrap().space,
        fir::build_layer().unwrap().space,
    ];
    for space in &spaces {
        let r = analyze(space);
        assert!(!r.has_errors(), "{}: {r}", space.name());
    }
}

#[test]
fn crypto_layer_gets_exactly_the_cc5_dominance_note() {
    use design_space_layer::dse_library::crypto;
    let layer = crypto::build_layer().unwrap();
    let r = analyze(&layer.space);
    assert_eq!(r.len(), 1, "{r}");
    let d = &r.diagnostics()[0];
    assert_eq!(d.code, DiagCode::DominanceHint);
    assert_eq!(d.span.constraint.as_deref(), Some("CC5"));
}

// ---------------------------------------------------- property checks

/// A random space: a small hierarchy, random domains, and constraints
/// that may reference undeclared names or carry stray relation refs.
fn random_space(g: &mut Gen) -> (DesignSpace, CdoId) {
    const NAMES: [&str; 6] = ["P0", "P1", "P2", "P3", "P4", "P5"];
    let mut s = DesignSpace::new("rand");
    let root = s.add_root("Root", "");
    let mut nodes = vec![root];
    for i in 0..g.usize_in(0, 4) {
        let parent = *g.choose(&nodes);
        nodes.push(s.add_child(parent, format!("N{i}"), ""));
    }
    for &name in NAMES.iter().take(g.usize_in(0, NAMES.len())) {
        let node = *g.choose(&nodes);
        let domain = match g.usize_in(0, 4) {
            0 => Domain::options(["a", "b", "c"]),
            1 => Domain::int_range(1, g.i64_in(1, 20)),
            2 => Domain::PowersOfTwo { max_exp: 3 },
            _ => Domain::options([1, 2]),
        };
        let prop = match g.usize_in(0, 3) {
            0 => Property::requirement(name, domain, None, ""),
            1 => Property::issue(name, domain, ""),
            _ => Property::description(name, domain, ""),
        };
        // Collisions along the chain are rejected by the API; ignore them.
        let _ = s.add_property(node, prop);
    }
    for i in 0..g.usize_in(0, 5) {
        let node = *g.choose(&nodes);
        let a = (*g.choose(&NAMES)).to_owned();
        let b = (*g.choose(&NAMES)).to_owned();
        let c = match g.usize_in(0, 3) {
            0 => inconsistent(
                &format!("CC{i}"),
                Pred::all([Pred::is(a, "a"), Pred::is(b, 1)]),
            ),
            1 => quant(&format!("CC{i}"), &[a.as_str()], &b),
            // Deliberately malformed: relation refs not listed.
            _ => ConsistencyConstraint::new(
                format!("CC{i}"),
                "",
                [a],
                [],
                Relation::InconsistentOptions(Pred::is(b, "a")),
            ),
        };
        s.add_constraint_unchecked(node, c);
    }
    (s, root)
}

#[test]
fn property_random_spaces_never_panic_and_analysis_is_deterministic() {
    check::run("analyze never panics", |g| {
        let (s, root) = random_space(g);
        let r1 = analyze(&s);
        let r2 = analyze(&s);
        assert_eq!(r1, r2);
        // The evaluation-order query must be total as well.
        let _ = design_space_layer::dse::analyze::evaluation_order(&s, root);
    });
}

#[test]
fn property_injected_cycles_are_always_detected() {
    check::run("injected cycle detected", |g| {
        let (mut s, node) = random_space(g);
        let x = format!("Cyc{}", g.u32_in(0, 1000));
        let y = format!("Cyc{}", g.u32_in(1000, 2000));
        s.add_constraint(node, quant("CycA", &[x.as_str()], &y)).unwrap();
        s.add_constraint(node, quant("CycB", &[y.as_str()], &x)).unwrap();
        let r = analyze(&s);
        assert!(
            r.diagnostics().iter().any(|d| d.code == DiagCode::DerivationCycle),
            "{r}"
        );
    });
}

#[test]
fn property_injected_unbound_references_are_always_detected() {
    check::run("injected unbound ref detected", |g| {
        let (mut s, node) = random_space(g);
        let ghost = format!("Unbound{}", g.u32_in(0, 1_000_000));
        s.add_constraint(node, inconsistent("CCghost", Pred::is(ghost.clone(), "x")))
            .unwrap();
        let r = analyze(&s);
        assert!(
            r.diagnostics()
                .iter()
                .any(|d| d.code == DiagCode::UnresolvedReference && d.message.contains(&ghost)),
            "{r}"
        );
    });
}

#[test]
fn cycle_with_early_sorting_downstream_sink_is_detected() {
    // Cycle X -> Y -> X, plus Y -> A where "A" sorts before "X"/"Y":
    // topo_order's leftover set contains the downstream sink A, and a
    // cycle walk naively started there dead-ends without reporting.
    let cs = [
        quant("C1", &["X"], "Y"),
        quant("C2", &["Y"], "X"),
        quant("C3", &["Y"], "A"),
    ];
    let g = DerivationGraph::from_constraints(cs.iter());
    assert!(g.topo_order().is_err(), "graph really is cyclic");
    let cycle = g
        .find_cycle()
        .expect("find_cycle must not miss the cycle when a downstream sink sorts first");
    // The reported path is a genuine cycle over X and Y only.
    assert_eq!(cycle.first(), cycle.last());
    assert!(!cycle.contains(&"A".to_owned()), "sink A is on no cycle: {cycle:?}");

    let mut s = DesignSpace::new("t");
    let root = s.add_root("Root", "");
    for c in cs {
        s.add_constraint_unchecked(root, c);
    }
    let r = analyze(&s);
    assert!(
        r.diagnostics().iter().any(|d| d.code == DiagCode::DerivationCycle),
        "analyze() reported no DerivationCycle: {r}"
    );
}

// ------------------------------------- propagation-vs-exhaustive oracle

/// A random *enumerable* space for the engine-parity oracle: every
/// domain is small and enumerable (joint ≤ 3⁵ = 243, far below the
/// exhaustive cap), constraints are well-formed pred relations with
/// in-domain literals, so both engines must reach a verdict on every
/// check.
fn random_enumerable_space(g: &mut Gen) -> DesignSpace {
    const NAMES: [&str; 5] = ["A", "B", "C", "D", "E"];
    let mut s = DesignSpace::new("oracle");
    let root = s.add_root("Root", "");
    let child = s.add_child(root, "Sub", "");
    let nodes = [root, child];
    let n_props = g.usize_in(2, NAMES.len());
    let mut declared: Vec<(String, Vec<Value>)> = Vec::new();
    for &name in NAMES.iter().take(n_props) {
        let node = *g.choose(&nodes);
        let (domain, options) = match g.usize_in(0, 3) {
            0 => {
                let opts: Vec<Value> = ["x", "y", "z"][..g.usize_in(2, 3)]
                    .iter()
                    .map(|&o| Value::from(o))
                    .collect();
                (
                    Domain::options(opts.iter().filter_map(Value::as_text)),
                    opts,
                )
            }
            1 => (
                Domain::Flag,
                vec![Value::from(true), Value::from(false)],
            ),
            _ => {
                let lo = g.i64_in(0, 3);
                let hi = lo + g.i64_in(1, 3);
                (
                    Domain::int_range(lo, hi),
                    (lo..=hi).map(Value::from).collect(),
                )
            }
        };
        s.add_property(node, Property::issue(name, domain, ""))
            .unwrap();
        declared.push((name.to_owned(), options));
    }
    let n_cons = g.usize_in(1, 6);
    for i in 0..n_cons {
        let n_terms = g.usize_in(1, 3.min(declared.len()));
        let mut terms = Vec::new();
        for t in 0..n_terms {
            // Distinct props per term keep the predicate satisfiable
            // often enough to exercise both fired and clean verdicts.
            let (name, options) = &declared[(i + t) % declared.len()];
            let lit = g.choose(options).clone();
            terms.push(if g.bool() {
                Pred::is(name.clone(), lit)
            } else {
                Pred::is_not(name.clone(), lit)
            });
        }
        let pred = if terms.len() == 1 {
            terms.pop().unwrap()
        } else if g.bool() {
            Pred::all(terms)
        } else {
            Pred::any(terms)
        };
        let node = *g.choose(&nodes);
        let relation = if g.bool() {
            Relation::InconsistentOptions(pred.clone())
        } else {
            Relation::Dominance(pred.clone())
        };
        s.add_constraint(
            node,
            ConsistencyConstraint::new(format!("CC{i}"), "", pred.references(), [], relation),
        )
        .unwrap();
    }
    s
}

/// Renders a report minus the engine-specific codes: `DSL110`
/// (propagation-only conflict chains) and `DSL111` (whose wording names
/// the engine that gave up). Everything else must match bit for bit.
fn engine_neutral(r: &Report) -> Vec<String> {
    r.diagnostics()
        .iter()
        .filter(|d| {
            d.code != DiagCode::PropagationConflict && d.code != DiagCode::DomainTooLarge
        })
        .map(|d| d.to_string())
        .collect()
}

#[test]
fn property_propagation_matches_the_exhaustive_oracle() {
    use design_space_layer::dse::analyze::{analyze_with_engine, DomainEngine};
    check::run("propagation == exhaustive on small spaces", |g| {
        let s = random_enumerable_space(g);
        let oracle = engine_neutral(&analyze_with_engine(&s, DomainEngine::Exhaustive));
        let prop = engine_neutral(&analyze_with_engine(&s, DomainEngine::Propagation));
        assert_eq!(prop, oracle, "engines disagree on:\n{}", design_space_layer::dse::doc::render_markdown(&s));
    });
}

#[test]
fn property_verdicts_are_identical_across_thread_counts() {
    use design_space_layer::dse::analyze::{analyze_with_engine, DomainEngine};
    use design_space_layer::foundation::par::with_thread_limit;
    check::run_n("analysis is thread-count invariant", 40, |g| {
        let s = random_enumerable_space(g);
        let baseline = with_thread_limit(1, || analyze_with_engine(&s, DomainEngine::Propagation));
        for threads in [2, 8] {
            let r = with_thread_limit(threads, || {
                analyze_with_engine(&s, DomainEngine::Propagation)
            });
            assert_eq!(r, baseline, "DSE_THREADS={threads} changed the report");
        }
    });
}

#[test]
fn oracle_gives_up_past_the_cap_where_propagation_proves() {
    use design_space_layer::dse::analyze::{analyze_with_engine, DomainEngine};
    use design_space_layer::dse_library::synthetic::{build_stress_layer, STRESS_SEED};
    let layer = build_stress_layer(STRESS_SEED).unwrap();
    let oracle = analyze_with_engine(&layer.space, DomainEngine::Exhaustive);
    assert!(
        oracle.diagnostics().iter().any(|d| d.code == DiagCode::DomainTooLarge),
        "{oracle}"
    );
    // The oracle cannot see the dead codec option (its applicable joint
    // includes wide constraints only on flags, but the dominated-count
    // notes are gone)...
    assert!(
        !oracle.diagnostics().iter().any(
            |d| d.code == DiagCode::DominanceHint && d.message.contains("4194304")
        ),
        "{oracle}"
    );
    // ...while propagation proves every verdict with no escape hatch.
    let prop = analyze_with_engine(&layer.space, DomainEngine::Propagation);
    assert!(!prop.diagnostics().iter().any(|d| d.code == DiagCode::DomainTooLarge), "{prop}");
    assert!(
        prop.diagnostics().iter().any(
            |d| d.code == DiagCode::DominanceHint && d.message.contains("1 of 4194304")
        ),
        "{prop}"
    );
}

// ------------------------------------------- shared-network lookahead

/// The shipped layers plus the synthetic stress layer, each with the CDO
/// sessions start at.
fn lookahead_layers() -> Vec<(DesignSpace, CdoId)> {
    use design_space_layer::dse_library::load_all_layers;
    use design_space_layer::dse_library::synthetic::{build_stress_layer, STRESS_SEED};
    use design_space_layer::techlib::Technology;
    let mut layers: Vec<(DesignSpace, CdoId)> = load_all_layers(&Technology::g10_035())
        .unwrap()
        .into_iter()
        .map(|l| (l.space, l.root))
        .collect();
    let stress = build_stress_layer(STRESS_SEED).unwrap();
    layers.push((stress.space, stress.root));
    layers
}

/// Every name a lookahead at `focus` can be asked about: the properties
/// of every CDO, the names the region's constraints mention, and one
/// name nobody declares.
fn lookahead_names(space: &DesignSpace, focus: CdoId) -> Vec<String> {
    let mut names = std::collections::BTreeSet::new();
    for (_, node) in space.iter() {
        names.extend(node.own_properties().iter().map(|p| p.name().to_owned()));
    }
    for (_, c) in space.effective_constraints(focus) {
        names.extend(c.indep().iter().chain(c.dep()).cloned());
    }
    names.insert("NoSuchProperty".to_owned());
    names.into_iter().collect()
}

/// One lookahead's answers as text: `viable` for every name, the
/// initial conflict and the work counters.
fn lookahead_answers(solver: &Solver, names: &[String]) -> String {
    let viable: Vec<Viability> = names.iter().map(|n| solver.viable(n)).collect();
    let conflict = solver.initial_conflict().map(ToString::to_string);
    format!("{viable:?} {conflict:?} {:?}", solver.stats())
}

/// A random value for `p`: from its domain nine times in ten, otherwise
/// a value no domain admits.
fn random_value(g: &mut Gen, p: &Property) -> Option<Value> {
    if g.usize_in(0, 9) == 0 {
        return Some(Value::from("outside-every-domain"));
    }
    match p.domain() {
        Domain::IntRange { min, max } => {
            Some(Value::Int(g.i64_in(*min, (*max).min(min.saturating_add(64)))))
        }
        Domain::RealRange { min, max } if min.is_finite() && max.is_finite() => {
            Some(Value::Real(g.f64_in(*min, *max)))
        }
        Domain::RealRange { .. } => Some(Value::Real(g.f64_in(0.0, 1000.0))),
        d => d
            .enumerate()
            .filter(|options| !options.is_empty())
            .map(|options| g.choose(&options).clone()),
    }
}

/// A seeded decide/retract trail from `root`: each step enters a random
/// open requirement or decides a random open issue (generalized issues
/// move the focus down; rejected decisions change nothing), or undoes
/// the last decision (moving the focus back up). After every step
/// `probe` gets the focus with the session's bindings, then with those
/// plus one random extra binding.
fn lookahead_trail(
    g: &mut Gen,
    space: &DesignSpace,
    root: CdoId,
    steps: usize,
    mut probe: impl FnMut(CdoId, &Bindings),
) {
    let mut session = ExplorationSession::new(space, root);
    for _ in 0..steps {
        if !session.log().is_empty() && g.usize_in(0, 3) == 0 {
            session.undo().unwrap();
        } else {
            let open: Vec<(&Property, bool)> = session
                .open_issues()
                .into_iter()
                .map(|p| (p, false))
                .chain(session.open_requirements().into_iter().map(|p| (p, true)))
                .collect();
            // Half the time, prefer a generalized issue: focus moves
            // are what a rebuild has to get right.
            let generalized: Vec<(&Property, bool)> = open
                .iter()
                .copied()
                .filter(|(p, _)| p.kind() == PropertyKind::GeneralizedIssue)
                .collect();
            let open = if !generalized.is_empty() && g.bool() { generalized } else { open };
            if !open.is_empty() {
                let (p, requirement) = *g.choose(&open);
                if let Some(v) = random_value(g, p) {
                    let _ = if requirement {
                        session.set_requirement(p.name(), v)
                    } else {
                        session.decide(p.name(), v)
                    };
                }
            }
        }
        probe(session.focus(), session.bindings());
        let mut extra = session.bindings().clone();
        let visible = space.effective_properties(session.focus());
        if !visible.is_empty() {
            let (_, p) = *g.choose(&visible);
            if let Some(v) = random_value(g, p) {
                extra.insert(p.name(), v);
            }
        }
        probe(session.focus(), &extra);
    }
}

/// The layers plus `n` random enumerable spaces from `g`, whose
/// constraints often conflict under propagation.
fn lookahead_spaces(g: &mut Gen, n: usize) -> Vec<(DesignSpace, CdoId)> {
    let mut spaces = lookahead_layers();
    for _ in 0..n {
        let space = random_enumerable_space(g);
        let root = space.roots()[0];
        spaces.push((space, root));
    }
    spaces
}

/// FNV-1a over the from-scratch lookahead answers of eight fixed-seed
/// trails on every layer and on sixteen fixed random spaces.
fn lookahead_digest() -> u64 {
    let layers = lookahead_spaces(&mut Gen::new(0xD16E57), 16);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for seed in 0..8u64 {
        let mut g = Gen::new(seed);
        for (space, root) in &layers {
            lookahead_trail(&mut g, space, *root, 16, |focus, bindings| {
                let names = lookahead_names(space, focus);
                let answers =
                    lookahead_answers(&Solver::with_bindings(space, focus, bindings), &names);
                for b in answers.bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            });
        }
    }
    h
}

#[test]
fn property_lookahead_over_a_shared_network_matches_a_fresh_build() {
    use design_space_layer::foundation::par::with_thread_limit;
    use std::collections::HashMap;
    use std::sync::Arc;
    check::run_n("lookahead over a shared network == fresh build", 16, |g| {
        let layers = lookahead_spaces(g, 4);
        let seed = g.u64();
        let transcripts: Vec<String> = [1, 8]
            .into_iter()
            .map(|threads| {
                with_thread_limit(threads, || {
                    let mut g = Gen::new(seed);
                    let mut transcript = String::new();
                    for (space, root) in &layers {
                        // One network per focus, reused for the whole
                        // trail, as a served snapshot does.
                        let mut nets: HashMap<CdoId, Arc<Net>> = HashMap::new();
                        lookahead_trail(&mut g, space, *root, 16, |focus, bindings| {
                            let names = lookahead_names(space, focus);
                            let net = nets
                                .entry(focus)
                                .or_insert_with(|| Arc::new(Net::new(space, focus)));
                            let shared =
                                lookahead_answers(&Solver::on_net(Arc::clone(net), bindings), &names);
                            let fresh = lookahead_answers(
                                &Solver::with_bindings(space, focus, bindings),
                                &names,
                            );
                            assert_eq!(
                                shared,
                                fresh,
                                "{} at {} with {bindings:?}",
                                space.name(),
                                space.path_string(focus)
                            );
                            transcript.push_str(&fresh);
                            transcript.push('\n');
                        });
                    }
                    transcript
                })
            })
            .collect();
        assert_eq!(transcripts[0], transcripts[1], "DSE_THREADS=8 changed a lookahead");
    });
}

/// The digest was recorded when the initial fixpoint still fanned its
/// components out on the worker pool (it read the same at 1, 2 and 8
/// threads). The in-place fixpoint must reproduce those domains, work
/// counters and conflict texts exactly.
#[test]
fn lookahead_answers_match_the_recorded_digest() {
    use design_space_layer::foundation::par::with_thread_limit;
    for threads in [1, 8] {
        assert_eq!(with_thread_limit(threads, lookahead_digest), 0x8a61_e3d6_5628_c72c);
    }
}
