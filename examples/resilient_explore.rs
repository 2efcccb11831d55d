//! The Section-5 walkthrough under hostile conditions: every estimation
//! tool is wrapped in a seeded fault injector (panics, transient
//! failures, fuel exhaustion, NaN and garbage outputs), yet the
//! exploration completes, every figure carries its provenance, and a
//! journaled session survives a simulated crash mid-append.
//!
//! ```text
//! cargo run --example resilient_explore
//! ```

use design_space_layer::coproc::spec::KocSpec;
use design_space_layer::coproc::walkthrough;
use design_space_layer::dse::prelude::*;
use design_space_layer::dse::robust::fault::silence_injected_panics;
use design_space_layer::dse::estimate::EstimatorRegistry;
use design_space_layer::dse_library::estimators::{
    full_registry, BehaviorDelayEstimator, CoarseDelayEstimator,
};
use design_space_layer::dse_library::CoreRecord;
use design_space_layer::dse_server::{Engine, EngineBuilder};
use design_space_layer::foundation::json::Json;
use design_space_layer::techlib::Technology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    silence_injected_panics();
    let spec = KocSpec::paper();
    let tech = Technology::g10_035();

    // 1. The walkthrough with healthy tools: figures come back
    //    provenance-tagged as Estimated.
    let clean = walkthrough::run(&spec, &tech)?;
    println!("fault-free walkthrough:");
    for (name, fig) in &clean.estimates {
        println!("  {name:<16} = {fig}");
    }
    println!("  degradation: {}\n", clean.degradation.label());

    // 2. The same walkthrough with tools behind seeded fault injectors.
    //    The supervisor contains each failure and walks the fallback
    //    ladder: detailed tool -> coarse tool -> the derived property's
    //    declared range. The exploration itself — pruning, selection,
    //    functional verification — is untouched either way.
    let always = FaultPlan::new(0xC0FFEE, 16, FaultRates::uniform(0.2));

    // 2a. Only the detailed tool crashes: the coarse tool answers.
    let mut partial = EstimatorRegistry::new();
    partial.register(Box::new(
        always.wrap(Box::new(BehaviorDelayEstimator::new(tech.clone()))),
    ));
    partial.register(Box::new(CoarseDelayEstimator::new(tech.clone())));
    let report = walkthrough::run_supervised(&spec, &tech, partial)?;
    println!("detailed tool faulting on every call (seed {:#x}):", always.seed());
    for (name, fig) in &report.estimates {
        println!("  {name:<16} = {fig}");
    }
    println!("  degradation: {}", report.degradation.label());

    // 2b. Every tool faulting on every call: the declared range of the
    //     derived property is the last-resort answer.
    let registry = always.wrap_registry(full_registry(tech.clone()));
    let chaotic = walkthrough::run_supervised(&spec, &tech, registry)?;
    println!("all tools faulting on every call:");
    for (name, fig) in &chaotic.estimates {
        println!("  {name:<16} = {fig}");
    }
    println!("  degradation: {}", chaotic.degradation.label());
    assert_eq!(
        clean.selected.as_ref().map(CoreRecord::name),
        chaotic.selected.as_ref().map(CoreRecord::name),
        "faults may degrade figures but never the selection"
    );
    println!(
        "  selected {} (same core as the fault-free run), verified: {}\n",
        chaotic.selected.as_ref().expect("satisfiable spec").name(),
        chaotic.functionally_verified
    );

    // 3. Crash-safe sessions: a journaled daemon engine writes every
    //    decision to disk before acknowledging it. Kill it and tear the
    //    final record (a crash mid-append): the rebooted engine loses
    //    exactly that record, replays the rest to the identical state,
    //    keeps exploring, and survives the next kill with nothing it
    //    acknowledged lost.
    let dir = std::env::temp_dir().join(format!("dse-resilient-explore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let boot = || {
        EngineBuilder::new(tech.clone())
            .with_shipped_layers()
            .journal_dir(&dir)
            .build()
    };
    let report = r#"{"op":"report","session":"koc"}"#;
    let engine = boot()?;
    for line in [
        r#"{"op":"open","session":"koc","snapshot":"crypto"}"#.to_owned(),
        decide("EOL", &spec.eol.to_string()),
        decide("MaxLatencyUs", &format!("{:?}", spec.max_latency_us)),
        decide("ModuloIsOdd", r#""Guaranteed""#),
        decide("ImplementationStyle", r#""Hardware""#),
        decide("Algorithm", r#""Montgomery""#),
    ] {
        ask(&engine, &line)?;
    }
    let before = ask(&engine, report)?;
    drop(engine); // kill: no close, the journal stays
    let journal = dir.join("koc.jsonl");
    let records = std::fs::read_to_string(&journal)?.lines().count();
    println!("journaled session: {records} records on disk, engine killed");

    let mut torn = std::fs::read_to_string(&journal)?;
    torn.push_str(r#"{"Decide":{"name":"AdderSt"#);
    std::fs::write(&journal, torn)?;
    let engine = boot()?;
    let attach = ask(&engine, r#"{"op":"open","session":"koc","resume":true}"#)?;
    println!("simulated crash mid-append; recovery:");
    for d in attach
        .get("diagnostics")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        println!("  {}", d.as_str().unwrap_or_default());
    }
    assert_eq!(ask(&engine, report)?, before);
    println!("  recovered to the exact pre-crash state ({records} records intact)");

    // ... the recovered session keeps exploring where it left off, and
    // what it acknowledges survives the next kill.
    ask(&engine, &decide("AdderStructure", r#""carry-save""#))?;
    let after = ask(&engine, report)?;
    drop(engine);
    let engine = boot()?;
    assert_eq!(ask(&engine, report)?, after);
    let bindings = after
        .get("bindings")
        .and_then(Json::as_object)
        .map_or(0, <[_]>::len);
    println!("  resumed exploration: AdderStructure decided, {bindings} bindings total");
    println!("  a second kill loses nothing: the rebooted session reports the same state");
    ask(&engine, r#"{"op":"close","session":"koc"}"#)?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// A `decide` request for the example's session; `value` is JSON.
fn decide(name: &str, value: &str) -> String {
    format!(r#"{{"op":"decide","session":"koc","name":"{name}","value":{value}}}"#)
}

/// Sends one request line and returns the reply, or the reply's error.
fn ask(engine: &Engine, line: &str) -> Result<Json, Box<dyn std::error::Error>> {
    let reply = Json::parse(&engine.handle_line(line))?;
    match reply.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(reply),
        _ => Err(format!("{line} failed: {reply}").into()),
    }
}
