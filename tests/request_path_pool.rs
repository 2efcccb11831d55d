//! The request path never wakes the worker pool.
//!
//! A Fig. 13-shaped crypto conversation — `viable` at the root and at
//! every focus the walk reaches, decides that move the focus down, a
//! retract back across a focus move, then `eval`, `surviving_cores`,
//! `report` and `close` — is answered through
//! `Engine::handle_line_into`, and the lazily spawned global pool must
//! still have no live worker afterwards. On the small snapshots the
//! daemon serves, every request is a few microseconds of work: waking a
//! pool worker for it costs more than it saves.
//!
//! This file is a test binary of its own, so nothing else in the process
//! can have started the pool first. With `DSE_THREADS=1` the pool never
//! has workers, so there the check holds trivially.

use design_space_layer::dse_server::EngineBuilder;
use design_space_layer::foundation::json::Json;
use design_space_layer::foundation::par;
use design_space_layer::techlib::Technology;

#[test]
fn a_crypto_conversation_leaves_the_pool_unstarted() {
    let engine = EngineBuilder::new(Technology::g10_035())
        .with_shipped_layers()
        .build()
        .expect("engine builds");
    let mut out = Vec::new();
    let mut ask = |line: String| -> Json {
        out.clear();
        engine.handle_line_into(&line, &mut out);
        let text = std::str::from_utf8(&out).expect("UTF-8 reply");
        let json = Json::parse(text).expect("reply is JSON");
        assert_eq!(
            json.get("ok").and_then(Json::as_bool),
            Some(true),
            "{line} -> {text}"
        );
        json
    };
    let viable = |name: &str| format!(r#"{{"op":"viable","session":"p","name":"{name}"}}"#);
    let decide = |name: &str, value: &str| {
        format!(r#"{{"op":"decide","session":"p","name":"{name}","value":{value}}}"#)
    };
    let focus_of = |reply: &Json| {
        reply
            .get("focus")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned()
    };

    ask(r#"{"op":"open","session":"p","snapshot":"crypto"}"#.to_owned());
    ask(viable("ImplementationStyle"));
    ask(decide("EOL", "768"));
    ask(decide("MaxLatencyUs", "8.0"));
    ask(decide("ModuloIsOdd", r#""Guaranteed""#));
    ask(viable("ImplementationStyle"));
    let mut foci = vec![focus_of(&ask(decide(
        "ImplementationStyle",
        r#""Hardware""#,
    )))];
    ask(viable("Algorithm"));
    ask(viable("LayoutStyle"));
    foci.push(focus_of(&ask(decide("Algorithm", r#""Montgomery""#))));
    ask(viable("AdderStructure"));
    ask(decide("AdderStructure", r#""carry-save""#));
    ask(decide("BehavioralDecomposition", r#""use-default""#));
    ask(viable("Radix"));
    ask(decide("Radix", "4"));
    ask(viable("MultiplierStructure"));
    ask(decide("MultiplierStructure", r#""mux-table""#));
    ask(viable("SliceWidth"));
    // Undo back past the Algorithm decision: the focus moves back up.
    let back = ask(r#"{"op":"retract","session":"p","name":"Algorithm"}"#.to_owned());
    foci.push(focus_of(&back));
    ask(viable("Algorithm"));
    ask(r#"{"op":"eval","session":"p"}"#.to_owned());
    ask(r#"{"op":"surviving_cores","session":"p","limit":8}"#.to_owned());
    ask(r#"{"op":"report","session":"p"}"#.to_owned());
    ask(r#"{"op":"close","session":"p"}"#.to_owned());

    assert!(
        foci[0] != foci[1] && foci[1] != foci[2],
        "the walk must move the focus down and back up: {foci:?}"
    );
    assert_eq!(
        par::live_worker_threads(),
        0,
        "a request woke the worker pool"
    );
}
