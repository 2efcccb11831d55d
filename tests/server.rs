//! The exploration daemon under load and under fire: parallel sessions
//! against a single-threaded oracle, a thousand concurrently open
//! journaled sessions, kill-and-recover with torn and corrupt journals,
//! a seeded malformed-request fuzz, a real TCP conversation with
//! graceful drain, and the connection's serving loop driven in memory.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use design_space_layer::dse_server::daemon::{serve_connection, WRITE_AT};
use design_space_layer::dse_server::{Engine, EngineBuilder, GuardConfig, Server};
use design_space_layer::foundation::json::Json;
use design_space_layer::foundation::net;
use design_space_layer::foundation::rng::{Rng, SeedableRng, StdRng};
use design_space_layer::techlib::Technology;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dse-server-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine(journal: Option<&PathBuf>) -> Engine {
    let mut b = EngineBuilder::new(Technology::g10_035()).with_shipped_layers();
    if let Some(dir) = journal {
        b = b.journal_dir(dir);
    }
    b.build().expect("engine builds")
}

fn ok(response: &str) -> Json {
    let json = Json::parse(response).expect("response is JSON");
    assert_eq!(
        json.get("ok").and_then(Json::as_bool),
        Some(true),
        "expected ok response, got: {response}"
    );
    json
}

/// The per-session conversation, deterministic in the session index:
/// every session explores the same shared crypto snapshot but takes a
/// different route through it.
fn script(id: &str, i: usize) -> Vec<String> {
    let eol = [32, 64, 256, 768][i % 4];
    let latency = [4.0, 8.0, 16.0][i % 3];
    let mut lines = vec![
        format!(r#"{{"op":"open","session":"{id}","snapshot":"crypto"}}"#),
        format!(r#"{{"op":"decide","session":"{id}","name":"EOL","value":{eol}}}"#),
        format!(r#"{{"op":"decide","session":"{id}","name":"MaxLatencyUs","value":{latency}}}"#),
        format!(r#"{{"op":"decide","session":"{id}","name":"ModuloIsOdd","value":"Guaranteed"}}"#),
        format!(r#"{{"op":"decide","session":"{id}","name":"ImplementationStyle","value":"Hardware"}}"#),
    ];
    lines.push(format!(
        r#"{{"op":"decide","session":"{id}","name":"Algorithm","value":"Montgomery"}}"#
    ));
    if i.is_multiple_of(3) {
        // Decide, retract (journals the undo), decide again.
        lines.push(format!(r#"{{"op":"retract","session":"{id}"}}"#));
        lines.push(format!(
            r#"{{"op":"decide","session":"{id}","name":"Algorithm","value":"Montgomery"}}"#
        ));
    }
    if i.is_multiple_of(2) {
        lines.push(format!(r#"{{"op":"eval","session":"{id}"}}"#));
    }
    lines.push(format!(
        r#"{{"op":"surviving_cores","session":"{id}","limit":4}}"#
    ));
    lines
}

fn report_of(engine: &Engine, id: &str) -> String {
    let response = engine.handle_line(&format!(r#"{{"op":"report","session":"{id}"}}"#));
    ok(&response);
    response
}

#[test]
fn parallel_sessions_are_bit_identical_to_sequential_oracle() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 8;
    let dir = temp_dir("oracle");
    let shared = engine(Some(&dir));

    // Drive all sessions from N threads, interleaving ops round-robin so
    // the engine sees concurrent cross-session traffic mid-session.
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let shared = &shared;
            scope.spawn(move || {
                let ids: Vec<(String, usize)> = (0..PER_THREAD)
                    .map(|k| (format!("p{t}-{k}"), t * PER_THREAD + k))
                    .collect();
                let scripts: Vec<Vec<String>> =
                    ids.iter().map(|(id, i)| script(id, *i)).collect();
                let rounds = scripts.iter().map(Vec::len).max().unwrap_or(0);
                for round in 0..rounds {
                    for script in &scripts {
                        if let Some(line) = script.get(round) {
                            ok(&shared.handle_line(line));
                        }
                    }
                }
            });
        }
    });

    // The oracle: a fresh engine, no journal, every script run
    // sequentially. Reports must match byte for byte.
    let oracle = engine(None);
    for t in 0..THREADS {
        for k in 0..PER_THREAD {
            let (id, i) = (format!("p{t}-{k}"), t * PER_THREAD + k);
            for line in script(&id, i) {
                ok(&oracle.handle_line(&line));
            }
            assert_eq!(
                report_of(&shared, &id),
                report_of(&oracle, &id),
                "session {id} diverged from the sequential oracle"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn thousand_journaled_sessions_survive_a_kill() {
    const SESSIONS: usize = 1000;
    let dir = temp_dir("thousand");
    let first = engine(Some(&dir));

    // Open them all with interleaved traffic, answered the way the
    // daemon answers a pipelined burst: line by line, in order, into
    // one reused reply buffer.
    let mut lines = Vec::new();
    for i in 0..SESSIONS {
        lines.extend(script(&format!("k{i:04}"), i));
    }
    let mut out = Vec::new();
    for line in &lines {
        out.clear();
        first.handle_line_into(line, &mut out);
        ok(std::str::from_utf8(&out).expect("responses are UTF-8"));
    }
    assert_eq!(first.open_sessions(), SESSIONS);

    // Remember a sample of reports, then kill the daemon (drop without
    // closing a single session).
    let sample: Vec<(String, String)> = (0..SESSIONS)
        .step_by(97)
        .map(|i| {
            let id = format!("k{i:04}");
            let report = report_of(&first, &id);
            (id, report)
        })
        .collect();
    drop(first);

    // Next boot recovers every session from its journal.
    let second = engine(Some(&dir));
    assert_eq!(second.open_sessions(), SESSIONS);
    let stats = ok(&second.handle_line(r#"{"op":"stats"}"#));
    assert_eq!(
        stats.get("sessions_recovered").and_then(Json::as_i64),
        Some(SESSIONS as i64)
    );
    assert_eq!(
        stats
            .get("boot_warnings")
            .and_then(|w| w.as_array())
            .map(<[Json]>::len),
        Some(0)
    );
    for (id, before) in &sample {
        assert_eq!(&report_of(&second, id), before, "session {id} changed across the kill");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `boot_warnings` of a running engine.
fn boot_warnings(engine: &Engine) -> Vec<Json> {
    let stats = ok(&engine.handle_line(r#"{"op":"stats"}"#));
    stats
        .get("boot_warnings")
        .and_then(|w| w.as_array())
        .unwrap()
        .to_vec()
}

#[test]
fn kill_recovery_tolerates_torn_tails_and_rejects_corruption() {
    let dir = temp_dir("torn");
    let first = engine(Some(&dir));
    for id in ["good", "torn", "unterminated", "corrupt"] {
        for line in script(id, 1) {
            ok(&first.handle_line(&line));
        }
    }
    let pristine_good = report_of(&first, "good");
    let pristine_torn = report_of(&first, "torn");
    let pristine_unterminated = report_of(&first, "unterminated");
    drop(first); // kill: no close, journals stay

    // A crash mid-append tears the final record of one journal...
    let torn_path = dir.join("torn.jsonl");
    let mut text = std::fs::read_to_string(&torn_path).unwrap();
    text.push_str(r#"{"Decide":{"name":"AdderSt"#); // no newline, half a record
    std::fs::write(&torn_path, &text).unwrap();
    // ...another loses only the newline after its last, complete record...
    let unterminated_path = dir.join("unterminated.jsonl");
    let text = std::fs::read_to_string(&unterminated_path).unwrap();
    std::fs::write(&unterminated_path, text.strip_suffix('\n').unwrap()).unwrap();
    // ...and bit-rot corrupts the *body* of another.
    let corrupt_path = dir.join("corrupt.jsonl");
    let body = std::fs::read_to_string(&corrupt_path).unwrap();
    let corrupted: Vec<&str> = body.lines().collect();
    let mut rewritten: Vec<String> = corrupted.iter().map(|l| (*l).to_owned()).collect();
    rewritten[1] = "{\"Decide\":garbage}".to_owned();
    std::fs::write(&corrupt_path, rewritten.join("\n") + "\n").unwrap();

    let second = engine(Some(&dir));
    // good, torn and unterminated come back; corrupt is refused with a
    // boot warning.
    assert_eq!(second.open_sessions(), 3);
    assert_eq!(report_of(&second, "good"), pristine_good);
    assert_eq!(report_of(&second, "torn"), pristine_torn);
    assert_eq!(report_of(&second, "unterminated"), pristine_unterminated);
    let warnings = boot_warnings(&second);
    assert_eq!(warnings.len(), 1);
    assert!(warnings[0].as_str().unwrap().contains("corrupt"));

    // Attaching to the torn session surfaces the DSL201 diagnostic once,
    // and the session keeps exploring.
    let attach = ok(&second.handle_line(r#"{"op":"open","session":"torn","resume":true}"#));
    assert_eq!(attach.get("recovered").and_then(Json::as_bool), Some(true));
    let notes = attach.get("diagnostics").and_then(|d| d.as_array()).unwrap();
    assert!(
        notes.iter().any(|n| n.as_str().unwrap().contains("DSL201")),
        "torn tail should surface DSL201, got {notes:?}"
    );
    let carry_save = |id: &str| {
        format!(
            r#"{{"op":"decide","session":"{id}","name":"AdderStructure","value":"carry-save"}}"#
        )
    };
    for id in ["torn", "unterminated"] {
        ok(&second.handle_line(&carry_save(id)));
    }

    // The corrupt session errors with a stable journal-fault code.
    let refused = Json::parse(
        &second.handle_line(r#"{"op":"open","session":"corrupt","resume":true}"#),
    )
    .unwrap();
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(refused.get("code").and_then(Json::as_str), Some("DSL307"));
    ok(&second.handle_line(r#"{"op":"close","session":"corrupt"}"#));

    // The decides acknowledged after recovery survive the next kill:
    // recovery rewrote both damaged journals before their first append,
    // so nothing lands on a torn line. Twice, so a record appended after
    // the rewrite is never left mid-file either.
    let mut live = second;
    for round in 0..2 {
        let reports: Vec<String> = ["good", "torn", "unterminated"]
            .iter()
            .map(|id| report_of(&live, id))
            .collect();
        drop(live); // kill
        live = engine(Some(&dir));
        assert_eq!(boot_warnings(&live), Vec::<Json>::new(), "round {round}");
        for (id, report) in ["good", "torn", "unterminated"].iter().zip(&reports) {
            assert_eq!(&report_of(&live, id), report, "round {round}: {id}");
        }
        for id in ["torn", "unterminated"] {
            ok(&live.handle_line(&format!(r#"{{"op":"retract","session":"{id}"}}"#)));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_malformed_request_fuzz_never_panics_the_daemon() {
    let shared = engine(None);
    ok(&shared.handle_line(r#"{"op":"open","session":"fuzz","snapshot":"crypto"}"#));

    let mut rng = StdRng::seed_from_u64(0xD5E_5E17);
    let fragments = [
        "{", "}", "[", "]", ":", ",", "\"op\"", "\"open\"", "\"decide\"", "\"session\"",
        "\"fuzz\"", "\"snapshot\"", "\"crypto\"", "\"name\"", "\"EOL\"", "\"value\"", "768",
        "8.0", "true", "null", "\\", "\u{1}", "é", "\"id\"",
    ];
    for round in 0..2000 {
        let line = match round % 4 {
            // Pure grammar soup.
            0 => {
                let n = (rng.next_u64() % 12) as usize + 1;
                (0..n)
                    .map(|_| fragments[(rng.next_u64() as usize) % fragments.len()])
                    .collect::<String>()
            }
            // Valid JSON, hostile shapes.
            1 => {
                let shapes = [
                    r#"{"op":null}"#,
                    r#"{"op":42}"#,
                    r#"{"op":"decide"}"#,
                    r#"{"op":"decide","session":"fuzz","name":"EOL","value":[1,2]}"#,
                    r#"{"op":"decide","session":"fuzz","name":"EOL","value":{"Nope":1}}"#,
                    r#"{"op":"open","session":"../../etc/passwd","snapshot":"crypto"}"#,
                    r#"{"op":"open","session":".hidden","snapshot":"crypto"}"#,
                    r#"{"op":"surviving_cores","session":"fuzz","limit":-3}"#,
                    r#"{"op":"retract","session":"fuzz","name":"NeverDecided"}"#,
                    r#"{"op":"eval","session":"ghost"}"#,
                    r#"{"op":"open","session":"fuzz","snapshot":"crypto"}"#,
                    r#"{"op":"close","session":"ghost"}"#,
                ];
                shapes[(rng.next_u64() as usize) % shapes.len()].to_owned()
            }
            // Truncated valid requests.
            2 => {
                let full = r#"{"op":"decide","session":"fuzz","name":"EOL","value":768}"#;
                let cut = (rng.next_u64() as usize) % full.len();
                full[..cut].to_owned()
            }
            // Byte soup (kept UTF-8 by construction).
            _ => {
                let n = (rng.next_u64() % 40) as usize;
                (0..n)
                    .map(|_| char::from((rng.next_u64() % 94 + 32) as u8))
                    .collect()
            }
        };
        let response = shared.handle_line(&line);
        let json = Json::parse(&response)
            .unwrap_or_else(|e| panic!("non-JSON response {response:?} to {line:?}: {e}"));
        assert!(
            json.get("ok").and_then(Json::as_bool).is_some(),
            "response missing ok field: {response}"
        );
    }
    // The daemon is still alive and the fuzz session still works.
    ok(&shared.handle_line(r#"{"op":"decide","session":"fuzz","name":"EOL","value":768}"#));
    ok(&shared.handle_line(r#"{"op":"report","session":"fuzz"}"#));

    // Draining refuses new sessions with the stable DSL308 code but
    // still answers everything else.
    shared.begin_drain();
    let refused = Json::parse(
        &shared.handle_line(r#"{"op":"open","session":"late","snapshot":"crypto"}"#),
    )
    .unwrap();
    assert_eq!(refused.get("code").and_then(Json::as_str), Some("DSL308"));
    ok(&shared.handle_line(r#"{"op":"report","session":"fuzz"}"#));
}

#[test]
fn tcp_conversation_pipelines_and_drains_gracefully() {
    let server = Server::start(Arc::new(engine(None)), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let serve_thread = std::thread::spawn(move || server.run());

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    // Pipeline the whole conversation in one write: responses must come
    // back in request order, matched by id.
    let lines: Vec<String> = (1..=6)
        .map(|id| match id {
            1 => r#"{"op":"open","session":"t","snapshot":"crypto","id":1}"#.to_owned(),
            2 => r#"{"op":"decide","session":"t","name":"EOL","value":768,"id":2}"#.to_owned(),
            3 => r#"{"op":"open","snapshot":"fir","id":3}"#.to_owned(),
            4 => r#"{"op":"report","session":"t","id":4}"#.to_owned(),
            5 => r#"{"op":"close","session":"t","id":5}"#.to_owned(),
            6 => r#"{"op":"shutdown","id":6}"#.to_owned(),
            _ => unreachable!(),
        })
        .collect();
    net::write_line(&mut writer, &lines.join("\n")).unwrap();
    for expect_id in 1..=6i64 {
        let response = net::read_line_bounded(&mut reader, net::MAX_WIRE_BYTES)
            .expect("read")
            .expect("response before EOF");
        let json = ok(&response);
        assert_eq!(json.get("id").and_then(Json::as_i64), Some(expect_id));
    }
    // Drain: the daemon stops accepting and run() returns cleanly.
    serve_thread.join().unwrap().expect("clean drain");
}

/// The `viable` op: a propagation-solver lookahead over a session's
/// remaining freedom. The solver stays in lock-step with
/// decide/retract, and existing op responses are unchanged by its
/// presence.
#[test]
fn viable_op_tracks_decides_and_retracts() {
    let engine = engine(None);
    ok(&engine.handle_line(r#"{"op":"open","session":"v","snapshot":"crypto"}"#));

    let viable = |name: &str| {
        let response =
            engine.handle_line(&format!(r#"{{"op":"viable","session":"v","name":"{name}"}}"#));
        let json = ok(&response);
        json.get("viable").cloned().expect("viable field")
    };
    let options_of = |v: &Json| -> Vec<String> {
        v.get("options")
            .and_then(Json::as_array)
            .expect("options array")
            .iter()
            .map(|o| o.as_str().unwrap().to_owned())
            .collect()
    };

    // Fresh session: both implementation styles are still on the table.
    let v = viable("ImplementationStyle");
    assert_eq!(v.get("kind").and_then(Json::as_str), Some("values"));
    let opts = options_of(&v);
    assert!(opts.contains(&"Hardware".to_owned()), "{opts:?}");
    assert!(opts.contains(&"Software".to_owned()), "{opts:?}");

    // Decide through the solver's lock-step path (the slot exists now).
    for line in [
        r#"{"op":"decide","session":"v","name":"EOL","value":768}"#,
        r#"{"op":"decide","session":"v","name":"MaxLatencyUs","value":8.0}"#,
        r#"{"op":"decide","session":"v","name":"ModuloIsOdd","value":"Guaranteed"}"#,
    ] {
        ok(&engine.handle_line(line));
    }
    let v = viable("ImplementationStyle");
    assert_eq!(v.get("kind").and_then(Json::as_str), Some("values"));

    // A retract keeps the solver synchronized rather than rebuilding.
    ok(&engine.handle_line(r#"{"op":"retract","session":"v"}"#));
    let v = viable("ModuloIsOdd");
    assert_eq!(v.get("kind").and_then(Json::as_str), Some("values"));

    // Unknown properties are open (the solver refuses to guess), and
    // unknown sessions still fail with the stable code.
    let v = viable("NoSuchProperty");
    assert_eq!(v.get("kind").and_then(Json::as_str), Some("open"));
    let bad = Json::parse(
        &engine.handle_line(r#"{"op":"viable","session":"ghost","name":"EOL"}"#),
    )
    .unwrap();
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(bad.get("code").and_then(Json::as_str), Some("DSL304"));
}

/// Pagination at the wire-cap boundary: a library whose full survivor
/// listing would blow past the 1 MiB `foundation::net` line cap must
/// come back clipped (`truncated`) yet frameable, and paging with
/// `offset` must reassemble the exact full listing.
#[test]
fn surviving_cores_pages_never_exceed_the_line_cap() {
    use design_space_layer::dse::prelude::*;
    use design_space_layer::dse_library::{CoreRecord, ReuseLibrary};

    // ~2 900 cores × ~600-byte names ≈ 1.7 MiB of names: over the cap.
    let mut space = DesignSpace::new("cap-boundary");
    let root = space.add_root("CapBoundary", "");
    space
        .add_property(
            root,
            Property::issue("Flavor", Domain::options(["a", "b"]), ""),
        )
        .unwrap();
    let mut library = ReuseLibrary::new("fat-names");
    let filler = "x".repeat(580);
    for i in 0..2_900 {
        library.push(
            CoreRecord::new(format!("core-{i:05}-{filler}"), "t", "")
                .bind("Flavor", if i % 2 == 0 { "a" } else { "b" }),
        );
    }
    let engine = EngineBuilder::new(Technology::g10_035())
        .with_snapshot("cap", space, root, library)
        .build()
        .expect("engine builds");
    ok(&engine.handle_line(r#"{"op":"open","session":"cap","snapshot":"cap"}"#));

    // Ask for everything in one page: the reply must clip at the byte
    // budget, stay under the line cap, and say so.
    let line = engine
        .handle_line(r#"{"op":"surviving_cores","session":"cap","limit":1000000}"#);
    assert!(
        line.len() < 1024 * 1024,
        "oversized response: {} bytes",
        line.len()
    );
    let full = ok(&line);
    assert_eq!(full.get("count").and_then(Json::as_i64), Some(2_900));
    assert_eq!(full.get("truncated").and_then(Json::as_bool), Some(true));
    let returned = full.get("returned").and_then(Json::as_i64).unwrap();
    assert!(returned > 0 && returned < 2_900, "returned {returned}");

    // Page through with offset/limit and reassemble the full listing.
    let mut collected: Vec<String> = Vec::new();
    let mut offset = 0usize;
    loop {
        let line = engine.handle_line(&format!(
            r#"{{"op":"surviving_cores","session":"cap","limit":500,"offset":{offset}}}"#
        ));
        assert!(line.len() < 1024 * 1024);
        let page = ok(&line);
        assert_eq!(page.get("count").and_then(Json::as_i64), Some(2_900));
        assert_eq!(page.get("offset").and_then(Json::as_i64), Some(offset as i64));
        let names: Vec<String> = page
            .get("cores")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|n| n.as_str().unwrap().to_owned())
            .collect();
        if names.is_empty() {
            break;
        }
        offset += names.len();
        collected.extend(names);
    }
    assert_eq!(collected.len(), 2_900);
    assert!(collected.windows(2).all(|w| w[0] < w[1]), "stable order");

    // A decision halves the set; pagination tracks the pruned total.
    ok(&engine.handle_line(r#"{"op":"decide","session":"cap","name":"Flavor","value":"a"}"#));
    let pruned = ok(&engine.handle_line(
        r#"{"op":"surviving_cores","session":"cap","limit":10,"offset":1445}"#,
    ));
    assert_eq!(pruned.get("count").and_then(Json::as_i64), Some(1_450));
    assert_eq!(pruned.get("returned").and_then(Json::as_i64), Some(5));
}

/// A writer that keeps every `write` call apart, so a test can see how
/// the serving loop split its output.
#[derive(Default)]
struct WriteLog {
    writes: Vec<Vec<u8>>,
}

impl Write for WriteLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs the daemon's serving loop over an in-memory burst.
fn serve_in_memory(engine: &Engine, burst: &[u8]) -> WriteLog {
    let mut reader = BufReader::with_capacity(burst.len().max(1), burst);
    let mut log = WriteLog::default();
    serve_connection(engine, &mut reader, &mut log, &AtomicBool::new(false));
    log
}

#[test]
fn burst_past_the_inflight_cap_sheds_in_request_order() {
    let engine = EngineBuilder::new(Technology::g10_035())
        .with_shipped_layers()
        .guard(GuardConfig {
            max_inflight_per_conn: 2,
            ..GuardConfig::default()
        })
        .build()
        .expect("engine builds");
    let burst = concat!(
        r#"{"op":"open","session":"s","snapshot":"crypto","id":1}"#, "\n",
        r#"{"op":"decide","session":"s","name":"EOL","value":768,"id":"two"}"#, "\n",
        r#"{"op":"decide","session":"s","name":"MaxLatencyUs","value":8.0,"id":3}"#, "\n",
        r#"{"op":"report","session":"s","id":{"n":4}}"#, "\n",
        r#"{"op":"close","session":"s"}"#, "\n",
    );
    // The bytes the daemon answered this burst with over TCP before the
    // serving loop replaced the batch path: two answers, then three
    // DSL309 refusals echoing their ids in request order.
    let expected = concat!(
        r#"{"ok":true,"id":1,"session":"s","snapshot":"crypto","focus":"Operator.Modular.Multiplier","recovered":false}"#, "\n",
        r#"{"ok":true,"id":"two","name":"EOL","value":768,"focus":"Operator.Modular.Multiplier","open_issues":1}"#, "\n",
        r#"{"ok":false,"id":3,"code":"DSL309","error":"batch limit reached (2 in flight on this connection)","retry_after_ms":200}"#, "\n",
        r#"{"ok":false,"id":{"n":4},"code":"DSL309","error":"batch limit reached (2 in flight on this connection)","retry_after_ms":200}"#, "\n",
        r#"{"ok":false,"code":"DSL309","error":"batch limit reached (2 in flight on this connection)","retry_after_ms":200}"#, "\n",
    );
    let log = serve_in_memory(&engine, burst.as_bytes());
    assert_eq!(log.writes.len(), 1, "one burst is one write");
    assert_eq!(String::from_utf8(log.writes.concat()).unwrap(), expected);
    let stats = ok(&engine.handle_line(r#"{"op":"stats"}"#));
    assert_eq!(
        stats.get("guard").and_then(|g| g.get("overloaded")).and_then(Json::as_i64),
        Some(3),
        "every shed line counts as overloaded"
    );
}

#[test]
fn large_bursts_are_written_out_in_bounded_pieces() {
    const LINES: usize = 256;
    let burst = r#"{"op":"stats"}"#.to_owned() + "\n";
    let burst = burst.repeat(LINES);
    let log = serve_in_memory(&engine(None), burst.as_bytes());

    // The oracle: a twin engine answering the same lines one at a time.
    let twin = engine(None);
    let mut one_at_a_time = Vec::new();
    let mut longest = 0;
    for _ in 0..LINES {
        let reply = twin.handle_line(r#"{"op":"stats"}"#);
        longest = longest.max(reply.len() + 1);
        one_at_a_time.extend_from_slice(reply.as_bytes());
        one_at_a_time.push(b'\n');
    }
    assert!(
        log.writes.len() >= 2,
        "{} bytes of replies went out in {} write(s)",
        one_at_a_time.len(),
        log.writes.len()
    );
    for w in &log.writes {
        assert!(
            w.len() <= WRITE_AT + longest,
            "a {}-byte write exceeds {WRITE_AT} bytes plus one reply",
            w.len()
        );
    }
    assert_eq!(log.writes.concat(), one_at_a_time);
}

#[test]
fn an_unframeable_line_mid_burst_ends_the_connection_after_earlier_replies() {
    let engine = engine(None);
    let mut burst = br#"{"op":"stats","id":1}"#.to_vec();
    burst.extend_from_slice(b"\n{\"op\":\"st\xffats\"}\n");
    burst.extend_from_slice(br#"{"op":"stats","id":3}"#);
    burst.push(b'\n');
    let log = serve_in_memory(&engine, &burst);
    let out = String::from_utf8(log.writes.concat()).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "{out}");
    assert_eq!(ok(lines[0]).get("id").and_then(Json::as_i64), Some(1));
    let refusal = Json::parse(lines[1]).unwrap();
    assert_eq!(refusal.get("code").and_then(Json::as_str), Some("DSL301"), "{out}");
}
