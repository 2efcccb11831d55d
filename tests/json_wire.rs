//! The JSON codec and the daemon's one request pipeline, pinned from
//! four directions:
//!
//! 1. seeded random `Json` trees are a fixed point of
//!    `encode` → `Json::parse` → `encode`;
//! 2. seeded corrupt lines are rejected with the positions and wording
//!    recorded in `tests/golden/json_errors.golden` (taken from the
//!    earlier tree parser before `Json::parse` became
//!    `Reader::parse_document`), and the request decoder words each
//!    rejection exactly as `Json::parse` does;
//! 3. the engine answers two recorded conversations byte for byte:
//!    `tests/golden/server_smoke.golden` and
//!    `tests/golden/wire_fuzz.golden`. The fuzz golden was recorded from
//!    the earlier tree-codec request path before it was deleted; its
//!    script is a seeded protocol stream plus one hostile line per
//!    decoder branch (syntax errors, non-objects, wrong-typed and
//!    missing fields, integral floats, exotic ids, escapes, tagged
//!    values, duplicate keys, `report`/`invalidate`/`shutdown`);
//! 4. a journaled engine writes the same journal bytes for those two
//!    conversations as `tests/golden/journal_bytes.golden` records
//!    (recorded before the journal's one renderer replaced per-record
//!    `json::encode`), compactions included.

use design_space_layer::dse_server::protocol::parse_request;
use design_space_layer::foundation::json::{self, Json};
use design_space_layer::foundation::rng::{Rng, SeedableRng, StdRng};

// ---- seeded tree generator ---------------------------------------------

fn random_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0usize..12);
    let mut s = String::new();
    for _ in 0..len {
        match rng.gen_range(0u32..10) {
            // Plain ASCII dominates, as it does on the wire.
            0..=5 => s.push(rng.gen_range(0x20u8..0x7f) as char),
            6 => s.push(['"', '\\', '/'][rng.gen_range(0usize..3)]),
            7 => s.push(['\n', '\t', '\r', '\u{8}', '\u{c}'][rng.gen_range(0usize..5)]),
            8 => s.push(['\u{0}', '\u{1f}', '\u{7f}'][rng.gen_range(0usize..3)]),
            _ => s.push(['é', '→', '𝄞', 'ß'][rng.gen_range(0usize..4)]),
        }
    }
    s
}

fn random_float(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..5) {
        0 => 0.0,
        1 => -0.5,
        2 => 8.0,
        3 => rng.gen_range(-1.0e9..1.0e9),
        _ => rng.gen_range(-1.0..1.0) * 1.0e-7,
    }
}

fn random_tree(rng: &mut StdRng, depth: usize) -> Json {
    let top = if depth >= 4 { 5 } else { 7 };
    match rng.gen_range(0u32..top) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_range(0u32..2) == 1),
        2 => Json::Int(rng.gen_range(i64::MIN..=i64::MAX)),
        3 => Json::Float(random_float(rng)),
        4 => Json::Str(random_string(rng)),
        5 => Json::Array(
            (0..rng.gen_range(0usize..5))
                .map(|_| random_tree(rng, depth + 1))
                .collect(),
        ),
        _ => Json::Object(
            (0..rng.gen_range(0usize..5))
                .map(|i| (format!("k{i}_{}", random_string(rng)), random_tree(rng, depth + 1)))
                .collect(),
        ),
    }
}

#[test]
fn random_trees_roundtrip_as_a_fixed_point() {
    let mut rng = StdRng::seed_from_u64(0x11E0_C0DE);
    for case in 0..500 {
        let tree = random_tree(&mut rng, 0);
        let text = json::encode(&tree);
        let parsed = Json::parse(&text).expect("the parser accepts the serializer's output");
        assert_eq!(parsed, tree, "case {case}: parse changed the tree");
        assert_eq!(
            json::encode(&parsed),
            text,
            "case {case}: encode is not a fixed point"
        );
    }
}

// ---- malformed input ------------------------------------------------------

/// Mutates a valid document into a (usually) corrupt line.
fn corrupt(rng: &mut StdRng, base: &str) -> Option<String> {
    let mut bytes = base.as_bytes().to_vec();
    match rng.gen_range(0u32..4) {
        0 if !bytes.is_empty() => {
            bytes.truncate(rng.gen_range(0usize..bytes.len()));
        }
        1 if !bytes.is_empty() => {
            let i = rng.gen_range(0usize..bytes.len());
            bytes[i] = [b'{', b'}', b'[', b']', b',', b':', b'"', b'\\', b'e', b'0', b'+']
                [rng.gen_range(0usize..11)];
        }
        2 => {
            let i = rng.gen_range(0usize..=bytes.len());
            bytes.insert(
                i,
                [b'{', b'}', b',', b':', b'"', b'x'][rng.gen_range(0usize..6)],
            );
        }
        _ => {
            let i = rng.gen_range(0usize..=bytes.len());
            bytes.insert(i, b',');
        }
    }
    // The parser takes `&str`; mutations that break UTF-8 are framing
    // errors, rejected before it runs.
    String::from_utf8(bytes).ok()
}

#[test]
fn corrupt_lines_are_rejected_at_their_golden_positions() {
    let golden = golden_lines("json_errors.golden");
    let mut rng = StdRng::seed_from_u64(0xBAD_1E5);
    let mut rejected = 0usize;
    let mut index = 0usize;
    while rejected < 2000 {
        assert!(
            index < 40_000,
            "corruption generator stopped producing rejections \
             ({rejected} after {index} lines)"
        );
        let base = json::encode(&random_tree(&mut rng, 0));
        let line = corrupt(&mut rng, &base);
        index += 1;
        let Some(line) = line else {
            continue;
        };
        let parsed = Json::parse(&line);
        // The request decoder words syntax errors as `Json::parse` does.
        let decoded = parse_request(&line).0.err().map(|e| e.message);
        let Err(e) = parsed else {
            assert!(
                !decoded.is_some_and(|m| m.starts_with("invalid JSON")),
                "decoder rejected valid JSON {line:?}"
            );
            continue;
        };
        assert_eq!(
            decoded,
            Some(format!("invalid JSON: {e}")),
            "decoder worded {line:?} differently"
        );
        assert!(
            e.line >= 1 && e.col >= 1,
            "{line:?} rejected without a position: {e}"
        );
        if let Some(want) = golden.get(rejected) {
            let shown = e.to_string();
            let message = shown
                .strip_suffix(&format!(" at line {} column {}", e.line, e.col))
                .expect("parse errors carry a position");
            let got = format!("{}\t{}:{}\t{message}", index - 1, e.line, e.col);
            assert_eq!(
                &got, want,
                "rejection {rejected} drifted from the golden: {line:?}"
            );
        }
        rejected += 1;
    }
    assert_eq!(golden.len(), 500, "json_errors.golden holds 500 rejections");
}

// ---- recorded conversations -----------------------------------------------

/// The non-comment, non-blank lines of a file under `tests/golden/`.
fn golden_lines(name: &str) -> Vec<String> {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e}"))
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect()
}

/// Replays `<name>.script` through one fresh engine (shipped layers, no
/// journal), one line at a time, and diffs every reply against
/// `<name>.golden`.
fn assert_conversation_matches_golden(name: &str) -> Vec<String> {
    let engine = dse_server::EngineBuilder::new(techlib::Technology::g10_035())
        .with_shipped_layers()
        .build()
        .expect("engine builds");
    let lines = golden_lines(&format!("{name}.script"));
    let golden = golden_lines(&format!("{name}.golden"));
    assert_eq!(lines.len(), golden.len(), "{name}: one reply per request");
    for (i, (line, want)) in lines.iter().zip(&golden).enumerate() {
        assert_eq!(
            &engine.handle_line(line),
            want,
            "{name} line {i} diverged from the golden: {line:?}"
        );
    }
    lines
}

#[test]
fn golden_smoke_conversation_matches_the_recorded_transcript() {
    let lines = assert_conversation_matches_golden("server_smoke");
    assert!(lines.len() >= 20, "golden script unexpectedly short");
}

#[test]
fn wire_fuzz_conversation_matches_the_recorded_transcript() {
    let lines = assert_conversation_matches_golden("wire_fuzz");
    // The script opens with the seeded stream, then the hostile lines.
    let seeded = random_protocol_stream(0x5EED_F00D, 600);
    assert_eq!(
        &lines[..seeded.len()],
        &seeded[..],
        "seeded section drifted"
    );
    assert!(
        lines.len() > seeded.len() + 150,
        "hostile section unexpectedly short"
    );
}

/// A seeded stream of plausible-to-hostile protocol lines: valid hot
/// ops, wrong types, missing fields, duplicate keys, unknown ops,
/// unparseable garbage.
fn random_protocol_stream(seed: u64, n: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines = Vec::with_capacity(n);
    for i in 0..n {
        let session = format!("f{}", rng.gen_range(0u32..4));
        let line = match rng.gen_range(0u32..14) {
            0 => format!(r#"{{"op":"open","session":"{session}","snapshot":"crypto"}}"#),
            1 => format!(r#"{{"op":"decide","session":"{session}","name":"EOL","value":768}}"#),
            2 => format!(
                r#"{{"op":"decide","session":"{session}","name":"ModuloIsOdd","value":"Guaranteed"}}"#
            ),
            3 => format!(r#"{{"op":"decide","session":"{session}","name":"EOL","value":8.5}}"#),
            4 => format!(r#"{{"op":"retract","session":"{session}"}}"#),
            5 => format!(r#"{{"op":"surviving_cores","session":"{session}","limit":3}}"#),
            6 => format!(r#"{{"op":"viable","session":"{session}","name":"ImplementationStyle"}}"#),
            7 => format!(r#"{{"op":"eval","session":"{session}"}}"#),
            8 => format!(r#"{{"op":"close","session":"{session}"}}"#),
            9 => r#"{"op":"stats"}"#.to_owned(),
            // Hostile shapes: missing fields, duplicate keys, extreme ids.
            10 => format!(r#"{{"op":"decide","session":"{session}","value":768}}"#),
            11 => format!(
                r#"{{"op":"decide","op":"stats","session":"{session}","name":"EOL","value":1,"id":{i}}}"#
            ),
            12 => format!(r#"{{"op":"stats","id":{}}}"#, rng.gen_range(i64::MIN..=i64::MAX)),
            _ => json::encode(&random_tree(&mut rng, 2)),
        };
        lines.push(line);
    }
    lines
}

// ---- journal bytes --------------------------------------------------------

/// The files in `dir`, by name, sorted.
fn dir_files(dir: &std::path::Path) -> std::collections::BTreeMap<String, String> {
    std::fs::read_dir(dir)
        .expect("journal dir exists")
        .map(|e| {
            let e = e.unwrap();
            let text = std::fs::read_to_string(e.path()).unwrap();
            (e.file_name().into_string().unwrap(), text)
        })
        .collect()
}

/// Replays both recorded conversations through a journaled engine that
/// compacts every fourth record. After each request line, every file
/// in the journal directory that changed is logged as a header
/// `== <script>:<line> <file> <how>` where `how` is `+` (bytes appended;
/// the appended bytes follow), `=` (rewritten, as compaction does; the
/// whole file follows) or `-` (removed). The files left at the end
/// follow in sorted order under `== <script>/<file>` headers.
fn journal_bytes() -> String {
    let mut out = String::new();
    for name in ["server_smoke", "wire_fuzz"] {
        let dir =
            std::env::temp_dir().join(format!("dse-journal-golden-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = dse_server::EngineBuilder::new(techlib::Technology::g10_035())
            .with_shipped_layers()
            .journal_dir(&dir)
            .guard(dse_server::GuardConfig {
                compact_after: 4,
                ..dse_server::GuardConfig::default()
            })
            .build()
            .expect("engine builds");
        let mut seen = dir_files(&dir);
        for (i, line) in golden_lines(&format!("{name}.script")).iter().enumerate() {
            engine.handle_line(line);
            let now = dir_files(&dir);
            for (file, text) in &now {
                match seen.get(file) {
                    Some(old) if old == text => {}
                    Some(old) if text.starts_with(old.as_str()) => {
                        out.push_str(&format!("== {name}:{i} {file} +\n"));
                        out.push_str(&text[old.len()..]);
                    }
                    _ => {
                        out.push_str(&format!("== {name}:{i} {file} =\n"));
                        out.push_str(text);
                    }
                }
            }
            for file in seen.keys().filter(|f| !now.contains_key(*f)) {
                out.push_str(&format!("== {name}:{i} {file} -\n"));
            }
            seen = now;
        }
        drop(engine);
        for (file, text) in dir_files(&dir) {
            out.push_str(&format!("== {name}/{file}\n"));
            out.push_str(&text);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    out
}

#[test]
fn journal_bytes_match_the_recorded_golden() {
    let path = format!(
        "{}/tests/golden/journal_bytes.golden",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let live = journal_bytes();
    assert!(live.contains(".jsonl =\n"), "no journal was compacted");
    assert_eq!(live, golden, "journal bytes drifted from the golden");
}
