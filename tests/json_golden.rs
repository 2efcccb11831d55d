//! Golden tests for the `foundation::json` codec against the shipped
//! design data: the crypto and IDCT reuse libraries must round-trip
//! byte-identically, and the parser must handle (and precisely report)
//! the edge cases real library files can contain.

use design_space_layer::dse_library::{crypto, idct, CoreRecord, ReuseLibrary};
use design_space_layer::techlib::Technology;
use foundation::json::{decode, encode, encode_pretty, Json};

/// Encoding is deterministic, and decode∘encode is the identity — so one
/// encode→decode→encode cycle is a fixed point.
fn assert_encoding_fixed_point(lib: &ReuseLibrary) {
    let first = lib.to_json().unwrap();
    let back = ReuseLibrary::from_json(&first).unwrap();
    let second = back.to_json().unwrap();
    assert_eq!(first, second, "encoding must be a fixed point");
}

#[test]
fn crypto_library_encoding_is_a_fixed_point() {
    let lib = crypto::build_library(&Technology::g10_035(), 768);
    assert_encoding_fixed_point(&lib);
}

#[test]
fn idct_library_encoding_is_a_fixed_point() {
    assert_encoding_fixed_point(&idct::build_library());
}

#[test]
fn core_record_golden_shape() {
    // The on-disk shape of one record is a public contract: field order,
    // the externally-tagged merit keys, and string bindings.
    let mut lib = ReuseLibrary::new("golden");
    lib.push(
        CoreRecord::new("#1_8", "in-house", "radix-2 CSA datapath")
            .bind("Algorithm", "Montgomery")
            .merit(
                design_space_layer::dse::eval::FigureOfMerit::AreaUm2,
                5436.0,
            ),
    );
    let json = lib.to_json().unwrap();
    for needle in [
        "\"name\": \"golden\"",
        "\"name\": \"#1_8\"",
        "\"vendor\": \"in-house\"",
        "\"Algorithm\"",
        "\"Montgomery\"",
        "\"AreaUm2\": 5436.0",
    ] {
        assert!(json.contains(needle), "{needle} missing from:\n{json}");
    }
    assert_eq!(ReuseLibrary::from_json(&json).unwrap(), lib);
}

#[test]
fn compact_and_pretty_forms_decode_identically() {
    let lib = idct::build_library();
    let pretty = encode_pretty(&lib);
    let compact = encode(&lib);
    assert_ne!(pretty, compact);
    assert_eq!(
        decode::<ReuseLibrary>(&pretty).unwrap(),
        decode::<ReuseLibrary>(&compact).unwrap()
    );
}

#[test]
fn parser_handles_string_escapes() {
    let v = Json::parse(r#""a\"b\\c\/d\n\tAé""#).unwrap();
    assert_eq!(v.as_str(), Some("a\"b\\c/d\n\tA\u{e9}"));
    // Surrogate pair: U+1D11E (musical G clef).
    let v = Json::parse(r#""𝄞""#).unwrap();
    assert_eq!(v.as_str(), Some("\u{1D11E}"));
    // A lone surrogate is rejected.
    assert!(Json::parse(r#""\ud834""#).is_err());
}

#[test]
fn parser_handles_nested_arrays() {
    let v = Json::parse("[[1, [2, [3, [4]]]], []]").unwrap();
    let outer = v.as_array().unwrap();
    assert_eq!(outer.len(), 2);
    assert_eq!(outer[1].as_array().unwrap().len(), 0);
    let mut depth = 0;
    let mut cur = &outer[0];
    while let Some(items) = cur.as_array() {
        depth += 1;
        match items.last() {
            Some(next) => cur = next,
            None => break,
        }
    }
    assert_eq!(depth, 4);
}

#[test]
fn parser_discriminates_number_forms() {
    assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
    assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
    assert_eq!(Json::parse("42.0").unwrap(), Json::Float(42.0));
    assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
    assert_eq!(Json::parse("-2.5E-2").unwrap(), Json::Float(-0.025));
    // i64 boundary values stay integers.
    assert_eq!(
        Json::parse("9223372036854775807").unwrap(),
        Json::Int(i64::MAX)
    );
    assert_eq!(
        Json::parse("-9223372036854775808").unwrap(),
        Json::Int(i64::MIN)
    );
    // Leading zeros and bare signs are malformed.
    assert!(Json::parse("01").is_err());
    assert!(Json::parse("+1").is_err());
    assert!(Json::parse("1.").is_err());
}

#[test]
fn parse_errors_carry_line_and_column() {
    // The error points at the offending token, 1-based.
    let e = Json::parse("{\"a\": 1,\n  \"b\": }").unwrap_err();
    assert_eq!((e.line, e.col), (2, 8), "{e}");

    let e = Json::parse("[1, 2\n3]").unwrap_err();
    assert_eq!(e.line, 2, "{e}");

    // Trailing garbage after a complete document is flagged where it starts.
    let e = Json::parse("null x").unwrap_err();
    assert_eq!((e.line, e.col), (1, 6), "{e}");

    // A document cut off after a newline that follows a complete element
    // points at the element's last byte, on its own line.
    for (text, at) in [("[1\n", (1, 3)), ("{\"a\":1\n", (1, 7)), ("[1,2\n  ", (2, 2))] {
        let e = Json::parse(text).unwrap_err();
        assert_eq!((e.line, e.col), at, "{text:?}: {e}");
    }
}

#[test]
fn pretty_form_reproduces_a_file_written_by_it() {
    // `BENCH_baseline.json` was written by `to_string_pretty` (no trailing
    // newline), so re-rendering its tree must give back its exact bytes.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_baseline.json");
    let text = std::fs::read_to_string(path).expect("BENCH_baseline.json is readable");
    assert_eq!(Json::parse(&text).unwrap().to_string_pretty(), text);
}

#[test]
fn decode_type_errors_name_the_context() {
    let e = decode::<ReuseLibrary>("[]").unwrap_err();
    assert!(e.to_string().contains("ReuseLibrary"), "{e}");
    let e = decode::<ReuseLibrary>("{\"name\": 3, \"cores\": []}").unwrap_err();
    assert!(e.to_string().to_lowercase().contains("string"), "{e}");
}
