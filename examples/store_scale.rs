//! Million-core scale smoke: seeded library generation, columnar store
//! build, and narrowing queries — the fixed-budget gate run by
//! `scripts/verify.sh`.
//!
//! ```text
//! cargo run --release --example store_scale [-- --cores N]
//! ```
//!
//! Generates `N` synthetic cores (default 1 000 000), builds the
//! columnar index, then runs a decide → count/range → retract round on
//! the incremental cursor and cross-checks the survivor count against
//! the scan oracle.

use std::time::Instant;

use design_space_layer::dse::eval::FigureOfMerit;
use design_space_layer::dse::prelude::*;
use design_space_layer::dse_library::core_store::roster;
use design_space_layer::dse_library::synthetic::{
    synthetic_core_space, synthetic_cores, CoreSpaceSpec,
};
use design_space_layer::dse_library::{scan_oracle, CoreStore, Explorer};

fn main() {
    let mut cores: usize = 1_000_000;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cores" => {
                cores = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--cores needs a number");
            }
            other => {
                eprintln!("unknown argument {other:?} (expected --cores N)");
                std::process::exit(2);
            }
        }
    }

    let spec = CoreSpaceSpec::sized(cores);
    let t = Instant::now();
    let (space, root) = synthetic_core_space(&spec);
    let library = synthetic_cores(&spec);
    println!("generated {} cores in {:?}", library.len(), t.elapsed());

    let t = Instant::now();
    let store = CoreStore::for_libraries(&[&library]);
    println!("built columnar store ({} cores) in {:?}", store.len(), t.elapsed());

    let mut exp = Explorer::new(&space, root, &library);
    let t = Instant::now();
    exp.session
        .decide("P0", Value::from("o1"))
        .expect("unconstrained decide");
    let count = exp.surviving_count();
    let range = exp.merit_range(&FigureOfMerit::AreaUm2);
    println!(
        "decide P0=o1: {count} survivors, area range {range:?} in {:?}",
        t.elapsed()
    );

    let t = Instant::now();
    exp.session.undo().expect("undo");
    let restored = exp.surviving_count();
    println!("retract: {restored} survivors in {:?}", t.elapsed());
    assert_eq!(restored, library.len(), "retract must restore the full set");

    // Cross-check the AND-merge against the scan oracle.
    exp.session
        .decide("P0", Value::from("o1"))
        .expect("unconstrained decide");
    let t = Instant::now();
    let oracle = scan_oracle::surviving_cores(&roster(&[&library]), &exp.session).len();
    println!("scan oracle: {oracle} survivors in {:?}", t.elapsed());
    assert_eq!(count, oracle, "columnar and scan survivor counts differ");

    println!("store_scale: OK");
}
