#![warn(missing_docs)]
//! Reuse-library substrate and the shipped domain layers.
//!
//! The design space layer sits *on top of* reuse libraries (the paper's
//! Fig. 1): cores live in libraries maintained by IP providers, and the
//! layer indexes them through the areas of design decision. This crate
//! provides:
//!
//! * [`CoreRecord`] / [`ReuseLibrary`] — reusable designs with their
//!   design-option bindings and figures of merit, JSON-serializable so
//!   layers and libraries can be exchanged between design environments,
//! * [`Explorer`] — an exploration session joined with one or more reuse
//!   libraries: every decision transparently filters the surviving cores
//!   and exposes their evaluation-space ranges, answered by the columnar
//!   [`CoreStore`] ([`scan_oracle`] holds the per-core scan the
//!   differential suites compare it with),
//! * [`crypto`] — the paper's Section-5 cryptography layer (Figs. 5, 7,
//!   8, 10, 11, 13) with its library of hardware cores (from `hwmodel`)
//!   and software routines (from `swmodel`),
//! * [`idct`] — the IDCT layer of the motivating example (Figs. 2–4),
//!   in both the abstraction-based and the generalization-based
//!   organisation, for the Fig. 2-vs-Fig. 3 comparison,
//! * [`estimators`] — [`dse::estimate::Estimator`] implementations backed
//!   by the `hwmodel`/`swmodel` substrates (the paper's CC3 tool).
//!
//! # Example
//!
//! ```
//! use dse_library::crypto;
//! use dse::prelude::*;
//!
//! # fn main() -> Result<(), dse::DseError> {
//! let layer = crypto::build_layer()?;
//! let library = crypto::build_library(&techlib::Technology::g10_035(), 768);
//! let mut exp = dse_library::Explorer::new(&layer.space, layer.omm, &library);
//! exp.session.set_requirement("EOL", Value::from(768))?;
//! exp.session.set_requirement("MaxLatencyUs", Value::from(8.0))?;
//! exp.session.set_requirement("ModuloIsOdd", Value::from("Guaranteed"))?;
//! let before = exp.surviving_cores().len();
//! exp.session.decide("ImplementationStyle", Value::from("Hardware"))?;
//! assert!(exp.surviving_cores().len() < before);
//! # Ok(())
//! # }
//! ```

mod core_record;
pub mod core_store;
pub mod crypto;
pub mod estimators;
mod explorer;
pub mod fir;
pub mod idct;
pub mod lint;
mod loader;
mod reuse;
pub mod scan_oracle;
pub mod synthetic;

pub use core_record::CoreRecord;
pub use core_store::{roster_from_indices, roster_indices, CoreStore};
pub use explorer::Explorer;
pub use lint::lint_library;
pub use loader::{load_all_layers, load_layer, LoadedLayer, PAPER_EOL};
pub use reuse::{LibraryError, ReuseLibrary};
