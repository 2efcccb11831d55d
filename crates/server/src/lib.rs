#![warn(missing_docs)]
//! `dse-serve`: a concurrent multi-session exploration daemon over
//! shared design-space snapshots.
//!
//! A design space layer is read-mostly: layers are authored rarely and
//! explored constantly, often by several designers (or several agents
//! of one designer) at once. This crate turns the workspace's
//! exploration machinery into a long-running TCP daemon:
//!
//! * [`Snapshot`] — an immutable, `Arc`-shared design space plus reuse
//!   library. Opening a session never clones a space; thousands of
//!   sessions borrow one snapshot.
//! * [`Engine`] — the transport-independent core: session lifecycle
//!   (`open`/`close`, with journal-backed crash recovery), exploration
//!   ops (`decide`/`retract`/`eval`/`surviving_cores`/`report`), and
//!   control ops (`stats`/`invalidate`/`shutdown`). Per-session state
//!   is a [`dse::session::SessionSnapshot`]; each request rebuilds a
//!   borrowing session via `ExplorationSession::resume`, applies the
//!   op, and commits the new snapshot. All sessions share one
//!   process-wide estimate cache.
//! * [`protocol`] — the wire format: newline-delimited JSON, one
//!   request per line, one response per line, stable `DSL3xx` error
//!   codes, optional `id` echo for pipelining clients. One borrowing
//!   decoder reads every request and words every error; one
//!   [`foundation::json::Writer`] renders every reply, with no `Json`
//!   tree on the request path.
//! * [`Server`] — the TCP front on [`foundation::net`]: thread per
//!   connection with Nagle's algorithm off; a pipelined burst is
//!   answered in request order on the connection's thread through
//!   [`Engine::handle_line_into`] and written once, so parallelism is
//!   per connection; graceful drain on `shutdown`.
//! * [`guard`] — overload protection: connection and session caps with
//!   structured `DSL309` refusals carrying `retry_after_ms`, idle
//!   connection reaping, cooperative per-request deadlines
//!   (`deadline_ms` → `DSL310`, deterministic because the budget is
//!   fuel steps rather than wall time), per-tool circuit breakers in
//!   the estimation supervisor, journal compaction with verified
//!   replay, and logical-clock TTL eviction of idle sessions (they
//!   resume transparently from their journals on next touch).
//!
//! Durability: with a journal directory configured, every mutating op
//! appends to `<session>.jsonl` *before* the new state commits and a
//! `<session>.meta` sidecar names the snapshot; at boot the engine
//! replays every journal it finds. Kill the daemon, restart it, and
//! every session is open again — a torn final record (crash
//! mid-append) is dropped with a `DSL201` diagnostic, while mid-body
//! corruption is rejected and surfaced as a boot warning.
//!
//! ```no_run
//! use std::sync::Arc;
//! use dse_server::{EngineBuilder, Server};
//! use techlib::Technology;
//!
//! let engine = EngineBuilder::new(Technology::g10_035())
//!     .with_shipped_layers()
//!     .journal_dir("/tmp/dse-journals")
//!     .build()
//!     .unwrap();
//! let server = Server::start(Arc::new(engine), "127.0.0.1:0").unwrap();
//! println!("listening on {}", server.local_addr());
//! server.run().unwrap(); // until a shutdown request drains it
//! ```

pub mod daemon;
pub mod engine;
pub mod guard;
pub mod protocol;

pub use daemon::Server;
pub use engine::{Engine, EngineBuilder, Snapshot};
pub use guard::GuardConfig;
pub use protocol::{ProtocolError, Request};
