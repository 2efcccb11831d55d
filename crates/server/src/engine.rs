//! The transport-independent request engine.
//!
//! An [`Engine`] holds immutable, `Arc`-shared design-space
//! [`Snapshot`]s and multiplexes any number of concurrent exploration
//! sessions over them. Per-session state is a plain
//! [`SessionSnapshot`] — opening a session never clones a space; each
//! request reconstructs a borrowing [`ExplorationSession`] against the
//! shared space via [`ExplorationSession::resume`], applies the
//! operation, and stores the new snapshot back.
//!
//! Sessions are durable when the engine has a [`JournalDir`]: every
//! mutating operation is appended to the session's journal *before* the
//! new state commits, a `<id>.meta` sidecar remembers which snapshot the
//! session explores, and [`EngineBuilder::build`] replays every journal
//! found at boot — a killed daemon comes back with all its sessions.
//!
//! [`Engine::handle_line_into`] answers one request line into a
//! caller-owned buffer, and every request takes the same path through
//! it: the one decoder ([`crate::protocol::parse_request`]), admission
//! (request counter, deadline fuel, panic containment, guard counters),
//! one `dispatch` over all eleven ops, and one `render` through
//! [`Writer`]. The engine has no batch entry point: the TCP
//! front answers a pipelined burst line by line, in order, on the
//! connection's thread, so concurrency comes from concurrent callers
//! (one per connection), never from splitting one caller's lines.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use dse::prelude::{
    CdoId, Decision, DesignSpace, DiagCode, DseError, EstimateCache, ExplorationSession, FaultPlan,
    FaultRates, Figure, Fuel, Journal, JournalAppender, JournalDir, JournalRecord, Net, Property,
    PropertyKind, RecoverError, SessionSnapshot, Solver, Supervisor, SupervisorConfig, Value,
    Viability,
};
use dse_library::{
    load_all_layers, roster_from_indices, roster_indices, CoreStore, Explorer, ReuseLibrary,
};
use foundation::json::{escaped_len, Writer};
use techlib::Technology;

use crate::guard::{GuardConfig, FUEL_PER_MS};
use crate::protocol::{
    parse_request, render_err_into, render_ok_prefix, write_value, ProtocolError, Request,
};

/// Default cap on core names returned by `surviving_cores`.
const DEFAULT_CORE_LIMIT: usize = 64;

/// Sidecar extension recording which snapshot a journaled session
/// explores.
const META_EXT: &str = "meta";

/// Flat fuel cost charged at admission by every deadlined request, so a
/// `deadline_ms` of `0` burns out before any op runs (the deterministic
/// "already too late" answer).
const OP_BASE_FUEL: u64 = 1_000;

/// Fuel charged by a `surviving_cores` scan under a deadline.
const CORE_SCAN_FUEL: u64 = 4_096;

/// Byte budget for the `cores` array of one `surviving_cores` page:
/// comfortably under the 1 MiB `foundation::net` line cap, with
/// headroom for the response envelope. A page that would overflow it is
/// clipped and flagged `truncated`, so million-core result sets can
/// never produce an unframeable reply.
const CORE_PAGE_BYTE_BUDGET: usize = 960 * 1024;

/// Fuel charged by a `viable` lookahead solve under a deadline.
const LOOKAHEAD_FUEL: u64 = 8_192;

/// Cyclic schedule length for a fault-injected registry
/// ([`EngineBuilder::tool_faults`]).
const TOOL_FAULT_SCHEDULE: usize = 4_096;

/// One immutable, shareable design space plus its reuse library.
///
/// Every session opened on a snapshot borrows the same `Arc`ed space;
/// nothing is ever cloned per session.
#[derive(Debug)]
pub struct Snapshot {
    /// The wire name clients open the snapshot by.
    pub name: String,
    /// Human-readable title (the shipped layer's caption).
    pub title: String,
    /// The shared space.
    pub space: Arc<DesignSpace>,
    /// The CDO sessions start focused on.
    pub root: CdoId,
    /// The reuse library evaluated against the space.
    pub library: Arc<ReuseLibrary>,
    /// The columnar index over the library, built once at snapshot load
    /// and shared by every session's `surviving_cores`/`eval` queries.
    pub store: Arc<CoreStore>,
    /// Precomputed deduplicated roster indices over `library` (see
    /// [`dse_library::roster_indices`]): the `(vendor, name)` dedup is
    /// hashed once at snapshot load instead of once per
    /// `surviving_cores` request.
    pub roster: Vec<(u32, u32)>,
    /// One constraint network per CDO, built the first time a session's
    /// `viable` needs that focus and shared by every rebuild after it.
    /// Nothing is built at load; at most one network per focused CDO.
    nets: Vec<OnceLock<Arc<Net>>>,
}

impl Snapshot {
    /// Assembles a snapshot, building its columnar core store.
    pub fn new(
        name: impl Into<String>,
        title: impl Into<String>,
        space: Arc<DesignSpace>,
        root: CdoId,
        library: Arc<ReuseLibrary>,
    ) -> Snapshot {
        let store = Arc::new(CoreStore::for_libraries(&[&library]));
        let roster = roster_indices(&[&library]);
        let nets = (0..space.len()).map(|_| OnceLock::new()).collect();
        Snapshot {
            name: name.into(),
            title: title.into(),
            space,
            root,
            library,
            store,
            roster,
            nets,
        }
    }

    /// The constraint network of the region at `focus`, built on first
    /// use.
    fn net(&self, focus: CdoId) -> Arc<Net> {
        let net = self.nets[focus.index()].get_or_init(|| Arc::new(Net::new(&self.space, focus)));
        Arc::clone(net)
    }
}

/// The per-session mutable state: which snapshot, the exploration state,
/// and how the session came to exist.
#[derive(Debug)]
struct SessionSlot {
    snapshot: Arc<Snapshot>,
    state: SessionSnapshot,
    /// True when the slot was rebuilt from a journal (boot or resume).
    recovered: bool,
    /// Recovery diagnostics (e.g. a DSL201 torn tail), surfaced on the
    /// next `open` that attaches to the slot.
    notes: Vec<String>,
    /// The propagation solver behind the `viable` op, built lazily on
    /// first use over the snapshot's shared network and then kept in
    /// lock-step with decide/retract so each query re-solves only the
    /// changed domains instead of rebuilding.
    lookahead: Option<LookaheadSlot>,
    /// Records in this session's journal file, maintained so the
    /// compaction trigger never stats the disk on the hot path.
    journal_records: usize,
    /// Long-lived append handle to this session's journal, so the
    /// decide/retract acknowledge path skips the per-record open+close.
    /// Invalidated whenever compaction replaces the file.
    appender: JournalAppender,
    /// Engine request-counter value when the slot was last touched (the
    /// logical clock TTL eviction measures against).
    last_touch: u64,
}

/// A session slot rebuilt from disk, plus the notes (recovery
/// diagnostics) its `open` reports.
type Resumed = (SessionSlot, Vec<String>);

/// A [`Solver`] synchronized with a session's decision log.
#[derive(Debug)]
struct LookaheadSlot {
    solver: Solver,
    /// Number of log entries the solver has incorporated.
    synced: usize,
    /// The focus the solver was built on; a focus move (generalized
    /// descend or its undo) invalidates the constraint set.
    focus: CdoId,
}

/// Builds an [`Engine`]: which snapshots it serves, and whether (and
/// where) sessions journal.
#[derive(Debug)]
pub struct EngineBuilder {
    tech: Technology,
    snapshots: BTreeMap<String, Arc<Snapshot>>,
    journal_dir: Option<std::path::PathBuf>,
    guard: GuardConfig,
    tool_fault_seed: Option<u64>,
    errors: Vec<String>,
}

impl EngineBuilder {
    /// Starts a builder; `tech` parameterizes the estimator registry and
    /// the shipped layers.
    pub fn new(tech: Technology) -> EngineBuilder {
        EngineBuilder {
            tech,
            snapshots: BTreeMap::new(),
            journal_dir: None,
            guard: GuardConfig::default(),
            tool_fault_seed: None,
            errors: Vec::new(),
        }
    }

    /// Adds every shipped layer (the same list `diagnose` analyzes, via
    /// the shared loader) as snapshots named by their slugs.
    pub fn with_shipped_layers(mut self) -> Self {
        match load_all_layers(&self.tech) {
            Ok(layers) => {
                for layer in layers {
                    self.snapshots.insert(
                        layer.slug.to_owned(),
                        Arc::new(Snapshot::new(
                            layer.slug,
                            layer.title,
                            Arc::new(layer.space),
                            layer.root,
                            Arc::new(layer.library),
                        )),
                    );
                }
            }
            Err(e) => self.errors.push(format!("shipped layers: {e}")),
        }
        self
    }

    /// Adds a snapshot from a JSON [`DesignSpace`] file. The snapshot is
    /// named after the file stem, focuses the first root, and carries an
    /// empty reuse library.
    pub fn with_space_file(mut self, path: impl AsRef<Path>) -> Self {
        let path = path.as_ref();
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("space")
            .to_owned();
        match fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| {
                foundation::json::decode::<DesignSpace>(&text).map_err(|e| e.to_string())
            }) {
            Ok(space) => match space.roots().first().copied() {
                Some(root) => {
                    let title = space.name().to_owned();
                    let library = Arc::new(ReuseLibrary::new(format!("{name} (empty)")));
                    self.snapshots.insert(
                        name.clone(),
                        Arc::new(Snapshot::new(name, title, Arc::new(space), root, library)),
                    );
                }
                None => self
                    .errors
                    .push(format!("{}: space has no root CDO", path.display())),
            },
            Err(e) => self.errors.push(format!("{}: {e}", path.display())),
        }
        self
    }

    /// Adds a fully specified snapshot — space, root and reuse library —
    /// under `name`. Tests and embedders use this to serve synthetic
    /// libraries (e.g. the million-core pagination regression) without
    /// touching the filesystem.
    pub fn with_snapshot(
        mut self,
        name: impl Into<String>,
        space: DesignSpace,
        root: CdoId,
        library: ReuseLibrary,
    ) -> Self {
        let name = name.into();
        let title = space.name().to_owned();
        self.snapshots.insert(
            name.clone(),
            Arc::new(Snapshot::new(
                name,
                title,
                Arc::new(space),
                root,
                Arc::new(library),
            )),
        );
        self
    }

    /// Enables journaling (and boot recovery) in `dir`.
    pub fn journal_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.journal_dir = Some(dir.into());
        self
    }

    /// Overrides the overload-protection tunables (see [`GuardConfig`]).
    pub fn guard(mut self, guard: GuardConfig) -> Self {
        self.guard = guard;
        self
    }

    /// Wraps every estimator in a seeded [`FaultPlan`] (chaos rates) —
    /// the hook the chaos soak uses to exercise breakers and fallback
    /// chains end to end. Disables the estimate cache: memo hits would
    /// shift the injection schedule and break determinism.
    pub fn tool_faults(mut self, seed: u64) -> Self {
        self.tool_fault_seed = Some(seed);
        self
    }

    /// Builds the engine, recovering every journal found in the journal
    /// directory. Per-journal problems become boot warnings (visible in
    /// `stats`), never boot failures.
    ///
    /// # Errors
    ///
    /// A snapshot that failed to load, or a journal directory that could
    /// not be created or listed.
    pub fn build(self) -> Result<Engine, String> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        let journal = match self.journal_dir {
            Some(dir) => Some(JournalDir::create(dir).map_err(|e| e.to_string())?),
            None => None,
        };
        let cache = Arc::new(EstimateCache::new());
        let registry = dse_library::estimators::full_registry(self.tech.clone());
        let sup_config = SupervisorConfig {
            breaker: self.guard.breaker,
            ..SupervisorConfig::default()
        };
        let supervisor = match self.tool_fault_seed {
            // Fault injection and memoization do not mix: a cache hit
            // skips the tool call and shifts the fault schedule.
            Some(seed) => Supervisor::with_config(
                FaultPlan::new(seed, TOOL_FAULT_SCHEDULE, FaultRates::chaos())
                    .wrap_registry(registry),
                sup_config,
            ),
            None => Supervisor::with_cache_config(registry, Arc::clone(&cache), sup_config),
        };
        let engine = Engine {
            snapshots: self.snapshots,
            sessions: Mutex::new(HashMap::new()),
            journal,
            supervisor: Mutex::new(supervisor),
            cache,
            guard: self.guard,
            draining: AtomicBool::new(false),
            boot_warnings: Vec::new(),
            requests: AtomicU64::new(0),
            opened: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            session_seq: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
        };
        engine.recover_journals()
    }
}

/// The daemon's transport-independent core: snapshots, sessions,
/// journaling, shared estimate cache, and request dispatch.
#[derive(Debug)]
pub struct Engine {
    snapshots: BTreeMap<String, Arc<Snapshot>>,
    sessions: Mutex<HashMap<String, Arc<Mutex<SessionSlot>>>>,
    journal: Option<JournalDir>,
    /// The supervisor is `Send` but not `Sync` (interior stats cell), so
    /// evaluation serializes on this lock; the estimate cache underneath
    /// is shared and lock-striped independently.
    supervisor: Mutex<Supervisor>,
    cache: Arc<EstimateCache>,
    guard: GuardConfig,
    draining: AtomicBool,
    boot_warnings: Vec<String>,
    requests: AtomicU64,
    opened: AtomicU64,
    recovered: AtomicU64,
    session_seq: AtomicU64,
    overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    evicted: AtomicU64,
    compactions: AtomicU64,
}

/// What one op produced, carried from [`Engine::dispatch`] to
/// [`Engine::render`]. Anything the request already holds (a decide's
/// name and value, a closed session's id, an invalidated tool) is
/// rendered from the request instead.
enum Reply {
    Open(OpenOut),
    Decide(DecideOut),
    Retract(RetractOut),
    /// Name-sorted estimates.
    Eval(Vec<(String, FigureOut)>),
    Cores(CoresOut),
    Viable(ViableOut),
    Report(ReportOut),
    Closed,
    /// Stats render straight off the engine's counters; there is
    /// nothing to carry.
    Stats,
    /// How many cached estimates the invalidation dropped.
    Invalidated(usize),
    Draining,
}

struct OpenOut {
    session: String,
    snapshot: String,
    focus: String,
    recovered: bool,
    diagnostics: Vec<String>,
}

struct DecideOut {
    focus: String,
    open_issues: i64,
}

struct RetractOut {
    undone: Vec<String>,
    focus: String,
}

struct FigureOut {
    value: Option<f64>,
    provenance: &'static str,
    source: String,
}

struct CoresOut {
    count: i64,
    offset: i64,
    names: Vec<String>,
    truncated: bool,
}

struct ViableOut {
    viable: Viability,
    conflict: Option<String>,
}

struct ReportOut {
    snapshot: String,
    focus: String,
    /// Name-sorted bindings.
    bindings: Vec<(String, Value)>,
    decisions: Vec<Decision>,
    open_requirements: Vec<String>,
    open_issues: Vec<String>,
    /// Name-sorted estimates.
    estimates: Vec<(String, FigureOut)>,
}

impl Engine {
    /// The names of the snapshots this engine serves.
    pub fn snapshot_names(&self) -> Vec<&str> {
        self.snapshots.keys().map(String::as_str).collect()
    }

    /// Whether the engine has begun graceful drain.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Flips the draining flag (what a `shutdown` request does): opens
    /// are refused from here on; everything else still answers.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Number of currently open sessions.
    pub fn open_sessions(&self) -> usize {
        self.sessions.lock().unwrap().len()
    }

    /// The shared estimate cache (one per process, all sessions).
    pub fn cache(&self) -> &Arc<EstimateCache> {
        &self.cache
    }

    /// The overload-protection tunables the engine was built with (the
    /// TCP front reads its connection-level knobs here).
    pub fn guard(&self) -> &GuardConfig {
        &self.guard
    }

    /// Records a shed request (connection cap, batch cap) refused at the
    /// transport before reaching [`Engine::handle_line_into`], so `stats`
    /// counts every DSL309 the daemon emits.
    pub fn note_overload(&self) {
        self.overloaded.fetch_add(1, Ordering::Relaxed);
    }

    /// Handles one raw request line, returning the encoded response
    /// line. Never panics: a panic inside an operation is caught and
    /// reported as a `DSL306` failure.
    pub fn handle_line(&self, line: &str) -> String {
        let mut out = Vec::new();
        self.handle_line_into(line, &mut out);
        String::from_utf8(out).expect("responses are UTF-8")
    }

    /// Handles one raw request line, appending the encoded response to
    /// `out` — the steady-state entry point. Every request takes the
    /// same path: [`parse_request`] decodes it, [`Engine::dispatch`]
    /// runs it, and [`Engine::render`] writes the reply through one
    /// [`Writer`]. With a warm (reused) `out` and a canonical line, the
    /// codec itself performs zero allocations.
    pub fn handle_line_into(&self, line: &str, out: &mut Vec<u8>) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let (parsed, env) = parse_request(line);
        let id = env.id.as_deref();
        let req = match parsed {
            Ok(req) => req,
            Err(e) => return render_err_into(out, id, &e),
        };
        // A deadline is a cooperative fuel budget, not a wall clock: the
        // same request with the same deadline_ms exhausts at the same
        // point on every run, regardless of machine or thread count.
        let budget = env
            .deadline_ms
            .map(|ms| Fuel::new(ms.saturating_mul(FUEL_PER_MS)));
        // Dispatch first, render after: a panic mid-operation must not
        // leave half a response in the caller's buffer.
        let result = catch_unwind(AssertUnwindSafe(|| self.dispatch(&req, budget.as_ref())))
            .unwrap_or_else(|p| {
                let what = p
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_owned());
                Err(ProtocolError::new(
                    DiagCode::SessionRejected,
                    format!("internal error: operation aborted ({what})"),
                ))
            });
        match result {
            Ok(reply) => self.render(out, id, &req, &reply),
            Err(e) => {
                match e.code {
                    DiagCode::Overloaded => {
                        self.overloaded.fetch_add(1, Ordering::Relaxed);
                    }
                    DiagCode::DeadlineExceeded => {
                        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
                render_err_into(out, id, &e);
            }
        }
    }

    /// Runs one decoded request. Every deadlined request pays a flat
    /// admission cost first, so `deadline_ms:0` answers DSL310 before
    /// touching any state; the scan and lookahead ops charge their own
    /// fuel on top.
    fn dispatch(&self, req: &Request<'_>, budget: Option<&Fuel>) -> Result<Reply, ProtocolError> {
        charge(budget, OP_BASE_FUEL, "admission")?;
        match req {
            Request::Open {
                session,
                snapshot,
                resume,
            } => self
                .op_open(session.as_deref(), snapshot.as_deref(), *resume)
                .map(Reply::Open),
            Request::Decide {
                session,
                name,
                value,
            } => self
                .op_decide(session, name, value.to_value())
                .map(Reply::Decide),
            Request::Retract { session, name } => self
                .op_retract(session, name.as_deref())
                .map(Reply::Retract),
            Request::Eval { session } => self.op_eval(session, budget).map(Reply::Eval),
            Request::SurvivingCores {
                session,
                limit,
                offset,
            } => {
                charge(budget, CORE_SCAN_FUEL, "surviving_cores")?;
                self.op_cores(
                    session,
                    limit.unwrap_or(DEFAULT_CORE_LIMIT),
                    offset.unwrap_or(0),
                )
                .map(Reply::Cores)
            }
            Request::Viable { session, name } => {
                charge(budget, LOOKAHEAD_FUEL, "viable")?;
                self.op_viable(session, name).map(Reply::Viable)
            }
            Request::Report { session } => self.op_report(session).map(Reply::Report),
            Request::Close { session } => self.op_close(session).map(|()| Reply::Closed),
            Request::Stats => Ok(Reply::Stats),
            Request::Invalidate { tool } => {
                Ok(Reply::Invalidated(self.cache.invalidate_tool(tool)))
            }
            Request::Shutdown => {
                self.begin_drain();
                Ok(Reply::Draining)
            }
        }
    }

    /// Renders a success response: `{"ok":true,"id":…}` plus the op's
    /// fields, in the order the README documents.
    fn render(&self, out: &mut Vec<u8>, id: Option<&str>, req: &Request<'_>, reply: &Reply) {
        let mut w = Writer::new(out);
        render_ok_prefix(&mut w, id);
        match (reply, req) {
            (Reply::Open(o), _) => {
                w.key("session");
                w.str_value(&o.session);
                w.key("snapshot");
                w.str_value(&o.snapshot);
                w.key("focus");
                w.str_value(&o.focus);
                w.key("recovered");
                w.bool_value(o.recovered);
                if !o.diagnostics.is_empty() {
                    w.key("diagnostics");
                    write_strs(&mut w, &o.diagnostics);
                }
            }
            (Reply::Decide(o), Request::Decide { name, value, .. }) => {
                w.key("name");
                w.str_value(name);
                w.key("value");
                value.write(&mut w);
                w.key("focus");
                w.str_value(&o.focus);
                w.key("open_issues");
                w.int_value(o.open_issues);
            }
            (Reply::Retract(o), _) => {
                w.key("undone");
                write_strs(&mut w, &o.undone);
                w.key("focus");
                w.str_value(&o.focus);
            }
            (Reply::Eval(estimates), _) => {
                w.key("estimates");
                write_estimates(&mut w, estimates);
            }
            (Reply::Cores(o), _) => {
                w.key("count");
                w.int_value(o.count);
                w.key("offset");
                w.int_value(o.offset);
                w.key("returned");
                w.int_value(o.names.len() as i64);
                w.key("truncated");
                w.bool_value(o.truncated);
                w.key("cores");
                write_strs(&mut w, &o.names);
            }
            (Reply::Viable(o), Request::Viable { name, .. }) => {
                w.key("name");
                w.str_value(name);
                w.key("viable");
                write_viability(&mut w, &o.viable);
                if let Some(conflict) = &o.conflict {
                    w.key("conflict");
                    w.str_value(conflict);
                }
            }
            (Reply::Report(o), Request::Report { session }) => {
                w.key("session");
                w.str_value(session);
                w.key("snapshot");
                w.str_value(&o.snapshot);
                w.key("focus");
                w.str_value(&o.focus);
                w.key("bindings");
                w.begin_object();
                for (name, value) in &o.bindings {
                    w.key(name);
                    write_value(&mut w, value);
                }
                w.end_object();
                w.key("decisions");
                w.begin_array();
                for d in &o.decisions {
                    w.begin_object();
                    w.key("property");
                    w.str_value(&d.property);
                    w.key("value");
                    write_value(&mut w, &d.value);
                    w.key("stale");
                    w.bool_value(d.stale);
                    if let Some(note) = &d.note {
                        w.key("note");
                        w.str_value(note);
                    }
                    w.end_object();
                }
                w.end_array();
                w.key("open_requirements");
                write_strs(&mut w, &o.open_requirements);
                w.key("open_issues");
                write_strs(&mut w, &o.open_issues);
                w.key("estimates");
                write_estimates(&mut w, &o.estimates);
            }
            (Reply::Closed, Request::Close { session }) => {
                w.key("closed");
                w.str_value(session);
            }
            (Reply::Stats, _) => self.render_stats(&mut w),
            (Reply::Invalidated(dropped), Request::Invalidate { tool }) => {
                w.key("tool");
                w.str_value(tool);
                w.key("dropped");
                w.int_value(*dropped as i64);
            }
            (Reply::Draining, _) => {
                w.key("draining");
                w.bool_value(true);
            }
            // dispatch pairs each request with its own reply kind.
            _ => unreachable!("reply does not match its request"),
        }
        w.end_object();
    }

    /// Renders the `stats` fields straight off the engine's counters.
    fn render_stats(&self, w: &mut Writer<'_>) {
        let cache = self.cache.stats();
        w.key("sessions_open");
        w.int_value(self.open_sessions() as i64);
        w.key("sessions_opened");
        w.int_value(self.opened.load(Ordering::Relaxed) as i64);
        w.key("sessions_recovered");
        w.int_value(self.recovered.load(Ordering::Relaxed) as i64);
        w.key("requests");
        w.int_value(self.requests.load(Ordering::Relaxed) as i64);
        w.key("draining");
        w.bool_value(self.is_draining());
        w.key("snapshots");
        w.begin_array();
        for name in self.snapshots.keys() {
            w.str_value(name);
        }
        w.end_array();
        w.key("cache");
        w.begin_object();
        w.key("entries");
        w.int_value(self.cache.len() as i64);
        w.key("hits");
        w.int_value(cache.hits as i64);
        w.key("misses");
        w.int_value(cache.misses as i64);
        w.key("stores");
        w.int_value(cache.stores as i64);
        w.key("invalidated");
        w.int_value(cache.invalidated as i64);
        w.end_object();
        w.key("guard");
        w.begin_object();
        w.key("overloaded");
        w.int_value(self.overloaded.load(Ordering::Relaxed) as i64);
        w.key("deadline_exceeded");
        w.int_value(self.deadline_exceeded.load(Ordering::Relaxed) as i64);
        w.key("sessions_evicted");
        w.int_value(self.evicted.load(Ordering::Relaxed) as i64);
        w.key("journal_compactions");
        w.int_value(self.compactions.load(Ordering::Relaxed) as i64);
        w.end_object();
        w.key("breakers");
        w.begin_array();
        for b in self.supervisor.lock().unwrap().breaker_snapshot() {
            w.begin_object();
            w.key("tool");
            w.str_value(&b.tool);
            w.key("phase");
            w.str_value(b.phase);
            w.key("trips");
            w.int_value(b.trips as i64);
            w.key("short_circuits");
            w.int_value(b.short_circuits as i64);
            w.key("calls_until_probe");
            w.int_value(b.calls_until_probe as i64);
            w.end_object();
        }
        w.end_array();
        w.key("boot_warnings");
        w.begin_array();
        for warning in &self.boot_warnings {
            w.str_value(warning);
        }
        w.end_array();
    }

    // ---- session lifecycle -------------------------------------------------

    fn op_open(
        &self,
        session: Option<&str>,
        snapshot: Option<&str>,
        resume: bool,
    ) -> Result<OpenOut, ProtocolError> {
        if self.is_draining() {
            return Err(ProtocolError::new(
                DiagCode::ServerDraining,
                "server is draining; no new sessions",
            ));
        }
        let id = match session {
            Some(id) => {
                if !JournalDir::is_valid_id(id) {
                    return Err(ProtocolError::malformed(format!(
                        "invalid session id {id:?} (want 1-128 chars of [A-Za-z0-9._-], no leading dot)"
                    )));
                }
                id.to_owned()
            }
            None => self.generate_id(),
        };

        // Re-attach to an already-open slot: idempotent under `resume`,
        // a DSL305 conflict otherwise.
        if let Some(slot) = self.get_slot(&id) {
            if !resume {
                return Err(ProtocolError::new(
                    DiagCode::SessionExists,
                    format!("session {id:?} is already open (use resume to attach)"),
                ));
            }
            let mut slot = slot.lock().unwrap();
            slot.last_touch = self.requests.load(Ordering::Relaxed);
            let notes = std::mem::take(&mut slot.notes);
            return Ok(open_out(&id, &slot, notes));
        }

        // Admission: sweep idle sessions first, then enforce the cap
        // with a structured refusal the client can back off on.
        self.evict_idle();
        if self.open_sessions() >= self.guard.max_sessions {
            return Err(ProtocolError::overloaded(
                format!(
                    "session cap reached ({} open); close or retry later",
                    self.guard.max_sessions
                ),
                self.guard.retry_after_ms,
            ));
        }

        let (slot, notes) = if resume {
            let (slot, notes) = self.resume_slot(&id, snapshot)?;
            self.recovered.fetch_add(1, Ordering::Relaxed);
            (slot, notes)
        } else {
            if self
                .journal
                .as_ref()
                .is_some_and(|j| j.exists(&id))
            {
                return Err(ProtocolError::new(
                    DiagCode::SessionExists,
                    format!("session {id:?} has an unrecovered journal (resume it, or close it first)"),
                ));
            }
            let snapshot_name = snapshot.ok_or_else(|| {
                ProtocolError::malformed("missing required field \"snapshot\"")
            })?;
            let snap = self.snapshot(snapshot_name)?;
            if let Some(journal) = &self.journal {
                self.write_meta(journal, &id, &snap.name)?;
            }
            let state = ExplorationSession::new(&snap.space, snap.root).into_snapshot();
            (
                SessionSlot {
                    snapshot: snap,
                    state,
                    recovered: false,
                    notes: Vec::new(),
                    lookahead: None,
                    journal_records: 0,
                    appender: JournalAppender::new(),
                    last_touch: self.requests.load(Ordering::Relaxed),
                },
                Vec::new(),
            )
        };

        let mut sessions = self.sessions.lock().unwrap();
        if sessions.contains_key(&id) {
            return Err(ProtocolError::new(
                DiagCode::SessionExists,
                format!("session {id:?} was opened concurrently"),
            ));
        }
        let out = open_out(&id, &slot, notes);
        sessions.insert(id, Arc::new(Mutex::new(slot)));
        self.opened.fetch_add(1, Ordering::Relaxed);
        Ok(out)
    }

    fn op_close(&self, id: &str) -> Result<(), ProtocolError> {
        let removed = self.sessions.lock().unwrap().remove(id);
        if removed.is_none() {
            // A TTL-evicted session lives on as journal + meta sidecar;
            // close must still reap those, not claim the session is
            // unknown.
            let on_disk = self
                .journal
                .as_ref()
                .is_some_and(|j| j.exists(id) || read_meta(j, id).is_some());
            if !on_disk {
                return Err(unknown_session(id));
            }
        }
        if let Some(journal) = &self.journal {
            journal
                .remove(id)
                .map_err(|e| journal_fault(id, "remove journal", &e))?;
            let _ = fs::remove_file(meta_path(journal, id));
        }
        Ok(())
    }

    // ---- exploration ops ---------------------------------------------------

    fn op_decide(&self, id: &str, name: &str, value: Value) -> Result<DecideOut, ProtocolError> {
        self.with_session(id, |slot, session| {
            let kind = session
                .space()
                .find_property(session.focus(), name)
                .map(|(_, p)| p.kind());
            // Unknown properties fall through to decide() so the session
            // produces its own (precise) error. Both are all-or-nothing:
            // a rejected value leaves the session untouched.
            match kind {
                Some(PropertyKind::Requirement) => session.set_requirement(name, value),
                _ => session.decide(name, value),
            }
            .map_err(rejected)?;
            let d = session.log().last().expect("an applied decision is logged");
            if let Err(e) = self.append_journal(id, slot, |a, dir| a.append_decision(dir, id, d)) {
                // Journal-before-acknowledge: a decision that never
                // reached disk must not survive in the slot either.
                session.undo().expect("the decision was just logged");
                return Err(e);
            }
            // Keep the lookahead solver in lock-step: one decide = one
            // solver level (O(changed domains)); a focus move
            // invalidates its constraint set, so drop it instead.
            match slot.lookahead.as_mut() {
                Some(la)
                    if la.focus == session.focus() && la.synced + 1 == session.log().len() =>
                {
                    la.solver.decide(name, &d.value);
                    la.synced += 1;
                }
                Some(_) => slot.lookahead = None,
                None => {}
            }
            self.maybe_compact(id, slot, session);
            Ok(DecideOut {
                focus: session.space().path_string(session.focus()),
                open_issues: session.open_issues().len() as i64,
            })
        })
    }

    fn op_retract(&self, id: &str, name: Option<&str>) -> Result<RetractOut, ProtocolError> {
        self.with_session(id, |slot, session| {
            if let Some(name) = name {
                if !session.log().iter().any(|d| d.property == name) {
                    return Err(ProtocolError::new(
                        DiagCode::SessionRejected,
                        format!("{name:?} is not a decided property in this session"),
                    ));
                }
            }
            let mut undone = Vec::new();
            loop {
                // Undo fails only on an empty log, so check that first,
                // journal the undo, and only then make it: an undo that
                // never reached disk never happens. Earlier undos in this
                // loop are journaled and stay committed; a crash
                // mid-retract tears at most one record.
                if session.log().is_empty() {
                    return Err(rejected(DseError::NothingToUndo));
                }
                self.append_journal(id, slot, |a, dir| a.append(dir, id, &JournalRecord::Undo))?;
                let d = session.undo().expect("the log is not empty");
                match slot.lookahead.as_mut() {
                    Some(la)
                        if la.focus == session.focus()
                            && la.synced == session.log().len() + 1
                            && la.solver.depth() > 0 =>
                    {
                        la.solver.retract();
                        la.synced -= 1;
                    }
                    Some(_) => slot.lookahead = None,
                    None => {}
                }
                let done = name.is_none_or(|target| d.property == target);
                undone.push(d.property);
                if done {
                    break;
                }
            }
            self.maybe_compact(id, slot, session);
            Ok(RetractOut {
                undone,
                focus: session.space().path_string(session.focus()),
            })
        })
    }

    fn op_eval(
        &self,
        id: &str,
        budget: Option<&Fuel>,
    ) -> Result<Vec<(String, FigureOut)>, ProtocolError> {
        self.with_slot(id, |slot| {
            // Cloned, not moved: a deadline that runs out mid-ladder
            // returns early and must leave the slot's state untouched.
            let mut session =
                ExplorationSession::resume(&slot.snapshot.space, slot.state.clone());
            session.absorb_derived();
            {
                let supervisor = self.supervisor.lock().unwrap();
                match budget {
                    // The whole estimation ladder shares the request's
                    // budget; exhaustion answers DSL310 and commits
                    // nothing (the local session clone is discarded).
                    Some(b) => {
                        session.run_estimators_within(&supervisor, b).map_err(|e| {
                            ProtocolError::deadline(format!(
                                "deadline exceeded during eval: {e}"
                            ))
                        })?;
                    }
                    None => {
                        session.run_estimators(&supervisor);
                    }
                }
            }
            let estimates = sorted_estimates(&session);
            // The clone on entry keeps the deadline path all-or-nothing;
            // the commit is a move.
            slot.state = session.into_snapshot();
            Ok(estimates)
        })
    }

    fn op_cores(&self, id: &str, limit: usize, offset: usize) -> Result<CoresOut, ProtocolError> {
        self.with_slot(id, |slot| {
            // The explorer only reads the session (queries re-sync its
            // cursor against the log), so the state moves through it and
            // back into the slot at the end.
            let session = ExplorationSession::resume(
                &slot.snapshot.space,
                std::mem::take(&mut slot.state),
            );
            let library: &ReuseLibrary = &slot.snapshot.library;
            let roster = roster_from_indices(&[library], &slot.snapshot.roster);
            let explorer = Explorer::from_session_with_store_and_roster(
                session,
                [library],
                roster,
                Arc::clone(&slot.snapshot.store),
            );
            let total = explorer.surviving_count();
            let page = explorer.surviving_page(offset, limit);
            // Clip the page to the wire byte budget: the framed response
            // line must stay under the `foundation::net` cap no matter
            // how many (or how long) names the caller asked for.
            let mut names: Vec<String> = Vec::with_capacity(page.len().min(4_096));
            let mut bytes = 0usize;
            let mut truncated = false;
            for core in &page {
                // Encoded size plus the separating comma.
                let cost = escaped_len(core.name()) + 1;
                if bytes + cost > CORE_PAGE_BYTE_BUDGET {
                    truncated = true;
                    break;
                }
                bytes += cost;
                names.push(core.name().to_owned());
            }
            slot.state = explorer.session.into_snapshot();
            Ok(CoresOut {
                count: total as i64,
                offset: offset as i64,
                names,
                truncated,
            })
        })
    }

    fn op_viable(&self, id: &str, name: &str) -> Result<ViableOut, ProtocolError> {
        self.with_session(id, |slot, session| {
            let rebuild = match &slot.lookahead {
                Some(la) => la.focus != session.focus() || la.synced != session.log().len(),
                None => true,
            };
            if rebuild {
                slot.lookahead = Some(LookaheadSlot {
                    solver: Solver::on_net(slot.snapshot.net(session.focus()), session.bindings()),
                    synced: session.log().len(),
                    focus: session.focus(),
                });
            }
            let la = slot.lookahead.as_ref().expect("lookahead just ensured");
            Ok(ViableOut {
                viable: la.solver.viable(name),
                conflict: la.solver.initial_conflict().map(|c| c.to_string()),
            })
        })
    }

    fn op_report(&self, id: &str) -> Result<ReportOut, ProtocolError> {
        self.with_session(id, |slot, session| {
            // Bindings and estimates are keyed by interned symbol, whose
            // order is intern order — sort by name so reports are stable
            // across process histories.
            let mut bindings: Vec<(String, Value)> = session
                .bindings()
                .iter()
                .map(|(name, value)| (name.as_str().to_owned(), value.clone()))
                .collect();
            bindings.sort_by(|a, b| a.0.cmp(&b.0));
            let names = |props: Vec<&Property>| -> Vec<String> {
                props.iter().map(|p| p.name().to_owned()).collect()
            };
            Ok(ReportOut {
                snapshot: slot.snapshot.name.clone(),
                focus: session.space().path_string(session.focus()),
                bindings,
                decisions: session.log().to_vec(),
                open_requirements: names(session.open_requirements()),
                open_issues: names(session.open_issues()),
                estimates: sorted_estimates(session),
            })
        })
    }

    // ---- plumbing ----------------------------------------------------------

    fn snapshot(&self, name: &str) -> Result<Arc<Snapshot>, ProtocolError> {
        self.snapshots.get(name).cloned().ok_or_else(|| {
            ProtocolError::new(
                DiagCode::UnknownSnapshot,
                format!(
                    "unknown snapshot {name:?} (have: {})",
                    self.snapshot_names().join(", ")
                ),
            )
        })
    }

    fn get_slot(&self, id: &str) -> Option<Arc<Mutex<SessionSlot>>> {
        self.sessions.lock().unwrap().get(id).cloned()
    }

    fn with_slot<R>(
        &self,
        id: &str,
        f: impl FnOnce(&mut SessionSlot) -> Result<R, ProtocolError>,
    ) -> Result<R, ProtocolError> {
        let slot = match self.get_slot(id) {
            Some(slot) => slot,
            // TTL eviction must be invisible: a journaled session that
            // was swept re-materializes from disk on its next touch.
            None => self.lazy_resume(id)?,
        };
        let mut slot = slot.lock().unwrap();
        slot.last_touch = self.requests.load(Ordering::Relaxed);
        f(&mut slot)
    }

    /// [`with_slot`](Self::with_slot) with the slot's state resumed as a
    /// live session. The state moves into the session instead of being
    /// cloned, and moves back into the slot whatever `f` returns, so `f`
    /// must leave the session in the state the op commits — on error
    /// too.
    fn with_session<R>(
        &self,
        id: &str,
        f: impl FnOnce(&mut SessionSlot, &mut ExplorationSession<'_>) -> Result<R, ProtocolError>,
    ) -> Result<R, ProtocolError> {
        self.with_slot(id, |slot| {
            // The session borrows a clone of the Arc, not the slot, so `f`
            // can still update the slot (appender, lookahead) mid-op.
            let snapshot = Arc::clone(&slot.snapshot);
            let mut session =
                ExplorationSession::resume(&snapshot.space, std::mem::take(&mut slot.state));
            let result = f(slot, &mut session);
            slot.state = session.into_snapshot();
            result
        })
    }

    /// Re-opens an evicted session from its journal (or, for a session
    /// evicted before its first mutation, its meta sidecar alone).
    fn lazy_resume(&self, id: &str) -> Result<Arc<Mutex<SessionSlot>>, ProtocolError> {
        if self.journal.is_none() {
            return Err(unknown_session(id));
        }
        let (slot, _notes) = self.resume_slot(id, None).map_err(|mut e| {
            // Sessions that never existed should answer plain DSL304,
            // not a journal-layer error.
            if e.code == DiagCode::JournalFault && !self.journal.as_ref().unwrap().exists(id) {
                e = unknown_session(id);
            }
            e
        })?;
        let mut sessions = self.sessions.lock().unwrap();
        let arc = match sessions.entry(id.to_owned()) {
            std::collections::hash_map::Entry::Occupied(o) => Arc::clone(o.get()),
            std::collections::hash_map::Entry::Vacant(v) => {
                self.recovered.fetch_add(1, Ordering::Relaxed);
                Arc::clone(v.insert(Arc::new(Mutex::new(slot))))
            }
        };
        Ok(arc)
    }

    /// The resume path shared by `open … resume` and lazy re-open: a
    /// journal replays; a meta-only session (evicted before its first
    /// mutation) comes back fresh on its recorded snapshot.
    fn resume_slot(
        &self,
        id: &str,
        requested_snapshot: Option<&str>,
    ) -> Result<Resumed, ProtocolError> {
        let Some(journal) = &self.journal else {
            return Err(ProtocolError::new(
                DiagCode::UnknownSession,
                format!("session {id:?} is not open (journaling is disabled; nothing to resume)"),
            ));
        };
        if journal.exists(id) {
            return self
                .recover_one(journal, id, requested_snapshot)?
                .map_err(|e| unrecoverable(id, &e));
        }
        let meta = read_meta(journal, id).ok_or_else(|| unknown_session(id))?;
        let snap = self.snapshot(requested_snapshot.unwrap_or(&meta))?;
        let state = ExplorationSession::new(&snap.space, snap.root).snapshot();
        Ok((
            SessionSlot {
                snapshot: snap,
                state,
                recovered: true,
                notes: Vec::new(),
                lookahead: None,
                journal_records: 0,
                appender: JournalAppender::new(),
                last_touch: self.requests.load(Ordering::Relaxed),
            },
            Vec::new(),
        ))
    }

    /// Sweeps journaled sessions idle past the TTL (measured on the
    /// request counter). Slots mid-operation are skipped — `try_lock`
    /// failure means the session is anything but idle.
    fn evict_idle(&self) {
        let Some(ttl) = self.guard.session_ttl_requests else {
            return;
        };
        let Some(journal) = &self.journal else {
            return; // without a journal, eviction would destroy state
        };
        let now = self.requests.load(Ordering::Relaxed);
        let mut sessions = self.sessions.lock().unwrap();
        let stale: Vec<String> = sessions
            .iter()
            .filter(|(id, slot)| {
                // Only sessions that can come back: journal or meta on
                // disk. (Both are written at open/first-mutation, so in
                // practice every journaled-engine session qualifies.)
                (journal.exists(id) || read_meta(journal, id).is_some())
                    && slot
                        .try_lock()
                        .map(|s| now.saturating_sub(s.last_touch) > ttl)
                        .unwrap_or(false)
            })
            .map(|(id, _)| id.clone())
            .collect();
        for id in stale {
            sessions.remove(&id);
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Rewrites a session's journal as its [`Journal::checkpoint`] once
    /// it outgrows `compact_after` records. A session the checkpoint
    /// cannot reproduce (stale decisions from revisions) tries again
    /// after `compact_after` more records. Failure is never an op error
    /// — the uncompacted journal is still correct.
    fn maybe_compact(&self, id: &str, slot: &mut SessionSlot, session: &ExplorationSession<'_>) {
        let Some(journal) = &self.journal else {
            return;
        };
        if self.guard.compact_after == 0 || slot.journal_records < self.guard.compact_after {
            return;
        }
        let Some(checkpoint) = Journal::checkpoint(session) else {
            slot.journal_records = 0;
            return;
        };
        if journal.compact(id, &checkpoint).is_ok() {
            // Compaction renamed a fresh file over the journal; a held
            // append handle now points at the unlinked inode and must
            // be reopened before the next append.
            slot.appender.invalidate();
            slot.journal_records = checkpoint.len();
            self.compactions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn generate_id(&self) -> String {
        loop {
            let n = self.session_seq.fetch_add(1, Ordering::Relaxed) + 1;
            let id = format!("s{n}");
            let taken = self.sessions.lock().unwrap().contains_key(&id)
                || self.journal.as_ref().is_some_and(|j| j.exists(&id));
            if !taken {
                return id;
            }
        }
    }

    /// Appends one record to the session's journal (a no-op without
    /// one) through the slot's held handle: `append` renders it straight
    /// from the session, so acknowledging an op costs one `write_all`.
    fn append_journal(
        &self,
        id: &str,
        slot: &mut SessionSlot,
        append: impl FnOnce(&mut JournalAppender, &JournalDir) -> std::io::Result<()>,
    ) -> Result<(), ProtocolError> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        append(&mut slot.appender, journal).map_err(|e| journal_fault(id, "append", &e))?;
        slot.journal_records += 1;
        Ok(())
    }

    fn write_meta(
        &self,
        journal: &JournalDir,
        id: &str,
        snapshot: &str,
    ) -> Result<(), ProtocolError> {
        fs::write(meta_path(journal, id), format!("{snapshot}\n"))
            .map_err(|e| journal_fault(id, "write meta", &e))
    }

    /// Rebuilds one session from its journal, read and parsed once.
    /// A corrupt journal body comes back as the inner error, worded as
    /// the journal words it; everything else that refuses the session
    /// is the outer error.
    ///
    /// A dropped torn tail, or a final record without its newline, is
    /// rewritten away before the slot can append: otherwise the next
    /// record lands on the torn line and the next recovery drops it.
    fn recover_one(
        &self,
        journal: &JournalDir,
        id: &str,
        requested_snapshot: Option<&str>,
    ) -> Result<Result<Resumed, RecoverError>, ProtocolError> {
        let recovered = journal
            .recover(id)
            .map_err(|e| journal_fault(id, "read journal", &e))?
            .ok_or_else(|| unknown_session(id))?;
        let (loaded, report) = match recovered {
            Ok(loaded) => loaded,
            Err(corrupt) => return Ok(Err(corrupt)),
        };
        let snapshot_name = match requested_snapshot {
            Some(s) => s.to_owned(),
            None => read_meta(journal, id).ok_or_else(|| {
                ProtocolError::new(
                    DiagCode::JournalFault,
                    format!("session {id:?} has no snapshot metadata; pass \"snapshot\" to resume"),
                )
            })?,
        };
        let snap = self.snapshot(&snapshot_name)?;
        let session = loaded
            .replay(&snap.space, snap.root)
            .map_err(|e| unrecoverable(id, &e))?;
        if !report.is_appendable() {
            journal
                .compact(id, &loaded)
                .map_err(|e| journal_fault(id, "rewrite torn journal", &e))?;
        }
        let mut notes: Vec<String> = report
            .diagnostics
            .diagnostics()
            .iter()
            .map(|d| d.to_string())
            .collect();
        if requested_snapshot.is_some() && read_meta(journal, id).is_none() {
            // Resuming with an explicit snapshot repairs a missing meta
            // sidecar for the next boot.
            self.write_meta(journal, id, &snap.name)?;
            notes.push(format!("restored snapshot metadata for {id:?}"));
        }
        Ok(Ok((
            SessionSlot {
                state: session.into_snapshot(),
                snapshot: snap,
                recovered: true,
                notes: Vec::new(),
                lookahead: None,
                journal_records: loaded.len(),
                appender: JournalAppender::new(),
                last_touch: self.requests.load(Ordering::Relaxed),
            },
            notes,
        )))
    }

    /// The boot sweep: every journal in the directory becomes an open
    /// session again. Per-journal failures (corrupt body, missing meta,
    /// unknown snapshot, replay failure) become boot warnings; the
    /// journal file is left on disk for inspection.
    fn recover_journals(mut self) -> Result<Engine, String> {
        let Some(journal) = self.journal.clone() else {
            return Ok(self);
        };
        let mut warnings = Vec::new();
        let mut slots = Vec::new();
        for id in journal.ids().map_err(|e| e.to_string())? {
            let detail = match self.recover_one(&journal, &id, None) {
                Ok(Ok((mut slot, notes))) => {
                    slot.notes = notes;
                    slots.push((id, slot));
                    continue;
                }
                Ok(Err(corrupt)) => corrupt.to_string(),
                Err(e) => e.message,
            };
            warnings.push(format!("journal {id:?} not recovered: {detail}"));
        }
        {
            let mut sessions = self.sessions.lock().unwrap();
            for (id, slot) in slots {
                sessions.insert(id, Arc::new(Mutex::new(slot)));
                self.opened.fetch_add(1, Ordering::Relaxed);
                self.recovered.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.boot_warnings = warnings;
        Ok(self)
    }
}

fn open_out(id: &str, slot: &SessionSlot, notes: Vec<String>) -> OpenOut {
    OpenOut {
        session: id.to_owned(),
        snapshot: slot.snapshot.name.clone(),
        focus: slot.snapshot.space.path_string(slot.state.focus()),
        recovered: slot.recovered,
        diagnostics: notes,
    }
}

/// A session's estimates, sorted by name: they are keyed by interned
/// symbol, whose order is intern order.
fn sorted_estimates(session: &ExplorationSession<'_>) -> Vec<(String, FigureOut)> {
    let mut estimates: Vec<(String, FigureOut)> = session
        .estimates()
        .iter()
        .map(|(name, figure)| (name.as_str().to_owned(), figure_out(figure)))
        .collect();
    estimates.sort_by(|a, b| a.0.cmp(&b.0));
    estimates
}

fn figure_out(figure: &Figure) -> FigureOut {
    FigureOut {
        value: figure.value,
        provenance: figure.provenance.label(),
        source: figure.source.clone(),
    }
}

fn write_strs(w: &mut Writer<'_>, strs: &[String]) {
    w.begin_array();
    for s in strs {
        w.str_value(s);
    }
    w.end_array();
}

/// Renders name-sorted estimates as an object of figures.
fn write_estimates(w: &mut Writer<'_>, estimates: &[(String, FigureOut)]) {
    w.begin_object();
    for (name, figure) in estimates {
        w.key(name);
        w.begin_object();
        w.key("value");
        match figure.value {
            Some(v) => w.float_value(v),
            None => w.null_value(),
        }
        w.key("provenance");
        w.str_value(figure.provenance);
        w.key("source");
        w.str_value(&figure.source);
        w.end_object();
    }
    w.end_object();
}

/// Renders a viability verdict: `{"kind":…}` plus the kind's payload.
fn write_viability(w: &mut Writer<'_>, v: &Viability) {
    w.begin_object();
    w.key("kind");
    match v {
        Viability::Values(vs) => {
            w.str_value("values");
            w.key("options");
            w.begin_array();
            for value in vs {
                write_value(w, value);
            }
            w.end_array();
        }
        Viability::IntRange(lo, hi) => {
            w.str_value("int_range");
            w.key("lo");
            w.int_value(*lo);
            w.key("hi");
            w.int_value(*hi);
        }
        Viability::RealRange(lo, hi) => {
            w.str_value("real_range");
            w.key("lo");
            w.float_value(*lo);
            w.key("hi");
            w.float_value(*hi);
        }
        Viability::Open => w.str_value("open"),
        Viability::Empty => w.str_value("empty"),
    }
    w.end_object();
}

fn meta_path(journal: &JournalDir, id: &str) -> std::path::PathBuf {
    journal.path().join(format!("{id}.{META_EXT}"))
}

fn read_meta(journal: &JournalDir, id: &str) -> Option<String> {
    if !JournalDir::is_valid_id(id) {
        return None;
    }
    let text = fs::read_to_string(meta_path(journal, id)).ok()?;
    let name = text.trim();
    (!name.is_empty()).then(|| name.to_owned())
}

fn unknown_session(id: &str) -> ProtocolError {
    ProtocolError::new(
        DiagCode::UnknownSession,
        format!("session {id:?} is not open"),
    )
}

/// A journal that does not load or no longer replays.
fn unrecoverable(id: &str, e: &RecoverError) -> ProtocolError {
    ProtocolError::new(DiagCode::JournalFault, format!("session {id:?}: {e}"))
}

fn rejected(e: DseError) -> ProtocolError {
    ProtocolError::new(DiagCode::SessionRejected, e.to_string())
}

/// Debits `steps` from a request's deadline budget (no-op without one),
/// converting exhaustion into the wire-level `DSL310`.
fn charge(budget: Option<&Fuel>, steps: u64, what: &str) -> Result<(), ProtocolError> {
    match budget {
        Some(fuel) => fuel.spend(steps).map_err(|_| {
            ProtocolError::deadline(format!(
                "deadline exceeded during {what} (budget of {} steps spent)",
                fuel.limit()
            ))
        }),
        None => Ok(()),
    }
}

fn journal_fault(id: &str, what: &str, e: &dyn std::fmt::Display) -> ProtocolError {
    ProtocolError::new(
        DiagCode::JournalFault,
        format!("session {id:?}: {what} failed: {e}"),
    )
}
