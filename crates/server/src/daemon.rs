//! The TCP front: one thread per connection over
//! [`foundation::net::TcpServer`], with graceful drain and admission
//! control.
//!
//! Each connection reads newline-delimited JSON requests and is served
//! by one inline loop, [`serve_connection`]: whatever the client has
//! pipelined (every complete line already buffered) is one burst,
//! answered in request order on the connection's own thread into one
//! reused reply buffer and written with one `write` per burst.
//! Parallelism is per connection: distinct connections run on distinct
//! threads, while one connection's burst runs sequentially. Accepted
//! sockets have Nagle's algorithm off (`TCP_NODELAY`), so a small reply
//! leaves as soon as it is written instead of waiting for the client's
//! next ACK.
//!
//! Overload protection (tunables in [`crate::guard::GuardConfig`]):
//! a connection past `max_connections` is answered with a single
//! `DSL309` line (carrying `retry_after_ms`) and dropped; pipelined
//! requests past `max_inflight_per_conn` in one burst are shed the same
//! way, in request order, so a backed-off client loses nothing silently;
//! a connection idle past `read_timeout` mid-read is reaped — the
//! slow-loris defense. Both registries (socket clones for drain wake-up,
//! thread handles for join) are swept as connections finish, so a
//! long-lived daemon's bookkeeping is bounded by *live* connections,
//! not by every connection it ever accepted.
//!
//! Drain protocol: a `shutdown` request flips the engine's draining
//! flag. The connection that carried it finishes its burst, then trips
//! the accept loop's stop flag; [`Server::run`] wakes every blocked
//! reader with `shutdown(Read)` — pending responses still flush, the
//! sockets just stop producing requests — and joins all connection
//! threads before returning.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::{io, thread};

use foundation::net::{self, TcpServer, MAX_WIRE_BYTES};

use crate::engine::Engine;
use crate::protocol::{parse_request, render_err_into, ProtocolError};

/// Registries of live connections: socket clones (for drain wake-up)
/// and thread handles (for join), both keyed by a per-connection id so
/// finished entries can be swept instead of accumulating forever.
#[derive(Debug, Default)]
struct Registry {
    conns: Mutex<HashMap<u64, TcpStream>>,
    threads: Mutex<HashMap<u64, JoinHandle<()>>>,
    /// Connections currently being served (admission-control gauge; the
    /// maps above may briefly lag it during setup/teardown).
    active: AtomicUsize,
}

impl Registry {
    /// Joins every thread whose connection already finished. Called on
    /// each accept, so the handle map is bounded by live connections
    /// plus at most the batch that ended since the last accept.
    fn sweep_finished(&self) {
        let finished: Vec<u64> = {
            let threads = self.threads.lock().unwrap();
            threads
                .iter()
                .filter(|(_, h)| h.is_finished())
                .map(|(&id, _)| id)
                .collect()
        };
        for id in finished {
            let handle = self.threads.lock().unwrap().remove(&id);
            if let Some(h) = handle {
                let _ = h.join();
            }
        }
    }
}

/// Removes a connection's registry entries when its thread exits, on
/// every path out (EOF, error, reap, drain, panic).
struct ConnGuard {
    registry: Arc<Registry>,
    id: u64,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.registry.conns.lock().unwrap().remove(&self.id);
        self.registry.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running daemon: the listener thread plus its connection threads.
#[derive(Debug)]
pub struct Server {
    engine: Arc<Engine>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<io::Result<()>>>,
    registry: Arc<Registry>,
}

impl Server {
    /// Binds and starts accepting (bind to port 0 for an ephemeral
    /// port; see [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Any bind error.
    pub fn start(engine: Arc<Engine>, addr: impl ToSocketAddrs) -> io::Result<Server> {
        let tcp = TcpServer::bind(addr)?;
        let local = tcp.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(Registry::default());
        let next_id = AtomicU64::new(0);

        let accept = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                tcp.serve(&stop, |stream, _peer| {
                    if engine.is_draining() {
                        return; // dropping the stream refuses the connection
                    }
                    registry.sweep_finished();
                    let guard_cfg = engine.guard();
                    let admitted =
                        registry.active.fetch_add(1, Ordering::SeqCst) < guard_cfg.max_connections;
                    if !admitted {
                        registry.active.fetch_sub(1, Ordering::SeqCst);
                        engine.note_overload();
                        refuse_connection(stream, guard_cfg.retry_after_ms);
                        return;
                    }
                    let _ = stream.set_read_timeout(guard_cfg.read_timeout);
                    let id = next_id.fetch_add(1, Ordering::Relaxed);
                    if let Ok(clone) = stream.try_clone() {
                        registry.conns.lock().unwrap().insert(id, clone);
                    }
                    let engine = Arc::clone(&engine);
                    let stop = Arc::clone(&stop);
                    let conn_guard = ConnGuard {
                        registry: Arc::clone(&registry),
                        id,
                    };
                    let handle = thread::spawn(move || {
                        let _cleanup = conn_guard;
                        connection(&engine, stream, &stop);
                    });
                    registry.threads.lock().unwrap().insert(id, handle);
                })
            })
        };

        Ok(Server {
            engine,
            addr: local,
            stop,
            accept: Some(accept),
            registry,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind the listener.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.registry.active.load(Ordering::SeqCst)
    }

    /// Requests drain from outside the protocol (equivalent to a
    /// `shutdown` request): stops accepting and wakes blocked readers.
    pub fn request_stop(&self) {
        self.engine.begin_drain();
        self.stop.store(true, Ordering::SeqCst);
        for s in self.registry.conns.lock().unwrap().values() {
            let _ = s.shutdown(Shutdown::Read);
        }
    }

    /// Blocks until the daemon drains (a `shutdown` request, or
    /// [`Server::request_stop`] from another thread), then joins every
    /// connection thread.
    ///
    /// # Errors
    ///
    /// A fatal accept-loop error.
    pub fn run(mut self) -> io::Result<()> {
        let result = match self.accept.take() {
            Some(h) => h.join().unwrap_or_else(|_| {
                Err(io::Error::other("accept thread panicked"))
            }),
            None => Ok(()),
        };
        // The accept thread has exited, so both registries are final.
        for s in self.registry.conns.lock().unwrap().values() {
            let _ = s.shutdown(Shutdown::Read);
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut threads = self.registry.threads.lock().unwrap();
            threads.drain().map(|(_, h)| h).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        result
    }
}

/// Answers an over-cap connection with one structured refusal line and
/// drops it.
fn refuse_connection(mut stream: TcpStream, retry_after_ms: u64) {
    let mut line = Vec::new();
    render_err_into(
        &mut line,
        None,
        &ProtocolError::overloaded("connection limit reached", retry_after_ms),
    );
    line.push(b'\n');
    let _ = stream.write_all(&line).and_then(|()| stream.flush());
}

/// Whether a read error means the peer merely went quiet (read timeout:
/// reap the connection) rather than sent something unframeable.
fn is_idle_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// One connection: the socket is both the reader (buffered) and the
/// writer (unbuffered: [`serve_connection`] hands it whole bursts).
fn connection(engine: &Engine, stream: TcpStream, stop: &AtomicBool) {
    let mut reader = io::BufReader::new(&stream);
    serve_connection(engine, &mut reader, &mut &stream, stop);
}

/// Once the pending replies of a burst reach this many bytes they are
/// written out mid-burst, so a burst of large `surviving_cores` pages
/// holds at most this much plus one reply, not the whole burst.
pub const WRITE_AT: usize = 64 * 1024;

/// Serves one connection until EOF, error, idle timeout, or drain.
///
/// A burst is every complete line the client has already pipelined
/// (the reader's buffer still holds a `\n`). Its lines are answered in
/// order on this thread into one reused reply buffer, which is written
/// once per burst (and early, whenever it passes [`WRITE_AT`]). Lines
/// past `max_inflight_per_conn` in one burst are shed with `DSL309` in
/// request order. In steady state the loop allocates nothing: the line
/// and reply buffers stay warm across bursts.
///
/// Generic over the transport so tests can drive it in memory; the
/// daemon runs it on a `TcpStream`. The reader is a `BufReader` rather
/// than any `BufRead` because ending a burst means peeking at what is
/// already buffered without blocking for more.
#[doc(hidden)]
pub fn serve_connection(
    engine: &Engine,
    reader: &mut io::BufReader<impl Read>,
    writer: &mut impl Write,
    stop: &AtomicBool,
) {
    let cap = engine.guard().max_inflight_per_conn.max(1);
    let mut line_buf: Vec<u8> = Vec::new();
    let mut resp_buf: Vec<u8> = Vec::new();
    let mut in_burst = 0;
    loop {
        let line = match net::read_line_into(reader, MAX_WIRE_BYTES, &mut line_buf) {
            Ok(Some(line)) => line,
            // A burst always ends with a flush, so nothing is pending
            // when the next read finds EOF or an idle peer.
            Ok(None) => return,                      // clean EOF
            Err(e) if is_idle_timeout(&e) => return, // reap the idle connection
            Err(e) => {
                // An unframeable line (oversized / not UTF-8): answer
                // what came before it, tell the client why, then drop
                // the connection — the stream cannot be resynchronized.
                render_err_into(
                    &mut resp_buf,
                    None,
                    &ProtocolError::malformed(e.to_string()),
                );
                resp_buf.push(b'\n');
                let _ = writer.write_all(&resp_buf).and_then(|()| writer.flush());
                return;
            }
        };
        if in_burst < cap {
            engine.handle_line_into(line, &mut resp_buf);
        } else {
            shed_into(engine, line, &mut resp_buf);
        }
        resp_buf.push(b'\n');
        in_burst += 1;
        let burst_done = !reader.buffer().contains(&b'\n');
        if burst_done || resp_buf.len() >= WRITE_AT {
            if writer
                .write_all(&resp_buf)
                .and_then(|()| writer.flush())
                .is_err()
            {
                return;
            }
            resp_buf.clear();
        }
        if burst_done {
            in_burst = 0;
            if engine.is_draining() {
                // Carry the drain to the accept loop; run() wakes the rest.
                stop.store(true, Ordering::SeqCst);
                return;
            }
        }
    }
}

/// Backpressure: answers a request past the per-connection cap with a
/// `DSL309` line carrying the retry hint, so a backed-off client loses
/// nothing silently.
fn shed_into(engine: &Engine, line: &str, out: &mut Vec<u8>) {
    engine.note_overload();
    let guard_cfg = engine.guard();
    // Decoded only for the id the refusal echoes.
    let (_, env) = parse_request(line);
    render_err_into(
        out,
        env.id.as_deref(),
        &ProtocolError::overloaded(
            format!(
                "batch limit reached ({} in flight on this connection)",
                guard_cfg.max_inflight_per_conn
            ),
            guard_cfg.retry_after_ms,
        ),
    );
}
