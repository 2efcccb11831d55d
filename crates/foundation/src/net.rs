//! Std-only TCP plumbing for line- and length-framed JSON protocols.
//!
//! The workspace's wire format is newline-delimited JSON over the
//! [`crate::json`] codec: one request per line in, one response per line
//! out. This module supplies the three pieces every such endpoint needs,
//! without reaching outside `std`:
//!
//! * [`read_line_bounded`] / [`write_line`] — the line framing itself,
//!   with a hard cap on line length so a hostile peer cannot make the
//!   reader buffer unbounded garbage. [`read_line_into`] is the
//!   buffer-reusing variant the daemon's hot path runs on.
//! * [`read_frame`] / [`write_frame`] — a length-prefixed alternative
//!   (`<decimal length>\n<payload>`) for payloads that may themselves
//!   contain newlines (bulk space uploads, archived journals).
//! * [`TcpServer`] — a non-blocking accept loop that polls a stop flag,
//!   so a daemon can drain gracefully instead of being killed out of
//!   `accept(2)`. Accepted streams have Nagle's algorithm off.

use std::io::{self, BufRead, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Default cap on a single line (or frame) read from a peer: 1 MiB.
pub const MAX_WIRE_BYTES: usize = 1 << 20;

/// How long the accept loop sleeps between polls of the stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

fn too_long(max: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("wire message exceeds the {max}-byte cap"),
    )
}

/// Reads one `\n`-terminated line, stripping the terminator (and a
/// preceding `\r`, for telnet-style clients).
///
/// Returns `Ok(None)` on a clean end-of-stream at a line boundary. A
/// stream that ends mid-line yields the partial line — the peer wrote
/// it deliberately; let the JSON parser judge it.
///
/// Allocates a fresh `String` per call; steady-state readers should hold
/// a scratch buffer and use [`read_line_into`] instead.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] once a line exceeds `max` bytes (the
/// connection should be dropped: the rest of the line cannot be
/// resynchronized), or any underlying read error.
pub fn read_line_bounded(reader: &mut impl BufRead, max: usize) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    if read_line_into(reader, max, &mut line)?.is_none() {
        return Ok(None);
    }
    Ok(Some(
        String::from_utf8(line).expect("read_line_into validated UTF-8"),
    ))
}

/// The zero-allocation core of [`read_line_bounded`]: clears and fills
/// the caller's scratch buffer with the next line (terminator stripped)
/// and returns it as `&str`, so a warm per-connection buffer absorbs
/// every read. Semantics are otherwise identical to
/// [`read_line_bounded`], including the `Ok(None)` clean-EOF contract.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] for an over-`max` line or non-UTF-8
/// content, or any underlying read error.
pub fn read_line_into<'b>(
    reader: &mut impl BufRead,
    max: usize,
    line: &'b mut Vec<u8>,
) -> io::Result<Option<&'b str>> {
    line.clear();
    if !fill_line(reader, max, line)? {
        return Ok(None);
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    let text = std::str::from_utf8(line).map_err(|e| {
        io::Error::new(io::ErrorKind::InvalidData, format!("line is not UTF-8: {e}"))
    })?;
    Ok(Some(text))
}

/// Appends the next line's bytes (without the `\n`) to `line`; `false`
/// means clean EOF with nothing read.
fn fill_line(reader: &mut impl BufRead, max: usize, line: &mut Vec<u8>) -> io::Result<bool> {
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(!line.is_empty());
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if line.len() + pos > max {
                    return Err(too_long(max));
                }
                line.extend_from_slice(&buf[..pos]);
                reader.consume(pos + 1);
                return Ok(true);
            }
            None => {
                let n = buf.len();
                if line.len() + n > max {
                    return Err(too_long(max));
                }
                line.extend_from_slice(buf);
                reader.consume(n);
            }
        }
    }
}

/// Writes `line` followed by `\n` and flushes.
///
/// # Errors
///
/// Any underlying write error.
pub fn write_line(writer: &mut impl Write, line: &str) -> io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Writes a length-prefixed frame: the payload length in ASCII decimal,
/// a newline, then the raw payload bytes. Flushes.
///
/// # Errors
///
/// Any underlying write error.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    writer.write_all(payload.len().to_string().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Reads one frame written by [`write_frame`]. Returns `Ok(None)` on a
/// clean end-of-stream before the length header.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] for a malformed length header, a
/// length beyond `max`, or a truncated payload; any underlying read
/// error otherwise.
pub fn read_frame(reader: &mut impl BufRead, max: usize) -> io::Result<Option<Vec<u8>>> {
    let header = match read_line_bounded(reader, 32)? {
        Some(h) => h,
        None => return Ok(None),
    };
    let len: usize = header.trim().parse().map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed frame length {header:?}"),
        )
    })?;
    if len > max {
        return Err(too_long(max));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// A TCP listener whose accept loop polls a stop flag: setting the flag
/// makes [`TcpServer::serve`] return instead of blocking forever in
/// `accept(2)` — the hook a daemon's graceful shutdown hangs off.
#[derive(Debug)]
pub struct TcpServer {
    listener: TcpListener,
    local: SocketAddr,
}

impl TcpServer {
    /// Binds (port 0 picks an ephemeral port; see
    /// [`TcpServer::local_addr`]).
    ///
    /// # Errors
    ///
    /// Any bind error.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        Ok(TcpServer { listener, local })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Accepts connections until `stop` becomes true, invoking `on_conn`
    /// for each accepted stream, restored to blocking mode and with
    /// `TCP_NODELAY` set: a request/response protocol writes whole
    /// replies, and Nagle's algorithm would hold a small one back until
    /// the peer ACKs the previous one. `on_conn` decides its own
    /// concurrency — spawn a thread, queue the stream, or handle it
    /// inline.
    ///
    /// # Errors
    ///
    /// A fatal accept error; `WouldBlock` is the poll rhythm, not an
    /// error, and per-connection setup failures skip that connection.
    pub fn serve(
        &self,
        stop: &AtomicBool,
        mut on_conn: impl FnMut(TcpStream, SocketAddr),
    ) -> io::Result<()> {
        loop {
            if stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    let setup = stream
                        .set_nonblocking(false)
                        .and_then(|()| stream.set_nodelay(true));
                    if setup.is_ok() {
                        on_conn(stream, peer);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// One injected network fault, drawn from a seeded [`NetFaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// No fault: the operation passes through.
    None,
    /// The connection dies: this and every later operation fail
    /// (`ConnectionReset` on reads, `BrokenPipe` on writes).
    Drop,
    /// A short read/write: only part of the buffer moves, forcing the
    /// caller's retry/`write_all` loop to do its job.
    Partial,
    /// A brief stall (1 ms) before the operation proceeds — enough to
    /// interleave with other connections, bounded so suites stay fast.
    Stall,
}

/// Per-mille rates for each fault class in a [`NetFaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFaultRates {
    /// ‰ of operations that kill the connection.
    pub drop_per_mille: u16,
    /// ‰ of operations that move only part of the buffer.
    pub partial_per_mille: u16,
    /// ‰ of operations that stall briefly first.
    pub stall_per_mille: u16,
}

impl NetFaultRates {
    /// No faults at all.
    pub fn benign() -> NetFaultRates {
        NetFaultRates {
            drop_per_mille: 0,
            partial_per_mille: 0,
            stall_per_mille: 0,
        }
    }

    /// The chaos-soak default: 2% drops, 10% partial transfers, 5%
    /// stalls.
    pub fn chaos() -> NetFaultRates {
        NetFaultRates {
            drop_per_mille: 20,
            partial_per_mille: 100,
            stall_per_mille: 50,
        }
    }
}

/// A seeded, precomputed fault schedule for a [`FaultStream`].
///
/// Mirrors `dse::robust::FaultPlan`: the whole schedule is drawn up
/// front from a [`crate::rng::StdRng`], indexed cyclically by operation
/// number, so every run with the same seed injects exactly the same
/// faults at exactly the same points regardless of timing or thread
/// interleaving.
#[derive(Debug, Clone)]
pub struct NetFaultPlan {
    schedule: Vec<NetFault>,
}

impl NetFaultPlan {
    /// Draws a schedule of `ops` entries from `seed` at `rates`.
    pub fn new(seed: u64, ops: usize, rates: NetFaultRates) -> NetFaultPlan {
        use crate::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4E45_5446_4155_4C54); // "NETFAULT"
        let mut schedule = Vec::with_capacity(ops.max(1));
        for _ in 0..ops.max(1) {
            let roll = rng.gen_range(0u16..1000);
            let drop_end = rates.drop_per_mille;
            let partial_end = drop_end + rates.partial_per_mille;
            let stall_end = partial_end + rates.stall_per_mille;
            schedule.push(if roll < drop_end {
                NetFault::Drop
            } else if roll < partial_end {
                NetFault::Partial
            } else if roll < stall_end {
                NetFault::Stall
            } else {
                NetFault::None
            });
        }
        NetFaultPlan { schedule }
    }

    /// A schedule that never faults.
    pub fn benign() -> NetFaultPlan {
        NetFaultPlan {
            schedule: vec![NetFault::None],
        }
    }

    /// The fault for operation `i` (cyclic past the schedule length).
    pub fn fault_for_op(&self, i: u64) -> NetFault {
        self.schedule[(i % self.schedule.len() as u64) as usize]
    }
}

/// A `Read + Write` wrapper that injects the faults of a
/// [`NetFaultPlan`], one schedule entry per I/O operation.
///
/// Drops are sticky: once the plan kills the connection, every later
/// operation fails too, exactly like a real broken socket. Partial
/// transfers move at most half the buffer (at least one byte), and
/// stalls sleep 1 ms — long enough to shuffle interleavings, short
/// enough for hermetic suites.
#[derive(Debug)]
pub struct FaultStream<S> {
    inner: S,
    plan: NetFaultPlan,
    op: u64,
    dead: bool,
}

impl<S> FaultStream<S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: NetFaultPlan) -> FaultStream<S> {
        FaultStream {
            inner,
            plan,
            op: 0,
            dead: false,
        }
    }

    /// Operations performed so far (fault schedule index).
    pub fn ops(&self) -> u64 {
        self.op
    }

    /// Whether an injected drop has killed this stream.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Unwraps the inner stream.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn next_fault(&mut self) -> NetFault {
        let fault = self.plan.fault_for_op(self.op);
        self.op += 1;
        fault
    }
}

impl<S: io::Read> io::Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected connection drop (sticky)",
            ));
        }
        match self.next_fault() {
            NetFault::Drop => {
                self.dead = true;
                Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected connection drop",
                ))
            }
            NetFault::Partial => {
                let cap = (buf.len() / 2).max(1).min(buf.len());
                self.inner.read(&mut buf[..cap])
            }
            NetFault::Stall => {
                std::thread::sleep(Duration::from_millis(1));
                self.inner.read(buf)
            }
            NetFault::None => self.inner.read(buf),
        }
    }
}

impl<S: Write> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected connection drop (sticky)",
            ));
        }
        match self.next_fault() {
            NetFault::Drop => {
                self.dead = true;
                Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "injected connection drop",
                ))
            }
            NetFault::Partial if buf.len() > 1 => self.inner.write(&buf[..buf.len() / 2]),
            NetFault::Stall => {
                std::thread::sleep(Duration::from_millis(1));
                self.inner.write(buf)
            }
            NetFault::Partial | NetFault::None => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected connection drop (sticky)",
            ));
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn lines_roundtrip_with_crlf_and_partial_tails() {
        let input = b"alpha\r\nbeta\ngamma".to_vec();
        let mut r = BufReader::new(&input[..]);
        assert_eq!(
            read_line_bounded(&mut r, 64).unwrap().as_deref(),
            Some("alpha")
        );
        assert_eq!(
            read_line_bounded(&mut r, 64).unwrap().as_deref(),
            Some("beta")
        );
        // Unterminated tail comes through; then clean EOF.
        assert_eq!(
            read_line_bounded(&mut r, 64).unwrap().as_deref(),
            Some("gamma")
        );
        assert_eq!(read_line_bounded(&mut r, 64).unwrap(), None);
    }

    #[test]
    fn read_line_into_reuses_one_scratch_buffer() {
        let input = b"first\r\nsecond\n\nlast".to_vec();
        let mut r = BufReader::new(&input[..]);
        let mut scratch = Vec::new();
        assert_eq!(
            read_line_into(&mut r, 64, &mut scratch).unwrap(),
            Some("first")
        );
        assert_eq!(
            read_line_into(&mut r, 64, &mut scratch).unwrap(),
            Some("second")
        );
        assert_eq!(read_line_into(&mut r, 64, &mut scratch).unwrap(), Some(""));
        assert_eq!(
            read_line_into(&mut r, 64, &mut scratch).unwrap(),
            Some("last")
        );
        assert_eq!(read_line_into(&mut r, 64, &mut scratch).unwrap(), None);
        // The scratch buffer grew once and was reused, not reallocated.
        assert!(scratch.capacity() >= 6);
    }

    #[test]
    fn oversized_lines_are_rejected_not_buffered() {
        let input = vec![b'x'; 1000];
        let mut r = BufReader::new(&input[..]);
        let err = read_line_bounded(&mut r, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn frames_carry_embedded_newlines() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"two\nlines").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(
            read_frame(&mut r, 64).unwrap().as_deref(),
            Some(&b"two\nlines"[..])
        );
        assert_eq!(read_frame(&mut r, 64).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r, 64).unwrap(), None);
    }

    #[test]
    fn bad_frame_headers_and_oversized_frames_fail() {
        let mut r = BufReader::new(&b"nope\nxxxx"[..]);
        assert!(read_frame(&mut r, 64).is_err());
        let mut buf = Vec::new();
        write_frame(&mut buf, &[b'y'; 100]).unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert!(read_frame(&mut r, 64).is_err());
    }

    #[test]
    fn tcp_server_echoes_and_stops_on_flag() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));

        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                server
                    .serve(&stop, |stream, _| {
                        let mut r = BufReader::new(stream.try_clone().unwrap());
                        let mut w = stream;
                        while let Ok(Some(line)) = read_line_bounded(&mut r, MAX_WIRE_BYTES) {
                            write_line(&mut w, &format!("echo {line}")).unwrap();
                        }
                    })
                    .unwrap();
            })
        };

        let client = TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(client.try_clone().unwrap());
        let mut w = client;
        write_line(&mut w, "hello").unwrap();
        assert_eq!(
            read_line_bounded(&mut r, 64).unwrap().as_deref(),
            Some("echo hello")
        );
        drop((r, w));

        stop.store(true, Ordering::SeqCst);
        accept.join().unwrap();
    }

    #[test]
    fn accepted_streams_have_nagle_off() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let stop = AtomicBool::new(false);
        let client = TcpStream::connect(addr).unwrap();
        let mut nodelay = None;
        server
            .serve(&stop, |stream, _| {
                nodelay = Some(stream.nodelay().unwrap());
                stop.store(true, Ordering::SeqCst);
            })
            .unwrap();
        drop(client);
        assert_eq!(
            nodelay,
            Some(true),
            "serve must hand on_conn a TCP_NODELAY stream"
        );
    }

    #[test]
    fn fault_plans_are_deterministic_per_seed() {
        let a = NetFaultPlan::new(9, 256, NetFaultRates::chaos());
        let b = NetFaultPlan::new(9, 256, NetFaultRates::chaos());
        let c = NetFaultPlan::new(10, 256, NetFaultRates::chaos());
        let draw = |p: &NetFaultPlan| (0..512).map(|i| p.fault_for_op(i)).collect::<Vec<_>>();
        assert_eq!(draw(&a), draw(&b));
        assert_ne!(draw(&a), draw(&c), "different seeds should differ");
        // Cyclic indexing past the schedule length.
        assert_eq!(a.fault_for_op(0), a.fault_for_op(256));
        // Benign plans never fault.
        let benign = NetFaultPlan::new(9, 256, NetFaultRates::benign());
        assert!(draw(&benign).iter().all(|&f| f == NetFault::None));
    }

    #[test]
    fn fault_stream_injects_sticky_drops_and_partial_writes() {
        // A plan that is 100% drops: first op kills the stream for good.
        let all_drop = NetFaultPlan::new(
            1,
            8,
            NetFaultRates {
                drop_per_mille: 1000,
                partial_per_mille: 0,
                stall_per_mille: 0,
            },
        );
        let mut s = FaultStream::new(Vec::<u8>::new(), all_drop);
        let err = s.write(b"hello").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(s.is_dead());
        assert_eq!(s.write(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert!(s.flush().is_err());

        // A plan that is 100% partial transfers: write_all still lands
        // every byte, it just takes several write calls.
        let all_partial = NetFaultPlan::new(
            1,
            8,
            NetFaultRates {
                drop_per_mille: 0,
                partial_per_mille: 1000,
                stall_per_mille: 0,
            },
        );
        let mut s = FaultStream::new(Vec::<u8>::new(), all_partial);
        s.write_all(b"twelve bytes").unwrap();
        assert!(s.ops() > 1, "partial writes must split the buffer");
        assert_eq!(s.into_inner(), b"twelve bytes");

        // Partial reads deliver the full message across multiple reads.
        let mut r = FaultStream::new(
            &b"payload"[..],
            NetFaultPlan::new(
                2,
                8,
                NetFaultRates {
                    drop_per_mille: 0,
                    partial_per_mille: 1000,
                    stall_per_mille: 0,
                },
            ),
        );
        let mut out = Vec::new();
        io::Read::read_to_end(&mut r, &mut out).unwrap();
        assert_eq!(out, b"payload");
    }
}
