//! The TCP transport: framed requests in, framed responses out,
//! pipelined per connection.
//!
//! The transport is a thin shell around [`Service::handle`]: the service
//! is internally locked (per-owner shards — see the service module
//! docs), so every connection thread calls straight into it with no
//! transport-level mutex. Each accepted connection runs on one thread
//! over its one socket, read through a [`BufReader`] and written through
//! a [`BufWriter`]:
//!
//! * the thread decodes a length-prefixed [`Request`] frame
//!   ([`refstate_wire::FrameReader`]), handles it, and writes the
//!   [`Response`]. With telemetry on, it flushes its counters to the
//!   process collector after each request, so a `Metrics` request on any
//!   connection sees them;
//! * it flushes the socket whenever its read buffer holds no further
//!   complete request. A client may therefore stream many requests
//!   before reading the first reply: a pipelined burst gets its replies
//!   in one write, and no reply waits on request bytes the client has not
//!   sent yet. A client that stops reading fills the socket, which blocks
//!   the thread's writes and so its reads (socket backpressure).
//!
//! Responses always come back in request order (one thread handles a
//! connection's requests serially), so the 1:1 request/response protocol
//! contract holds under pipelining.
//!
//! The accept loop runs the connection threads in a [`thread::scope`], so
//! [`Server::join`] waits for every connection to close and a closed
//! connection leaves nothing behind. A failed accept (say, the process is
//! out of file descriptors) is counted as `serve.net.accept_errors` and
//! retried; it never stops the server. The accept thread flushes each
//! accept and error it counts, so a live `Metrics` reply shows them.
//!
//! Determinism note: per-owner verdict streams are pinned by the service
//! regardless of how many connections submit, tick, or drain — only each
//! owner's submission order matters. Clients that need a reproducible
//! stream submit each owner's journeys from one connection, in order
//! (the soak driver partitions owners across connections exactly this
//! way); how ticks and drains interleave is then irrelevant.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use refstate_telemetry as telemetry;
use refstate_wire::{write_message, FrameError, FrameReader, DEFAULT_MAX_FRAME};

use crate::driver::{TickDriver, TickDriverConfig};
use crate::proto::{Request, Response};
use crate::service::Service;

/// A running TCP server: the bound address, the accept-loop handle, and
/// the shared service (plus an optional background tick driver).
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_loop: JoinHandle<()>,
    service: Arc<Service>,
    driver: Option<TickDriver>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections; each connection is served on a thread of
    /// its own against the shared service.
    pub fn bind(service: Service, addr: impl ToSocketAddrs) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Non-blocking accept so the loop can observe the shutdown flag
        // without needing a wake-up connection.
        listener.set_nonblocking(true)?;
        let service = Arc::new(service);
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_loop = {
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || accept_until_shutdown(&listener, &service, &shutdown))
        };
        Ok(Server {
            addr,
            shutdown,
            accept_loop,
            service,
            driver: None,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts the background tick driver over this server's service; it
    /// runs until [`Server::join`] returns.
    ///
    /// # Panics
    ///
    /// Panics if the service already had a driver (see
    /// [`TickDriver::start`]).
    pub fn start_tick_driver(&mut self) {
        self.driver = Some(TickDriver::start(
            Arc::clone(&self.service),
            TickDriverConfig,
        ));
    }

    /// Waits for the accept loop to exit (it exits after a client sends
    /// [`Request::Shutdown`], or after [`Server::stop`]) once every
    /// connection has closed: the connection threads are scoped to the
    /// loop. Waiting on the connections matters after a shutdown:
    /// outboxes stay drainable, and clients on *other* connections than
    /// the one that sent `Shutdown` may still be draining verdicts —
    /// exiting while they do would reset their sockets mid-read. Only then
    /// stops the tick driver, which serves those connections until they
    /// close, and returns the shared service for post-mortem inspection.
    pub fn join(self) -> Arc<Service> {
        let _ = self.accept_loop.join();
        if let Some(driver) = self.driver {
            driver.stop();
        }
        self.service
    }

    /// Requests the accept loop to stop without a client shutdown.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

/// Accepts connections until `shutdown` is set, each served on a scoped
/// thread of its own; returns once the last of them has closed.
fn accept_until_shutdown(listener: &TcpListener, service: &Service, shutdown: &AtomicBool) {
    thread::scope(|scope| {
        let mut next_conn = 0u32;
        while !shutdown.load(Ordering::SeqCst) {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(error) => {
                    // Nothing to accept yet, or the accept failed (no file
                    // descriptor left, a peer gone before its accept):
                    // either way, wait and keep serving.
                    if error.kind() != io::ErrorKind::WouldBlock {
                        count_now("serve.net.accept_errors");
                    }
                    thread::sleep(Duration::from_millis(5));
                    continue;
                }
            };
            count_now("serve.net.connections");
            let conn_id = next_conn;
            next_conn = next_conn.wrapping_add(1);
            let spawned = thread::Builder::new().spawn_scoped(scope, move || {
                serve_connection(&stream, service, shutdown, conn_id)
            });
            if spawned.is_err() {
                // The unspawned closure dropped the stream: only this
                // connection closes.
                count_now("serve.net.accept_errors");
            }
        }
    });
}

/// Counts one accept-loop event and flushes it at once: the accept thread
/// lives as long as the server, and a live `Metrics` reply sees only what
/// has been flushed (a new connection's own reply included).
fn count_now(name: &'static str) {
    telemetry::count(name, 1);
    if telemetry::enabled() {
        telemetry::flush_thread();
    }
}

/// Serves one connection until the client hangs up, stops reading, or
/// sends a bad frame.
fn serve_connection(stream: &TcpStream, service: &Service, shutdown: &AtomicBool, conn_id: u32) {
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(stream);
    loop {
        let request = match FrameReader::new(&mut reader, DEFAULT_MAX_FRAME).read_message() {
            Ok(Some(request)) => request,
            Ok(None) => return, // clean EOF at a frame boundary
            Err(error) => {
                // Malformed frame: reply with a typed error, then close
                // (framing is lost once a frame is bad).
                let reply = Response::Error {
                    message: format!("bad request frame: {error}"),
                };
                if write_message(&mut writer, &reply, DEFAULT_MAX_FRAME).is_ok() {
                    let _ = writer.flush();
                }
                return;
            }
        };
        telemetry::count_indexed("serve.conn.requests", conn_id, 1);
        let is_shutdown = matches!(request, Request::Shutdown);
        let response = service.handle(request);
        if telemetry::enabled() {
            // Another connection's `Metrics` request reads the collector,
            // which sees this thread's counts only once flushed; flushing
            // before the reply goes out means a client that has its reply
            // is already counted.
            telemetry::flush_thread();
        }
        if is_shutdown {
            // The service has drained; stop accepting new connections.
            // This connection stays open so the client can still drain
            // outboxes and read stats.
            shutdown.store(true, Ordering::SeqCst);
        }
        // Replies wait in the buffer only while the next request can be
        // read without blocking.
        if write_message(&mut writer, &response, DEFAULT_MAX_FRAME).is_err()
            || (!holds_frame(reader.buffer()) && writer.flush().is_err())
        {
            return; // the socket failed, or the reply overran the frame cap
        }
    }
}

/// Whether `buffered` starts with a whole frame, so reading it cannot
/// block on the client.
fn holds_frame(buffered: &[u8]) -> bool {
    buffered
        .split_first_chunk::<4>()
        .is_some_and(|(header, payload)| payload.len() >= u32::from_le_bytes(*header) as usize)
}

/// A pipelining client: requests queue until a flush sends them in one
/// write, and the (request-ordered) responses are read as they arrive.
///
/// The caller is responsible for windowing: pair every [`send`] with a
/// later [`recv`] and keep the gap bounded. The server writes each reply
/// before it reads the next request, so once a window's replies fill the
/// socket buffers, the server reads no more of it until the client
/// receives.
///
/// [`send`]: PipelinedClient::send
/// [`recv`]: PipelinedClient::recv
pub struct PipelinedClient {
    stream: BufReader<TcpStream>,
    queued: Vec<u8>,
}

impl PipelinedClient {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<PipelinedClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(PipelinedClient {
            stream: BufReader::new(stream),
            queued: Vec::new(),
        })
    }

    /// Queues one request frame without sending it; consecutive sends
    /// go out in one socket write.
    pub fn send(&mut self, request: &Request) -> Result<(), FrameError> {
        write_message(&mut self.queued, request, DEFAULT_MAX_FRAME)
    }

    /// Writes any queued request frames to the socket.
    pub fn flush(&mut self) -> Result<(), FrameError> {
        self.stream.get_mut().write_all(&self.queued)?;
        self.queued.clear();
        Ok(())
    }

    /// Reads the next response (flushing queued requests first, so a
    /// recv can never deadlock on its own unsent request).
    pub fn recv(&mut self) -> Result<Response, FrameError> {
        self.flush()?;
        match FrameReader::new(&mut self.stream, DEFAULT_MAX_FRAME).read_message()? {
            Some(response) => Ok(response),
            None => Err(FrameError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before replying",
            ))),
        }
    }
}
