//! The TCP transport: framed requests in, framed responses out,
//! pipelined per connection.
//!
//! The transport is a thin shell around [`Service::handle`]: the service
//! is internally locked (per-owner shards — see the service module
//! docs), so every connection thread calls straight into it with no
//! transport-level mutex. Each connection runs two threads:
//!
//! * the **reader** decodes length-prefixed [`Request`] frames
//!   ([`refstate_wire::FrameReader`]) and handles each one as it
//!   arrives, pushing the [`Response`] into a bounded queue — the
//!   connection's *pipeline window*. A client may therefore stream many
//!   requests before reading the first reply; once the window fills,
//!   the reader blocks, which backpressures the socket. With telemetry
//!   on, the reader flushes its thread's counters to the process
//!   collector after each request, so a `Metrics` request on any
//!   connection sees them.
//! * the **writer** drains that queue into response frames, batching
//!   opportunistically: it keeps writing while responses are ready and
//!   flushes when the queue runs dry, so a client with one request in
//!   flight still sees one flush per reply while a pipelining client
//!   gets batched writes.
//!
//! Responses always come back in request order (the reader handles
//! requests serially), so the 1:1 request/response protocol contract
//! holds under pipelining.
//!
//! Determinism note: per-owner verdict streams are pinned by the service
//! regardless of how many connections submit, tick, or drain — only each
//! owner's submission order matters. Clients that need a reproducible
//! stream submit each owner's journeys from one connection, in order
//! (the soak driver partitions owners across connections exactly this
//! way); how ticks and drains interleave is then irrelevant.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use refstate_telemetry as telemetry;
use refstate_wire::{write_message, FrameError, FrameReader};

use crate::driver::{TickDriver, TickDriverConfig};
use crate::proto::{Request, Response};
use crate::service::Service;

/// How many handled-but-unwritten responses a connection may buffer
/// before its reader stops decoding new requests (the per-connection
/// pipeline window).
const PIPELINE_WINDOW: usize = 128;

/// A running TCP server: the bound address, the accept-loop handle, and
/// the shared service (plus an optional background tick driver).
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_loop: JoinHandle<()>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
    service: Arc<Service>,
    driver: Option<TickDriver>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections; each connection is served on its own
    /// reader/writer thread pair against the shared service.
    pub fn bind(service: Service, addr: impl ToSocketAddrs) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Non-blocking accept so the loop can observe the shutdown flag
        // without needing a wake-up connection.
        listener.set_nonblocking(true)?;
        let service = Arc::new(service);
        let shutdown = Arc::new(AtomicBool::new(false));
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_loop = {
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let connections = Arc::clone(&connections);
            let next_conn = AtomicU32::new(0);
            thread::spawn(move || loop {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        telemetry::count("serve.net.connections", 1);
                        let conn_id = next_conn.fetch_add(1, Ordering::Relaxed);
                        let service = Arc::clone(&service);
                        let shutdown = Arc::clone(&shutdown);
                        let handle = thread::spawn(move || {
                            serve_connection(stream, service, shutdown, conn_id)
                        });
                        // Reap connections that have closed, so a resident
                        // server tracks only the live ones.
                        let mut registry = connections.lock().expect("connection registry");
                        registry.retain(|h| !h.is_finished());
                        registry.push(handle);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => return,
                }
            })
        };
        Ok(Server {
            addr,
            shutdown,
            accept_loop,
            connections,
            service,
            driver: None,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service, for in-process callers (a co-located tick
    /// driver, post-mortem stats) running beside the TCP clients.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
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

    /// Whether a `Shutdown` request has been processed.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Waits for the accept loop to exit (it exits after a client sends
    /// [`Request::Shutdown`], or after [`Server::stop`]), then for every
    /// connection to close. Waiting on the connections matters after a
    /// shutdown: outboxes stay drainable, and clients on *other*
    /// connections than the one that sent `Shutdown` may still be
    /// draining verdicts — exiting while they do would reset their
    /// sockets mid-read. Only then stops the tick driver, which serves
    /// those connections until they close, and returns the shared service
    /// for post-mortem inspection.
    pub fn join(mut self) -> Arc<Service> {
        let _ = self.accept_loop.join();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.connections.lock().expect("connection registry"));
        for handle in handles {
            let _ = handle.join();
        }
        if let Some(driver) = self.driver.take() {
            driver.stop();
        }
        self.service
    }

    /// Requests the accept loop to stop without a client shutdown.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

fn serve_connection(
    stream: TcpStream,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    conn_id: u32,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // The pipeline window: handled responses queue here for the writer
    // thread; a full window blocks the reader (socket backpressure).
    let (tx, rx) = mpsc::sync_channel::<Response>(PIPELINE_WINDOW);
    let writer_thread = thread::spawn(move || {
        let mut writer = io::BufWriter::new(write_half);
        while let Ok(response) = rx.recv() {
            if write_message(&mut writer, &response, refstate_wire::DEFAULT_MAX_FRAME).is_err() {
                return;
            }
            // Opportunistic batching: drain whatever else is already
            // settled before paying the flush.
            while let Ok(next) = rx.try_recv() {
                if write_message(&mut writer, &next, refstate_wire::DEFAULT_MAX_FRAME).is_err() {
                    return;
                }
            }
            if writer.flush().is_err() {
                return;
            }
        }
    });

    let mut reader = FrameReader::new(stream, refstate_wire::DEFAULT_MAX_FRAME);
    loop {
        match reader.read_message::<Request>() {
            Ok(Some(request)) => {
                telemetry::count_indexed("serve.conn.requests", conn_id, 1);
                let is_shutdown = matches!(request, Request::Shutdown);
                let response = service.handle(request);
                if telemetry::enabled() {
                    // Another connection's `Metrics` request reads the
                    // collector, which sees this thread's counts only once
                    // flushed; flushing before the reply goes out means a
                    // client that has its reply is already counted.
                    telemetry::flush_thread();
                }
                if tx.send(response).is_err() {
                    break; // writer died (client stopped reading)
                }
                if is_shutdown {
                    // The service has drained; stop accepting new
                    // connections. This connection stays open so the
                    // client can still drain outboxes and read stats.
                    shutdown.store(true, Ordering::SeqCst);
                }
            }
            Ok(None) => break, // clean EOF at a frame boundary
            Err(error) => {
                // Malformed frame: reply with a typed error, then close
                // (framing is lost once a frame is bad).
                let _ = tx.send(Response::Error {
                    message: frame_error_message(&error),
                });
                break;
            }
        }
    }
    drop(tx);
    let _ = writer_thread.join();
}

fn frame_error_message(error: &FrameError) -> String {
    format!("bad request frame: {error}")
}

/// A pipelining client: decoupled send and receive halves over one
/// connection, so a caller can keep a window of requests in flight and
/// collect the (request-ordered) responses as they settle.
///
/// The caller is responsible for windowing — pair every [`send`] with a
/// later [`recv`] and keep the gap bounded (the server's own window will
/// backpressure past ~[`128`](self) in-flight requests per connection).
///
/// [`send`]: PipelinedClient::send
/// [`recv`]: PipelinedClient::recv
pub struct PipelinedClient {
    writer: io::BufWriter<TcpStream>,
    reader: FrameReader<TcpStream>,
    unflushed: bool,
}

impl PipelinedClient {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<PipelinedClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = io::BufWriter::new(stream.try_clone()?);
        Ok(PipelinedClient {
            writer,
            reader: FrameReader::new(stream, refstate_wire::DEFAULT_MAX_FRAME),
            unflushed: false,
        })
    }

    /// Queues one request frame without flushing; consecutive sends
    /// batch into one socket write.
    pub fn send(&mut self, request: &Request) -> Result<(), FrameError> {
        write_message(&mut self.writer, request, refstate_wire::DEFAULT_MAX_FRAME)?;
        self.unflushed = true;
        Ok(())
    }

    /// Flushes any queued request frames to the socket.
    pub fn flush(&mut self) -> Result<(), FrameError> {
        if self.unflushed {
            self.writer.flush().map_err(FrameError::Io)?;
            self.unflushed = false;
        }
        Ok(())
    }

    /// Reads the next response (flushing queued requests first, so a
    /// recv can never deadlock on its own unsent request).
    pub fn recv(&mut self) -> Result<Response, FrameError> {
        self.flush()?;
        match self.reader.read_message::<Response>()? {
            Some(response) => Ok(response),
            None => Err(FrameError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before replying",
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;
    use std::time::Instant;

    fn stream_state_round_trip(addr: SocketAddr) {
        let mut client = PipelinedClient::connect(addr).expect("connect");
        client.send(&Request::StreamState).expect("send");
        let reply = client.recv().expect("recv");
        assert!(matches!(reply, Response::StreamState { .. }), "{reply:?}");
    }

    #[test]
    fn closed_connections_leave_the_registry() {
        let server = Server::bind(Service::new(ServeConfig::default()), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        for _ in 0..16 {
            stream_state_round_trip(addr);
        }
        // Each accept reaps whatever has closed, so a probe connection
        // sees at most itself and the previous probe still tracked.
        let tracked = || server.connections.lock().unwrap().len();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            stream_state_round_trip(addr);
            if tracked() <= 2 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{} connection handles still tracked",
                tracked()
            );
        }
        server.stop();
        server.join();
    }
}
