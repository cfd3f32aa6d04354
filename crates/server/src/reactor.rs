//! Event-driven reactor core: one nonblocking I/O thread multiplexing
//! every accepted socket over `poll(2)`, with synthesis work handed to a
//! small executor pool.
//!
//! ## Architecture
//!
//! ```text
//!             ┌──────────── reactor thread ────────────┐
//!   accept ──▶│ slab of connections                    │
//!             │   Idle ── POLLIN ──▶ Reading ──▶ parse │
//!             │   parse ok ──▶ Working (job queued) ───┼──▶ executor pool
//!             │   Blocked write ◀── Done::Blocked ─────┼──◀ (route + write)
//!             │   WritePending ── POLLOUT ──▶ resume ──┼──▶ executor pool
//!             │   deadlines: read / idle / write ──▶ ✂ │
//!             └────────────────────────────────────────┘
//! ```
//!
//! The reactor thread owns every socket's *readiness*: it accepts,
//! parses (cheap, bounded by `Limits`), expires deadlines, and closes.
//! Executors own the expensive part — routing a parsed request through
//! the registry/ledger and writing the response. A response write that
//! hits `WouldBlock` is returned to the reactor as a `Done::Blocked`
//! carrying the resumable [`ResponseWriter`], the socket joins the poll
//! set for `POLLOUT`, and the executor moves on: a slow reader costs a
//! slab slot, never a thread.
//!
//! The connection contracts: responses byte-identical to
//! `Response::write_to` for the same `route()` output (by construction:
//! `ResponseWriter` frames through the same head writer and chunk
//! framer); a request-read deadline that answers a typed 408
//! (`HttpError::Io(TimedOut)`), and a keep-alive deadline that closes an
//! idle connection silently; on EOF, a silent close when the reader says
//! no byte of the next request arrived
//! (`RequestReader::between_requests`) and a 400 otherwise;
//! `max_requests_per_connection`; exactly-once ledger charging (inside
//! `route()`, before any byte is written); and graceful shutdown that
//! drains in-flight work but retires idle connections immediately. A
//! configured timeout too large for an `Instant` (`Duration::MAX`)
//! means no deadline.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::http::{
    HttpError, Method, Request, RequestReader, ResponseWriter, Version, WriteProgress,
};
use crate::metrics::InFlightGuard;
use crate::sys::{poll_fds, PollFd, WakeHandle, Waker, POLLIN, POLLOUT};
use crate::{error_response, route, ServerConfig, Service};

/// Synthetic poll-set id for the waker pipe.
const WAKER_ID: u64 = u64::MAX;
/// Synthetic poll-set id for the listener.
const LISTENER_ID: u64 = u64::MAX - 1;
/// How long a rejected connection may dribble its remaining request
/// bytes before the socket is dropped. The drain keeps a close with
/// unread bytes from sending an RST that would discard the error
/// response before the client reads it.
const DRAIN_WINDOW: Duration = Duration::from_millis(200);
/// Byte budget for that drain — a client still uploading megabytes
/// after a 4xx is cut off rather than serviced.
const DRAIN_BYTES: usize = 256 * 1024;
/// Back-off before re-arming `accept` after a transient accept error
/// (e.g. EMFILE): keeps the loop from spinning while still recovering.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// The deadline `timeout` from now; `None` (no deadline) when it lies
/// beyond what an `Instant` can hold, which is how `Duration::MAX`
/// disables a configured timeout.
fn deadline_after(timeout: Duration) -> Option<Instant> {
    Instant::now().checked_add(timeout)
}

/// Milliseconds since the Unix epoch, for timestamping access log lines.
/// Returns 0 if the system clock is before the epoch.
fn unix_millis() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// A `TcpStream` shared between the reactor (reads, polls, closes) and
/// executors (writes).
#[derive(Clone)]
pub(crate) struct SharedStream(Arc<TcpStream>);

impl Read for SharedStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        (&*self.0).read(buf)
    }
}

impl Write for SharedStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        (&*self.0).write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        (&*self.0).flush()
    }
}

/// Work handed to the executor pool.
enum Job {
    /// A fully parsed request: route it and write the response.
    Request(RequestJob),
    /// A previously blocked response write whose socket went writable.
    Resume { conn_id: u64, write: WriteInFlight },
}

struct RequestJob {
    conn_id: u64,
    request: Request,
    keep: bool,
    reused: bool,
    parsed_at: Instant,
    stream: SharedStream,
}

/// A response mid-write: everything needed to resume after `POLLOUT`.
struct WriteInFlight {
    writer: ResponseWriter,
    stream: SharedStream,
    keep: bool,
    /// Error responses shut down the write half and drain a bounded
    /// amount of the client's remaining upload before closing.
    drain_after: bool,
    guard: Option<InFlightGuard>,
    log: Option<LogEntry>,
}

/// Access-log fields captured when the response was computed, emitted
/// once the write finishes (success path only — parse errors log
/// immediately from the reactor).
struct LogEntry {
    method: Method,
    target: String,
    status: u16,
    dur_us: u64,
}

/// Executor → reactor notifications.
enum Done {
    Finished {
        conn_id: u64,
        keep: bool,
        write_ok: bool,
        drain_after: bool,
    },
    Blocked {
        conn_id: u64,
        write: WriteInFlight,
    },
}

/// One executor: pull a job, run it, report back, wake the reactor.
/// The `Mutex<Receiver>` serializes job *pickup* only — execution
/// overlaps freely across the pool.
fn executor_loop(
    service: &Service,
    jobs: &Mutex<Receiver<Job>>,
    done: &Sender<Done>,
    wake: &WakeHandle,
) {
    loop {
        let job = match jobs.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        let Ok(job) = job else { return };
        let outcome = match job {
            Job::Request(req) => run_request(service, req),
            Job::Resume { conn_id, write } => advance_write(service, conn_id, write),
        };
        if done.send(outcome).is_err() {
            return;
        }
        wake.wake();
    }
}

/// Route one parsed request and start writing its response.
fn run_request(service: &Service, job: RequestJob) -> Done {
    let RequestJob {
        conn_id,
        request,
        keep,
        reused,
        parsed_at,
        stream,
    } = job;
    let guard = service.metrics.as_ref().map(|m| m.begin_request(reused));
    let (label, mut response) = route(service, &request);
    if request.version == Version::Http10 {
        response = response.into_buffered();
    }
    let seconds = parsed_at.elapsed().as_secs_f64();
    let status = response.status;
    if let Some(metrics) = service.metrics.as_ref() {
        metrics.observe_request(label, status, seconds);
        metrics.instrument_stream(&mut response, parsed_at);
    }
    let log = service.access_log.as_ref().map(|_| LogEntry {
        method: request.method,
        target: request.target,
        status,
        dur_us: (seconds * 1e6) as u64,
    });
    let write = WriteInFlight {
        writer: ResponseWriter::new(response, keep),
        stream,
        keep,
        drain_after: false,
        guard,
        log,
    };
    advance_write(service, conn_id, write)
}

/// Push bytes until the response completes, the socket blocks, or the
/// write fails.
fn advance_write(service: &Service, conn_id: u64, mut write: WriteInFlight) -> Done {
    let result = {
        let mut stream = write.stream.clone();
        write.writer.write_some(&mut stream)
    };
    match result {
        Ok(WriteProgress::Complete) => finish_write(service, conn_id, write, true),
        Ok(WriteProgress::Blocked) => Done::Blocked { conn_id, write },
        Err(_) => finish_write(service, conn_id, write, false),
    }
}

/// Terminal bookkeeping for a write: release the in-flight gauge, emit
/// the access-log line.
fn finish_write(service: &Service, conn_id: u64, mut write: WriteInFlight, write_ok: bool) -> Done {
    drop(write.guard.take());
    if let (Some(entry), Some(log)) = (write.log.take(), service.access_log.as_ref()) {
        let keep = write.keep && write_ok;
        log.log(&format!(
            "t={} method={} target={} status={} keep={} dur_us={}",
            unix_millis(),
            entry.method,
            entry.target,
            entry.status,
            keep,
            entry.dur_us
        ));
    }
    Done::Finished {
        conn_id,
        keep: write.keep,
        write_ok,
        drain_after: write.drain_after,
    }
}

/// Per-connection reactor state.
enum State {
    /// Between requests: waiting for the first byte (keep-alive clock).
    Idle,
    /// Partway through a request head/body (request-read clock).
    Reading,
    /// Owned by an executor; not in the poll set.
    Working,
    /// A blocked response write parked until `POLLOUT`. The `Option` is
    /// taken when the write is handed back to an executor.
    WritePending(Option<WriteInFlight>),
    /// Post-error: swallowing the client's remaining upload bytes.
    Draining { budget: usize },
}

struct Conn {
    stream: Arc<TcpStream>,
    reader: RequestReader<SharedStream>,
    served: usize,
    state: State,
    deadline: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, deadline: Option<Instant>) -> Conn {
        let stream = Arc::new(stream);
        Conn {
            reader: RequestReader::new(SharedStream(Arc::clone(&stream))),
            stream,
            served: 0,
            state: State::Idle,
            deadline,
        }
    }

    fn shared(&self) -> SharedStream {
        SharedStream(Arc::clone(&self.stream))
    }
}

/// Generation-checked slab of connections: ids are `(generation << 32)
/// | index`, so a stale id from a late `Done` can never touch a slot
/// that was recycled for a new connection.
struct Slab {
    slots: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
}

fn pack(idx: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

impl Slab {
    fn new() -> Slab {
        Slab {
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, conn: Conn) -> u64 {
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Some(conn);
                pack(idx, self.gens[idx])
            }
            None => {
                self.slots.push(Some(conn));
                self.gens.push(0);
                pack(self.slots.len() - 1, 0)
            }
        }
    }

    fn index(&self, id: u64) -> Option<usize> {
        let idx = (id & u32::MAX as u64) as usize;
        let gen = (id >> 32) as u32;
        if idx < self.slots.len() && self.gens[idx] == gen && self.slots[idx].is_some() {
            Some(idx)
        } else {
            None
        }
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut Conn> {
        let idx = self.index(id)?;
        self.slots[idx].as_mut()
    }

    fn remove(&mut self, id: u64) -> Option<Conn> {
        let idx = self.index(id)?;
        let conn = self.slots[idx].take();
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx);
        conn
    }

    fn iter(&self) -> impl Iterator<Item = (u64, &Conn)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| slot.as_ref().map(|conn| (pack(idx, self.gens[idx]), conn)))
    }

    fn is_empty(&self) -> bool {
        self.slots.iter().all(|slot| slot.is_none())
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.iter().filter(|slot| slot.is_some()).count()
    }
}

/// Runs the reactor, with `config`'s executor count, input limits and
/// connection deadlines, until `stop` is observed and every connection
/// has retired. Blocks the calling thread; `start()` spawns it.
pub(crate) fn run(
    listener: TcpListener,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
    waker: Waker,
    config: ServerConfig,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let (done_tx, done_rx) = std::sync::mpsc::channel::<Done>();
    let mut pool = Vec::with_capacity(config.threads);
    for _ in 0..config.threads {
        let service = Arc::clone(&service);
        let jobs = Arc::clone(&job_rx);
        let done = done_tx.clone();
        let wake = waker.handle();
        pool.push(std::thread::spawn(move || {
            executor_loop(&service, &jobs, &done, &wake);
        }));
    }
    drop(done_tx);
    let reactor = Reactor {
        service,
        stop,
        config,
        slab: Slab::new(),
        job_tx: Some(job_tx),
        done_rx,
        waker,
        stopping: false,
        accept_retry_at: None,
    };
    reactor.run_loop(&listener);
    // Dropping the reactor drops `job_tx`, which ends the executors.
    for worker in pool {
        let _ = worker.join();
    }
}

struct Reactor {
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
    config: ServerConfig,
    slab: Slab,
    job_tx: Option<Sender<Job>>,
    done_rx: Receiver<Done>,
    waker: Waker,
    stopping: bool,
    accept_retry_at: Option<Instant>,
}

impl Reactor {
    fn run_loop(mut self, listener: &TcpListener) {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut ids: Vec<u64> = Vec::new();
        loop {
            if self.stop.load(Ordering::SeqCst) && !self.stopping {
                self.begin_shutdown();
            }
            if self.stopping && self.slab.is_empty() {
                return;
            }
            let now = Instant::now();
            fds.clear();
            ids.clear();
            fds.push(PollFd::new(self.waker.fd(), POLLIN));
            ids.push(WAKER_ID);
            let accept_armed = !self.stopping && self.accept_retry_at.is_none_or(|at| now >= at);
            if accept_armed {
                self.accept_retry_at = None;
                fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
                ids.push(LISTENER_ID);
            }
            let mut next_deadline: Option<Instant> = if accept_armed {
                None
            } else {
                self.accept_retry_at
            };
            for (id, conn) in self.slab.iter() {
                let events = match conn.state {
                    State::Idle | State::Reading | State::Draining { .. } => POLLIN,
                    State::WritePending(_) => POLLOUT,
                    State::Working => continue,
                };
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                ids.push(id);
                if let Some(deadline) = conn.deadline {
                    next_deadline = Some(match next_deadline {
                        Some(current) => current.min(deadline),
                        None => deadline,
                    });
                }
            }
            let timeout = next_deadline.map(|deadline| deadline.saturating_duration_since(now));
            if poll_fds(&mut fds, timeout).is_err() {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            if let Some(metrics) = self.service.metrics.as_ref() {
                metrics.reactor_wakeup();
            }
            if fds[0].ready(POLLIN) {
                self.waker.drain();
            }
            while let Ok(done) = self.done_rx.try_recv() {
                self.apply(done);
            }
            let mut ready: VecDeque<u64> = VecDeque::new();
            let mut accept_ready = false;
            for (fd, &id) in fds.iter().zip(ids.iter()).skip(1) {
                if !fd.ready(POLLIN | POLLOUT) {
                    continue;
                }
                if id == LISTENER_ID {
                    accept_ready = true;
                } else {
                    ready.push_back(id);
                }
            }
            for id in ready {
                self.on_event(id);
            }
            if accept_ready && !self.accept_all(listener) {
                self.accept_retry_at = Some(Instant::now() + ACCEPT_RETRY);
            }
            self.expire_deadlines();
        }
    }

    /// Stop accepting and retire every idle connection; in-flight
    /// requests (Reading / Working / WritePending / Draining) run to
    /// completion, after which `park_idle` closes them.
    fn begin_shutdown(&mut self) {
        self.stopping = true;
        let idle: Vec<u64> = self
            .slab
            .iter()
            .filter(|(_, conn)| matches!(conn.state, State::Idle))
            .map(|(id, _)| id)
            .collect();
        for id in idle {
            self.close(id);
        }
    }

    /// Accepts until the backlog is empty. Returns `false` on a
    /// non-transient accept error so the caller arms the retry backoff.
    fn accept_all(&mut self, listener: &TcpListener) -> bool {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let deadline = deadline_after(self.config.keep_alive_timeout);
                    self.slab.insert(Conn::new(stream, deadline));
                    if let Some(metrics) = self.service.metrics.as_ref() {
                        metrics.connection_opened();
                    }
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => return true,
                Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Readiness on one connection's socket.
    fn on_event(&mut self, id: u64) {
        enum Act {
            Parse,
            Resume,
            Drain,
            None,
        }
        let act = match self.slab.get_mut(id) {
            Some(conn) => match &conn.state {
                State::Idle => {
                    conn.state = State::Reading;
                    conn.deadline = deadline_after(self.config.request_read_timeout);
                    Act::Parse
                }
                State::Reading => Act::Parse,
                State::WritePending(_) => Act::Resume,
                State::Draining { .. } => Act::Drain,
                State::Working => Act::None,
            },
            None => return,
        };
        match act {
            Act::Parse => self.try_parse(id),
            Act::Resume => self.resume_write(id),
            Act::Drain => self.drain_some(id),
            Act::None => {}
        }
    }

    /// Pull bytes and attempt a parse; `WouldBlock` means "keep
    /// waiting", a complete request dispatches, anything else closes or
    /// rejects.
    fn try_parse(&mut self, id: u64) {
        let Some(conn) = self.slab.get_mut(id) else {
            return;
        };
        let parsed = conn.reader.next_request(&self.config.limits);
        match parsed {
            Ok(request) => self.dispatch(id, request),
            Err(HttpError::Io(ErrorKind::WouldBlock | ErrorKind::Interrupted)) => {
                // Not enough bytes yet; the carry stays valid and the
                // request-read deadline keeps ticking.
            }
            Err(err) => {
                let silent = matches!(err, HttpError::Incomplete) && conn.reader.between_requests();
                if silent {
                    self.close(id);
                } else {
                    self.reject(id, &err);
                }
            }
        }
    }

    /// Hand a parsed request to the executor pool.
    fn dispatch(&mut self, id: u64, request: Request) {
        let Some(conn) = self.slab.get_mut(id) else {
            return;
        };
        conn.served += 1;
        let keep = request.keep_alive()
            && conn.served < self.config.max_requests_per_connection
            && !self.stop.load(Ordering::SeqCst);
        let reused = conn.served > 1;
        let job = Job::Request(RequestJob {
            conn_id: id,
            request,
            keep,
            reused,
            parsed_at: Instant::now(),
            stream: conn.shared(),
        });
        conn.state = State::Working;
        conn.deadline = None;
        let sent = self
            .job_tx
            .as_ref()
            .map(|tx| tx.send(job).is_ok())
            .unwrap_or(false);
        if !sent {
            self.close(id);
        }
    }

    /// Write a typed error response from the reactor thread itself
    /// (parse errors never reach the pool), count it under the
    /// `unparsed` route, log a parse-error access-log line, then
    /// drain-and-close.
    fn reject(&mut self, id: u64, err: &HttpError) {
        let status = err.status();
        let served = match self.slab.get_mut(id) {
            Some(conn) => conn.served,
            None => return,
        };
        if let Some(metrics) = self.service.metrics.as_ref() {
            let _guard = metrics.begin_request(served > 0);
            metrics.observe_request("unparsed", status, 0.0);
        }
        if let Some(log) = self.service.access_log.as_ref() {
            log.log(&format!(
                "t={} method=- target=- status={} keep=false dur_us=0 parse_error={:?}",
                unix_millis(),
                status,
                err.to_string()
            ));
        }
        let write = {
            let Some(conn) = self.slab.get_mut(id) else {
                return;
            };
            conn.state = State::Working;
            conn.deadline = None;
            WriteInFlight {
                writer: ResponseWriter::new(error_response(status, &err.to_string()), false),
                stream: conn.shared(),
                keep: false,
                drain_after: true,
                guard: None,
                log: None,
            }
        };
        let done = advance_write(&self.service, id, write);
        self.apply(done);
    }

    /// A parked write's socket went writable: hand it back to the pool.
    fn resume_write(&mut self, id: u64) {
        let write = match self.slab.get_mut(id) {
            Some(conn) => match &mut conn.state {
                State::WritePending(slot) => match slot.take() {
                    Some(write) => {
                        conn.state = State::Working;
                        conn.deadline = None;
                        write
                    }
                    None => return,
                },
                _ => return,
            },
            None => return,
        };
        let sent = self
            .job_tx
            .as_ref()
            .map(|tx| tx.send(Job::Resume { conn_id: id, write }).is_ok())
            .unwrap_or(false);
        if !sent {
            self.close(id);
        }
    }

    /// Apply an executor's notification to the owning connection.
    fn apply(&mut self, done: Done) {
        match done {
            Done::Blocked { conn_id, write } => {
                if let Some(conn) = self.slab.get_mut(conn_id) {
                    conn.state = State::WritePending(Some(write));
                    conn.deadline = deadline_after(self.config.io_timeout);
                }
            }
            Done::Finished {
                conn_id,
                keep,
                write_ok,
                drain_after,
            } => {
                if !write_ok {
                    self.close(conn_id);
                    return;
                }
                if drain_after {
                    if let Some(conn) = self.slab.get_mut(conn_id) {
                        let _ = conn.stream.shutdown(Shutdown::Write);
                        conn.state = State::Draining {
                            budget: DRAIN_BYTES,
                        };
                        conn.deadline = Some(Instant::now() + DRAIN_WINDOW);
                    }
                    return;
                }
                if !keep {
                    if let Some(conn) = self.slab.get_mut(conn_id) {
                        let _ = conn.stream.shutdown(Shutdown::Write);
                    }
                    self.close(conn_id);
                    return;
                }
                self.park_idle(conn_id);
            }
        }
    }

    /// Return a connection to keep-alive idle (or parse the next
    /// pipelined request already sitting in the carry).
    fn park_idle(&mut self, id: u64) {
        if self.stopping || self.stop.load(Ordering::SeqCst) {
            self.close(id);
            return;
        }
        let parse_now = match self.slab.get_mut(id) {
            Some(conn) => {
                if !conn.reader.between_requests() {
                    // Pipelined bytes already in the carry never raise
                    // POLLIN — parse immediately.
                    conn.state = State::Reading;
                    conn.deadline = deadline_after(self.config.request_read_timeout);
                    true
                } else {
                    conn.state = State::Idle;
                    conn.deadline = deadline_after(self.config.keep_alive_timeout);
                    false
                }
            }
            None => return,
        };
        if parse_now {
            self.try_parse(id);
        }
    }

    /// Swallow a bounded amount of a rejected client's remaining bytes.
    fn drain_some(&mut self, id: u64) {
        let mut close = false;
        if let Some(conn) = self.slab.get_mut(id) {
            let mut scratch = [0u8; 4096];
            loop {
                match (&*conn.stream).read(&mut scratch) {
                    Ok(0) => {
                        close = true;
                        break;
                    }
                    Ok(n) => {
                        if let State::Draining { budget } = &mut conn.state {
                            if *budget <= n {
                                close = true;
                                break;
                            }
                            *budget -= n;
                        } else {
                            break;
                        }
                    }
                    Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                    Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
        }
        if close {
            self.close(id);
        }
    }

    /// Fire every expired per-connection deadline.
    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .slab
            .iter()
            .filter(|(_, conn)| conn.deadline.is_some_and(|deadline| deadline <= now))
            .map(|(id, _)| id)
            .collect();
        for id in expired {
            self.expire(id);
        }
    }

    fn expire(&mut self, id: u64) {
        enum Kind {
            Silent,
            ReadTimeout,
            WriteTimeout(WriteInFlight),
        }
        let kind = match self.slab.get_mut(id) {
            Some(conn) => match &mut conn.state {
                State::Idle | State::Draining { .. } => Kind::Silent,
                State::Reading => Kind::ReadTimeout,
                State::WritePending(slot) => match slot.take() {
                    Some(write) => Kind::WriteTimeout(write),
                    None => return,
                },
                State::Working => return,
            },
            None => return,
        };
        match kind {
            Kind::Silent => self.close(id),
            Kind::ReadTimeout => {
                self.reject(id, &HttpError::Io(ErrorKind::TimedOut));
            }
            Kind::WriteTimeout(write) => {
                let _ = finish_write(&self.service, id, write, false);
                self.close(id);
            }
        }
    }

    /// Drop a connection and decrement the open-connections gauge.
    fn close(&mut self, id: u64) {
        if self.slab.remove(id).is_some() {
            if let Some(metrics) = self.service.metrics.as_ref() {
                metrics.connection_closed();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_conn() -> Conn {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        // Keep the client end alive for the duration of the slab tests:
        // forget it, and the fd closes at process exit.
        std::mem::forget(client);
        Conn::new(server, None)
    }

    #[test]
    fn unix_millis_is_past_2020() {
        assert!(unix_millis() > 1_577_836_800_000);
    }

    #[test]
    fn slab_recycles_slots_with_fresh_generations() {
        let mut slab = Slab::new();
        let a = slab.insert(dummy_conn());
        let b = slab.insert(dummy_conn());
        assert_eq!(slab.len(), 2);
        assert!(slab.remove(a).is_some());
        // Stale id no longer resolves.
        assert!(slab.get_mut(a).is_none());
        assert!(slab.remove(a).is_none());
        // The freed slot is reused under a new generation.
        let c = slab.insert(dummy_conn());
        assert_ne!(a, c);
        assert_eq!(a & u32::MAX as u64, c & u32::MAX as u64);
        assert!(slab.get_mut(c).is_some());
        assert!(slab.get_mut(b).is_some());
        assert_eq!(slab.len(), 2);
        assert!(!slab.is_empty());
        assert!(slab.remove(b).is_some());
        assert!(slab.remove(c).is_some());
        assert!(slab.is_empty());
    }

    #[test]
    fn slab_iter_yields_live_ids() {
        let mut slab = Slab::new();
        let a = slab.insert(dummy_conn());
        let b = slab.insert(dummy_conn());
        slab.remove(a).unwrap();
        let ids: Vec<u64> = slab.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![b]);
    }
}
