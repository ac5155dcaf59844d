//! The daemon: a TCP accept loop, a bounded pool of connection threads,
//! and one background detection worker draining the ingest queue.
//!
//! Threading model (std only — no async runtime):
//!
//! * **One detection worker** owns the [`ServeState`] and is the only
//!   thread that mutates detector state. It drains a bounded MPSC queue of
//!   accepted batches, runs seeded incremental detection, and swaps fresh
//!   [`ServeSnapshot`]s into the shared cell on the configured cadence —
//!   plus whenever the queue runs dry, so a quiet stream converges.
//! * **One connection thread per client**, capped at
//!   [`max_connections`](crate::state::ServeConfig::max_connections);
//!   excess clients get an error frame and are closed. Connection threads
//!   never touch the detector: queries read the snapshot cell, ingests
//!   `try_send` into the queue (a full queue means an explicit
//!   [`Rejected`](crate::wire::Response::Rejected) reply — backpressure is
//!   the client's problem by design, the server never buffers unboundedly).
//! * **Checkpoint requests ride the same queue** as a control message with
//!   a reply channel, so a checkpoint is serialized after every batch
//!   accepted before it — the consistency contract a resumed server relies
//!   on.

use crate::router::{Router, RouterConfig};
use crate::shared::SnapshotCell;
use crate::state::{ServeMetrics, ServeSnapshot, ServeState};
use crate::wire::{read_frame, write_frame, Request, Response, ShardStatus, WireError};
use ricd_core::incremental::Checkpoint;
use ricd_graph::{ItemId, UserId};
use ricd_obs::MetricsRegistry;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection thread blocks waiting for the next frame before
/// re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// The request handler behind a connection pool — the monolith's queue
/// front-end or the sharded [`Router`]. The connection machinery (accept
/// loop, per-connection threads, framing, timeouts) is identical either
/// way; only request semantics differ.
trait RequestSink: Send + Sync + 'static {
    fn handle(&self, req: Request) -> Response;
}

/// Everything a connection thread needs besides the sink, cheaply
/// cloneable across connection threads.
#[derive(Clone)]
struct ConnContext {
    sink: Arc<dyn RequestSink>,
    metrics: ServeMetrics,
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
    io_timeout: Duration,
}

/// Flips the shutdown flag and, the first time, wakes the accept loop (which
/// may be parked in `accept()`) with a throwaway self-connection.
fn request_shutdown(shutdown: &AtomicBool, addr: SocketAddr) {
    if !shutdown.swap(true, Ordering::SeqCst) {
        let _ = TcpStream::connect(addr);
    }
}

/// Reads from a non-blocking-ish stream (one with a short read timeout)
/// until data arrives or a frame deadline passes — the slow-loris guard:
/// a peer may idle between frames forever, but once a frame starts it
/// must finish within the connection's I/O budget.
struct DeadlineReader<'a> {
    stream: &'a mut TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if Instant::now() >= self.deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "frame i/o deadline exceeded",
                        ));
                    }
                }
                other => return other,
            }
        }
    }
}

/// Work items on the ingest queue.
enum Work {
    /// An accepted click batch.
    Batch {
        seq: u64,
        records: Vec<(UserId, ItemId, u32)>,
    },
    /// An accepted timestamped click batch.
    TimedBatch {
        seq: u64,
        records: Vec<(UserId, ItemId, u32, u64)>,
    },
    /// Take a checkpoint covering every batch queued before this marker and
    /// send it back.
    Checkpoint { reply: SyncSender<Checkpoint> },
}

/// The monolith backend: one detection worker behind a bounded queue.
struct Shared {
    snapshot: Arc<SnapshotCell<ServeSnapshot>>,
    registry: MetricsRegistry,
    metrics: ServeMetrics,
    work_tx: SyncSender<Work>,
    queue_capacity: usize,
}

/// A running server. Dropping the handle does **not** stop the server; call
/// [`shutdown`](ServerHandle::shutdown) and/or [`join`](ServerHandle::join).
///
/// The handle deliberately holds **no** ingest sender — the queue's senders
/// live only in the accept loop and its connection threads, so once those
/// finish the worker's receiver disconnects and the drain terminates.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    worker: Option<JoinHandle<ServeState>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful shutdown: stop accepting, drain the queue.
    pub fn shutdown(&self) {
        request_shutdown(&self.shutdown, self.addr);
    }

    /// Waits for the accept loop and every connection to finish, then for
    /// the worker to drain the queue, returning the final [`ServeState`]
    /// (so the caller can take a last checkpoint or read final metrics).
    pub fn join(mut self) -> ServeState {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // The accept loop owned the last ingest sender; with it gone the
        // worker drains whatever is queued and returns the state.
        self.worker
            .take()
            .expect("worker joined twice")
            .join()
            .expect("detection worker panicked")
    }
}

/// Binds `addr` and starts the daemon: detection worker, accept loop,
/// connection pool. Returns once the listener is bound (the returned
/// handle's [`addr`](ServerHandle::addr) is immediately connectable).
pub fn start(state: ServeState, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let cfg = state.config().clone();
    let (work_tx, work_rx) = std::sync::mpsc::sync_channel::<Work>(cfg.queue_capacity);
    let metrics = state.serve_metrics();
    let shutdown = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        snapshot: state.shared(),
        registry: state.registry().clone(),
        metrics: metrics.clone(),
        work_tx,
        queue_capacity: cfg.queue_capacity,
    });

    let worker = std::thread::Builder::new()
        .name("ricd-serve-worker".into())
        .spawn(move || detection_worker(state, work_rx))?;

    let ctx = ConnContext {
        sink: shared,
        metrics,
        shutdown: shutdown.clone(),
        addr,
        io_timeout: cfg.io_timeout,
    };
    let oneshot = cfg.oneshot;
    let max_connections = cfg.max_connections;
    let accept = std::thread::Builder::new()
        .name("ricd-serve-accept".into())
        .spawn(move || accept_loop(listener, ctx, oneshot, max_connections))?;

    Ok(ServerHandle {
        addr,
        shutdown,
        accept: Some(accept),
        worker: Some(worker),
    })
}

/// A running sharded server (see [`start_router`]). As with
/// [`ServerHandle`], dropping does not stop it — call
/// [`shutdown`](RouterHandle::shutdown) / [`join`](RouterHandle::join).
pub struct RouterHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<Vec<ServeState>>>,
    router: Arc<Router>,
}

impl RouterHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The routed runtime behind this server, for in-process inspection.
    pub fn router(&self) -> Arc<Router> {
        self.router.clone()
    }

    /// Requests a graceful shutdown: stop accepting, drain every shard's
    /// replay log.
    pub fn shutdown(&self) {
        request_shutdown(&self.shutdown, self.addr);
    }

    /// Waits for the accept loop, connection threads, and every shard
    /// worker to drain, returning the final per-shard states in shard
    /// order (for last checkpoints or equivalence assertions).
    pub fn join(mut self) -> Vec<ServeState> {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shutdown.store(true, Ordering::SeqCst);
        self.supervisor
            .take()
            .expect("supervisor joined twice")
            .join()
            .expect("supervisor panicked")
    }
}

/// Binds `addr` and starts the **replicated** daemon: N supervised
/// replicas behind a routing front-end. `resume_manifest` resumes every
/// replica from a coordinated checkpoint manifest (see
/// [`crate::manifest::Manifest`]).
pub fn start_router(
    cfg: RouterConfig,
    registry: MetricsRegistry,
    addr: impl ToSocketAddrs,
    resume_manifest: Option<&std::path::Path>,
) -> io::Result<RouterHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let router = Router::new(cfg, registry);
    let initial = match resume_manifest {
        Some(path) => {
            let dir = if path.is_dir() {
                path.to_path_buf()
            } else {
                path.parent().map(|p| p.to_path_buf()).unwrap_or_default()
            };
            let manifest = crate::manifest::Manifest::load(path)?;
            router
                .load_resume_state(&manifest, &dir)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        }
        None => vec![None; router.config().shards],
    };
    let shutdown = router.shutdown_flag();
    let supervisor = router.supervisor();
    let supervisor = std::thread::Builder::new()
        .name("ricd-supervisor".into())
        .spawn(move || supervisor.run(initial))?;

    let ctx = ConnContext {
        sink: router.clone(),
        metrics: router.agg_metrics().clone(),
        shutdown: shutdown.clone(),
        addr,
        io_timeout: router.config().serve.io_timeout,
    };
    let oneshot = router.config().serve.oneshot;
    let max_connections = router.config().serve.max_connections;
    let accept = std::thread::Builder::new()
        .name("ricd-serve-accept".into())
        .spawn(move || accept_loop(listener, ctx, oneshot, max_connections))?;

    Ok(RouterHandle {
        addr,
        shutdown,
        accept: Some(accept),
        supervisor: Some(supervisor),
        router,
    })
}

impl RequestSink for Router {
    fn handle(&self, req: Request) -> Response {
        Router::handle(self, req)
    }
}

/// The detection worker: drains the queue, flushing the view whenever the
/// queue runs dry so every accepted batch is eventually visible to queries.
fn detection_worker(mut state: ServeState, rx: Receiver<Work>) -> ServeState {
    let metrics = state.serve_metrics();
    let handle = |state: &mut ServeState, work: Work| match work {
        Work::Batch { seq, records } => {
            metrics.ingest_queue_depth.add(-1);
            state.ingest(seq, &records);
        }
        Work::TimedBatch { seq, records } => {
            metrics.ingest_queue_depth.add(-1);
            state.ingest_timed(seq, &records);
        }
        Work::Checkpoint { reply } => {
            // A checkpoint is also a *view* barrier: flush first, so after
            // the reply the published snapshot covers every batch the
            // checkpoint covers (queries can trust a post-checkpoint view).
            state.flush();
            let _ = reply.send(state.checkpoint());
        }
    };
    'outer: loop {
        let work = match rx.recv() {
            Ok(w) => w,
            Err(_) => break, // every sender gone: drain complete
        };
        handle(&mut state, work);
        // Opportunistically drain without blocking; swap once dry.
        loop {
            match rx.try_recv() {
                Ok(w) => handle(&mut state, w),
                Err(TryRecvError::Empty) => {
                    state.flush();
                    break;
                }
                Err(TryRecvError::Disconnected) => break 'outer,
            }
        }
    }
    state.flush();
    state
}

/// The accept loop. In oneshot mode, serves exactly one connection inline
/// and returns; otherwise spawns a capped connection thread per client
/// until shutdown is requested.
fn accept_loop(listener: TcpListener, ctx: ConnContext, oneshot: bool, max_connections: usize) {
    let active = Arc::new(AtomicUsize::new(0));
    let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        if oneshot {
            ctx.metrics.connections_accepted.inc();
            serve_connection(stream, &ctx);
            ctx.shutdown.store(true, Ordering::SeqCst);
            break;
        }
        if active.load(Ordering::SeqCst) >= max_connections {
            ctx.metrics.connections_rejected.inc();
            let mut s = stream;
            let _ = write_frame(
                &mut s,
                &Response::Error {
                    message: format!("busy: connection limit {max_connections} reached"),
                },
            );
            continue;
        }
        ctx.metrics.connections_accepted.inc();
        active.fetch_add(1, Ordering::SeqCst);
        let conn_ctx = ctx.clone();
        let conn_active = active.clone();
        conn_threads.retain(|h| !h.is_finished());
        let spawned = std::thread::Builder::new()
            .name("ricd-serve-conn".into())
            .spawn(move || {
                serve_connection(stream, &conn_ctx);
                conn_active.fetch_sub(1, Ordering::SeqCst);
            });
        match spawned {
            Ok(h) => conn_threads.push(h),
            Err(_) => {
                active.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
    for h in conn_threads {
        let _ = h.join();
    }
}

/// Serves one client connection until it closes, errors fatally, stalls
/// past the frame deadline, or the server shuts down.
fn serve_connection(mut stream: TcpStream, ctx: &ConnContext) {
    // Bounded reads so this thread notices a shutdown requested elsewhere
    // even while its client is idle.
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(ctx.io_timeout));
    let _ = stream.set_nodelay(true);
    loop {
        // Wait for readability without consuming, so a poll timeout never
        // splits a frame.
        match stream.peek(&mut [0u8; 1]) {
            Ok(0) => return, // clean close
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        // A frame has started: it must complete within the I/O budget.
        // Idling *between* frames is free; dribbling one byte at a time
        // *inside* a frame (slow-loris) is not — the deadline closes the
        // connection instead of pinning this thread.
        let mut reader = DeadlineReader {
            stream: &mut stream,
            deadline: Instant::now() + ctx.io_timeout,
        };
        let req: Request = match read_frame(&mut reader) {
            Ok(r) => r,
            Err(WireError::Closed) => return,
            Err(WireError::Malformed(m)) => {
                // Framing is intact (the payload was fully read), so reject
                // the frame and keep the connection.
                ctx.metrics.frames_malformed.inc();
                let _ = write_frame(
                    &mut stream,
                    &Response::Error {
                        message: format!("malformed frame: {m}"),
                    },
                );
                continue;
            }
            Err(WireError::TooLarge(n)) => {
                // Cannot resynchronize past an unread over-length payload.
                ctx.metrics.frames_malformed.inc();
                let _ = write_frame(
                    &mut stream,
                    &Response::Error {
                        message: WireError::TooLarge(n).to_string(),
                    },
                );
                return;
            }
            Err(WireError::Io(e)) if e.kind() == io::ErrorKind::TimedOut => {
                ctx.metrics.conn_timeouts.inc();
                return;
            }
            Err(WireError::Io(_)) => return,
        };
        let is_shutdown = matches!(req, Request::Shutdown);
        let resp = ctx.sink.handle(req);
        if let Err(e) = write_frame(&mut stream, &resp) {
            if matches!(
                e.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ) {
                ctx.metrics.conn_timeouts.inc();
            }
            return;
        }
        if is_shutdown {
            request_shutdown(&ctx.shutdown, ctx.addr);
            return;
        }
    }
}

impl Shared {
    /// Offers one batch of `len` records to the detection worker's bounded
    /// queue: acknowledged, rejected when the queue is full (backpressure),
    /// or refused once the worker is draining.
    fn enqueue(&self, seq: u64, len: usize, work: Work) -> Response {
        match self.work_tx.try_send(work) {
            Ok(()) => {
                self.metrics.ingest_queue_depth.add(1);
                Response::Ingested { seq, records: len }
            }
            Err(TrySendError::Full(_)) => {
                self.metrics.backpressure_rejected.inc();
                Response::Rejected {
                    seq,
                    queue_capacity: self.queue_capacity,
                }
            }
            Err(TrySendError::Disconnected(_)) => Response::Error {
                message: "server is draining".into(),
            },
        }
    }
}

impl RequestSink for Shared {
    /// Computes the response for one request against the monolith
    /// backend. `degraded` is always `false` here: a single-state daemon
    /// either answers in full or is down.
    fn handle(&self, req: Request) -> Response {
        match req {
            Request::Ingest { seq, records } => {
                self.enqueue(seq, records.len(), Work::Batch { seq, records })
            }
            Request::IngestTimed { seq, records } => {
                self.enqueue(seq, records.len(), Work::TimedBatch { seq, records })
            }
            Request::QueryRisk { users, items } => {
                self.metrics.queries_risk.inc();
                let snap = self.snapshot.load();
                Response::Risk {
                    epoch: snap.view.epoch(),
                    users: users.into_iter().map(|u| (u, snap.view.user(u))).collect(),
                    items: items.into_iter().map(|v| (v, snap.view.item(v))).collect(),
                    groups: snap.view.groups().len(),
                    degraded: false,
                    missing_shards: Vec::new(),
                }
            }
            Request::Recommend { user, n } => {
                self.metrics.queries_recommend.inc();
                let snap = self.snapshot.load();
                Response::Recommendation {
                    epoch: snap.view.epoch(),
                    items: snap.recommend(user, n),
                    degraded: false,
                }
            }
            Request::Metrics { count_only } => {
                let snap = self.registry.snapshot();
                Response::Metrics(if count_only { snap.count_only() } else { snap })
            }
            Request::Checkpoint => {
                let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel(1);
                // Blocking send: waits for queue room, so the marker lands
                // after every batch accepted before this request.
                if self
                    .work_tx
                    .send(Work::Checkpoint { reply: reply_tx })
                    .is_err()
                {
                    return Response::Error {
                        message: "server is draining".into(),
                    };
                }
                match reply_rx.recv() {
                    Ok(ckpt) => Response::CheckpointTaken(ckpt),
                    Err(_) => Response::Error {
                        message: "worker exited before the checkpoint completed".into(),
                    },
                }
            }
            Request::Status => {
                let snap = self.snapshot.load();
                Response::Status {
                    epoch: snap.view.epoch(),
                    quorum: 1,
                    degraded: false,
                    shards: vec![ShardStatus {
                        shard: 0,
                        state: "up".into(),
                        epoch: snap.view.epoch(),
                        backlog: self.metrics.ingest_queue_depth.get().max(0) as u64,
                        next_seq: 0,
                        restarts: 0,
                    }],
                }
            }
            // The connection layer flips the shutdown flag (and wakes the
            // accept loop) after this response is written.
            Request::Shutdown => Response::ShuttingDown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::state::ServeConfig;
    use ricd_core::{RicdParams, RicdPipeline};
    use ricd_engine::WorkerPool;

    fn start_server(cfg: ServeConfig) -> ServerHandle {
        let state = ServeState::new(
            cfg,
            RicdPipeline::new(RicdParams::default()).with_pool(WorkerPool::new(2)),
        );
        start(state, "127.0.0.1:0").expect("bind loopback")
    }

    #[test]
    fn ingest_query_shutdown_round_trip() {
        let handle = start_server(ServeConfig {
            swap_every_batches: 1,
            ..ServeConfig::default()
        });
        let mut c = Client::connect(handle.addr()).unwrap();
        // A small planted attack: 10 workers ride item 0.
        let mut records = Vec::new();
        for u in 1000..1600u32 {
            records.push((UserId(u), ItemId(0), 1));
        }
        for u in 0..10u32 {
            records.push((UserId(u), ItemId(0), 1));
            for v in 1..10u32 {
                records.push((UserId(u), ItemId(v), 15));
            }
        }
        match c.request(&Request::Ingest { seq: 0, records }).unwrap() {
            Response::Ingested { seq: 0, .. } => {}
            other => panic!("expected Ingested, got {other:?}"),
        }
        // The swap is asynchronous; poll until the view flips.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let resp = c
                .request(&Request::QueryRisk {
                    users: vec![UserId(3), UserId(1200)],
                    items: vec![ItemId(5)],
                })
                .unwrap();
            match resp {
                Response::Risk {
                    epoch,
                    users,
                    items,
                    ..
                } if epoch > 0 => {
                    assert!(users[0].1.flagged, "worker flagged");
                    assert!(!users[1].1.flagged, "organic user clear");
                    assert!(items[0].1.flagged, "target flagged");
                    break;
                }
                Response::Risk { .. } => {
                    assert!(std::time::Instant::now() < deadline, "view never swapped");
                    std::thread::sleep(Duration::from_millis(10));
                }
                other => panic!("expected Risk, got {other:?}"),
            }
        }
        assert!(matches!(
            c.request(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        drop(c);
        let state = handle.join();
        assert_eq!(state.next_seq(), 1);
    }

    #[test]
    fn backpressure_rejects_when_queue_is_full_and_drops_nothing() {
        // Capacity-1 queue + slow worker (big batches) forces rejections.
        let handle = start_server(ServeConfig {
            queue_capacity: 1,
            swap_every_batches: 1,
            ..ServeConfig::default()
        });
        let mut c = Client::connect(handle.addr()).unwrap();
        let batch: Vec<_> = (0..3000u32)
            .map(|i| (UserId(i % 500), ItemId(i % 200), 1 + i % 5))
            .collect();
        let mut accepted = Vec::new();
        let mut rejected = 0u32;
        let mut seq = 0u64;
        while rejected == 0 || accepted.len() < 3 {
            match c
                .request(&Request::Ingest {
                    seq,
                    records: batch.clone(),
                })
                .unwrap()
            {
                Response::Ingested { .. } => {
                    accepted.push(seq);
                    seq += 1;
                }
                Response::Rejected { queue_capacity, .. } => {
                    assert_eq!(queue_capacity, 1);
                    rejected += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
            assert!(seq < 500, "backpressure never engaged");
        }
        let metrics = match c.request(&Request::Metrics { count_only: true }).unwrap() {
            Response::Metrics(m) => m,
            other => panic!("expected Metrics, got {other:?}"),
        };
        assert!(metrics.counter("serve.backpressure_rejected").unwrap() >= u64::from(rejected));
        c.shutdown().unwrap();
        drop(c);
        let state = handle.join();
        // Every accepted batch was processed: seq advanced exactly past them.
        assert_eq!(state.next_seq(), accepted.len() as u64);
    }

    #[test]
    fn checkpoint_over_the_wire_covers_accepted_batches() {
        let handle = start_server(ServeConfig::default());
        let mut c = Client::connect(handle.addr()).unwrap();
        for seq in 0..3u64 {
            let records = vec![(UserId(seq as u32), ItemId(0), 2)];
            assert!(matches!(
                c.request(&Request::Ingest { seq, records }).unwrap(),
                Response::Ingested { .. }
            ));
        }
        let ckpt = c.checkpoint().unwrap();
        assert_eq!(ckpt.next_seq, 3, "checkpoint serialized after batches");
        c.shutdown().unwrap();
        drop(c);
        handle.join();
    }

    #[test]
    fn malformed_frame_gets_an_error_and_the_connection_survives() {
        let handle = start_server(ServeConfig::default());
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let payload = b"{\"definitely\": \"not a request\"}";
        stream
            .write_all(&(payload.len() as u32).to_be_bytes())
            .unwrap();
        stream.write_all(payload).unwrap();
        let resp: Response = read_frame(&mut stream).unwrap();
        assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
        // Same connection still serves valid requests.
        write_frame(&mut stream, &Request::Metrics { count_only: true }).unwrap();
        let resp: Response = read_frame(&mut stream).unwrap();
        match resp {
            Response::Metrics(m) => {
                assert_eq!(m.counter("serve.frames_malformed"), Some(1));
            }
            other => panic!("expected Metrics, got {other:?}"),
        }
        write_frame(&mut stream, &Request::Shutdown).unwrap();
        let _: Response = read_frame(&mut stream).unwrap();
        drop(stream);
        handle.join();
    }

    #[test]
    fn oversized_frame_closes_the_connection() {
        let handle = start_server(ServeConfig::default());
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .write_all(&(crate::wire::MAX_FRAME_LEN + 1).to_be_bytes())
            .unwrap();
        let resp: Response = read_frame(&mut stream).unwrap();
        assert!(matches!(resp, Response::Error { .. }));
        // Server closed its side; the next read sees EOF.
        assert!(matches!(
            read_frame::<Response>(&mut stream),
            Err(WireError::Closed) | Err(WireError::Io(_))
        ));
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn slow_loris_partial_frame_times_out_and_closes_the_connection() {
        let handle = start_server(ServeConfig {
            io_timeout: Duration::from_millis(200),
            ..ServeConfig::default()
        });
        let mut loris = TcpStream::connect(handle.addr()).unwrap();
        // Start a frame but never finish it: promise 64 bytes, send 3.
        loris.write_all(&64u32.to_be_bytes()).unwrap();
        loris.write_all(b"{\"I").unwrap();
        // The frame deadline closes the connection server-side; the
        // dribbling client sees EOF, never a reply.
        loris
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut buf = [0u8; 1];
        match loris.read(&mut buf) {
            Ok(0) => {}
            other => panic!("expected server-side close, got {other:?}"),
        }
        drop(loris);
        // The guard is observable: a healthy client sees the counter.
        let mut c = Client::connect(handle.addr()).unwrap();
        match c.request(&Request::Metrics { count_only: true }).unwrap() {
            Response::Metrics(m) => {
                assert_eq!(m.counter("serve.conn_timeouts"), Some(1));
            }
            other => panic!("expected Metrics, got {other:?}"),
        }
        c.shutdown().unwrap();
        drop(c);
        handle.join();
    }

    #[test]
    fn connection_cap_rejects_excess_clients_with_busy() {
        let handle = start_server(ServeConfig {
            max_connections: 1,
            ..ServeConfig::default()
        });
        let mut first = Client::connect(handle.addr()).unwrap();
        // Prove the first connection is established server-side.
        first.metrics(true).unwrap();
        let mut second = TcpStream::connect(handle.addr()).unwrap();
        let resp: Response = read_frame(&mut second).unwrap();
        match resp {
            Response::Error { message } => assert!(message.contains("busy"), "{message}"),
            other => panic!("expected busy Error, got {other:?}"),
        }
        first.shutdown().unwrap();
        drop(first);
        handle.join();
    }

    use std::io::Write;
}
