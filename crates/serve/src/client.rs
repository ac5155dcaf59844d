//! A blocking client for the serve wire protocol.
//!
//! One request/response pair per call on a single persistent connection.
//! The typed helpers ([`query_risk`](Client::query_risk),
//! [`checkpoint`](Client::checkpoint), …) unwrap the matching response
//! variant and surface anything else — including a server-side
//! [`Error`](Response::Error) frame — as a [`WireError`], so callers that
//! only care about the happy path stay one-liners. Backpressure is the one
//! deliberate exception: [`ingest`](Client::ingest) returns the
//! [`IngestOutcome`] so the caller decides its own retry policy, and
//! [`ingest_blocking`](Client::ingest_blocking) packages the obvious one
//! (bounded exponential backoff).

use crate::retry::{ClientStats, RetryPolicy};
use crate::wire::{read_frame, write_frame, Request, Response, ShardStatus, WireError};
use ricd_core::incremental::Checkpoint;
use ricd_core::riskview::RiskVerdict;
use ricd_graph::{ItemId, UserId};
use ricd_obs::MetricsSnapshot;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// How one [`Client::ingest`] call was answered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The batch is in the server's queue.
    Accepted {
        /// Records queued.
        records: usize,
    },
    /// Backpressure: the queue was full, the batch was **not** taken, and
    /// the caller owns the retry.
    Backpressure {
        /// The server's queue capacity, for pacing.
        queue_capacity: usize,
    },
}

/// Risk verdicts for one [`Client::query_risk`] call.
#[derive(Clone, Debug, PartialEq)]
pub struct RiskReport {
    /// The answering view's epoch (0 = nothing detected/published yet).
    pub epoch: u64,
    /// Per-user verdicts, in request order.
    pub users: Vec<(UserId, RiskVerdict)>,
    /// Per-item verdicts, in request order.
    pub items: Vec<(ItemId, RiskVerdict)>,
    /// Detected groups in the view.
    pub groups: usize,
    /// `true` when no replica was `Up` (see [`Response::Risk`]).
    pub degraded: bool,
    /// Replicas that were `Down`.
    pub missing_shards: Vec<u32>,
}

/// One recommendation answer, with degradation context.
#[derive(Clone, Debug, PartialEq)]
pub struct Recommendation {
    /// The answering view's epoch.
    pub epoch: u64,
    /// Ranked `(item, score)` pairs.
    pub items: Vec<(ItemId, f32)>,
    /// `true` when no replica was `Up`.
    pub degraded: bool,
}

/// Topology health from one [`Client::status`] call.
#[derive(Clone, Debug, PartialEq)]
pub struct StatusReport {
    /// The published quorum epoch watermark.
    pub epoch: u64,
    /// Live shards required for the epoch watermark to advance.
    pub quorum: u32,
    /// `true` while any shard is not `Up`.
    pub degraded: bool,
    /// Per-shard health, in shard order.
    pub shards: Vec<ShardStatus>,
}

/// A connected client.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self { stream })
    }

    /// Sends one request and reads one response.
    pub fn request(&mut self, req: &Request) -> Result<Response, WireError> {
        write_frame(&mut self.stream, req)?;
        read_frame(&mut self.stream)
    }

    fn expect<T>(
        &mut self,
        req: &Request,
        pick: impl FnOnce(Response) -> Result<T, Response>,
    ) -> Result<T, WireError> {
        match self.request(req)? {
            Response::Error { message } => Err(WireError::Malformed(format!("server: {message}"))),
            resp => pick(resp)
                .map_err(|other| WireError::Malformed(format!("unexpected response: {other:?}"))),
        }
    }

    /// Submits one batch; see [`IngestOutcome`] for the backpressure
    /// contract.
    pub fn ingest(
        &mut self,
        seq: u64,
        records: Vec<(UserId, ItemId, u32)>,
    ) -> Result<IngestOutcome, WireError> {
        self.expect(&Request::Ingest { seq, records }, |resp| match resp {
            Response::Ingested { records, .. } => Ok(IngestOutcome::Accepted { records }),
            Response::Rejected { queue_capacity, .. } => {
                Ok(IngestOutcome::Backpressure { queue_capacity })
            }
            other => Err(other),
        })
    }

    /// Submits one **timestamped** batch; same backpressure contract as
    /// [`ingest`](Client::ingest). The per-record event-time tick feeds the
    /// server's `serve.event_ts` / `serve.timed_*` metrics.
    pub fn ingest_timed(
        &mut self,
        seq: u64,
        records: Vec<(UserId, ItemId, u32, u64)>,
    ) -> Result<IngestOutcome, WireError> {
        self.expect(&Request::IngestTimed { seq, records }, |resp| match resp {
            Response::Ingested { records, .. } => Ok(IngestOutcome::Accepted { records }),
            Response::Rejected { queue_capacity, .. } => {
                Ok(IngestOutcome::Backpressure { queue_capacity })
            }
            other => Err(other),
        })
    }

    /// Submits one batch with the default [`RetryPolicy`]: capped
    /// exponential backoff with deterministic seeded jitter and an overall
    /// deadline, retrying rejected sends until accepted or the deadline
    /// lapses. Returns the attempt/rejection/elapsed accounting.
    pub fn ingest_blocking(
        &mut self,
        seq: u64,
        records: &[(UserId, ItemId, u32)],
    ) -> Result<ClientStats, WireError> {
        self.ingest_blocking_with(seq, records, &RetryPolicy::default())
    }

    /// [`ingest_blocking`](Client::ingest_blocking) under an explicit
    /// retry policy. A lapsed deadline surfaces as a `TimedOut` I/O error
    /// so callers can distinguish it from wire failures.
    pub fn ingest_blocking_with(
        &mut self,
        seq: u64,
        records: &[(UserId, ItemId, u32)],
        policy: &RetryPolicy,
    ) -> Result<ClientStats, WireError> {
        let mut backoff = policy.start();
        loop {
            match self.ingest(seq, records.to_vec())? {
                IngestOutcome::Accepted { .. } => return Ok(backoff.stats()),
                IngestOutcome::Backpressure { .. } => {
                    backoff.record_rejection();
                    if !backoff.sleep() {
                        return Err(WireError::Io(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!(
                                "ingest deadline exceeded after {} attempts",
                                backoff.stats().attempts
                            ),
                        )));
                    }
                }
            }
        }
    }

    /// Risk verdicts for `users` and `items` against the current view.
    pub fn query_risk(
        &mut self,
        users: Vec<UserId>,
        items: Vec<ItemId>,
    ) -> Result<RiskReport, WireError> {
        self.expect(&Request::QueryRisk { users, items }, |resp| match resp {
            Response::Risk {
                epoch,
                users,
                items,
                groups,
                degraded,
                missing_shards,
            } => Ok(RiskReport {
                epoch,
                users,
                items,
                groups,
                degraded,
                missing_shards,
            }),
            other => Err(other),
        })
    }

    /// Top-`n` cleaned recommendations for `user`, with the answering
    /// view's epoch and degradation flag.
    pub fn recommend(&mut self, user: UserId, n: usize) -> Result<Recommendation, WireError> {
        self.expect(&Request::Recommend { user, n }, |resp| match resp {
            Response::Recommendation {
                epoch,
                items,
                degraded,
            } => Ok(Recommendation {
                epoch,
                items,
                degraded,
            }),
            other => Err(other),
        })
    }

    /// Per-shard health, restart counts, and the quorum epoch watermark.
    pub fn status(&mut self) -> Result<StatusReport, WireError> {
        self.expect(&Request::Status, |resp| match resp {
            Response::Status {
                epoch,
                quorum,
                degraded,
                shards,
            } => Ok(StatusReport {
                epoch,
                quorum,
                degraded,
                shards,
            }),
            other => Err(other),
        })
    }

    /// The server's metrics snapshot (`count_only` strips timing fields).
    pub fn metrics(&mut self, count_only: bool) -> Result<MetricsSnapshot, WireError> {
        self.expect(&Request::Metrics { count_only }, |resp| match resp {
            Response::Metrics(m) => Ok(m),
            other => Err(other),
        })
    }

    /// A consistent checkpoint covering every batch accepted before this
    /// call (single-state servers answer the checkpoint inline).
    pub fn checkpoint(&mut self) -> Result<Checkpoint, WireError> {
        self.expect(&Request::Checkpoint, |resp| match resp {
            Response::CheckpointTaken(c) => Ok(c),
            other => Err(other),
        })
    }

    /// A coordinated checkpoint barrier against a sharded router: every
    /// shard's file plus the `manifest.json` commit point. Returns the
    /// manifest path (empty when the router has no checkpoint directory)
    /// and the quorum epoch at the barrier.
    pub fn checkpoint_manifest(&mut self) -> Result<(String, u64), WireError> {
        self.expect(&Request::Checkpoint, |resp| match resp {
            Response::ManifestWritten { path, epoch, .. } => Ok((path, epoch)),
            other => Err(other),
        })
    }

    /// Requests a graceful shutdown.
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        self.expect(&Request::Shutdown, |resp| match resp {
            Response::ShuttingDown => Ok(()),
            other => Err(other),
        })
    }
}
