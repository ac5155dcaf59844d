#![warn(missing_docs)]

//! # ricd-serve — the online detection service
//!
//! The paper's framework ultimately runs *in front of* a recommender: the
//! case study (Section VII) measures detection by the incorrect
//! recommendations it prevents. This crate is that deployment shape — a
//! long-running daemon wrapping the [`StreamingDetector`] behind a
//! loopback wire protocol:
//!
//! * **Streaming ingest** with explicit backpressure: click batches enter
//!   a bounded queue; a full queue rejects (never buffers unboundedly),
//!   and at-least-once redelivery is safe because the detector
//!   deduplicates by batch sequence number.
//! * **Risk queries** against an epoch-snapshotted [`RiskView`]: a
//!   background worker runs seeded incremental detection on a cadence and
//!   swaps complete immutable snapshots into place, so queries never block
//!   on (or observe a torn state of) detection.
//! * **Clean recommendation serving**: each snapshot carries an I2I index
//!   rebuilt with the flagged users' wedges subtracted — the
//!   "protect users from incorrect recommendations" loop, served live.
//! * **Checkpoint/resume**: a checkpoint request serializes after every
//!   previously accepted batch and reuses the [`Checkpoint`] crash-recovery
//!   format, so a restarted server resumes the stream where it left off.
//! * **N supervised replicas** ([`start_router`]): a routing front-end
//!   fans every batch out to N supervised replicas, each a full
//!   [`ServeState`], keeps a replay log per replica so a crashed worker
//!   restarts from its last coordinated checkpoint with **zero
//!   accepted-batch loss**, probes health on a cadence ([`supervisor`]),
//!   answers queries from the freshest `Up` replica (*degraded* only when
//!   none is `Up`), and commits coordinated `manifest.json` checkpoints
//!   ([`manifest`]) a whole process can resume from.
//!
//! Everything is std-only (threads + `TcpListener`); the protocol is
//! length-prefixed JSON ([`wire`]).
//!
//! ```no_run
//! use ricd_serve::prelude::*;
//! use ricd_core::prelude::*;
//! use ricd_engine::WorkerPool;
//! use ricd_graph::{ItemId, UserId};
//!
//! let state = ServeState::new(
//!     ServeConfig::default(),
//!     RicdPipeline::new(RicdParams::default()).with_pool(WorkerPool::new(2)),
//! );
//! let handle = ricd_serve::server::start(state, "127.0.0.1:0").unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! client.ingest_blocking(0, &[(UserId(1), ItemId(2), 3)]).unwrap();
//! let report = client.query_risk(vec![UserId(1)], vec![]).unwrap();
//! assert!(!report.users[0].1.flagged);
//! client.shutdown().unwrap();
//! handle.join();
//! ```
//!
//! [`StreamingDetector`]: ricd_core::incremental::StreamingDetector
//! [`RiskView`]: ricd_core::riskview::RiskView
//! [`Checkpoint`]: ricd_core::incremental::Checkpoint

pub mod client;
pub mod manifest;
pub mod retry;
pub mod router;
pub mod server;
pub mod shared;
pub mod state;
pub mod supervisor;
pub mod wire;

pub use client::{Client, IngestOutcome, Recommendation, RiskReport, StatusReport};
pub use manifest::{Manifest, ManifestEntry, MANIFEST_FILE, MANIFEST_VERSION};
pub use retry::{ClientStats, RetryPolicy};
pub use router::{Router, RouterConfig};
pub use server::{start, start_router, RouterHandle, ServerHandle};
pub use shared::SnapshotCell;
pub use state::{ServeConfig, ServeSnapshot, ServeState};
pub use supervisor::{ShardHealth, SupervisorConfig};
pub use wire::{Request, Response, ShardStatus, WireError, MAX_FRAME_LEN};

/// Commonly used serving types.
pub mod prelude {
    pub use crate::client::{Client, IngestOutcome, Recommendation, RiskReport, StatusReport};
    pub use crate::retry::{ClientStats, RetryPolicy};
    pub use crate::router::{Router, RouterConfig};
    pub use crate::server::{start, start_router, RouterHandle, ServerHandle};
    pub use crate::state::{ServeConfig, ServeSnapshot, ServeState};
    pub use crate::supervisor::{ShardHealth, SupervisorConfig};
    pub use crate::wire::{Request, Response, ShardStatus, WireError};
}
