//! The loopback wire protocol: length-prefixed JSON frames.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON — one [`Request`] per client frame, one [`Response`]
//! per server frame. Length-prefix framing keeps the reader allocation
//! exact (no resynchronization scans) and makes hostile inputs cheap to
//! reject: a header longer than [`MAX_FRAME_LEN`] is refused before a
//! single payload byte is read, the same discipline the binary graph
//! deserializer applies to its headers.
//!
//! JSON (via the workspace `serde_json`) rather than a binary encoding
//! because every payload type already serializes deterministically for the
//! CLI and checkpoint paths — the wire reuses those exact shapes, so a
//! checkpoint taken over the wire is byte-compatible with one written by
//! `StreamingDetector` locally.

use ricd_core::incremental::Checkpoint;
use ricd_core::riskview::RiskVerdict;
use ricd_graph::{ItemId, UserId};
use ricd_obs::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, Read, Write};

/// Hard ceiling on a frame's payload length (64 MiB). A hostile or corrupt
/// length prefix is rejected without allocating.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// A client request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Append a click-record batch to the stream. `seq` is the client's
    /// batch sequence number; redeliveries (same `seq`) are deduplicated by
    /// the detector, so ingestion is safe under at-least-once delivery.
    Ingest {
        /// Batch sequence number.
        seq: u64,
        /// The batch's `(user, item, clicks)` records.
        records: Vec<(UserId, ItemId, u32)>,
    },
    /// Append a **timestamped** click-record batch to the stream. Same
    /// sequencing and dedup contract as [`Request::Ingest`]; the extra
    /// per-record event-time tick feeds the server's event-time metrics
    /// (`serve.event_ts`). Variants are encoded by name on the wire, so
    /// an old server answers this with a `Malformed`-driven
    /// [`Response::Error`] rather than misparsing it, and old clients
    /// are untouched.
    IngestTimed {
        /// Batch sequence number.
        seq: u64,
        /// The batch's `(user, item, clicks, event-tick)` records.
        records: Vec<(UserId, ItemId, u32, u64)>,
    },
    /// Look up risk verdicts for users and items against the current
    /// [`RiskView`](ricd_core::riskview::RiskView) snapshot.
    QueryRisk {
        /// Users to look up.
        users: Vec<UserId>,
        /// Items to look up.
        items: Vec<ItemId>,
    },
    /// Top-`n` recommendations for `user` from the **cleaned** I2I index
    /// (detected fake co-clicks subtracted).
    Recommend {
        /// The user to recommend for.
        user: UserId,
        /// List length.
        n: usize,
    },
    /// The server's metrics snapshot.
    Metrics {
        /// Strip durations (the byte-stable projection).
        count_only: bool,
    },
    /// A consistent detector checkpoint, serialized after every batch
    /// accepted before this request. On a sharded server this is a
    /// **coordinated** checkpoint: every shard checkpoints at a barrier
    /// and the reply is a [`Response::ManifestWritten`] instead.
    Checkpoint,
    /// The serving topology's health: per-shard state, epochs, backlogs,
    /// restart counts, and the quorum epoch watermark.
    Status,
    /// Graceful shutdown: drain accepted batches, stop accepting.
    Shutdown,
}

/// One shard's health as reported by [`Response::Status`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: u32,
    /// `"up"`, `"recovering"`, or `"down"`.
    pub state: String,
    /// The shard's latest published view epoch.
    pub epoch: u64,
    /// Batches routed to the shard but not yet processed.
    pub backlog: u64,
    /// The shard's next expected local batch sequence number.
    pub next_seq: u64,
    /// How many times the supervisor has restarted this shard.
    pub restarts: u64,
}

/// A server response.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The batch was accepted into the ingest queue.
    Ingested {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Records queued.
        records: usize,
    },
    /// **Backpressure**: the ingest queue is full and the batch was NOT
    /// accepted. The client owns the retry (the server never buffers
    /// beyond its queue bound).
    Rejected {
        /// Echo of the request's sequence number.
        seq: u64,
        /// The queue's capacity, for client-side pacing.
        queue_capacity: usize,
    },
    /// Risk verdicts from one consistent view snapshot (on a sharded
    /// server: from the merge of every live shard's snapshot).
    Risk {
        /// The answering view's epoch (sharded: the quorum watermark).
        epoch: u64,
        /// Per-user verdicts, in request order.
        users: Vec<(UserId, RiskVerdict)>,
        /// Per-item verdicts, in request order.
        items: Vec<(ItemId, RiskVerdict)>,
        /// Number of detected groups in the view.
        groups: usize,
        /// True when no replica was `Up`: the answer comes from a
        /// recovering replica's last view, or is empty when every replica
        /// is down. A monolith server always answers `false`.
        degraded: bool,
        /// The replicas that were `Down`.
        missing_shards: Vec<u32>,
    },
    /// A cleaned recommendation list.
    Recommendation {
        /// The answering view's epoch.
        epoch: u64,
        /// `(item, score)` descending.
        items: Vec<(ItemId, f32)>,
        /// True when no replica was `Up` (see `Risk::degraded`); with every
        /// replica down the list is empty-by-outage, not empty-by-content.
        degraded: bool,
    },
    /// The server's metrics snapshot.
    Metrics(MetricsSnapshot),
    /// A consistent detector checkpoint.
    CheckpointTaken(Checkpoint),
    /// A coordinated sharded checkpoint completed: per-shard checkpoint
    /// files plus `manifest.json` were written atomically under the
    /// server's checkpoint directory.
    ManifestWritten {
        /// The manifest file's path.
        path: String,
        /// Shards covered.
        shards: u32,
        /// The quorum epoch at the checkpoint barrier.
        epoch: u64,
    },
    /// The serving topology's health.
    Status {
        /// The quorum epoch watermark queries are answered at.
        epoch: u64,
        /// Live shards required before the epoch may advance.
        quorum: u32,
        /// True when any shard is not `Up`.
        degraded: bool,
        /// Per-shard health, in shard order.
        shards: Vec<ShardStatus>,
    },
    /// Shutdown acknowledged; the server is draining.
    ShuttingDown,
    /// The request could not be served.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection at a frame boundary (clean EOF).
    Closed,
    /// An I/O failure (includes EOF mid-frame).
    Io(io::Error),
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    TooLarge(u32),
    /// The payload is not valid UTF-8 JSON of the expected type.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::TooLarge(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Writes one length-prefixed JSON frame.
pub fn write_frame<T: Serialize>(w: &mut impl Write, msg: &T) -> io::Result<()> {
    let payload = serde_json::to_string(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME_LEN)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "frame too large to send"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Reads one length-prefixed JSON frame.
///
/// Distinguishes a clean close (EOF before any header byte →
/// [`WireError::Closed`]) from a truncated frame (EOF mid-header or
/// mid-payload → [`WireError::Io`]).
pub fn read_frame<T: Deserialize>(r: &mut impl Read) -> Result<T, WireError> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Err(WireError::Closed),
            Ok(0) => {
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header);
    if len > MAX_FRAME_LEN {
        return Err(WireError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let text = std::str::from_utf8(&payload)
        .map_err(|e| WireError::Malformed(format!("invalid utf-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| WireError::Malformed(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(req: Request) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let back: Request = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn requests_round_trip() {
        round_trip(Request::Ingest {
            seq: 7,
            records: vec![(UserId(1), ItemId(2), 3), (UserId(4), ItemId(5), 6)],
        });
        round_trip(Request::IngestTimed {
            seq: 8,
            records: vec![
                (UserId(1), ItemId(2), 3, 400),
                (UserId(4), ItemId(5), 6, 700),
            ],
        });
        round_trip(Request::QueryRisk {
            users: vec![UserId(9)],
            items: vec![ItemId(1), ItemId(2)],
        });
        round_trip(Request::Recommend {
            user: UserId(3),
            n: 10,
        });
        round_trip(Request::Metrics { count_only: true });
        round_trip(Request::Checkpoint);
        round_trip(Request::Status);
        round_trip(Request::Shutdown);
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Ingested { seq: 1, records: 5 },
            Response::Rejected {
                seq: 2,
                queue_capacity: 8,
            },
            Response::Risk {
                epoch: 4,
                users: vec![(
                    UserId(1),
                    RiskVerdict {
                        flagged: true,
                        score: 2.5,
                        group: Some(0),
                    },
                )],
                items: vec![(ItemId(9), RiskVerdict::clear())],
                groups: 1,
                degraded: true,
                missing_shards: vec![2],
            },
            Response::Recommendation {
                epoch: 4,
                items: vec![(ItemId(3), 0.5)],
                degraded: false,
            },
            Response::ManifestWritten {
                path: "/tmp/ckpt/manifest.json".into(),
                shards: 4,
                epoch: 9,
            },
            Response::Status {
                epoch: 9,
                quorum: 3,
                degraded: true,
                shards: vec![ShardStatus {
                    shard: 1,
                    state: "recovering".into(),
                    epoch: 8,
                    backlog: 3,
                    next_seq: 17,
                    restarts: 1,
                }],
            },
            Response::ShuttingDown,
            Response::Error {
                message: "busy".into(),
            },
        ] {
            let mut buf = Vec::new();
            write_frame(&mut buf, &resp).unwrap();
            let back: Response = read_frame(&mut buf.as_slice()).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn several_frames_on_one_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Checkpoint).unwrap();
        write_frame(&mut buf, &Request::Shutdown).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame::<Request>(&mut r).unwrap(), Request::Checkpoint);
        assert_eq!(read_frame::<Request>(&mut r).unwrap(), Request::Shutdown);
        assert!(matches!(
            read_frame::<Request>(&mut r),
            Err(WireError::Closed)
        ));
    }

    #[test]
    fn frame_at_exactly_the_cap_is_accepted() {
        // The cap is inclusive: a payload of exactly MAX_FRAME_LEN bytes
        // must survive the write guard and the read guard; one byte more
        // is the hostile-length case below. A JSON string of cap-2 chars
        // serializes to exactly cap bytes (two quote bytes, no escapes).
        let payload = "x".repeat(MAX_FRAME_LEN as usize - 2);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).expect("exact-cap frame must be writable");
        assert_eq!(buf.len(), 4 + MAX_FRAME_LEN as usize);
        assert_eq!(&buf[..4], &MAX_FRAME_LEN.to_be_bytes());
        let back: String =
            read_frame(&mut buf.as_slice()).expect("exact-cap frame must be readable");
        assert_eq!(back, payload);
        // One byte past the cap is refused at the *write* side too.
        let over = "x".repeat(MAX_FRAME_LEN as usize - 1);
        assert!(write_frame(&mut Vec::new(), &over).is_err());
    }

    #[test]
    fn hostile_length_rejected_without_allocation() {
        let mut buf = (MAX_FRAME_LEN + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        match read_frame::<Request>(&mut buf.as_slice()) {
            Err(WireError::TooLarge(n)) => assert_eq!(n, MAX_FRAME_LEN + 1),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_header_and_payload_are_io_errors() {
        let mut short = vec![0u8, 0];
        assert!(matches!(
            read_frame::<Request>(&mut short.as_slice()),
            Err(WireError::Io(_))
        ));
        short = 10u32.to_be_bytes().to_vec();
        short.extend_from_slice(b"abc"); // 3 of the promised 10 bytes
        assert!(matches!(
            read_frame::<Request>(&mut short.as_slice()),
            Err(WireError::Io(_))
        ));
    }

    #[test]
    fn garbage_payload_is_malformed_not_fatal() {
        let payload = b"not json at all";
        let mut buf = (payload.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(payload);
        assert!(matches!(
            read_frame::<Request>(&mut buf.as_slice()),
            Err(WireError::Malformed(_))
        ));
        // Valid JSON of the wrong shape is equally malformed.
        let payload = br#"{"NoSuchVariant":{}}"#;
        let mut buf = (payload.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(payload);
        assert!(matches!(
            read_frame::<Request>(&mut buf.as_slice()),
            Err(WireError::Malformed(_))
        ));
    }
}
