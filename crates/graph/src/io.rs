//! Import/export of click tables.
//!
//! The on-disk format mirrors the paper's `TaoBao_UI_Clicks` table: one
//! record per line, `user_id \t item_id \t click`. A compact binary format
//! (length-prefixed little-endian, via `bytes`) is provided for large
//! synthetic datasets where TSV parsing would dominate load time.

use crate::builder::GraphBuilder;
use crate::graph::BipartiteGraph;
use crate::ids::{ItemId, UserId};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{self, BufRead, Write};

/// Error raised while parsing a click table.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed record.
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// Binary payload truncated or with a bad magic header.
    Corrupt(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, message } => write!(f, "line {line}: {message}"),
            IoError::Corrupt(m) => write!(f, "corrupt payload: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Writes the graph as `user \t item \t click` lines, ordered by user then
/// item.
pub fn write_tsv<W: Write>(g: &BipartiteGraph, mut w: W) -> Result<(), IoError> {
    for (u, v, c) in g.edges() {
        writeln!(w, "{}\t{}\t{}", u.0, v.0, c)?;
    }
    Ok(())
}

/// One quarantined malformed line from a lossy read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for LineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// The result of a lossy TSV read: the graph built from every parseable
/// record, plus a per-line report of everything quarantined.
#[derive(Debug)]
pub struct LossyRead {
    /// Graph over the clean subset of records.
    pub graph: BipartiteGraph,
    /// One entry per malformed line, in file order.
    pub errors: Vec<LineError>,
}

impl From<LineError> for IoError {
    fn from(e: LineError) -> Self {
        IoError::Parse {
            line: e.line,
            message: e.message,
        }
    }
}

/// One TSV record: `(user, item, clicks)`.
pub type Record = (u32, u32, u32);

fn parse_record(trimmed: &str, line: usize) -> Result<Record, LineError> {
    let mut parts = trimmed.split('\t');
    let mut field = |what: &str| -> Result<u32, LineError> {
        let err = |message| LineError { line, message };
        parts
            .next()
            .ok_or_else(|| err(format!("missing {what}")))?
            .trim()
            .parse()
            .map_err(|e| err(format!("bad {what}: {e}")))
    };
    Ok((field("user id")?, field("item id")?, field("click count")?))
}

/// The one record loop over the TSV dialect every click-table reader (here
/// and in `ricd_table::io`) speaks: tab-separated `u32 u32 u32`, blank lines
/// and lines starting with `#` skipped, lines numbered from 1.
///
/// `each` sees every other line as its parsed record or — malformed, or not
/// valid UTF-8 — as a [`LineError`]; what it returns as `Err` stops the read
/// (strict readers pass the first `LineError` straight back, lossy readers
/// collect them and go on). Underlying I/O failures always abort — a
/// quarantine list cannot represent "the disk went away". One byte buffer
/// serves every line; nothing is allocated per record.
pub fn read_records<R: BufRead>(
    mut r: R,
    mut each: impl FnMut(Result<Record, LineError>) -> Result<(), LineError>,
) -> Result<(), IoError> {
    let mut raw = Vec::new();
    for line in 1.. {
        raw.clear();
        if r.read_until(b'\n', &mut raw)? == 0 {
            break;
        }
        each(match std::str::from_utf8(&raw).map(str::trim) {
            Ok(text) if text.is_empty() || text.starts_with('#') => continue,
            Ok(text) => parse_record(text, line),
            Err(_) => Err(LineError {
                line,
                message: "not valid UTF-8".to_string(),
            }),
        })?;
    }
    Ok(())
}

/// Parses a TSV click table ([`read_records`]' dialect), stopping at the
/// first malformed line; duplicate pairs are merged by summation (builder
/// semantics).
pub fn read_tsv<R: BufRead>(r: R) -> Result<BipartiteGraph, IoError> {
    let mut b = GraphBuilder::new();
    read_records(r, |record| {
        let (u, v, c) = record?;
        b.add_click(UserId(u), ItemId(v), c);
        Ok(())
    })?;
    Ok(b.build())
}

/// Lossy [`read_tsv`]: malformed lines — including lines that are not
/// valid UTF-8 — are quarantined into a per-line error report instead of
/// aborting the read, and the graph is built from the clean subset.
pub fn read_tsv_lossy<R: BufRead>(r: R) -> Result<LossyRead, IoError> {
    Ok(read_lossy(r)?.0)
}

/// [`read_tsv_lossy`] that additionally records `io.records_ingested` and
/// `io.lines_quarantined` counters in `metrics`, so load-time data quality
/// lands in the same snapshot as the detection run it feeds.
pub fn read_tsv_lossy_metered<R: BufRead>(
    r: R,
    metrics: &ricd_obs::MetricsRegistry,
) -> Result<LossyRead, IoError> {
    let (read, ingested) = read_lossy(r)?;
    metrics.inc_by("io.records_ingested", ingested);
    metrics.inc_by("io.lines_quarantined", read.errors.len() as u64);
    Ok(read)
}

/// The lossy read plus the number of records ingested (before merging).
fn read_lossy<R: BufRead>(r: R) -> Result<(LossyRead, u64), IoError> {
    let (mut b, mut errors, mut ingested) = (GraphBuilder::new(), Vec::new(), 0);
    read_records(r, |record| {
        match record {
            Ok((u, v, c)) => {
                b.add_click(UserId(u), ItemId(v), c);
                ingested += 1;
            }
            Err(e) => errors.push(e),
        }
        Ok(())
    })?;
    let graph = b.build();
    Ok((LossyRead { graph, errors }, ingested))
}

const MAGIC: &[u8; 8] = b"RICDCLK1";

/// Serializes the graph's edge list into a compact binary buffer:
/// `MAGIC | num_users u64 | num_items u64 | num_edges u64 | (u,v,c) u32×3 …`.
pub fn to_bytes(g: &BipartiteGraph) -> Bytes {
    let mut buf = BytesMut::with_capacity(32 + g.num_edges() * 12);
    buf.put_slice(MAGIC);
    buf.put_u64_le(g.num_users() as u64);
    buf.put_u64_le(g.num_items() as u64);
    buf.put_u64_le(g.num_edges() as u64);
    for (u, v, c) in g.edges() {
        buf.put_u32_le(u.0);
        buf.put_u32_le(v.0);
        buf.put_u32_le(c);
    }
    buf.freeze()
}

/// Deserializes a buffer produced by [`to_bytes`].
pub fn from_bytes(mut buf: Bytes) -> Result<BipartiteGraph, IoError> {
    if buf.remaining() < 32 {
        return Err(IoError::Corrupt("header truncated".into()));
    }
    let mut magic = [0u8; 8];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(IoError::Corrupt("bad magic".into()));
    }
    let users = buf.get_u64_le();
    let items = buf.get_u64_le();
    let edges = buf.get_u64_le();
    // Vertex ids are u32, so a header claiming more vertices than the id
    // space can address is corrupt no matter what follows. Below that,
    // materializing the graph still costs O(users + items) memory before
    // a single edge record is validated, so the format carries an explicit
    // capacity bound: a corrupted (bit-flipped) header must not buy a
    // multi-gigabyte allocation. 2^26 (~67M) vertices covers the paper's
    // 20M-user production table with headroom.
    const MAX_VERTICES: u64 = 1 << 26;
    if users > MAX_VERTICES || items > MAX_VERTICES {
        return Err(IoError::Corrupt(format!(
            "vertex counts {users}/{items} exceed the format bound of {MAX_VERTICES}"
        )));
    }
    let (users, items) = (users as usize, items as usize);
    // `edges * 12` must not wrap: a hostile header with edges near the
    // integer maximum would otherwise pass the length check and drive a
    // huge allocation + read loop below.
    match edges.checked_mul(12) {
        Some(need) if buf.remaining() as u64 >= need => {}
        _ => {
            return Err(IoError::Corrupt(format!(
                "expected {edges} edge records, have {} bytes",
                buf.remaining()
            )));
        }
    }
    let edges = edges as usize;
    // Even with a consistent header, never pre-allocate more than the
    // payload can actually hold.
    let mut b = GraphBuilder::with_capacity(edges.min(buf.remaining() / 12));
    b.reserve_users(users).reserve_items(items);
    for i in 0..edges {
        let u = buf.get_u32_le();
        let v = buf.get_u32_le();
        let c = buf.get_u32_le();
        // A well-formed file never references a vertex outside the counts
        // its own header declares (to_bytes writes num_users/num_items).
        // Without this check a single flipped high bit in an id would grow
        // the builder to a multi-billion-vertex graph.
        if u as usize >= users || v as usize >= items {
            return Err(IoError::Corrupt(format!(
                "edge record {i} references vertex ({u}, {v}) outside the \
                 declared {users}x{items} graph"
            )));
        }
        b.add_click(UserId(u), ItemId(v), c);
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        b.add_click(UserId(0), ItemId(1), 3);
        b.add_click(UserId(2), ItemId(0), 1);
        b.reserve_users(5).reserve_items(4);
        b.build()
    }

    #[test]
    fn tsv_round_trip() {
        let g = sample();
        let mut out = Vec::new();
        write_tsv(&g, &mut out).unwrap();
        let g2 = read_tsv(out.as_slice()).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.total_clicks(), g.total_clicks());
        assert_eq!(g2.clicks(UserId(0), ItemId(1)), Some(3));
        // Note: isolated trailing vertices are not representable in TSV.
        assert_eq!(g2.num_users(), 3);
    }

    #[test]
    fn tsv_skips_comments_and_blanks() {
        let text = "# header\n\n0\t0\t2\n0\t0\t3\n";
        let g = read_tsv(text.as_bytes()).unwrap();
        assert_eq!(g.clicks(UserId(0), ItemId(0)), Some(5));
    }

    #[test]
    fn tsv_reports_line_numbers() {
        let text = "0\t0\t1\nbad line\n";
        match read_tsv(text.as_bytes()) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn tsv_missing_field() {
        let text = "0\t0\n";
        assert!(matches!(
            read_tsv(text.as_bytes()),
            Err(IoError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn tsv_accepts_crlf_line_endings() {
        let text = "# header\r\n0\t0\t2\r\n\r\n1\t1\t3\r\n2\t2\r\n";
        // Strict: records before the bad line parse, and the bad line keeps
        // its 1-based number (comment and blank lines count).
        match read_tsv(text.as_bytes()) {
            Err(IoError::Parse { line, message }) => {
                assert_eq!(line, 5);
                assert!(message.contains("missing click count"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        let clean = &text[..text.len() - "2\t2\r\n".len()];
        let g = read_tsv(clean.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.clicks(UserId(1), ItemId(1)), Some(3));
        // Lossy: same records, same line number, quarantined.
        let r = read_tsv_lossy(text.as_bytes()).unwrap();
        assert_eq!(r.graph.num_edges(), 2);
        let lines: Vec<usize> = r.errors.iter().map(|e| e.line).collect();
        assert_eq!(lines, vec![5]);
    }

    #[test]
    fn non_utf8_line_is_a_numbered_line_error_in_every_mode() {
        let bytes = b"0\t0\t2\n# note\n\xff\xfe\t1\t1\n1\t1\t3\n";
        match read_tsv(&bytes[..]) {
            Err(IoError::Parse { line, message }) => {
                assert_eq!(line, 3);
                assert_eq!(message, "not valid UTF-8");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        let r = read_tsv_lossy(&bytes[..]).unwrap();
        assert_eq!(r.graph.num_edges(), 2);
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0].to_string(), "line 3: not valid UTF-8");
    }

    #[test]
    fn record_loop_stops_where_the_caller_says() {
        let text = "0\t0\t1\nbad\n1\t1\t1\nworse\n";
        let mut seen = Vec::new();
        let stopped = read_records(text.as_bytes(), |record| {
            seen.push(record.clone().map_err(|e| e.line));
            // Tolerate the first malformed line, stop at the second.
            match record {
                Err(e) if e.line > 2 => Err(e),
                _ => Ok(()),
            }
        });
        assert!(matches!(stopped, Err(IoError::Parse { line: 4, .. })));
        assert_eq!(seen, [Ok((0, 0, 1)), Err(2), Ok((1, 1, 1)), Err(4)]);
    }

    #[test]
    fn lossy_read_quarantines_bad_lines() {
        let text = "0\t0\t2\nbad line\n1\t1\t3\n2\t2\n3\t3\tNaN\n# comment\n4\t4\t1\n";
        let r = read_tsv_lossy(text.as_bytes()).unwrap();
        assert_eq!(r.graph.num_edges(), 3, "three clean records survive");
        assert_eq!(r.graph.clicks(UserId(4), ItemId(4)), Some(1));
        let lines: Vec<usize> = r.errors.iter().map(|e| e.line).collect();
        assert_eq!(lines, vec![2, 4, 5], "every bad line reported, in order");
        assert!(r.errors[1].message.contains("missing"), "{}", r.errors[1]);
    }

    #[test]
    fn metered_lossy_read_counts_ingested_and_quarantined() {
        let text = "0\t0\t2\nbad line\n1\t1\t3\n2\t2\n3\t3\tNaN\n# comment\n4\t4\t1\n";
        let registry = ricd_obs::MetricsRegistry::new();
        let r = read_tsv_lossy_metered(text.as_bytes(), &registry).unwrap();
        assert_eq!(r.errors.len(), 3);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("io.records_ingested"), Some(3));
        assert_eq!(snap.counter("io.lines_quarantined"), Some(3));
    }

    #[test]
    fn lossy_read_of_clean_input_matches_strict() {
        let g = sample();
        let mut out = Vec::new();
        write_tsv(&g, &mut out).unwrap();
        let strict = read_tsv(out.as_slice()).unwrap();
        let lossy = read_tsv_lossy(out.as_slice()).unwrap();
        assert!(lossy.errors.is_empty());
        assert_eq!(lossy.graph.num_edges(), strict.num_edges());
        assert_eq!(lossy.graph.total_clicks(), strict.total_clicks());
    }

    #[test]
    fn binary_round_trip_preserves_isolated_vertices() {
        let g = sample();
        let bytes = to_bytes(&g);
        let g2 = from_bytes(bytes).unwrap();
        assert_eq!(g2.num_users(), 5);
        assert_eq!(g2.num_items(), 4);
        assert_eq!(g2.num_edges(), 2);
        assert_eq!(g2.clicks(UserId(2), ItemId(0)), Some(1));
        g2.validate().unwrap();
    }

    #[test]
    fn binary_rejects_truncation_and_bad_magic() {
        let g = sample();
        let bytes = to_bytes(&g);
        let truncated = bytes.slice(0..bytes.len() - 1);
        assert!(matches!(from_bytes(truncated), Err(IoError::Corrupt(_))));
        let mut bad = BytesMut::from(&bytes[..]);
        bad[0] = b'X';
        assert!(matches!(from_bytes(bad.freeze()), Err(IoError::Corrupt(_))));
        assert!(matches!(
            from_bytes(Bytes::from_static(b"short")),
            Err(IoError::Corrupt(_))
        ));
    }

    /// A 32-byte header is all an attacker controls cheaply; every field
    /// pushed to its extreme must yield `Corrupt`, never a wrapping length
    /// check, a giant pre-allocation, or a panic in the read loop.
    #[test]
    fn binary_rejects_hostile_headers() {
        let header = |users: u64, items: u64, edges: u64| {
            let mut h = BytesMut::with_capacity(32);
            h.put_slice(MAGIC);
            h.put_u64_le(users);
            h.put_u64_le(items);
            h.put_u64_le(edges);
            h.freeze()
        };
        // edges * 12 wraps around u64 (and usize).
        for edges in [
            u64::MAX,
            u64::MAX / 2,
            u64::MAX / 12 + 1,
            (usize::MAX / 12 + 1) as u64,
        ] {
            assert!(
                matches!(from_bytes(header(1, 1, edges)), Err(IoError::Corrupt(_))),
                "edges={edges:#x} must be rejected"
            );
        }
        // Plausible edge count, no payload: must not pre-allocate for the
        // claimed count before noticing the buffer is empty.
        assert!(matches!(
            from_bytes(header(10, 10, 1 << 40)),
            Err(IoError::Corrupt(_))
        ));
        // Vertex counts beyond the u32 id space.
        assert!(matches!(
            from_bytes(header(u64::MAX, 1, 0)),
            Err(IoError::Corrupt(_))
        ));
        assert!(matches!(
            from_bytes(header(1, u64::MAX, 0)),
            Err(IoError::Corrupt(_))
        ));
        // An all-maximal header exercises every guard at once.
        assert!(matches!(
            from_bytes(header(u64::MAX, u64::MAX, u64::MAX)),
            Err(IoError::Corrupt(_))
        ));
    }
}
