//! Import/export of click tables.
//!
//! The on-disk format mirrors the paper's `TaoBao_UI_Clicks` table: one
//! record per line, `user_id \t item_id \t click`.

use crate::builder::GraphBuilder;
use crate::graph::BipartiteGraph;
use crate::ids::{ItemId, UserId};
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
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, message } => write!(f, "line {line}: {message}"),
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

/// The one record loop over the TSV dialect every click-table reader speaks:
/// tab-separated `u32 u32 u32`, blank lines and lines starting with `#`
/// skipped, lines numbered from 1.
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
}
