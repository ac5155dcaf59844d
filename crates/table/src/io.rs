//! Table I/O: TSV (human-auditable) and JSON (experiment artifacts).

use crate::click_table::ClickTable;
use ricd_graph::io::read_records;
use std::io::{self, BufRead, Write};

/// Writes the table as `user \t item \t click` lines.
pub fn write_tsv<W: Write>(t: &ClickTable, mut w: W) -> io::Result<()> {
    for (u, v, c) in t.rows() {
        writeln!(w, "{u}\t{v}\t{c}")?;
    }
    Ok(())
}

/// The result of a lossy TSV read: the table built from every parseable
/// record, plus `(line, message)` for everything quarantined.
#[derive(Debug)]
pub struct LossyRead {
    /// Table over the clean subset of records.
    pub table: ClickTable,
    /// One `(1-based line, message)` entry per malformed line, in order.
    pub errors: Vec<(usize, String)>,
}

/// Reads a TSV click table through `ricd_graph::io::read_records` (so the
/// same dialect as `ricd_graph::io::read_tsv`: blank lines and `#` comments
/// skipped), stopping at the first malformed line; duplicates are merged.
pub fn read_tsv<R: BufRead>(r: R) -> Result<ClickTable, String> {
    let mut rows = Vec::new();
    read_records(r, |record| {
        rows.push(record?);
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    Ok(ClickTable::from_rows(rows))
}

/// Lossy [`read_tsv`]: malformed lines — including lines that are not
/// valid UTF-8 — are quarantined into the error report instead of
/// aborting; underlying I/O failures still abort.
pub fn read_tsv_lossy<R: BufRead>(r: R) -> Result<LossyRead, String> {
    Ok(read_lossy(r)?.0)
}

/// [`read_tsv_lossy`] that additionally records `table.records_ingested`
/// and `table.lines_quarantined` counters in `metrics`.
pub fn read_tsv_lossy_metered<R: BufRead>(
    r: R,
    metrics: &ricd_obs::MetricsRegistry,
) -> Result<LossyRead, String> {
    let (read, ingested) = read_lossy(r)?;
    metrics.inc_by("table.records_ingested", ingested);
    metrics.inc_by("table.lines_quarantined", read.errors.len() as u64);
    Ok(read)
}

/// The lossy read plus the number of records ingested (before merging).
fn read_lossy<R: BufRead>(r: R) -> Result<(LossyRead, u64), String> {
    let (mut rows, mut errors) = (Vec::new(), Vec::new());
    read_records(r, |record| {
        match record {
            Ok(row) => rows.push(row),
            Err(e) => errors.push((e.line, e.to_string())),
        }
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    let ingested = rows.len() as u64;
    let table = ClickTable::from_rows(rows);
    Ok((LossyRead { table, errors }, ingested))
}

/// Serializes the table to a JSON string (columnar layout).
///
/// Infallible for any table this crate can build, but surfaced as a
/// `Result` so callers handle serializer failures as data errors rather
/// than a panic in release pipelines.
pub fn to_json(t: &ClickTable) -> Result<String, String> {
    serde_json::to_string(t).map_err(|e| e.to_string())
}

/// Deserializes a JSON table produced by [`to_json`].
pub fn from_json(s: &str) -> Result<ClickTable, String> {
    serde_json::from_str(s).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_round_trip() {
        let t = ClickTable::from_rows([(0, 1, 3), (2, 0, 1)]);
        let mut buf = Vec::new();
        write_tsv(&t, &mut buf).unwrap();
        let t2 = read_tsv(buf.as_slice()).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn tsv_merges_duplicates() {
        let t = read_tsv("0\t0\t1\n0\t0\t2\n".as_bytes()).unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.total_clicks(), 3);
    }

    #[test]
    fn tsv_errors_carry_line_numbers() {
        let err = read_tsv("0\t0\t1\nnope\n".as_bytes()).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn json_round_trip() {
        let t = ClickTable::from_rows([(7, 8, 9)]);
        let t2 = from_json(&to_json(&t).unwrap()).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn lossy_read_recovers_clean_rows() {
        let text = "0\t0\t1\ngarbage\n1\t1\t2\n9999999999\t0\t1\n";
        let r = read_tsv_lossy(text.as_bytes()).unwrap();
        assert_eq!(r.table.num_rows(), 2);
        let lines: Vec<usize> = r.errors.iter().map(|&(l, _)| l).collect();
        assert_eq!(lines, vec![2, 4]);
        assert!(r.errors[1].1.contains("bad user id"), "{}", r.errors[1].1);
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(from_json("not json").is_err());
    }

    #[test]
    fn metered_lossy_read_counts_rows_and_quarantines() {
        let text = "0\t0\t1\ngarbage\n1\t1\t2\n9999999999\t0\t1\n";
        let registry = ricd_obs::MetricsRegistry::new();
        let r = read_tsv_lossy_metered(text.as_bytes(), &registry).unwrap();
        assert_eq!(r.errors.len(), 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("table.records_ingested"), Some(2));
        assert_eq!(snap.counter("table.lines_quarantined"), Some(2));
    }
}
