//! Incremental detection over a growing click stream — the paper's stated
//! future work ("how to add an incremental data processing module to this
//! framework so that it can be applied online to perform the detection in
//! dynamic graphs … the earlier these attacks are detected in real time,
//! the more losses can be reduced").
//!
//! The design exploits a locality property of Algorithm 3: a *new* click
//! record can only create or extend an (α, k₁, k₂)-extension biclique in
//! the two-hop ball around its endpoints. So instead of re-running
//! detection on the whole cumulative graph after every batch, the
//! [`StreamingDetector`]
//!
//! 1. accumulates batches into the cumulative click multiset;
//! 2. collects the batch's **suspicious frontier** — items that received a
//!    heavy (≥ `T_click`) edge, or whose cumulative heavy-edge support grew
//!    this batch;
//! 3. runs *seeded* detection (Algorithm 2's seed path) restricted to the
//!    frontier's two-hop ball;
//! 4. merges newly confirmed groups into its running result, deduplicating
//!    against groups already reported.
//!
//! A [`StreamingDetector::full_resync`] runs the unrestricted pipeline and
//! replaces the running state — used periodically, or when the frontier
//! heuristic might have gone stale (e.g. after parameter changes).
//!
//! Soundness note: seeded detection around the frontier finds exactly the
//! groups whose structure involves at least one *new* heavy edge; groups
//! formed purely by old edges were already found by earlier batches (each
//! heavy edge was new once). This is checked against the full pipeline in
//! the tests and the `streaming_detection` example.

use crate::detect::Seeds;
use crate::pipeline::RicdPipeline;
use crate::result::{DetectionResult, SuspiciousGroup};
use ricd_graph::{BipartiteGraph, GraphBuilder, ItemId, UserId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Counters for one batch ingestion.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Records in the batch (valid ones actually ingested).
    pub records: usize,
    /// Malformed records dropped by batch validation (zero-click records —
    /// a click table row must witness at least one click).
    pub rejected: usize,
    /// Frontier items seeding this batch's detection.
    pub frontier_items: usize,
    /// Frontier items deferred because the budget's `max_frontier` cap was
    /// hit. Deferred items re-arm on their next heavy edge or on the next
    /// [`StreamingDetector::full_resync`].
    pub frontier_deferred: usize,
    /// Groups newly reported from this batch.
    pub new_groups: usize,
    /// True if the batch was recognized as an at-least-once redelivery
    /// (sequence number already ingested) and skipped entirely.
    pub replayed: bool,
}

/// A consistent snapshot of a [`StreamingDetector`]'s state, serializable
/// for crash recovery. Restoring a checkpoint and continuing the stream
/// yields byte-identical results to a detector that never crashed (see the
/// chaos suite).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The cumulative click multiset.
    pub records: Vec<(UserId, ItemId, u32)>,
    /// Pairs whose cumulative clicks crossed `T_click`.
    pub heavy_pairs: Vec<(UserId, ItemId)>,
    /// Groups reported so far.
    pub groups: Vec<SuspiciousGroup>,
    /// The next expected batch sequence number.
    pub next_seq: u64,
}

impl Checkpoint {
    /// Structural validity of a checkpoint read from outside the process:
    /// every group's users and items exist in the graph its records build.
    /// Ranking indexes the graph by those ids, so a restored checkpoint
    /// that fails this would panic there.
    pub fn validate(&self) -> Result<(), String> {
        let live = || self.records.iter().filter(|&&(_, _, c)| c > 0);
        let users = live().map(|&(u, _, _)| u.index() + 1).max().unwrap_or(0);
        let items = live().map(|&(_, v, _)| v.index() + 1).max().unwrap_or(0);
        for (i, g) in self.groups.iter().enumerate() {
            if let Some(u) = g.users.iter().find(|u| u.index() >= users) {
                return Err(format!("group {i} names user {u}, beyond {users} users"));
            }
            if let Some(v) = g.items.iter().find(|v| v.index() >= items) {
                return Err(format!("group {i} names item {v}, beyond {items} items"));
            }
        }
        Ok(())
    }
}

/// An online RICD detector over an append-only click stream.
pub struct StreamingDetector {
    pipeline: RicdPipeline,
    /// All records seen so far (the cumulative multiset).
    records: Vec<(UserId, ItemId, u32)>,
    /// Cumulative per-pair totals are implicit in the rebuilt graph; the
    /// frontier heuristic needs cumulative *heavy-edge* knowledge, tracked
    /// as the set of (user, item) pairs whose cumulative clicks crossed
    /// `T_click`.
    heavy_pairs: BTreeSet<(UserId, ItemId)>,
    /// Groups reported so far.
    groups: Vec<SuspiciousGroup>,
    /// Current cumulative graph (rebuilt per batch; CSR rebuilds are cheap
    /// relative to detection and keep query paths allocation-free).
    graph: BipartiteGraph,
    /// Next expected batch sequence number; batches with a lower number are
    /// at-least-once redeliveries and are dropped.
    next_seq: u64,
}

impl StreamingDetector {
    /// A detector with the given pipeline configuration.
    pub fn new(pipeline: RicdPipeline) -> Self {
        Self {
            pipeline,
            records: Vec::new(),
            heavy_pairs: BTreeSet::new(),
            groups: Vec::new(),
            graph: GraphBuilder::new().build(),
            next_seq: 0,
        }
    }

    /// Restores a detector from a [`Checkpoint`], rebuilding the cumulative
    /// graph. The pipeline configuration is not part of the checkpoint and
    /// is supplied fresh.
    pub fn restore(pipeline: RicdPipeline, ckpt: Checkpoint) -> Self {
        let mut d = Self {
            pipeline,
            records: ckpt.records,
            heavy_pairs: ckpt.heavy_pairs.into_iter().collect(),
            groups: ckpt.groups,
            graph: GraphBuilder::new().build(),
            next_seq: ckpt.next_seq,
        };
        d.rebuild_graph();
        d
    }

    /// Snapshots the detector's state for crash recovery.
    pub fn checkpoint(&self) -> Checkpoint {
        let metrics = &self.pipeline.metrics;
        metrics.counter("stream.checkpoints").inc();
        metrics
            .gauge("stream.checkpoint_records")
            .set(self.records.len() as i64);
        metrics
            .gauge("stream.checkpoint_groups")
            .set(self.groups.len() as i64);
        Checkpoint {
            records: self.records.clone(),
            heavy_pairs: self.heavy_pairs.iter().copied().collect(),
            groups: self.groups.clone(),
            next_seq: self.next_seq,
        }
    }

    /// The next batch sequence number this detector expects.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The cumulative graph after the last ingested batch.
    pub fn graph(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// Groups reported so far.
    pub fn groups(&self) -> &[SuspiciousGroup] {
        &self.groups
    }

    /// The running result (groups + rankings over the cumulative graph).
    pub fn result(&self) -> DetectionResult {
        let (ranked_users, ranked_items) = crate::identify::rank_output(&self.graph, &self.groups);
        DetectionResult {
            groups: self.groups.clone(),
            ranked_users,
            ranked_items,
            timings: Default::default(),
            status: Default::default(),
        }
    }

    fn rebuild_graph(&mut self) {
        let mut b = GraphBuilder::with_capacity(self.records.len());
        b.extend(self.records.iter().copied());
        self.graph = b.build();
    }

    /// Ingests one batch of click records, runs frontier-seeded detection,
    /// and merges any newly found groups. Returns batch counters.
    ///
    /// Equivalent to [`ingest_batch`](Self::ingest_batch) with the next
    /// expected sequence number — use `ingest_batch` when the stream source
    /// numbers its batches and may redeliver.
    pub fn ingest(&mut self, batch: &[(UserId, ItemId, u32)]) -> BatchStats {
        self.ingest_batch(self.next_seq, batch)
    }

    /// Ingests batch number `seq`. A `seq` below the next expected number
    /// marks an at-least-once redelivery: the batch is dropped (exactly-once
    /// effect) and the stats say so. A `seq` at or above the expected number
    /// is ingested and advances the counter past it.
    pub fn ingest_batch(&mut self, seq: u64, batch: &[(UserId, ItemId, u32)]) -> BatchStats {
        let metrics = self.pipeline.metrics.clone();
        // Span doubles as the per-batch processing-lag measurement.
        let _span = metrics.span("stream/ingest");
        let mut stats = BatchStats::default();
        if seq < self.next_seq {
            metrics.counter("stream.batches_replayed").inc();
            stats.replayed = true;
            return stats;
        }
        if seq > self.next_seq {
            // The source skipped sequence numbers — those batches are lost
            // to this detector until a full resync of the upstream store.
            metrics.inc_by("stream.seqs_skipped", seq - self.next_seq);
        }
        metrics.counter("stream.batches_ingested").inc();
        self.next_seq = seq + 1;

        // Batch validation: a click-table record must witness at least one
        // click; zero-click records are producer bugs and are quarantined
        // rather than poisoning the cumulative multiset.
        let mut rejected = 0usize;
        let valid: Vec<(UserId, ItemId, u32)> = batch
            .iter()
            .copied()
            .filter(|&(_, _, c)| {
                let ok = c > 0;
                rejected += usize::from(!ok);
                ok
            })
            .collect();
        stats.records = valid.len();
        stats.rejected = rejected;
        metrics.inc_by("stream.records_ingested", valid.len() as u64);
        metrics.inc_by("stream.records_rejected", rejected as u64);
        if valid.is_empty() {
            return stats;
        }
        self.records.extend_from_slice(&valid);
        self.rebuild_graph();

        // Frontier: items whose cumulative clicks from some user crossed
        // T_click in this batch.
        let params = self.pipeline.params;
        let mut crossings: BTreeSet<(UserId, ItemId)> = BTreeSet::new();
        let mut frontier: BTreeSet<ItemId> = BTreeSet::new();
        for &(u, v, _) in &valid {
            if self.heavy_pairs.contains(&(u, v)) || crossings.contains(&(u, v)) {
                continue;
            }
            if self.graph.clicks(u, v).is_some_and(|c| c >= params.t_click) {
                crossings.insert((u, v));
                frontier.insert(v);
            }
        }

        // Budget: cap the frontier, deferring the excess. Deferred items'
        // pairs are NOT marked heavy, so any later click on them re-arms
        // the frontier (and a full_resync always catches up).
        if let Some(cap) = self.pipeline.budget.max_frontier {
            if frontier.len() > cap {
                stats.frontier_deferred = frontier.len() - cap;
                metrics.inc_by("stream.frontier_deferred", stats.frontier_deferred as u64);
                metrics.event(
                    "budget.frontier_capped",
                    &format!(
                        "frontier cap {cap} exceeded: {} items deferred",
                        stats.frontier_deferred
                    ),
                );
                let kept: BTreeSet<ItemId> = frontier.into_iter().take(cap).collect();
                frontier = kept;
            }
        }
        for (u, v) in crossings {
            if frontier.contains(&v) {
                self.heavy_pairs.insert((u, v));
            }
        }
        stats.frontier_items = frontier.len();
        metrics
            .histogram("stream.frontier_size", &[1, 10, 100, 1_000, 10_000])
            .observe(frontier.len() as u64);
        if frontier.is_empty() {
            return stats;
        }

        // Seeded detection around the frontier.
        let seeds = Seeds {
            users: Vec::new(),
            items: frontier.into_iter().collect(),
        };
        let seeded = RicdPipeline {
            params,
            pool: self.pipeline.pool.clone(),
            strategy: self.pipeline.strategy,
            mode: self.pipeline.mode,
            seeds,
            budget: self.pipeline.budget,
            metrics: self.pipeline.metrics.clone(),
        };
        let result = seeded.run(&self.graph);
        stats.new_groups = self.merge_groups(result.groups);
        metrics.inc_by("stream.groups_new", stats.new_groups as u64);
        stats
    }

    /// Full, unseeded detection on the cumulative graph; replaces the
    /// running group state. Returns the fresh result.
    pub fn full_resync(&mut self) -> DetectionResult {
        let result = self.pipeline.run(&self.graph);
        self.groups = result.groups.clone();
        result
    }

    /// Merges new groups, replacing older reports they subsume or extend
    /// (same attack task = overlapping worker sets). Returns how many of
    /// the inputs were genuinely new (not identical to an existing group).
    fn merge_groups(&mut self, incoming: Vec<SuspiciousGroup>) -> usize {
        let mut new_count = 0;
        for g in incoming {
            // A group matches an existing one if their user sets overlap.
            let overlap = self
                .groups
                .iter()
                .position(|old| old.users.iter().any(|u| g.users.binary_search(u).is_ok()));
            match overlap {
                Some(idx) => {
                    if self.groups[idx] != g {
                        // The attack grew: replace with the newer, larger view.
                        let merged = union_groups(&self.groups[idx], &g);
                        if merged != self.groups[idx] {
                            new_count += usize::from(self.groups[idx].users != merged.users);
                            self.groups[idx] = merged;
                        }
                    }
                }
                None => {
                    self.groups.push(g);
                    new_count += 1;
                }
            }
        }
        new_count
    }
}

fn union_groups(a: &SuspiciousGroup, b: &SuspiciousGroup) -> SuspiciousGroup {
    let mut users = a.users.clone();
    users.extend(b.users.iter().copied());
    users.sort_unstable();
    users.dedup();
    let mut items = a.items.clone();
    items.extend(b.items.iter().copied());
    items.sort_unstable();
    items.dedup();
    let mut ridden = a.ridden_hot_items.clone();
    ridden.extend(b.ridden_hot_items.iter().copied());
    ridden.sort_unstable();
    ridden.dedup();
    SuspiciousGroup {
        users,
        items,
        ridden_hot_items: ridden,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RicdParams;

    fn background() -> Vec<(UserId, ItemId, u32)> {
        // A hot item plus light noise.
        let mut recs = Vec::new();
        for u in 1000..2200u32 {
            recs.push((UserId(u), ItemId(0), 1));
        }
        for u in 0..100u32 {
            recs.push((UserId(500 + u), ItemId(100 + u % 30), 2));
        }
        recs
    }

    /// The attack split into daily slices: each worker's target clicks
    /// arrive over three batches of ~5 clicks (crossing T_click=12 only in
    /// the third).
    fn attack_batches() -> Vec<Vec<(UserId, ItemId, u32)>> {
        let mut batches = vec![Vec::new(), Vec::new(), Vec::new()];
        for u in 0..12u32 {
            for v in 1..12u32 {
                batches[0].push((UserId(u), ItemId(v), 5));
                batches[1].push((UserId(u), ItemId(v), 5));
                batches[2].push((UserId(u), ItemId(v), 5));
            }
            batches[0].push((UserId(u), ItemId(0), 1));
        }
        batches
    }

    fn detector() -> StreamingDetector {
        StreamingDetector::new(RicdPipeline::new(RicdParams::default()))
    }

    #[test]
    fn detects_once_edges_cross_t_click() {
        let mut d = detector();
        let s0 = d.ingest(&background());
        assert_eq!(s0.new_groups, 0);
        let batches = attack_batches();
        let s1 = d.ingest(&batches[0]);
        assert_eq!(s1.new_groups, 0, "5 clicks per edge is below T_click");
        let s2 = d.ingest(&batches[1]);
        assert_eq!(s2.new_groups, 0, "10 clicks still below");
        let s3 = d.ingest(&batches[2]);
        assert_eq!(s3.new_groups, 1, "15 clicks crosses T_click");
        assert!(s3.frontier_items >= 11);
        let g = &d.groups()[0];
        assert_eq!(g.users.len(), 12);
        assert_eq!(g.items.len(), 11);
    }

    #[test]
    fn matches_full_resync() {
        let mut d = detector();
        d.ingest(&background());
        for b in attack_batches() {
            d.ingest(&b);
        }
        let incremental: Vec<_> = d.groups().to_vec();
        let full = d.full_resync();
        assert_eq!(incremental, full.groups, "seeded == full on this stream");
    }

    #[test]
    fn quiet_batches_do_no_detection_work() {
        let mut d = detector();
        d.ingest(&background());
        let s = d.ingest(&[(UserId(3), ItemId(200), 2)]);
        assert_eq!(s.frontier_items, 0, "light click seeds nothing");
        assert_eq!(s.new_groups, 0);
    }

    #[test]
    fn growing_attack_updates_the_group_in_place() {
        let mut d = detector();
        d.ingest(&background());
        for b in attack_batches() {
            d.ingest(&b);
        }
        assert_eq!(d.groups().len(), 1);
        // Two more workers join the same task.
        let mut late = Vec::new();
        for u in 50..52u32 {
            for v in 1..12u32 {
                late.push((UserId(u), ItemId(v), 14));
            }
        }
        d.ingest(&late);
        assert_eq!(d.groups().len(), 1, "still one task, not a duplicate");
        assert_eq!(d.groups()[0].users.len(), 14);
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut d = detector();
        let s = d.ingest(&[]);
        assert_eq!(s, BatchStats::default());
        assert_eq!(d.graph().num_edges(), 0);
    }

    #[test]
    fn result_ranks_cumulative_output() {
        let mut d = detector();
        d.ingest(&background());
        for b in attack_batches() {
            d.ingest(&b);
        }
        let r = d.result();
        assert_eq!(r.ranked_users.len(), 12);
        assert!(r.ranked_users.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn zero_click_records_are_quarantined() {
        let mut d = detector();
        let s = d.ingest(&[
            (UserId(1), ItemId(1), 0),
            (UserId(1), ItemId(2), 3),
            (UserId(2), ItemId(1), 0),
        ]);
        assert_eq!(s.rejected, 2);
        assert_eq!(s.records, 1);
        assert_eq!(d.graph().num_edges(), 1, "only the valid record landed");
    }

    #[test]
    fn duplicate_pairs_inside_one_batch_cross_once() {
        // The same (u, v) three times in one batch, crossing T_click only
        // in sum: one crossing per pair, and the same frontier, heavy pairs
        // and groups as the pre-merged batch.
        let repeated: Vec<_> = attack_batches().concat();
        let merged: Vec<_> = (0..12u32)
            .flat_map(|u| (1..12u32).map(move |v| (UserId(u), ItemId(v), 15)))
            .chain((0..12u32).map(|u| (UserId(u), ItemId(0), 1)))
            .collect();
        let (mut a, mut b) = (detector(), detector());
        a.ingest(&background());
        b.ingest(&background());
        let (sa, sb) = (a.ingest(&repeated), b.ingest(&merged));
        assert_eq!(sa.frontier_items, 11);
        assert_eq!(sa.frontier_items, sb.frontier_items);
        assert_eq!(sa.new_groups, 1);
        assert_eq!(a.groups(), b.groups());
        assert_eq!(a.heavy_pairs.len(), 12 * 11);
        assert_eq!(a.checkpoint().heavy_pairs, b.checkpoint().heavy_pairs);
    }

    #[test]
    fn replayed_batch_is_dropped() {
        let mut d = detector();
        d.ingest_batch(0, &background());
        let batches = attack_batches();
        for (i, b) in batches.iter().enumerate() {
            d.ingest_batch(1 + i as u64, b);
        }
        let groups_before = d.groups().to_vec();
        let records_before = d.graph().num_edges();
        // The stream redelivers batch 2 (at-least-once semantics).
        let s = d.ingest_batch(2, &batches[1]);
        assert!(s.replayed);
        assert_eq!(s.records, 0);
        assert_eq!(d.graph().num_edges(), records_before, "no double counting");
        assert_eq!(d.groups(), groups_before.as_slice());
        assert_eq!(d.next_seq(), 4);
    }

    #[test]
    fn replay_helper_duplicate_is_deduplicated() {
        // End-to-end with the chaos harness's replay helper: a duplicated
        // batch fed through seq-numbered ingestion leaves the result
        // identical to the clean stream.
        use ricd_engine::fault::replay_batch;
        let mut clean = detector();
        let mut faulty = detector();
        let mut stream = vec![background()];
        stream.extend(attack_batches());
        for (i, b) in stream.iter().enumerate() {
            clean.ingest_batch(i as u64, b);
        }
        let replayed = replay_batch(&stream, 2);
        // Redelivery keeps the original batch's sequence number.
        let seqs = [0u64, 1, 2, 2, 3];
        for (s, b) in seqs.iter().zip(&replayed) {
            faulty.ingest_batch(*s, b);
        }
        assert_eq!(clean.groups(), faulty.groups());
        assert_eq!(clean.graph().num_edges(), faulty.graph().num_edges());
    }

    #[test]
    fn frontier_cap_defers_but_resync_catches_up() {
        use crate::budget::RunBudget;
        let mut capped = StreamingDetector::new(
            RicdPipeline::new(RicdParams::default())
                .with_budget(RunBudget::none().with_max_frontier(3)),
        );
        capped.ingest(&background());
        let batches = attack_batches();
        capped.ingest(&batches[0]);
        capped.ingest(&batches[1]);
        let s = capped.ingest(&batches[2]);
        assert_eq!(s.frontier_items, 3, "frontier clamped to the cap");
        assert!(s.frontier_deferred >= 8, "11 crossings, 3 kept");
        // The capped frontier may or may not complete the group this batch;
        // a resync must always converge to the full answer.
        let full = capped.full_resync();
        assert_eq!(full.groups.len(), 1);
        assert_eq!(full.groups[0].users.len(), 12);
    }

    #[test]
    fn streaming_metrics_track_batches_frontier_and_replays() {
        use crate::budget::RunBudget;
        use ricd_obs::MetricsRegistry;
        let registry = MetricsRegistry::new();
        let mut d = StreamingDetector::new(
            RicdPipeline::new(RicdParams::default())
                .with_metrics(registry.clone())
                .with_budget(RunBudget::none().with_max_frontier(3)),
        );
        d.ingest_batch(0, &background());
        let batches = attack_batches();
        for (i, b) in batches.iter().enumerate() {
            d.ingest_batch(1 + i as u64, b);
        }
        d.ingest_batch(2, &batches[1]); // redelivery
        d.ingest_batch(7, &[(UserId(1), ItemId(1), 1)]); // gap: seqs 4,5,6 lost
        let _ = d.checkpoint();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("stream.batches_ingested"), Some(5));
        assert_eq!(snap.counter("stream.batches_replayed"), Some(1));
        assert_eq!(snap.counter("stream.seqs_skipped"), Some(3));
        assert!(snap.counter("stream.frontier_deferred").unwrap() >= 8);
        assert_eq!(registry.event_count("budget.frontier_capped"), 1);
        assert!(snap.counter("stream.records_ingested").unwrap() > 0);
        assert_eq!(snap.counter("stream.checkpoints"), Some(1));
        assert!(snap.gauge("stream.checkpoint_records").unwrap() > 0);
        // Span count includes the replayed batch (processing happened).
        assert_eq!(snap.span("stream/ingest").map(|s| s.count), Some(6));
        let (_, h) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "stream.frontier_size")
            .expect("frontier histogram");
        assert!(
            h.count >= 4,
            "one observation per non-replayed batch that got far enough"
        );
    }

    #[test]
    fn checkpoint_round_trips_through_serde() {
        use serde::{Deserialize, Serialize};
        let mut d = detector();
        d.ingest(&background());
        d.ingest(&attack_batches()[0]);
        let ckpt = d.checkpoint();
        let restored = Checkpoint::from_value(&ckpt.to_value()).unwrap();
        assert_eq!(ckpt, restored);
    }

    #[test]
    fn resumed_detector_matches_never_crashed() {
        let mut stream = vec![background()];
        stream.extend(attack_batches());

        // Reference: one detector sees the whole stream.
        let mut steady = detector();
        for (i, b) in stream.iter().enumerate() {
            steady.ingest_batch(i as u64, b);
        }

        // Crash/recover at every possible cut point.
        for cut in 1..stream.len() {
            let mut first = detector();
            for (i, b) in stream[..cut].iter().enumerate() {
                first.ingest_batch(i as u64, b);
            }
            let ckpt = first.checkpoint();
            drop(first); // the crash
            let mut resumed =
                StreamingDetector::restore(RicdPipeline::new(RicdParams::default()), ckpt);
            for (i, b) in stream.iter().enumerate().skip(cut) {
                resumed.ingest_batch(i as u64, b);
            }
            assert_eq!(
                resumed.groups(),
                steady.groups(),
                "cut at batch {cut} diverged"
            );
            assert_eq!(resumed.graph().num_edges(), steady.graph().num_edges());
            assert_eq!(resumed.next_seq(), steady.next_seq());
        }
    }
}
