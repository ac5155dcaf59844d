//! The end-to-end RICD pipeline (Fig 4): detection → screening →
//! identification, with per-module timing.
//!
//! The pipeline degrades instead of aborting: a [`RunBudget`] deadline
//! exhausted at a phase boundary — or a phase lost to a persistent panic —
//! makes the run fall back to the naive Algorithm 1 detector and mark the
//! output [`RunStatus::Degraded`], so a scheduled detection run always
//! produces *a* report.

use crate::budget::{BudgetClock, RunBudget};
use crate::detect::{detect_groups_with, Seeds, ShardConfig};
use crate::extract::{FixpointMode, SquareStrategy};
use crate::identify::{rank_output, RankedList};
use crate::naive::{naive_detect, NaiveParams};
use crate::params::RicdParams;
use crate::result::{DetectionResult, RunStatus, SuspiciousGroup};
use crate::screen::screen_groups;
use ricd_engine::{panic_message, PhaseTimings, WorkerPool};
use ricd_graph::{BipartiteGraph, ItemId, UserId};
use ricd_obs::{MetricsRegistry, Span};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The configured RICD detector.
///
/// ```
/// use ricd_core::prelude::*;
/// use ricd_graph::{GraphBuilder, UserId, ItemId};
///
/// let mut b = GraphBuilder::new();
/// for u in 0..10 { for v in 0..10 { b.add_click(UserId(u), ItemId(v), 13); } }
/// for u in 100..1200 { b.add_click(UserId(u), ItemId(50), 1); }
/// let g = b.build();
///
/// let result = RicdPipeline::new(RicdParams::default()).run(&g);
/// assert_eq!(result.groups.len(), 1);
/// assert_eq!(result.suspicious_users().len(), 10);
/// ```
pub struct RicdPipeline {
    /// Framework parameters.
    pub params: RicdParams,
    /// Worker pool shared by all phases.
    pub pool: WorkerPool,
    /// SquarePruning execution strategy.
    pub strategy: SquareStrategy,
    /// Extraction fixpoint mode (delta-driven by default).
    pub mode: FixpointMode,
    /// Optional known-abnormal seeds.
    pub seeds: Seeds,
    /// Resource bounds; unbounded by default.
    pub budget: RunBudget,
    /// Metrics registry shared by all phases. Every run records phase spans
    /// (`pipeline/detect`, `pipeline/screen`, `pipeline/identify`,
    /// `pipeline/naive-fallback`), group counters (`pipeline.groups_*`),
    /// extraction counters (`extract.*`), pool health (`pool.*`), and
    /// `degradation` / `budget.deadline_exceeded` events.
    pub metrics: MetricsRegistry,
}

/// Why the RICD modules were abandoned for the naive fallback, and at which
/// phase — what [`RunStatus::Degraded`] reports.
struct Abandoned {
    reason: String,
    phase: &'static str,
}

impl Abandoned {
    /// A phase lost to a panic (or pool error) that outlived every retry.
    fn panicked(phase: &'static str, msg: &str) -> Self {
        Abandoned {
            reason: format!("{phase} phase panicked persistently: {msg}"),
            phase,
        }
    }
}

/// The live state of one run, which every [`phase`](Run::phase) step reads.
struct Run<'a> {
    metrics: &'a MetricsRegistry,
    clock: BudgetClock,
    timings: PhaseTimings,
    root: Span,
}

impl Run<'_> {
    /// Records a deadline trip as a budget-exhaustion event and abandons
    /// the run at `phase`.
    fn deadline_tripped(&self, phase: &'static str) -> Abandoned {
        let budget = self.clock.budget();
        let limit = budget.deadline.expect("a deadline trip implies a deadline");
        let elapsed = self.clock.elapsed();
        let reason = format!("deadline of {limit:?} exceeded ({elapsed:?} elapsed)");
        self.metrics.event("budget.deadline_exceeded", &reason);
        Abandoned { reason, phase }
    }

    /// One phase step: the deadline is checked at the boundary (a phase in
    /// flight runs to completion), then `f` runs under the phase's span and
    /// timing with panics contained. The pool already retries transient
    /// worker faults, so a panic surfacing here is persistent.
    fn phase<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> Result<T, Abandoned> {
        if self.clock.deadline_exceeded() {
            return Err(self.deadline_tripped(name));
        }
        catch_unwind(AssertUnwindSafe(|| {
            let _span = self.root.child(name);
            self.timings.time(name, f)
        }))
        .map_err(|p| Abandoned::panicked(name, &panic_message(p.as_ref())))
    }
}

/// What a detector hands the report: groups plus the two ranked lists.
type Report = (Vec<SuspiciousGroup>, RankedList<UserId>, RankedList<ItemId>);

impl RicdPipeline {
    /// A pipeline with default pool/strategy, no seeds, and no budget.
    pub fn new(params: RicdParams) -> Self {
        Self {
            params,
            pool: WorkerPool::default_for_host(),
            strategy: SquareStrategy::Parallel,
            mode: FixpointMode::default(),
            seeds: Seeds::none(),
            budget: RunBudget::none(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Overrides the worker pool.
    pub fn with_pool(mut self, pool: WorkerPool) -> Self {
        self.pool = pool;
        self
    }

    /// Overrides the SquarePruning strategy.
    pub fn with_strategy(mut self, strategy: SquareStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides the extraction fixpoint mode (e.g.
    /// [`FixpointMode::FullRescan`] for differential runs and ablations).
    pub fn with_fixpoint_mode(mut self, mode: FixpointMode) -> Self {
        self.mode = mode;
        self
    }

    /// Supplies known-abnormal seeds (Algorithm 2's auxiliary input).
    pub fn with_seeds(mut self, seeds: Seeds) -> Self {
        self.seeds = seeds;
        self
    }

    /// Sets the run budget (deadline, group cap, frontier cap).
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Shares an external metrics registry (e.g. the CLI's, so one
    /// `--metrics-out` snapshot covers pipeline, pool, and I/O metrics).
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// Runs the three modules on `g`.
    pub fn run(&self, g: &BipartiteGraph) -> DetectionResult {
        self.run_with(g, &self.params)
    }

    /// [`Self::run`]: batch detection has one path, and the field-less
    /// [`ShardConfig`] selects nothing.
    pub fn run_sharded(&self, g: &BipartiteGraph, _cfg: &ShardConfig) -> DetectionResult {
        self.run(g)
    }

    /// Runs with explicit parameters (the feedback loop reuses the pipeline
    /// with progressively relaxed parameters).
    ///
    /// The budget is checked at phase boundaries: once the deadline passes,
    /// the remaining RICD phases are abandoned in favor of the naive
    /// fallback ([`naive_detect`], O(E) per phase) and the result is marked
    /// [`RunStatus::Degraded`]. Likewise for a phase panicking persistently
    /// (the pool's per-partition retries having already been spent). If the
    /// naive fallback itself panics, that panic propagates — at that point
    /// there is no cheaper detector left to degrade to.
    pub fn run_with(&self, g: &BipartiteGraph, params: &RicdParams) -> DetectionResult {
        let clock = BudgetClock::start(self.budget);
        // Re-attach the pool to this pipeline's registry so per-partition
        // health lands in the same snapshot, whatever the builder order was.
        let pool = self.pool.clone().with_metrics(&self.metrics);
        self.metrics.counter("pipeline.runs").inc();
        let run = Run {
            metrics: &self.metrics,
            clock,
            timings: PhaseTimings::new(),
            root: self.metrics.span("pipeline"),
        };

        // The run's one status decision, and so its one `degradation`
        // event: the modules were abandoned, or their report was capped.
        let (degraded, report) = match self.modules(g, params, &pool, &run) {
            Ok((report, capped)) => (
                capped.map(|reason| Abandoned {
                    reason,
                    phase: "screen",
                }),
                Some(report),
            ),
            Err(abandoned) => (Some(abandoned), None),
        };
        let status = match degraded {
            Some(Abandoned { reason, phase }) => {
                self.metrics.counter("pipeline.runs_degraded").inc();
                self.metrics.event("degradation", &reason);
                RunStatus::Degraded {
                    reason,
                    phase: phase.to_string(),
                }
            }
            None => RunStatus::Complete,
        };
        // The graceful-degradation path: the cheap naive detector.
        let (groups, ranked_users, ranked_items) = report.unwrap_or_else(|| {
            let naive_params = NaiveParams {
                t_hot: params.t_hot,
                ..NaiveParams::default()
            };
            let _span = run.root.child("naive-fallback");
            let fallback = run
                .timings
                .time("naive-fallback", || naive_detect(g, &naive_params, &pool));
            (
                fallback.groups,
                fallback.ranked_users,
                fallback.ranked_items,
            )
        });
        self.metrics
            .gauge("pipeline.groups_output")
            .set(groups.len() as i64);
        let mut result = DetectionResult {
            groups,
            ranked_users,
            ranked_items,
            timings: run.timings.report(),
            status,
        };
        result.prune_empty();
        result
    }

    /// The three RICD modules, each one [`Run::phase`] step. `Ok` carries
    /// the report and, if the group cap cut it, the reason.
    fn modules(
        &self,
        g: &BipartiteGraph,
        params: &RicdParams,
        pool: &WorkerPool,
        run: &Run,
    ) -> Result<(Report, Option<String>), Abandoned> {
        // Module 1: suspicious group detection.
        let detected = run.phase("detect", || {
            detect_groups_with(
                g,
                &self.seeds,
                params,
                pool,
                self.strategy,
                self.mode,
                Some(&self.metrics),
            )
        })?;
        let stats = &detected.stats;
        for (name, count) in [
            ("extract.screenable_users", detected.screenable_users as u64),
            ("extract.rounds", stats.rounds as u64),
            (
                "extract.core_removed_users",
                stats.core_removed_users as u64,
            ),
            (
                "extract.core_removed_items",
                stats.core_removed_items as u64,
            ),
            (
                "extract.square_removed_users",
                stats.square_removed_users as u64,
            ),
            (
                "extract.square_removed_items",
                stats.square_removed_items as u64,
            ),
            ("extract.dirty_users", stats.dirty_users as u64),
            ("extract.dirty_items", stats.dirty_items as u64),
            (
                "extract.skipped",
                (stats.skipped_users + stats.skipped_items) as u64,
            ),
            ("extract.compactions", stats.compactions as u64),
            ("extract.kernel_wedge", stats.kernel_wedge),
            ("extract.kernel_blocked", stats.kernel_blocked),
            ("pipeline.groups_detected", detected.groups.len() as u64),
        ] {
            self.metrics.inc_by(name, count);
        }
        self.metrics
            .gauge("twohop.hub_bitmap_bytes")
            .set(stats.hub_bitmap_bytes as i64);

        // Module 2: suspicious group screening.
        let (screened, stats) =
            run.phase("screen", || screen_groups(g, detected.groups, params))?;
        for (name, count) in [
            ("screen.users_removed", stats.users_removed),
            ("screen.items_removed", stats.items_removed),
            (
                "screen.hot_items_reclassified",
                stats.hot_items_reclassified,
            ),
            ("screen.groups_dropped", stats.groups_dropped),
            ("screen.edges_walked", stats.edges_walked),
            ("pipeline.groups_screened", screened.len()),
        ] {
            self.metrics.inc_by(name, count as u64);
        }
        let screened_len = screened.len();
        let (groups, capped) = self.cap_groups(screened);
        if capped.is_some() {
            self.metrics.inc_by(
                "pipeline.groups_capped_dropped",
                (screened_len - groups.len()) as u64,
            );
        }

        // Module 3: suspicious group identification.
        let (ranked_users, ranked_items) = run.phase("identify", || rank_output(g, &groups))?;
        Ok(((groups, ranked_users, ranked_items), capped))
    }

    /// Applies the `max_groups` cap, keeping the largest groups (ties by
    /// original order) and reporting what was dropped.
    fn cap_groups(
        &self,
        mut groups: Vec<SuspiciousGroup>,
    ) -> (Vec<SuspiciousGroup>, Option<String>) {
        let Some(cap) = self.budget.max_groups else {
            return (groups, None);
        };
        if groups.len() <= cap {
            return (groups, None);
        }
        let found = groups.len();
        // Keep the biggest groups: a capped report should surface the
        // largest campaigns first.
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(groups[i].len()), i));
        order.truncate(cap);
        order.sort_unstable();
        let mut kept = Vec::with_capacity(cap);
        for i in order {
            kept.push(std::mem::take(&mut groups[i]));
        }
        (
            kept,
            Some(format!(
                "group cap {cap} exceeded: {found} groups found, smallest {} dropped",
                found - cap
            )),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ScreeningMode;
    use ricd_datagen::prelude::*;
    use ricd_graph::{GraphBuilder, ItemId, UserId};

    /// Attack group + hot item + normal background, end to end.
    fn scenario() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        // Hot item i0 with 1200 background clicks.
        for u in 1000..2200u32 {
            b.add_click(UserId(u), ItemId(0), 1);
        }
        // 12 workers ride i0 and hammer targets i1..=i10.
        for u in 0..12u32 {
            b.add_click(UserId(u), ItemId(0), 1);
            for v in 1..=10u32 {
                b.add_click(UserId(u), ItemId(v), 14);
            }
        }
        // Normal co-shoppers: a loose clique on items 20..26 with light
        // clicks (group-buying-like, must NOT be output).
        for u in 100..112u32 {
            for v in 20..26u32 {
                b.add_click(UserId(u), ItemId(v), 2);
            }
        }
        b.build()
    }

    #[test]
    fn end_to_end_finds_the_attack_group() {
        let r = RicdPipeline::new(RicdParams::default()).run(&scenario());
        assert_eq!(r.groups.len(), 1);
        let g0 = &r.groups[0];
        assert_eq!(g0.users.len(), 12);
        assert!(g0.users.iter().all(|u| u.0 < 12));
        assert_eq!(g0.items.len(), 10);
        assert!(g0.items.iter().all(|v| (1..=10).contains(&v.0)));
    }

    #[test]
    fn light_click_clique_not_flagged() {
        // The group-buying-like clique survives structural extraction (it is
        // a biclique) only if k-bounds admit it — 12 users x 6 items fails
        // k2=10 — and would be screened out anyway by T_click.
        let r = RicdPipeline::new(RicdParams::default()).run(&scenario());
        for g in &r.groups {
            assert!(g.users.iter().all(|u| u.0 < 12), "only workers output");
        }
    }

    #[test]
    fn hot_item_reported_as_ridden_not_suspicious() {
        let r = RicdPipeline::new(RicdParams::default()).run(&scenario());
        let g0 = &r.groups[0];
        assert_eq!(g0.ridden_hot_items, vec![ItemId(0)]);
        assert!(!r.suspicious_items().contains(&ItemId(0)));
    }

    #[test]
    fn ranked_output_covers_group_members() {
        let r = RicdPipeline::new(RicdParams::default()).run(&scenario());
        assert_eq!(r.ranked_users.len(), 12);
        assert_eq!(r.ranked_items.len(), 10);
        // Every worker clicked all 10 targets.
        assert!(r.ranked_users.iter().all(|&(_, s)| (s - 10.0).abs() < 1e-9));
    }

    #[test]
    fn timings_cover_all_modules() {
        let r = RicdPipeline::new(RicdParams::default()).run(&scenario());
        for phase in ["detect", "screen", "identify"] {
            assert!(r.timings.get(phase).is_some(), "missing {phase}");
        }
    }

    #[test]
    fn screening_modes_monotonically_shrink_output() {
        let g = scenario();
        let run = |mode| {
            let params = RicdParams {
                screening: mode,
                ..RicdParams::default()
            };
            RicdPipeline::new(params).run(&g).num_output()
        };
        let none = run(ScreeningMode::None);
        let user_only = run(ScreeningMode::UserCheckOnly);
        let full = run(ScreeningMode::Full);
        assert!(none >= user_only, "RICD-UI ⊇ RICD-I output");
        assert!(user_only >= full, "RICD-I ⊇ RICD output");
        assert!(full > 0);
    }

    #[test]
    fn detects_planted_attacks_in_synthetic_data() {
        let ds = generate(&DatasetConfig::small(), &AttackConfig::small()).unwrap();
        // The paper's absolute operating point T_hot = 1000 transfers to the
        // synthetic data because the scale-down preserves per-item click
        // averages (see DESIGN.md).
        let r = RicdPipeline::new(RicdParams::default()).run(&ds.graph);
        assert!(!r.groups.is_empty(), "at least one planted group found");
        // Precision sanity: every output user is a planted worker.
        let truth_users = ds.truth.abnormal_users();
        let found = r.suspicious_users();
        let hits = found.iter().filter(|u| truth_users.contains(u)).count();
        assert!(
            hits * 10 >= found.len() * 8,
            "≥80% of output users are planted workers ({hits}/{})",
            found.len()
        );
    }

    #[test]
    fn deterministic_output() {
        let g = scenario();
        let r1 = RicdPipeline::new(RicdParams::default()).run(&g);
        let r2 = RicdPipeline::new(RicdParams::default()).run(&g);
        assert_eq!(r1.groups, r2.groups);
        assert_eq!(r1.ranked_users, r2.ranked_users);
    }

    #[test]
    fn unbounded_run_is_complete() {
        let r = RicdPipeline::new(RicdParams::default()).run(&scenario());
        assert_eq!(r.status, RunStatus::Complete);
    }

    #[test]
    fn exhausted_deadline_degrades_to_naive() {
        use std::time::Duration;
        let g = scenario();
        let r = RicdPipeline::new(RicdParams::default())
            .with_budget(RunBudget::none().with_deadline(Duration::ZERO))
            .run(&g);
        match &r.status {
            RunStatus::Degraded { reason, phase } => {
                assert_eq!(phase, "detect", "tripped before the first phase");
                assert!(reason.contains("deadline"), "{reason}");
            }
            RunStatus::Complete => panic!("zero deadline must degrade"),
        }
        // The fallback still produces a report (best-effort; Algorithm 1's
        // default risk thresholds may flag less than RICD would have).
        assert!(
            r.timings.get("naive-fallback").is_some(),
            "fallback timing recorded"
        );
        assert!(r.groups.len() <= 1, "naive emits at most one flat group");
        assert!(r.timings.get("screen").is_none(), "screen never ran");
    }

    #[test]
    fn generous_deadline_stays_complete() {
        use std::time::Duration;
        let r = RicdPipeline::new(RicdParams::default())
            .with_budget(RunBudget::none().with_deadline(Duration::from_secs(600)))
            .run(&scenario());
        assert_eq!(r.status, RunStatus::Complete);
        assert!(r.timings.get("identify").is_some());
    }

    #[test]
    fn group_cap_keeps_largest_and_marks_degraded() {
        // Two disjoint attack groups of different sizes; cap at 1.
        let mut b = GraphBuilder::new();
        for u in 1000..2200u32 {
            b.add_click(UserId(u), ItemId(0), 1);
        }
        for u in 0..12u32 {
            b.add_click(UserId(u), ItemId(0), 1);
            for v in 1..=10u32 {
                b.add_click(UserId(u), ItemId(v), 14);
            }
        }
        for u in 200..215u32 {
            b.add_click(UserId(u), ItemId(0), 1);
            for v in 50..=61u32 {
                b.add_click(UserId(u), ItemId(v), 14);
            }
        }
        let g = b.build();
        let uncapped = RicdPipeline::new(RicdParams::default()).run(&g);
        assert_eq!(uncapped.groups.len(), 2);
        let capped = RicdPipeline::new(RicdParams::default())
            .with_budget(RunBudget::none().with_max_groups(1))
            .run(&g);
        assert_eq!(capped.groups.len(), 1);
        assert!(capped.status.is_degraded());
        let biggest = uncapped.groups.iter().map(|g| g.len()).max().unwrap();
        assert_eq!(
            capped.groups[0].len(),
            biggest,
            "cap keeps the largest group"
        );
    }

    #[test]
    fn complete_run_records_phase_spans_and_group_counters() {
        let registry = MetricsRegistry::new();
        let r = RicdPipeline::new(RicdParams::default())
            .with_metrics(registry.clone())
            .run(&scenario());
        assert_eq!(r.status, RunStatus::Complete);
        let snap = registry.snapshot();
        for path in [
            "pipeline",
            "pipeline/detect",
            "pipeline/screen",
            "pipeline/identify",
        ] {
            assert_eq!(snap.span(path).map(|s| s.count), Some(1), "span {path}");
        }
        assert!(snap.span("pipeline/naive-fallback").is_none());
        assert_eq!(snap.counter("pipeline.runs"), Some(1));
        assert_eq!(snap.counter("pipeline.runs_degraded").unwrap_or(0), 0);
        assert_eq!(snap.counter("pipeline.groups_detected"), Some(1));
        assert_eq!(snap.counter("pipeline.groups_screened"), Some(1));
        assert_eq!(snap.gauge("pipeline.groups_output"), Some(1));
        assert!(snap.counter("extract.rounds").unwrap() >= 1);
        assert!(snap.counter("pool.partitions_started").unwrap() > 0);
        assert!(snap.events.is_empty(), "complete run emits no events");
    }

    #[test]
    fn delta_fixpoint_counters_land_in_snapshot() {
        let registry = MetricsRegistry::new();
        let r = RicdPipeline::new(RicdParams::default())
            .with_metrics(registry.clone())
            .run(&scenario());
        assert_eq!(r.status, RunStatus::Complete);
        let snap = registry.snapshot();
        // The delta counters are always registered; non-zero only when the
        // fixpoint needs more than the seeding round.
        for name in [
            "extract.dirty_users",
            "extract.dirty_items",
            "extract.skipped",
            "extract.compactions",
            "extract.kernel_wedge",
            "extract.kernel_blocked",
        ] {
            assert!(snap.counter(name).is_some(), "missing {name}");
        }
        assert!(
            snap.counter("extract.kernel_wedge").unwrap() > 0,
            "square pruning must answer survival queries"
        );
        assert!(
            snap.gauge("twohop.hub_bitmap_bytes").is_some(),
            "hub registry gauge exported"
        );
        let (_, h) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "extract.round_nanos")
            .expect("per-round extraction timings recorded");
        assert_eq!(h.count, snap.counter("extract.rounds").unwrap());
    }

    #[test]
    fn fixpoint_modes_agree_end_to_end() {
        let g = scenario();
        let delta = RicdPipeline::new(RicdParams::default()).run(&g);
        let full = RicdPipeline::new(RicdParams::default())
            .with_fixpoint_mode(FixpointMode::FullRescan)
            .run(&g);
        assert_eq!(delta.groups, full.groups);
        assert_eq!(delta.ranked_users, full.ranked_users);
    }

    #[test]
    fn deadline_degradation_emits_exactly_one_degradation_event() {
        use std::time::Duration;
        let registry = MetricsRegistry::new();
        let r = RicdPipeline::new(RicdParams::default())
            .with_metrics(registry.clone())
            .with_budget(RunBudget::none().with_deadline(Duration::ZERO))
            .run(&scenario());
        assert!(r.status.is_degraded());
        assert_eq!(registry.event_count("degradation"), 1);
        assert_eq!(registry.event_count("budget.deadline_exceeded"), 1);
        let snap = registry.snapshot();
        let degr = snap
            .events
            .iter()
            .find(|e| e.name == "degradation")
            .unwrap();
        assert!(!degr.message.is_empty());
        assert_eq!(snap.counter("pipeline.runs_degraded"), Some(1));
        assert_eq!(
            snap.span("pipeline/naive-fallback").map(|s| s.count),
            Some(1)
        );
    }

    #[test]
    fn group_cap_degradation_emits_exactly_one_degradation_event() {
        let registry = MetricsRegistry::new();
        // Reuse the two-group scenario from the cap test.
        let mut b = GraphBuilder::new();
        for u in 1000..2200u32 {
            b.add_click(UserId(u), ItemId(0), 1);
        }
        for u in 0..12u32 {
            b.add_click(UserId(u), ItemId(0), 1);
            for v in 1..=10u32 {
                b.add_click(UserId(u), ItemId(v), 14);
            }
        }
        for u in 200..215u32 {
            b.add_click(UserId(u), ItemId(0), 1);
            for v in 50..=61u32 {
                b.add_click(UserId(u), ItemId(v), 14);
            }
        }
        let r = RicdPipeline::new(RicdParams::default())
            .with_metrics(registry.clone())
            .with_budget(RunBudget::none().with_max_groups(1))
            .run(&b.build());
        assert!(r.status.is_degraded());
        assert_eq!(registry.event_count("degradation"), 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("pipeline.groups_capped_dropped"), Some(1));
        assert_eq!(snap.counter("pipeline.runs_degraded"), Some(1));
    }

    /// A Module 1 panic that outlives the pool's retries is contained by
    /// its phase step and reported as the `detect` phase's abandonment.
    #[test]
    fn panicking_module_one_degrades_at_detect() {
        let registry = MetricsRegistry::new();
        let run = Run {
            metrics: &registry,
            clock: BudgetClock::start(RunBudget::none()),
            timings: PhaseTimings::new(),
            root: registry.span("pipeline"),
        };
        let Err(abandoned) = run.phase::<()>("detect", || panic!("module one bug")) else {
            panic!("a panicking phase must be abandoned");
        };
        assert_eq!(abandoned.phase, "detect");
        assert_eq!(
            abandoned.reason,
            "detect phase panicked persistently: module one bug"
        );
    }

    #[test]
    fn group_cap_above_output_is_not_degraded() {
        let r = RicdPipeline::new(RicdParams::default())
            .with_budget(RunBudget::none().with_max_groups(100))
            .run(&scenario());
        assert_eq!(r.status, RunStatus::Complete);
        assert_eq!(r.groups.len(), 1);
    }
}
