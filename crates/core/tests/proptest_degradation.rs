//! Property tests: degradation accounting. For any input graph and any run
//! budget, a degraded run emits exactly one `degradation` event (with a
//! non-empty reason) and a complete run emits none — the alerting contract
//! a production deployment would page on.

use proptest::prelude::*;
use ricd_core::prelude::*;
use ricd_graph::{GraphBuilder, ItemId, UserId};
use ricd_obs::MetricsRegistry;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn degraded_runs_emit_exactly_one_degradation_event(
        clicks in proptest::collection::vec((0u32..40, 0u32..20, 1u32..9), 1..200),
        deadline_sel in 0usize..3,
        cap_sel in 0usize..3,
    ) {
        // The vendored proptest shim has no `prop_oneof`; select budget
        // shapes by index instead.
        let deadline_ms = [None, Some(0u64), Some(1u64)][deadline_sel];
        let max_groups = [None, Some(0usize), Some(1usize)][cap_sel];
        let mut b = GraphBuilder::new();
        for &(u, v, c) in &clicks {
            b.add_click(UserId(u), ItemId(v), c);
        }
        let g = b.build();

        let mut budget = RunBudget::none();
        if let Some(ms) = deadline_ms {
            budget = budget.with_deadline(Duration::from_millis(ms));
        }
        if let Some(cap) = max_groups {
            budget = budget.with_max_groups(cap);
        }

        let registry = MetricsRegistry::new();
        let pipeline = RicdPipeline::new(RicdParams::default())
            .with_budget(budget)
            .with_metrics(registry.clone());
        let result = pipeline.run(&g);

        let snap = registry.snapshot();
        let degradations: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.name == "degradation")
            .collect();
        match &result.status {
            RunStatus::Degraded { reason, phase } => {
                prop_assert_eq!(
                    degradations.len(), 1,
                    "degraded run must emit exactly one degradation event"
                );
                prop_assert!(!degradations[0].message.is_empty());
                prop_assert!(!reason.is_empty());
                prop_assert!(!phase.is_empty());
                prop_assert_eq!(snap.counter("pipeline.runs_degraded"), Some(1));
            }
            RunStatus::Complete => {
                prop_assert_eq!(
                    degradations.len(), 0,
                    "complete run must not emit degradation events"
                );
                prop_assert_eq!(snap.counter("pipeline.runs_degraded").unwrap_or(0), 0);
            }
        }
        prop_assert_eq!(snap.counter("pipeline.runs"), Some(1));
    }
}
