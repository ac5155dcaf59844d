//! Cross-crate integration tests: datagen → detectors → evaluation, the
//! full reproduction path.

use fake_click_detection::eval::figures;
use fake_click_detection::prelude::*;
use std::time::Duration;

fn dataset() -> SyntheticDataset {
    // The canonical evaluation mix at test scale: heterogeneous group
    // sizes and partial target coverage (see AttackConfig::evaluation).
    let attack = AttackConfig {
        num_groups: 4,
        ..AttackConfig::evaluation()
    };
    generate(&DatasetConfig::small(), &attack).expect("valid configs")
}

#[test]
fn ricd_leads_the_fig8_comparison() {
    // The paper's Fig 8a claims, in their falsifiable form:
    // * RICD beats LPA on precision at comparable recall (paper: +18%);
    // * RICD beats FRAUDAR on recall at competitive precision (paper: +35%);
    // * RICD crushes the naive algorithm;
    // * no baseline beats RICD's F1 by more than a rounding sliver (at this
    //   scale the screening module is near-oracle given coverage, so the
    //   strong community baselines tie RICD — see EXPERIMENTS.md).
    let ds = dataset();
    let cfg = MethodConfig {
        copycatch_budget: Duration::from_secs(2),
        ..MethodConfig::default()
    };
    let outcomes = figures::fig8(&ds.graph, &ds.truth, &cfg);
    let get = |m: Method| {
        outcomes
            .iter()
            .find(|o| o.method == m)
            .unwrap_or_else(|| panic!("{} in lineup", m.name()))
    };
    let ricd = get(Method::Ricd);
    assert!(ricd.eval.f1 > 0.6, "RICD F1 {:.3}", ricd.eval.f1);

    let lpa = get(Method::Lpa);
    assert!(
        ricd.eval.precision > lpa.eval.precision,
        "RICD precision {:.3} vs LPA {:.3}",
        ricd.eval.precision,
        lpa.eval.precision
    );
    assert!(
        ricd.eval.recall + 0.1 >= lpa.eval.recall,
        "comparable recall"
    );

    let fraudar = get(Method::Fraudar);
    assert!(
        ricd.eval.recall > fraudar.eval.recall,
        "RICD recall {:.3} vs FRAUDAR {:.3}",
        ricd.eval.recall,
        fraudar.eval.recall
    );

    let naive = get(Method::Naive);
    assert!(ricd.eval.f1 > naive.eval.f1 + 0.3, "naive far behind");

    for o in &outcomes {
        assert!(
            ricd.eval.f1 + 0.02 >= o.eval.f1,
            "{} (F1 {:.3}) decisively beat RICD (F1 {:.3})",
            o.name,
            o.eval.f1,
            ricd.eval.f1
        );
    }
}

#[test]
fn ricd_precision_and_recall_are_strong() {
    let ds = dataset();
    let cfg = MethodConfig::default();
    let eval = evaluate(&cfg.run(Method::Ricd, &ds.graph), &ds.truth);
    assert!(eval.precision > 0.7, "precision {:.3}", eval.precision);
    assert!(eval.recall > 0.5, "recall {:.3}", eval.recall);
}

#[test]
fn screening_ablation_matches_table6_shape() {
    let ds = dataset();
    let cfg = MethodConfig::default();
    let rows = figures::table6(&ds.graph, &ds.truth, &cfg);
    // Precision rises RICD-UI → RICD-I → RICD; recall never rises; full
    // RICD has the best F1 of the three.
    assert!(rows[0].eval.precision <= rows[1].eval.precision + 1e-9);
    assert!(rows[1].eval.precision <= rows[2].eval.precision + 1e-9);
    assert!(rows[0].eval.recall + 1e-9 >= rows[2].eval.recall);
    assert!(rows[2].eval.f1 >= rows[0].eval.f1);
    assert!(rows[2].eval.f1 >= rows[1].eval.f1);
}

#[test]
fn clean_dataset_produces_no_detections() {
    // No planted attacks → RICD should stay (close to) silent. The organic
    // generator can still produce rare dense pockets, so allow a sliver.
    let ds = generate(&DatasetConfig::small(), &AttackConfig::none()).unwrap();
    let cfg = MethodConfig::default();
    let r = cfg.run(Method::Ricd, &ds.graph);
    assert!(
        r.num_output() <= 5,
        "clean data produced {} abnormal nodes",
        r.num_output()
    );
}

#[test]
fn seeded_detection_recovers_the_seeded_group() {
    use fake_click_detection::core::detect::Seeds;
    use fake_click_detection::core::pipeline::RicdPipeline;

    let ds = dataset();
    let g0 = &ds.truth.groups[0];
    let seeds = Seeds {
        users: vec![g0.workers[0]],
        items: vec![],
    };
    let r = RicdPipeline::new(RicdParams::default())
        .with_seeds(seeds)
        .run(&ds.graph);
    let found = r.suspicious_users();
    let hits = g0.workers.iter().filter(|w| found.contains(w)).count();
    assert!(
        hits * 10 >= g0.workers.len() * 8,
        "seeded run recovered {hits}/{} of the seeded group",
        g0.workers.len()
    );
}

#[test]
fn campaign_case_study_detects_before_the_end() {
    let campaign = CampaignConfig {
        dataset: DatasetConfig::tiny(),
        ..CampaignConfig::default()
    };
    let cfg = MethodConfig::default();
    let report = figures::fig10(&campaign, &cfg, 0.5).expect("simulates");
    let day = report.detection_day.expect("detected");
    assert!(day <= campaign.num_days);
    // Cleaning restores normal traffic to base level.
    let post = report
        .cleaned
        .iter()
        .find(|d| d.day == day + 1)
        .expect("day after detection");
    assert_eq!(post.fake_clicks, 0);
}

#[test]
fn feedback_loop_recovers_a_subtle_attack() {
    use fake_click_detection::core::identify::{FeedbackConfig, FeedbackLoop};
    use fake_click_detection::core::pipeline::RicdPipeline;

    // A subtler attack: fewer workers with partial coverage, invisible at
    // the default (k=10, alpha=1.0) operating point.
    let attack = AttackConfig {
        num_groups: 2,
        workers_per_group: 9,
        targets_per_group: 9,
        target_coverage: 0.9,
        ..AttackConfig::default()
    };
    let ds = generate(&DatasetConfig::small(), &attack).unwrap();
    let pipeline = RicdPipeline::new(RicdParams::default());

    let strict = pipeline.run(&ds.graph);
    let lp = FeedbackLoop::new(FeedbackConfig {
        expectation: 10,
        max_iterations: 8,
    });
    let (relaxed, params_used) = lp.run(RicdParams::default(), |p| pipeline.run_with(&ds.graph, p));
    assert!(
        relaxed.num_output() >= strict.num_output(),
        "relaxation cannot shrink output"
    );
    assert!(
        relaxed.num_output() >= 10,
        "feedback loop reached the expectation (got {}, params {:?})",
        relaxed.num_output(),
        params_used
    );
}

/// The worker matrix: one world detected on 1, 2 and 4 pool workers must
/// be *byte-identical* — not just set-equal — in groups, risk scores and
/// both rankings. Serialized JSON is the comparison so any float
/// formatting or ordering drift fails loudly. `run_sharded` is `run` under
/// another name, so it must render the same bytes too.
#[test]
fn worker_matrix_is_byte_identical() {
    let attack = AttackConfig {
        num_groups: 6,
        target_coverage: 0.9,
        ..AttackConfig::evaluation()
    };
    let ds = generate(&DatasetConfig::small(), &attack).expect("valid configs");
    let render = |r: &DetectionResult| {
        (
            serde_json::to_string(&r.groups).unwrap(),
            serde_json::to_string(&r.ranked_users).unwrap(),
            serde_json::to_string(&r.ranked_items).unwrap(),
            serde_json::to_string(&r.status).unwrap(),
        )
    };
    let pipeline = |workers| {
        RicdPipeline::new(RicdParams::default())
            .with_pool(fake_click_detection::engine::WorkerPool::new(workers))
    };
    let baseline = pipeline(1).run(&ds.graph);
    assert!(!baseline.groups.is_empty(), "no groups detected");
    let baseline = render(&baseline);
    for workers in [2usize, 4] {
        assert_eq!(
            render(&pipeline(workers).run(&ds.graph)),
            baseline,
            "groups / ranked_users / ranked_items bytes diverged at workers={workers}"
        );
    }
    let sharded = pipeline(2).run_sharded(&ds.graph, &ShardConfig::default());
    assert_eq!(render(&sharded), baseline, "run_sharded diverged from run");
}
