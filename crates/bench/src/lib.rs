#![warn(missing_docs)]

//! # ricd-bench — shared fixtures for the benchmark harness
//!
//! Each bench target regenerates one table/figure of the paper (see
//! `DESIGN.md`'s per-experiment index). Criterion measures the timings;
//! every bench also *prints* the corresponding table so
//! `cargo bench -p ricd-bench 2>&1 | tee bench_output.txt` doubles as the
//! EXPERIMENTS.md data source.
//!
//! Fixtures are deterministic: every bench sees the same synthetic dataset
//! for the same scale, so numbers are comparable across runs.

use ricd_datagen::prelude::*;

/// The default evaluation dataset: the calibrated 1000× scale-down of
/// `TaoBao_UI_Clicks` with 8 planted attack groups of heterogeneous size
/// (the regime where the baselines' weaknesses show, per Section VI).
pub fn eval_dataset() -> SyntheticDataset {
    generate(&DatasetConfig::default(), &AttackConfig::evaluation())
        .expect("default config is valid")
}

/// The sensitivity dataset: the Fig 9 attack mix (three waves straddling the
/// swept parameter ranges — see [`AttackConfig::sensitivity_mix`]) over an
/// organic population with *larger* bargain-hunter rings (8–12 × 8–12) whose
/// admission depends on the swept `α`/`k` values, giving the precision axis
/// structure as well.
pub fn sensitivity_dataset() -> SyntheticDataset {
    let dataset = DatasetConfig {
        hunter_users: (8, 12),
        hunter_items: (8, 12),
        ..DatasetConfig::default()
    };
    generate_with_attacks(&dataset, &AttackConfig::sensitivity_mix())
        .expect("sensitivity config is valid")
}

/// Scaled datasets for the complexity/scaling bench.
pub fn scaled_dataset(factor: f64) -> SyntheticDataset {
    let cfg = DatasetConfig::default().scaled(factor);
    let attack = AttackConfig {
        num_groups: ((8.0 * factor).round() as usize).max(1),
        ..AttackConfig::default()
    };
    generate(&cfg, &attack).expect("scaled config is valid")
}
