#![warn(missing_docs)]

//! # ricd-core — the RICD detection framework
//!
//! This crate implements the paper's contribution: the **R**ide **I**tem's
//! **C**oattails attack **D**etection framework (Section V), plus the
//! analytical machinery it is built on (Section IV).
//!
//! The pipeline has the paper's three sequential modules:
//!
//! 1. **Suspicious group detection** ([`detect`]) — Algorithm 2: build the
//!    working bipartite graph (optionally pruned around known seeds) and run
//!    the (α, k₁, k₂)-extension biclique extraction of Algorithm 3
//!    ([`extract`]): `CorePruning` then `SquarePruning`, iterated to a
//!    fixpoint; the surviving connected components are the suspicious
//!    groups.
//! 2. **Suspicious group screening** ([`screen`]) — the user behavior check
//!    and item behavior verification derived from the Section IV analysis.
//! 3. **Suspicious group identification** ([`identify`]) — risk scoring and
//!    ranking of the output user–item table, plus the feedback-driven
//!    parameter-adjustment loop of Fig 7.
//!
//! Supporting modules: [`i2i`] (the I2I-score model of Eq 1–3 and the
//! optimal-attacker analysis), [`thresholds`] (`T_hot` via the Pareto rule,
//! `T_click` via Eq 4), [`naive`] (the Algorithm 1 baseline), and
//! [`params`] / [`result`] (shared configuration and output types).
//!
//! ```
//! use ricd_core::prelude::*;
//! use ricd_datagen::prelude::*;
//!
//! let ds = generate(&DatasetConfig::tiny(), &AttackConfig::small()).unwrap();
//! let pipeline = RicdPipeline::new(RicdParams::default());
//! let result = pipeline.run(&ds.graph);
//! assert!(!result.suspicious_users().is_empty());
//! ```

pub mod analysis;
pub mod budget;
pub mod camouflage;
pub mod detect;
pub mod extract;
pub mod i2i;
pub mod identify;
pub mod incremental;
pub mod kernel;
pub mod naive;
pub mod params;
pub mod pipeline;
pub mod result;
pub mod riskview;
pub mod screen;
pub mod shard_run;
pub mod temporal;
pub mod thresholds;

pub use budget::{BudgetClock, RunBudget};
pub use params::{ParamsMode, RicdParams, ScreeningMode};
pub use pipeline::RicdPipeline;
pub use result::{DetectionResult, RunStatus, SuspiciousGroup};
pub use riskview::{RiskVerdict, RiskView};
pub use shard_run::{detect_groups_sharded, ShardAbort, ShardConfig};
pub use temporal::{
    TimedClick, WindowBatchStats, WindowCheckpoint, WindowConfig, WindowedDetector,
};
pub use thresholds::{params_for_mode, FeedbackTuner};

/// Commonly used framework types.
pub mod prelude {
    pub use crate::budget::RunBudget;
    pub use crate::identify::{FeedbackConfig, FeedbackLoop};
    pub use crate::incremental::{BatchStats, Checkpoint, StreamingDetector};
    pub use crate::naive::{naive_detect, NaiveParams};
    pub use crate::params::{ParamsMode, RicdParams, ScreeningMode};
    pub use crate::pipeline::RicdPipeline;
    pub use crate::result::{DetectionResult, RunStatus, SuspiciousGroup};
    pub use crate::riskview::{RiskVerdict, RiskView};
    pub use crate::shard_run::ShardConfig;
    pub use crate::temporal::{WindowCheckpoint, WindowConfig, WindowedDetector};
    pub use crate::thresholds::{derive_t_click, derive_t_hot, params_for_mode, FeedbackTuner};
}
