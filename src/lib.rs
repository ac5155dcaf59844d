#![warn(missing_docs)]

//! # fake-click-detection
//!
//! Facade crate for the reproduction of *Large-scale Fake Click Detection for
//! E-commerce Recommendation Systems* (ICDE 2021). It re-exports the public
//! APIs of the workspace crates so downstream users — and the `examples/` and
//! integration `tests/` in this repository — can depend on a single crate.
//!
//! ```
//! use fake_click_detection::prelude::*;
//!
//! // Generate a small synthetic Taobao-like dataset with planted attacks…
//! // (see examples/quickstart.rs for the full walkthrough)
//! ```

pub use ricd_baselines as baselines;
pub use ricd_core as core;
pub use ricd_datagen as datagen;
pub use ricd_engine as engine;
pub use ricd_eval as eval;
pub use ricd_graph as graph;
pub use ricd_obs as obs;
pub use ricd_recommender as recommender;
pub use ricd_serve as serve;

/// Commonly used types, one `use` away.
pub mod prelude {
    pub use ricd_core::prelude::*;
    pub use ricd_datagen::prelude::*;
    pub use ricd_eval::prelude::*;
    pub use ricd_graph::{BipartiteGraph, GraphBuilder, GraphView, ItemId, NodeId, UserId};
}
