#![warn(missing_docs)]

//! # ricd-graph — bipartite click-graph substrate
//!
//! This crate implements the data substrate that every algorithm in the RICD
//! reproduction runs on: a weighted **user–item bipartite graph** where the
//! weight of an edge `(u, v)` is the number of times user `u` clicked item
//! `v` (the `TaoBao_UI_Clicks` table of the paper, Section IV).
//!
//! The design follows the needs of the paper's algorithms:
//!
//! * [`BipartiteGraph`] — immutable CSR adjacency in **both** directions
//!   (user→items and item→users) with click weights, so degree queries,
//!   neighbor scans and edge lookups are cache-friendly and allocation-free.
//! * [`GraphView`] — a deletion mask over a [`BipartiteGraph`] with live
//!   degree tracking; the paper's `CorePruning` / `SquarePruning`
//!   (Algorithm 3) repeatedly remove vertices, and a view makes each removal
//!   O(degree) without rebuilding the CSR.
//! * [`compact`] — the shard-local compact CSR: delta-encoded sorted
//!   adjacency plus alive bitmaps ([`CompactBigraph`] / [`CompactView`]),
//!   byte-for-byte cheaper than the dense pair at paper scale and proven
//!   equivalent by differential proptests.
//! * [`twohop`] — wedge-based common-neighbor counting, the workhorse of
//!   `SquarePruning` and of the Common-Neighbors baseline.
//! * [`components`] — connected components over a view; each surviving
//!   component is one suspicious attack group `gᵢ`.
//! * [`shard`] — splits a pruned view into independent detection units
//!   (exact component shards + hash-split giants with boundary
//!   replication) for the sharded runtime.
//! * [`stats`] — the Table I / Table II dataset statistics and the Fig 2
//!   click-distribution series.
//! * [`io`] — TSV and serde import/export of click tables.
//!
//! ```
//! use ricd_graph::{GraphBuilder, UserId, ItemId};
//!
//! let mut b = GraphBuilder::new();
//! b.add_click(UserId(0), ItemId(0), 3);
//! b.add_click(UserId(0), ItemId(1), 1);
//! b.add_click(UserId(1), ItemId(0), 2);
//! let g = b.build();
//! assert_eq!(g.num_users(), 2);
//! assert_eq!(g.num_items(), 2);
//! assert_eq!(g.total_clicks(), 6);
//! assert_eq!(g.clicks(UserId(0), ItemId(0)), Some(3));
//! ```

pub mod builder;
pub mod compact;
pub mod components;
pub mod frontier;
pub mod graph;
pub mod ids;
pub mod io;
pub mod shard;
pub mod stats;
pub mod subgraph;
pub mod twohop;
pub mod view;

pub use builder::GraphBuilder;
pub use compact::{AliveBitmap, CompactBigraph, CompactSubgraph, CompactView, DeltaAdjacency};
pub use components::{connected_components, Component};
pub use frontier::FrontierScratch;
pub use graph::BipartiteGraph;
pub use ids::{ItemId, NodeId, UserId};
pub use shard::{plan_shards, user_shard, Shard, ShardOptions, ShardPlan, ShardPlanStats};
pub use stats::{ClickDistribution, DatasetScale, SideStats};
pub use subgraph::InducedSubgraph;
pub use twohop::{CommonNeighborScratch, HubBitmaps, KernelScratch};
pub use view::{GraphView, NeighborView, PruneView, Transposed};
