//! Assembling a full synthetic dataset: organic population + planted
//! attacks + ground truth.

use crate::attack::{plan_attacks, IdAllocator};
use crate::community::{
    plant_communities, plant_flash_items, plant_hunter_rings, OrganicCommunity,
};
use crate::config::{AttackConfig, DatasetConfig};
use crate::normal::NormalModel;
use crate::truth::GroundTruth;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use ricd_graph::{BipartiteGraph, GraphBuilder, ItemId, UserId};

/// A complete synthetic dataset: the substitution for `TaoBao_UI_Clicks`
/// plus the expert labels.
#[derive(Clone, Debug)]
pub struct SyntheticDataset {
    /// The configuration that produced the organic population.
    pub config: DatasetConfig,
    /// The configuration that produced the attacks.
    pub attack_config: AttackConfig,
    /// Graph form (what the detectors run on).
    pub graph: BipartiteGraph,
    /// Exact labels for every planted worker and target.
    pub truth: GroundTruth,
    /// The benign dense communities planted in the organic traffic (these
    /// are *not* abnormal; a detector flagging them pays in precision).
    pub communities: Vec<OrganicCommunity>,
    /// The benign bargain-hunter rings (heavy-click cliques below the
    /// `(k₁, k₂)` floor; also not abnormal).
    pub hunter_rings: Vec<OrganicCommunity>,
}

impl SyntheticDataset {
    /// Number of organic (non-worker) users.
    pub fn organic_users(&self) -> usize {
        self.config.num_users
    }

    /// Number of organic (non-target) items.
    pub fn organic_items(&self) -> usize {
        self.config.num_items
    }
}

/// Generates a dataset. Fully deterministic given the two configs (each
/// carries its own seed).
///
/// Pipeline:
/// 1. sample every organic user's click list in *popularity-rank* space;
/// 2. shuffle ranks into arbitrary item ids (so no algorithm can read
///    popularity off the id);
/// 3. compute the organic popularity head (top 1% by total clicks) as the
///    hot pool the attacks ride, and the rest as the camouflage pool;
/// 4. plan attacks (fresh worker/target ids after the organic spaces);
/// 5. optionally give each worker an organic history ("experienced
///    workers", Section I challenge 2);
/// 6. merge all records into one [`BipartiteGraph`].
pub fn generate(
    config: &DatasetConfig,
    attack_config: &AttackConfig,
) -> Result<SyntheticDataset, String> {
    generate_with_attacks(config, std::slice::from_ref(attack_config))
}

/// Like [`generate`], but plants several independently configured attack
/// waves (e.g. the sensitivity experiments mix small tight groups with big
/// loose ones). The returned dataset's `attack_config` is the first entry
/// (or the default when the slice is empty).
pub fn generate_with_attacks(
    config: &DatasetConfig,
    attack_configs: &[AttackConfig],
) -> Result<SyntheticDataset, String> {
    config.validate()?;
    for a in attack_configs {
        a.validate()?;
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let model = NormalModel::new(config);

    // Rank → item-id permutation.
    let mut rank_to_item: Vec<u32> = (0..config.num_items as u32).collect();
    rank_to_item.shuffle(&mut rng);

    // Organic records.
    let mut records: Vec<(UserId, ItemId, u32)> = Vec::new();
    let mut organic_item_totals = vec![0u64; config.num_items];
    for u in 0..config.num_users as u32 {
        for (rank, clicks) in model.sample_user(&mut rng) {
            let item = rank_to_item[rank as usize];
            organic_item_totals[item as usize] += clicks as u64;
            records.push((UserId(u), ItemId(item), clicks));
        }
    }

    // Benign dense communities over cold-half items (see `community`).
    let community_pool: Vec<ItemId> = (config.num_items / 2..config.num_items)
        .map(|rank| ItemId(rank_to_item[rank]))
        .collect();
    let (communities, community_records) = plant_communities(config, &community_pool, &mut rng);
    for &(_, v, c) in &community_records {
        organic_item_totals[v.index()] += c as u64;
    }
    records.extend(community_records);

    // Flash items over mid-popularity ranks (25%..50%), disjoint from the
    // community pool above.
    let flash_pool: Vec<ItemId> = (config.num_items / 4..config.num_items / 2)
        .map(|rank| ItemId(rank_to_item[rank]))
        .collect();
    let flash_records = plant_flash_items(config, &flash_pool, &mut rng);
    for &(_, v, c) in &flash_records {
        organic_item_totals[v.index()] += c as u64;
    }
    records.extend(flash_records);

    // Bargain-hunter rings over the remainder of the flash pool (disjoint
    // from the flash items themselves).
    let hunter_pool: Vec<ItemId> =
        flash_pool[config.num_flash_items.min(flash_pool.len())..].to_vec();
    let (hunter_rings, hunter_records) = plant_hunter_rings(config, &hunter_pool, &mut rng);
    for &(_, v, c) in &hunter_records {
        organic_item_totals[v.index()] += c as u64;
    }
    records.extend(hunter_records);

    // Popularity head (hot pool): top 1% of organic items by total clicks,
    // at least `hot_items_per_group` so tiny test configs still work.
    let mut by_clicks: Vec<u32> = (0..config.num_items as u32).collect();
    by_clicks.sort_unstable_by_key(|&v| std::cmp::Reverse(organic_item_totals[v as usize]));
    let head = ((config.num_items as f64) * 0.01).ceil() as usize;
    let max_hot_need = attack_configs
        .iter()
        .map(|a| a.hot_items_per_group)
        .max()
        .unwrap_or(0);
    let head = head.max(max_hot_need).min(config.num_items);
    let hot_pool: Vec<ItemId> = by_clicks[..head].iter().map(|&v| ItemId(v)).collect();
    let ordinary_pool: Vec<ItemId> = by_clicks[head..].iter().map(|&v| ItemId(v)).collect();

    // Attack waves share one id allocator so workers/targets never collide.
    let mut alloc = IdAllocator::new(config.num_users, config.num_items);
    let mut truth = GroundTruth::default();
    for attack_config in attack_configs {
        let mut attack_rng = StdRng::seed_from_u64(attack_config.seed);
        let plan = plan_attacks(
            attack_config,
            &hot_pool,
            &ordinary_pool,
            config.num_users,
            &mut alloc,
            &mut attack_rng,
        )?;
        records.extend(plan.records.iter().copied());

        // Experienced workers blend in with organic histories.
        if attack_config.experienced_workers {
            for g in &plan.truth.groups {
                for &w in &g.workers {
                    for (rank, clicks) in model.sample_user(&mut attack_rng) {
                        records.push((w, ItemId(rank_to_item[rank as usize]), clicks));
                    }
                }
            }
        }
        truth.groups.extend(plan.truth.groups);
    }

    let total_users =
        config.num_users + truth.groups.iter().map(|g| g.workers.len()).sum::<usize>();
    let total_items =
        config.num_items + truth.groups.iter().map(|g| g.targets.len()).sum::<usize>();

    let mut b = GraphBuilder::with_capacity(records.len());
    b.reserve_users(total_users).reserve_items(total_items);
    b.extend(records);
    let graph = b.build();

    Ok(SyntheticDataset {
        config: config.clone(),
        attack_config: attack_configs
            .first()
            .cloned()
            .unwrap_or_else(AttackConfig::none),
        graph,
        truth,
        communities,
        hunter_rings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricd_graph::stats;

    #[test]
    fn small_dataset_generates_and_validates() {
        let ds = generate(&DatasetConfig::small(), &AttackConfig::small()).unwrap();
        ds.graph.validate().unwrap();
        assert_eq!(
            ds.graph.num_users(),
            2_000 + 4 * 25,
            "organic + 4 groups x 25 workers"
        );
        assert_eq!(ds.graph.num_items(), 400 + 4 * 12);
        assert_eq!(ds.truth.groups.len(), 4);
    }

    #[test]
    fn multi_wave_attacks_merge_disjointly() {
        let waves = AttackConfig::sensitivity_mix();
        let ds = generate_with_attacks(&DatasetConfig::small(), &waves).unwrap();
        let expected_groups: usize = waves.iter().map(|w| w.num_groups).sum();
        assert_eq!(ds.truth.groups.len(), expected_groups);
        // Worker/target ids never collide across waves.
        let users = ds.truth.abnormal_users();
        let total: usize = ds.truth.groups.iter().map(|g| g.workers.len()).sum();
        assert_eq!(users.len(), total, "no shared workers across waves");
        ds.graph.validate().unwrap();
        // Wave shapes survive.
        assert_eq!(ds.truth.groups[0].workers.len(), 12);
        assert_eq!(ds.truth.groups[4].workers.len(), 35);
    }

    #[test]
    fn empty_attack_slice_is_clean() {
        let ds = generate_with_attacks(&DatasetConfig::tiny(), &[]).unwrap();
        assert_eq!(ds.truth.num_abnormal(), 0);
        assert_eq!(ds.attack_config.num_groups, 0);
    }

    #[test]
    fn single_wave_matches_generate() {
        let a = generate(&DatasetConfig::tiny(), &AttackConfig::small()).unwrap();
        let b = generate_with_attacks(&DatasetConfig::tiny(), &[AttackConfig::small()]).unwrap();
        let ea: Vec<_> = a.graph.edges().collect();
        let eb: Vec<_> = b.graph.edges().collect();
        assert_eq!(ea, eb);
        assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn deterministic() {
        let a = generate(&DatasetConfig::tiny(), &AttackConfig::small()).unwrap();
        let b = generate(&DatasetConfig::tiny(), &AttackConfig::small()).unwrap();
        let ea: Vec<_> = a.graph.edges().collect();
        let eb: Vec<_> = b.graph.edges().collect();
        assert_eq!(ea, eb);
        assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn clean_dataset_has_no_truth() {
        let ds = generate(&DatasetConfig::tiny(), &AttackConfig::none()).unwrap();
        assert_eq!(ds.truth.num_abnormal(), 0);
        assert_eq!(ds.graph.num_users(), 500);
        assert_eq!(ds.graph.num_items(), 100);
    }

    #[test]
    fn workers_click_their_group_structure() {
        let ds = generate(&DatasetConfig::small(), &AttackConfig::small()).unwrap();
        let g0 = &ds.truth.groups[0];
        let w = g0.workers[0];
        // Heavy clicks on every target (full coverage by default).
        for &t in &g0.targets {
            let c = ds.graph.clicks(w, t).expect("worker clicked target");
            assert!(c >= ds.attack_config.target_clicks.0);
        }
        // Light clicks on ridden hot items.
        for &h in &g0.ridden_hot_items {
            let c = ds.graph.clicks(w, h).expect("worker clicked hot item");
            // Experienced workers may add organic clicks on the same hot
            // item, so allow slack above the planned max.
            assert!(c >= 1);
        }
    }

    #[test]
    fn targets_have_few_users_many_clicks() {
        // Table V shape: target items show high clicks from few users.
        let ds = generate(&DatasetConfig::small(), &AttackConfig::small()).unwrap();
        let g0 = &ds.truth.groups[0];
        let t = g0.targets[0];
        let users = ds.graph.item_degree(t);
        let clicks = ds.graph.item_total_clicks(t);
        let mean = clicks as f64 / users as f64;
        // The paper's Table V target shows mean 3.64 clicks/user — the
        // signature is the *contrast* against ordinary traffic (whose
        // per-edge mean is ~2), not a large absolute value: the attracted
        // normal users dilute the workers' heavy edges. Baseline over
        // non-target items only; the attack edges themselves would inflate
        // a global mean.
        let targets = ds.truth.abnormal_items();
        let (mut base_clicks, mut base_users) = (0u64, 0u64);
        for v in 0..ds.graph.num_items() as u32 {
            let v = ItemId(v);
            if targets.binary_search(&v).is_err() {
                base_clicks += ds.graph.item_total_clicks(v);
                base_users += ds.graph.item_degree(v) as u64;
            }
        }
        let edge_mean = base_clicks as f64 / base_users as f64;
        assert!(
            mean > 1.4 * edge_mean,
            "target mean clicks/user {mean:.1} should exceed the ordinary per-edge mean {edge_mean:.1}"
        );
    }

    #[test]
    fn organic_stats_near_table2_band() {
        let ds = generate(&DatasetConfig::default(), &AttackConfig::none()).unwrap();
        let us = stats::user_stats(&ds.graph);
        let is = stats::item_stats(&ds.graph);
        // Paper: user Avg_clk 11.35, Avg_cnt 4.32; item Avg_clk 54.94,
        // Avg_cnt 20.49. Generous bands — we need the shape, not the digits.
        assert!(
            (6.0..16.0).contains(&us.avg_clk),
            "user avg_clk {}",
            us.avg_clk
        );
        assert!(
            (3.0..6.5).contains(&us.avg_cnt),
            "user avg_cnt {}",
            us.avg_cnt
        );
        assert!(
            (30.0..90.0).contains(&is.avg_clk),
            "item avg_clk {}",
            is.avg_clk
        );
        assert!(
            (15.0..33.0).contains(&is.avg_cnt),
            "item avg_cnt {}",
            is.avg_cnt
        );
        assert!(us.stdev > us.avg_clk, "user totals heavy-tailed");
        assert!(is.stdev > is.avg_clk, "item totals heavy-tailed");
    }

    #[test]
    fn pareto_8020_holds() {
        let ds = generate(&DatasetConfig::default(), &AttackConfig::none()).unwrap();
        let c = stats::pareto_concentration(&ds.graph, 0.2);
        assert!(
            (0.65..0.95).contains(&c),
            "top-20% items hold {c:.2} of clicks; want ~0.8"
        );
    }

    #[test]
    fn edge_and_click_scale_near_paper_ratio() {
        let ds = generate(&DatasetConfig::default(), &AttackConfig::none()).unwrap();
        let s = stats::dataset_scale(&ds.graph);
        // 1000x scale-down of 90M edges / 200M clicks.
        assert!(
            (60_000..140_000).contains(&s.edges),
            "edges {} (want ~90k)",
            s.edges
        );
        assert!(
            (120_000..320_000).contains(&s.total_clicks),
            "clicks {} (want ~200k)",
            s.total_clicks
        );
    }
}
