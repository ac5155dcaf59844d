//! Generator configuration.

use serde::{Deserialize, Serialize};

/// Configuration of the organic (normal-user) click population.
///
/// Defaults reproduce the paper's Table I at a 1000× scale-down: 20k users,
/// 4k items, ~90k click records, ~200k total clicks — which preserves every
/// per-user / per-item average in Table II.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Number of organic users (paper: 20M; default 20k).
    pub num_users: usize,
    /// Number of organic items (paper: 4M; default 4k).
    pub num_items: usize,
    /// Zipf exponent of item popularity. `1.0` yields the paper's Pareto
    /// 80/20 click concentration at the default item count.
    pub popularity_exponent: f64,
    /// Exponent of the per-user activity (distinct items) power law.
    pub activity_exponent: f64,
    /// Maximum distinct items one organic user clicks.
    pub max_user_degree: usize,
    /// Mean clicks per edge on cold items (geometric, capped).
    pub cold_clicks_mean: f64,
    /// Mean clicks per edge on popular items. Table IV shows normal users
    /// click hot items *more* per edge, so this exceeds `cold_clicks_mean`.
    pub hot_clicks_mean: f64,
    /// Per-edge click cap for organic traffic.
    pub clicks_cap: u32,
    /// Fraction of the popularity ranking treated as "popular" for the
    /// per-edge click-mean split (top ranks).
    pub popular_rank_fraction: f64,
    /// Number of dense *organic* co-click communities (group-buying
    /// packages, fan clubs). These are benign structures the paper's
    /// property 4b explicitly worries about misjudging: binary-dense
    /// user–item blocks whose per-edge clicks stay small. They stress
    /// pure-density detectors (FRAUDAR spends block budget on them;
    /// community methods surface them) while RICD's behavioral screening
    /// discards them.
    pub num_communities: usize,
    /// Inclusive range of members per community.
    pub community_users: (usize, usize),
    /// Inclusive range of items per community.
    pub community_items: (usize, usize),
    /// Probability that a member clicked a given community item.
    pub community_coverage: f64,
    /// Inclusive range of clicks per community edge (kept small: these are
    /// ordinary shoppers, not click farms).
    pub community_clicks: (u32, u32),
    /// Number of ordinary "flash" items — promotions / hard-decision
    /// purchases that attract a handful of *organic* users who re-click
    /// them many times. Their per-edge clicks straddle `T_click`, so a
    /// detector whose groups sweep them in pays real precision (this is why
    /// the paper's RICD reports 0.81 precision, not 1.0). They are benign:
    /// never part of the ground truth.
    pub num_flash_items: usize,
    /// Inclusive range of obsessive re-clickers per flash item.
    pub flash_users: (usize, usize),
    /// Inclusive range of clicks per flash edge (straddles `T_click`).
    pub flash_clicks: (u32, u32),
    /// Number of "bargain-hunter rings": small organic cliques of deal
    /// hunters who *heavily* re-click a handful of promoted items together.
    /// Structurally these are miniature attack groups — heavy co-clicks,
    /// high coincidence — but at a scale **below** the paper's `(k₁, k₂)`
    /// floor. They are the benign pattern that separates RICD from the
    /// baselines: RICD's structural extraction never admits them, while
    /// community detectors carry them through screening inside larger
    /// communities.
    pub num_hunter_rings: usize,
    /// Inclusive range of hunters per ring (keep the max below `k₁`).
    pub hunter_users: (usize, usize),
    /// Inclusive range of items per ring (keep the max below `k₂`).
    pub hunter_items: (usize, usize),
    /// Probability a hunter clicked a given ring item.
    pub hunter_coverage: f64,
    /// Inclusive range of clicks per hunter edge (straddles `T_click`).
    pub hunter_clicks: (u32, u32),
    /// RNG seed; every dataset is fully reproducible from its config.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self {
            num_users: 20_000,
            num_items: 4_000,
            popularity_exponent: 1.0,
            activity_exponent: 2.0,
            max_user_degree: 150,
            cold_clicks_mean: 1.5,
            hot_clicks_mean: 2.4,
            clicks_cap: 40,
            popular_rank_fraction: 0.2,
            num_communities: 18,
            community_users: (40, 60),
            community_items: (15, 25),
            community_coverage: 0.9,
            community_clicks: (1, 3),
            num_flash_items: 40,
            flash_users: (4, 10),
            flash_clicks: (8, 18),
            num_hunter_rings: 15,
            hunter_users: (4, 8),
            hunter_items: (3, 6),
            hunter_coverage: 0.9,
            hunter_clicks: (8, 18),
            seed: 0x5eed_0001,
        }
    }
}

impl DatasetConfig {
    /// A small config for unit tests (2k users / 400 items).
    pub fn small() -> Self {
        Self {
            num_users: 2_000,
            num_items: 400,
            num_communities: 4,
            community_users: (30, 45),
            community_items: (12, 18),
            num_flash_items: 8,
            num_hunter_rings: 5,
            ..Self::default()
        }
    }

    /// A tiny config for fast property tests (500 users / 100 items).
    pub fn tiny() -> Self {
        Self {
            num_users: 500,
            num_items: 100,
            max_user_degree: 60,
            num_communities: 2,
            community_users: (20, 30),
            community_items: (8, 12),
            num_flash_items: 3,
            num_hunter_rings: 2,
            ..Self::default()
        }
    }

    /// The **100× scale-down** preset: 200k users / 40k items / ~900k click
    /// records — one order of magnitude up from the default 1000× world,
    /// with every confounder population (communities, flash items, hunter
    /// rings) scaled ×10 so the big graph keeps the same structural
    /// *texture*, not just more organic noise. This is the world the batch
    /// benchmark detects on: after the pre-filter its survivors still form
    /// one hub-glued component of about 15k users.
    pub fn scale100() -> Self {
        Self {
            num_users: 200_000,
            num_items: 40_000,
            num_communities: 180,
            num_flash_items: 400,
            num_hunter_rings: 150,
            seed: 0x5eed_0100,
            ..Self::default()
        }
    }

    /// The **1000× scale-down… inverted** preset: 2M users / 400k items /
    /// ~10M click records — a further order of magnitude past
    /// [`scale100`](Self::scale100), one tenth of the paper's production
    /// graph. Confounder populations scale ×10 again so the world keeps
    /// the 100× texture (thousands of benign dense blocks, not just more
    /// long-tail noise). This is the scale at which the dense CSR's memory,
    /// not the fixpoint's time, becomes the first limit.
    pub fn scale1000() -> Self {
        Self {
            num_users: 2_000_000,
            num_items: 400_000,
            num_communities: 1_800,
            num_flash_items: 4_000,
            num_hunter_rings: 1_500,
            seed: 0x5eed_1000,
            ..Self::default()
        }
    }

    /// Scales user/item counts by `factor` (≥ 1 keeps calibration intact;
    /// used by the scaling bench).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.num_users = ((self.num_users as f64) * factor).round().max(1.0) as usize;
        self.num_items = ((self.num_items as f64) * factor).round().max(1.0) as usize;
        self
    }

    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_users == 0 || self.num_items == 0 {
            return Err("need at least one user and one item".into());
        }
        if self.max_user_degree == 0 || self.max_user_degree > self.num_items {
            return Err("max_user_degree must be in 1..=num_items".into());
        }
        if self.cold_clicks_mean < 1.0 || self.hot_clicks_mean < 1.0 {
            return Err("click means must be ≥ 1".into());
        }
        if !(0.0..=1.0).contains(&self.popular_rank_fraction) {
            return Err("popular_rank_fraction must be in [0,1]".into());
        }
        if self.num_communities > 0 {
            if self.community_users.0 > self.community_users.1
                || self.community_items.0 > self.community_items.1
                || self.community_clicks.0 > self.community_clicks.1
            {
                return Err("community ranges must be non-empty".into());
            }
            if self.community_users.0 < 2 || self.community_items.0 < 1 {
                return Err("communities need ≥2 users and ≥1 item".into());
            }
            if self.community_clicks.0 == 0 {
                return Err("community clicks must be ≥ 1".into());
            }
            if !(0.0..=1.0).contains(&self.community_coverage) {
                return Err("community_coverage must be in [0,1]".into());
            }
            if self.community_users.1 > self.num_users
                || self.num_communities * self.community_items.1 > self.num_items
            {
                return Err("communities do not fit the user/item spaces".into());
            }
        }
        if self.num_flash_items > 0 {
            if self.flash_users.0 > self.flash_users.1
                || self.flash_clicks.0 > self.flash_clicks.1
                || self.flash_clicks.0 == 0
            {
                return Err("flash ranges must be non-empty with clicks ≥ 1".into());
            }
            if self.num_flash_items > self.num_items / 4 {
                return Err("too many flash items for the catalog".into());
            }
            if self.flash_users.1 > self.num_users {
                return Err("flash_users exceeds the user space".into());
            }
        }
        if self.num_hunter_rings > 0 {
            if self.hunter_users.0 > self.hunter_users.1
                || self.hunter_items.0 > self.hunter_items.1
                || self.hunter_clicks.0 > self.hunter_clicks.1
                || self.hunter_clicks.0 == 0
            {
                return Err("hunter ranges must be non-empty with clicks ≥ 1".into());
            }
            if self.hunter_users.0 < 2 || self.hunter_items.0 < 1 {
                return Err("hunter rings need ≥2 users and ≥1 item".into());
            }
            if !(0.0..=1.0).contains(&self.hunter_coverage) {
                return Err("hunter_coverage must be in [0,1]".into());
            }
            if self.hunter_users.1 > self.num_users
                || self.num_hunter_rings * self.hunter_items.1 > self.num_items / 4
            {
                return Err("hunter rings do not fit the user/item spaces".into());
            }
        }
        Ok(())
    }
}

/// Configuration of the planted "Ride Item's Coattails" attacks.
///
/// Each group follows the paper's Section IV strategy: workers click the
/// group's hot items a *few* times (establishing the co-click link cheaply),
/// the target items *heavily* (maximizing the I2I score under the click
/// budget, per Eq 2–3), and a few random ordinary items as camouflage.
/// The default shape matches the Section VII case-study group: tens of
/// accounts, a couple of ridden hot items, ~a dozen target items.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AttackConfig {
    /// Number of independent attack groups.
    pub num_groups: usize,
    /// Crowd-worker accounts per group.
    pub workers_per_group: usize,
    /// Freshly listed low-quality target items per group.
    pub targets_per_group: usize,
    /// Hot items each group rides (sampled from the popularity head).
    pub hot_items_per_group: usize,
    /// Inclusive range of clicks a worker puts on each target item; the
    /// lower bound should be ≥ the detector's `T_click` for the paper's
    /// "optimal" attacker (default 12..=18).
    pub target_clicks: (u32, u32),
    /// Inclusive range of clicks a worker puts on each ridden hot item
    /// (Section IV: "click the hot item once", at most a couple of times).
    pub hot_clicks: (u32, u32),
    /// Number of random ordinary items each worker clicks as camouflage.
    pub camouflage_items: usize,
    /// Inclusive range of clicks per camouflage edge.
    pub camouflage_clicks: (u32, u32),
    /// Fraction of the group's target items each worker actually clicks.
    /// `1.0` plants a perfect biclique (α = 1.0); lower values plant
    /// (α < 1)-extension structures for the Fig 9c sensitivity sweep.
    pub target_coverage: f64,
    /// If true, workers are *experienced*: they also carry an organic click
    /// history, making them blend in with normal users (Section I,
    /// challenge 2).
    pub experienced_workers: bool,
    /// Organic traffic drawn by each target item before the attack (fresh
    /// low-quality items attract few clicks).
    pub target_organic_clicks: (u32, u32),
    /// Normal users *attracted* to each target by its inflated exposure
    /// (Section I, challenge 4: "with the increasing popularity of
    /// deceptive items, some normal users may also be attracted by them and
    /// contribute clicks"). Each attracted user clicks the target once.
    /// This is what gives the paper's Table V target its signature — many
    /// light clickers around a core of heavy workers (368 clicks / 101
    /// users / mean 3.64).
    pub attracted_users_per_target: (u32, u32),
    /// Per-group size heterogeneity: each group's worker and target counts
    /// are scaled by a factor drawn uniformly from `[1 − j, 1 + j]`.
    /// `0.0` (the default) keeps every group exactly at the configured
    /// sizes; the evaluation datasets use `≈ 0.3` so group density varies —
    /// the regime where single-density block detectors (FRAUDAR) start
    /// missing the weaker groups, as the paper observes.
    pub group_size_jitter: f64,
    /// RNG seed for attack placement.
    pub seed: u64,
}

impl Default for AttackConfig {
    fn default() -> Self {
        Self {
            num_groups: 8,
            workers_per_group: 25,
            targets_per_group: 12,
            hot_items_per_group: 2,
            target_clicks: (12, 18),
            hot_clicks: (1, 2),
            camouflage_items: 3,
            camouflage_clicks: (1, 2),
            target_coverage: 1.0,
            experienced_workers: true,
            target_organic_clicks: (0, 5),
            attracted_users_per_target: (30, 120),
            group_size_jitter: 0.0,
            seed: 0x5eed_0002,
        }
    }
}

impl AttackConfig {
    /// A smaller attack set matching [`DatasetConfig::small`].
    pub fn small() -> Self {
        Self {
            num_groups: 4,
            ..Self::default()
        }
    }

    /// The canonical **evaluation** attack mix used by the Fig 8 / Table VI
    /// experiments: heterogeneous group sizes (crowd tasks differ in
    /// budget) and slightly partial target coverage (workers skip a few
    /// targets) — the realistic regime where the baselines' weaknesses
    /// show.
    pub fn evaluation() -> Self {
        Self {
            group_size_jitter: 0.3,
            target_coverage: 0.9,
            ..Self::default()
        }
    }

    /// The attack mix used by the Fig 9 sensitivity sweeps: three waves of
    /// groups whose scale, per-edge intensity and coverage *straddle* the
    /// swept parameter ranges, so every axis of Fig 9 has structure to
    /// discriminate:
    ///
    /// * small tight groups (12 × 10, clicks 12–16, full coverage) — lost
    ///   when `k₁`/`k₂` rise past their size;
    /// * medium groups (18 × 14, clicks 10–14, coverage 0.85) — their
    ///   lighter edges fall off as `T_click` rises;
    /// * large groups (35 × 22, clicks 8–13, coverage 0.8) — the only wave
    ///   whose overlap survives the high-`k` sweep points.
    pub fn sensitivity_mix() -> Vec<Self> {
        vec![
            Self {
                num_groups: 2,
                workers_per_group: 12,
                targets_per_group: 10,
                target_clicks: (12, 16),
                target_coverage: 1.0,
                seed: 0x5eed_0010,
                ..Self::default()
            },
            Self {
                num_groups: 2,
                workers_per_group: 18,
                targets_per_group: 14,
                target_clicks: (10, 14),
                target_coverage: 0.85,
                seed: 0x5eed_0011,
                ..Self::default()
            },
            Self {
                num_groups: 2,
                workers_per_group: 35,
                targets_per_group: 22,
                target_clicks: (8, 13),
                target_coverage: 0.8,
                seed: 0x5eed_0012,
                ..Self::default()
            },
        ]
    }

    /// The attack mix matching [`DatasetConfig::scale100`]: ten times the
    /// default group count with the evaluation regime's heterogeneity, so
    /// the 100× world carries a realistic spread of campaign sizes.
    pub fn scale100() -> Self {
        Self {
            num_groups: 80,
            group_size_jitter: 0.3,
            target_coverage: 0.9,
            seed: 0x5eed_0102,
            ..Self::default()
        }
    }

    /// The attack mix matching [`DatasetConfig::scale1000`]: ten times the
    /// 100× group count under the same heterogeneous evaluation regime —
    /// 800 independent campaigns spread over a 2M-user world.
    pub fn scale1000() -> Self {
        Self {
            num_groups: 800,
            group_size_jitter: 0.3,
            target_coverage: 0.9,
            seed: 0x5eed_1002,
            ..Self::default()
        }
    }

    /// No attacks at all (clean dataset).
    pub fn none() -> Self {
        Self {
            num_groups: 0,
            ..Self::default()
        }
    }

    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        for (name, (lo, hi)) in [
            ("target_clicks", self.target_clicks),
            ("hot_clicks", self.hot_clicks),
            ("camouflage_clicks", self.camouflage_clicks),
            ("target_organic_clicks", self.target_organic_clicks),
            (
                "attracted_users_per_target",
                self.attracted_users_per_target,
            ),
        ] {
            if lo > hi {
                return Err(format!("{name}: empty range {lo}..={hi}"));
            }
        }
        if self.target_clicks.0 == 0 || self.hot_clicks.0 == 0 || self.camouflage_clicks.0 == 0 {
            return Err("click ranges must start at ≥ 1".into());
        }
        if !(0.0..=1.0).contains(&self.target_coverage) {
            return Err("target_coverage must be in [0,1]".into());
        }
        if self.num_groups > 0 && (self.workers_per_group == 0 || self.targets_per_group == 0) {
            return Err("groups need at least one worker and one target".into());
        }
        if !(0.0..1.0).contains(&self.group_size_jitter) {
            return Err("group_size_jitter must be in [0, 1)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        DatasetConfig::default().validate().unwrap();
        AttackConfig::default().validate().unwrap();
        DatasetConfig::small().validate().unwrap();
        AttackConfig::small().validate().unwrap();
        AttackConfig::none().validate().unwrap();
        DatasetConfig::scale100().validate().unwrap();
        AttackConfig::scale100().validate().unwrap();
        DatasetConfig::scale1000().validate().unwrap();
        AttackConfig::scale1000().validate().unwrap();
    }

    #[test]
    fn scale1000_is_ten_x_scale100() {
        let c = DatasetConfig::scale1000();
        let d = DatasetConfig::scale100();
        assert_eq!(c.num_users, d.num_users * 10);
        assert_eq!(c.num_items, d.num_items * 10);
        assert_eq!(c.num_communities, d.num_communities * 10);
        assert_eq!(c.num_flash_items, d.num_flash_items * 10);
        assert_eq!(c.num_hunter_rings, d.num_hunter_rings * 10);
        assert_eq!(
            AttackConfig::scale1000().num_groups,
            AttackConfig::scale100().num_groups * 10
        );
    }

    #[test]
    fn scale100_is_ten_x_default() {
        let c = DatasetConfig::scale100();
        let d = DatasetConfig::default();
        assert_eq!(c.num_users, d.num_users * 10);
        assert_eq!(c.num_items, d.num_items * 10);
        assert_eq!(c.num_communities, d.num_communities * 10);
        assert_eq!(c.num_flash_items, d.num_flash_items * 10);
        assert_eq!(c.num_hunter_rings, d.num_hunter_rings * 10);
        assert_eq!(
            AttackConfig::scale100().num_groups,
            AttackConfig::default().num_groups * 10
        );
    }

    #[test]
    fn default_scale_matches_paper_ratio() {
        let c = DatasetConfig::default();
        // 1000x scale-down of 20M/4M.
        assert_eq!(c.num_users, 20_000);
        assert_eq!(c.num_items, 4_000);
        assert_eq!(c.num_users / c.num_items, 5);
    }

    #[test]
    fn scaled_adjusts_counts() {
        let c = DatasetConfig::default().scaled(0.5);
        assert_eq!(c.num_users, 10_000);
        assert_eq!(c.num_items, 2_000);
    }

    #[test]
    fn bad_dataset_configs_rejected() {
        let base = DatasetConfig::default;
        assert!(DatasetConfig {
            num_users: 0,
            ..base()
        }
        .validate()
        .is_err());
        assert!(DatasetConfig {
            max_user_degree: base().num_items + 1,
            ..base()
        }
        .validate()
        .is_err());
        assert!(DatasetConfig {
            cold_clicks_mean: 0.5,
            ..base()
        }
        .validate()
        .is_err());
        assert!(DatasetConfig {
            popular_rank_fraction: 1.5,
            ..base()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn bad_attack_configs_rejected() {
        let base = AttackConfig::default;
        assert!(AttackConfig {
            target_clicks: (5, 4),
            ..base()
        }
        .validate()
        .is_err());
        assert!(AttackConfig {
            hot_clicks: (0, 2),
            ..base()
        }
        .validate()
        .is_err());
        assert!(AttackConfig {
            target_coverage: -0.1,
            ..base()
        }
        .validate()
        .is_err());
        assert!(AttackConfig {
            workers_per_group: 0,
            ..base()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn serde_round_trip() {
        let c = DatasetConfig::default();
        let s = serde_json::to_string(&c).unwrap();
        let c2: DatasetConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(c, c2);
    }
}
