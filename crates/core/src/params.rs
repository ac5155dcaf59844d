//! Framework parameters.

use serde::{Deserialize, Serialize};

/// Which screening steps run — the paper's ablation axis (Table VI).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScreeningMode {
    /// No screening at all — the paper's **RICD-UI** variant ("removes the
    /// whole suspicious group screening module").
    None,
    /// User behavior check only — the paper's **RICD-I** variant ("removes
    /// the item behavior verification step").
    UserCheckOnly,
    /// Both steps — full **RICD**.
    Full,
}

/// How the run's thresholds are chosen: the paper's published operating
/// point, or `T_hot`/`T_click` derived from the observed data
/// ([`crate::thresholds::params_for_mode`]). Exposed on the stream and
/// adversarial CLI paths so the derived thresholds are exercisable — with
/// the documented caveat that on tiny synthetic worlds the derived `T_hot`
/// marks the attack targets themselves hot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParamsMode {
    /// The paper's Section VI-B operating point ([`RicdParams::default`]).
    #[default]
    Default,
    /// `T_hot` from the Pareto rule and `T_click` from Eq 4, derived from
    /// the graph under detection; structural parameters stay at defaults.
    Derived,
}

impl ParamsMode {
    /// Parses the CLI spelling (`default` | `derived`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "default" => Ok(Self::Default),
            "derived" => Ok(Self::Derived),
            other => Err(format!("unknown params mode '{other}' (default|derived)")),
        }
    }

    /// The CLI spelling, for report fields.
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Default => "default",
            Self::Derived => "derived",
        }
    }
}

/// All tunables of the RICD pipeline, with the paper's defaults
/// (Section VI-B: `k₁ = 10, k₂ = 10, α = 1.0, T_hot = 1,000, T_click = 12`).
///
/// `T_hot` is expressed as an absolute click threshold, as in the paper. On
/// synthetic data use [`crate::thresholds::derive_t_hot`] to derive it from
/// the Pareto rule instead of hard-coding the paper's 1,320.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RicdParams {
    /// Minimum number of users in an extracted structure (`k₁`,
    /// Definition 3).
    pub k1: usize,
    /// Minimum number of items in an extracted structure (`k₂`).
    pub k2: usize,
    /// Extension tolerance (`α ∈ (0, 1]`, Definition 2). `1.0` demands exact
    /// bicliques.
    pub alpha: f64,
    /// Hot-item threshold on total item clicks (`T_hot`).
    pub t_hot: u64,
    /// Abnormal-click threshold on a single user→item edge (`T_click`,
    /// Eq 4).
    pub t_click: u32,
    /// Section IV-A characteristic (2): abnormal users' average clicks on
    /// hot items is "extremely small (< 4)". Users above this bound pass the
    /// user behavior check only via the target-click rule.
    pub hot_avg_max: f64,
    /// Minimum number of in-group heavy clickers for an item to survive the
    /// item behavior verification (a single heavy edge is not a group
    /// attack).
    pub min_target_support: usize,
    /// Minimum users a *screened* group must retain to be reported — the
    /// paper's property 4b knob ("explicitly limit the detected group's
    /// size to avoid the misjudgment of group-buying phenomenon"). Two or
    /// three shoppers who each happen to re-click the same promotion are
    /// not a crowdsourced campaign.
    pub min_group_users: usize,
    /// Minimum target items a screened group must retain to be reported.
    pub min_group_targets: usize,
    /// Which screening steps run.
    pub screening: ScreeningMode,
    /// Maximum pruning rounds in Algorithm 3 before giving up on the
    /// fixpoint (safety valve; convergence is typically < 10 rounds).
    pub max_rounds: usize,
}

impl Default for RicdParams {
    fn default() -> Self {
        Self {
            k1: 10,
            k2: 10,
            alpha: 1.0,
            t_hot: 1_000,
            t_click: 12,
            hot_avg_max: 4.0,
            min_target_support: 2,
            min_group_users: 3,
            min_group_targets: 2,
            screening: ScreeningMode::Full,
            max_rounds: 64,
        }
    }
}

impl RicdParams {
    /// `⌈α · k₂⌉` — the user-degree bound of Lemma 1(1).
    pub fn user_degree_bound(&self) -> usize {
        (self.alpha * self.k2 as f64).ceil() as usize
    }

    /// `⌈α · k₁⌉` — the item-degree bound of Lemma 1(2).
    pub fn item_degree_bound(&self) -> usize {
        (self.alpha * self.k1 as f64).ceil() as usize
    }

    /// `⌈k₂ · α⌉` — the common-neighbor bound for user pairs
    /// (Definition 4).
    pub fn user_common_bound(&self) -> u32 {
        (self.alpha * self.k2 as f64).ceil() as u32
    }

    /// `⌈k₁ · α⌉` — the common-neighbor bound for item pairs.
    pub fn item_common_bound(&self) -> u32 {
        (self.alpha * self.k1 as f64).ceil() as u32
    }

    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.k1 == 0 || self.k2 == 0 {
            return Err("k1 and k2 must be positive".into());
        }
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err("alpha must be in (0, 1]".into());
        }
        if self.t_click == 0 {
            return Err("t_click must be positive".into());
        }
        if self.max_rounds == 0 {
            return Err("max_rounds must be positive".into());
        }
        Ok(())
    }

    /// The Fig 7 relaxation step: loosen the thresholds that gate recall.
    /// Returns `None` when nothing is left to relax.
    pub fn relaxed(&self) -> Option<Self> {
        let mut p = *self;
        let mut changed = false;
        if p.t_click > 4 {
            p.t_click -= 2;
            changed = true;
        }
        if p.alpha > 0.7 {
            p.alpha = ((p.alpha - 0.1) * 10.0).round() / 10.0;
            changed = true;
        }
        if p.k1 > 4 {
            p.k1 -= 1;
            changed = true;
        }
        if p.k2 > 4 {
            p.k2 -= 1;
            changed = true;
        }
        changed.then_some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = RicdParams::default();
        assert_eq!(p.k1, 10);
        assert_eq!(p.k2, 10);
        assert_eq!(p.alpha, 1.0);
        assert_eq!(p.t_hot, 1_000);
        assert_eq!(p.t_click, 12);
        p.validate().unwrap();
    }

    #[test]
    fn bounds_are_ceilings() {
        let p = RicdParams {
            alpha: 0.75,
            k1: 10,
            k2: 7,
            ..RicdParams::default()
        };
        assert_eq!(p.user_degree_bound(), 6); // ceil(0.75*7) = 6
        assert_eq!(p.item_degree_bound(), 8); // ceil(0.75*10) = 8
        assert_eq!(p.user_common_bound(), 6);
        assert_eq!(p.item_common_bound(), 8);
    }

    #[test]
    fn alpha_one_bounds_equal_k() {
        let p = RicdParams::default();
        assert_eq!(p.user_degree_bound(), 10);
        assert_eq!(p.item_degree_bound(), 10);
    }

    #[test]
    fn invalid_params_rejected() {
        let base = RicdParams::default;
        assert!(RicdParams {
            alpha: 0.0,
            ..base()
        }
        .validate()
        .is_err());
        assert!(RicdParams {
            alpha: 1.1,
            ..base()
        }
        .validate()
        .is_err());
        assert!(RicdParams { k1: 0, ..base() }.validate().is_err());
        assert!(RicdParams {
            t_click: 0,
            ..base()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn relaxation_loosens_until_floor() {
        let mut p = RicdParams::default();
        let mut steps = 0;
        while let Some(next) = p.relaxed() {
            assert!(next.t_click <= p.t_click);
            assert!(next.alpha <= p.alpha);
            assert!(next.k1 <= p.k1);
            next.validate().unwrap();
            p = next;
            steps += 1;
            assert!(steps < 100, "relaxation must terminate");
        }
        assert!(p.t_click <= 4);
        assert!(p.alpha <= 0.7 + 1e-9);
        assert_eq!(p.k1, 4);
    }
}
