//! Channel loss models.
//!
//! WiFi losses in the paper are bursty (1–3% on the home network, 3–5% at the
//! coffee-shop hotspot); cellular radio losses exist but are hidden from TCP
//! by link-layer retransmission (see [`crate::link`]'s ARQ). We model the
//! channel with either a memoryless Bernoulli process or a two-state
//! Gilbert–Elliott chain, which produces the loss *bursts* that make WiFi
//! fast-retransmit behaviour realistic.

use mpw_sim::SimRng;

/// Per-frame loss process applied at the head of a link.
#[derive(Clone, Debug)]
pub enum LossModel {
    /// Never lose a frame.
    None,
    /// Independent loss with fixed probability.
    Bernoulli {
        /// Loss probability per frame, in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst-loss chain.
    GilbertElliott(GilbertElliott),
}

/// Parameters and state of a Gilbert–Elliott channel.
///
/// The chain moves between a *good* and a *bad* state at each frame; each
/// state has its own loss probability. Mean loss is
/// `π_b·loss_bad + π_g·loss_good` with `π_b = p_gb / (p_gb + p_bg)`.
#[derive(Clone, Debug)]
pub struct GilbertElliott {
    /// P(good → bad) per frame.
    pub p_gb: f64,
    /// P(bad → good) per frame.
    pub p_bg: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
    /// Current state (`true` = bad). Part of the model so the process has
    /// memory across frames.
    pub in_bad: bool,
}

impl GilbertElliott {
    /// Construct a chain that starts in the good state.
    pub fn new(p_gb: f64, p_bg: f64, loss_good: f64, loss_bad: f64) -> Self {
        for p in [p_gb, p_bg, loss_good, loss_bad] {
            assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        }
        GilbertElliott {
            p_gb,
            p_bg,
            loss_good,
            loss_bad,
            in_bad: false,
        }
    }

    /// Long-run mean loss probability of the chain.
    pub fn mean_loss(&self) -> f64 {
        if self.p_gb + self.p_bg == 0.0 {
            return if self.in_bad { self.loss_bad } else { self.loss_good };
        }
        let pi_bad = self.p_gb / (self.p_gb + self.p_bg);
        pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good
    }

    fn step(&mut self, rng: &mut SimRng) -> bool {
        if self.in_bad {
            if rng.chance(self.p_bg) {
                self.in_bad = false;
            }
        } else if rng.chance(self.p_gb) {
            self.in_bad = true;
        }
        let p = if self.in_bad { self.loss_bad } else { self.loss_good };
        rng.chance(p)
    }
}

impl LossModel {
    /// Convenience constructor for a WiFi-like burst-loss channel with the
    /// given target mean loss rate. Bursts average ~3 frames (`p_bg` = 1/3)
    /// with 30% in-burst loss — 802.11 MAC retries already absorb most
    /// channel errors, so post-MAC losses cluster mildly rather than wiping
    /// out whole windows (which would turn every burst into an RTO).
    ///
    /// ```
    /// use mpw_link::LossModel;
    /// let m = LossModel::bursty(0.016); // the paper's ~1.6% home-WiFi loss
    /// assert!((m.mean_loss() - 0.016).abs() < 1e-12);
    /// ```
    pub fn bursty(mean_loss: f64) -> LossModel {
        assert!((0.0..0.25).contains(&mean_loss));
        if mean_loss == 0.0 {
            return LossModel::None;
        }
        let loss_bad = 0.3;
        let p_bg = 1.0 / 3.0;
        // Put ~70% of the loss mass into bursts, the rest as background.
        let loss_good = mean_loss * 0.3;
        // mean = pi_bad*loss_bad + (1-pi_bad)*loss_good, solved for pi_bad.
        let pi_bad = ((mean_loss - loss_good) / (loss_bad - loss_good)).min(0.45);
        // pi_bad = p_gb / (p_gb + p_bg)  =>  p_gb = pi_bad * p_bg / (1 - pi_bad)
        let p_gb = pi_bad * p_bg / (1.0 - pi_bad);
        LossModel::GilbertElliott(GilbertElliott::new(p_gb, p_bg, loss_good, loss_bad))
    }

    /// Decide the fate of one frame, advancing any internal state.
    pub fn is_lost(&mut self, rng: &mut SimRng) -> bool {
        match self {
            LossModel::None => false,
            LossModel::Bernoulli { p } => rng.chance(*p),
            LossModel::GilbertElliott(ge) => ge.step(rng),
        }
    }

    /// Long-run mean loss probability.
    pub fn mean_loss(&self) -> f64 {
        match self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { p } => *p,
            LossModel::GilbertElliott(ge) => ge.mean_loss(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical(model: &mut LossModel, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::seeded(seed);
        let lost = (0..n).filter(|_| model.is_lost(&mut rng)).count();
        lost as f64 / n as f64
    }

    #[test]
    fn none_never_loses() {
        assert_eq!(empirical(&mut LossModel::None, 10_000, 1), 0.0);
    }

    #[test]
    fn bernoulli_matches_rate() {
        let mut m = LossModel::Bernoulli { p: 0.05 };
        let rate = empirical(&mut m, 100_000, 2);
        assert!((rate - 0.05).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn gilbert_elliott_matches_mean() {
        let mut m = LossModel::bursty(0.016);
        let target = m.mean_loss();
        assert!((target - 0.016).abs() < 1e-9);
        let rate = empirical(&mut m, 400_000, 3);
        assert!((rate - 0.016).abs() < 0.004, "rate {rate} target {target}");
    }

    #[test]
    fn gilbert_elliott_is_bursty() {
        // Consecutive-loss runs should be much more common than under an
        // independent model with the same mean.
        let mut ge = LossModel::bursty(0.03);
        let mut bern = LossModel::Bernoulli { p: 0.03 };
        let count_pairs = |m: &mut LossModel, seed| {
            let mut rng = SimRng::seeded(seed);
            let mut prev = false;
            let mut pairs = 0u32;
            for _ in 0..200_000 {
                let l = m.is_lost(&mut rng);
                if l && prev {
                    pairs += 1;
                }
                prev = l;
            }
            pairs
        };
        let ge_pairs = count_pairs(&mut ge, 4);
        let bern_pairs = count_pairs(&mut bern, 4);
        assert!(
            ge_pairs > bern_pairs * 3,
            "GE pairs {ge_pairs} vs Bernoulli pairs {bern_pairs}"
        );
    }

    #[test]
    fn mean_loss_formula() {
        let ge = GilbertElliott::new(0.02, 0.2, 0.0, 0.5);
        let pi_bad = 0.02 / 0.22;
        assert!((ge.mean_loss() - pi_bad * 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn rejects_bad_probability() {
        GilbertElliott::new(1.5, 0.1, 0.0, 0.5);
    }
}
