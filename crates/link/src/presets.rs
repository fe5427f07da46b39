//! Calibrated path presets for the networks measured in the paper.
//!
//! Each preset describes one *access path* between the mobile client and the
//! UMass server: an uplink and a downlink [`LinkConfig`] plus background
//! cross-traffic. Parameters are calibrated so that single-path TCP over the
//! preset reproduces the loss/RTT characteristics the paper reports in
//! Tables 2–5 (base RTT, RTT growth with flow size, loss rate, bufferbloat
//! tails in Figure 12) in *shape*; see EXPERIMENTS.md for the comparison.

use mpw_sim::SimDuration;
use serde::Serialize;

use crate::background::OnOffConfig;
use crate::link::{ArqConfig, Jitter, LinkConfig, RrcConfig};
use crate::loss::LossModel;
use crate::rate::{RateLevel, RateProcess};

/// Access technology of a path (used for labeling results).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum Technology {
    /// Private home 802.11a/b/g WiFi on a residential Comcast backhaul.
    WifiHome,
    /// Public coffee-shop hotspot (shared Comcast business backhaul).
    WifiHotspot,
    /// 4G LTE.
    Lte,
    /// 3G EVDO (CDMA).
    Evdo,
    /// Wired Ethernet.
    Wired,
}

/// The cellular carriers measured in the paper (Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum Carrier {
    /// AT&T — Elevate mobile hotspot, 4G LTE.
    Att,
    /// Verizon — LTE USB modem 551L, 4G LTE.
    Verizon,
    /// Sprint — OverdrivePro mobile hotspot, 3G EVDO.
    Sprint,
}

impl Carrier {
    /// All carriers, in the paper's order.
    pub const ALL: [Carrier; 3] = [Carrier::Att, Carrier::Verizon, Carrier::Sprint];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Carrier::Att => "AT&T",
            Carrier::Verizon => "Verizon",
            Carrier::Sprint => "Sprint",
        }
    }

    /// Device used in the paper's testbed (Table 1).
    pub fn device(self) -> &'static str {
        match self {
            Carrier::Att => "Elevate mobile hotspot",
            Carrier::Verizon => "LTE USB modem 551L",
            Carrier::Sprint => "OverdrivePro mobile hotspot",
        }
    }

    /// Access technology (Table 1).
    pub fn technology(self) -> Technology {
        match self {
            Carrier::Att | Carrier::Verizon => Technology::Lte,
            Carrier::Sprint => Technology::Evdo,
        }
    }

    /// The calibrated path preset for this carrier.
    pub fn preset(self) -> PathSpec {
        match self {
            Carrier::Att => att_lte(),
            Carrier::Verizon => verizon_lte(),
            Carrier::Sprint => sprint_evdo(),
        }
    }
}

/// Complete description of one duplex access path.
#[derive(Clone, Debug)]
pub struct PathSpec {
    /// Human-readable name ("AT&T LTE", "Home WiFi", ...).
    pub name: String,
    /// Technology label.
    pub technology: Technology,
    /// Server → client direction.
    pub down: LinkConfig,
    /// Client → server direction.
    pub up: LinkConfig,
    /// Background sources feeding the downlink queue.
    pub bg_down: Vec<OnOffConfig>,
    /// Background sources feeding the uplink queue.
    pub bg_up: Vec<OnOffConfig>,
}

impl PathSpec {
    /// Idle round-trip time for a `data_bytes` data frame and a 52-byte ACK
    /// (no queueing, no jitter): the "base RTT" of the path.
    pub fn base_rtt(&self, data_bytes: usize) -> SimDuration {
        self.down.base_one_way(data_bytes) + self.up.base_one_way(52)
    }
}

fn onoff(on_rate_bps: u64, mean_on_ms: u64, mean_off_ms: u64, frame: usize) -> OnOffConfig {
    OnOffConfig {
        on_rate_bps,
        mean_on: SimDuration::from_millis(mean_on_ms),
        mean_off: SimDuration::from_millis(mean_off_ms),
        frame_bytes: frame,
    }
}

/// Private home WiFi on a residential Comcast backhaul (§3.1).
///
/// `load` scales the background traffic from the residential community
/// sharing the backhaul: 0.0 = idle night, 1.0 = busy evening. The paper's
/// four day periods map to loads {0.15, 0.5, 0.7, 1.0}.
pub fn wifi_home(load: f64) -> PathSpec {
    let load = load.clamp(0.0, 2.0);
    PathSpec {
        name: "Home WiFi".into(),
        technology: Technology::WifiHome,
        down: LinkConfig {
            rate: RateProcess::modulated(vec![
                RateLevel { bits_per_sec: 22_000_000, mean_dwell: SimDuration::from_millis(900) },
                RateLevel { bits_per_sec: 16_000_000, mean_dwell: SimDuration::from_millis(300) },
            ]),
            prop_delay: SimDuration::from_millis(8),
            jitter: Jitter::Uniform {
                lo: SimDuration::from_micros(200),
                hi: SimDuration::from_millis(4),
            },
            buffer_bytes: 90_000,
            loss: LossModel::bursty(0.016),
            arq: None,
            rrc: None,
        },
        up: LinkConfig {
            rate: RateProcess::fixed(6_000_000),
            prop_delay: SimDuration::from_millis(8),
            jitter: Jitter::Uniform {
                lo: SimDuration::from_micros(100),
                hi: SimDuration::from_millis(2),
            },
            buffer_bytes: 48_000,
            loss: LossModel::bursty(0.006),
            arq: None,
            rrc: None,
        },
        bg_down: if load > 0.0 {
            vec![onoff((6_000_000.0 * load) as u64, 1_500, 4_000, 1500)]
        } else {
            vec![]
        },
        bg_up: vec![],
    }
}

/// Public coffee-shop hotspot with `customers` active patrons (§4.1.1,
/// Figure 6 / Table 4). The paper observed 15–20 laptops/phones on a Friday
/// afternoon: lossier channel, contention jitter, and heavy shared load.
pub fn wifi_hotspot(customers: u32) -> PathSpec {
    let customers = customers.max(1);
    // Model the patrons as a handful of aggregate on/off downloaders.
    let groups = customers.div_ceil(5).min(6);
    let per_group_rate = 3_600_000u64;
    let bg_down = (0..groups)
        .map(|_| onoff(per_group_rate, 2_000, 3_000, 1500))
        .collect();
    let bg_up = vec![onoff(1_200_000, 1_000, 3_000, 700)];
    PathSpec {
        name: format!("Hotspot WiFi ({customers} customers)"),
        technology: Technology::WifiHotspot,
        down: LinkConfig {
            rate: RateProcess::modulated(vec![
                RateLevel { bits_per_sec: 18_000_000, mean_dwell: SimDuration::from_millis(700) },
                RateLevel { bits_per_sec: 9_000_000, mean_dwell: SimDuration::from_millis(400) },
                RateLevel { bits_per_sec: 4_000_000, mean_dwell: SimDuration::from_millis(200) },
            ]),
            prop_delay: SimDuration::from_millis(9),
            jitter: Jitter::LogNormal {
                mean: SimDuration::from_millis(5),
                sigma: 1.1,
            },
            buffer_bytes: 130_000,
            loss: LossModel::bursty(0.026),
            arq: None,
            rrc: None,
        },
        up: LinkConfig {
            rate: RateProcess::fixed(5_000_000),
            prop_delay: SimDuration::from_millis(9),
            jitter: Jitter::LogNormal {
                mean: SimDuration::from_millis(3),
                sigma: 1.0,
            },
            buffer_bytes: 64_000,
            loss: LossModel::bursty(0.018),
            arq: None,
            rrc: None,
        },
        bg_down,
        bg_up,
    }
}

/// AT&T 4G LTE (Elevate hotspot): lowest RTT variability and most stable
/// cellular performance in the paper; base RTT ≈ 60 ms, near-zero visible
/// loss thanks to link-layer ARQ, moderate bufferbloat.
pub fn att_lte() -> PathSpec {
    PathSpec {
        name: "AT&T LTE".into(),
        technology: Technology::Lte,
        down: LinkConfig {
            rate: RateProcess::modulated(vec![
                RateLevel { bits_per_sec: 15_000_000, mean_dwell: SimDuration::from_millis(600) },
                RateLevel { bits_per_sec: 10_000_000, mean_dwell: SimDuration::from_millis(300) },
                RateLevel { bits_per_sec: 6_000_000, mean_dwell: SimDuration::from_millis(150) },
            ]),
            prop_delay: SimDuration::from_millis(26),
            jitter: Jitter::LogNormal {
                mean: SimDuration::from_millis(3),
                sigma: 0.7,
            },
            buffer_bytes: 450_000,
            loss: LossModel::Bernoulli { p: 0.06 },
            arq: Some(ArqConfig {
                retry_delay: SimDuration::from_millis(24),
                max_retries: 6,
            }),
            rrc: Some(RrcConfig {
                promotion_delay: SimDuration::from_millis(350),
                idle_timeout: SimDuration::from_secs(3),
            }),
        },
        up: LinkConfig {
            rate: RateProcess::modulated(vec![
                RateLevel { bits_per_sec: 8_000_000, mean_dwell: SimDuration::from_millis(500) },
                RateLevel { bits_per_sec: 5_000_000, mean_dwell: SimDuration::from_millis(250) },
            ]),
            prop_delay: SimDuration::from_millis(26),
            jitter: Jitter::LogNormal {
                mean: SimDuration::from_millis(2),
                sigma: 0.6,
            },
            buffer_bytes: 220_000,
            loss: LossModel::Bernoulli { p: 0.04 },
            arq: Some(ArqConfig {
                retry_delay: SimDuration::from_millis(24),
                max_retries: 6,
            }),
            rrc: Some(RrcConfig {
                promotion_delay: SimDuration::from_millis(350),
                idle_timeout: SimDuration::from_secs(3),
            }),
        },
        bg_down: vec![],
        bg_up: vec![],
    }
}

/// Verizon 4G LTE (551L USB modem): lower and more variable rate than AT&T,
/// RTT pattern "in between AT&T and Sprint" (Fig. 12) — min RTT ≈ 32 ms but
/// tails to ~2 s, and real (overflow) loss at large transfer sizes.
pub fn verizon_lte() -> PathSpec {
    PathSpec {
        name: "Verizon LTE".into(),
        technology: Technology::Lte,
        down: LinkConfig {
            rate: RateProcess::modulated(vec![
                RateLevel { bits_per_sec: 7_000_000, mean_dwell: SimDuration::from_millis(400) },
                RateLevel { bits_per_sec: 2_800_000, mean_dwell: SimDuration::from_millis(400) },
                RateLevel { bits_per_sec: 1_000_000, mean_dwell: SimDuration::from_millis(250) },
                RateLevel { bits_per_sec: 600_000, mean_dwell: SimDuration::from_millis(120) },
            ]),
            prop_delay: SimDuration::from_millis(13),
            jitter: Jitter::LogNormal {
                mean: SimDuration::from_millis(5),
                sigma: 0.9,
            },
            buffer_bytes: 330_000,
            loss: LossModel::Bernoulli { p: 0.05 },
            arq: Some(ArqConfig {
                retry_delay: SimDuration::from_millis(28),
                max_retries: 6,
            }),
            rrc: Some(RrcConfig {
                promotion_delay: SimDuration::from_millis(400),
                idle_timeout: SimDuration::from_secs(3),
            }),
        },
        up: LinkConfig {
            rate: RateProcess::modulated(vec![
                RateLevel { bits_per_sec: 4_000_000, mean_dwell: SimDuration::from_millis(400) },
                RateLevel { bits_per_sec: 1_500_000, mean_dwell: SimDuration::from_millis(300) },
            ]),
            prop_delay: SimDuration::from_millis(13),
            jitter: Jitter::LogNormal {
                mean: SimDuration::from_millis(4),
                sigma: 0.8,
            },
            buffer_bytes: 100_000,
            loss: LossModel::Bernoulli { p: 0.04 },
            arq: Some(ArqConfig {
                retry_delay: SimDuration::from_millis(28),
                max_retries: 6,
            }),
            rrc: Some(RrcConfig {
                promotion_delay: SimDuration::from_millis(400),
                idle_timeout: SimDuration::from_secs(3),
            }),
        },
        bg_down: vec![],
        bg_up: vec![],
    }
}

/// Sprint 3G EVDO (OverdrivePro hotspot): ~1 Mbps with wild rate swings,
/// heavy scheduler jitter, deep buffers — RTTs of 300–1200 ms with
/// multi-second tails, per Table 2 / Fig. 12.
pub fn sprint_evdo() -> PathSpec {
    PathSpec {
        name: "Sprint 3G".into(),
        technology: Technology::Evdo,
        down: LinkConfig {
            rate: RateProcess::modulated(vec![
                RateLevel { bits_per_sec: 2_200_000, mean_dwell: SimDuration::from_millis(500) },
                RateLevel { bits_per_sec: 1_100_000, mean_dwell: SimDuration::from_millis(400) },
                RateLevel { bits_per_sec: 500_000, mean_dwell: SimDuration::from_millis(250) },
                RateLevel { bits_per_sec: 280_000, mean_dwell: SimDuration::from_millis(120) },
            ]),
            prop_delay: SimDuration::from_millis(22),
            jitter: Jitter::LogNormal {
                mean: SimDuration::from_millis(15),
                sigma: 1.0,
            },
            buffer_bytes: 150_000,
            loss: LossModel::Bernoulli { p: 0.10 },
            arq: Some(ArqConfig {
                retry_delay: SimDuration::from_millis(65),
                max_retries: 3,
            }),
            rrc: Some(RrcConfig {
                promotion_delay: SimDuration::from_millis(800),
                idle_timeout: SimDuration::from_secs(4),
            }),
        },
        up: LinkConfig {
            rate: RateProcess::modulated(vec![
                RateLevel { bits_per_sec: 800_000, mean_dwell: SimDuration::from_millis(400) },
                RateLevel { bits_per_sec: 400_000, mean_dwell: SimDuration::from_millis(250) },
            ]),
            prop_delay: SimDuration::from_millis(22),
            jitter: Jitter::LogNormal {
                mean: SimDuration::from_millis(14),
                sigma: 1.0,
            },
            buffer_bytes: 80_000,
            loss: LossModel::Bernoulli { p: 0.08 },
            arq: Some(ArqConfig {
                retry_delay: SimDuration::from_millis(65),
                max_retries: 3,
            }),
            rrc: Some(RrcConfig {
                promotion_delay: SimDuration::from_millis(800),
                idle_timeout: SimDuration::from_secs(4),
            }),
        },
        bg_down: vec![],
        bg_up: vec![],
    }
}

/// A wired Gigabit LAN path (the UMass server's second interface, for
/// 4-path experiments and local tests).
pub fn wired_lan() -> PathSpec {
    PathSpec {
        name: "Wired LAN".into(),
        technology: Technology::Wired,
        down: LinkConfig::wired(1_000_000_000, SimDuration::from_micros(500), 1 << 20),
        up: LinkConfig::wired(1_000_000_000, SimDuration::from_micros(500), 1 << 20),
        bg_down: vec![],
        bg_up: vec![],
    }
}

/// The four day periods of the paper's methodology (§3.2) with the WiFi
/// backhaul load factor each maps to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum DayPeriod {
    /// 0–6 AM.
    Night,
    /// 6–12 AM.
    Morning,
    /// 12–6 PM.
    Afternoon,
    /// 6–12 PM.
    Evening,
}

impl DayPeriod {
    /// All periods in paper order.
    pub const ALL: [DayPeriod; 4] = [
        DayPeriod::Night,
        DayPeriod::Morning,
        DayPeriod::Afternoon,
        DayPeriod::Evening,
    ];

    /// Residential WiFi backhaul load factor for this period.
    pub fn wifi_load(self) -> f64 {
        match self {
            DayPeriod::Night => 0.15,
            DayPeriod::Morning => 0.45,
            DayPeriod::Afternoon => 0.7,
            DayPeriod::Evening => 1.0,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DayPeriod::Night => "night",
            DayPeriod::Morning => "morning",
            DayPeriod::Afternoon => "afternoon",
            DayPeriod::Evening => "evening",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_rtts_match_paper_scale() {
        // Paper: WiFi ~20-30 ms, LTE ~60 ms base, Verizon min 32 ms,
        // Sprint base below its queueing-dominated averages.
        let wifi = wifi_home(0.0).base_rtt(1452);
        assert!(
            wifi >= SimDuration::from_millis(15) && wifi <= SimDuration::from_millis(30),
            "wifi base rtt {wifi}"
        );
        let att = att_lte().base_rtt(1452);
        assert!(
            att >= SimDuration::from_millis(50) && att <= SimDuration::from_millis(70),
            "att base rtt {att}"
        );
        let vz = verizon_lte().base_rtt(1452);
        assert!(
            vz >= SimDuration::from_millis(26) && vz <= SimDuration::from_millis(45),
            "verizon base rtt {vz}"
        );
        let sp = sprint_evdo().base_rtt(1452);
        assert!(
            sp >= SimDuration::from_millis(45) && sp <= SimDuration::from_millis(90),
            "sprint base rtt {sp}"
        );
    }

    #[test]
    fn lte_is_faster_than_evdo() {
        let att = att_lte();
        let sp = sprint_evdo();
        assert!(att.down.rate.mean_rate() > 5.0 * sp.down.rate.mean_rate());
    }

    #[test]
    fn carriers_report_table1_metadata() {
        assert_eq!(Carrier::Att.technology(), Technology::Lte);
        assert_eq!(Carrier::Sprint.technology(), Technology::Evdo);
        assert_eq!(Carrier::Verizon.device(), "LTE USB modem 551L");
        assert_eq!(Carrier::ALL.len(), 3);
    }

    #[test]
    fn cellular_presets_hide_loss_behind_arq() {
        for c in Carrier::ALL {
            let spec = c.preset();
            assert!(spec.down.arq.is_some(), "{} lacks ARQ", spec.name);
            assert!(spec.down.loss.mean_loss() > 0.0);
        }
        assert!(wifi_home(0.5).down.arq.is_none());
    }

    #[test]
    fn hotspot_is_lossier_and_more_loaded_than_home() {
        let home = wifi_home(1.0);
        let hot = wifi_hotspot(18);
        assert!(hot.down.loss.mean_loss() > home.down.loss.mean_loss());
        let home_bg: f64 = home.bg_down.iter().map(|s| s.mean_load_bps()).sum();
        let hot_bg: f64 = hot.bg_down.iter().map(|s| s.mean_load_bps()).sum();
        assert!(hot_bg > home_bg, "hotspot bg {hot_bg} vs home bg {home_bg}");
    }

    #[test]
    fn day_periods_order_load() {
        let loads: Vec<f64> = DayPeriod::ALL.iter().map(|p| p.wifi_load()).collect();
        for w in loads.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
