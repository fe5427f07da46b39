//! The declarative fleet description: who the clients are, when they
//! arrive, and what they do.

use mpw_http::StreamingProfile;
use mpw_link::{wifi_home, wifi_hotspot, Carrier, DayPeriod, PathSpec};
use mpw_sim::SimRng;
use serde::{Deserialize, Serialize};

/// Path technology of one client — the population axes of the contention
/// study (WiFi-only and LTE-only single-path users vs 2-path MPTCP users).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClientClass {
    /// Plain TCP over the shared WiFi access network.
    WifiOnly,
    /// Plain TCP over the shared cellular access network.
    LteOnly,
    /// 2-path MPTCP across both shared networks.
    Multipath,
}

impl ClientClass {
    /// Stable label used in reports ("wifi" / "lte" / "mp2").
    pub fn label(self) -> &'static str {
        match self {
            ClientClass::WifiOnly => "wifi",
            ClientClass::LteOnly => "lte",
            ClientClass::Multipath => "mp2",
        }
    }
}

/// Seeded class-mix weights. Each client's class is one bounded draw from
/// the fleet's `fleet.mix` RNG stream, so the population is a pure function
/// of the seed (and stable under changes elsewhere in the build).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathMix {
    /// Relative weight of WiFi-only clients.
    pub wifi_only: u32,
    /// Relative weight of LTE-only clients.
    pub lte_only: u32,
    /// Relative weight of multipath clients.
    pub multipath: u32,
}

impl PathMix {
    /// Everyone runs 2-path MPTCP.
    pub fn all_multipath() -> Self {
        PathMix {
            wifi_only: 0,
            lte_only: 0,
            multipath: 1,
        }
    }

    /// The default mixed population: mostly single-path WiFi users, a
    /// smaller LTE share, a multipath minority.
    pub fn mixed() -> Self {
        PathMix {
            wifi_only: 5,
            lte_only: 3,
            multipath: 2,
        }
    }

    /// Draw one class (weights of zero never win; an all-zero mix falls
    /// back to multipath).
    pub fn draw(&self, rng: &mut SimRng) -> ClientClass {
        let total = u64::from(self.wifi_only) + u64::from(self.lte_only) + u64::from(self.multipath);
        if total == 0 {
            return ClientClass::Multipath;
        }
        let x = rng.range_u64(0, total);
        if x < u64::from(self.wifi_only) {
            ClientClass::WifiOnly
        } else if x < u64::from(self.wifi_only) + u64::from(self.lte_only) {
            ClientClass::LteOnly
        } else {
            ClientClass::Multipath
        }
    }
}

/// Which WiFi network the client (or the whole fleet) associates with.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum WifiKind {
    /// Private home network on a residential backhaul (default);
    /// background load follows the day period.
    Home,
    /// The coffee-shop hotspot with the given number of customers.
    Hotspot(u32),
}

impl WifiKind {
    /// Materialize the path spec for a given day period.
    pub fn spec(self, period: DayPeriod) -> PathSpec {
        match self {
            WifiKind::Home => wifi_home(period.wifi_load()),
            WifiKind::Hotspot(n) => wifi_hotspot(n),
        }
    }
}

/// When each client's first flow opens. Every variant is a pure function
/// of the seed: the whole arrival schedule is computed up front from named
/// RNG streams, never from execution order.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Arrival {
    /// Client `i` starts at `i * gap_ms` (a deterministic ramp).
    Staggered {
        /// Gap between consecutive arrivals.
        gap_ms: u64,
    },
    /// Open-loop Poisson process: exponential inter-arrival times with the
    /// given mean, drawn by inversion from the `fleet.arrivals` stream.
    Poisson {
        /// Mean inter-arrival gap (ms).
        mean_gap_ms: u64,
    },
}

/// What each client does per flow.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FleetWorkload {
    /// One HTTP download of `size` bytes (the paper's size ladder).
    Download {
        /// Object size in bytes.
        size: u64,
    },
    /// The §6 streaming session (prefetch + periodic blocks).
    Streaming {
        /// Block schedule (Table 7 profiles or the miniature test one).
        profile: StreamingProfile,
    },
}

/// The full declarative fleet description. `run_fleet` turns one of these
/// into a populated world; equality of specs (plus seed) implies byte
/// equality of reports.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Population size.
    pub n_clients: u32,
    /// Root world seed.
    pub seed: u64,
    /// Class-mix weights.
    pub mix: PathMix,
    /// Shared WiFi access network.
    pub wifi: WifiKind,
    /// Shared cellular access network.
    pub carrier: Carrier,
    /// Day period (drives WiFi background load).
    pub period: DayPeriod,
    /// Arrival process.
    pub arrival: Arrival,
    /// Per-client workload.
    pub workload: FleetWorkload,
    /// Hard stop (sim ms); flows still open at the horizon are harvested
    /// as incomplete.
    pub horizon_ms: u64,
    /// Goodput-timeline bucket width and engine sampling tick (ms).
    pub goodput_bucket_ms: u64,
}

impl FleetSpec {
    /// A small mixed-population smoke spec: `n` clients, short downloads,
    /// staggered arrivals — the shape the CI fleet smoke runs.
    pub fn smoke(n: u32, seed: u64) -> FleetSpec {
        FleetSpec {
            n_clients: n,
            seed,
            mix: PathMix::mixed(),
            wifi: WifiKind::Home,
            carrier: Carrier::Att,
            period: DayPeriod::Evening,
            arrival: Arrival::Staggered { gap_ms: 20 },
            workload: FleetWorkload::Download { size: 64 << 10 },
            horizon_ms: 60_000,
            goodput_bucket_ms: 250,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_draw_is_seed_deterministic_and_weight_respecting() {
        let mix = PathMix {
            wifi_only: 1,
            lte_only: 0,
            multipath: 1,
        };
        let draw = |seed| {
            let mut rng = SimRng::seeded(seed);
            (0..200).map(|_| mix.draw(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
        assert!(!a.contains(&ClientClass::LteOnly));
        assert!(a.contains(&ClientClass::WifiOnly));
        assert!(a.contains(&ClientClass::Multipath));
    }

    #[test]
    fn zero_mix_falls_back_to_multipath() {
        let mix = PathMix {
            wifi_only: 0,
            lte_only: 0,
            multipath: 0,
        };
        let mut rng = SimRng::seeded(1);
        assert_eq!(mix.draw(&mut rng), ClientClass::Multipath);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = FleetSpec::smoke(50, 3);
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: FleetSpec = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.n_clients, 50);
        assert_eq!(back.seed, 3);
        assert_eq!(back.mix, spec.mix);
        assert_eq!(back.workload, spec.workload);
    }
}
