//! Experiment vocabulary: the configuration axes of §3.2.

use mpw_link::{Carrier, DayPeriod};
use mpw_mptcp::{Coupling, MptcpConfig, Scheduler, SynMode, TransportSpec};
use serde::Serialize;

pub use mpw_fleet::WifiKind;

/// The transport configuration of one measurement — the legend entries of
/// every download-time figure.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub enum FlowConfig {
    /// Single-path TCP over WiFi ("SP-WiFi").
    SpWifi,
    /// Single-path TCP over the cellular carrier (`SP-<carrier>`).
    SpCellular,
    /// MPTCP over WiFi + cellular.
    Mp {
        /// 2-path or 4-path.
        paths: u8,
        /// Congestion controller.
        coupling: Coupling,
        /// Delayed (standard) or simultaneous SYNs.
        syn_mode: SynMode,
    },
}

impl FlowConfig {
    /// Standard 2-path MPTCP with the given coupling.
    pub fn mp2(coupling: Coupling) -> FlowConfig {
        FlowConfig::Mp {
            paths: 2,
            coupling,
            syn_mode: SynMode::Delayed,
        }
    }

    /// 4-path MPTCP with the given coupling.
    pub fn mp4(coupling: Coupling) -> FlowConfig {
        FlowConfig::Mp {
            paths: 4,
            coupling,
            syn_mode: SynMode::Delayed,
        }
    }

    /// Figure-legend label (e.g. "MP-2 (olia)", "SP-WiFi").
    pub fn label(&self, carrier: Carrier) -> String {
        match self {
            FlowConfig::SpWifi => "SP-WiFi".to_string(),
            FlowConfig::SpCellular => format!("SP-{}", carrier.name()),
            FlowConfig::Mp {
                paths,
                coupling,
                syn_mode,
            } => {
                let syn = match syn_mode {
                    SynMode::Delayed => "",
                    SynMode::Simultaneous => ", simSYN",
                };
                format!("MP-{} ({}{})", paths, coupling.name(), syn)
            }
        }
    }

    /// Whether this is a multipath configuration.
    pub fn is_mptcp(&self) -> bool {
        matches!(self, FlowConfig::Mp { .. })
    }

    /// Build the [`TransportSpec`] (with the paper's §3.1 socket settings).
    pub fn transport(&self) -> TransportSpec {
        match self {
            FlowConfig::SpWifi => TransportSpec::Plain { if_index: 0 },
            FlowConfig::SpCellular => TransportSpec::Plain { if_index: 1 },
            FlowConfig::Mp {
                paths,
                coupling,
                syn_mode,
            } => TransportSpec::Mptcp(MptcpConfig {
                coupling: *coupling,
                scheduler: Scheduler::MinRtt,
                syn_mode: *syn_mode,
                max_subflows: *paths as usize,
                ..MptcpConfig::default()
            }),
        }
    }
}

/// One fully specified measurement scenario.
#[derive(Clone, Debug, Serialize)]
pub struct Scenario {
    /// WiFi network in use.
    pub wifi: WifiKind,
    /// Cellular carrier in use.
    pub carrier: Carrier,
    /// Transport configuration.
    pub flow: FlowConfig,
    /// Object size in bytes.
    pub size: u64,
    /// Day period (drives background load).
    pub period: DayPeriod,
    /// Warm the cellular antenna with pings first (paper default: yes).
    pub warmup: bool,
}

/// The paper's file-size ladder.
pub mod sizes {
    /// 8 KB.
    pub const S8K: u64 = 8 << 10;
    /// 64 KB.
    pub const S64K: u64 = 64 << 10;
    /// 512 KB.
    pub const S512K: u64 = 512 << 10;
    /// 2 MB.
    pub const S2M: u64 = 2 << 20;
    /// 4 MB.
    pub const S4M: u64 = 4 << 20;
    /// 8 MB.
    pub const S8M: u64 = 8 << 20;
    /// 16 MB.
    pub const S16M: u64 = 16 << 20;
    /// 32 MB.
    pub const S32M: u64 = 32 << 20;
    /// 512 MB ("infinite backlog", Figure 11).
    pub const S512M: u64 = 512 << 20;

    /// Human label ("64KB", "16MB").
    pub fn label(size: u64) -> String {
        if size >= 1 << 20 {
            format!("{}MB", size >> 20)
        } else {
            format!("{}KB", size >> 10)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(FlowConfig::SpWifi.label(Carrier::Att), "SP-WiFi");
        assert_eq!(FlowConfig::SpCellular.label(Carrier::Sprint), "SP-Sprint");
        assert_eq!(
            FlowConfig::mp2(Coupling::Coupled).label(Carrier::Att),
            "MP-2 (coupled)"
        );
        assert_eq!(
            FlowConfig::mp4(Coupling::Olia).label(Carrier::Verizon),
            "MP-4 (olia)"
        );
    }

    #[test]
    fn size_labels() {
        assert_eq!(sizes::label(sizes::S8K), "8KB");
        assert_eq!(sizes::label(sizes::S512K), "512KB");
        assert_eq!(sizes::label(sizes::S16M), "16MB");
    }
}
