//! # mpw-experiments — the measurement harness of the mpwild study
//!
//! Reproduces the paper's methodology (§3.2): the testbed topology of
//! Figure 1 ([`testbed`]), the configuration axes ([`config`]), single
//! measurements with full metric harvesting ([`measure`]), independently
//! seeded multi-period campaigns ([`campaign`]), and one driver per
//! table/figure of the evaluation ([`artifacts`]).
//!
//! The `repro` binary regenerates any artifact:
//!
//! ```text
//! repro fig9            # regenerate Figure 9 at default scale
//! repro all --scale full --out results/
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod artifacts;
pub mod campaign;
pub mod config;
pub mod crosscheck;
pub mod handover;
pub mod measure;
pub mod testbed;

pub use artifacts::{group_for, groups, Artifact, Check};
pub use campaign::{group_by, run_campaign, Scale};
pub use config::{sizes, FlowConfig, Scenario, WifiKind};
pub use crosscheck::{crosscheck, CrosscheckReport, Tolerances};
pub use handover::{
    run_handover, run_handover_campaign, HandoverMeasurement, HandoverSpec,
};
pub use measure::{
    run_lossfree_download_windowed, run_measurement, run_measurement_captured,
    run_measurement_traced, LossfreeProbe, Measurement, MeasurementRun, SubflowMeasurement,
};
pub use testbed::{Testbed, CLIENT_ADDRS, SERVER_ADDRS, SERVER_PORT};
