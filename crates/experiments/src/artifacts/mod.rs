//! One driver per table/figure of the paper's evaluation.
//!
//! Artifacts that share a measurement campaign are produced together in a
//! *group*, so `repro all` never runs the same campaign twice:
//!
//! | group        | artifacts            | campaign                          |
//! |--------------|----------------------|-----------------------------------|
//! | `baseline`   | fig2, fig3, tab2     | 3 carriers × SP/MP × 4 sizes      |
//! | `small`      | fig4, fig5, tab3     | AT&T small flows × controllers    |
//! | `hotspot`    | fig6, fig7, tab4     | coffee-shop WiFi                  |
//! | `simsyn`     | fig8                 | delayed vs simultaneous SYN       |
//! | `large`      | fig9, fig10, tab5    | AT&T large flows × controllers    |
//! | `latency`    | fig12, fig13, tab6   | MP-2 coupled × 3 carriers         |
//! | `backlog`    | fig11                | 512 MB infinite-backlog flows     |
//! | `streaming`  | tab7                 | Netflix/YouTube session model     |
//! | `handover`   | handover             | scripted WiFi-fade → LTE mobility |
//! | `fleet`      | fleet                | shared-bottleneck contention sweep|
//! | `inventory`  | tab1                 | (static: preset registry)         |
//!
//! `baseline`, `small`, `hotspot` and `large` are the same size ×
//! configuration study and render through `study.rs`.

pub mod backlog;
pub mod baseline;
pub mod fleet;
pub mod handover;
pub mod hotspot;
pub mod inventory;
pub mod large;
pub mod latency;
pub mod simsyn;
pub mod small;
pub mod streaming;
pub(crate) mod study;

use crate::campaign::Scale;

/// A qualitative shape check against the paper's reported findings.
#[derive(Clone, Debug)]
pub struct Check {
    /// What is being checked (quoting the paper's claim).
    pub name: String,
    /// Whether this run reproduced it.
    pub pass: bool,
    /// Supporting numbers.
    pub detail: String,
}

impl Check {
    /// Build a check result.
    pub fn new(name: impl Into<String>, pass: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            pass,
            detail: detail.into(),
        }
    }
}

/// One regenerated table or figure.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// Identifier: "fig2" … "tab7".
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Rendered text (tables / series listings) as the driver prints it.
    pub text: String,
    /// Machine-readable result payload (JSON).
    pub json: String,
    /// Shape checks vs the paper.
    pub checks: Vec<Check>,
}

impl Artifact {
    /// Whether every shape check passed.
    pub fn all_pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Render artifact text plus its check summary.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        out.push_str(&self.text);
        out.push('\n');
        for c in &self.checks {
            out.push_str(&format!(
                "[{}] {} — {}\n",
                if c.pass { "PASS" } else { "MISS" },
                c.name,
                c.detail
            ));
        }
        out
    }
}

/// A group of artifacts sharing one campaign.
pub struct Group {
    /// Group name.
    pub name: &'static str,
    /// Artifact ids this group produces.
    pub artifacts: &'static [&'static str],
    /// Run the group's campaign and render its artifacts.
    pub run: fn(Scale, u64, usize) -> Vec<Artifact>,
}

/// Registry of all groups, in the paper's presentation order.
static GROUPS: &[Group] = &[
    Group {
        name: "inventory",
        artifacts: &["tab1"],
        run: inventory::run,
    },
    Group {
        name: "baseline",
        artifacts: &["fig2", "fig3", "tab2"],
        run: baseline::run,
    },
    Group {
        name: "small",
        artifacts: &["fig4", "fig5", "tab3"],
        run: small::run,
    },
    Group {
        name: "hotspot",
        artifacts: &["fig6", "fig7", "tab4"],
        run: hotspot::run,
    },
    Group {
        name: "simsyn",
        artifacts: &["fig8"],
        run: simsyn::run,
    },
    Group {
        name: "large",
        artifacts: &["fig9", "fig10", "tab5"],
        run: large::run,
    },
    Group {
        name: "backlog",
        artifacts: &["fig11"],
        run: backlog::run,
    },
    Group {
        name: "latency",
        artifacts: &["fig12", "fig13", "tab6"],
        run: latency::run,
    },
    Group {
        name: "streaming",
        artifacts: &["tab7"],
        run: streaming::run,
    },
    Group {
        name: "handover",
        artifacts: &["handover"],
        run: handover::run,
    },
    Group {
        name: "fleet",
        artifacts: &["fleet"],
        run: fleet::run,
    },
];

/// Every group, in the paper's presentation order.
pub fn groups() -> &'static [Group] {
    GROUPS
}

/// Find the group that produces `artifact_id` (or is named it).
pub fn group_for(artifact_id: &str) -> Option<&'static Group> {
    GROUPS
        .iter()
        .find(|g| g.name == artifact_id || g.artifacts.contains(&artifact_id))
}
