//! Backup-mode subflows (the Paasch et al. handover modes the paper
//! discusses in §7): a subflow joined with the RFC 6824 'B' bit carries no
//! traffic while regular paths are healthy, and takes over when they die.

use mpwild::experiments::{Testbed, WifiKind};
use mpwild::http::Wget;
use mpwild::link::{Carrier, DayPeriod, LinkAgent, LossModel};
use mpwild::mptcp::{Host, MptcpConfig, Transport, TransportSpec};
use mpwild::sim::SimTime;

/// The testbed of one MPTCP flow running `cfg` at both ends.
fn build(seed: u64, cfg: MptcpConfig) -> Testbed {
    let wifi = WifiKind::Home.spec(DayPeriod::Night);
    Testbed::build(seed, [wifi, Carrier::Att.preset()], TransportSpec::Mptcp(cfg), None)
}

/// The testbed of a flow whose cellular subflow joins as backup.
fn build_backup(seed: u64) -> Testbed {
    build(seed, MptcpConfig { backup_ifs: vec![1], ..MptcpConfig::default() })
}

#[test]
fn backup_subflow_stays_idle_while_wifi_is_healthy() {
    let mut tb = build_backup(71);
    tb.download(4 << 20, true);
    tb.world.run_until(SimTime::from_secs(120));
    let host = tb.world.agent_mut::<Host>(tb.client).expect("client host");
    let w = host.app::<Wget>(0).expect("wget");
    assert!(w.is_done(), "backup-mode download completed");
    match host.transport(0) {
        Some(Transport::Mp(c)) => {
            assert_eq!(c.subflows.len(), 2, "backup subflow joined");
            assert!(c.subflows[1].backup, "cellular marked backup");
            let cellular = c.subflow_delivered(1);
            // §7: "backup mode (where only a subset of subflows are used)".
            assert!(
                cellular * 50 < c.delivered_offset(),
                "backup path should stay idle; carried {cellular} of {}",
                c.delivered_offset()
            );
        }
        _ => panic!("expected MPTCP"),
    }
}

#[test]
fn backup_subflow_takes_over_when_wifi_dies() {
    let mut tb = build_backup(73);
    tb.download(4 << 20, true);
    tb.world.run_until(SimTime::from_secs(2));
    let now = tb.world.now();
    for link in [tb.paths[0].uplink, tb.paths[0].downlink] {
        tb.world
            .agent_mut::<LinkAgent>(link)
            .expect("wifi link")
            .set_loss(now, LossModel::Bernoulli { p: 1.0 });
    }
    tb.world.run_until(SimTime::from_secs(240));
    let host = tb.world.agent_mut::<Host>(tb.client).expect("client host");
    let w = host.app::<Wget>(0).expect("wget");
    assert!(w.is_done(), "failover to the backup path must complete the download");
    assert_eq!(w.result.bytes, 4 << 20);
    match host.transport(0) {
        Some(Transport::Mp(c)) => {
            let cellular = c.subflow_delivered(1);
            assert!(
                cellular > (2 << 20),
                "the backup path should have carried the bulk after failover ({cellular})"
            );
        }
        _ => panic!("expected MPTCP"),
    }
}

#[test]
fn full_mptcp_mode_uses_both_paths_by_contrast() {
    // Same testbed, no backup flag: the cellular path carries real traffic.
    let mut tb = build(71, MptcpConfig::default());
    tb.download(4 << 20, true);
    tb.world.run_until(SimTime::from_secs(120));
    let host = tb.world.agent_mut::<Host>(tb.client).expect("client host");
    match host.transport(0) {
        Some(Transport::Mp(c)) => {
            let cellular = c.subflow_delivered(1);
            assert!(
                cellular * 4 > c.delivered_offset(),
                "full-MPTCP mode should use cellular substantially ({cellular})"
            );
        }
        _ => panic!("expected MPTCP"),
    }
}
