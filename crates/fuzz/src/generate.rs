//! Structured seed generators.
//!
//! Mutation-based fuzzing is only as good as its starting corpus, so seeds
//! are generated *through the encoders under test*: random-but-valid TCP
//! segments with every option the stack implements (via
//! `mpw_tcp::wire::encode_packet`), valid pcapng files (via
//! `mpw_capture::PcapWriter`), and random op programs for the reassembly
//! target. Every mutant is then at most a few havoc steps away from a
//! well-formed input, which is what drives the deep option/block paths.

use bytes::Bytes;
use mpw_sim::SimTime;
use mpw_tcp::seq::SeqNum;
use mpw_tcp::wire::{
    encode_packet, encode_ping, Addr, DssMapping, IpHeader, MptcpOption, PingPacket, SackBlocks,
    TcpOption, TcpSegment, PROTO_PING, PROTO_TCP,
};

use crate::rng::Rng;

fn random_mptcp_option(rng: &mut Rng) -> (TcpOption, usize) {
    match rng.below(7) {
        0 => (
            TcpOption::Mptcp(MptcpOption::Capable {
                key_local: rng.next_u64(),
                key_remote: None,
            }),
            12,
        ),
        1 => (
            TcpOption::Mptcp(MptcpOption::Capable {
                key_local: rng.next_u64(),
                key_remote: Some(rng.next_u64()),
            }),
            20,
        ),
        2 => (
            TcpOption::Mptcp(MptcpOption::Join {
                token: rng.next_u64() as u32,
                nonce: rng.next_u64() as u32,
                backup: rng.chance(1, 2),
            }),
            12,
        ),
        3 => {
            let data_ack = rng.chance(1, 2).then(|| rng.next_u64());
            let mapping = rng.chance(2, 3).then(|| DssMapping {
                // Bias toward the top of the sequence space now and then:
                // that corner is where the overflow bugs lived.
                dseq: if rng.chance(1, 8) {
                    u64::MAX - rng.below(4096) as u64
                } else {
                    rng.next_u64() >> rng.below(40)
                },
                subflow_seq: SeqNum(rng.next_u64() as u32),
                len: rng.below(3000) as u16,
            });
            let len = 4 + if data_ack.is_some() { 8 } else { 0 } + if mapping.is_some() { 14 } else { 0 };
            (
                TcpOption::Mptcp(MptcpOption::Dss {
                    data_ack,
                    mapping,
                    data_fin: rng.chance(1, 4),
                }),
                len,
            )
        }
        4 => (
            TcpOption::Mptcp(MptcpOption::AddAddr {
                addr_id: rng.byte(),
                addr: Addr(rng.next_u64() as u32),
                port: rng.next_u64() as u16,
            }),
            10,
        ),
        5 => (
            TcpOption::Mptcp(MptcpOption::Prio {
                backup: rng.chance(1, 2),
            }),
            4,
        ),
        _ => (TcpOption::Mss(536 + rng.below(9000) as u16), 4),
    }
}

fn random_plain_option(rng: &mut Rng) -> (TcpOption, usize) {
    match rng.below(4) {
        0 => (TcpOption::Mss(536 + rng.below(9000) as u16), 4),
        1 => (TcpOption::WindowScale(rng.below(15) as u8), 3),
        2 => (TcpOption::SackPermitted, 2),
        _ => {
            let n = 1 + rng.below(3);
            let blocks: SackBlocks = (0..n)
                .map(|_| {
                    let lo = rng.next_u64() as u32;
                    (SeqNum(lo), SeqNum(lo.wrapping_add(rng.below(60000) as u32)))
                })
                .collect();
            let len = 2 + 8 * n;
            (TcpOption::Sack(blocks), len)
        }
    }
}

/// A valid wire packet: usually a TCP segment with random flags, options
/// and payload, occasionally a ping probe.
pub fn wire_seed(rng: &mut Rng) -> Vec<u8> {
    let ip = IpHeader {
        src: Addr(rng.next_u64() as u32),
        dst: Addr(rng.next_u64() as u32),
        protocol: PROTO_TCP,
        ttl: 1 + rng.below(255) as u8,
    };
    if rng.chance(1, 10) {
        let ping = PingPacket {
            token: rng.next_u64(),
            reply: rng.chance(1, 2),
        };
        let ip = IpHeader {
            protocol: PROTO_PING,
            ..ip
        };
        return encode_ping(&ip, &ping).to_vec();
    }
    let mut seg = TcpSegment::bare(
        rng.next_u64() as u16,
        rng.next_u64() as u16,
        SeqNum(rng.next_u64() as u32),
        SeqNum(rng.next_u64() as u32),
        (rng.next_u64() as u8) & 0x1f,
    );
    seg.window = rng.next_u64() as u16;
    // Pack options while they fit the 40-byte TCP option budget.
    let mut budget = 40usize;
    for _ in 0..rng.below(4) {
        let (opt, size) = if rng.chance(2, 3) {
            random_mptcp_option(rng)
        } else {
            random_plain_option(rng)
        };
        if size <= budget {
            budget -= size;
            let fits = seg.options.push(opt);
            debug_assert!(fits, "{opt:?} is longer than its declared {size} bytes");
        }
    }
    let payload_len = match rng.below(4) {
        0 => 0,
        1 => 1 + rng.below(16),
        2 => rng.below(200),
        _ => rng.below(1460),
    };
    let payload: Vec<u8> = (0..payload_len).map(|i| (i as u8).wrapping_mul(31)).collect();
    seg.payload = Bytes::from(payload);
    encode_packet(&ip, &seg).to_vec()
}

/// A valid pcapng file: a few interfaces named like real capture vantages,
/// carrying wire packets, random frames, and optional comments.
pub fn pcapng_seed(rng: &mut Rng) -> Vec<u8> {
    let mut w = mpw_capture::PcapWriter::new();
    let n_ifaces = 1 + rng.below(3) as u32;
    for i in 0..n_ifaces {
        let dir = if rng.chance(1, 2) { "down" } else { "up" };
        let side = if rng.chance(1, 2) { "client" } else { "server" };
        w.add_interface(&format!("path{i}:{dir}@{side}"));
    }
    let mut at = 0u64;
    for _ in 0..rng.below(8) {
        at += rng.below(5_000_000) as u64;
        let iface = rng.below(n_ifaces as usize) as u32;
        let data = match rng.below(3) {
            0 => wire_seed(rng),
            1 => (0..rng.below(80)).map(|_| rng.byte()).collect(),
            _ => Vec::new(),
        };
        let comment = rng
            .chance(1, 4)
            .then(|| format!("dropped: reason{}", rng.below(5)));
        w.packet(iface, SimTime::from_nanos(at), &data, comment.as_deref());
    }
    w.into_bytes()
}

/// A random op program for the reassembly target (decoded by
/// `targets::run_assembler`).
pub fn assembler_seed(rng: &mut Rng) -> Vec<u8> {
    (0..8 + rng.below(48)).map(|_| rng.byte()).collect()
}

fn random_scenario_action(rng: &mut Rng) -> mpw_scenario::Action {
    use mpw_scenario::Action;
    let bps = |rng: &mut Rng| 1 + rng.below(50_000_000) as u64;
    // Loss means stay below the 0.25 bursty/burst bound so most seeds also
    // validate (the oracles still accept invalid-but-parsed scenarios).
    let loss = |rng: &mut Rng| rng.below(249) as f64 / 1000.0;
    match rng.below(12) {
        0 => Action::SetRate { bits_per_sec: bps(rng) },
        1 => Action::RampRate {
            from_bps: bps(rng),
            to_bps: bps(rng),
            over_ms: rng.below(20_000) as u64,
            steps: 1 + rng.below(8) as u32,
        },
        2 => Action::SetDelay { delay_us: rng.below(400_000) as u64 },
        3 => Action::RampDelay {
            from_us: rng.below(400_000) as u64,
            to_us: rng.below(400_000) as u64,
            over_ms: rng.below(20_000) as u64,
            steps: 1 + rng.below(8) as u32,
        },
        4 => Action::SetLoss { mean_loss: loss(rng), bursty: rng.chance(1, 2) },
        5 => Action::LossBurst {
            mean_loss: loss(rng),
            for_ms: 1 + rng.below(10_000) as u64,
            settle_loss: loss(rng),
        },
        6 => Action::LinkDown,
        7 => Action::LinkUp,
        8 => {
            let (a, b) = (bps(rng), bps(rng));
            Action::WifiFade {
                from_bps: a.max(b),
                floor_bps: a.min(b),
                over_ms: rng.below(5_000) as u64,
                steps: 1 + rng.below(8) as u32,
                stay_up: rng.chance(1, 4),
            }
        }
        9 => Action::RrcIdle,
        10 => Action::BgSurge {
            bytes_per_sec: 1 + rng.below(3_000_000) as u64,
            for_ms: 1 + rng.below(10_000) as u64,
        },
        _ => Action::SetBackup { backup: rng.chance(1, 2) },
    }
}

fn random_scenario_event(rng: &mut Rng) -> mpw_scenario::TimedEvent {
    const LABELS: [&str; 4] = ["fade", "restored", "surge", "idle"];
    mpw_scenario::TimedEvent {
        at_ms: rng.below(600_000) as u64,
        path: rng.below(4),
        dir: match rng.below(3) {
            0 => mpw_scenario::Direction::Uplink,
            1 => mpw_scenario::Direction::Downlink,
            _ => mpw_scenario::Direction::Both,
        },
        label: rng
            .chance(1, 3)
            .then(|| LABELS[rng.below(LABELS.len())].to_string()),
        action: random_scenario_action(rng),
    }
}

/// Render a scenario in the hand-rolled TOML subset — unit actions as
/// strings, struct actions as inline tables — so TOML seeds exercise the
/// grammar the JSON path never touches. Floats use `{:?}` (shortest
/// round-trip form) so `0.0` keeps its dot and stays a float.
fn render_scenario_toml(s: &mpw_scenario::Scenario) -> String {
    use mpw_scenario::{Action, Direction};
    let action_toml = |a: &Action| -> String {
        match a {
            Action::SetRate { bits_per_sec } => {
                format!("{{ SetRate = {{ bits_per_sec = {bits_per_sec} }} }}")
            }
            Action::RampRate { from_bps, to_bps, over_ms, steps } => format!(
                "{{ RampRate = {{ from_bps = {from_bps}, to_bps = {to_bps}, \
                 over_ms = {over_ms}, steps = {steps} }} }}"
            ),
            Action::SetDelay { delay_us } => {
                format!("{{ SetDelay = {{ delay_us = {delay_us} }} }}")
            }
            Action::RampDelay { from_us, to_us, over_ms, steps } => format!(
                "{{ RampDelay = {{ from_us = {from_us}, to_us = {to_us}, \
                 over_ms = {over_ms}, steps = {steps} }} }}"
            ),
            Action::SetLoss { mean_loss, bursty } => format!(
                "{{ SetLoss = {{ mean_loss = {mean_loss:?}, bursty = {bursty} }} }}"
            ),
            Action::LossBurst { mean_loss, for_ms, settle_loss } => format!(
                "{{ LossBurst = {{ mean_loss = {mean_loss:?}, for_ms = {for_ms}, \
                 settle_loss = {settle_loss:?} }} }}"
            ),
            Action::LinkDown => "\"LinkDown\"".into(),
            Action::LinkUp => "\"LinkUp\"".into(),
            Action::WifiFade { from_bps, floor_bps, over_ms, steps, stay_up } => format!(
                "{{ WifiFade = {{ from_bps = {from_bps}, floor_bps = {floor_bps}, \
                 over_ms = {over_ms}, steps = {steps}, stay_up = {stay_up} }} }}"
            ),
            Action::RrcIdle => "\"RrcIdle\"".into(),
            Action::BgSurge { bytes_per_sec, for_ms } => format!(
                "{{ BgSurge = {{ bytes_per_sec = {bytes_per_sec}, for_ms = {for_ms} }} }}"
            ),
            Action::SetBackup { backup } => {
                format!("{{ SetBackup = {{ backup = {backup} }} }}")
            }
        }
    };
    let mut out = format!("name = \"{}\"\n", s.name);
    if !s.description.is_empty() {
        out.push_str(&format!("description = \"{}\"\n", s.description));
    }
    for ev in &s.events {
        out.push_str("\n[[events]]\n");
        out.push_str(&format!("at_ms = {}\n", ev.at_ms));
        out.push_str(&format!("path = {}\n", ev.path));
        if ev.dir != Direction::Both {
            out.push_str(&format!("dir = \"{:?}\"\n", ev.dir));
        }
        if let Some(label) = &ev.label {
            out.push_str(&format!("label = \"{label}\"\n"));
        }
        out.push_str(&format!("action = {}\n", action_toml(&ev.action)));
    }
    out
}

/// A valid scenario file: a random event list rendered as canonical JSON
/// (through `mpw_scenario::to_json`, the encoder under test) or, one time
/// in three, as the TOML subset.
pub fn scenario_seed(rng: &mut Rng) -> Vec<u8> {
    let scenario = mpw_scenario::Scenario {
        name: format!("seed-{}", rng.below(1_000_000)),
        description: if rng.chance(1, 3) {
            "generated mobility timeline".into()
        } else {
            String::new()
        },
        events: (0..rng.below(6)).map(|_| random_scenario_event(rng)).collect(),
    };
    if rng.chance(1, 3) {
        render_scenario_toml(&scenario).into_bytes()
    } else {
        mpw_scenario::to_json(&scenario).into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_seeds_parse_cleanly() {
        let mut rng = Rng::new(2);
        for _ in 0..200 {
            let bytes = wire_seed(&mut rng);
            mpw_tcp::wire::parse_any(&bytes).expect("generated packet must parse");
        }
    }

    #[test]
    fn pcapng_seeds_parse_cleanly() {
        let mut rng = Rng::new(3);
        for _ in 0..50 {
            let bytes = pcapng_seed(&mut rng);
            mpw_capture::read_pcapng(&bytes).expect("generated capture must parse");
        }
    }

    #[test]
    fn scenario_seeds_parse_cleanly_in_both_formats() {
        let mut rng = Rng::new(4);
        let (mut toml, mut json) = (0, 0);
        for _ in 0..100 {
            let bytes = scenario_seed(&mut rng);
            let text = String::from_utf8(bytes).expect("seeds are text");
            if text.trim_start().starts_with('{') {
                json += 1;
            } else {
                toml += 1;
            }
            mpw_scenario::from_str(&text).expect("generated scenario must parse");
        }
        assert!(toml > 0 && json > 0, "both formats must appear ({toml} toml, {json} json)");
    }

    #[test]
    fn toml_rendering_matches_the_json_model() {
        // The TOML renderer and `to_json` must describe the same scenario.
        let mut rng = Rng::new(5);
        for _ in 0..100 {
            let scenario = mpw_scenario::Scenario {
                name: "cross".into(),
                description: "check".into(),
                events: (0..1 + rng.below(5)).map(|_| random_scenario_event(&mut rng)).collect(),
            };
            let from_toml = mpw_scenario::from_str(&render_scenario_toml(&scenario))
                .expect("rendered TOML must parse");
            assert_eq!(from_toml, scenario);
        }
    }
}
