//! Fuzz targets: what gets executed, and the oracles that judge it.
//!
//! Five targets cover the stack's byte-facing surfaces (DESIGN.md §5.9):
//!
//! * **wire** — `mpw_tcp::wire::parse_any` must be total (no panic), and
//!   any successfully parsed packet must survive decode→encode→decode as a
//!   value-level fixpoint. This differential oracle is what catches silent
//!   misparses (it is the one that flags the CI-planted MP_JOIN defect).
//! * **pcapng** — `mpw_capture::read_pcapng` must be total, and a parsed
//!   file rewritten through `PcapWriter` must read back with identical
//!   interfaces and packets.
//! * **analyze** — the offline capture analyzer must be total over
//!   arbitrary pcapng bytes and keep its outputs sane (byte shares within
//!   [0, 1]); when the engine carries a reference measurement, mutants
//!   produced by *neutral* capture transformations (appended unknown
//!   blocks, unused interfaces) must still pass the PR 2 cross-check
//!   against the in-stack metrics within the standard tolerances.
//! * **assembler** — a decoded op program drives `mpw_tcp::Assembler` with
//!   adversarial offsets (including the top of the u64 sequence space);
//!   after every op the PR 3 `validate()` invariants must hold, and at the
//!   end inserted bytes must be conserved as accepted + duplicate.
//! * **scenario** — the mobility scenario parser (`mpw_scenario::from_toml`,
//!   the hand-rolled TOML subset) must be total over arbitrary text; any
//!   parsed scenario, rendered back to TOML, must parse to an equal value;
//!   and a valid scenario must compile into a time-sorted primitive
//!   timeline.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bytes::Bytes;
use mpw_capture::{analyze, read_pcapng, PcapWriter};
use mpw_experiments::{
    crosscheck, run_measurement_captured, sizes, FlowConfig, Measurement, Scenario, Tolerances,
    WifiKind, SERVER_PORT,
};
use mpw_sim::SimTime;
use mpw_tcp::wire::{encode_packet, encode_ping, parse_any, Packet, TcpOption};
use mpw_tcp::Assembler;

use crate::cover::{len_bucket, Fnv64};
use crate::generate;
use crate::mutate::mutate;
use crate::rng::Rng;
use crate::{dict, checksum_repair};

/// Which surface to fuzz.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetKind {
    /// `parse_any` totality + encode fixpoint.
    Wire,
    /// `read_pcapng` totality + writer round-trip.
    Pcapng,
    /// Capture analyzer totality + cross-check differential.
    Analyze,
    /// Reassembly invariants + byte conservation.
    Assembler,
    /// Scenario parser totality + render fixpoint + compile sortedness.
    Scenario,
}

impl TargetKind {
    /// All targets, in CLI order.
    pub const ALL: [TargetKind; 5] = [
        TargetKind::Wire,
        TargetKind::Pcapng,
        TargetKind::Analyze,
        TargetKind::Assembler,
        TargetKind::Scenario,
    ];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            TargetKind::Wire => "wire",
            TargetKind::Pcapng => "pcapng",
            TargetKind::Analyze => "analyze",
            TargetKind::Assembler => "assembler",
            TargetKind::Scenario => "scenario",
        }
    }

    /// Parse a CLI name.
    pub fn from_name(s: &str) -> Option<TargetKind> {
        TargetKind::ALL.into_iter().find(|t| t.name() == s)
    }
}

/// Result of one execution.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Structural decode-path fingerprint (coverage proxy).
    pub fingerprint: u64,
    /// Oracle violation, if any.
    pub violation: Option<String>,
}

/// Reference run for the analyze target's differential oracle: a small
/// captured MPTCP download plus its in-stack measurement.
pub struct AnalyzeBase {
    /// White-box measurement from the simulated stack.
    pub measurement: Measurement,
    /// The run's pcapng capture bytes.
    pub capture: Vec<u8>,
}

/// Produce the analyze reference run (one small deterministic download).
pub fn analyze_base() -> AnalyzeBase {
    let scenario = Scenario {
        wifi: WifiKind::Home,
        carrier: mpw_link::Carrier::Att,
        flow: FlowConfig::mp2(mpw_mptcp::Coupling::Coupled),
        size: sizes::S512K,
        period: mpw_link::DayPeriod::Night,
        warmup: true,
    };
    let (measurement, capture) = run_measurement_captured(&scenario, 42);
    AnalyzeBase {
        measurement,
        capture,
    }
}

/// Initial corpus for a target. For analyze, inputs carry a one-byte
/// envelope tag: 1 = produced by a neutral transformation of the base
/// capture (cross-check must pass), 0 = arbitrary bytes (totality only).
pub fn seeds(kind: TargetKind, rng: &mut Rng, base: Option<&AnalyzeBase>) -> Vec<Vec<u8>> {
    match kind {
        TargetKind::Wire => (0..24).map(|_| generate::wire_seed(rng)).collect(),
        TargetKind::Pcapng => (0..12).map(|_| generate::pcapng_seed(rng)).collect(),
        TargetKind::Analyze => {
            let mut out: Vec<Vec<u8>> = (0..8)
                .map(|_| {
                    let mut v = generate::pcapng_seed(rng);
                    v.insert(0, 0);
                    v
                })
                .collect();
            if let Some(b) = base {
                let mut v = b.capture.clone();
                v.insert(0, 1);
                out.push(v);
            }
            out
        }
        TargetKind::Assembler => (0..16).map(|_| generate::assembler_seed(rng)).collect(),
        TargetKind::Scenario => (0..16).map(|_| generate::scenario_seed(rng)).collect(),
    }
}

/// Produce one mutant for `kind`.
pub fn mutate_input(
    kind: TargetKind,
    rng: &mut Rng,
    pick: &[u8],
    corpus: &[Vec<u8>],
    base: Option<&AnalyzeBase>,
) -> Vec<u8> {
    match kind {
        TargetKind::Wire => {
            if rng.chance(1, 8) {
                return generate::wire_seed(rng);
            }
            let mut m = mutate(rng, pick, corpus, dict::WIRE_TOKENS);
            // Usually repair the checksums so the mutant reaches the option
            // parser; sometimes leave them broken to fuzz the checksum and
            // header paths themselves.
            if rng.chance(3, 4) {
                checksum_repair::fix_wire_checksums(&mut m);
            }
            m
        }
        TargetKind::Pcapng => {
            if rng.chance(1, 8) {
                return generate::pcapng_seed(rng);
            }
            mutate(rng, pick, corpus, dict::PCAPNG_TOKENS)
        }
        TargetKind::Analyze => {
            if let Some(b) = base {
                if rng.chance(1, 2) {
                    let mut v = neutral_capture_mutation(rng, &b.capture);
                    v.insert(0, 1);
                    return v;
                }
            }
            let body = pick.get(1..).unwrap_or(pick);
            let mut m = mutate(rng, body, corpus, dict::PCAPNG_TOKENS);
            m.insert(0, 0);
            m
        }
        TargetKind::Assembler => mutate(rng, pick, corpus, dict::GENERIC_TOKENS),
        TargetKind::Scenario => {
            if rng.chance(1, 8) {
                return generate::scenario_seed(rng);
            }
            mutate(rng, pick, corpus, dict::SCENARIO_TOKENS)
        }
    }
}

/// A transformation of a valid capture that must not change its analysis:
/// appended unknown block types (the reader skips them) and appended
/// unused interfaces (no packet references them).
fn neutral_capture_mutation(rng: &mut Rng, capture: &[u8]) -> Vec<u8> {
    let mut out = capture.to_vec();
    for _ in 0..1 + rng.below(2) {
        match rng.below(3) {
            0 => append_block(&mut out, 0x0000_0BAD, &[0u8; 8]),
            1 => {
                let body: Vec<u8> = (0..4 * (1 + rng.below(6))).map(|_| rng.byte()).collect();
                append_block(&mut out, 0x4242_4242, &body);
            }
            _ => {
                // Minimal IDB: LINKTYPE_USER0, reserved, snaplen 0, no
                // options — an interface no packet will ever reference.
                let mut body = Vec::new();
                body.extend_from_slice(&147u16.to_le_bytes());
                body.extend_from_slice(&0u16.to_le_bytes());
                body.extend_from_slice(&0u32.to_le_bytes());
                append_block(&mut out, 0x0000_0001, &body);
            }
        }
    }
    out
}

fn append_block(out: &mut Vec<u8>, block_type: u32, body: &[u8]) {
    let total = 12 + body.len() as u32;
    out.extend_from_slice(&block_type.to_le_bytes());
    out.extend_from_slice(&total.to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&total.to_le_bytes());
}

/// Execute `input` against `kind`, trapping panics into violations.
pub fn execute(kind: TargetKind, input: &[u8], base: Option<&AnalyzeBase>) -> Outcome {
    let result = catch_unwind(AssertUnwindSafe(|| match kind {
        TargetKind::Wire => run_wire(input),
        TargetKind::Pcapng => run_pcapng(input),
        TargetKind::Analyze => run_analyze(input, base),
        TargetKind::Assembler => run_assembler(input),
        TargetKind::Scenario => run_scenario(input),
    }));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Outcome {
                fingerprint: 0xdead_beef_dead_beef,
                violation: Some(format!("panic: {msg}")),
            }
        }
    }
}

fn option_code(opt: &TcpOption) -> u16 {
    match opt {
        TcpOption::Mss(_) => 2,
        TcpOption::WindowScale(_) => 3,
        TcpOption::SackPermitted => 4,
        TcpOption::Sack(_) => 5,
        TcpOption::Mptcp(m) => {
            use mpw_tcp::wire::MptcpOption::*;
            0x3000
                | match m {
                    Capable { .. } => 0,
                    Join { .. } => 1,
                    Dss { .. } => 2,
                    AddAddr { .. } => 3,
                    Prio { .. } => 5,
                }
        }
    }
}

fn run_wire(input: &[u8]) -> Outcome {
    let mut fp = Fnv64::new();
    fp.push(b'w');
    match parse_any(input) {
        Err(e) => {
            fp.push(b'e');
            fp.write(format!("{e:?}").as_bytes());
            Outcome {
                fingerprint: fp.finish(),
                violation: None,
            }
        }
        Ok(pkt) => {
            match &pkt {
                Packet::Tcp(ip, seg) => {
                    fp.push(b't');
                    fp.push(ip.protocol);
                    fp.push(seg.flags);
                    fp.push(len_bucket(seg.payload.len()));
                    for opt in &seg.options {
                        fp.write(&option_code(&opt).to_be_bytes());
                    }
                }
                Packet::Ping(_, ping) => {
                    fp.push(b'p');
                    fp.push(ping.reply as u8);
                }
            }
            let reencoded = match &pkt {
                Packet::Tcp(ip, seg) => encode_packet(ip, seg),
                Packet::Ping(ip, ping) => encode_ping(ip, ping),
            };
            let violation = match parse_any(&reencoded) {
                Err(e) => Some(format!("decode→encode→decode broke: re-parse failed with {e:?}")),
                Ok(pkt2) if pkt2 != pkt => Some(format!(
                    "decode→encode→decode fixpoint violated: {pkt:?} re-parsed as {pkt2:?}"
                )),
                Ok(_) => None,
            };
            Outcome {
                fingerprint: fp.finish(),
                violation,
            }
        }
    }
}

fn run_pcapng(input: &[u8]) -> Outcome {
    let mut fp = Fnv64::new();
    fp.push(b'g');
    match read_pcapng(input) {
        Err(e) => {
            fp.push(b'e');
            fp.write(format!("{e:?}").as_bytes());
            Outcome {
                fingerprint: fp.finish(),
                violation: None,
            }
        }
        Ok(file) => {
            fp.push(file.interfaces.len() as u8);
            fp.push(len_bucket(file.packets.len()));
            for p in &file.packets {
                fp.push(p.iface as u8);
                fp.push(len_bucket(p.data.len()));
                fp.push(p.comment.is_some() as u8);
            }
            // Rewrite through the writer and read back: the reader output
            // must be a fixpoint of writer∘reader (timestamps were already
            // normalized to nanoseconds by the first read).
            let mut w = PcapWriter::new();
            for iface in &file.interfaces {
                w.add_interface(&iface.name);
            }
            for p in &file.packets {
                w.packet(p.iface, p.at, p.data, p.comment.as_deref());
            }
            let violation = match read_pcapng(&w.into_bytes()) {
                Err(e) => Some(format!("rewritten capture failed to parse: {e:?}")),
                Ok(again) => {
                    let names_match = again.interfaces.len() == file.interfaces.len()
                        && again
                            .interfaces
                            .iter()
                            .zip(&file.interfaces)
                            .all(|(a, b)| a.name == b.name);
                    if !names_match {
                        Some("writer round-trip changed the interface list".to_string())
                    } else if again.packets != file.packets {
                        Some("writer round-trip changed the packet list".to_string())
                    } else {
                        None
                    }
                }
            };
            Outcome {
                fingerprint: fp.finish(),
                violation,
            }
        }
    }
}

fn run_analyze(input: &[u8], base: Option<&AnalyzeBase>) -> Outcome {
    let mut fp = Fnv64::new();
    fp.push(b'a');
    let Some((&tag, body)) = input.split_first() else {
        return Outcome {
            fingerprint: fp.finish(),
            violation: None,
        };
    };
    match read_pcapng(body) {
        Err(e) => {
            fp.push(b'e');
            fp.write(format!("{e:?}").as_bytes());
            let violation = (tag == 1 && base.is_some()).then(|| {
                format!("neutral capture mutation no longer parses: {e:?}")
            });
            Outcome {
                fingerprint: fp.finish(),
                violation,
            }
        }
        Ok(file) => {
            let wa = analyze(&file, SERVER_PORT);
            fp.push(wa.connections.len() as u8);
            fp.push(len_bucket(wa.unparsed as usize));
            fp.push(len_bucket(wa.pings as usize));
            for conn in &wa.connections {
                fp.push(conn.subflows.len() as u8);
                fp.push(len_bucket(conn.delivered_bytes as usize));
            }
            let mut violation = None;
            for (i, conn) in wa.connections.iter().enumerate() {
                let share = conn.cellular_share();
                if !(0.0..=1.0).contains(&share) {
                    violation = Some(format!(
                        "connection {i} cellular share {share} outside [0, 1]"
                    ));
                }
            }
            if violation.is_none() && tag == 1 {
                if let Some(b) = base {
                    let report = crosscheck(&b.measurement, &wa, &Tolerances::default());
                    if !report.pass() {
                        violation = Some(format!(
                            "neutral capture mutation broke the cross-check: {}",
                            report.failures.join("; ")
                        ));
                    }
                }
            }
            Outcome {
                fingerprint: fp.finish(),
                violation,
            }
        }
    }
}

/// Byte-stream reader for assembler op programs; reads past the end are
/// zero-filled so truncating mutations still yield runnable programs.
struct Program<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Program<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Program { buf, at: 0 }
    }

    fn done(&self) -> bool {
        self.at >= self.buf.len()
    }

    fn u8(&mut self) -> u8 {
        let b = self.buf.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        b
    }

    fn u16(&mut self) -> u16 {
        u16::from_be_bytes([self.u8(), self.u8()])
    }

    fn u64(&mut self) -> u64 {
        let mut bytes = [0u8; 8];
        for b in &mut bytes {
            *b = self.u8();
        }
        u64::from_be_bytes(bytes)
    }
}

fn payload_for(offset: u64, len: usize) -> Bytes {
    // Position-determined content, like a real byte stream.
    Bytes::from(
        (0..len)
            .map(|i| offset.wrapping_add(i as u64) as u8)
            .collect::<Vec<u8>>(),
    )
}

fn run_assembler(input: &[u8]) -> Outcome {
    let mut fp = Fnv64::new();
    fp.push(b's');
    let mut prog = Program::new(input);
    let mut asm = Assembler::new(0, true);
    let mut inserted = 0u64;
    let mut popped = 0u64;
    let mut step = 0u64;
    let mut violation = None;
    while !prog.done() && step < 512 && violation.is_none() {
        step += 1;
        let now = SimTime::from_nanos(step * 1_000);
        let op = prog.u8() % 5;
        fp.push(op);
        match op {
            // Absolute insert anywhere in the 64-bit stream space.
            0 => {
                let offset = prog.u64();
                let len = (prog.u16() % 1500) as usize;
                inserted += len as u64;
                let accepted = asm.insert(offset, payload_for(offset, len), now);
                fp.push((accepted > 0) as u8);
            }
            // Insert just ahead of the in-order point (creates holes).
            1 => {
                let delta = (prog.u16() % 4096) as u64;
                let len = (prog.u16() % 1500) as usize;
                let offset = asm.next_expected().saturating_add(delta);
                inserted += len as u64;
                let accepted = asm.insert(offset, payload_for(offset, len), now);
                fp.push((accepted > 0) as u8);
            }
            // Hostile insert at the top of the sequence space — the corner
            // where the unchecked `offset + len` overflow lived.
            2 => {
                let offset = u64::MAX - u64::from(prog.u8());
                let len = 1 + (prog.u8() % 64) as usize;
                inserted += len as u64;
                let accepted = asm.insert(offset, payload_for(offset, len), now);
                fp.push((accepted > 0) as u8);
            }
            // Drain ready data.
            3 => {
                while let Some((_, data)) = asm.pop_ready() {
                    popped += data.len() as u64;
                }
            }
            // Overlapping rewind insert at/below the in-order point.
            _ => {
                let back = u64::from(prog.u8() % 64);
                let len = (prog.u16() % 256) as usize;
                let offset = asm.next_expected().saturating_sub(back);
                inserted += len as u64;
                let accepted = asm.insert(offset, payload_for(offset, len), now);
                fp.push((accepted > 0) as u8);
            }
        }
        if let Err(e) = asm.validate() {
            violation = Some(format!("assembler invariant broken after op {op}: {e}"));
        }
    }
    fp.write_u64(asm.next_expected());
    fp.push(len_bucket(asm.out_of_order_bytes()));
    if violation.is_none() && asm.accepted_bytes() + asm.duplicate_bytes() != inserted {
        violation = Some(format!(
            "byte conservation violated: inserted {inserted} != accepted {} + duplicate {}",
            asm.accepted_bytes(),
            asm.duplicate_bytes()
        ));
    }
    if violation.is_none() && popped > asm.accepted_bytes() {
        violation = Some(format!(
            "popped {popped} bytes exceeds accepted {}",
            asm.accepted_bytes()
        ));
    }
    Outcome {
        fingerprint: fp.finish(),
        violation,
    }
}

/// Compile-expansion budget for the scenario target: validation caps each
/// fade at `mpw_scenario::MAX_STEPS` steps, but a file with many maximal
/// fades could still ask for a huge timeline, so the compile oracle is
/// skipped (not failed) past this total.
const SCENARIO_COMPILE_BUDGET: u64 = 100_000;

fn scenario_action_code(action: &mpw_scenario::Action) -> u8 {
    use mpw_scenario::Action;
    match action {
        Action::SetRate { .. } => 0,
        Action::SetLoss { .. } => 1,
        Action::LinkUp => 2,
        Action::WifiFade { .. } => 3,
        Action::SetBackup { .. } => 4,
    }
}

fn run_scenario(input: &[u8]) -> Outcome {
    let mut fp = Fnv64::new();
    fp.push(b'n');
    let text = String::from_utf8_lossy(input);
    // Totality: a panic anywhere in the parser lands in `execute`'s trap.
    let parsed = match mpw_scenario::from_toml(&text) {
        Err(e) => {
            fp.push(b'e');
            // Fingerprint the error *site*, not its exact text: line
            // numbers and backtick-quoted input fragments would otherwise
            // mint a fresh decode-path fingerprint for nearly every mutant
            // and drown the corpus in junk parents.
            let (tag, msg) = match &e {
                mpw_scenario::ScenarioError::Syntax { msg, .. } => (b's', msg.as_str()),
                mpw_scenario::ScenarioError::Shape(msg) => (b'h', msg.as_str()),
                _ => (b'o', ""),
            };
            fp.push(tag);
            let head = msg.split('`').next().unwrap_or("");
            fp.write(&head.as_bytes()[..head.len().min(32)]);
            return Outcome {
                fingerprint: fp.finish(),
                violation: None,
            };
        }
        Ok(s) => s,
    };
    fp.push(b'k');
    fp.push(len_bucket(parsed.name.len()));
    fp.push(len_bucket(parsed.events.len()));
    for ev in &parsed.events {
        fp.push(scenario_action_code(&ev.action));
        fp.push(ev.label.is_some() as u8);
    }
    // Render→reparse fixpoint: any parsed scenario, rendered back to TOML,
    // must parse to an equal value. A scenario that survives parsing but
    // breaks here is one the parser read into something no file spells,
    // so it could not be written back as it was read.
    let rendered = generate::render_scenario_toml(&parsed);
    let mut violation = match mpw_scenario::from_toml(&rendered) {
        Err(e) => Some(format!("render→reparse broke: the rendered TOML failed with {e:?}")),
        Ok(again) if again != parsed => Some(format!(
            "render→reparse fixpoint violated: {parsed:?} re-parsed as {again:?}"
        )),
        Ok(_) => None,
    };
    // Compile oracle: a scenario the validator accepts must compile, and
    // the timeline must be sorted by time (the driver pops it in order).
    let expansion: u64 = parsed
        .events
        .iter()
        .map(|ev| match ev.action {
            mpw_scenario::Action::WifiFade { steps, .. } => u64::from(steps),
            _ => 1,
        })
        .sum();
    if violation.is_none() && expansion <= SCENARIO_COMPILE_BUDGET {
        match mpw_scenario::compile(&parsed) {
            Err(_) => fp.push(b'i'), // semantically invalid: its own path
            Ok(timeline) => {
                fp.push(len_bucket(timeline.ops.len()));
                if parsed.validate().is_err() {
                    violation =
                        Some("compile accepted a scenario that validate() rejects".to_string());
                } else if timeline.ops.windows(2).any(|w| w[0].at > w[1].at) {
                    violation = Some("compiled timeline is not sorted by time".to_string());
                }
            }
        }
    }
    Outcome {
        fingerprint: fp.finish(),
        violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_seeds_pass_the_oracles() {
        let mut rng = Rng::new(7);
        for _ in 0..100 {
            let s = generate::wire_seed(&mut rng);
            let o = execute(TargetKind::Wire, &s, None);
            assert_eq!(o.violation, None, "seed violated wire oracles");
        }
    }

    #[test]
    fn pcapng_seeds_pass_the_oracles() {
        let mut rng = Rng::new(8);
        for _ in 0..30 {
            let s = generate::pcapng_seed(&mut rng);
            let o = execute(TargetKind::Pcapng, &s, None);
            assert_eq!(o.violation, None, "seed violated pcapng oracles");
        }
    }

    #[test]
    fn assembler_programs_hold_their_invariants() {
        let mut rng = Rng::new(9);
        for _ in 0..200 {
            let s = generate::assembler_seed(&mut rng);
            let o = execute(TargetKind::Assembler, &s, None);
            assert_eq!(o.violation, None, "program violated assembler oracles");
        }
    }

    #[test]
    fn hostile_high_offset_program_is_handled() {
        // Op 2 with max back-offset: insert at u64::MAX - 255.
        let prog = [2u8, 0xff, 0xff, 2, 0x00, 0x05];
        let o = execute(TargetKind::Assembler, &prog, None);
        assert_eq!(o.violation, None);
    }

    #[test]
    fn scenario_seeds_pass_the_oracles() {
        let mut rng = Rng::new(12);
        for _ in 0..100 {
            let s = generate::scenario_seed(&mut rng);
            let o = execute(TargetKind::Scenario, &s, None);
            assert_eq!(o.violation, None, "seed violated scenario oracles");
        }
    }

    #[test]
    fn hostile_text_never_violates_scenario() {
        let mut rng = Rng::new(13);
        for _ in 0..300 {
            let n = rng.below(80);
            let junk: Vec<u8> = (0..n).map(|_| rng.byte()).collect();
            let o = execute(TargetKind::Scenario, &junk, None);
            assert_eq!(o.violation, None);
        }
    }

    #[test]
    fn oversized_fades_skip_the_compile_oracle_without_blowing_up() {
        // 20 maximal fades ask for 400k compiled ops — over the budget, so
        // the target must return (quickly, allocation-free) with no
        // violation rather than materialize the timeline.
        let mut text = String::from("name = \"big\"\n");
        for _ in 0..20 {
            text.push_str(
                "[[events]]\nat_ms = 0\naction = { WifiFade = { from_bps = 2, \
                 floor_bps = 1, over_ms = 10, steps = 10000 } }\n",
            );
        }
        assert!(mpw_scenario::from_toml(&text).is_ok(), "the file itself is a valid scenario");
        let o = execute(TargetKind::Scenario, text.as_bytes(), None);
        assert_eq!(o.violation, None);
    }

    #[test]
    fn truncated_garbage_never_violates_wire() {
        let mut rng = Rng::new(10);
        for _ in 0..300 {
            let n = rng.below(60);
            let junk: Vec<u8> = (0..n).map(|_| rng.byte()).collect();
            let o = execute(TargetKind::Wire, &junk, None);
            assert_eq!(o.violation, None);
        }
    }

    #[test]
    fn fingerprints_separate_decode_paths() {
        let ok = generate::wire_seed(&mut Rng::new(11));
        let short = &ok[..8];
        let a = execute(TargetKind::Wire, &ok, None).fingerprint;
        let b = execute(TargetKind::Wire, short, None).fingerprint;
        assert_ne!(a, b);
    }
}
