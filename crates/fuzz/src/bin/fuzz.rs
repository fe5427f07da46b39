//! CLI for the deterministic fuzzing engine.
//!
//! ```text
//! fuzz --target wire|pcapng|analyze|assembler|scenario [--seed N] [--iters N]
//!      [--minimize] [--expect-violation] [--with-base]
//!      [--corpus DIR] [--save-corpus DIR] [--emit-regressions DIR] [--json]
//! ```
//!
//! Exit codes: 0 = campaign matched expectations (no violation, or a
//! violation under `--expect-violation`), 1 = expectations missed,
//! 2 = usage error. `--emit-regressions` writes the handcrafted regression
//! inputs for the bugs this fuzzer found (and which are now fixed) into a
//! corpus directory, then exits.

use std::path::PathBuf;
use std::process::exit;

use mpw_fuzz::{corpus, engine, EngineConfig, TargetKind};

struct Args {
    target: Option<TargetKind>,
    seed: u64,
    iters: u64,
    minimize: bool,
    expect_violation: bool,
    with_base: bool,
    corpus_dir: Option<PathBuf>,
    save_corpus: Option<PathBuf>,
    emit_regressions: Option<PathBuf>,
    json: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: fuzz --target wire|pcapng|analyze|assembler|scenario [--seed N] [--iters N] \
         [--minimize] [--expect-violation] [--with-base] \
         [--corpus DIR] [--save-corpus DIR] [--emit-regressions DIR] [--json]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        target: None,
        seed: 1,
        iters: 10_000,
        minimize: false,
        expect_violation: false,
        with_base: false,
        corpus_dir: None,
        save_corpus: None,
        emit_regressions: None,
        json: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--target" => {
                let v = value(&mut i);
                args.target = Some(TargetKind::from_name(&v).unwrap_or_else(|| usage()));
            }
            "--seed" => args.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--iters" => args.iters = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--minimize" => args.minimize = true,
            "--expect-violation" => args.expect_violation = true,
            "--with-base" => args.with_base = true,
            "--corpus" => args.corpus_dir = Some(PathBuf::from(value(&mut i))),
            "--save-corpus" => args.save_corpus = Some(PathBuf::from(value(&mut i))),
            "--emit-regressions" => args.emit_regressions = Some(PathBuf::from(value(&mut i))),
            "--json" => args.json = true,
            _ => usage(),
        }
        i += 1;
    }
    args
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Regression inputs for the overflow bugs the fuzzer found in the seed
/// code (now fixed): kept handcrafted so the corpus stays meaningful even
/// if the engine's generators change shape.
fn emit_regressions(dir: &std::path::Path) -> std::io::Result<()> {
    use bytes::Bytes;
    use mpw_sim::SimTime;
    use mpw_tcp::seq::SeqNum;
    use mpw_tcp::wire::{
        encode_packet, Addr, DssMapping, IpHeader, MptcpOption, TcpOption, TcpSegment,
    };

    // assembler: op 2 drives Assembler::insert at offset u64::MAX - 0 with
    // a 5-byte payload — the exact `offset + len` overflow from
    // crates/tcp/src/buf.rs (see `offset_near_u64_max_is_rejected_not_overflowed`).
    let assembler_overflow: Vec<u8> = vec![2, 0x00, 0x04, 2, 0x00, 0x05];
    corpus::save(&dir.join("assembler"), &[assembler_overflow])?;

    // analyze: a capture whose DSS mapping advertises dseq near u64::MAX —
    // the `mapping.dseq + payload.len()` overflow in
    // crates/capture/src/analyze.rs (see `hostile_dseq_near_u64_max_does_not_panic`).
    let client = Addr::new(10, 0, 0, 2);
    let server = Addr::new(10, 0, 1, 2);
    let ip = |src, dst| IpHeader {
        src,
        dst,
        protocol: mpw_tcp::wire::PROTO_TCP,
        ttl: 64,
    };
    let mut w = mpw_capture::PcapWriter::new();
    let down = w.add_interface("path0:down@client");
    let mut data_seg = TcpSegment::bare(
        mpw_experiments::SERVER_PORT,
        40_000,
        SeqNum(1),
        SeqNum(1),
        mpw_tcp::wire::tcp_flags::ACK,
    );
    data_seg.payload = Bytes::from(vec![0x55u8; 40]);
    data_seg.options = [TcpOption::Mptcp(MptcpOption::Dss {
        data_ack: None,
        mapping: Some(DssMapping {
            dseq: u64::MAX - 8,
            subflow_seq: SeqNum(1),
            len: 40,
        }),
        data_fin: true,
    })]
    .into();
    w.packet(
        down,
        SimTime::from_millis(1),
        &encode_packet(&ip(server, client), &data_seg),
        None,
    );
    let mut hostile = w.into_bytes();
    hostile.insert(0, 0); // analyze envelope tag: totality-only

    // analyze: two server data segments swapped at the vantage (seq 1101,
    // then 1001). The first fixes the subflow's base, so the second lies
    // below it: a negative offset, which unsigned subtraction turned into a
    // debug panic and ~2³² in release (crates/capture/src/analyze.rs, see
    // `a_segment_below_the_first_one_seen_is_counted_but_not_sampled`).
    let mut w = mpw_capture::PcapWriter::new();
    let down = w.add_interface("path0:down@server");
    for (at_ms, seq) in [(1, 1101), (2, 1001)] {
        let mut seg = TcpSegment::bare(
            mpw_experiments::SERVER_PORT,
            40_000,
            SeqNum(seq),
            SeqNum(1),
            mpw_tcp::wire::tcp_flags::ACK,
        );
        seg.payload = Bytes::from(vec![0x55u8; 100]);
        w.packet(
            down,
            SimTime::from_millis(at_ms),
            &encode_packet(&ip(server, client), &seg),
            None,
        );
    }
    let mut swapped = w.into_bytes();
    swapped.insert(0, 0);
    corpus::save(&dir.join("analyze"), &[hostile, swapped])?;

    // pcapng: an IDB declaring if_tsresol 81 (10^-81-second units) plus an
    // EPB with a huge timestamp — the nanosecond divisor 10^72 wrapped to 0
    // and the timestamp division panicked (crates/capture/src/pcapng.rs,
    // see `huge_tsresol_exponent_rounds_to_zero_instead_of_panicking`).
    let mut w = mpw_capture::PcapWriter::new();
    w.add_interface("weird");
    w.packet(0, SimTime::from_nanos(u64::MAX), b"x", None);
    let mut tsresol_81 = w.into_bytes();
    let idb_start = 28;
    let mut patched = false;
    for i in idb_start + 8..tsresol_81.len().saturating_sub(5) {
        if tsresol_81[i..i + 4] == [9, 0, 1, 0] {
            tsresol_81[i + 4] = 81;
            patched = true;
            break;
        }
    }
    debug_assert!(patched, "if_tsresol option not found in writer output");
    // pcapng: a 22,000-byte `opt_comment` that is not UTF-8. Lossy decoding
    // triples it to 66,000 bytes, more than an option's 16-bit length field
    // holds: the writer used to store all of it behind a wrapped length, and
    // the rewritten file read back with a different comment (write-back
    // equality; see `overlong_comment_and_name_are_clipped_at_a_char_boundary`).
    let mut w = mpw_capture::PcapWriter::new();
    w.add_interface("i");
    w.packet(0, SimTime::ZERO, b"abc", Some(&"y".repeat(22_000)));
    let mut long_comment = w.into_bytes();
    for b in long_comment.iter_mut().filter(|b| **b == b'y') {
        *b = 0xff;
    }
    corpus::save(&dir.join("pcapng"), &[tsresol_81, long_comment])?;

    // wire: a valid MP_JOIN SYN — under the planted-parser-bug feature this
    // is the minimal witness of the misparsed nonce; on the fixed parser it
    // replays clean.
    let mut join = TcpSegment::bare(40_001, mpw_experiments::SERVER_PORT, SeqNum(9), SeqNum(0), 0x02);
    join.options = [TcpOption::Mptcp(MptcpOption::Join {
        token: 0xaabb_ccdd,
        nonce: 0x1122_3344,
        backup: false,
    })]
    .into();
    let join_packet = encode_packet(&ip(client, server), &join).to_vec();
    corpus::save(&dir.join("wire"), &[join_packet])?;

    // scenario: the overflowed-exponent witness — `1e999` parses to
    // infinity, which the TOML subset cannot spell, breaking the render→reparse
    // fixpoint (found by this fuzzer; non-finite floats are now shape
    // errors, see crates/scenario/src/parse.rs) — plus the recursion-bound
    // witness (100 nested arrays must come back as a clean syntax error,
    // never a stack overflow) and the canonical WiFi-fade scenario to anchor
    // the corpus on a well-formed input.
    let inf_loss = "name = \"inf\"\n[[events]]\nat_ms = 0\n\
                    action = { SetLoss = { mean_loss = 1e999 } }\n";
    let mut deep = String::from("a = ");
    deep.extend(std::iter::repeat_n('[', 100));
    let fade_toml = "\
name = \"wifi-fade\"\n\
description = \"walk out of AP range at t=3s\"\n\
\n\
[[events]]\n\
at_ms = 3000\n\
path = 0\n\
label = \"fade\"\n\
\n\
[events.action.WifiFade]\n\
from_bps = 20000000\n\
floor_bps = 500000\n\
over_ms = 1500\n\
steps = 5\n\
\n\
[[events]]\n\
at_ms = 12500\n\
path = 0\n\
label = \"restored\"\n\
action = \"LinkUp\"\n";
    corpus::save(
        &dir.join("scenario"),
        &[inf_loss.as_bytes().to_vec(), deep.into_bytes(), fade_toml.as_bytes().to_vec()],
    )?;
    Ok(())
}

fn main() {
    let args = parse_args();
    if let Some(dir) = &args.emit_regressions {
        if let Err(e) = emit_regressions(dir) {
            eprintln!("fuzz: emitting regressions failed: {e}");
            exit(2);
        }
        println!("regression inputs written under {}", dir.display());
        return;
    }
    let Some(target) = args.target else { usage() };
    let mut cfg = EngineConfig::new(target);
    cfg.seed = args.seed;
    cfg.iters = args.iters;
    cfg.minimize = args.minimize;
    cfg.with_base = args.with_base;
    if let Some(dir) = &args.corpus_dir {
        match corpus::load(dir) {
            Ok(extra) => cfg.extra_seeds = extra,
            Err(e) => {
                eprintln!("fuzz: loading corpus from {} failed: {e}", dir.display());
                exit(2);
            }
        }
    }
    engine::quiet_panics();
    let report = engine::run(&cfg);

    if let Some(dir) = &args.save_corpus {
        // Keep checked-in corpora small: entries that fit in 2 KiB.
        let small: Vec<Vec<u8>> = report
            .corpus
            .iter()
            .filter(|e| e.len() <= 2048)
            .take(48)
            .cloned()
            .collect();
        match corpus::save(dir, &small) {
            Ok(n) => eprintln!("saved {n} new corpus entries to {}", dir.display()),
            Err(e) => {
                eprintln!("fuzz: saving corpus to {} failed: {e}", dir.display());
                exit(2);
            }
        }
    }

    if args.json {
        let finding_json = match &report.finding {
            None => "null".to_string(),
            Some(f) => format!(
                "{{\"iter\":{},\"message\":\"{}\",\"input_hex\":\"{}\",\"minimized_hex\":{}}}",
                f.iter,
                json_escape(&f.message),
                hex(&f.input),
                match &f.minimized {
                    Some(m) => format!("\"{}\"", hex(m)),
                    None => "null".to_string(),
                }
            ),
        };
        println!(
            "{{\"target\":\"{}\",\"seed\":{},\"iters\":{},\"executions\":{},\
             \"unique_fingerprints\":{},\"corpus\":{},\"finding\":{}}}",
            target.name(),
            args.seed,
            args.iters,
            report.executions,
            report.unique_fingerprints,
            report.corpus.len(),
            finding_json
        );
    } else {
        println!(
            "target {} seed {} iters {}: {} executions, {} decode-path fingerprints, corpus {}",
            target.name(),
            args.seed,
            args.iters,
            report.executions,
            report.unique_fingerprints,
            report.corpus.len()
        );
        match &report.finding {
            None => println!("no oracle violations"),
            Some(f) => {
                println!("VIOLATION at iteration {}: {}", f.iter, f.message);
                println!("  input   ({} bytes): {}", f.input.len(), hex(&f.input));
                if let Some(m) = &f.minimized {
                    println!("  minimal ({} bytes): {}", m.len(), hex(m));
                }
            }
        }
    }

    let found = report.finding.is_some();
    if found == args.expect_violation {
        exit(0);
    }
    if args.expect_violation {
        eprintln!("fuzz: expected a violation but the campaign found none");
    }
    exit(1);
}
