//! Replay the checked-in regression corpus through the target oracles.
//!
//! Every input under `tests/fuzz-corpus/<target>/` — coverage-novel
//! campaign survivors plus the handcrafted witnesses of fixed bugs (the
//! reassembly u64 overflow, the analyzer dseq overflow, the pcapng
//! tsresol divide-by-zero and wrapped option length) — must execute without any oracle violation on
//! every `cargo test`. A failure here means a fixed bug regressed.

use std::path::PathBuf;

use mpw_fuzz::{corpus, execute, TargetKind};

fn corpus_dir(target: TargetKind) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fuzz-corpus")
        .join(target.name())
}

fn replay(target: TargetKind) {
    let dir = corpus_dir(target);
    let entries = corpus::load(&dir).expect("corpus directory must be readable");
    assert!(
        !entries.is_empty(),
        "no corpus entries under {} — regenerate with \
         `cargo run -p mpw-fuzz --bin fuzz -- --emit-regressions tests/fuzz-corpus` \
         and a --save-corpus campaign",
        dir.display()
    );
    for entry in &entries {
        let outcome = execute(target, entry, None);
        assert_eq!(
            outcome.violation,
            None,
            "{}: corpus entry {} regressed",
            target.name(),
            corpus::entry_name(entry)
        );
    }
}

#[test]
fn wire_corpus_replays_clean() {
    replay(TargetKind::Wire);
}

#[test]
fn pcapng_corpus_replays_clean() {
    replay(TargetKind::Pcapng);
}

#[test]
fn analyze_corpus_replays_clean() {
    replay(TargetKind::Analyze);
}

#[test]
fn assembler_corpus_replays_clean() {
    replay(TargetKind::Assembler);
}

#[test]
fn scenario_corpus_replays_clean() {
    replay(TargetKind::Scenario);
}
