//! The fuzzing campaign loop.
//!
//! A campaign is a pure function of its [`EngineConfig`]: the structured
//! seeds, every mutation choice, and the corpus-evolution order all derive
//! from the configured seed through SplitMix64, and each iteration's
//! generator is keyed by `(seed, iteration index)` — so results are
//! byte-identical across reruns. The loop stops at the first oracle
//! violation; an input that mints a previously unseen decode-path
//! fingerprint joins the live corpus and becomes a mutation parent.

use std::collections::BTreeSet;

use crate::minimize::minimize;
use crate::rng::Rng;
use crate::targets::{self, AnalyzeBase, TargetKind};

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Surface under test.
    pub target: TargetKind,
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Mutation iterations (seed executions come on top).
    pub iters: u64,
    /// Shrink the first violating input before reporting.
    pub minimize: bool,
    /// For the analyze target: run the reference measurement and enable
    /// the cross-check differential oracle.
    pub with_base: bool,
    /// Extra inputs (e.g. a loaded corpus) joined to the structured seeds.
    pub extra_seeds: Vec<Vec<u8>>,
}

impl EngineConfig {
    /// Conventional defaults for `target`.
    pub fn new(target: TargetKind) -> EngineConfig {
        EngineConfig {
            target,
            seed: 1,
            iters: 10_000,
            minimize: false,
            with_base: false,
            extra_seeds: Vec::new(),
        }
    }
}

/// The first oracle violation of a campaign.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Iteration that produced it (0 = a seed input).
    pub iter: u64,
    /// The violating input, verbatim.
    pub input: Vec<u8>,
    /// Greedily shrunk version, when minimization ran.
    pub minimized: Option<Vec<u8>>,
    /// The oracle's message.
    pub message: String,
}

/// Campaign result.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Total target executions (seeds + mutants + minimizer probes are
    /// excluded from the minimizer's own budget accounting).
    pub executions: u64,
    /// Distinct decode-path fingerprints observed.
    pub unique_fingerprints: usize,
    /// Final live corpus (seeds first, then coverage-novel mutants).
    pub corpus: Vec<Vec<u8>>,
    /// First violation, if any.
    pub finding: Option<Finding>,
}

/// Keep the corpus bounded: mutants beyond this count stop being retained
/// as parents (execution continues regardless).
const MAX_CORPUS: usize = 4096;

/// Install a quiet panic hook once: target panics are caught and reported
/// as violations, so the default hook's backtrace spew is pure noise.
pub fn quiet_panics() {
    std::panic::set_hook(Box::new(|_| {}));
}

/// Run one campaign.
pub fn run(cfg: &EngineConfig) -> FuzzReport {
    let base = (cfg.target == TargetKind::Analyze && cfg.with_base).then(targets::analyze_base);
    run_with_base(cfg, base.as_ref())
}

/// As [`run`], with a caller-provided analyze base (lets tests reuse one
/// expensive reference measurement across campaigns).
pub fn run_with_base(cfg: &EngineConfig, base: Option<&AnalyzeBase>) -> FuzzReport {
    let mut fingerprints: BTreeSet<u64> = BTreeSet::new();
    let mut corpus: Vec<Vec<u8>> = Vec::new();
    let mut executions = 0u64;

    // Structured seeds plus any caller-supplied corpus.
    let mut seed_rng = Rng::new(cfg.seed);
    let mut seeds = targets::seeds(cfg.target, &mut seed_rng, base);
    seeds.extend(cfg.extra_seeds.iter().cloned());
    for s in seeds {
        let o = targets::execute(cfg.target, &s, base);
        executions += 1;
        fingerprints.insert(o.fingerprint);
        if let Some(message) = o.violation {
            return finish(cfg, base, executions, fingerprints, corpus, 0, s, message);
        }
        if corpus.len() < MAX_CORPUS {
            corpus.push(s);
        }
    }

    // Mutation loop. Iteration behaviour is keyed by the iteration index.
    for iter in 1..=cfg.iters {
        let mut rng = Rng::for_iteration(cfg.seed, iter);
        let pick = if corpus.is_empty() {
            Vec::new()
        } else {
            corpus[rng.below(corpus.len())].clone()
        };
        let mutant = targets::mutate_input(cfg.target, &mut rng, &pick, &corpus, base);
        let o = targets::execute(cfg.target, &mutant, base);
        executions += 1;
        if let Some(message) = o.violation {
            return finish(cfg, base, executions, fingerprints, corpus, iter, mutant, message);
        }
        if fingerprints.insert(o.fingerprint) && corpus.len() < MAX_CORPUS {
            corpus.push(mutant);
        }
    }

    FuzzReport {
        executions,
        unique_fingerprints: fingerprints.len(),
        corpus,
        finding: None,
    }
}

#[allow(clippy::too_many_arguments)]
fn finish(
    cfg: &EngineConfig,
    base: Option<&AnalyzeBase>,
    executions: u64,
    fingerprints: BTreeSet<u64>,
    corpus: Vec<Vec<u8>>,
    iter: u64,
    input: Vec<u8>,
    message: String,
) -> FuzzReport {
    let minimized = cfg.minimize.then(|| minimize(cfg.target, &input, base));
    FuzzReport {
        executions,
        unique_fingerprints: fingerprints.len(),
        corpus,
        finding: Some(Finding {
            iter,
            input,
            minimized,
            message,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaigns_find_nothing_on_the_fixed_parsers() {
        for target in [TargetKind::Wire, TargetKind::Pcapng, TargetKind::Assembler] {
            let mut cfg = EngineConfig::new(target);
            cfg.seed = 5;
            cfg.iters = 400;
            let report = run(&cfg);
            assert!(
                report.finding.is_none(),
                "{}: unexpected finding: {:?}",
                target.name(),
                report.finding
            );
            assert!(report.unique_fingerprints > 4, "{}: coverage proxy flat", target.name());
            assert!(report.executions >= 400);
        }
    }
}
