//! Every static wall is the compiler's or clippy's, and each is switched on
//! by attributes, manifests and `clippy.toml`. The tools enforce the lints;
//! these tests enforce that nothing has quietly stepped out from under them.
//!
//! * `unsafe`: the root manifest denies `unsafe_code` for the workspace and
//!   every member inherits it — no member without `[lints] workspace =
//!   true`, no root that no longer denies, no second target that waives.
//! * panics (DESIGN.md §5.12): six crates deny the panicking constructs
//!   crate-wide, four parser modules deny indexing and the assert family on
//!   top, `clippy.toml` names that family, and the waivers are counted per
//!   file — a new `#[expect(clippy::…)]` fails here until [`WAIVERS`] says
//!   so, and an `#[allow]` of a wall lint is not a way round.
//! * determinism and alloc: the workspace denies `disallowed_types` (hash
//!   maps and sets, wall clocks) everywhere and allows `disallowed_methods`
//!   (`to_vec`) except in the three data-path modules that deny it. Neither
//!   is ever allowed back, bar `wire.rs`'s `mod tests` and its `to_vec`s.
//!
//! Two more cuts are pinned here because nothing fails when they grow back:
//! only the program's inputs (scenario files, `WORK_budgets.json`) derive
//! or implement `Deserialize`, and nothing in `mpw-scenario` `Serialize`s,
//! since a scenario is read, never written; and `mpw-check` declares no
//! default feature, so no `--workspace` build compiles the oracles into
//! `repro`.

use std::path::{Path, PathBuf};

/// The one target allowed to waive the lint (a counting `GlobalAlloc`).
const EXEMPT: &str = "crates/experiments/benches/alloc_gate.rs";

/// The value of `key` inside `manifest`'s `[header]` table, if it is set.
fn table_value<'m>(manifest: &'m str, header: &str, key: &str) -> Option<&'m str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .find_map(|l| l.split_once('=').filter(|(k, _)| k.trim() == key).map(|(_, v)| v.trim()))
}

/// Whether `manifest` holds `key = value` inside its `[header]` table.
fn table_has(manifest: &str, header: &str, key: &str, value: &str) -> bool {
    table_value(manifest, header, key) == Some(value)
}

/// Every file under `dir`, build output aside.
fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for p in entries.map(|e| e.expect("dir entry").path()) {
        if !p.is_dir() {
            out.push(p);
        } else if p.file_name().is_some_and(|n| n != "target") {
            files(&p, out);
        }
    }
}

#[test]
fn the_workspace_denies_unsafe_code_and_every_member_inherits_it() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |p: &Path| std::fs::read_to_string(p).expect("readable source");
    let mut all = vec![root.join("Cargo.toml")];
    for dir in ["crates", "vendor", "src", "tests", "examples"] {
        files(&root.join(dir), &mut all);
    }

    let root_manifest = read(&all[0]);
    assert!(
        ["\"deny\"", "\"forbid\""]
            .iter()
            .any(|lvl| table_has(&root_manifest, "[workspace.lints.rust]", "unsafe_code", lvl)),
        "root Cargo.toml no longer denies unsafe_code under [workspace.lints.rust]"
    );

    let manifests: Vec<_> = all.iter().filter(|p| p.ends_with("Cargo.toml")).collect();
    assert!(manifests.len() >= 18, "found only {} manifests — wrong root?", manifests.len());
    for m in manifests {
        let inherits = table_has(&read(m), "[lints]", "workspace", "true");
        assert!(inherits, "{} lacks `[lints] workspace = true`", m.display());
    }

    // Spelled in two pieces so this file does not match itself.
    let waivers = ["allow", "warn", "expect"].map(|level| format!("{level}({}", "unsafe_code"));
    let mut exempt_seen = false;
    for f in all.iter().filter(|p| p.extension().is_some_and(|e| e == "rs")) {
        let rel = f.strip_prefix(&root).unwrap_or(f).to_string_lossy().replace('\\', "/");
        let src = read(f);
        let waived = waivers.iter().any(|w| src.contains(w.as_str()));
        if rel == EXEMPT {
            exempt_seen = waived;
        } else {
            assert!(!waived, "{rel} waives the unsafe_code lint; only {EXEMPT} may");
        }
    }
    assert!(exempt_seen, "{EXEMPT} no longer carries its #![allow] — update EXEMPT");
}

/// The crates under the crate-wide panic wall, and what each `lib.rs` denies.
const WALLED_CRATES: [&str; 6] = ["tcp", "core", "sim", "capture", "scenario", "link"];
const CRATE_WALL: [&str; 6] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];
/// The strict decode surface, and what each of its modules denies on top.
const PARSER_MODULES: [&str; 4] = [
    "crates/tcp/src/wire.rs",
    "crates/capture/src/pcapng.rs",
    "crates/capture/src/analyze.rs",
    "crates/scenario/src/parse.rs",
];
const MODULE_WALL: [&str; 2] = ["clippy::indexing_slicing", "clippy::disallowed_macros"];
/// Every file with `#[expect(clippy::…)]` attributes, and how many: the
/// waivers of the panic and determinism walls, each with its reason at the
/// site (the table with the reasons is DESIGN.md §5.12). 16 today;
/// `coupling.rs`'s is on a test, `repro.rs`'s is the determinism wall's.
const WAIVERS: [(&str, usize); 10] = [
    ("crates/capture/src/pcapng.rs", 3),
    ("crates/core/src/conn.rs", 1),
    ("crates/core/src/coupling.rs", 1),
    ("crates/core/src/host.rs", 1),
    ("crates/experiments/src/bin/repro.rs", 1),
    ("crates/sim/src/engine.rs", 2),
    ("crates/sim/src/rng.rs", 1),
    ("crates/tcp/src/socket.rs", 1),
    ("crates/tcp/src/testkit.rs", 2),
    ("crates/tcp/src/wire.rs", 3),
];

/// A source file's code as one whitespace-free string, `//` comment lines
/// dropped, so an attribute reads the same however it is wrapped.
fn squeezed(src: &str) -> String {
    src.lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .flat_map(|l| l.chars().filter(|c| !c.is_whitespace()))
        .collect()
}

/// Whether `code` (squeezed) holds an inner `#![deny(..)]` naming every lint.
fn denies(code: &str, lints: &[&str]) -> bool {
    code.split("#![deny(")
        .skip(1)
        .filter_map(|rest| rest.split_once(")]"))
        .any(|(list, _)| lints.iter().all(|l| list.split(',').any(|x| x == *l)))
}

/// How many `allow(..)` lists in `code` (squeezed) name `lint`, and how many
/// of those sit right on `mod tests`.
fn allowed(code: &str, lint: &str) -> (usize, usize) {
    let naming: Vec<bool> = code
        .split("allow(")
        .skip(1)
        .filter_map(|rest| rest.split_once(")]"))
        .filter(|(list, _)| list.split(',').any(|x| x == lint))
        .map(|(_, after)| after.starts_with("modtests{"))
        .collect();
    (naming.len(), naming.iter().filter(|&&on_mod_tests| on_mod_tests).count())
}

/// The entries of `clippy.toml`'s `key = [..]` list, squeezed.
fn clippy_list(root: &Path, key: &str) -> String {
    let toml = std::fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml");
    let code: Vec<&str> = toml.lines().filter(|l| !l.trim_start().starts_with('#')).collect();
    let code = squeezed(&code.join("\n"));
    let list = code.split_once(&format!("{key}=[")).and_then(|(_, rest)| rest.split_once(']'));
    list.map_or(String::new(), |(list, _)| list.to_string())
}

/// Every `.rs` file under `dirs`, relative to `root`, with its squeezed code.
fn sources(root: &Path, dirs: &[&str]) -> Vec<(String, String)> {
    let mut all = Vec::new();
    for dir in dirs {
        files(&root.join(dir), &mut all);
    }
    all.iter()
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .map(|f| {
            let rel = f.strip_prefix(root).unwrap_or(f).to_string_lossy().replace('\\', "/");
            (rel, squeezed(&std::fs::read_to_string(f).expect("readable source")))
        })
        .collect()
}

#[test]
fn the_panic_wall_is_switched_on_and_its_waivers_are_the_counted_ones() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let code = |rel: &str| squeezed(&std::fs::read_to_string(root.join(rel)).expect(rel));

    for krate in WALLED_CRATES {
        let lib = format!("crates/{krate}/src/lib.rs");
        assert!(denies(&code(&lib), &CRATE_WALL), "{lib} no longer denies all of {CRATE_WALL:?}");
    }
    for module in PARSER_MODULES {
        assert!(denies(&code(module), &MODULE_WALL), "{module} no longer denies {MODULE_WALL:?}");
    }
    let macros = clippy_list(&root, "disallowed-macros");
    for name in ["assert", "assert_eq", "assert_ne"] {
        for path in [format!("core::{name}"), format!("core::debug_{name}")] {
            assert!(
                macros.contains(&format!("{{path=\"{path}\"")),
                "clippy.toml's disallowed-macros no longer lists {path}"
            );
        }
    }

    // Spelled in two pieces so this file does not match itself.
    let waiver = format!("expect({}", "clippy::");
    for (rel, src) in sources(&root, &["crates", "src", "tests", "examples"]) {
        let have = src.matches(&waiver).count();
        let want = WAIVERS.iter().find(|(file, _)| *file == rel).map_or(0, |&(_, n)| n);
        assert_eq!(have, want, "{rel}: its count of clippy waivers moved — update WAIVERS and DESIGN.md §5.12");
        if !WALLED_CRATES.iter().any(|k| rel.starts_with(&format!("crates/{k}/src/"))) {
            continue;
        }
        // Inside the wall the only `#[allow]` of a wall lint is the parser
        // modules' `mod tests` using the assert family.
        for lint in CRATE_WALL.iter().chain(&MODULE_WALL) {
            let want = usize::from(*lint == "clippy::disallowed_macros" && PARSER_MODULES.contains(&rel.as_str()));
            assert_eq!(allowed(&src, lint), (want, want), "{rel}: #[allow({lint})] steps round the panic wall");
        }
    }
}

/// The determinism wall: what `clippy.toml`'s `disallowed-types` lists.
const DISALLOWED_TYPES: [&str; 4] =
    ["std::collections::HashMap", "std::collections::HashSet", "std::time::Instant", "std::time::SystemTime"];
/// The alloc wall: the data-path modules that deny `disallowed_methods`,
/// which lists `slice::to_vec`.
const ALLOC_MODULES: [&str; 3] =
    ["crates/tcp/src/wire.rs", "crates/capture/src/pcapng.rs", "crates/core/src/conn.rs"];

#[test]
fn the_determinism_and_alloc_walls_are_switched_on_and_never_allowed_back() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let code = |rel: &str| squeezed(&std::fs::read_to_string(root.join(rel)).expect(rel));

    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    for (lint, level) in [("disallowed_types", "\"deny\""), ("disallowed_methods", "\"allow\"")] {
        assert!(
            table_has(&root_manifest, "[workspace.lints.clippy]", lint, level),
            "root Cargo.toml no longer sets {lint} = {level} under [workspace.lints.clippy]"
        );
    }
    let (types, methods) = (clippy_list(&root, "disallowed-types"), clippy_list(&root, "disallowed-methods"));
    for path in DISALLOWED_TYPES {
        assert!(types.contains(&format!("{{path=\"{path}\"")), "clippy.toml's disallowed-types no longer lists {path}");
    }
    assert!(methods.contains("{path=\"slice::to_vec\""), "clippy.toml's disallowed-methods no longer lists slice::to_vec");
    for module in ALLOC_MODULES {
        assert!(denies(&code(module), &["clippy::disallowed_methods"]), "{module} no longer denies clippy::disallowed_methods");
    }

    // A site that must read the wall clock carries a counted `#[expect]`
    // (WAIVERS); only `wire.rs`'s tests may copy slices.
    for (rel, src) in sources(&root, &["crates", "vendor", "src", "tests", "examples"]) {
        assert_eq!(allowed(&src, "clippy::disallowed_types"), (0, 0), "{rel}: an #[allow] steps round the determinism wall");
        let want = usize::from(rel == ALLOC_MODULES[0]);
        assert_eq!(allowed(&src, "clippy::disallowed_methods"), (want, want), "{rel}: an #[allow] steps round the alloc wall");
    }
}

/// The only types the program reads back, by file: the scenario model
/// (`Scenario`, `TimedEvent`, `Action`) and the work gate's recorded counts
/// (`Work`, `Budgets`). Every other output is written and compared as
/// bytes, never parsed into a type.
const DESERIALIZED: [(&str, usize); 2] =
    [("crates/scenario/src/model.rs", 3), ("crates/experiments/benches/work_gate.rs", 2)];

/// How many `#[derive(..)]` lists and `impl .. for` headers in `code`
/// (squeezed) name the serde trait `name` (`Serialize` does not match
/// `Deserialize`).
fn serde_impls(code: &str, name: &str) -> usize {
    let names = |s: &str| s.match_indices(name).any(|(i, _)| !s[..i].ends_with("De"));
    let derives = code
        .split("#[derive(")
        .skip(1)
        .filter_map(|rest| rest.split_once(")]"))
        .filter(|(list, _)| list.split(',').any(names))
        .count();
    let impls = code
        .split("impl")
        .skip(1)
        .filter_map(|rest| rest.split_once('{'))
        .filter(|(head, _)| names(head) && head.contains("for"))
        .count();
    derives + impls
}

#[test]
fn only_the_inputs_are_deserialized_and_the_oracles_are_opt_in() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");

    // A default feature here would reach `repro` through any `--workspace`
    // build (cargo unifies features) and run the campaigns with the oracles.
    let manifest = std::fs::read_to_string(root.join("crates/check/Cargo.toml")).expect("check manifest");
    let default = table_value(&manifest, "[features]", "default");
    assert_eq!(default, None, "crates/check/Cargo.toml declares default features; check-invariants must stay opt-in");

    for (rel, src) in sources(&root, &["crates", "src", "tests", "examples", "benchmark"]) {
        let have = serde_impls(&src, "Deserialize");
        let want = DESERIALIZED.iter().find(|(file, _)| *file == rel).map_or(0, |&(_, n)| n);
        assert_eq!(have, want, "{rel}: its count of Deserialize impls moved; outputs are written, never read back — update DESERIALIZED only for a new input");
        // A scenario is an input: nothing renders one back to a file.
        if rel.starts_with("crates/scenario/src/") {
            assert_eq!(serde_impls(&src, "Serialize"), 0, "{rel}: a scenario type implements Serialize; nothing writes a scenario");
        }
    }
}
