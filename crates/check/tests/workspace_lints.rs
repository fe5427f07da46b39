//! Three walls are the compiler's and clippy's, not the lint engine's, and
//! each is switched on by attributes and manifests. The tools enforce the
//! lints; these tests enforce that nothing has quietly stepped out from
//! under them.
//!
//! * `unsafe`: the root manifest denies `unsafe_code` for the workspace and
//!   every member inherits it — no member without `[lints] workspace =
//!   true`, no root that no longer denies, no second target that waives.
//! * panics (DESIGN.md §5.12): six crates deny the panicking constructs
//!   crate-wide, four parser modules deny indexing and the assert family on
//!   top, `clippy.toml` names that family, and the waivers are counted per
//!   file — a new `#[expect(clippy::…)]` fails here until [`WAIVERS`] says
//!   so, and an `#[allow]` of a wall lint is not a way round.

use std::path::{Path, PathBuf};

/// The one target allowed to waive the lint (a counting `GlobalAlloc`).
const EXEMPT: &str = "crates/experiments/benches/alloc_gate.rs";

/// Whether `manifest` holds `key = value` inside its `[header]` table.
fn table_has(manifest: &str, header: &str, key: &str, value: &str) -> bool {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .any(|l| l.split_once('=').is_some_and(|(k, v)| k.trim() == key && v.trim() == value))
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
/// waivers of the panic wall, each with its reason at the site (the table
/// with the reasons is DESIGN.md §5.12). 15 today; `coupling.rs`'s is on a
/// test.
const WAIVERS: [(&str, usize); 9] = [
    ("crates/capture/src/pcapng.rs", 3),
    ("crates/core/src/conn.rs", 1),
    ("crates/core/src/coupling.rs", 1),
    ("crates/core/src/host.rs", 1),
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
    let clippy_toml = code("clippy.toml");
    for name in ["assert", "assert_eq", "assert_ne"] {
        for path in [format!("core::{name}"), format!("core::debug_{name}")] {
            assert!(
                clippy_toml.contains(&format!("{{path=\"{path}\"")),
                "clippy.toml's disallowed-macros no longer lists {path}"
            );
        }
    }

    // Spelled in two pieces so this file does not match itself.
    let waiver = format!("expect({}", "clippy::");
    let mut all = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        files(&root.join(dir), &mut all);
    }
    for f in all.iter().filter(|p| p.extension().is_some_and(|e| e == "rs")) {
        let rel = f.strip_prefix(&root).unwrap_or(f).to_string_lossy().replace('\\', "/");
        let src = code(&rel);
        let have = src.matches(&waiver).count();
        let want = WAIVERS.iter().find(|(file, _)| *file == rel).map_or(0, |&(_, n)| n);
        assert_eq!(have, want, "{rel}: its count of clippy waivers moved — update WAIVERS and DESIGN.md §5.12");
        if !WALLED_CRATES.iter().any(|k| rel.starts_with(&format!("crates/{k}/src/"))) {
            continue;
        }
        // Inside the wall the only `#[allow]` of a wall lint is the parser
        // modules' `mod tests` using the assert family.
        for lint in CRATE_WALL.iter().chain(&MODULE_WALL) {
            let have = src.matches(&format!("allow({lint}")).count();
            let on_mod_tests = src.matches(&format!("#[allow({lint})]modtests{{")).count();
            let want = usize::from(*lint == "clippy::disallowed_macros" && PARSER_MODULES.contains(&rel.as_str()));
            assert_eq!((have, on_mod_tests), (want, want), "{rel}: #[allow({lint})] steps round the panic wall");
        }
    }
}
