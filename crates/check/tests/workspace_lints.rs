//! `unsafe` is the compiler's wall, not the lint engine's: the root manifest
//! denies `unsafe_code` for the workspace and every member inherits it. The
//! compiler enforces the lint; this test enforces that nothing has quietly
//! stepped out from under it — a member without `[lints] workspace = true`,
//! a root that no longer denies, or a second target that waives the lint.

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
