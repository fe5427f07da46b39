//! What is left of the former token-lint engine: three names that
//! `benchmark/` still calls, each a no-op. The determinism and alloc walls
//! it held are clippy's now (`disallowed_types` and `disallowed_methods`,
//! DESIGN.md §5.12).

use std::path::Path;

/// Ignored; stays while `benchmark/` names it (ROADMAP 7(i)).
pub struct Workspace;

impl Workspace {
    /// Ignored; stays while `benchmark/` names it (ROADMAP 7(i)).
    pub fn load(_root: &Path) -> std::io::Result<Workspace> {
        Ok(Workspace)
    }
}

/// Ignored; stays while `benchmark/` names it (ROADMAP 7(i)).
pub struct Config;

impl Config {
    /// Ignored; stays while `benchmark/` names it (ROADMAP 7(i)).
    pub fn default_workspace() -> Config {
        Config
    }
}

/// Ignored; stays while `benchmark/` names it (ROADMAP 7(i)).
pub fn run(_ws: &Workspace, _cfg: &Config) -> Result<(), String> {
    Ok(())
}
