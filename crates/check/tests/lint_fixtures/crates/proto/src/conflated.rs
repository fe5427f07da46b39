//! Conflation regression: two `commit` methods share a bare name and both
//! unwrap, but the handler chain only ever reaches `Hot::commit`, through
//! a typed receiver. A name-keyed call graph would flag both bodies; the
//! typed edges keep `Cold::commit` out of the blast radius, and
//! `lint_fixtures.rs` pins exactly this.

pub struct Hot;
pub struct Cold;

impl Hot {
    pub fn commit(&self, v: &[u8]) -> u8 {
        // lint: allow-panic(fixture: the single conflation finding the typed graph keeps)
        *v.first().unwrap()
    }
}

impl Cold {
    pub fn commit(&self, v: &[u8]) -> u8 {
        *v.last().unwrap()
    }
}

/// Called from `engine::relay`; the parameter type makes the method call
/// below a typed edge to `Hot::commit` and nothing else.
pub fn drive(h: &Hot, v: &[u8]) -> u8 {
    h.commit(v)
}
