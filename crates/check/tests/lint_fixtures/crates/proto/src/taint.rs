//! Planted taint-through-local violation: the sequence number leaves its
//! contract-named field, travels through an innocently named local, and
//! only then hits raw arithmetic. A scan keyed on the *names* adjacent to
//! the operator misses this; the dataflow carries the taint through the
//! rename.

pub struct Hdr {
    pub seq: u32,
}

pub fn advance_cursor(h: &Hdr) -> u32 {
    let cursor = h.seq;
    // lint: allow-seq-arith(fixture: taint flows through the renamed local)
    let next = cursor + 1;
    next
}
