//! Structure-aware mutation dictionaries.
//!
//! Random bit flips almost never assemble a well-formed TCP option or a
//! pcapng block header, so the havoc mutator splices these tokens into
//! inputs: MPTCP option skeletons (every RFC 6824 subtype the stack
//! implements, with correct kind/length bytes), DSS flag combinations,
//! boundary sequence numbers, and pcapng block/option headers. A dictionary
//! hit lands the mutant deep inside `parse_options` or the block reader
//! instead of bouncing off the first length check.

/// Boundary integers useful against any length/sequence arithmetic.
pub const GENERIC_TOKENS: &[&[u8]] = &[
    &[0x00],
    &[0xff],
    &[0x7f],
    &[0x80],
    &[0xff, 0xff],
    &[0x7f, 0xff],
    &[0x80, 0x00],
    &[0xff, 0xff, 0xff, 0xff],
    &[0x7f, 0xff, 0xff, 0xff],
    &[0x80, 0x00, 0x00, 0x00],
    // u64::MAX and neighbours: the values that found the reassembly and
    // analyzer overflows (see tests/fuzz-corpus/).
    &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff],
    &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe],
    &[0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00],
];

/// TCP/MPTCP option skeletons: `kind, length, subtype/flags…` prefixes that
/// the option walker in `mpw_tcp::wire::parse_options` dispatches on.
pub const WIRE_TOKENS: &[&[u8]] = &[
    // Plain TCP options.
    &[2, 4],               // MSS
    &[3, 3],               // window scale
    &[4, 2],               // SACK permitted
    &[5, 10],              // SACK, one block
    &[5, 18],              // SACK, two blocks
    &[1, 1, 1, 1],         // NOP run
    &[0],                  // EOL
    // MPTCP (kind 30) subtypes with plausible lengths.
    &[30, 12, 0x00, 0x81], // MP_CAPABLE, one key
    &[30, 20, 0x00, 0x81], // MP_CAPABLE, both keys
    &[30, 12, 0x10, 0x00], // MP_JOIN
    &[30, 12, 0x11, 0x00], // MP_JOIN, backup bit
    &[30, 4, 0x20, 0x00],  // DSS, no fields
    &[30, 4, 0x20, 0x04],  // DSS, DATA_FIN only
    &[30, 12, 0x20, 0x01], // DSS, data-ack
    &[30, 18, 0x20, 0x02], // DSS, mapping
    &[30, 26, 0x20, 0x03], // DSS, data-ack + mapping
    &[30, 26, 0x20, 0x07], // DSS, everything + DATA_FIN
    &[30, 10, 0x34, 0x01], // ADD_ADDR, ipver 4
    &[30, 4, 0x50, 0x00],  // MP_PRIO
    &[30, 4, 0x51, 0x00],  // MP_PRIO, backup
    &[30, 4, 0xf0, 0x00],  // unknown subtype
];

/// pcapng block and option headers (little-endian), plus the byte-order
/// magic in both spellings.
pub const PCAPNG_TOKENS: &[&[u8]] = &[
    &[0x0a, 0x0d, 0x0d, 0x0a],             // SHB block type
    &[0x01, 0x00, 0x00, 0x00],             // IDB block type
    &[0x06, 0x00, 0x00, 0x00],             // EPB block type
    &[0x4d, 0x3c, 0x2b, 0x1a],             // byte-order magic (LE)
    &[0x1a, 0x2b, 0x3c, 0x4d],             // byte-order magic (byte-swapped)
    &[28, 0x00, 0x00, 0x00],               // minimal SHB total length
    &[12, 0x00, 0x00, 0x00],               // minimal block total length
    &[0x02, 0x00],                         // if_name option code
    &[0x09, 0x00, 0x01, 0x00, 0x09],       // if_tsresol option, value 9
    &[0x09, 0x00, 0x01, 0x00, 0x06],       // if_tsresol option, value 6
    &[0x01, 0x00, 0x04, 0x00],             // opt_comment header, len 4
    &[0x00, 0x00, 0x00, 0x00],             // opt_endofopt
    &[0x93, 0x00],                         // LINKTYPE_USER0 (147)
];

/// Scenario-file tokens: TOML keys, action variant names, numeric
/// spellings, and TOML syntax fragments. A dictionary hit lands the mutant
/// inside the scenario grammar (a renamed action, a duplicated key, a float
/// where an integer was) instead of bouncing off the first tokenizer check.
pub const SCENARIO_TOKENS: &[&[u8]] = &[
    // Field names, quoted (a quoted key is a key too).
    b"\"name\"",
    b"\"events\"",
    b"\"at_ms\"",
    b"\"path\"",
    b"\"label\"",
    b"\"action\"",
    b"\"bits_per_sec\"",
    b"\"from_bps\"",
    b"\"over_ms\"",
    b"\"steps\"",
    b"\"mean_loss\"",
    b"\"bursty\"",
    b"\"floor_bps\"",
    b"\"backup\"",
    // Action variant names.
    b"\"SetRate\"",
    b"\"SetLoss\"",
    b"\"LinkUp\"",
    b"\"WifiFade\"",
    b"\"SetBackup\"",
    // TOML structure and value spellings.
    b"[[events]]",
    b"[events.action.WifiFade]",
    b"at_ms = ",
    b" = { ",
    b" } ",
    b"1_000_000",
    b"0.016",
    b"-1",
    b"1e308",
    b"\\u0041",
    b"true",
    b"false",
    b"# ",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_tokens_carry_plausible_lengths() {
        for tok in WIRE_TOKENS {
            if tok.first() == Some(&30) {
                // MPTCP skeletons: length byte at least the 2-byte header
                // plus the subtype byte they already include.
                assert!(tok[1] >= 4, "token {tok:?}");
            }
        }
    }
}
