//! Planted determinism violations plus a line-based scanner's blind spots:
//! a HashMap in prose (this very line!) and one in a string must not fire.

pub fn lookup() -> &'static str {
    let label = "HashMap in a string";
    label
}

pub fn stamp() {
    let t = Instant::
        now();
    let _ = t;
}

pub fn table() {
    let m: HashMap<u32, u32> = HashMap::new();
    let _ = m;
}

#[cfg(test)]
mod tests {
    // Test schedules feed determinism proofs: the wall covers them too.
    fn seen() -> HashSet<u32> {
        Default::default()
    }
}
