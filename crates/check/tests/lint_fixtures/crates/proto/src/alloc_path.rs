//! Planted allocation violations, including a generic split across lines.

pub struct Opts {
    pub values: Vec<
        TcpOption,
    >,
}

#[cfg(test)]
mod tests {
    // Test code may copy freely: exempt, and only up to the closing brace.
    fn fixture(d: &[u8]) -> Vec<u8> {
        d.to_vec()
    }
}

pub fn copy(d: &[u8]) -> Vec<u8> {
    d.to_vec()
}
