//! Congestion control.
//!
//! The socket owns the loss-detection machinery (dupacks, SACK, RTO) and
//! reports *events* to whichever side holds its window ([`Cc`]). A plain
//! socket holds its own New Reno, defined here. An MPTCP subflow's window
//! sits with its connection, coupled with the other subflows' (coupled/LIA,
//! OLIA, uncoupled Reno — §2.2.2 of the paper, in the `mpw-mptcp` crate),
//! and the connection lends it to each socket call through
//! [`TcpHooks`](crate::TcpHooks).

/// Who holds a socket's congestion window.
#[derive(Clone, Debug)]
pub enum Cc {
    /// A plain socket's own New Reno window.
    Own(NewReno),
    /// An MPTCP subflow's window: its connection holds it and lends it to
    /// every call through the caller's [`TcpHooks`](crate::TcpHooks).
    Lent,
}

/// `benchmark/` hands the socket constructors a boxed New Reno; stays while
/// it does (ROADMAP 7(i)).
impl From<Box<NewReno>> for Cc {
    fn from(cc: Box<NewReno>) -> Self {
        Cc::Own(*cc)
    }
}

/// The initial congestion window in segments: Linux's default, which the
/// paper kept (§3.1).
pub const INITIAL_WINDOW_SEGMENTS: usize = 10;

/// Parameters shared by window algorithms.
#[derive(Clone, Copy, Debug)]
pub struct CcConfig {
    /// Maximum segment size in bytes.
    pub mss: usize,
    /// Initial slow-start threshold in bytes (paper sets 64 KB; `usize::MAX`
    /// reproduces Linux's "infinite" default for the ablation).
    pub initial_ssthresh: usize,
}

impl Default for CcConfig {
    fn default() -> Self {
        CcConfig {
            mss: 1400,
            initial_ssthresh: 64 * 1024,
        }
    }
}

/// Standard New Reno window management (RFC 5681): slow start doubles the
/// window each RTT; congestion avoidance adds one MSS per RTT; a loss event
/// halves the window; an RTO collapses it to one segment.
#[derive(Debug, Clone)]
pub struct NewReno {
    cfg: CcConfig,
    cwnd: usize,
    ssthresh: usize,
    /// Accumulated ACK credit for congestion-avoidance byte counting.
    ca_credit: usize,
}

impl NewReno {
    /// Create with the given configuration.
    pub fn new(cfg: CcConfig) -> Self {
        NewReno {
            cwnd: cfg.mss * INITIAL_WINDOW_SEGMENTS,
            ssthresh: cfg.initial_ssthresh,
            ca_credit: 0,
            cfg,
        }
    }

    fn mss(&self) -> usize {
        self.cfg.mss
    }

    /// An ACK advanced the sender's `snd_una` by `bytes_acked`.
    pub fn on_ack(&mut self, bytes_acked: usize) {
        if self.cwnd < self.ssthresh {
            // Slow start with full byte counting (as modern Linux does):
            // stretch ACKs — common when the receiver delays or the link
            // batches — still double the window per RTT. Growth per ACK is
            // capped at one full window.
            self.cwnd += bytes_acked.min(self.cwnd);
        } else {
            // Congestion avoidance: +1 MSS per cwnd of acked bytes.
            self.ca_credit += bytes_acked;
            if self.ca_credit >= self.cwnd {
                self.ca_credit -= self.cwnd;
                self.cwnd += self.mss();
            }
        }
    }

    /// A loss event was detected via fast retransmit (once per window).
    /// `flight_bytes` is the FlightSize at detection (RFC 5681 uses it for
    /// the new ssthresh).
    pub fn on_loss_event(&mut self, flight_bytes: usize) {
        // RFC 5681 §3.1: ssthresh = max(FlightSize/2, 2*SMSS).
        self.ssthresh = (flight_bytes.max(self.cwnd) / 2).max(2 * self.mss());
        self.cwnd = self.ssthresh;
        self.ca_credit = 0;
    }

    /// The retransmission timer fired: collapse to the loss window.
    pub fn on_rto(&mut self, flight_bytes: usize) {
        self.ssthresh = (flight_bytes.max(self.cwnd) / 2).max(2 * self.mss());
        self.cwnd = self.mss();
        self.ca_credit = 0;
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> usize {
        self.cwnd
    }

    /// Current slow-start threshold in bytes.
    pub fn ssthresh(&self) -> usize {
        self.ssthresh
    }

    /// Whether the flow is in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reno() -> NewReno {
        NewReno::new(CcConfig::default())
    }

    #[test]
    fn initial_window_is_ten_segments() {
        let cc = reno();
        assert_eq!(cc.cwnd(), 14_000);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn slow_start_doubles_per_window() {
        let mut cc = reno();
        let start = cc.cwnd();
        // ACK a full window's worth in MSS chunks: cwnd should double.
        let mut acked = 0;
        while acked < start {
            cc.on_ack(1400);
            acked += 1400;
        }
        assert_eq!(cc.cwnd(), 2 * start);
    }

    #[test]
    fn slow_start_exits_at_ssthresh() {
        let mut cc = reno();
        for _ in 0..200 {
            cc.on_ack(1400);
        }
        assert!(!cc.in_slow_start());
        // Growth is now linear, not exponential: one full window of ACKs
        // adds exactly one MSS.
        let w = cc.cwnd();
        let mut acked = 0;
        while acked < w {
            cc.on_ack(1400);
            acked += 1400;
        }
        assert_eq!(cc.cwnd(), w + 1400);
    }

    #[test]
    fn loss_halves_window() {
        let mut cc = reno();
        for _ in 0..100 {
            cc.on_ack(1400);
        }
        let before = cc.cwnd();
        cc.on_loss_event(cc.cwnd());
        assert_eq!(cc.cwnd(), before / 2);
        assert_eq!(cc.ssthresh(), before / 2);
        assert!(!cc.in_slow_start());
    }

    #[test]
    fn rto_collapses_to_one_segment() {
        let mut cc = reno();
        for _ in 0..100 {
            cc.on_ack(1400);
        }
        let before = cc.cwnd();
        cc.on_rto(cc.cwnd());
        assert_eq!(cc.cwnd(), 1400);
        assert_eq!(cc.ssthresh(), before / 2);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn window_never_collapses_below_two_mss_threshold() {
        let mut cc = reno();
        for _ in 0..10 {
            cc.on_loss_event(cc.cwnd());
        }
        assert!(cc.ssthresh() >= 2 * 1400);
        assert!(cc.cwnd() >= 2 * 1400);
    }

    #[test]
    fn infinite_ssthresh_stays_in_slow_start() {
        let mut cc = NewReno::new(CcConfig {
            initial_ssthresh: usize::MAX,
            ..CcConfig::default()
        });
        for _ in 0..10_000 {
            cc.on_ack(1400);
        }
        assert!(cc.in_slow_start());
        assert!(cc.cwnd() > 10_000_000);
    }

    #[test]
    fn ack_credit_does_not_leak_across_loss() {
        let mut cc = reno();
        for _ in 0..100 {
            cc.on_ack(1400);
        }
        // Accumulate partial CA credit, then lose: credit must reset.
        cc.on_ack(700);
        cc.on_loss_event(cc.cwnd());
        let w = cc.cwnd();
        cc.on_ack(1400);
        // A single MSS ack right after loss must not bump the window yet.
        assert_eq!(cc.cwnd(), w);
    }
}
