//! The video-streaming session model (paper §6, Table 7).
//!
//! Modern streaming "begins with a prefetching/buffering phase consisting of
//! a large data download, followed by a sequence of periodic smaller data
//! downloads" \[27\]. One [`StreamingClient`] plays such a session over a
//! single keep-alive HTTP connection: a prefetch object, then a block every
//! `period`, recording per-block latency and whether each block met its
//! playout deadline (late blocks = rebuffering risk — the §5.2 connection
//! between out-of-order delay and real-time quality).

use mpw_mptcp::{App, Transport};
use mpw_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::message::{parse_response, HeaderReader, Request};

/// Streaming workload parameters.
///
/// ```
/// use mpw_http::StreamingProfile;
/// let p = StreamingProfile::netflix_ipad(6); // Table 7 row
/// assert_eq!(p.prefetch, 15_000_000);
/// assert_eq!(p.block, 1_800_000);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamingProfile {
    /// Prefetch size in bytes.
    pub prefetch: u64,
    /// Periodic block size in bytes.
    pub block: u64,
    /// Period between block requests.
    pub period: SimDuration,
    /// Number of periodic blocks to fetch.
    pub blocks: u32,
}

impl StreamingProfile {
    /// Netflix on Android (Table 7): 40.6 MB prefetch, 5.2 MB blocks, 72 s.
    pub fn netflix_android(blocks: u32) -> Self {
        StreamingProfile {
            prefetch: 40_600_000,
            block: 5_200_000,
            period: SimDuration::from_secs(72),
            blocks,
        }
    }

    /// Netflix on iPad (Table 7): 15.0 MB prefetch, 1.8 MB blocks, 10.2 s.
    pub fn netflix_ipad(blocks: u32) -> Self {
        StreamingProfile {
            prefetch: 15_000_000,
            block: 1_800_000,
            period: SimDuration::from_millis(10_200),
            blocks,
        }
    }

    /// YouTube (§6): 10–15 MB prefetch, 64–512 KB blocks, short period.
    pub fn youtube(blocks: u32) -> Self {
        StreamingProfile {
            prefetch: 12_500_000,
            block: 384 * 1024,
            period: SimDuration::from_secs(2),
            blocks,
        }
    }

    /// A scaled-down profile for fast tests (same shape, smaller bytes).
    pub fn miniature(blocks: u32) -> Self {
        StreamingProfile {
            prefetch: 400_000,
            block: 50_000,
            period: SimDuration::from_millis(500),
            blocks,
        }
    }
}

/// Outcome of one fetched object (prefetch or block).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BlockResult {
    /// 0 = prefetch, 1.. = periodic block index.
    pub index: u32,
    /// When the request was issued.
    pub requested_at: SimTime,
    /// When the last body byte arrived.
    pub completed_at: SimTime,
    /// Bytes received.
    pub bytes: u64,
    /// Whether the block finished within one period (prefetch: always true).
    pub on_time: bool,
}

impl BlockResult {
    /// Fetch latency.
    pub fn latency(&self) -> SimDuration {
        self.completed_at.saturating_since(self.requested_at)
    }
}

enum Phase {
    Connecting,
    /// Reading a response (header or body) for the given block index.
    Fetching {
        index: u32,
        requested_at: SimTime,
        reader: Option<HeaderReader>,
        got: u64,
        total: u64,
    },
    /// Waiting for the next block's deadline.
    Idle {
        next_index: u32,
        next_at: SimTime,
    },
    Done,
}

/// A streaming playback session over one HTTP connection.
pub struct StreamingClient {
    profile: StreamingProfile,
    phase: Phase,
    /// Per-object results, prefetch first.
    pub results: Vec<BlockResult>,
    /// Count of blocks that missed their playout deadline.
    pub late_blocks: u32,
    /// Session completion time.
    pub finished_at: Option<SimTime>,
}

impl StreamingClient {
    /// New session with the given profile.
    pub fn new(profile: StreamingProfile) -> Self {
        StreamingClient {
            profile,
            phase: Phase::Connecting,
            results: Vec::new(),
            late_blocks: 0,
            finished_at: None,
        }
    }

    /// Whether the whole session completed.
    pub fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    fn request(&mut self, conn: &mut Transport, index: u32, now: SimTime) {
        let size = if index == 0 {
            self.profile.prefetch
        } else {
            self.profile.block
        };
        let req = Request {
            path: "/object".into(),
            size,
            request_id: Some(index as u64),
        };
        conn.send(bytes::Bytes::from(req.encode()));
        self.phase = Phase::Fetching {
            index,
            requested_at: now,
            reader: Some(HeaderReader::new()),
            got: 0,
            total: 0,
        };
    }

    fn object_complete(&mut self, index: u32, requested_at: SimTime, bytes: u64, now: SimTime) {
        let on_time = index == 0 || now.saturating_since(requested_at) <= self.profile.period;
        if !on_time {
            self.late_blocks += 1;
        }
        self.results.push(BlockResult {
            index,
            requested_at,
            completed_at: now,
            bytes,
            on_time,
        });
        if index >= self.profile.blocks {
            self.phase = Phase::Done;
            self.finished_at = Some(now);
        } else {
            self.phase = Phase::Idle {
                next_index: index + 1,
                next_at: now.max(requested_at + self.profile.period),
            };
        }
    }
}

impl App for StreamingClient {
    fn poll(&mut self, conn: &mut Transport, now: SimTime) {
        if let Phase::Connecting = self.phase {
            if conn.is_established() {
                self.request(conn, 0, now);
            } else {
                return;
            }
        }
        if let Phase::Idle { next_index, next_at } = self.phase {
            if now >= next_at {
                self.request(conn, next_index, now);
            }
        }
        // Ingest response bytes.
        while let Phase::Fetching {
            index,
            requested_at,
            reader,
            got,
            total,
        } = &mut self.phase
        {
            let Some(data) = conn.recv() else { break };
            let body_part: Option<bytes::Bytes>;
            if let Some(r) = reader {
                match r.push(&data) {
                    Ok(Some((text, leftover))) => {
                        let Ok(head) = parse_response(&text) else {
                            self.phase = Phase::Done;
                            conn.close();
                            return;
                        };
                        *total = head.content_length;
                        *reader = None;
                        body_part = Some(bytes::Bytes::from(leftover));
                        // fallthrough to body accounting below
                    }
                    Ok(None) => continue,
                    Err(_) => {
                        self.phase = Phase::Done;
                        conn.close();
                        return;
                    }
                }
            } else {
                body_part = Some(data);
            }
            if let Some(part) = body_part {
                *got += part.len() as u64;
                if *got >= *total {
                    let (i, at, bytes) = (*index, *requested_at, *got);
                    self.object_complete(i, at, bytes, now);
                }
            }
        }
        if self.is_done() && self.finished_at == Some(now) {
            conn.close();
        }
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        match self.phase {
            Phase::Idle { next_at, .. } => Some(next_at),
            _ => None,
        }
    }
}
