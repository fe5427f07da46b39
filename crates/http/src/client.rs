//! The wget-like download client — the paper's measurement workload.
//!
//! Opens, sends one `GET /object?size=N`, reads the body, records when the
//! last body byte arrived, closes. The paper's download time (first SYN →
//! last body byte, §3.3) is that instant less the transport's
//! [`Transport::opened_at`]; the harvest (`mpw_fleet::ClientFlow`) reads
//! both.

use mpw_mptcp::{App, Transport};
use mpw_sim::SimTime;

use crate::message::{body_byte, parse_response, HeaderReader};

/// What the download produced.
#[derive(Clone, Copy, Debug, Default)]
pub struct DownloadResult {
    /// Body bytes received.
    pub bytes: u64,
    /// When the last body byte arrived.
    pub finished_at: Option<SimTime>,
    /// Body verification failures (0 for a correct transfer).
    pub corrupt_bytes: u64,
}

enum State {
    /// Waiting for establishment to send the request.
    Connecting,
    /// Reading the response header.
    Header(HeaderReader),
    /// Reading the body: (received, total).
    Body(u64, u64),
    /// Finished.
    Done,
}

/// One-object download client.
pub struct Wget {
    size: u64,
    verify: bool,
    state: State,
    /// Download outcome (valid once `is_done`).
    pub result: DownloadResult,
}

impl Wget {
    /// Fetch an object of `size` bytes; `verify` checks every body byte
    /// against the deterministic pattern.
    pub fn new(size: u64, verify: bool) -> Self {
        Wget {
            size,
            verify,
            state: State::Connecting,
            result: DownloadResult::default(),
        }
    }

    /// Whether the download completed.
    pub fn is_done(&self) -> bool {
        matches!(self.state, State::Done)
    }

    fn consume_body(&mut self, data: &[u8], now: SimTime) {
        let State::Body(got, total) = &mut self.state else {
            return;
        };
        if self.verify {
            for (i, &b) in data.iter().enumerate() {
                if b != body_byte(*got + i as u64) {
                    self.result.corrupt_bytes += 1;
                }
            }
        }
        *got += data.len() as u64;
        self.result.bytes += data.len() as u64;
        if *got >= *total {
            self.result.finished_at = Some(now);
            self.state = State::Done;
        }
    }
}

impl App for Wget {
    fn poll(&mut self, conn: &mut Transport, now: SimTime) {
        if let State::Connecting = self.state {
            if conn.is_established() {
                let req = crate::message::Request {
                    path: "/object".into(),
                    size: self.size,
                    request_id: None,
                };
                conn.send(bytes::Bytes::from(req.encode()));
                self.state = State::Header(HeaderReader::new());
            } else {
                return;
            }
        }
        while let Some(data) = conn.recv() {
            match &mut self.state {
                State::Header(reader) => match reader.push(&data) {
                    Ok(Some((text, leftover))) => {
                        match parse_response(&text) {
                            Ok(head) if head.status == 200 => {
                                self.state = State::Body(0, head.content_length);
                                if head.content_length == 0 {
                                    self.result.finished_at = Some(now);
                                    self.state = State::Done;
                                } else {
                                    self.consume_body(&leftover, now);
                                }
                            }
                            _ => {
                                self.state = State::Done; // error: give up
                                conn.close();
                                return;
                            }
                        }
                    }
                    Ok(None) => {}
                    Err(_) => {
                        self.state = State::Done;
                        conn.close();
                        return;
                    }
                },
                State::Body(..) => self.consume_body(&data, now),
                State::Connecting | State::Done => {}
            }
        }
        if self.is_done() {
            conn.close();
        }
    }
}
