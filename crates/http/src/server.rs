//! The Apache-like static object server.
//!
//! Serves `GET /object?size=N` with an `N`-byte deterministic body.
//! Keep-alive: after each response it waits for the next request, so the
//! streaming client can fetch periodic blocks over one connection. The
//! connection closes when the client closes its direction.

use std::collections::VecDeque;

use mpw_mptcp::{App, Transport};
use mpw_sim::SimTime;

use crate::message::{body_chunk, parse_request, Request, ResponseHead, MAX_BODY_CHUNK};

const MAX_HEADER: usize = 8 * 1024;

/// Per-connection HTTP server application.
pub struct HttpServer {
    /// Unparsed request bytes.
    pending: Vec<u8>,
    /// Requests accepted but not fully answered yet.
    queue: VecDeque<Request>,
    /// Body bytes of the response in progress: (next offset, end).
    in_body: Option<(u64, u64)>,
    /// Total requests served to completion.
    pub requests_served: u64,
    /// Total body bytes written.
    pub body_bytes_sent: u64,
    closing: bool,
}

impl HttpServer {
    /// New server app (one per accepted connection).
    pub fn new() -> Self {
        HttpServer {
            pending: Vec::new(),
            queue: VecDeque::new(),
            in_body: None,
            requests_served: 0,
            body_bytes_sent: 0,
            closing: false,
        }
    }

    /// Parse as many complete request headers as the buffer holds.
    fn drain_requests(&mut self) -> Result<(), ()> {
        loop {
            let Some(pos) = self
                .pending
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
            else {
                if self.pending.len() > MAX_HEADER {
                    return Err(());
                }
                return Ok(());
            };
            let rest = self.pending.split_off(pos + 4);
            let head = std::mem::replace(&mut self.pending, rest);
            let text = String::from_utf8(head).map_err(|_| ())?;
            let req = parse_request(&text).map_err(|_| ())?;
            self.queue.push_back(req);
        }
    }
}

impl Default for HttpServer {
    fn default() -> Self {
        Self::new()
    }
}

impl App for HttpServer {
    fn poll(&mut self, conn: &mut Transport, _now: SimTime) {
        if self.closing {
            return;
        }
        // Ingest request bytes.
        while let Some(data) = conn.recv() {
            self.pending.extend_from_slice(&data);
        }
        if self.drain_requests().is_err() {
            self.closing = true;
            conn.close();
            return;
        }

        // Write response bytes.
        loop {
            if let Some((next, end)) = self.in_body {
                if next < end {
                    let space = conn.send_space();
                    if space == 0 {
                        break;
                    }
                    let take = space.min((end - next) as usize).min(MAX_BODY_CHUNK);
                    let pushed = conn.send(body_chunk(next, take));
                    self.body_bytes_sent += pushed as u64;
                    if pushed == 0 {
                        break;
                    }
                    self.in_body = Some((next + pushed as u64, end));
                    continue;
                }
                self.in_body = None;
                self.requests_served += 1;
            }
            let Some(req) = self.queue.pop_front() else {
                break;
            };
            let status = if req.path.starts_with("/object") { 200 } else { 404 };
            let size = if status == 200 { req.size } else { 0 };
            let head = ResponseHead {
                status,
                content_length: size,
                request_id: req.request_id,
            };
            let head_bytes = head.encode();
            if conn.send_space() < head_bytes.len() {
                // Full buffer: retry this request on the next poll.
                self.queue.push_front(req);
                break;
            }
            conn.send(bytes::Bytes::from(head_bytes));
            self.in_body = Some((0, size));
        }

        // Close when the client is done and everything is answered.
        if conn.peer_closed() && self.in_body.is_none() && self.queue.is_empty() {
            self.closing = true;
            conn.close();
        }
    }
}
