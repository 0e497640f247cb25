//! The `plasma-net` frame layer: versioned, length-prefixed messages.
//!
//! Every message between the coordinator and a `plasma-server` worker is
//! one frame:
//!
//! ```text
//! frame := len:u32be  body
//! body  := version:u8  kind:u8  payload
//! ```
//!
//! `len` counts the body (version byte included), big-endian like every
//! other integer on this wire (see `plasma_backend::wire`). The version
//! byte is [`WIRE_VERSION`]; a reader that sees any other value fails with
//! `DecodeError::BadVersion` before touching the payload, which is what
//! lets the protocol evolve without silent misparses. `len` is capped at
//! [`MAX_FRAME_LEN`] so a corrupt or hostile prefix cannot make a reader
//! allocate gigabytes.
//!
//! Decoding is strict: unknown kinds, non-canonical booleans, and payloads
//! that do not consume exactly `len` bytes are all clean `DecodeError`s.
//! Strictness buys the round-trip property the `net_frame` fuzz target
//! checks — any byte string that decodes re-encodes to itself.

use plasma_backend::wire::{put_u32, put_u64, DecodeError, WireCursor};
use plasma_backend::ServerReport;
use plasma_backend::{ControlDecision, ControlQuery, ControlReply, Delivery, Execution};

/// Protocol version stamped into (and required of) every frame, and
/// carried explicitly in the [`Frame::Hello`] handshake so a version
/// mismatch fails the handshake cleanly instead of surfacing as a
/// mid-stream decode error. Version 2 added the control-plane frames
/// (REPORT/QUERY/QREPLY/DECISION), the control counters in
/// [`WindowCounters`], and the Hello version field itself. Version 3
/// dropped the scale bounds from QUERY and the scale votes from QREPLY.
pub const WIRE_VERSION: u8 = 3;

/// Upper bound on a frame body. Control-plane frames scale with cluster
/// size (a query reply carries one 64-byte candidate row per in-scope
/// server), so the cap is sized for hundreds of servers; it exists to
/// bound allocation on garbage, not to constrain real traffic.
pub const MAX_FRAME_LEN: usize = 64 * 1024;

/// One worker-side accounting bucket: what a worker carried for one server
/// within the current profiling window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowCounters {
    /// Deliveries carried.
    pub deliveries: u64,
    /// Services carried.
    pub executions: u64,
    /// Simulated service time carried, ns.
    pub busy_ns: u64,
    /// Injected (chaos link-degradation) transport delay, summed, ns.
    pub delay_ns_total: u64,
    /// Worst injected transport delay on one delivery, ns.
    pub delay_ns_max: u64,
    /// Deliveries that carried a nonzero injected delay.
    pub delayed: u64,
    /// LEM report rows carried.
    pub reports: u64,
    /// Control queries answered.
    pub queries: u64,
    /// Query replies returned.
    pub replies: u64,
    /// Round decisions received.
    pub decisions: u64,
}

impl WindowCounters {
    /// Folds another bucket into this one.
    pub fn fold(&mut self, w: &WindowCounters) {
        self.deliveries += w.deliveries;
        self.executions += w.executions;
        self.busy_ns += w.busy_ns;
        self.delay_ns_total += w.delay_ns_total;
        self.delay_ns_max = self.delay_ns_max.max(w.delay_ns_max);
        self.delayed += w.delayed;
        self.reports += w.reports;
        self.queries += w.queries;
        self.replies += w.replies;
        self.decisions += w.decisions;
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.deliveries);
        put_u64(out, self.executions);
        put_u64(out, self.busy_ns);
        put_u64(out, self.delay_ns_total);
        put_u64(out, self.delay_ns_max);
        put_u64(out, self.delayed);
        put_u64(out, self.reports);
        put_u64(out, self.queries);
        put_u64(out, self.replies);
        put_u64(out, self.decisions);
    }

    fn decode(c: &mut WireCursor<'_>) -> Result<Self, DecodeError> {
        Ok(WindowCounters {
            deliveries: c.u64()?,
            executions: c.u64()?,
            busy_ns: c.u64()?,
            delay_ns_total: c.u64()?,
            delay_ns_max: c.u64()?,
            delayed: c.u64()?,
            reports: c.u64()?,
            queries: c.u64()?,
            replies: c.u64()?,
            decisions: c.u64()?,
        })
    }
}

/// Message kinds. Coordinator→worker kinds sit below `0x80`; worker→
/// coordinator replies sit at `0x80 |` their trigger, so a hex dump reads
/// as request/response pairs.
mod kind {
    pub const HELLO: u8 = 0x01;
    pub const SERVER_UP: u8 = 0x02;
    pub const SERVER_DOWN: u8 = 0x03;
    pub const DELIVER: u8 = 0x04;
    pub const EXECUTE: u8 = 0x05;
    pub const WINDOW_MARK: u8 = 0x06;
    pub const ROUND_MARK: u8 = 0x07;
    pub const SHUTDOWN: u8 = 0x08;
    pub const REPORT: u8 = 0x09;
    pub const QUERY: u8 = 0x0A;
    pub const DECISION: u8 = 0x0B;
    pub const SERVER_RETIRED: u8 = 0x83;
    pub const WINDOW_ACK: u8 = 0x86;
    pub const ROUND_ACK: u8 = 0x87;
    pub const QREPLY: u8 = 0x8A;
}

/// One wire message. See the [module docs](self) for the byte layout.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Worker → coordinator, first frame on a fresh connection: which
    /// server group this worker process hosts and which protocol version
    /// it speaks. The coordinator validates `wire_version` before any
    /// other traffic — the negotiation half of the version handshake.
    Hello {
        /// The worker's group index.
        group: u32,
        /// The worker's [`WIRE_VERSION`].
        wire_version: u8,
    },
    /// Coordinator → worker: open (or re-open) a server's carrier.
    ServerUp {
        /// Server id.
        server: u32,
        /// The server's vCPU count (informational on the worker side).
        vcpus: u32,
    },
    /// Coordinator → worker: retire a server; the worker replies
    /// [`Frame::ServerRetired`] with the server's partial window.
    ServerDown {
        /// Server id.
        server: u32,
    },
    /// Coordinator → worker: carry one message delivery. `delay_ns` is the
    /// injected chaos transport delay active when the frame was written
    /// (0 fault-free).
    Deliver {
        /// The delivery carriage record.
        delivery: Delivery,
        /// Injected transport delay, ns.
        delay_ns: u64,
    },
    /// Coordinator → worker: carry one message service.
    Execute {
        /// The execution carriage record.
        execution: Execution,
    },
    /// Coordinator → worker: FIFO window barrier; the worker replies
    /// [`Frame::WindowAck`] and resets its window counters.
    WindowMark {
        /// Snapshot generation the window closes for.
        generation: u64,
    },
    /// Coordinator → worker: FIFO round barrier; the worker replies
    /// [`Frame::RoundAck`].
    RoundMark {
        /// Elasticity round number.
        round: u64,
    },
    /// Coordinator → worker: drain and exit cleanly.
    Shutdown,
    /// Coordinator → worker: one server's LEM report row for a snapshot
    /// generation. The worker holds it verbatim and echoes it back in
    /// query replies.
    Report {
        /// Snapshot generation the row was published for.
        generation: u64,
        /// The report row (byte-exact snapshot copy).
        report: ServerReport,
    },
    /// Coordinator → worker: a GEM's control query; the worker replies
    /// [`Frame::QReply`] evaluated against the report rows it holds.
    Query {
        /// The query.
        query: ControlQuery,
    },
    /// Coordinator → worker: a round's published decision (broadcast).
    Decision {
        /// The decision.
        decision: ControlDecision,
    },
    /// Worker → coordinator: a retired server's partial-window counters.
    ServerRetired {
        /// Server id.
        server: u32,
        /// The server's counters since the last window mark.
        counters: WindowCounters,
    },
    /// Worker → coordinator: the summed window counters of every hosted
    /// server, echoing the mark's generation.
    WindowAck {
        /// Echoed snapshot generation.
        generation: u64,
        /// Summed counters for the window.
        counters: WindowCounters,
    },
    /// Worker → coordinator: round-barrier liveness ack.
    RoundAck {
        /// Echoed round number.
        round: u64,
    },
    /// Worker → coordinator: the answer to a [`Frame::Query`].
    QReply {
        /// The reply.
        reply: ControlReply,
    },
}

impl Frame {
    /// Appends the full length-prefixed encoding of this frame.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let at = out.len();
        put_u32(out, 0); // length backpatched below
        out.push(WIRE_VERSION);
        match self {
            Frame::Hello {
                group,
                wire_version,
            } => {
                out.push(kind::HELLO);
                put_u32(out, *group);
                out.push(*wire_version);
            }
            Frame::ServerUp { server, vcpus } => {
                out.push(kind::SERVER_UP);
                put_u32(out, *server);
                put_u32(out, *vcpus);
            }
            Frame::ServerDown { server } => {
                out.push(kind::SERVER_DOWN);
                put_u32(out, *server);
            }
            Frame::Deliver { delivery, delay_ns } => {
                out.push(kind::DELIVER);
                delivery.wire_encode(out);
                put_u64(out, *delay_ns);
            }
            Frame::Execute { execution } => {
                out.push(kind::EXECUTE);
                execution.wire_encode(out);
            }
            Frame::WindowMark { generation } => {
                out.push(kind::WINDOW_MARK);
                put_u64(out, *generation);
            }
            Frame::RoundMark { round } => {
                out.push(kind::ROUND_MARK);
                put_u64(out, *round);
            }
            Frame::Shutdown => out.push(kind::SHUTDOWN),
            Frame::Report { generation, report } => {
                out.push(kind::REPORT);
                put_u64(out, *generation);
                report.wire_encode(out);
            }
            Frame::Query { query } => {
                out.push(kind::QUERY);
                query.wire_encode(out);
            }
            Frame::Decision { decision } => {
                out.push(kind::DECISION);
                decision.wire_encode(out);
            }
            Frame::ServerRetired { server, counters } => {
                out.push(kind::SERVER_RETIRED);
                put_u32(out, *server);
                counters.encode(out);
            }
            Frame::WindowAck {
                generation,
                counters,
            } => {
                out.push(kind::WINDOW_ACK);
                put_u64(out, *generation);
                counters.encode(out);
            }
            Frame::RoundAck { round } => {
                out.push(kind::ROUND_ACK);
                put_u64(out, *round);
            }
            Frame::QReply { reply } => {
                out.push(kind::QREPLY);
                reply.wire_encode(out);
            }
        }
        let body = (out.len() - at - 4) as u32;
        out[at..at + 4].copy_from_slice(&body.to_be_bytes());
    }

    /// The full encoding as a fresh buffer.
    pub fn encode_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode(&mut out);
        out
    }

    /// Tries to decode one frame from the front of `buf`.
    ///
    /// Returns `Ok(None)` when `buf` holds only a prefix of a frame (more
    /// bytes needed — the torn-read case), `Ok(Some((frame, consumed)))` on
    /// success, and a [`DecodeError`] on malformed input. Never panics and
    /// never reads past `buf`.
    pub fn decode_prefix(buf: &[u8]) -> Result<Option<(Frame, usize)>, DecodeError> {
        if buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME_LEN {
            return Err(DecodeError::Oversize(len as u64));
        }
        // A body needs at least its version and kind bytes.
        if len < 2 {
            return Err(DecodeError::Truncated);
        }
        if buf.len() < 4 + len {
            return Ok(None);
        }
        let body = &buf[4..4 + len];
        let mut c = WireCursor::new(body);
        let version = c.u8()?;
        if version != WIRE_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let k = c.u8()?;
        let frame = match k {
            kind::HELLO => Frame::Hello {
                group: c.u32()?,
                wire_version: c.u8()?,
            },
            kind::SERVER_UP => Frame::ServerUp {
                server: c.u32()?,
                vcpus: c.u32()?,
            },
            kind::SERVER_DOWN => Frame::ServerDown { server: c.u32()? },
            kind::DELIVER => Frame::Deliver {
                delivery: Delivery::wire_decode(&mut c)?,
                delay_ns: c.u64()?,
            },
            kind::EXECUTE => Frame::Execute {
                execution: Execution::wire_decode(&mut c)?,
            },
            kind::WINDOW_MARK => Frame::WindowMark {
                generation: c.u64()?,
            },
            kind::ROUND_MARK => Frame::RoundMark { round: c.u64()? },
            kind::SHUTDOWN => Frame::Shutdown,
            kind::REPORT => Frame::Report {
                generation: c.u64()?,
                report: ServerReport::wire_decode(&mut c)?,
            },
            kind::QUERY => Frame::Query {
                query: ControlQuery::wire_decode(&mut c)?,
            },
            kind::DECISION => Frame::Decision {
                decision: ControlDecision::wire_decode(&mut c)?,
            },
            kind::SERVER_RETIRED => Frame::ServerRetired {
                server: c.u32()?,
                counters: WindowCounters::decode(&mut c)?,
            },
            kind::WINDOW_ACK => Frame::WindowAck {
                generation: c.u64()?,
                counters: WindowCounters::decode(&mut c)?,
            },
            kind::ROUND_ACK => Frame::RoundAck { round: c.u64()? },
            kind::QREPLY => Frame::QReply {
                reply: ControlReply::wire_decode(&mut c)?,
            },
            other => return Err(DecodeError::BadKind(other)),
        };
        if c.consumed() != body.len() {
            return Err(DecodeError::Trailing {
                consumed: c.consumed(),
                announced: body.len(),
            });
        }
        Ok(Some((frame, 4 + len)))
    }
}

/// Reassembles frames from an arbitrarily torn byte stream.
///
/// Feed whatever the transport produced — single bytes, half a length
/// prefix, three frames at once — via [`FrameBuffer::extend`], then drain
/// complete frames with [`FrameBuffer::next`]. Both the worker loop and the
/// coordinator read side sit on one of these, so torn TCP reads can never
/// misframe a message.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameBuffer {
    /// An empty reassembly buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends raw transport bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing, so long-lived streams
        // don't accrete an unbounded buffer.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, `Ok(None)` when more bytes are
    /// needed, or a [`DecodeError`] if the stream is malformed (after
    /// which the buffer is poisoned garbage — callers drop the
    /// connection). Deliberately named like `Iterator::next` (same pull
    /// shape) without implementing the trait, whose signature can't carry
    /// the tri-state result.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Frame>, DecodeError> {
        match Frame::decode_prefix(&self.buf[self.pos..])? {
            None => Ok(None),
            Some((frame, consumed)) => {
                self.pos += consumed;
                Ok(Some(frame))
            }
        }
    }

    /// Bytes currently buffered and not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Hello {
                group: 1,
                wire_version: WIRE_VERSION,
            },
            Frame::ServerUp {
                server: 4,
                vcpus: 2,
            },
            Frame::Deliver {
                delivery: Delivery {
                    server: 4,
                    actor: 99,
                    bytes: 512,
                    remote: true,
                },
                delay_ns: 1_500_000,
            },
            Frame::Execute {
                execution: Execution {
                    server: 4,
                    actor: 99,
                    service_ns: 42_000,
                },
            },
            Frame::Report {
                generation: 7,
                report: ServerReport {
                    server: 4,
                    vcpus: 2,
                    actor_count: 9,
                    mem_bytes: 1 << 31,
                    total_speed_bits: 1500.0_f64.to_bits(),
                    net_bps_bits: 1e9_f64.to_bits(),
                    cpu_bits: 0.625_f64.to_bits(),
                    mem_bits: 0.25_f64.to_bits(),
                    net_bits: 0.125_f64.to_bits(),
                },
            },
            Frame::Query {
                query: ControlQuery {
                    gem: 0,
                    round: 3,
                    generation: 7,
                    scope: vec![4, 6],
                },
            },
            Frame::QReply {
                reply: ControlReply {
                    gem: 0,
                    round: 3,
                    generation: 7,
                    candidates: vec![ServerReport {
                        server: 4,
                        vcpus: 2,
                        actor_count: 9,
                        mem_bytes: 1 << 31,
                        total_speed_bits: 1500.0_f64.to_bits(),
                        net_bps_bits: 1e9_f64.to_bits(),
                        cpu_bits: 0.125_f64.to_bits(),
                        mem_bits: 0.25_f64.to_bits(),
                        net_bits: 0.0_f64.to_bits(),
                    }],
                },
            },
            Frame::Decision {
                decision: ControlDecision {
                    round: 3,
                    grow: 1,
                    shrink: 0,
                    migrations: vec![plasma_backend::MigrationOrder {
                        actor: 99,
                        src: 4,
                        dst: 6,
                    }],
                },
            },
            Frame::WindowMark { generation: 7 },
            Frame::WindowAck {
                generation: 7,
                counters: WindowCounters {
                    deliveries: 1,
                    executions: 1,
                    busy_ns: 42_000,
                    delay_ns_total: 1_500_000,
                    delay_ns_max: 1_500_000,
                    delayed: 1,
                    reports: 1,
                    queries: 1,
                    replies: 1,
                    decisions: 1,
                },
            },
            Frame::RoundMark { round: 3 },
            Frame::RoundAck { round: 3 },
            Frame::ServerDown { server: 4 },
            Frame::ServerRetired {
                server: 4,
                counters: WindowCounters::default(),
            },
            Frame::Shutdown,
        ]
    }

    #[test]
    fn every_kind_round_trips_byte_exactly() {
        for f in samples() {
            let bytes = f.encode_vec();
            let (back, n) = Frame::decode_prefix(&bytes).unwrap().unwrap();
            assert_eq!(n, bytes.len(), "{f:?} must consume exactly its bytes");
            assert_eq!(back, f);
            assert_eq!(back.encode_vec(), bytes, "{f:?} re-encode must be stable");
        }
    }

    /// Split length prefixes and torn payloads: a frame fed one byte at a
    /// time yields `None` until the final byte, then the frame — never an
    /// error, never a hang.
    #[test]
    fn torn_reads_reassemble_at_every_split() {
        for f in samples() {
            let bytes = f.encode_vec();
            let mut fb = FrameBuffer::new();
            for (i, b) in bytes.iter().enumerate() {
                fb.extend(std::slice::from_ref(b));
                let got = fb.next().unwrap();
                if i + 1 < bytes.len() {
                    assert!(got.is_none(), "{f:?}: premature frame at byte {i}");
                } else {
                    assert_eq!(got.as_ref(), Some(&f));
                }
            }
        }
    }

    /// A short write (frame truncated mid-stream, connection gone) leaves
    /// the reader waiting for bytes, not panicking or misframing.
    #[test]
    fn short_writes_leave_the_buffer_pending() {
        let bytes = samples()[2].encode_vec();
        for cut in 0..bytes.len() {
            let mut fb = FrameBuffer::new();
            fb.extend(&bytes[..cut]);
            assert_eq!(fb.next().unwrap(), None, "cut at {cut}");
            assert_eq!(fb.pending(), cut);
        }
    }

    #[test]
    fn malformed_version_is_a_clean_error() {
        let mut bytes = Frame::Shutdown.encode_vec();
        bytes[4] = 9; // version byte sits right after the length prefix
        assert_eq!(
            Frame::decode_prefix(&bytes).unwrap_err(),
            DecodeError::BadVersion(9)
        );
    }

    /// An older worker's Hello fails at the version check — before the
    /// kind or payload is touched — so a coordinator can turn it into a
    /// clean handshake error. A v1 Hello has no payload version byte; a v2
    /// Hello has one, as v3 does.
    #[test]
    fn old_version_hello_fails_before_payload_parse() {
        for (version, payload_version) in [(1u8, None), (2, Some(2u8))] {
            let mut hello = Vec::new();
            // version + kind + group:u32 [+ payload version:u8]
            put_u32(&mut hello, 6 + u32::from(payload_version.is_some()));
            hello.push(version);
            hello.push(kind::HELLO);
            put_u32(&mut hello, 3);
            hello.extend(payload_version);
            assert_eq!(
                Frame::decode_prefix(&hello).unwrap_err(),
                DecodeError::BadVersion(version)
            );
        }
    }

    /// The Hello payload carries the version explicitly, so a decoded
    /// handshake exposes what the peer speaks.
    #[test]
    fn hello_carries_the_wire_version() {
        let bytes = Frame::Hello {
            group: 2,
            wire_version: WIRE_VERSION,
        }
        .encode_vec();
        match Frame::decode_prefix(&bytes).unwrap().unwrap().0 {
            Frame::Hello {
                group,
                wire_version,
            } => {
                assert_eq!((group, wire_version), (2, WIRE_VERSION));
            }
            other => panic!("expected Hello, got {other:?}"),
        }
    }

    #[test]
    fn unknown_kind_oversize_and_trailing_are_clean_errors() {
        let mut bad_kind = Frame::Shutdown.encode_vec();
        bad_kind[5] = 0x7F;
        assert_eq!(
            Frame::decode_prefix(&bad_kind).unwrap_err(),
            DecodeError::BadKind(0x7F)
        );

        let mut oversize = Vec::new();
        put_u32(&mut oversize, (MAX_FRAME_LEN + 1) as u32);
        assert!(matches!(
            Frame::decode_prefix(&oversize).unwrap_err(),
            DecodeError::Oversize(_)
        ));

        // A Shutdown body with an extra byte announced and present.
        let mut trailing = Vec::new();
        put_u32(&mut trailing, 3);
        trailing.push(WIRE_VERSION);
        trailing.push(kind::SHUTDOWN);
        trailing.push(0xAA);
        assert!(matches!(
            Frame::decode_prefix(&trailing).unwrap_err(),
            DecodeError::Trailing { .. }
        ));
    }

    #[test]
    fn back_to_back_frames_pop_in_order() {
        let mut stream = Vec::new();
        for f in samples() {
            f.encode(&mut stream);
        }
        let mut fb = FrameBuffer::new();
        // Feed in ragged chunks to exercise the reassembly path.
        for chunk in stream.chunks(7) {
            fb.extend(chunk);
            // Interleave draining so the buffer compaction path runs too.
            while let Some(f) = fb.next().unwrap() {
                let _ = f;
            }
        }
        let mut fb2 = FrameBuffer::new();
        fb2.extend(&stream);
        let mut got = Vec::new();
        while let Some(f) = fb2.next().unwrap() {
            got.push(f);
        }
        assert_eq!(got, samples());
        assert_eq!(fb2.pending(), 0);
    }
}
