//! Wire encoding for the carriage types.
//!
//! The multi-process TCP backend (`plasma-net`) serializes every
//! [`Delivery`] and [`Execution`] — and the control rows and
//! [`WindowCounters`] that ride beside them — onto a hand-rolled binary
//! wire format.
//! The codec lives here, next to the types themselves, so the carriage
//! structs and their byte layout cannot drift apart; the frame layer on
//! top (length prefix, version byte, message kinds) lives in `plasma-net`.
//!
//! Layout rules, chosen once and applied everywhere:
//!
//! - **Endianness is explicit**: every multi-byte integer is big-endian
//!   (network byte order). No host-order field ever touches the wire.
//! - **Fixed width**: `u8`/`u32`/`u64` only — no varints, no padding.
//! - **Canonical booleans**: exactly `0` or `1`; any other byte is a
//!   [`DecodeError::BadBool`]. This is what makes re-encoding a decoded
//!   value reproduce the input bytes exactly (the fuzz round-trip
//!   property).
//! - **No wire-level `serde`**: the format is hand-rolled for the same
//!   reason the BENCH JSON writer is — the byte layout is part of the
//!   protocol contract and must not change under us when a dependency
//!   changes its derive output.

use crate::carrier::WindowCounters;
use crate::control::{ControlDecision, ControlQuery, ControlReply, MigrationOrder, ServerReport};
use crate::{Delivery, Execution};

/// Why a buffer failed to decode.
///
/// Every variant is a *clean* failure: decoders return these instead of
/// panicking or reading past the input, which is the property the
/// `net_frame` fuzz target drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value did.
    Truncated,
    /// A boolean byte was neither `0` nor `1`.
    BadBool(u8),
    /// A frame announced an unsupported protocol version.
    BadVersion(u8),
    /// A frame announced an unknown message kind.
    BadKind(u8),
    /// A frame announced a body longer than the protocol allows.
    Oversize(u64),
    /// A frame body had bytes left over after its payload decoded.
    Trailing {
        /// Bytes the payload consumed.
        consumed: usize,
        /// Bytes the frame header announced.
        announced: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated mid-value"),
            DecodeError::BadBool(b) => write!(f, "non-canonical boolean byte {b:#04x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::BadKind(k) => write!(f, "unknown message kind {k:#04x}"),
            DecodeError::Oversize(n) => write!(f, "frame body of {n} bytes exceeds the cap"),
            DecodeError::Trailing {
                consumed,
                announced,
            } => write!(
                f,
                "frame body decoded {consumed} of {announced} announced bytes"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A bounds-checked reader over a wire buffer.
///
/// Reads advance a cursor and return [`DecodeError::Truncated`] instead of
/// slicing past the end — torn TCP reads and fuzzed garbage both land here.
#[derive(Debug)]
pub struct WireCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireCursor<'a> {
    /// Wraps a buffer with the cursor at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireCursor { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a canonical boolean (`0` / `1` only).
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::BadBool(b)),
        }
    }
}

/// Appends a big-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends a big-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends a canonical boolean byte.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

impl Delivery {
    /// Wire size of an encoded delivery, in bytes.
    pub const WIRE_LEN: usize = 4 + 8 + 8 + 1;

    /// Appends the wire encoding: `server:u32 actor:u64 bytes:u64 remote:bool`.
    pub fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.server);
        put_u64(out, self.actor);
        put_u64(out, self.bytes);
        put_bool(out, self.remote);
    }

    /// Decodes a delivery from the cursor.
    pub fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, DecodeError> {
        Ok(Delivery {
            server: c.u32()?,
            actor: c.u64()?,
            bytes: c.u64()?,
            remote: c.bool()?,
        })
    }
}

impl Execution {
    /// Wire size of an encoded execution, in bytes.
    pub const WIRE_LEN: usize = 4 + 8 + 8;

    /// Appends the wire encoding: `server:u32 actor:u64 service_ns:u64`.
    pub fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.server);
        put_u64(out, self.actor);
        put_u64(out, self.service_ns);
    }

    /// Decodes an execution from the cursor.
    pub fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, DecodeError> {
        Ok(Execution {
            server: c.u32()?,
            actor: c.u64()?,
            service_ns: c.u64()?,
        })
    }
}

impl WindowCounters {
    /// Appends the wire encoding: ten `u64`s in field order
    /// (`deliveries executions busy_ns latency_ns_total latency_ns_max
    /// latency_samples reports queries replies decisions`).
    pub fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.deliveries);
        put_u64(out, self.executions);
        put_u64(out, self.busy_ns);
        put_u64(out, self.latency_ns_total);
        put_u64(out, self.latency_ns_max);
        put_u64(out, self.latency_samples);
        put_u64(out, self.reports);
        put_u64(out, self.queries);
        put_u64(out, self.replies);
        put_u64(out, self.decisions);
    }

    /// Decodes counters from the cursor.
    pub fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, DecodeError> {
        Ok(WindowCounters {
            deliveries: c.u64()?,
            executions: c.u64()?,
            busy_ns: c.u64()?,
            latency_ns_total: c.u64()?,
            latency_ns_max: c.u64()?,
            latency_samples: c.u64()?,
            reports: c.u64()?,
            queries: c.u64()?,
            replies: c.u64()?,
            decisions: c.u64()?,
        })
    }
}

/// Reads a `u32` element count and verifies the buffer can possibly hold
/// that many `item_len`-byte elements, so a corrupt count fails as a clean
/// [`DecodeError::Truncated`] instead of a giant allocation.
fn counted(c: &mut WireCursor<'_>, item_len: usize) -> Result<usize, DecodeError> {
    let n = c.u32()? as usize;
    if n.saturating_mul(item_len) > c.remaining() {
        return Err(DecodeError::Truncated);
    }
    Ok(n)
}

impl ServerReport {
    /// Wire size of an encoded report, in bytes.
    pub const WIRE_LEN: usize = 4 + 4 + 8 * 7;

    /// Appends the wire encoding: `server:u32 vcpus:u32 actor_count:u64
    /// mem_bytes:u64 total_speed:u64 net_bps:u64 cpu:u64 mem:u64 net:u64`
    /// (the trailing five are `f64` bit patterns).
    pub fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.server);
        put_u32(out, self.vcpus);
        put_u64(out, self.actor_count);
        put_u64(out, self.mem_bytes);
        put_u64(out, self.total_speed_bits);
        put_u64(out, self.net_bps_bits);
        put_u64(out, self.cpu_bits);
        put_u64(out, self.mem_bits);
        put_u64(out, self.net_bits);
    }

    /// Decodes a report from the cursor.
    pub fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, DecodeError> {
        Ok(ServerReport {
            server: c.u32()?,
            vcpus: c.u32()?,
            actor_count: c.u64()?,
            mem_bytes: c.u64()?,
            total_speed_bits: c.u64()?,
            net_bps_bits: c.u64()?,
            cpu_bits: c.u64()?,
            mem_bits: c.u64()?,
            net_bits: c.u64()?,
        })
    }
}

impl ControlQuery {
    /// Appends the wire encoding: `gem:u32 round:u64 generation:u64
    /// n:u32 scope:[u32; n]`.
    pub fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.gem);
        put_u64(out, self.round);
        put_u64(out, self.generation);
        put_u32(out, self.scope.len() as u32);
        for &s in &self.scope {
            put_u32(out, s);
        }
    }

    /// Decodes a query from the cursor.
    pub fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, DecodeError> {
        let gem = c.u32()?;
        let round = c.u64()?;
        let generation = c.u64()?;
        let n = counted(c, 4)?;
        let mut scope = Vec::with_capacity(n);
        for _ in 0..n {
            scope.push(c.u32()?);
        }
        Ok(ControlQuery {
            gem,
            round,
            generation,
            scope,
        })
    }
}

impl ControlReply {
    /// Appends the wire encoding: `gem:u32 round:u64 generation:u64
    /// n:u32 candidates:[ServerReport; n]`.
    pub fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.gem);
        put_u64(out, self.round);
        put_u64(out, self.generation);
        put_u32(out, self.candidates.len() as u32);
        for cand in &self.candidates {
            cand.wire_encode(out);
        }
    }

    /// Decodes a reply from the cursor.
    pub fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, DecodeError> {
        let gem = c.u32()?;
        let round = c.u64()?;
        let generation = c.u64()?;
        let n = counted(c, ServerReport::WIRE_LEN)?;
        let mut candidates = Vec::with_capacity(n);
        for _ in 0..n {
            candidates.push(ServerReport::wire_decode(c)?);
        }
        Ok(ControlReply {
            gem,
            round,
            generation,
            candidates,
        })
    }
}

impl MigrationOrder {
    /// Wire size of an encoded migration order, in bytes.
    pub const WIRE_LEN: usize = 8 + 4 + 4;

    /// Appends the wire encoding: `actor:u64 src:u32 dst:u32`.
    pub fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.actor);
        put_u32(out, self.src);
        put_u32(out, self.dst);
    }

    /// Decodes a migration order from the cursor.
    pub fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, DecodeError> {
        Ok(MigrationOrder {
            actor: c.u64()?,
            src: c.u32()?,
            dst: c.u32()?,
        })
    }
}

impl ControlDecision {
    /// Appends the wire encoding: `round:u64 grow:u32 shrink:u32 n:u32
    /// migrations:[MigrationOrder; n]`.
    pub fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.round);
        put_u32(out, self.grow);
        put_u32(out, self.shrink);
        put_u32(out, self.migrations.len() as u32);
        for m in &self.migrations {
            m.wire_encode(out);
        }
    }

    /// Decodes a decision from the cursor.
    pub fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, DecodeError> {
        let round = c.u64()?;
        let grow = c.u32()?;
        let shrink = c.u32()?;
        let n = counted(c, MigrationOrder::WIRE_LEN)?;
        let mut migrations = Vec::with_capacity(n);
        for _ in 0..n {
            migrations.push(MigrationOrder::wire_decode(c)?);
        }
        Ok(ControlDecision {
            round,
            grow,
            shrink,
            migrations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_round_trips_and_is_canonical() {
        let d = Delivery {
            server: 7,
            actor: 0xDEAD_BEEF_0BAD_F00D,
            bytes: 4096,
            remote: true,
        };
        let mut buf = Vec::new();
        d.wire_encode(&mut buf);
        assert_eq!(buf.len(), Delivery::WIRE_LEN);
        let mut c = WireCursor::new(&buf);
        let back = Delivery::wire_decode(&mut c).unwrap();
        assert_eq!(c.consumed(), buf.len());
        let mut again = Vec::new();
        back.wire_encode(&mut again);
        assert_eq!(buf, again, "re-encoding must reproduce the bytes");
    }

    #[test]
    fn execution_round_trips() {
        let e = Execution {
            server: 3,
            actor: 42,
            service_ns: 1_000_000,
        };
        let mut buf = Vec::new();
        e.wire_encode(&mut buf);
        assert_eq!(buf.len(), Execution::WIRE_LEN);
        let back = Execution::wire_decode(&mut WireCursor::new(&buf)).unwrap();
        assert_eq!(
            (back.server, back.actor, back.service_ns),
            (3, 42, 1_000_000)
        );
    }

    #[test]
    fn truncation_is_a_clean_error_at_every_split() {
        let d = Delivery {
            server: 1,
            actor: 2,
            bytes: 3,
            remote: false,
        };
        let mut buf = Vec::new();
        d.wire_encode(&mut buf);
        for cut in 0..buf.len() {
            let err = Delivery::wire_decode(&mut WireCursor::new(&buf[..cut]));
            assert_eq!(err.unwrap_err(), DecodeError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn non_canonical_bool_is_rejected() {
        let d = Delivery {
            server: 1,
            actor: 2,
            bytes: 3,
            remote: true,
        };
        let mut buf = Vec::new();
        d.wire_encode(&mut buf);
        *buf.last_mut().unwrap() = 2;
        assert_eq!(
            Delivery::wire_decode(&mut WireCursor::new(&buf)).unwrap_err(),
            DecodeError::BadBool(2)
        );
    }

    #[test]
    fn server_report_wire_len_is_exact() {
        let r = ServerReport {
            server: 9,
            vcpus: 4,
            actor_count: 17,
            mem_bytes: 1 << 34,
            total_speed_bits: 2000.0_f64.to_bits(),
            net_bps_bits: 1e10_f64.to_bits(),
            cpu_bits: 0.75_f64.to_bits(),
            mem_bits: 0.5_f64.to_bits(),
            net_bits: 0.25_f64.to_bits(),
        };
        let mut buf = Vec::new();
        r.wire_encode(&mut buf);
        assert_eq!(buf.len(), ServerReport::WIRE_LEN);
        assert_eq!(ServerReport::wire_decode(&mut WireCursor::new(&buf)), Ok(r));
    }

    #[test]
    fn corrupt_counts_fail_cleanly() {
        let q = ControlQuery {
            gem: 0,
            round: 1,
            generation: 2,
            scope: vec![1, 2, 3],
        };
        let mut buf = Vec::new();
        q.wire_encode(&mut buf);
        // Inflate the element count far past the buffer: the decoder must
        // reject it without attempting the allocation.
        let at = 4 + 8 * 2;
        buf[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            ControlQuery::wire_decode(&mut WireCursor::new(&buf)).unwrap_err(),
            DecodeError::Truncated
        );
    }

    mod control_props {
        use super::*;
        use proptest::prelude::*;

        /// Full-width integer strategies (the offline proptest stand-in has
        /// range strategies only; `..MAX` loses one value, which is fine).
        fn u64s() -> std::ops::Range<u64> {
            0..u64::MAX
        }

        fn u32s() -> std::ops::Range<u32> {
            0..u32::MAX
        }

        fn arb_report() -> impl Strategy<Value = ServerReport> {
            (
                u32s(),
                u32s(),
                u64s(),
                u64s(),
                (u64s(), u64s()),
                (u64s(), u64s(), u64s()),
            )
                .prop_map(
                    |(server, vcpus, actor_count, mem_bytes, (speed, bps), (cpu, mem, net))| {
                        ServerReport {
                            server,
                            vcpus,
                            actor_count,
                            mem_bytes,
                            total_speed_bits: speed,
                            net_bps_bits: bps,
                            cpu_bits: cpu,
                            mem_bits: mem,
                            net_bits: net,
                        }
                    },
                )
        }

        proptest! {
            /// Decode∘encode is the identity and re-encoding reproduces the
            /// bytes — for arbitrary queries, including raw-bit NaN floats.
            #[test]
            fn query_round_trips(
                gem in u32s(),
                round in u64s(),
                generation in u64s(),
                scope in proptest::collection::vec(u32s(), 0..64),
            ) {
                let q = ControlQuery { gem, round, generation, scope };
                let mut buf = Vec::new();
                q.wire_encode(&mut buf);
                let mut c = WireCursor::new(&buf);
                let back = ControlQuery::wire_decode(&mut c).unwrap();
                prop_assert_eq!(c.consumed(), buf.len());
                prop_assert_eq!(&back, &q);
                let mut again = Vec::new();
                back.wire_encode(&mut again);
                prop_assert_eq!(again, buf);
            }

            #[test]
            fn reply_round_trips(
                gem in u32s(),
                round in u64s(),
                generation in u64s(),
                candidates in proptest::collection::vec(arb_report(), 0..32),
            ) {
                let r = ControlReply { gem, round, generation, candidates };
                let mut buf = Vec::new();
                r.wire_encode(&mut buf);
                let mut c = WireCursor::new(&buf);
                let back = ControlReply::wire_decode(&mut c).unwrap();
                prop_assert_eq!(c.consumed(), buf.len());
                prop_assert_eq!(&back, &r);
                let mut again = Vec::new();
                back.wire_encode(&mut again);
                prop_assert_eq!(again, buf);
            }

            #[test]
            fn decision_round_trips(
                round in u64s(),
                grow in u32s(),
                shrink in u32s(),
                migrations in proptest::collection::vec(
                    (u64s(), u32s(), u32s())
                        .prop_map(|(actor, src, dst)| MigrationOrder { actor, src, dst }),
                    0..64,
                ),
            ) {
                let d = ControlDecision { round, grow, shrink, migrations };
                let mut buf = Vec::new();
                d.wire_encode(&mut buf);
                let mut c = WireCursor::new(&buf);
                let back = ControlDecision::wire_decode(&mut c).unwrap();
                prop_assert_eq!(c.consumed(), buf.len());
                prop_assert_eq!(&back, &d);
                let mut again = Vec::new();
                back.wire_encode(&mut again);
                prop_assert_eq!(again, buf);
            }

            /// Truncating an encoded reply at any byte fails cleanly.
            #[test]
            fn reply_truncation_is_clean(
                candidates in proptest::collection::vec(arb_report(), 0..8),
                frac in 0.0f64..1.0,
            ) {
                let r = ControlReply {
                    gem: 1, round: 2, generation: 3, candidates,
                };
                let mut buf = Vec::new();
                r.wire_encode(&mut buf);
                let cut = (buf.len() as f64 * frac) as usize;
                prop_assert!(cut < buf.len());
                let err = ControlReply::wire_decode(&mut WireCursor::new(&buf[..cut]));
                prop_assert_eq!(err.unwrap_err(), DecodeError::Truncated);
            }
        }
    }
}
