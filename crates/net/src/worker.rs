//! The `plasma-server` worker loop: one process, one server group.
//!
//! A worker is the process-level analogue of `LiveBackend`'s per-server
//! thread, and runs the same worker-side [`Lem`]: it connects back to the
//! coordinator, announces its group with a [`Frame::Hello`], then turns
//! each frame of the coordinator's stream into one `Lem` call — opening a
//! server's bucket on `ServerUp`, counting `Deliver`/`Execute` carriage,
//! holding `Report` rows and answering `Query` from them — and answers
//! window/round barriers over the same TCP connection. Because TCP is
//! FIFO, a barrier ack proves every frame written before the mark was
//! received before it — the same exactly-once argument the thread backend
//! makes with channel markers.
//!
//! A worker owns no policy and no clock authority: it counts what it is
//! handed and echoes barriers. When the coordinator's connection closes
//! (clean `Shutdown` or coordinator death), the worker exits; an orphaned
//! `plasma-server` process would mean this invariant broke, which the
//! `net-parity` CI job checks for explicitly.

use std::io::{Read, Write};
use std::net::TcpStream;

use plasma_backend::wire::DecodeError;
use plasma_backend::Lem;

use crate::frame::{Frame, FrameBuffer, WIRE_VERSION};

/// How the worker loop ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerExit {
    /// The coordinator sent a clean [`Frame::Shutdown`].
    Shutdown,
    /// The coordinator's connection closed without a shutdown frame (its
    /// process died); the worker exits rather than linger as an orphan.
    Disconnected,
}

/// Maps a stream decode failure to an `io::Error`, turning a version
/// mismatch into a clean handshake-style failure that names both versions
/// instead of a bare mid-stream decode error.
pub(crate) fn decode_failure(e: DecodeError) -> std::io::Error {
    let msg = match e {
        DecodeError::BadVersion(v) => format!(
            "wire version mismatch: peer speaks v{v}, this side speaks v{WIRE_VERSION}; \
             closing the connection"
        ),
        other => other.to_string(),
    };
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Runs the worker loop to completion: connect, hello, serve frames.
///
/// Returns how the loop ended, or an `io::Error` on connect/protocol
/// failures (malformed frames surface as `InvalidData`; a coordinator
/// speaking a different wire version surfaces as a clean version-mismatch
/// error naming both versions).
pub fn run(addr: &str, group: u32) -> std::io::Result<WorkerExit> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let hello = Frame::Hello {
        group,
        wire_version: WIRE_VERSION,
    }
    .encode_vec();
    stream.write_all(&hello)?;

    let mut fb = FrameBuffer::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut lem = Lem::default();
    let mut reply = Vec::with_capacity(64);

    loop {
        while let Some(frame) = fb.next().map_err(decode_failure)? {
            reply.clear();
            match frame {
                Frame::ServerUp { server, .. } => lem.server_up(server),
                Frame::ServerDown { server } => {
                    let counters = lem.server_down(server);
                    Frame::ServerRetired { server, counters }.encode(&mut reply);
                }
                Frame::Deliver { delivery, delay_ns } => {
                    // The injected chaos delay is this carrier's latency
                    // sample; fault-free deliveries carry none.
                    lem.deliver(delivery.server, (delay_ns > 0).then_some(delay_ns));
                }
                Frame::Execute { execution } => {
                    lem.execute(execution.server, execution.service_ns);
                }
                Frame::WindowMark { generation } => {
                    let counters = lem.close_window();
                    Frame::WindowAck {
                        generation,
                        counters,
                    }
                    .encode(&mut reply);
                }
                Frame::RoundMark { round } => {
                    Frame::RoundAck { round }.encode(&mut reply);
                }
                Frame::Report { generation, report } => lem.report(generation, report),
                Frame::Query { query } => Frame::QReply {
                    reply: lem.query(&query),
                }
                .encode(&mut reply),
                Frame::Decision { .. } => lem.decision(),
                Frame::Shutdown => return Ok(WorkerExit::Shutdown),
                // Coordinator never sends worker->coordinator kinds or a
                // second Hello; receiving one means the peer is confused.
                Frame::Hello { .. }
                | Frame::ServerRetired { .. }
                | Frame::WindowAck { .. }
                | Frame::RoundAck { .. }
                | Frame::QReply { .. } => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("unexpected frame from coordinator: {frame:?}"),
                    ));
                }
            }
            if !reply.is_empty() {
                stream.write_all(&reply)?;
            }
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(WorkerExit::Disconnected);
        }
        fb.extend(&chunk[..n]);
    }
}

/// Parses `plasma-server` CLI arguments: `--connect ADDR --group N`.
///
/// Returns `(addr, group)` or a usage error string.
pub fn parse_args<I: Iterator<Item = String>>(mut args: I) -> Result<(String, u32), String> {
    let mut addr: Option<String> = None;
    let mut group: Option<u32> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => match args.next() {
                Some(a) => addr = Some(a),
                None => return Err("--connect expects HOST:PORT".into()),
            },
            "--group" => match args.next().and_then(|g| g.parse().ok()) {
                Some(g) => group = Some(g),
                None => return Err("--group expects an integer".into()),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match (addr, group) {
        (Some(a), Some(g)) => Ok((a, g)),
        _ => Err("both --connect HOST:PORT and --group N are required".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> std::vec::IntoIter<String> {
        s.iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn version_mismatch_is_a_named_handshake_failure() {
        let err = decode_failure(DecodeError::BadVersion(1));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("wire version mismatch")
                && msg.contains("v1")
                && msg.contains(&format!("v{WIRE_VERSION}")),
            "both versions must be named: {msg}"
        );
        // Other decode failures keep their plain rendering.
        assert_eq!(
            decode_failure(DecodeError::Truncated).to_string(),
            DecodeError::Truncated.to_string()
        );
    }

    #[test]
    fn args_parse_and_reject() {
        assert_eq!(
            parse_args(argv(&["--connect", "127.0.0.1:9", "--group", "3"])).unwrap(),
            ("127.0.0.1:9".to_string(), 3)
        );
        assert!(parse_args(argv(&["--connect", "x"])).is_err());
        assert!(parse_args(argv(&["--group", "1"])).is_err());
        assert!(parse_args(argv(&["--bogus"])).is_err());
        assert!(parse_args(argv(&["--group", "zebra", "--connect", "x"])).is_err());
    }
}
