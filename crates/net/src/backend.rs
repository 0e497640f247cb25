//! The coordinator side: spawn workers, multiplex frames, barrier windows.
//!
//! `NetBackend` implements `ExecutionBackend` across real process
//! boundaries. At launch it binds an ephemeral localhost listener, spawns
//! one `plasma-server` process per server *group*, and waits for each to
//! connect and identify itself with a `Hello` frame. Servers map onto
//! groups by `server % groups`, so every server's frames ride exactly one
//! FIFO TCP connection — the ordering property the exactly-once barrier
//! argument needs — while one connection multiplexes the carriage of many
//! servers.
//!
//! Data frames (`ServerUp`/`ServerDown`/`Deliver`/`Execute`) are written
//! through a buffered writer and only flushed at barriers, so carriage
//! costs one syscall per ~64 KiB rather than one per message. Barriers are
//! synchronous request/response: the coordinator flushes, writes the mark,
//! then blocks (with a timeout) for each worker's ack, folds the returned
//! window counters together with any partial windows drained from retired
//! servers, and compares the total against its own send tally — any loss
//! or duplication is a `window_mismatches` increment, gated to zero by the
//! three-way parity suite.
//!
//! Nothing a worker returns feeds back into logical scheduling; like the
//! thread backend, the wire is a carrier and a measurement side-channel,
//! which is why a same-seed run serializes to byte-identical BENCH JSON
//! under sim, live, and net.

use std::collections::BTreeSet;
use std::io::{BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use plasma_backend::{
    BackendKind, BackendStats, ControlMsg, ControlReply, Delivery, Execution, ExecutionBackend,
    ServerReport, WindowReport,
};

use crate::frame::{Frame, FrameBuffer, WindowCounters, WIRE_VERSION};

/// How long launch waits for all workers to connect and hello.
const LAUNCH_TIMEOUT: Duration = Duration::from_secs(20);
/// How long a barrier waits for one worker ack. Generous: a worker only
/// does counter arithmetic per frame.
const ACK_TIMEOUT: Duration = Duration::from_secs(10);
/// How long shutdown waits for a worker process to exit before killing it.
const EXIT_TIMEOUT: Duration = Duration::from_secs(5);

/// Configuration for [`NetBackend::launch`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Worker processes to spawn; servers map onto them by
    /// `server % groups`. Must be at least 1.
    pub groups: u32,
    /// Path to the `plasma-server` binary. `None` resolves via
    /// [`locate_worker`] (the `PLASMA_SERVER_BIN` environment variable,
    /// then the directory of the current executable and its parent).
    pub worker_bin: Option<PathBuf>,
}

impl Default for NetConfig {
    /// Two groups — the smallest topology that actually crosses process
    /// boundaries between servers — with the worker binary auto-located.
    /// Environment-free; use [`NetConfig::from_env`] to honor
    /// `PLASMA_NET_GROUPS`.
    fn default() -> Self {
        NetConfig {
            groups: 2,
            worker_bin: None,
        }
    }
}

impl NetConfig {
    /// The default configuration with the group count taken from the
    /// `PLASMA_NET_GROUPS` environment variable (carriage topology only;
    /// it cannot affect logical results).
    ///
    /// An unset variable keeps the default of 2. A set-but-invalid value —
    /// not an integer, or below 1 — is rejected *here*, at parse time,
    /// with an error naming the variable and the offending value, instead
    /// of surfacing as a downstream launch assertion.
    pub fn from_env() -> std::io::Result<Self> {
        let mut cfg = NetConfig::default();
        if let Ok(v) = std::env::var("PLASMA_NET_GROUPS") {
            cfg.groups = match v.parse::<u32>() {
                Ok(g) if g >= 1 => g,
                _ => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!(
                            "PLASMA_NET_GROUPS={v:?} is invalid: expected an integer >= 1 \
                             (number of worker processes)"
                        ),
                    ));
                }
            };
        }
        Ok(cfg)
    }
}

/// Finds the `plasma-server` worker binary.
///
/// Resolution order: the `PLASMA_SERVER_BIN` environment variable, then a
/// binary named `plasma-server` next to the current executable, then in
/// its parent directory (test binaries live in `target/<profile>/deps/`,
/// one level below the bins cargo builds for the same profile).
pub fn locate_worker() -> std::io::Result<PathBuf> {
    if let Ok(p) = std::env::var("PLASMA_SERVER_BIN") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("PLASMA_SERVER_BIN={} does not exist", p.display()),
        ));
    }
    let name = format!("plasma-server{}", std::env::consts::EXE_SUFFIX);
    let exe = std::env::current_exe()?;
    let mut dirs: Vec<&Path> = Vec::new();
    if let Some(d) = exe.parent() {
        dirs.push(d);
        if let Some(dd) = d.parent() {
            dirs.push(dd);
        }
    }
    for d in &dirs {
        let candidate = d.join(&name);
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::NotFound,
        format!(
            "cannot find `{name}` near {} (build it with `cargo build -p plasma-net` \
             or point PLASMA_SERVER_BIN at it)",
            exe.display()
        ),
    ))
}

/// Reads and validates a worker's `Hello` from `r`, returning the
/// announced group.
///
/// The negotiation half of the version handshake: a worker speaking a
/// different wire version fails here with a clean error naming both
/// versions — whether the mismatch surfaces as a `BadVersion` on the
/// frame header (older workers) or as a mismatched version field inside
/// the Hello payload itself. Leftover bytes stay in `fb` for the caller.
pub(crate) fn read_hello(r: &mut dyn Read, fb: &mut FrameBuffer) -> std::io::Result<u32> {
    let mut chunk = [0u8; 256];
    loop {
        match fb.next() {
            Ok(Some(Frame::Hello {
                group,
                wire_version,
            })) => {
                if wire_version != WIRE_VERSION {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "wire version mismatch in handshake: worker speaks \
                             v{wire_version}, coordinator speaks v{WIRE_VERSION}"
                        ),
                    ));
                }
                return Ok(group);
            }
            Ok(Some(other)) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("expected Hello, got {other:?}"),
                ));
            }
            Ok(None) => {}
            Err(e) => return Err(crate::worker::decode_failure(e)),
        }
        let n = r.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        fb.extend(&chunk[..n]);
    }
}

/// One worker connection: the child process plus its FIFO TCP stream.
struct Conn {
    child: Child,
    /// Read side (acks). `writer` owns a clone of the same socket.
    stream: TcpStream,
    writer: BufWriter<TcpStream>,
    rbuf: FrameBuffer,
    rchunk: Box<[u8; 16 * 1024]>,
    /// Cleared when a write/read fails; a dead conn fails barriers
    /// (`matched = false`) instead of wedging them.
    alive: bool,
}

impl Conn {
    /// Reads one frame, blocking up to the stream's read timeout.
    fn read_frame(&mut self) -> std::io::Result<(Frame, u64)> {
        let mut got = 0u64;
        loop {
            match self.rbuf.next() {
                Ok(Some(f)) => return Ok((f, got)),
                Ok(None) => {}
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        e.to_string(),
                    ))
                }
            }
            let n = self.stream.read(&mut self.rchunk[..])?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            got += n as u64;
            self.rbuf.extend(&self.rchunk[..n]);
        }
    }
}

/// The multi-process TCP carrier: spawns `plasma-server` worker
/// processes (one per server group), multiplexes carriage frames over
/// per-group localhost TCP connections, and verifies exactly-once
/// carriage at window/round barriers. See the `backend` module source
/// for the full protocol walkthrough.
pub struct NetBackend {
    epoch: Instant,
    conns: Vec<Conn>,
    /// Servers currently up, coordinator-side; frames for servers outside
    /// this set are dropped and excluded from the send tally (mirroring
    /// the thread backend's unknown-server semantics).
    up: BTreeSet<u32>,
    stats: BackendStats,
    sent_deliveries: u64,
    sent_executions: u64,
    sent_reports: u64,
    sent_queries: u64,
    recv_qreplies: u64,
    sent_decisions: u64,
    /// Partial windows drained from servers retired mid-window; folded
    /// into the next window barrier so it still balances.
    retired: WindowCounters,
    /// Injected chaos transport delay stamped onto remote deliveries, ns.
    link_delay_ns: u64,
    /// Frames written since the last fully-acked barrier.
    inflight: u64,
    scratch: Vec<u8>,
    shut: bool,
}

impl NetBackend {
    /// Spawns the worker processes and waits for all of them to connect
    /// and complete the Hello version handshake.
    pub fn launch(cfg: NetConfig) -> std::io::Result<NetBackend> {
        if cfg.groups < 1 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "NetConfig.groups = {} is invalid: at least 1 worker group is required",
                    cfg.groups
                ),
            ));
        }
        let bin = match &cfg.worker_bin {
            Some(p) => p.clone(),
            None => locate_worker()?,
        };
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let mut children: Vec<Child> = Vec::with_capacity(cfg.groups as usize);
        for group in 0..cfg.groups {
            let child = Command::new(&bin)
                .arg("--connect")
                .arg(addr.to_string())
                .arg("--group")
                .arg(group.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .map_err(|e| {
                    std::io::Error::new(
                        e.kind(),
                        format!("spawning {} for group {group}: {e}", bin.display()),
                    )
                })?;
            children.push(child);
        }

        // Accept until every group said hello; pair streams to groups by
        // the Hello payload, not accept order.
        let deadline = Instant::now() + LAUNCH_TIMEOUT;
        let mut slots: Vec<Option<(TcpStream, FrameBuffer)>> =
            (0..cfg.groups).map(|_| None).collect();
        let mut pending = cfg.groups as usize;
        while pending > 0 {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(ACK_TIMEOUT))?;
                    let mut fb = FrameBuffer::new();
                    let group = {
                        let mut rd = &stream;
                        read_hello(&mut rd, &mut fb)?
                    };
                    let slot = slots.get_mut(group as usize).ok_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("worker announced out-of-range group {group}"),
                        )
                    })?;
                    if slot.is_some() {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("two workers announced group {group}"),
                        ));
                    }
                    *slot = Some((stream, fb));
                    pending -= 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        for c in &mut children {
                            let _ = c.kill();
                            let _ = c.wait();
                        }
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            format!("{pending} worker(s) never connected"),
                        ));
                    }
                    // A worker that died before connecting would hang the
                    // accept loop to the deadline; fail fast instead.
                    for c in &mut children {
                        if let Ok(Some(status)) = c.try_wait() {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::BrokenPipe,
                                format!("worker exited during launch: {status}"),
                            ));
                        }
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }

        let mut conns = Vec::with_capacity(cfg.groups as usize);
        for (child, slot) in children.into_iter().zip(slots) {
            let (stream, rbuf) = slot.expect("all slots filled");
            let writer = BufWriter::with_capacity(64 * 1024, stream.try_clone()?);
            conns.push(Conn {
                child,
                stream,
                writer,
                rbuf,
                rchunk: Box::new([0u8; 16 * 1024]),
                alive: true,
            });
        }
        let stats = BackendStats {
            workers_spawned: cfg.groups as u64,
            ..BackendStats::default()
        };
        Ok(NetBackend {
            epoch: Instant::now(),
            conns,
            up: BTreeSet::new(),
            stats,
            sent_deliveries: 0,
            sent_executions: 0,
            sent_reports: 0,
            sent_queries: 0,
            recv_qreplies: 0,
            sent_decisions: 0,
            retired: WindowCounters::default(),
            link_delay_ns: 0,
            inflight: 0,
            scratch: Vec::with_capacity(64),
            shut: false,
        })
    }

    /// OS process ids of the worker processes, by group.
    pub fn worker_pids(&self) -> Vec<u32> {
        self.conns.iter().map(|c| c.child.id()).collect()
    }

    /// Worker processes spawned (the group count).
    pub fn worker_count(&self) -> usize {
        self.conns.len()
    }

    fn group_of(&self, server: u32) -> usize {
        (server as usize) % self.conns.len()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Writes one frame to `group`'s buffered stream. Returns whether the
    /// frame was accepted (the conn was alive and the write succeeded).
    fn send(&mut self, group: usize, frame: &Frame) -> bool {
        let conn = &mut self.conns[group];
        if !conn.alive {
            return false;
        }
        self.scratch.clear();
        frame.encode(&mut self.scratch);
        if conn.writer.write_all(&self.scratch).is_err() {
            conn.alive = false;
            return false;
        }
        self.stats.frames_sent += 1;
        self.stats.wire_bytes_sent += self.scratch.len() as u64;
        if matches!(
            frame,
            Frame::Report { .. } | Frame::Query { .. } | Frame::Decision { .. }
        ) {
            self.stats.control_wire_bytes += self.scratch.len() as u64;
        }
        self.inflight += 1;
        self.stats.max_inflight_frames = self.stats.max_inflight_frames.max(self.inflight);
        true
    }

    /// Flushes every live connection's write buffer.
    fn flush_all(&mut self) {
        for conn in &mut self.conns {
            if conn.alive && conn.writer.flush().is_err() {
                conn.alive = false;
            }
        }
    }

    /// Reads one reply frame from `group`, accounting received bytes.
    /// A failure (timeout, EOF, malformed frame) marks the conn dead.
    fn recv(&mut self, group: usize) -> Option<Frame> {
        let conn = &mut self.conns[group];
        if !conn.alive {
            return None;
        }
        match conn.read_frame() {
            Ok((frame, bytes)) => {
                self.stats.frames_received += 1;
                self.stats.wire_bytes_received += bytes;
                Some(frame)
            }
            Err(_) => {
                conn.alive = false;
                None
            }
        }
    }

    /// Sends a window mark to every live worker and folds the acks.
    /// Returns the summed counters and whether every ack arrived intact.
    fn collect_windows(&mut self, generation: u64) -> (WindowCounters, bool) {
        self.flush_all();
        let mut marked: Vec<usize> = Vec::with_capacity(self.conns.len());
        for g in 0..self.conns.len() {
            if self.send(g, &Frame::WindowMark { generation }) {
                marked.push(g);
            }
        }
        self.flush_all();
        let mut sum = WindowCounters::default();
        let mut complete = marked.len() == self.conns.len();
        for g in marked {
            match self.recv(g) {
                Some(Frame::WindowAck {
                    generation: echoed,
                    counters,
                }) if echoed == generation => sum.fold(&counters),
                _ => complete = false,
            }
        }
        (sum, complete)
    }
}

impl ExecutionBackend for NetBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Net
    }

    fn monotonic_ns(&self) -> u64 {
        self.now_ns()
    }

    fn server_up(&mut self, server: u32, vcpus: u32) {
        // Re-announcing a live server must not reset its carrier (boot
        // paths overlap with reboot paths upstream).
        if !self.up.insert(server) {
            return;
        }
        let group = self.group_of(server);
        self.send(group, &Frame::ServerUp { server, vcpus });
    }

    fn server_down(&mut self, server: u32) {
        if !self.up.remove(&server) {
            return;
        }
        let group = self.group_of(server);
        // Drain the server's partial window synchronously so the next
        // window barrier still balances (a crashed server's delivered
        // messages were delivered even though the server is gone by
        // window close).
        if self.send(group, &Frame::ServerDown { server }) {
            if self.conns[group].alive && self.conns[group].writer.flush().is_err() {
                self.conns[group].alive = false;
            }
            if let Some(Frame::ServerRetired {
                server: echoed,
                counters,
            }) = self.recv(group)
            {
                if echoed == server {
                    self.retired.fold(&counters);
                }
            }
        }
    }

    fn transmit(&mut self, d: Delivery) {
        if self.up.contains(&d.server) {
            let delay_ns = if d.remote { self.link_delay_ns } else { 0 };
            let group = self.group_of(d.server);
            if self.send(
                group,
                &Frame::Deliver {
                    delivery: d,
                    delay_ns,
                },
            ) {
                self.sent_deliveries += 1;
            }
        }
        self.stats.deliveries += 1;
    }

    fn execute(&mut self, e: Execution) {
        if self.up.contains(&e.server) {
            let group = self.group_of(e.server);
            if self.send(group, &Frame::Execute { execution: e }) {
                self.sent_executions += 1;
            }
        }
        self.stats.executions += 1;
    }

    fn window_close(&mut self, generation: u64) -> WindowReport {
        let (mut sum, complete) = self.collect_windows(generation);
        sum.fold(&self.retired.clone());
        self.retired = WindowCounters::default();
        let matched = complete
            && sum.deliveries == self.sent_deliveries
            && sum.executions == self.sent_executions
            && sum.reports == self.sent_reports
            && sum.queries == self.sent_queries
            && sum.replies == self.recv_qreplies
            && sum.decisions == self.sent_decisions;
        let report = WindowReport {
            generation,
            deliveries: sum.deliveries,
            executions: sum.executions,
            matched,
        };
        self.stats.windows_closed += 1;
        if !matched {
            self.stats.window_mismatches += 1;
        }
        self.stats.worker_busy_ns += sum.busy_ns;
        // Injected chaos delay is the net transport's deterministic
        // latency side-channel (there is no shared wall clock between
        // processes to measure real one-way latency against).
        self.stats.channel_ns_total += sum.delay_ns_total;
        self.stats.channel_ns_max = self.stats.channel_ns_max.max(sum.delay_ns_max);
        self.stats.channel_samples += sum.delayed;
        self.sent_deliveries = 0;
        self.sent_executions = 0;
        self.sent_reports = 0;
        self.sent_queries = 0;
        self.recv_qreplies = 0;
        self.sent_decisions = 0;
        if matched {
            self.inflight = 0;
        }
        report
    }

    fn round_barrier(&mut self, round: u64) {
        self.flush_all();
        let mut marked: Vec<usize> = Vec::with_capacity(self.conns.len());
        for g in 0..self.conns.len() {
            if self.send(g, &Frame::RoundMark { round }) {
                marked.push(g);
            }
        }
        self.flush_all();
        let mut complete = marked.len() == self.conns.len();
        for g in marked {
            match self.recv(g) {
                Some(Frame::RoundAck { round: echoed }) if echoed == round => {}
                _ => complete = false,
            }
        }
        if !complete {
            self.stats.window_mismatches += 1;
        } else {
            self.inflight = 0;
        }
        self.stats.rounds += 1;
    }

    fn link_delay(&mut self, extra_ns: u64) {
        self.link_delay_ns = extra_ns;
    }

    fn publish_report(&mut self, generation: u64, report: &ServerReport) {
        if self.up.contains(&report.server) {
            let group = self.group_of(report.server);
            if self.send(
                group,
                &Frame::Report {
                    generation,
                    report: *report,
                },
            ) {
                self.sent_reports += 1;
            }
        }
        self.stats.control_reports += 1;
    }

    fn control(&mut self, msg: &ControlMsg) -> Vec<ControlReply> {
        match msg {
            ControlMsg::Query(q) => {
                self.stats.control_queries += 1;
                // One copy of the query per group owning an in-scope live
                // server, in ascending group order; QReplies are read back
                // synchronously in the same order. TCP FIFO plus
                // one-reply-per-query makes the pairing deterministic, so
                // reply order never depends on worker scheduling.
                let mut groups: BTreeSet<usize> = BTreeSet::new();
                for s in &q.scope {
                    if self.up.contains(s) {
                        groups.insert(self.group_of(*s));
                    }
                }
                let mut sent: Vec<usize> = Vec::with_capacity(groups.len());
                for &g in &groups {
                    if self.send(g, &Frame::Query { query: q.clone() }) {
                        self.sent_queries += 1;
                        sent.push(g);
                    }
                }
                self.flush_all();
                let mut replies = Vec::with_capacity(sent.len());
                for g in sent {
                    if let Some(Frame::QReply { reply }) = self.recv(g) {
                        // Count the reply's exact wire footprint (recv's
                        // byte tally is per-read, not per-frame).
                        self.scratch.clear();
                        Frame::QReply {
                            reply: reply.clone(),
                        }
                        .encode(&mut self.scratch);
                        self.stats.control_wire_bytes += self.scratch.len() as u64;
                        self.recv_qreplies += 1;
                        self.stats.control_replies += 1;
                        replies.push(reply);
                    }
                }
                replies
            }
            ControlMsg::Decision(d) => {
                self.stats.control_decisions += 1;
                // Decisions are broadcast: every group learns the round's
                // outcome even if none of its servers moved.
                for g in 0..self.conns.len() {
                    if self.send(
                        g,
                        &Frame::Decision {
                            decision: d.clone(),
                        },
                    ) {
                        self.sent_decisions += 1;
                    }
                }
                Vec::new()
            }
            ControlMsg::Reply(_) => Vec::new(),
        }
    }

    fn stats(&self) -> BackendStats {
        let mut s = self.stats;
        s.wall_ns = self.now_ns();
        s
    }

    fn shutdown(&mut self) {
        if self.shut {
            return;
        }
        self.shut = true;
        for g in 0..self.conns.len() {
            self.send(g, &Frame::Shutdown);
        }
        self.flush_all();
        for conn in &mut self.conns {
            // Closing our copies of the socket unblocks a worker stuck in
            // read even if the Shutdown frame never made it out.
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            let deadline = Instant::now() + EXIT_TIMEOUT;
            loop {
                match conn.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    _ => {
                        let _ = conn.child.kill();
                        let _ = conn.child.wait();
                        break;
                    }
                }
            }
        }
    }
}

impl Drop for NetBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn read_hello_accepts_matching_version() {
        let bytes = Frame::Hello {
            group: 3,
            wire_version: WIRE_VERSION,
        }
        .encode_vec();
        let mut r = Cursor::new(bytes);
        let mut fb = FrameBuffer::new();
        assert_eq!(read_hello(&mut r, &mut fb).unwrap(), 3);
    }

    #[test]
    fn read_hello_rejects_old_header_version() {
        // A v1 worker's Hello: header version 1, payload just the group
        // (v1 had no version field). Must fail as a named version
        // mismatch before any payload parsing.
        let mut bytes = vec![0, 0, 0, 6, 1, 0x01];
        bytes.extend(9u32.to_be_bytes());
        let mut r = Cursor::new(bytes);
        let mut fb = FrameBuffer::new();
        let err = read_hello(&mut r, &mut fb).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("wire version mismatch") && msg.contains("v1"),
            "got: {msg}"
        );
    }

    #[test]
    fn read_hello_rejects_mismatched_hello_field() {
        // Header version matches but the Hello's announced version does
        // not — the negotiation field, not the codec, catches this one.
        let bytes = Frame::Hello {
            group: 0,
            wire_version: WIRE_VERSION + 1,
        }
        .encode_vec();
        let mut r = Cursor::new(bytes);
        let mut fb = FrameBuffer::new();
        let err = read_hello(&mut r, &mut fb).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err
            .to_string()
            .contains("wire version mismatch in handshake"));
    }

    #[test]
    fn read_hello_rejects_non_hello_frame() {
        let bytes = Frame::Shutdown.encode_vec();
        let mut r = Cursor::new(bytes);
        let mut fb = FrameBuffer::new();
        let err = read_hello(&mut r, &mut fb).unwrap_err();
        assert!(err.to_string().contains("expected Hello"));
    }

    /// All `PLASMA_NET_GROUPS` cases in one test: the variable is process
    /// global, so splitting these across tests would race under the
    /// parallel test runner.
    #[test]
    fn net_groups_env_is_validated_at_parse_time() {
        std::env::remove_var("PLASMA_NET_GROUPS");
        assert_eq!(NetConfig::from_env().unwrap().groups, 2);

        std::env::set_var("PLASMA_NET_GROUPS", "3");
        assert_eq!(NetConfig::from_env().unwrap().groups, 3);

        for bad in ["0", "-1", "two", ""] {
            std::env::set_var("PLASMA_NET_GROUPS", bad);
            let err = NetConfig::from_env().unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            let msg = err.to_string();
            assert!(
                msg.contains("PLASMA_NET_GROUPS") && msg.contains(bad),
                "error must name the variable and value: {msg}"
            );
        }
        std::env::remove_var("PLASMA_NET_GROUPS");
    }

    #[test]
    fn zero_groups_is_rejected_at_launch() {
        let cfg = NetConfig {
            groups: 0,
            worker_bin: None,
        };
        let err = match NetBackend::launch(cfg) {
            Err(e) => e,
            Ok(_) => panic!("groups = 0 must be rejected"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("at least 1 worker group"));
    }
}
