//! The live carrier: OS threads and real channels, conservatively stepped.
//!
//! A deployed PLASMA runtime cannot free-run its servers and still promise
//! the simulator's decision sequence — real thread interleaving is not
//! deterministic. This backend takes the conservative time-stepped design
//! instead: the logical event schedule stays single-threaded and
//! deterministic in the coordinator (the actor runtime), while the *carriage*
//! of every decision-relevant event is real. Each up server owns an OS
//! worker thread fed over a real channel; every delivery and service is
//! shipped to its server's worker, which does the per-window accounting and
//! wall-clock latency measurement on its own thread.
//!
//! Correctness is enforced at window barriers: closing a profiling window
//! sends a FIFO marker down every worker channel and waits for the acks.
//! Because the channels are FIFO, the ack proves every event sent before
//! the marker was received before it; the coordinator then compares the
//! workers' counts against its own. Any loss or duplication shows up as a
//! `window_mismatches` increment — which the parity tests and CI gate at 0.
//!
//! Wall-clock quantities (transport latency, busy time) are measured and
//! reported separately; they never influence the logical schedule, which is
//! what makes live decision sequences replay the simulator's exactly.

use std::collections::BTreeMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::carrier::{Lem, Tally, WindowCounters};
use crate::control::{ControlDecision, ControlQuery, ControlReply};
use crate::{
    BackendKind, BackendStats, Delivery, Execution, ExecutionBackend, ServerReport, WindowReport,
};

/// How long a barrier waits for one worker ack before declaring the window
/// broken. Generous: a worker only does counter arithmetic per message.
const ACK_TIMEOUT: Duration = Duration::from_secs(10);

enum WorkerMsg {
    Deliver {
        /// Coordinator clock at send; the worker's receive stamp minus this
        /// is the real cross-thread transport latency.
        sent_ns: u64,
    },
    Execute {
        service_ns: u64,
    },
    /// FIFO window barrier: report and reset the window counters.
    WindowMark {
        ack: Sender<WindowCounters>,
    },
    /// FIFO round barrier: prove liveness at an elasticity boundary.
    RoundMark {
        ack: Sender<()>,
    },
    /// LEM report row for the worker's own server.
    Report {
        generation: u64,
        report: ServerReport,
    },
    /// GEM query; the worker answers from the report rows it holds.
    Query {
        query: ControlQuery,
        ack: Sender<ControlReply>,
    },
    /// Round decision broadcast (counted only on this carrier).
    Decision,
    /// Drain the partial window and exit (the server went down).
    Retire {
        ack: Sender<WindowCounters>,
    },
}

struct WorkerHandle {
    tx: Sender<WorkerMsg>,
    join: JoinHandle<()>,
}

/// The OS-thread carrier. See the [module docs](self).
pub struct LiveBackend {
    epoch: Instant,
    workers: BTreeMap<u32, WorkerHandle>,
    stats: BackendStats,
    tally: Tally,
    shut: bool,
}

impl Default for LiveBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl LiveBackend {
    /// Creates the live carrier; workers spawn as servers come up.
    pub fn new() -> Self {
        LiveBackend {
            epoch: Instant::now(),
            workers: BTreeMap::new(),
            stats: BackendStats::default(),
            tally: Tally::default(),
            shut: false,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sends `msg` to `server`'s worker; `false` when it has none.
    fn send(&self, server: u32, msg: WorkerMsg) -> bool {
        self.workers
            .get(&server)
            .is_some_and(|h| h.tx.send(msg).is_ok())
    }

    /// Sends a FIFO mark to every worker and collects the acks. The
    /// barrier is complete when every worker acked in time.
    fn barrier<T>(&self, mark: impl Fn(Sender<T>) -> WorkerMsg) -> (Vec<T>, bool) {
        let (ack_tx, ack_rx) = unbounded();
        let marked = self
            .workers
            .values()
            .filter(|h| h.tx.send(mark(ack_tx.clone())).is_ok())
            .count();
        drop(ack_tx);
        let acks: Vec<T> = (0..marked)
            .map_while(|_| ack_rx.recv_timeout(ACK_TIMEOUT).ok())
            .collect();
        let complete = acks.len() == self.workers.len();
        (acks, complete)
    }
}

impl ExecutionBackend for LiveBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Live
    }

    fn monotonic_ns(&self) -> u64 {
        self.now_ns()
    }

    fn server_up(&mut self, server: u32, _vcpus: u32) {
        // Re-announcing a live server (initial boot paths overlap with
        // reboot paths upstream) must not restart its carrier.
        if self.workers.contains_key(&server) {
            return;
        }
        let (tx, rx) = unbounded();
        let epoch = self.epoch;
        let join = std::thread::Builder::new()
            .name(format!("plasma-srv-{server}"))
            .spawn(move || worker_loop(epoch, server, rx))
            .expect("spawn server worker thread");
        self.workers.insert(server, WorkerHandle { tx, join });
        self.stats.workers_spawned += 1;
    }

    fn server_down(&mut self, server: u32) {
        let Some(handle) = self.workers.remove(&server) else {
            return;
        };
        // Drain the worker's partial window before it exits, so the next
        // barrier still balances: a crashed server's delivered messages were
        // delivered, even though the server is gone by window close.
        let (ack_tx, ack_rx) = unbounded();
        if handle.tx.send(WorkerMsg::Retire { ack: ack_tx }).is_ok() {
            if let Ok(w) = ack_rx.recv_timeout(ACK_TIMEOUT) {
                self.tally.retire(&w);
            }
        }
        drop(handle.tx);
        let _ = handle.join.join();
    }

    fn transmit(&mut self, d: Delivery) {
        let sent_ns = self.now_ns();
        if self.send(d.server, WorkerMsg::Deliver { sent_ns }) {
            self.tally.sent.deliveries += 1;
        }
        self.stats.deliveries += 1;
    }

    fn execute(&mut self, e: Execution) {
        let service_ns = e.service_ns;
        if self.send(e.server, WorkerMsg::Execute { service_ns }) {
            self.tally.sent.executions += 1;
        }
        self.stats.executions += 1;
    }

    fn window_close(&mut self, generation: u64) -> WindowReport {
        let (acks, complete) = self.barrier(|ack| WorkerMsg::WindowMark { ack });
        let mut sum = WindowCounters::default();
        for w in &acks {
            sum.fold(w);
        }
        self.tally.close(generation, sum, complete, &mut self.stats)
    }

    fn round_barrier(&mut self, _round: u64) {
        let (_, complete) = self.barrier(|ack| WorkerMsg::RoundMark { ack });
        if !complete {
            self.stats.window_mismatches += 1;
        }
        self.stats.rounds += 1;
    }

    fn publish_report(&mut self, generation: u64, report: &ServerReport) {
        let report = *report;
        if self.send(report.server, WorkerMsg::Report { generation, report }) {
            self.tally.sent.reports += 1;
        }
        self.stats.control_reports += 1;
    }

    fn query(&mut self, query: &ControlQuery) -> Vec<ControlReply> {
        self.stats.control_queries += 1;
        // Route the query to each in-scope worker with its own ack channel
        // and collect in scope order, so the reply sequence is
        // deterministic regardless of thread interleaving.
        let mut pending = Vec::new();
        for &server in &query.scope {
            let (ack, rx) = unbounded();
            let query = query.clone();
            if self.send(server, WorkerMsg::Query { query, ack }) {
                self.tally.sent.queries += 1;
                pending.push(rx);
            }
        }
        let replies: Vec<ControlReply> = pending
            .iter()
            .filter_map(|rx| rx.recv_timeout(ACK_TIMEOUT).ok())
            .collect();
        self.tally.sent.replies += replies.len() as u64;
        self.stats.control_replies += replies.len() as u64;
        replies
    }

    fn decide(&mut self, _decision: &ControlDecision) {
        self.stats.control_decisions += 1;
        let reached = self
            .workers
            .values()
            .filter(|h| h.tx.send(WorkerMsg::Decision).is_ok())
            .count();
        self.tally.sent.decisions += reached as u64;
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
        let servers: Vec<u32> = self.workers.keys().copied().collect();
        for server in servers {
            self.server_down(server);
        }
    }
}

impl Drop for LiveBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The per-server worker: a [`Lem`] hosting one server, fed over the
/// worker's channel. It answers queries from its own server's report row.
fn worker_loop(epoch: Instant, server: u32, rx: Receiver<WorkerMsg>) {
    let mut lem = Lem::default();
    lem.server_up(server);
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Deliver { sent_ns } => {
                let latency = (epoch.elapsed().as_nanos() as u64).saturating_sub(sent_ns);
                lem.deliver(server, Some(latency));
            }
            WorkerMsg::Execute { service_ns } => lem.execute(server, service_ns),
            WorkerMsg::WindowMark { ack } => {
                let _ = ack.send(lem.close_window());
            }
            WorkerMsg::RoundMark { ack } => {
                let _ = ack.send(());
            }
            WorkerMsg::Report { generation, report } => lem.report(generation, report),
            WorkerMsg::Query { query, ack } => {
                let _ = ack.send(lem.query(&query));
            }
            WorkerMsg::Decision => lem.decision(),
            WorkerMsg::Retire { ack } => {
                let _ = ack.send(lem.close_window());
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(b: &mut LiveBackend, server: u32, n: u64) {
        for i in 0..n {
            b.transmit(Delivery {
                server,
                actor: i,
                bytes: 8,
                remote: false,
            });
        }
    }

    #[test]
    fn window_barrier_verifies_exactly_once() {
        let mut b = LiveBackend::new();
        b.server_up(0, 2);
        b.server_up(1, 2);
        deliver(&mut b, 0, 5);
        deliver(&mut b, 1, 7);
        b.execute(Execution {
            server: 0,
            actor: 0,
            service_ns: 2_000,
        });
        let w = b.window_close(1);
        assert!(w.matched);
        assert_eq!(w.deliveries, 12);
        assert_eq!(w.executions, 1);
        // Counters reset per window.
        let w2 = b.window_close(2);
        assert!(w2.matched);
        assert_eq!(w2.deliveries, 0);
        b.shutdown();
        let s = b.stats();
        assert_eq!(s.window_mismatches, 0);
        assert_eq!(s.deliveries, 12);
        assert_eq!(s.worker_busy_ns, 2_000);
        assert_eq!(s.channel_samples, 12);
    }

    #[test]
    fn server_down_mid_window_still_balances() {
        let mut b = LiveBackend::new();
        b.server_up(0, 2);
        b.server_up(1, 2);
        deliver(&mut b, 1, 4);
        // Server 1 crashes before the window closes; its 4 deliveries must
        // still be confirmed by the barrier via the retired accounting.
        b.server_down(1);
        deliver(&mut b, 0, 3);
        let w = b.window_close(1);
        assert!(w.matched, "retired counts keep the barrier balanced");
        assert_eq!(w.deliveries, 7);
        b.shutdown();
        assert_eq!(b.stats().window_mismatches, 0);
    }

    #[test]
    fn reboot_reopens_a_carrier() {
        let mut b = LiveBackend::new();
        b.server_up(3, 1);
        b.server_down(3);
        b.server_up(3, 1);
        deliver(&mut b, 3, 2);
        let w = b.window_close(1);
        assert!(w.matched);
        assert_eq!(w.deliveries, 2);
        assert_eq!(b.stats().workers_spawned, 2);
        b.shutdown();
    }

    #[test]
    fn rounds_and_clock_advance() {
        let mut b = LiveBackend::new();
        b.server_up(0, 1);
        let t0 = b.monotonic_ns();
        b.round_barrier(1);
        b.round_barrier(2);
        assert!(b.monotonic_ns() >= t0);
        assert_eq!(b.stats().rounds, 2);
        assert_eq!(b.stats().window_mismatches, 0);
        b.shutdown();
        // Idempotent.
        b.shutdown();
    }

    #[test]
    fn transmit_to_unknown_server_never_wedges_the_barrier() {
        let mut b = LiveBackend::new();
        b.server_up(0, 1);
        // No worker for server 9: the send is dropped on the coordinator
        // side and excluded from the coordinator tally, so the barrier
        // still balances.
        b.transmit(Delivery {
            server: 9,
            actor: 0,
            bytes: 1,
            remote: true,
        });
        let w = b.window_close(1);
        assert!(w.matched);
        assert_eq!(w.deliveries, 0);
        assert_eq!(b.stats().deliveries, 1);
        b.shutdown();
    }
}
