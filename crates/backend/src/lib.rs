#![warn(missing_docs)]

//! Execution backends for the PLASMA runtime.
//!
//! Everything above this crate — the actor runtime, the EMR, compiled EPL
//! policies, chaos — plans and decides on *logical* state: the deterministic
//! event schedule, profiling snapshots, and the decision sequence they
//! produce. What varies between a simulated run and a deployed one is the
//! *carrier* underneath that logic: where the clock comes from, what a
//! message delivery physically is, where a service executes, and what closes
//! a profiling window. The [`ExecutionBackend`] trait abstracts exactly that
//! carrier surface:
//!
//! - **clock** — [`ExecutionBackend::monotonic_ns`]: virtual (identically
//!   zero offsets) under sim, a real monotonic clock under live.
//! - **transport** — [`ExecutionBackend::transmit`]: a counter under sim,
//!   a real cross-thread channel send under live.
//! - **spawn surface** — [`ExecutionBackend::server_up`] /
//!   [`ExecutionBackend::server_down`]: bookkeeping under sim, an OS worker
//!   thread per server under live.
//! - **windows and rounds** — [`ExecutionBackend::window_close`] /
//!   [`ExecutionBackend::round_barrier`]: no-ops under sim, real barriers
//!   under live that verify exactly-once carriage of every event.
//! - **control plane** — [`ExecutionBackend::publish_report`],
//!   [`ExecutionBackend::query`] and [`ExecutionBackend::decide`]: the
//!   LEM REPORT rows, the GEM's QUERY and the round's DECISION.
//!
//! The two implementations here are [`SimBackend`] (an adapter over the
//! `plasma-sim` event loop: the queue itself already *is* the carrier, so
//! the backend only audits) and [`LiveBackend`] (OS threads plus real
//! channels, conservatively time-stepped: the logical schedule stays
//! deterministic and single-threaded while every delivery and service is
//! carried to per-server worker threads over real channels and re-counted
//! at window barriers). Decision-relevant ordering is therefore identical
//! by construction — the parity the `backend-parity` CI job gates.
//!
//! A third implementation lives one crate up: `plasma-net`'s `NetBackend`
//! carries the same surface across real process boundaries — worker
//! processes over localhost TCP speaking the length-prefixed wire format
//! whose field codec is this crate's [`wire`] module. The `net-parity` CI
//! job extends the gate three ways (sim/live/net).
//!
//! The live and net carriers share their bookkeeping through [`carrier`]:
//! every worker runs a [`Lem`], and the coordinator checks each window
//! against a [`Tally`]. Every carrier holds report rows in a
//! [`HeldReports`].

pub mod carrier;
pub mod control;
pub mod live;
pub mod sim;
pub mod wire;

pub use carrier::{Lem, Tally, WindowCounters};
pub use control::{
    ControlDecision, ControlQuery, ControlReply, HeldReports, MigrationOrder, ServerReport,
};
pub use live::LiveBackend;
pub use sim::SimBackend;

/// Which execution backend carries a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// The discrete-event simulator carries everything (the default).
    #[default]
    Sim,
    /// OS threads and real channels carry deliveries and services.
    Live,
    /// Worker processes over localhost TCP carry deliveries and services
    /// on the `plasma-net` wire format (one process per server group).
    Net,
}

impl BackendKind {
    /// Parses `"sim"` / `"live"` / `"net"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "sim" => Some(BackendKind::Sim),
            "live" => Some(BackendKind::Live),
            "net" => Some(BackendKind::Net),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Live => "live",
            BackendKind::Net => "net",
        }
    }
}

/// One message delivery handed to the carrier.
///
/// Identifies the hosting server and target actor by raw id so the backend
/// stays below the actor crate in the dependency order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// The server the target actor resides on.
    pub server: u32,
    /// The target actor.
    pub actor: u64,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Whether the message crossed servers.
    pub remote: bool,
}

/// One message service handed to the carrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Execution {
    /// The server whose CPU lane runs the service.
    pub server: u32,
    /// The serviced actor.
    pub actor: u64,
    /// Simulated service time in nanoseconds (the live backend accounts it
    /// as busy time; it does not dilate wall-clock to simulated durations).
    pub service_ns: u64,
}

/// What one profiling-window barrier observed.
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowReport {
    /// The snapshot generation the window closed for.
    pub generation: u64,
    /// Deliveries the carrier confirmed for the window.
    pub deliveries: u64,
    /// Services the carrier confirmed for the window.
    pub executions: u64,
    /// Whether the carrier-side counts matched the coordinator's — the
    /// exactly-once check. Always `true` under sim.
    pub matched: bool,
}

/// Cumulative backend counters, exported as `backend.*` report scalars for
/// live runs (sim runs export nothing, keeping their reports byte-stable).
///
/// All wall-clock fields are measurement side-channels: they never feed
/// back into scheduling or decisions, and they are excluded from decision
/// digests and benchmark baselines.
#[derive(Clone, Copy, Debug, Default)]
pub struct BackendStats {
    /// Deliveries handed to the carrier.
    pub deliveries: u64,
    /// Services handed to the carrier.
    pub executions: u64,
    /// Profiling-window barriers completed.
    pub windows_closed: u64,
    /// Window barriers whose carrier counts diverged from the
    /// coordinator's (lost or duplicated carriage; gated to 0 by parity).
    pub window_mismatches: u64,
    /// Elasticity-round barriers completed.
    pub rounds: u64,
    /// Worker threads ever spawned.
    pub workers_spawned: u64,
    /// Wall-clock nanoseconds since the backend was created (0 under sim).
    pub wall_ns: u64,
    /// Simulated service time carried by workers, in nanoseconds.
    pub worker_busy_ns: u64,
    /// Total transport latency over sampled deliveries, ns. Wall-clock
    /// under live; deterministic *injected* (chaos link-degradation) delay
    /// under net.
    pub channel_ns_total: u64,
    /// Worst transport latency over sampled deliveries, ns.
    pub channel_ns_max: u64,
    /// Deliveries with a transport-latency sample.
    pub channel_samples: u64,
    /// Wire frames written by the coordinator (net backend only).
    pub frames_sent: u64,
    /// Wire frames read back by the coordinator (net backend only).
    pub frames_received: u64,
    /// Wire bytes written by the coordinator (net backend only).
    pub wire_bytes_sent: u64,
    /// Wire bytes read back by the coordinator (net backend only).
    pub wire_bytes_received: u64,
    /// Most frames ever outstanding between two carrier barriers (net
    /// backend only): frames written since the last fully-acked barrier.
    pub max_inflight_frames: u64,
    /// LEM report rows published to the carrier.
    pub control_reports: u64,
    /// GEM control queries carried.
    pub control_queries: u64,
    /// Query replies carried back. Carrier-dependent fan-out: one merged
    /// reply under sim, one per in-scope worker under live/net.
    pub control_replies: u64,
    /// Round decisions broadcast.
    pub control_decisions: u64,
    /// Wire bytes of control-plane traffic, both directions (net backend
    /// only; 0 under sim/live where control rides channels, not bytes).
    pub control_wire_bytes: u64,
}

impl BackendStats {
    /// Mean wall-clock transport latency in microseconds (0 when no
    /// samples were taken, e.g. under sim).
    pub fn channel_latency_us_mean(&self) -> f64 {
        if self.channel_samples == 0 {
            0.0
        } else {
            self.channel_ns_total as f64 / self.channel_samples as f64 / 1e3
        }
    }
}

/// The carrier surface under the actor runtime.
///
/// # Contract
///
/// The caller (the runtime's single-threaded coordinator) promises:
///
/// - [`ExecutionBackend::server_up`] precedes any [`Delivery`] or
///   [`Execution`] naming that server; [`ExecutionBackend::server_down`]
///   ends the server's stream (a later `server_up` re-opens it — reboots).
/// - [`ExecutionBackend::window_close`] is called once per profiling
///   window, after the window's last delivery and before the next window's
///   first; `generation` strictly increases.
/// - Nothing the backend returns may alter logical scheduling: clock reads
///   and window reports feed measurements only, never decisions. This is
///   what makes sim/live decision sequences comparable at all.
///
/// The backend promises in return: `window_close` confirms every event of
/// the window reached its carrier exactly once (`matched`), and
/// `monotonic_ns` never decreases.
pub trait ExecutionBackend {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// Nanoseconds on the backend's monotonic clock. Sim returns 0 —
    /// virtual time lives in the event queue, and nothing wall-clock
    /// dependent may leak into simulated results.
    fn monotonic_ns(&self) -> u64;

    /// Opens (or re-opens, after a crash/reboot) a server's carrier.
    fn server_up(&mut self, server: u32, vcpus: u32);

    /// Closes a server's carrier, draining its in-flight accounting.
    fn server_down(&mut self, server: u32);

    /// Carries one message delivery.
    fn transmit(&mut self, delivery: Delivery);

    /// Carries one message service.
    fn execute(&mut self, execution: Execution);

    /// Closes a profiling window: barriers all carriers and verifies the
    /// window's event counts arrived exactly once.
    fn window_close(&mut self, generation: u64) -> WindowReport;

    /// Barriers all carriers at an elasticity-round boundary.
    fn round_barrier(&mut self, round: u64);

    /// Publishes one server's LEM report row to the carrier — the REPORT
    /// step of the control plane. Called once per running server when a
    /// profiling window closes (and once, with a zero-utilization row, when
    /// a server boots mid-window), before any query against `generation`.
    /// The row must be a byte-exact copy of the coordinator's snapshot
    /// data: carriers hold it verbatim and echo it back in query replies.
    fn publish_report(&mut self, generation: u64, report: &ServerReport);

    /// Carries one GEM query and returns the carriers' replies.
    ///
    /// The call is synchronous: the carrier routes the query to every LEM
    /// holding in-scope reports and returns their replies in a
    /// deterministic order (scope-group order under net, server order
    /// under live, one merged reply under sim).
    ///
    /// This is the one deliberate relaxation of the "nothing the backend
    /// returns may alter logical scheduling" rule: replies *do* feed the
    /// GEM's decision — but every candidate row is a bit-exact copy of
    /// snapshot state the coordinator itself published, so the decision
    /// sequence remains a pure function of logical state (the N-way parity
    /// gate holds the carriages to that).
    fn query(&mut self, query: &ControlQuery) -> Vec<ControlReply>;

    /// Broadcasts a round's decision to every carrier. Workers count it;
    /// nothing feeds back.
    fn decide(&mut self, decision: &ControlDecision);

    /// Announces the currently injected cross-server transport delay in
    /// nanoseconds (`0` clears it). The chaos layer calls this when a
    /// link-degradation fault is applied or healed, so transport-level
    /// carriers can map the fault onto their own medium — the net backend
    /// stamps subsequent remote deliveries with the delay and accounts it
    /// as deterministic transport latency. Purely a measurement
    /// side-channel: it must never alter carriage or logical scheduling.
    /// Default: ignored (sim and live model the delay in the event queue).
    fn link_delay(&mut self, _extra_ns: u64) {}

    /// Snapshot of the cumulative counters.
    fn stats(&self) -> BackendStats;

    /// Stops the carrier (joins worker threads under live). Idempotent.
    fn shutdown(&mut self);
}

/// Constructs the in-process backend for `kind`.
///
/// # Panics
///
/// [`BackendKind::Net`] cannot be constructed here: it spawns worker
/// *processes* and lives in the `plasma-net` crate (above this one in the
/// dependency order). The actor runtime routes `Net` to
/// `plasma_net::NetBackend::launch` itself; calling `make(Net)` directly
/// panics with a pointer there.
pub fn make(kind: BackendKind) -> Box<dyn ExecutionBackend> {
    match kind {
        BackendKind::Sim => Box::new(SimBackend::new()),
        BackendKind::Live => Box::new(LiveBackend::new()),
        BackendKind::Net => {
            panic!("BackendKind::Net is constructed by plasma_net::NetBackend::launch")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parses_and_names() {
        assert_eq!(BackendKind::parse("sim"), Some(BackendKind::Sim));
        assert_eq!(BackendKind::parse("LIVE"), Some(BackendKind::Live));
        assert_eq!(BackendKind::parse("net"), Some(BackendKind::Net));
        assert_eq!(BackendKind::parse("tcp"), None);
        assert_eq!(BackendKind::Sim.name(), "sim");
        assert_eq!(BackendKind::Live.name(), "live");
        assert_eq!(BackendKind::Net.name(), "net");
        assert_eq!(BackendKind::default(), BackendKind::Sim);
    }

    /// Both backends, driven with the same event stream, agree on every
    /// logical counter — the unit-level version of the parity property.
    #[test]
    fn backends_agree_on_logical_counters() {
        let mut counts = Vec::new();
        for kind in [BackendKind::Sim, BackendKind::Live] {
            let mut b = make(kind);
            b.server_up(0, 2);
            b.server_up(1, 2);
            for i in 0..10u64 {
                b.transmit(Delivery {
                    server: (i % 2) as u32,
                    actor: i,
                    bytes: 64,
                    remote: i % 2 == 1,
                });
                b.execute(Execution {
                    server: (i % 2) as u32,
                    actor: i,
                    service_ns: 1_000,
                });
            }
            let w = b.window_close(1);
            assert!(w.matched, "{kind:?} window must verify");
            b.round_barrier(1);
            b.server_down(1);
            b.shutdown();
            let s = b.stats();
            counts.push((s.deliveries, s.executions, s.windows_closed, s.rounds));
        }
        assert_eq!(counts[0], counts[1]);
    }

    /// Both in-process carriers hand back the same merged candidate rows
    /// for a query — the control-plane half of the parity property.
    #[test]
    fn backends_agree_on_control_candidates() {
        let query = ControlQuery {
            gem: 0,
            round: 1,
            generation: 1,
            scope: vec![1, 0],
        };
        let mut merged = Vec::new();
        for kind in [BackendKind::Sim, BackendKind::Live] {
            let mut b = make(kind);
            b.server_up(0, 2);
            b.server_up(1, 2);
            for s in 0..2u32 {
                b.publish_report(
                    1,
                    &ServerReport {
                        server: s,
                        vcpus: 2,
                        actor_count: u64::from(s),
                        mem_bytes: 1 << 30,
                        total_speed_bits: 1000.0_f64.to_bits(),
                        net_bps_bits: 1e9_f64.to_bits(),
                        cpu_bits: (0.3 + f64::from(s) * 0.2).to_bits(),
                        mem_bits: 0.1_f64.to_bits(),
                        net_bits: 0.0_f64.to_bits(),
                    },
                );
            }
            let replies = b.query(&query);
            assert!(!replies.is_empty(), "{kind:?} must answer a query");
            // Reassemble candidates in scope order, as the GEM does.
            let mut rows = Vec::new();
            for &s in &query.scope {
                for r in &replies {
                    if let Some(c) = r.candidates.iter().find(|c| c.server == s) {
                        rows.push(*c);
                    }
                }
            }
            b.decide(&ControlDecision {
                round: 1,
                grow: 0,
                shrink: 0,
                migrations: vec![MigrationOrder {
                    actor: 7,
                    src: 0,
                    dst: 1,
                }],
            });
            assert!(b.window_close(2).matched, "{kind:?} control carriage");
            let s = b.stats();
            assert_eq!((s.control_reports, s.control_queries), (2, 1));
            assert_eq!(s.control_decisions, 1);
            b.shutdown();
            merged.push(rows);
        }
        assert_eq!(merged[0].len(), 2);
        assert_eq!(merged[0], merged[1]);
    }
}
