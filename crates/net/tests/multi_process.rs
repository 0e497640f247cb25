//! Multi-process acceptance tests: the net backend must actually cross
//! process boundaries (distinct worker PIDs), preserve the exactly-once
//! window/round semantics of the thread backend, and leave no orphaned
//! `plasma-server` processes behind.

use plasma_backend::{BackendKind, Delivery, Execution, ExecutionBackend};
use plasma_net::{NetBackend, NetConfig};
use std::path::PathBuf;

fn config(groups: u32) -> NetConfig {
    NetConfig {
        groups,
        worker_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_plasma-server"))),
    }
}

/// Drives the same event stream the backend crate's unit parity test uses
/// and checks the window balances across two real processes.
#[test]
fn two_processes_carry_and_verify_a_window() {
    let mut b = NetBackend::launch(config(2)).expect("launch workers");

    // ≥ 2 distinct worker processes, none of which is this process: the
    // acceptance criterion that the backend is genuinely multi-process.
    let pids = b.worker_pids();
    assert_eq!(pids.len(), 2);
    assert_ne!(pids[0], pids[1], "groups must be separate processes");
    assert!(pids.iter().all(|&p| p != std::process::id()));
    assert_eq!(b.stats().workers_spawned, 2);

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
    assert!(w.matched, "window must verify exactly-once carriage");
    assert_eq!(w.deliveries, 10);
    assert_eq!(w.executions, 10);
    b.round_barrier(1);

    let s = b.stats();
    assert_eq!(s.kindless(), (10, 10, 1, 0, 1));
    assert!(s.frames_sent > 0 && s.frames_received > 0);
    assert!(s.wire_bytes_sent > 0 && s.wire_bytes_received > 0);
    assert!(s.max_inflight_frames > 0);
    assert_eq!(b.kind(), BackendKind::Net);

    b.shutdown();
}

/// Extension trait keeping the assertion above readable.
trait Kindless {
    fn kindless(&self) -> (u64, u64, u64, u64, u64);
}

impl Kindless for plasma_backend::BackendStats {
    fn kindless(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.deliveries,
            self.executions,
            self.windows_closed,
            self.window_mismatches,
            self.rounds,
        )
    }
}

/// A server retired mid-window still has its partial carriage folded into
/// the next barrier — the retired-drain path.
#[test]
fn retired_server_carriage_folds_into_next_window() {
    let mut b = NetBackend::launch(config(2)).expect("launch workers");
    b.server_up(0, 2);
    b.server_up(1, 2);
    for i in 0..6u64 {
        b.transmit(Delivery {
            server: (i % 2) as u32,
            actor: i,
            bytes: 32,
            remote: false,
        });
    }
    // Server 1 crashes mid-window: its 3 deliveries must not vanish.
    b.server_down(1);
    let w = b.window_close(1);
    assert!(w.matched, "retired carriage must balance the window");
    assert_eq!(w.deliveries, 6);

    // Deliveries to a down server are dropped coordinator-side, exactly
    // like the thread backend's unknown-server semantics.
    b.transmit(Delivery {
        server: 1,
        actor: 99,
        bytes: 32,
        remote: false,
    });
    let w2 = b.window_close(2);
    assert!(w2.matched);
    assert_eq!(w2.deliveries, 0);
    b.shutdown();
}

/// GEM control traffic rides the same per-group TCP connections: reports
/// published to workers come back bit-for-bit as query candidates, the
/// decision broadcast reaches every group, and the window barrier still
/// balances with control frames in flight.
#[test]
fn control_queries_cross_processes_and_balance_windows() {
    use plasma_backend::{ControlDecision, ControlQuery, MigrationOrder, ServerReport};
    let mut b = NetBackend::launch(config(2)).expect("launch workers");
    b.server_up(0, 2);
    b.server_up(1, 2);
    let mk = |server: u32, cpu: f64| ServerReport {
        server,
        vcpus: 2,
        actor_count: 3,
        mem_bytes: 1 << 30,
        total_speed_bits: 2.0f64.to_bits(),
        net_bps_bits: 1e9f64.to_bits(),
        cpu_bits: cpu.to_bits(),
        mem_bits: 0.25f64.to_bits(),
        net_bits: 0.1f64.to_bits(),
    };
    let r0 = mk(0, 0.9);
    let r1 = mk(1, 0.2);
    b.publish_report(7, &r0);
    b.publish_report(7, &r1);
    let q = ControlQuery {
        gem: 0,
        round: 1,
        generation: 7,
        scope: vec![1, 0],
    };
    let replies = b.query(&q);
    assert_eq!(
        replies.len(),
        2,
        "one reply per group with in-scope servers"
    );
    // Each group answers with only the servers it holds.
    assert_eq!(replies[0].candidates, vec![r0]);
    assert_eq!(replies[1].candidates, vec![r1]);
    // Reassembling candidates in scope order across the per-group replies
    // recovers exactly what was published — the bit-parity property the
    // EMR's merge step relies on.
    let mut merged = Vec::new();
    for &s in &q.scope {
        for rep in &replies {
            if let Some(c) = rep.candidates.iter().find(|c| c.server == s) {
                merged.push(*c);
            }
        }
    }
    assert_eq!(merged, vec![r1, r0]);
    b.decide(&ControlDecision {
        round: 1,
        grow: 1,
        shrink: 0,
        migrations: vec![MigrationOrder {
            actor: 5,
            src: 0,
            dst: 1,
        }],
    });
    let w = b.window_close(1);
    assert!(
        w.matched,
        "control carriage must balance the window barrier"
    );
    let s = b.stats();
    assert_eq!(s.control_reports, 2);
    assert_eq!(s.control_queries, 1);
    assert_eq!(s.control_replies, 2);
    assert_eq!(s.control_decisions, 1);
    assert!(s.control_wire_bytes > 0, "control frames must be accounted");
    b.shutdown();
}

/// Injected link delay is stamped onto remote deliveries and accounted as
/// deterministic transport latency — same numbers every run.
#[test]
fn link_delay_accounts_deterministic_transport_latency() {
    let collect = || {
        let mut b = NetBackend::launch(config(2)).expect("launch workers");
        b.server_up(0, 1);
        b.server_up(1, 1);
        b.link_delay(5_000);
        for i in 0..4u64 {
            b.transmit(Delivery {
                server: (i % 2) as u32,
                actor: i,
                bytes: 16,
                // Only remote deliveries ride the degraded link.
                remote: i % 2 == 1,
            });
        }
        b.link_delay(0);
        b.transmit(Delivery {
            server: 0,
            actor: 9,
            bytes: 16,
            remote: true,
        });
        let w = b.window_close(1);
        assert!(w.matched);
        let s = b.stats();
        b.shutdown();
        (s.channel_samples, s.channel_ns_total, s.channel_ns_max)
    };
    let a = collect();
    assert_eq!(a, (2, 10_000, 5_000));
    assert_eq!(
        a,
        collect(),
        "injected delay accounting must be deterministic"
    );
}

/// Shutdown reaps every worker: the child processes are gone afterwards
/// (the `net-parity` CI job checks the same property fleet-wide with
/// pgrep after the parity run).
#[test]
fn shutdown_leaves_no_orphan_workers() {
    let mut b = NetBackend::launch(config(3)).expect("launch workers");
    let pids = b.worker_pids();
    assert_eq!(pids.len(), 3);
    b.server_up(0, 1);
    b.window_close(1);
    b.shutdown();
    // Idempotent.
    b.shutdown();
    #[cfg(target_os = "linux")]
    for pid in pids {
        // Reaped children must not linger as live processes. (The PID
        // could in principle be recycled, but not in the microseconds
        // between wait() returning and this check.)
        let alive = std::path::Path::new(&format!("/proc/{pid}/stat")).exists()
            && std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .map(|s| !s.contains(") Z "))
                .unwrap_or(false);
        assert!(!alive, "worker {pid} still running after shutdown");
    }
}

/// Dropping the backend without an explicit shutdown still reaps workers.
#[test]
fn drop_shuts_down_workers() {
    let pids;
    {
        let mut b = NetBackend::launch(config(2)).expect("launch workers");
        pids = b.worker_pids();
        b.server_up(0, 1);
        b.transmit(Delivery {
            server: 0,
            actor: 1,
            bytes: 8,
            remote: false,
        });
    }
    #[cfg(target_os = "linux")]
    for pid in pids {
        let alive = std::path::Path::new(&format!("/proc/{pid}/stat")).exists()
            && std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .map(|s| !s.contains(") Z "))
                .unwrap_or(false);
        assert!(!alive, "worker {pid} survived Drop");
    }
    #[cfg(not(target_os = "linux"))]
    let _ = pids;
}
