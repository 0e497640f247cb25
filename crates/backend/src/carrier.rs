//! Carrier bookkeeping shared by the live and net backends.
//!
//! PLASMA's LEM (§4, Algs. 1–2) counts what its server carries, holds the
//! server's REPORT row and answers the GEM's QUERY; the coordinator checks
//! those counts at every window barrier. Both real carriers run exactly
//! that logic, so it lives here once:
//!
//! - [`Lem`] runs where the carriage lands — a live worker thread or a
//!   `plasma-server` process. It keeps one [`WindowCounters`] bucket per
//!   hosted server, the worker's control counts, and the held report rows.
//! - [`Tally`] runs in the coordinator. It counts what was handed to the
//!   carriers, collects the buckets drained from servers that went down
//!   mid-window, and at the barrier compares its counts against the
//!   workers' acks — the exactly-once check.
//!
//! [`WindowCounters`] is the bucket both sides count in; under net it is
//! also the payload of the `WindowAck` and `ServerRetired` frames (its
//! codec sits with the other field codecs in [`crate::wire`]).
//!
//! The sim backend uses neither: its event queue delivers exactly once by
//! construction, and a per-server map on its delivery path would cost time
//! for nothing.

use std::collections::BTreeMap;

use crate::control::{ControlQuery, ControlReply, HeldReports, ServerReport};
use crate::{BackendStats, WindowReport};

/// What a carrier counted within one profiling window: per server on the
/// worker side, summed in a barrier ack, or sent on the coordinator side.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowCounters {
    /// Deliveries carried.
    pub deliveries: u64,
    /// Services carried.
    pub executions: u64,
    /// Simulated service time carried, ns.
    pub busy_ns: u64,
    /// Transport latency summed over sampled deliveries, ns: measured
    /// cross-thread latency under live, the injected chaos link delay
    /// under net.
    pub latency_ns_total: u64,
    /// Worst transport latency on one sampled delivery, ns.
    pub latency_ns_max: u64,
    /// Deliveries with a latency sample.
    pub latency_samples: u64,
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
        self.latency_ns_total += w.latency_ns_total;
        self.latency_ns_max = self.latency_ns_max.max(w.latency_ns_max);
        self.latency_samples += w.latency_samples;
        self.reports += w.reports;
        self.queries += w.queries;
        self.replies += w.replies;
        self.decisions += w.decisions;
    }

    /// The six carriage counts the exactly-once check compares.
    fn carried(&self) -> [u64; 6] {
        [
            self.deliveries,
            self.executions,
            self.reports,
            self.queries,
            self.replies,
            self.decisions,
        ]
    }
}

/// The worker-side LEM: per-server window buckets, the worker's control
/// counts (queries and decisions reach a worker, not a server) and the
/// report rows it answers queries from.
#[derive(Debug, Default)]
pub struct Lem {
    servers: BTreeMap<u32, WindowCounters>,
    control: WindowCounters,
    held: HeldReports,
}

impl Lem {
    /// Opens a bucket for `server` (re-announcing keeps the open one).
    pub fn server_up(&mut self, server: u32) {
        self.servers.entry(server).or_default();
    }

    /// Retires `server`: drops its held row and returns its partial
    /// window, which the coordinator folds into the next barrier.
    pub fn server_down(&mut self, server: u32) -> WindowCounters {
        self.held.remove(server);
        self.servers.remove(&server).unwrap_or_default()
    }

    /// Counts one delivery to `server`, with its transport latency when
    /// the carrier sampled one.
    pub fn deliver(&mut self, server: u32, latency_ns: Option<u64>) {
        let w = self.servers.entry(server).or_default();
        w.deliveries += 1;
        if let Some(ns) = latency_ns {
            w.latency_ns_total += ns;
            w.latency_ns_max = w.latency_ns_max.max(ns);
            w.latency_samples += 1;
        }
    }

    /// Counts one service on `server`.
    pub fn execute(&mut self, server: u32, service_ns: u64) {
        let w = self.servers.entry(server).or_default();
        w.executions += 1;
        w.busy_ns += service_ns;
    }

    /// Holds one published report row and counts it.
    pub fn report(&mut self, generation: u64, report: ServerReport) {
        self.servers.entry(report.server).or_default().reports += 1;
        self.held.publish(generation, report);
    }

    /// Answers a GEM query from the held rows, counting the query and its
    /// reply.
    pub fn query(&mut self, query: &ControlQuery) -> ControlReply {
        self.control.queries += 1;
        self.control.replies += 1;
        self.held.answer(query)
    }

    /// Counts one round decision.
    pub fn decision(&mut self) {
        self.control.decisions += 1;
    }

    /// Sums and resets every bucket and the control counts: the window
    /// barrier's ack.
    pub fn close_window(&mut self) -> WindowCounters {
        let mut sum = std::mem::take(&mut self.control);
        for w in self.servers.values_mut() {
            sum.fold(&std::mem::take(w));
        }
        sum
    }
}

/// The coordinator-side tally one window barrier is checked against.
#[derive(Debug, Default)]
pub struct Tally {
    /// What the coordinator handed to live carriers this window: the
    /// deliveries, executions, reports, queries and decisions it sent and
    /// the query replies it received. Only the carriage counts are read.
    pub sent: WindowCounters,
    retired: WindowCounters,
}

impl Tally {
    /// Folds a bucket drained from a server that went down mid-window;
    /// its carriage still counts toward the next barrier.
    pub fn retire(&mut self, drained: &WindowCounters) {
        self.retired.fold(drained);
    }

    /// Closes the window: folds the retired buckets into the workers'
    /// summed `acked` counters, checks exactly-once carriage (every ack
    /// arrived — `complete` — and every carriage count matches what was
    /// sent), records the outcome and the measured side-channels in
    /// `stats`, and resets for the next window.
    pub fn close(
        &mut self,
        generation: u64,
        mut acked: WindowCounters,
        complete: bool,
        stats: &mut BackendStats,
    ) -> WindowReport {
        acked.fold(&std::mem::take(&mut self.retired));
        let sent = std::mem::take(&mut self.sent);
        let matched = complete && acked.carried() == sent.carried();
        stats.windows_closed += 1;
        if !matched {
            stats.window_mismatches += 1;
        }
        stats.worker_busy_ns += acked.busy_ns;
        stats.channel_ns_total += acked.latency_ns_total;
        stats.channel_ns_max = stats.channel_ns_max.max(acked.latency_ns_max);
        stats.channel_samples += acked.latency_samples;
        WindowReport {
            generation,
            deliveries: acked.deliveries,
            executions: acked.executions,
            matched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(server: u32) -> ServerReport {
        ServerReport {
            server,
            vcpus: 2,
            ..ServerReport::default()
        }
    }

    fn query() -> ControlQuery {
        ControlQuery {
            gem: 0,
            round: 1,
            generation: 1,
            scope: vec![0, 1, 2, 3],
        }
    }

    /// Two servers' worth of balanced carriage: 2 deliveries, 1 execution,
    /// 1 report, 1 query with its reply, 1 decision.
    fn balanced() -> (Lem, Tally) {
        let mut lem = Lem::default();
        let mut tally = Tally::default();
        lem.server_up(0);
        lem.server_up(1);
        lem.deliver(0, Some(40));
        lem.deliver(1, None);
        lem.execute(1, 500);
        lem.report(1, row(0));
        lem.query(&query());
        lem.decision();
        tally.sent = WindowCounters {
            deliveries: 2,
            executions: 1,
            reports: 1,
            queries: 1,
            replies: 1,
            decisions: 1,
            ..WindowCounters::default()
        };
        (lem, tally)
    }

    fn close(lem: &mut Lem, tally: &mut Tally, complete: bool) -> (WindowReport, BackendStats) {
        let mut stats = BackendStats::default();
        let report = tally.close(7, lem.close_window(), complete, &mut stats);
        (report, stats)
    }

    #[test]
    fn balanced_window_matches_and_feeds_stats() {
        let (mut lem, mut tally) = balanced();
        let (w, stats) = close(&mut lem, &mut tally, true);
        assert!(w.matched);
        assert_eq!((w.generation, w.deliveries, w.executions), (7, 2, 1));
        assert_eq!((stats.windows_closed, stats.window_mismatches), (1, 0));
        assert_eq!(stats.worker_busy_ns, 500);
        assert_eq!(
            (
                stats.channel_ns_total,
                stats.channel_ns_max,
                stats.channel_samples
            ),
            (40, 40, 1)
        );
    }

    #[test]
    fn lost_delivery_mismatches() {
        let (mut lem, mut tally) = balanced();
        tally.sent.deliveries += 1;
        let (w, stats) = close(&mut lem, &mut tally, true);
        assert!(!w.matched);
        assert_eq!(stats.window_mismatches, 1);
    }

    #[test]
    fn extra_report_mismatches() {
        let (mut lem, mut tally) = balanced();
        lem.report(1, row(1));
        let (w, stats) = close(&mut lem, &mut tally, true);
        assert!(!w.matched);
        assert_eq!(stats.window_mismatches, 1);
    }

    #[test]
    fn missing_ack_mismatches_even_when_counts_agree() {
        let (mut lem, mut tally) = balanced();
        let (w, stats) = close(&mut lem, &mut tally, false);
        assert!(!w.matched);
        assert_eq!(stats.window_mismatches, 1);
    }

    #[test]
    fn server_retired_mid_window_still_balances() {
        let (mut lem, mut tally) = balanced();
        lem.deliver(1, None);
        tally.sent.deliveries += 1;
        // Server 1 goes down with 2 deliveries and 1 execution carried.
        let drained = lem.server_down(1);
        assert_eq!((drained.deliveries, drained.executions), (2, 1));
        tally.retire(&drained);
        let (w, stats) = close(&mut lem, &mut tally, true);
        assert!(w.matched, "the retired bucket keeps the barrier balanced");
        assert_eq!(w.deliveries, 3);
        assert_eq!(stats.worker_busy_ns, 500);
        // The retired bucket is spent: an empty next window balances.
        assert!(close(&mut lem, &mut tally, true).0.matched);
    }

    #[test]
    fn close_window_resets_every_bucket_and_the_control_counts() {
        let (mut lem, _) = balanced();
        assert_ne!(lem.close_window(), WindowCounters::default());
        assert_eq!(lem.close_window(), WindowCounters::default());
        // Buckets stay open and the held rows survive the window.
        assert_eq!(lem.server_down(0), WindowCounters::default());
        assert_eq!(lem.query(&query()).candidates, Vec::<ServerReport>::new());
        lem.report(1, row(1));
        assert_eq!(lem.query(&query()).candidates, vec![row(1)]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// One carriage event. `Close` ends a window.
        #[derive(Clone, Copy, Debug)]
        enum Ev {
            Up(u32),
            Down(u32),
            Deliver(u32, Option<u64>),
            Execute(u32, u64),
            Report(u32),
            Query,
            Decision,
            Close,
        }

        fn ev((kind, server, value): (u32, u32, u64)) -> Ev {
            match kind {
                0 => Ev::Up(server),
                1 => Ev::Down(server),
                2 => Ev::Deliver(server, None),
                3 => Ev::Deliver(server, Some(value)),
                4 => Ev::Execute(server, value),
                5 => Ev::Report(server),
                6 => Ev::Query,
                7 => Ev::Decision,
                _ => Ev::Close,
            }
        }

        /// Feeds `events` to a `Lem` and mirrors them into a `Tally` as a
        /// coordinator would, except that the `Lem` never sees event
        /// `lost`. Returns each window's `matched`, the final close last.
        fn run(events: &[Ev], lost: Option<usize>) -> Vec<bool> {
            let mut lem = Lem::default();
            let mut tally = Tally::default();
            let mut stats = BackendStats::default();
            let mut windows = Vec::new();
            let mut generation = 0;
            for (i, &e) in events.iter().enumerate() {
                let reaches = lost != Some(i);
                match e {
                    Ev::Up(s) => lem.server_up(s),
                    Ev::Down(s) => tally.retire(&lem.server_down(s)),
                    Ev::Deliver(s, latency) => {
                        tally.sent.deliveries += 1;
                        if reaches {
                            lem.deliver(s, latency);
                        }
                    }
                    Ev::Execute(s, ns) => {
                        tally.sent.executions += 1;
                        if reaches {
                            lem.execute(s, ns);
                        }
                    }
                    Ev::Report(s) => {
                        tally.sent.reports += 1;
                        if reaches {
                            lem.report(generation, row(s));
                        }
                    }
                    Ev::Query => {
                        tally.sent.queries += 1;
                        if reaches {
                            lem.query(&query());
                            tally.sent.replies += 1;
                        }
                    }
                    Ev::Decision => {
                        tally.sent.decisions += 1;
                        if reaches {
                            lem.decision();
                        }
                    }
                    Ev::Close => {
                        generation += 1;
                        let acked = lem.close_window();
                        windows.push(tally.close(generation, acked, true, &mut stats).matched);
                    }
                }
            }
            windows.push(
                tally
                    .close(generation + 1, lem.close_window(), true, &mut stats)
                    .matched,
            );
            assert_eq!(
                stats.window_mismatches,
                windows.iter().filter(|m| !**m).count() as u64
            );
            windows
        }

        proptest! {
            /// Every window of a faithfully carried stream balances; losing
            /// any one counted event unbalances exactly the window it fell
            /// in, however the servers came and went around it.
            #[test]
            fn lem_and_tally_balance_and_every_loss_shows(
                raw in proptest::collection::vec((0u32..9, 0u32..4, 0u64..1_000), 0..48),
            ) {
                let events: Vec<Ev> = raw.into_iter().map(ev).collect();
                let faithful = run(&events, None);
                prop_assert!(faithful.iter().all(|m| *m), "{events:?}");
                for (i, e) in events.iter().enumerate() {
                    if matches!(e, Ev::Up(_) | Ev::Down(_) | Ev::Close) {
                        continue;
                    }
                    let window = events[..i].iter().filter(|e| matches!(e, Ev::Close)).count();
                    let lossy = run(&events, Some(i));
                    let unmatched: Vec<usize> =
                        (0..lossy.len()).filter(|&w| !lossy[w]).collect();
                    prop_assert_eq!(unmatched, vec![window], "lost {:?} at {}", e, i);
                }
            }
        }
    }
}
