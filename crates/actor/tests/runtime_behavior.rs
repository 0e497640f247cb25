//! End-to-end behavioral tests of the actor runtime.

use std::sync::{Arc, Mutex};

use plasma_actor::logic::{ActorCtx, ClientCtx};
use plasma_actor::message::Payload;
use plasma_actor::runtime::{Runtime, RuntimeConfig};
use plasma_actor::{ActorId, ActorLogic, ClientLogic, ElasticityController, Message};
use plasma_chaos::{FaultPlan, RecoveryPolicy};
use plasma_cluster::{InstanceType, ServerId};
use plasma_sim::{SimDuration, SimTime};

/// An actor that burns fixed CPU work and replies to the client.
struct Echo {
    work: f64,
}

impl ActorLogic for Echo {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(self.work);
        ctx.reply(64);
    }
}

/// An actor that forwards every request to a peer.
struct Forwarder {
    peer: ActorId,
}

impl ActorLogic for Forwarder {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(0.0005);
        ctx.send(self.peer, "handle", 128);
    }
}

/// A closed-loop client: issues the next request when the reply arrives.
struct ClosedLoop {
    target: ActorId,
    sent: u32,
    max: u32,
}

impl ClientLogic for ClosedLoop {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_>) {
        self.sent += 1;
        ctx.request(self.target, "handle", 256);
    }

    fn on_reply(
        &mut self,
        ctx: &mut ClientCtx<'_>,
        _request: u64,
        _latency: SimDuration,
        _payload: Option<Payload>,
    ) {
        if self.sent < self.max {
            self.sent += 1;
            ctx.request(self.target, "handle", 256);
        }
    }
}

fn small_config() -> RuntimeConfig {
    RuntimeConfig {
        seed: 7,
        ..RuntimeConfig::default()
    }
}

#[test]
fn closed_loop_latency_includes_network_and_service() {
    let mut rt = Runtime::new(small_config());
    let s = rt.add_server(InstanceType::m1_small());
    let echo = rt.spawn_actor("Echo", Box::new(Echo { work: 0.010 }), 1024, s);
    rt.add_client(Box::new(ClosedLoop {
        target: echo,
        sent: 0,
        max: 100,
    }));
    rt.run_until(SimTime::from_secs(30));
    let report = rt.report();
    assert_eq!(report.requests, 100);
    assert_eq!(report.replies, 100);
    // Latency = 2 x ~5ms client hops + 10ms service (+ profiling tax).
    let mean = report.mean_latency_ms();
    assert!(mean > 19.0 && mean < 23.0, "mean latency {mean}");
}

#[test]
fn epr_tax_slows_service_slightly() {
    let run = |epr: bool| {
        let mut cfg = small_config();
        cfg.epr_enabled = epr;
        let mut rt = Runtime::new(cfg);
        let s = rt.add_server(InstanceType::m1_small());
        let echo = rt.spawn_actor("Echo", Box::new(Echo { work: 0.010 }), 1024, s);
        rt.add_client(Box::new(ClosedLoop {
            target: echo,
            sent: 0,
            max: 200,
        }));
        rt.run_until(SimTime::from_secs(60));
        rt.report().mean_latency_ms()
    };
    let with_epr = run(true);
    let without = run(false);
    assert!(with_epr > without, "profiling must cost something");
    let overhead = with_epr / without;
    assert!(
        overhead < 1.03,
        "overhead ratio {overhead} exceeds Table 3 band"
    );
}

#[test]
fn forwarding_chain_reaches_reply() {
    let mut rt = Runtime::new(small_config());
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    let echo = rt.spawn_actor("Echo", Box::new(Echo { work: 0.001 }), 1024, s1);
    let fwd = rt.spawn_actor("Forwarder", Box::new(Forwarder { peer: echo }), 1024, s0);
    rt.add_client(Box::new(ClosedLoop {
        target: fwd,
        sent: 0,
        max: 50,
    }));
    rt.run_until(SimTime::from_secs(30));
    let report = rt.report();
    assert_eq!(report.replies, 50);
    // 50 client requests enter remotely, 50 Forwarder->Echo hops cross
    // servers; replies to clients are not inter-actor messages.
    assert_eq!(report.remote_messages, 50 + 50);
    assert_eq!(report.local_messages, 0);
}

#[test]
fn colocated_chain_is_local_and_faster() {
    let run = |colocated: bool| {
        let mut rt = Runtime::new(small_config());
        let s0 = rt.add_server(InstanceType::m1_medium());
        let s1 = if colocated {
            s0
        } else {
            rt.add_server(InstanceType::m1_medium())
        };
        let echo = rt.spawn_actor("Echo", Box::new(Echo { work: 0.001 }), 1024, s1);
        let fwd = rt.spawn_actor("Forwarder", Box::new(Forwarder { peer: echo }), 1024, s0);
        rt.add_client(Box::new(ClosedLoop {
            target: fwd,
            sent: 0,
            max: 50,
        }));
        rt.run_until(SimTime::from_secs(30));
        let locality = rt.report().locality();
        (rt.report().mean_latency_ms(), locality)
    };
    let (lat_co, loc_co) = run(true);
    let (lat_remote, loc_remote) = run(false);
    assert!(loc_co > 0.0 && loc_remote == 0.0);
    assert!(
        lat_co < lat_remote,
        "colocated {lat_co} vs remote {lat_remote}"
    );
}

#[test]
fn migration_moves_actor_and_preserves_service() {
    let mut cfg = small_config();
    cfg.min_residency = SimDuration::ZERO;
    let mut rt = Runtime::new(cfg);
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    let echo = rt.spawn_actor("Echo", Box::new(Echo { work: 0.002 }), 1 << 20, s0);
    rt.add_client(Box::new(ClosedLoop {
        target: echo,
        sent: 0,
        max: 500,
    }));
    rt.run_until(SimTime::from_secs(5));
    assert_eq!(rt.actor_server(echo), s0);
    rt.migrate(echo, s1).expect("migratable");
    rt.run_until(SimTime::from_secs(40));
    assert_eq!(rt.actor_server(echo), s1);
    let report = rt.report();
    assert_eq!(report.migrations.len(), 1);
    assert_eq!(report.migrations[0].src, s0);
    assert_eq!(report.migrations[0].dst, s1);
    assert!(report.migrations[0].transfer_time > SimDuration::ZERO);
    assert_eq!(report.replies, 500, "no request lost across migration");
    assert_eq!(rt.actor_count_on(s0), 0);
    assert_eq!(rt.actor_count_on(s1), 1);
}

#[test]
fn residency_and_pin_block_migration() {
    use plasma_actor::entry::MigrationBlocked;
    let mut rt = Runtime::new(small_config()); // min_residency = 60s default
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    let echo = rt.spawn_actor("Echo", Box::new(Echo { work: 0.002 }), 1024, s0);
    assert_eq!(rt.migrate(echo, s1), Err(MigrationBlocked::Residency));
    rt.run_until(SimTime::from_secs(61));
    rt.set_pinned(echo, true);
    assert_eq!(rt.migrate(echo, s1), Err(MigrationBlocked::Pinned));
    rt.set_pinned(echo, false);
    assert_eq!(rt.migrate(echo, s0), Err(MigrationBlocked::SameServer));
    assert_eq!(rt.migrate(echo, s1), Ok(()));
    assert_eq!(rt.migrate(echo, s1), Err(MigrationBlocked::InFlight));
}

#[test]
fn profiling_snapshot_reports_usage_and_calls() {
    let mut rt = Runtime::new(small_config());
    let s = rt.add_server(InstanceType::m1_small());
    let echo = rt.spawn_actor("Echo", Box::new(Echo { work: 0.004 }), 2048, s);
    rt.add_client(Box::new(ClosedLoop {
        target: echo,
        sent: 0,
        max: u32::MAX,
    }));
    rt.run_until(SimTime::from_secs(10));
    let snap = rt.snapshot();
    assert_eq!(snap.actors.len(), 1);
    let a = snap.actor(echo).unwrap();
    assert_eq!(a.server, s);
    assert!(a.cpu_share > 0.0, "actor consumed CPU");
    assert!(a.counters.total_received() > 0);
    let srv = snap.server(s).unwrap();
    assert!(srv.usage.cpu() > 0.0);
    assert_eq!(srv.actor_count, 1);
}

#[test]
fn server_boot_delay_applies() {
    struct Watcher;
    impl ElasticityController for Watcher {
        fn on_server_ready(&mut self, rt: &mut Runtime, server: ServerId) {
            rt.record_custom("ready", server.0 as f64);
        }
    }
    let mut rt = Runtime::new(small_config());
    rt.set_controller(Box::new(Watcher));
    let _s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.request_server(InstanceType::m1_small()).unwrap();
    assert!(!rt.cluster().server(s1).is_running());
    rt.run_until(SimTime::from_secs(100));
    assert!(rt.cluster().server(s1).is_running());
    let series = rt.report().series("ready").unwrap();
    assert_eq!(series.len(), 1);
    let (at, v) = series.points()[0];
    assert_eq!(v, s1.0 as f64);
    assert_eq!(at, SimTime::ZERO + InstanceType::m1_small().boot_delay);
}

#[test]
fn controller_tick_fires_each_period() {
    struct TickCounter;
    impl ElasticityController for TickCounter {
        fn on_elasticity_tick(&mut self, rt: &mut Runtime) {
            rt.record_custom("tick", 1.0);
        }
    }
    let mut cfg = small_config();
    cfg.elasticity_period = SimDuration::from_secs(10);
    let mut rt = Runtime::new(cfg);
    rt.set_controller(Box::new(TickCounter));
    let _ = rt.add_server(InstanceType::m1_small());
    rt.run_until(SimTime::from_secs(35));
    assert_eq!(rt.report().series("tick").unwrap().len(), 3);
}

#[test]
fn spawned_actor_placement_consults_controller() {
    struct PlaceOnSecond;
    impl ElasticityController for PlaceOnSecond {
        fn place_new_actor(
            &mut self,
            rt: &Runtime,
            _type_id: plasma_actor::ActorTypeId,
            _creator: Option<ServerId>,
        ) -> Option<ServerId> {
            rt.cluster().running_ids().get(1).copied()
        }
    }
    struct Spawner;
    impl ActorLogic for Spawner {
        fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
            let child = ctx.spawn("Child", Box::new(Echo { work: 0.001 }), 64);
            ctx.add_ref("children", child);
            ctx.reply(8);
        }
    }
    let mut rt = Runtime::new(small_config());
    rt.set_controller(Box::new(PlaceOnSecond));
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    let spawner = rt.spawn_actor("Spawner", Box::new(Spawner), 64, s0);
    rt.add_client(Box::new(ClosedLoop {
        target: spawner,
        sent: 0,
        max: 1,
    }));
    rt.run_until(SimTime::from_secs(5));
    let children = rt.actor_refs(spawner, "children");
    assert_eq!(children.len(), 1);
    assert_eq!(rt.actor_server(children[0]), s1);
    assert_eq!(rt.actor_count_on(s1), 1);
}

#[test]
fn stop_ends_run_early() {
    struct Stopper;
    impl ActorLogic for Stopper {
        fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
            ctx.stop_simulation();
        }
    }
    let mut rt = Runtime::new(small_config());
    let s = rt.add_server(InstanceType::m1_small());
    let stopper = rt.spawn_actor("Stopper", Box::new(Stopper), 64, s);
    rt.add_client(Box::new(ClosedLoop {
        target: stopper,
        sent: 0,
        max: 10,
    }));
    rt.run_until(SimTime::from_secs(1000));
    assert!(rt.is_stopped());
    assert!(rt.now() < SimTime::from_secs(1));
}

#[test]
fn decommission_requires_empty_server() {
    let mut cfg = small_config();
    cfg.min_residency = SimDuration::ZERO;
    let mut rt = Runtime::new(cfg);
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    let echo = rt.spawn_actor("Echo", Box::new(Echo { work: 0.001 }), 1024, s1);
    assert_eq!(
        rt.decommission_server(s1),
        Err(plasma_actor::DecommissionError::HasActors),
        "occupied"
    );
    rt.migrate(echo, s0).unwrap();
    assert_eq!(
        rt.decommission_server(s1),
        Err(plasma_actor::DecommissionError::HasActors),
        "outbound migration from s1: actor still registered on s1"
    );
    rt.run_until(SimTime::from_secs(2));
    assert_eq!(rt.actor_server(echo), s0);
    assert_eq!(rt.decommission_server(s1), Ok(()));
    assert!(!rt.cluster().server(s1).is_running());
    assert_eq!(
        rt.decommission_server(s1),
        Err(plasma_actor::DecommissionError::NotRunning)
    );
}

#[test]
fn determinism_same_seed_same_report() {
    let run = |seed: u64| {
        let mut cfg = small_config();
        cfg.seed = seed;
        let mut rt = Runtime::new(cfg);
        let s0 = rt.add_server(InstanceType::m1_small());
        let s1 = rt.add_server(InstanceType::m1_small());
        let echo = rt.spawn_actor("Echo", Box::new(Echo { work: 0.003 }), 1024, s1);
        let fwd = rt.spawn_actor("Forwarder", Box::new(Forwarder { peer: echo }), 512, s0);
        rt.add_client(Box::new(ClosedLoop {
            target: fwd,
            sent: 0,
            max: 200,
        }));
        rt.run_until(SimTime::from_secs(20));
        (
            rt.report().mean_latency_ms(),
            rt.report().remote_messages,
            rt.report().replies,
        )
    };
    assert_eq!(run(11), run(11));
    let (a, _, _) = run(11);
    let (b, _, _) = run(12);
    // Different seeds shift nothing here (deterministic workload), so they
    // should actually agree too; the seed only matters once apps draw RNG.
    assert_eq!(a, b);
}

#[test]
fn orphan_reply_is_counted_not_fatal() {
    struct BadReplier;
    impl ActorLogic for BadReplier {
        fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
            ctx.reply(1); // Fine: client correlation present on request.
        }
    }
    struct SelfStarter {
        peer: ActorId,
    }
    impl ActorLogic for SelfStarter {
        fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
            // Detached send drops the correlation; peer's reply is orphan.
            ctx.send_detached(self.peer, "go", 8);
        }
    }
    let mut rt = Runtime::new(small_config());
    let s = rt.add_server(InstanceType::m1_small());
    let bad = rt.spawn_actor("Bad", Box::new(BadReplier), 64, s);
    let starter = rt.spawn_actor("Starter", Box::new(SelfStarter { peer: bad }), 64, s);
    rt.add_client(Box::new(ClosedLoop {
        target: starter,
        sent: 0,
        max: 1,
    }));
    rt.run_until(SimTime::from_secs(5));
    assert_eq!(rt.report().orphan_replies, 1);
    assert_eq!(rt.report().replies, 0);
}

/// An actor that appends every `u64` tag it receives to a shared log.
struct Recorder {
    seen: Arc<Mutex<Vec<u64>>>,
}

impl ActorLogic for Recorder {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, msg: &mut Message) {
        ctx.work(0.0001);
        if let Some(&tag) = msg.payload_ref::<u64>() {
            self.seen.lock().unwrap().push(tag);
        }
    }
}

/// Forwards each request's tag to a recorder `fanout` times, then replies
/// with the tag.
struct FanOut {
    recorder: ActorId,
    fanout: usize,
    work: f64,
}

impl ActorLogic for FanOut {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, msg: &mut Message) {
        let tag = *msg.payload_ref::<u64>().expect("tagged request");
        ctx.work(self.work);
        for _ in 0..self.fanout {
            ctx.send_with(self.recorder, "log", 8, Box::new(tag));
        }
        ctx.reply_with(8, Box::new(tag));
    }
}

/// An actor that burns CPU and emits nothing: no send, no reply.
struct Silent {
    served: Arc<Mutex<u32>>,
}

impl ActorLogic for Silent {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(0.001);
        *self.served.lock().unwrap() += 1;
    }
}

/// Sends request tag `k` to `target` at `start + k * period` for
/// `k < count`, logging the tag of every tagged reply.
struct Tagged {
    target: ActorId,
    start: SimDuration,
    period: SimDuration,
    count: u64,
    replies: Arc<Mutex<Vec<u64>>>,
}

impl ClientLogic for Tagged {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_>) {
        ctx.set_timer(self.start, 0);
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_>, tag: u64) {
        ctx.request_with(self.target, "handle", 64, Box::new(tag));
        if tag + 1 < self.count {
            ctx.set_timer(self.period, tag + 1);
        }
    }

    fn on_reply(
        &mut self,
        _ctx: &mut ClientCtx<'_>,
        _request: u64,
        _latency: SimDuration,
        payload: Option<Payload>,
    ) {
        if let Some(tag) = payload.and_then(|p| p.downcast::<u64>().ok()) {
            self.replies.lock().unwrap().push(*tag);
        }
    }
}

fn shared<T: Default>() -> Arc<Mutex<T>> {
    Arc::new(Mutex::new(T::default()))
}

#[test]
fn crash_mid_service_discards_its_buffered_effects() {
    let mut rt = Runtime::new(small_config());
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    let seen = shared::<Vec<u64>>();
    let replies = shared::<Vec<u64>>();
    let recorder = rt.spawn_actor(
        "Recorder",
        Box::new(Recorder {
            seen: Arc::clone(&seen),
        }),
        64,
        s1,
    );
    // Each service runs 1 s, so request 0 (sent at 0.1 s) is still in
    // service when s0 crashes at 0.5 s, its three sends and its reply
    // buffered.
    let fanout = 3;
    let worker = rt.spawn_actor(
        "FanOut",
        Box::new(FanOut {
            recorder,
            fanout,
            work: 1.0,
        }),
        64,
        s0,
    );
    rt.add_client(Box::new(Tagged {
        target: worker,
        start: SimDuration::from_millis(100),
        period: SimDuration::from_secs(2),
        count: 20,
        replies: Arc::clone(&replies),
    }));
    rt.install_fault_plan(
        &FaultPlan::new().crash_server(SimTime::from_millis(500), s0, None),
        RecoveryPolicy::default(),
    );
    rt.run_until(SimTime::from_secs(60));

    // The failure detector respawned the worker on the surviving server.
    assert_eq!(rt.snapshot().actor(worker).map(|a| a.server), Some(s1));
    let seen = seen.lock().unwrap().clone();
    let replies = replies.lock().unwrap().clone();
    assert!(!replies.is_empty(), "the respawned worker serves requests");
    assert!(!replies.contains(&0), "the crashed service's reply leaked");
    assert!(!seen.contains(&0), "the crashed service's sends leaked");
    // Every later service emitted exactly its own effects: `fanout` sends
    // of its own tag, in request order, and one reply.
    let expected: Vec<u64> = replies
        .iter()
        .flat_map(|&tag| std::iter::repeat_n(tag, fanout))
        .collect();
    assert_eq!(seen, expected);
}

#[test]
fn pooled_effect_buffers_come_back_empty() {
    let mut rt = Runtime::new(small_config());
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    let seen = shared::<Vec<u64>>();
    let served = shared::<u32>();
    let loud_replies = shared::<Vec<u64>>();
    let recorder = rt.spawn_actor(
        "Recorder",
        Box::new(Recorder {
            seen: Arc::clone(&seen),
        }),
        64,
        s1,
    );
    let loud = rt.spawn_actor(
        "FanOut",
        Box::new(FanOut {
            recorder,
            fanout: 4,
            work: 0.01,
        }),
        64,
        s0,
    );
    let silent = rt.spawn_actor(
        "Silent",
        Box::new(Silent {
            served: Arc::clone(&served),
        }),
        64,
        s0,
    );
    // Loud services at 0, 1 and 2 s; silent ones on the same server at
    // 0.5, 1.5 and 2.5 s, each after a loud service's buffers were drained.
    rt.add_client(Box::new(Tagged {
        target: loud,
        start: SimDuration::ZERO,
        period: SimDuration::from_secs(1),
        count: 3,
        replies: Arc::clone(&loud_replies),
    }));
    rt.add_client(Box::new(Tagged {
        target: silent,
        start: SimDuration::from_millis(500),
        period: SimDuration::from_secs(1),
        count: 3,
        replies: shared(),
    }));
    rt.run_until(SimTime::from_secs(5));

    assert_eq!(*served.lock().unwrap(), 3);
    assert_eq!(*loud_replies.lock().unwrap(), vec![0, 1, 2]);
    // Only the loud services' sends arrive, each once.
    assert_eq!(
        *seen.lock().unwrap(),
        vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
    );
    assert_eq!(rt.report().replies, 3);
    assert_eq!(rt.report().orphan_replies, 0);
}

#[test]
fn window_roll_hands_each_window_its_own_counters() {
    let mut rt = Runtime::new(small_config());
    let s = rt.add_server(InstanceType::m1_small());
    let echo = rt.spawn_actor("Echo", Box::new(Echo { work: 0.010 }), 1024, s);
    // Five requests in the first 1 s profiling window, none in the second,
    // two in the third.
    for (start_ms, count) in [(100, 5), (2_100, 2)] {
        rt.add_client(Box::new(Tagged {
            target: echo,
            start: SimDuration::from_millis(start_ms),
            period: SimDuration::from_millis(100),
            count,
            replies: shared(),
        }));
    }
    let mut window = |closes_at_s: u64| {
        rt.run_until(SimTime::from_millis(closes_at_s * 1_000 + 500));
        let snap = rt.snapshot();
        assert_eq!(snap.at, SimTime::from_secs(closes_at_s));
        snap.actor(echo).expect("echo profiled").clone()
    };
    let (busy, idle, again) = (window(1), window(2), window(3));

    assert_eq!(busy.counters.total_received(), 5);
    assert_eq!(busy.counters.calls.len(), 1, "one caller kind and function");
    let stat = busy.counters.calls.values().next().unwrap();
    assert_eq!((stat.count, stat.bytes), (5, 5 * 64));
    assert!(busy.counters.cpu_busy > SimDuration::ZERO);
    assert!(busy.cpu_share > 0.0);
    assert_eq!(busy.counters.bytes_sent, 5 * 64);

    assert!(idle.counters.calls.is_empty(), "no traffic, no calls");
    assert_eq!(idle.counters.cpu_busy, SimDuration::ZERO);
    assert_eq!(idle.counters.bytes_sent, 0);
    assert_eq!(idle.cpu_share, 0.0);

    // Nothing carried over from the first window.
    assert_eq!(again.counters.total_received(), 2);
    assert_eq!(
        again.counters.cpu_busy.as_micros() * 5,
        busy.counters.cpu_busy.as_micros() * 2
    );
    assert_eq!(again.counters.bytes_sent, 2 * 64);
}
