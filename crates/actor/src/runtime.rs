//! The discrete-event driver: scheduling, delivery, migration, profiling.
//!
//! One [`Runtime`] hosts a cluster, its actors, external clients, and an
//! optional [`ElasticityController`]. The event loop models:
//!
//! - **CPU**: each server has `vcpus` lanes; an actor's message handler
//!   occupies one lane for `work / speed` seconds (round-robin across actors
//!   with queued mail).
//! - **Network**: local vs. remote delivery latency plus wire time, NIC byte
//!   accounting on both ends, and a forwarding hop when a message races a
//!   migration.
//! - **Live migration**: finish the in-flight message, freeze, transfer
//!   state bytes, resume on the destination; the mailbox travels with the
//!   actor and residency/pinning rules gate when a migration may start.
//! - **Profiling (EPR)**: per-window actor counters and server utilization
//!   snapshots, plus an optional per-message profiling tax so the *cost* of
//!   profiling itself is measurable (Table 3).
//! - **Elasticity (EER)**: periodic controller ticks and deferred control
//!   callbacks for modeling LEM/GEM round-trips.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use plasma_backend::{
    BackendKind, BackendStats, ControlDecision, ControlQuery, ControlReply, Delivery, Execution,
    ExecutionBackend, ServerReport,
};
use plasma_chaos::fault::FaultKind;
use plasma_chaos::{FaultPlan, RecoveryPolicy};
use plasma_cluster::topology::ClusterLimits;
use plasma_cluster::{Cluster, InstanceType, NetworkModel, ServerId};
use plasma_sim::{DetRng, EventQueue, SimDuration, SimTime};
use plasma_trace::{Component, EventId, TraceEventKind, Tracer};

use crate::chaos::{ChaosState, CrashRecord, OrphanActor};
use crate::controller::{ControlFault, ElasticityController};
use crate::entry::{ActorEntry, MigrationBlocked, MigrationState};
use crate::ids::{ActorId, ActorTypeId, ClientId, FnId, NameRegistry};
use crate::logic::{ActorCtx, ActorLogic, ClientCtx, ClientLogic, PendingSend};
use crate::message::{CallerKind, Correlation, Message, Payload};
use crate::report::{DecisionKind, DecisionRecord, MigrationRecord, RunReport};
use crate::stats::{
    ActorCounters, ActorWindowStats, ProfileSnapshot, ServerWindowStats, SnapshotDelta,
};

/// Tunable parameters of a simulation run.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Seed for the deterministic RNG.
    pub seed: u64,
    /// Interconnect model.
    pub network: NetworkModel,
    /// Cluster growth limits.
    pub limits: ClusterLimits,
    /// Width of the profiling window (EPR sampling period).
    pub profile_window: SimDuration,
    /// Elasticity period: how often the controller ticks (user-set, §2.2).
    pub elasticity_period: SimDuration,
    /// Minimum time an actor must stay on a server before migrating again.
    /// Defaults to the elasticity period per §4.3.
    pub min_residency: SimDuration,
    /// Whether the profiling runtime is enabled (Table 3 compares on/off).
    pub epr_enabled: bool,
    /// Fixed CPU work added to every message service by profiling.
    pub epr_tax_fixed: f64,
    /// Fractional CPU work added per unit of application work by profiling.
    pub epr_tax_frac: f64,
    /// Bucket width for latency series in the report.
    pub latency_bucket: SimDuration,
    /// Which execution backend carries the run (sim by default). The
    /// logical event schedule is identical either way; see `plasma-backend`.
    pub backend: BackendKind,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        let elasticity_period = SimDuration::from_secs(60);
        RuntimeConfig {
            seed: 0x504C_4153_4D41, // "PLASMA"
            network: NetworkModel::default(),
            limits: ClusterLimits::default(),
            profile_window: SimDuration::from_secs(1),
            elasticity_period,
            min_residency: elasticity_period,
            epr_enabled: true,
            // Calibrated so a saturated chat-room server loses ~0.5-2% of
            // throughput to profiling, matching Table 3's 0.1-2.3% band:
            // ~2us of bookkeeping per message plus 0.4% of handler work.
            epr_tax_fixed: 2e-6,
            epr_tax_frac: 0.004,
            latency_bucket: SimDuration::from_secs(1),
            backend: BackendKind::Sim,
        }
    }
}

/// Buffered output of an in-service message handler. Drained buffers go
/// back to the runtime's pool and are reused by the next dispatch.
#[derive(Default)]
struct ServiceEffects {
    sends: Vec<PendingSend>,
    replies: Vec<(Correlation, u64, Option<Payload>)>,
}

struct ClientEntry {
    logic: Option<Box<dyn ClientLogic>>,
}

enum Event {
    DeliverActor(Message),
    DeliverReply {
        client: ClientId,
        request: u64,
        sent_at: SimTime,
        payload: Option<Payload>,
    },
    ServiceDone {
        server: ServerId,
        actor: ActorId,
        /// Crash epoch of the server at dispatch; a crash in between
        /// invalidates the service (the CPU it ran on is gone).
        epoch: u64,
    },
    MigrationArrive {
        actor: ActorId,
        dst: ServerId,
        started: SimTime,
        /// The actor's migration_seq at launch; a mismatch at arrival means
        /// the migration was aborted while the state was on the wire.
        seq: u64,
        trace: Option<EventId>,
    },
    ServerReady(ServerId),
    ClientStart(ClientId),
    ClientTimer {
        client: ClientId,
        token: u64,
    },
    ProfileWindow,
    ElasticityTick,
    Control {
        token: u64,
    },
    /// Inject fault `i` of the installed plan's schedule.
    Fault(usize),
    /// Periodic failure-detector sweep (only scheduled under chaos).
    HeartbeatCheck,
    /// Reboot a crashed server (ServerCrash with `restart_after`).
    ServerRestart(ServerId),
    /// Retry an aborted migration after backoff.
    MigrationRetry {
        actor: ActorId,
        dst: ServerId,
        attempt: u32,
    },
    /// Heal every active partition (Partition with `heal_after`).
    PartitionHeal,
    /// Clear link degradation (LinkDegrade with `heal_after`).
    LinkHeal,
}

/// Why [`Runtime::decommission_server`] refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecommissionError {
    /// Actors are still resident on the server.
    HasActors,
    /// An actor is migrating toward the server.
    InboundMigration,
    /// Stopping it would violate the cluster's `min_servers` floor.
    MinServers,
    /// The server is not running (booting, crashed, or already stopped).
    NotRunning,
}

/// The simulation runtime. See the [module docs](self) for the model.
pub struct Runtime {
    cfg: RuntimeConfig,
    now: SimTime,
    events: EventQueue<Event>,
    cluster: Cluster,
    names: NameRegistry,
    actors: Vec<Option<ActorEntry>>,
    actors_by_server: Vec<BTreeSet<ActorId>>,
    free_lanes: Vec<u32>,
    runq: Vec<VecDeque<ActorId>>,
    /// Effects of each actor's in-flight service, indexed by actor id.
    in_service: Vec<Option<ServiceEffects>>,
    /// Drained (empty) effect buffers, kept for their capacity.
    effects_pool: Vec<ServiceEffects>,
    clients: Vec<ClientEntry>,
    controller: Option<Box<dyn ElasticityController>>,
    rng: DetRng,
    tracer: Tracer,
    stopped: bool,
    snapshot: Arc<ProfileSnapshot>,
    /// Per-window deltas between consecutive snapshot generations, oldest
    /// first; bounded by `delta_cap`. Consumers compose them via
    /// [`Runtime::delta_since`] to patch retained indexes incrementally.
    deltas: VecDeque<SnapshotDelta>,
    /// History bound: a couple of elasticity periods' worth of windows, so
    /// a round can always bridge back to the previous round's generation.
    delta_cap: usize,
    report: RunReport,
    next_request: u64,
    orphan_replies: u64,
    /// Per-server crash epoch; bumped on crash to cancel stale services.
    server_epoch: Vec<u64>,
    /// Per-server count of migrations currently targeting the server.
    inbound_migrations: Vec<u32>,
    /// Present only while a non-empty fault plan is installed.
    chaos: Option<ChaosState>,
    /// The carrier underneath the logical schedule (sim or live).
    backend: Box<dyn ExecutionBackend>,
    /// Elasticity ticks fired so far (the round counter fed to the
    /// backend's round barrier).
    elasticity_rounds: u64,
}

impl Runtime {
    /// Creates a runtime and schedules the periodic profiling and
    /// elasticity events.
    pub fn new(cfg: RuntimeConfig) -> Self {
        let cluster = Cluster::new(cfg.network.clone(), cfg.limits.clone());
        let mut events = EventQueue::new();
        events.push(SimTime::ZERO + cfg.profile_window, Event::ProfileWindow);
        events.push(SimTime::ZERO + cfg.elasticity_period, Event::ElasticityTick);
        let rng = DetRng::new(cfg.seed);
        let report = RunReport::new(cfg.latency_bucket);
        // The net backend spawns worker processes, so it lives above the
        // backend crate and is routed here rather than through `make`.
        let backend: Box<dyn ExecutionBackend> = match cfg.backend {
            BackendKind::Net => Box::new(
                plasma_net::NetConfig::from_env()
                    .and_then(plasma_net::NetBackend::launch)
                    .unwrap_or_else(|e| panic!("launching net backend workers: {e}")),
            ),
            kind => plasma_backend::make(kind),
        };
        // Enough per-window deltas to span two elasticity rounds (plus
        // slack for skew-injected extra generations); if a configuration
        // outruns this, `delta_since` reports a gap and consumers rebuild.
        let windows_per_round = (cfg.elasticity_period.as_secs_f64()
            / cfg.profile_window.as_secs_f64().max(1e-9))
        .ceil() as usize;
        let delta_cap = (2 * windows_per_round + 4).clamp(8, 1024);
        Runtime {
            cfg,
            now: SimTime::ZERO,
            events,
            cluster,
            names: NameRegistry::new(),
            actors: Vec::new(),
            actors_by_server: Vec::new(),
            free_lanes: Vec::new(),
            runq: Vec::new(),
            in_service: Vec::new(),
            effects_pool: Vec::new(),
            clients: Vec::new(),
            controller: None,
            rng,
            tracer: Tracer::disabled(),
            stopped: false,
            snapshot: Arc::new(ProfileSnapshot::default()),
            deltas: VecDeque::new(),
            delta_cap,
            report,
            next_request: 0,
            orphan_replies: 0,
            server_epoch: Vec::new(),
            inbound_migrations: Vec::new(),
            chaos: None,
            backend,
            elasticity_rounds: 0,
        }
    }

    // ------------------------------------------------------------------
    // Construction-time API (harness side).
    // ------------------------------------------------------------------

    /// Installs the elasticity controller.
    pub fn set_controller(&mut self, controller: Box<dyn ElasticityController>) {
        self.controller = Some(controller);
    }

    /// Installs the tracer runtime events are emitted to; the cluster's
    /// provisioning events feed the same recorder.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.cluster.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Returns the tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Adds a server that is usable immediately (initial deployment).
    ///
    /// Part of the initial topology, not an elasticity decision: it is
    /// excluded from the decision sequence (unlike
    /// [`Runtime::request_server`]).
    pub fn add_server(&mut self, itype: InstanceType) -> ServerId {
        let id = self.cluster.add_running_server(itype, self.now);
        self.ensure_server_slots(id);
        self.sync_backend_lifecycle();
        id
    }

    /// Requests a new server; it becomes usable after its boot delay and the
    /// controller is notified via
    /// [`ElasticityController::on_server_ready`].
    ///
    /// Fails (returns `None`) while an injected provisioner stall is
    /// active, in addition to the cluster's own growth limits.
    pub fn request_server(&mut self, itype: InstanceType) -> Option<ServerId> {
        if let Some(chaos) = &self.chaos {
            if self.now < chaos.provisioner_stalled_until {
                return None;
            }
        }
        let (id, ready_at) = self.cluster.request_server(itype, self.now)?;
        self.ensure_server_slots(id);
        self.events.push(ready_at, Event::ServerReady(id));
        self.report.decisions.push(DecisionRecord {
            at: self.now,
            kind: DecisionKind::Grow { server: id },
        });
        Some(id)
    }

    /// Stops an empty running server. Fails if actors are resident or
    /// migrating toward it, if the server is not running, or if
    /// `min_servers` would be violated.
    pub fn decommission_server(&mut self, id: ServerId) -> Result<(), DecommissionError> {
        if !self.cluster.server(id).is_running() {
            return Err(DecommissionError::NotRunning);
        }
        if !self.actors_by_server[id.0 as usize].is_empty() {
            return Err(DecommissionError::HasActors);
        }
        if self.inbound_migrations[id.0 as usize] > 0 {
            return Err(DecommissionError::InboundMigration);
        }
        if self.cluster.decommission(id, self.now) {
            self.report.decisions.push(DecisionRecord {
                at: self.now,
                kind: DecisionKind::Shrink { server: id },
            });
            self.sync_backend_lifecycle();
            Ok(())
        } else {
            Err(DecommissionError::MinServers)
        }
    }

    /// Installs a fault plan and recovery policy, arming the chaos runtime.
    ///
    /// Every fault in the plan is scheduled as a first-class simulation
    /// event, and the heartbeat failure detector starts sweeping. An empty
    /// plan is the identity: nothing is scheduled, no chaos state is
    /// created, and the run stays byte-identical to one without this call.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan, policy: RecoveryPolicy) {
        if plan.is_empty() {
            return;
        }
        let schedule = plan.schedule();
        for (i, ev) in schedule.iter().enumerate() {
            self.events.push(ev.at, Event::Fault(i));
        }
        self.events
            .push(self.now + policy.heartbeat_period, Event::HeartbeatCheck);
        self.chaos = Some(ChaosState::new(schedule, policy));
    }

    /// Returns whether servers `a` and `b` can exchange messages (no
    /// active partition severs them). Always `true` fault-free.
    pub fn reachable(&self, a: ServerId, b: ServerId) -> bool {
        !self.cluster.net_faults().severed(a, b)
    }

    /// Creates an actor on an explicit server (initial deployment).
    ///
    /// # Panics
    ///
    /// Panics if `server` is not running.
    pub fn spawn_actor(
        &mut self,
        type_name: &str,
        logic: Box<dyn ActorLogic>,
        state_size: u64,
        server: ServerId,
    ) -> ActorId {
        assert!(
            self.cluster.server(server).is_running(),
            "spawn on non-running {server:?}"
        );
        let type_id = self.names.actor_type(type_name);
        self.insert_actor(type_id, logic, state_size, server)
    }

    /// Creates an actor, asking the controller for placement (the paper's
    /// new-actor-creation path). Falls back to the creator's server, then to
    /// the first running server.
    pub fn spawn_placed(
        &mut self,
        type_name: &str,
        logic: Box<dyn ActorLogic>,
        state_size: u64,
        creator: Option<ServerId>,
    ) -> ActorId {
        let type_id = self.names.actor_type(type_name);
        let mut controller = self.controller.take();
        let choice = controller
            .as_mut()
            .and_then(|c| c.place_new_actor(self, type_id, creator));
        self.controller = controller;
        let fallback = creator.or_else(|| self.cluster.running_ids().first().copied());
        let server = choice
            .filter(|&s| self.cluster.server(s).is_running())
            .or(fallback)
            .expect("no running server to place actor on");
        self.insert_actor(type_id, logic, state_size, server)
    }

    fn insert_actor(
        &mut self,
        type_id: ActorTypeId,
        logic: Box<dyn ActorLogic>,
        state_size: u64,
        server: ServerId,
    ) -> ActorId {
        let id = ActorId(self.actors.len() as u64);
        let entry = ActorEntry::new(id, type_id, server, logic, state_size, self.now);
        self.actors.push(Some(entry));
        self.in_service.push(None);
        self.actors_by_server[server.0 as usize].insert(id);
        self.cluster.server_mut(server).add_mem(state_size);
        self.tracer.emit(self.now, Component::Runtime, None, || {
            TraceEventKind::ActorCreated {
                actor: id.0,
                actor_type: self.names.type_name(type_id).to_string(),
                server: server.0,
            }
        });
        id
    }

    /// Removes an actor from the system (the application-level "this
    /// entity is gone" operation, e.g. a user leaving a service).
    ///
    /// If the actor is mid-service, removal completes when the current
    /// message finishes. Queued and in-flight messages to it are dropped
    /// (counted in the report). Returns `false` if the actor is unknown or
    /// already removed.
    pub fn remove_actor(&mut self, actor: ActorId) -> bool {
        let Some(entry) = self
            .actors
            .get_mut(actor.0 as usize)
            .and_then(|e| e.as_mut())
        else {
            return false;
        };
        if entry.tombstone {
            return false;
        }
        entry.tombstone = true;
        if !entry.servicing {
            self.reap_actor(actor);
        }
        true
    }

    fn reap_actor(&mut self, actor: ActorId) {
        let Some(entry) = self.actors.get_mut(actor.0 as usize).and_then(|e| e.take()) else {
            return;
        };
        let server = entry.server;
        self.actors_by_server[server.0 as usize].remove(&actor);
        // Mid-transit state was already deducted from the source server.
        if !matches!(entry.migration, Some(MigrationState::InTransit { .. })) {
            self.cluster.server_mut(server).remove_mem(entry.state_size);
        }
        if let Some(MigrationState::Pending { dst } | MigrationState::InTransit { dst }) =
            entry.migration
        {
            self.inbound_migrations[dst.0 as usize] -= 1;
        }
        if entry.in_runq {
            self.runq[server.0 as usize].retain(|&a| a != actor);
        }
        self.report.dropped_messages += entry.mailbox.len() as u64;
        self.tracer.emit(self.now, Component::Runtime, None, || {
            TraceEventKind::ActorRemoved {
                actor: actor.0,
                server: server.0,
            }
        });
    }

    /// Registers a client and schedules its `on_start` immediately.
    pub fn add_client(&mut self, logic: Box<dyn ClientLogic>) -> ClientId {
        let id = ClientId(self.clients.len() as u32);
        self.clients.push(ClientEntry { logic: Some(logic) });
        self.events.push(self.now, Event::ClientStart(id));
        id
    }

    // ------------------------------------------------------------------
    // Introspection API (controller and harness side).
    // ------------------------------------------------------------------

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Overrides the placement-stability residency requirement.
    pub fn set_min_residency(&mut self, d: SimDuration) {
        self.cfg.min_residency = d;
    }

    /// Returns the deterministic RNG.
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// Returns the cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Returns the name registry.
    pub fn names(&self) -> &NameRegistry {
        &self.names
    }

    /// Returns the name registry mutably (for interning).
    pub fn names_mut(&mut self) -> &mut NameRegistry {
        &mut self.names
    }

    /// Interns a function name.
    pub fn intern_fn(&mut self, name: &str) -> FnId {
        self.names.function(name)
    }

    /// Returns the most recent profiling snapshot.
    pub fn snapshot(&self) -> &ProfileSnapshot {
        &self.snapshot
    }

    /// Returns a shared handle to the most recent profiling snapshot.
    ///
    /// The snapshot is built exactly once per profiling window
    /// ([`ProfileSnapshot::generation`] counts the builds); cloning the
    /// `Arc` lets every LEM/GEM consumer in a decision round read the same
    /// build without copying any stats.
    pub fn snapshot_shared(&self) -> Arc<ProfileSnapshot> {
        Arc::clone(&self.snapshot)
    }

    /// Returns how many profiling snapshots have been built so far
    /// (the generation of the current snapshot).
    pub fn snapshot_builds(&self) -> u64 {
        self.snapshot.generation
    }

    /// Composes the per-window deltas from generation `from` up to the
    /// current snapshot into one [`SnapshotDelta`], or `None` when the
    /// bounded history no longer reaches back that far (or `from` is ahead
    /// of the current generation) — the caller must rebuild from scratch.
    ///
    /// `from == current` yields an empty delta.
    pub fn delta_since(&self, from: u64) -> Option<SnapshotDelta> {
        let current = self.snapshot.generation;
        if from > current {
            return None;
        }
        let mut merged = SnapshotDelta {
            from_generation: from,
            to_generation: from,
            ..SnapshotDelta::default()
        };
        if from == current {
            return Some(merged);
        }
        // History holds consecutive one-generation steps, oldest first.
        let first = self.deltas.front()?.from_generation;
        if from < first {
            return None;
        }
        for step in self.deltas.iter().skip((from - first) as usize) {
            debug_assert_eq!(step.from_generation, merged.to_generation);
            merged.merge(step);
        }
        debug_assert_eq!(merged.to_generation, current);
        Some(merged)
    }

    /// Returns the server currently hosting `actor`.
    ///
    /// # Panics
    ///
    /// Panics if the actor does not exist.
    pub fn actor_server(&self, actor: ActorId) -> ServerId {
        self.entry(actor).server
    }

    /// Returns the type of `actor`.
    pub fn actor_type(&self, actor: ActorId) -> ActorTypeId {
        self.entry(actor).type_id
    }

    /// Returns the ids of actors resident on `server`, in id order.
    pub fn actors_on(&self, server: ServerId) -> Vec<ActorId> {
        self.actors_by_server[server.0 as usize]
            .iter()
            .copied()
            .collect()
    }

    /// Returns the number of actors resident on `server`.
    pub fn actor_count_on(&self, server: ServerId) -> usize {
        self.actors_by_server[server.0 as usize].len()
    }

    /// Returns every live actor id.
    pub fn all_actors(&self) -> Vec<ActorId> {
        self.actors.iter().flatten().map(|e| e.id).collect()
    }

    /// Returns whether `actor` is pinned (false for removed actors).
    pub fn is_pinned(&self, actor: ActorId) -> bool {
        self.try_entry(actor).map(|e| e.pinned).unwrap_or(false)
    }

    /// Pins or unpins an actor (the `pin` behavior). No-op for removed
    /// actors.
    pub fn set_pinned(&mut self, actor: ActorId, pinned: bool) {
        if let Some(e) = self.try_entry_mut(actor) {
            e.pinned = pinned;
        }
    }

    /// Returns the referenced actors of `actor.prop` (empty for removed
    /// actors).
    pub fn actor_refs(&self, actor: ActorId, prop: &str) -> Vec<ActorId> {
        self.try_entry(actor)
            .and_then(|e| e.refs.get(prop).cloned())
            .unwrap_or_default()
    }

    /// Adds a reference `actor.prop += target`. No-op for removed actors.
    pub fn actor_add_ref(&mut self, actor: ActorId, prop: &str, target: ActorId) {
        if let Some(e) = self.try_entry_mut(actor) {
            e.add_ref(prop, target);
        }
    }

    /// Removes a reference. No-op for removed actors.
    pub fn actor_remove_ref(&mut self, actor: ActorId, prop: &str, target: ActorId) {
        if let Some(e) = self.try_entry_mut(actor) {
            e.remove_ref(prop, target);
        }
    }

    /// Updates an actor's state size, adjusting server memory accounting.
    /// No-op for removed actors.
    pub fn set_actor_state_size(&mut self, actor: ActorId, bytes: u64) {
        let Some((server, old)) = self.try_entry(actor).map(|e| (e.server, e.state_size)) else {
            return;
        };
        if let Some(e) = self.try_entry_mut(actor) {
            e.state_size = bytes;
        }
        let s = self.cluster.server_mut(server);
        s.remove_mem(old);
        s.add_mem(bytes);
    }

    /// Returns whether the actor is still alive.
    pub fn actor_alive(&self, actor: ActorId) -> bool {
        self.try_entry(actor).is_some()
    }

    /// Records a point in a free-form application series.
    pub fn record_custom(&mut self, series: &str, value: f64) {
        self.report
            .custom
            .entry(series.to_string())
            .or_default()
            .push(self.now, value);
    }

    /// Records a named scalar result.
    pub fn record_scalar(&mut self, name: &str, value: f64) {
        self.report.scalars.insert(name.to_string(), value);
    }

    pub(crate) fn count_orphan_reply(&mut self) {
        self.orphan_replies += 1;
    }

    /// Requests the event loop to stop at the current instant.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Returns whether the run was stopped via [`Runtime::stop`].
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    // ------------------------------------------------------------------
    // Elasticity actions.
    // ------------------------------------------------------------------

    /// Starts a live migration of `actor` to `dst`.
    ///
    /// Respects pinning, residency, in-flight migrations, and destination
    /// liveness. If the actor is mid-service, the migration starts when the
    /// current message completes.
    pub fn migrate(&mut self, actor: ActorId, dst: ServerId) -> Result<(), MigrationBlocked> {
        self.migrate_traced(actor, dst, None)
    }

    /// [`Runtime::migrate`] with a causal trace parent: the emitted
    /// `MigrationStart` event links back to `parent` (typically the
    /// admission decision that approved the move).
    pub fn migrate_traced(
        &mut self,
        actor: ActorId,
        dst: ServerId,
        parent: Option<EventId>,
    ) -> Result<(), MigrationBlocked> {
        if !self.cluster.server(dst).is_running() {
            return Err(MigrationBlocked::DestinationDown);
        }
        let min_res = self.cfg.min_residency;
        let now = self.now;
        let entry = self.try_entry(actor).ok_or(MigrationBlocked::Gone)?;
        entry.check_migratable(dst, now, min_res)?;
        if !self.reachable(entry.server, dst) {
            // A partition severs source and destination: the state transfer
            // could never complete, so refuse up front.
            return Err(MigrationBlocked::DestinationDown);
        }
        let src = self.entry(actor).server;
        self.report.decisions.push(DecisionRecord {
            at: self.now,
            kind: DecisionKind::Migrate { actor, src, dst },
        });
        self.inbound_migrations[dst.0 as usize] += 1;
        self.entry_mut(actor).migration_trace = parent;
        if self.entry(actor).servicing {
            self.entry_mut(actor).migration = Some(MigrationState::Pending { dst });
        } else {
            self.begin_transit(actor, dst);
        }
        Ok(())
    }

    /// Schedules [`ElasticityController::on_control`] after `delay`,
    /// used by the EMR to model LEM-GEM message latency.
    pub fn schedule_control(&mut self, delay: SimDuration, token: u64) {
        self.events.push(self.now + delay, Event::Control { token });
    }

    /// Returns the one-way control-plane latency from the network model.
    pub fn control_latency(&self) -> SimDuration {
        self.cfg.network.control_latency
    }

    // ------------------------------------------------------------------
    // Client-side internals (called from ClientCtx).
    // ------------------------------------------------------------------

    pub(crate) fn client_request(
        &mut self,
        client: ClientId,
        actor: ActorId,
        fname: &str,
        bytes: u64,
        payload: Option<Payload>,
    ) -> u64 {
        let request = self.next_request;
        self.next_request += 1;
        // Requests to removed actors vanish (no reply), like a connection
        // to a decommissioned endpoint.
        let Some(dest_server) = self.try_entry(actor).map(|e| e.server) else {
            self.report.dropped_messages += 1;
            return request;
        };
        let fname = self.names.function(fname);
        let corr = Correlation {
            client,
            request,
            sent_at: self.now,
        };
        let bps = self.cluster.server(dest_server).instance().net_bps;
        let delay = self.cfg.network.client_delay(bytes, bps);
        let trace = self.tracer.emit(self.now, Component::Runtime, None, || {
            TraceEventKind::MessageSend {
                from_actor: None,
                from_client: Some(client.0),
                to: actor.0,
                func: fname.0,
                bytes,
            }
        });
        let msg = Message {
            to: actor,
            fname,
            from: CallerKind::Client,
            from_actor: None,
            bytes,
            corr: Some(corr),
            payload,
            dest_server_at_send: Some(dest_server),
            forwarded: false,
            was_remote: true,
            trace,
        };
        self.report.requests += 1;
        self.events.push(self.now + delay, Event::DeliverActor(msg));
        request
    }

    /// Injects a message to an actor from outside the cluster, without
    /// client correlation or latency accounting. Useful for bootstrapping
    /// self-driving workloads (e.g. kicking off a batch job) and in tests.
    pub fn inject(&mut self, to: ActorId, fname: &str, bytes: u64, payload: Option<Payload>) {
        let fname = self.names.function(fname);
        let Some(dest_server) = self.try_entry(to).map(|e| e.server) else {
            self.report.dropped_messages += 1;
            return;
        };
        let trace = self.tracer.emit(self.now, Component::Runtime, None, || {
            TraceEventKind::MessageSend {
                from_actor: None,
                from_client: None,
                to: to.0,
                func: fname.0,
                bytes,
            }
        });
        let msg = Message {
            to,
            fname,
            from: CallerKind::Client,
            from_actor: None,
            bytes,
            corr: None,
            payload,
            dest_server_at_send: Some(dest_server),
            forwarded: false,
            was_remote: false,
            trace,
        };
        self.events.push(self.now, Event::DeliverActor(msg));
    }

    pub(crate) fn client_timer(&mut self, client: ClientId, delay: SimDuration, token: u64) {
        self.events
            .push(self.now + delay, Event::ClientTimer { client, token });
    }

    // ------------------------------------------------------------------
    // Event loop.
    // ------------------------------------------------------------------

    /// Runs the simulation until `end` (inclusive) or until stopped.
    pub fn run_until(&mut self, end: SimTime) {
        while !self.stopped {
            let Some(t) = self.events.peek_time() else {
                break;
            };
            if t > end {
                break;
            }
            let (t, event) = self.events.pop().expect("peeked");
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.handle(event);
            // Forward any server lifecycle transitions this event caused to
            // the carrier, so worker threads track cluster membership.
            if self.cluster.has_lifecycle_events() {
                self.sync_backend_lifecycle();
            }
        }
        if !self.stopped && self.now < end {
            self.now = end;
        }
        self.finalize_report();
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::DeliverActor(msg) => self.on_deliver_batch(msg),
            Event::DeliverReply {
                client,
                request,
                sent_at,
                payload,
            } => self.on_reply(client, request, sent_at, payload),
            Event::ServiceDone {
                server,
                actor,
                epoch,
            } => self.on_service_done(server, actor, epoch),
            Event::MigrationArrive {
                actor,
                dst,
                started,
                seq,
                trace,
            } => self.on_migration_arrive(actor, dst, started, seq, trace),
            Event::ServerReady(id) => self.on_server_ready(id),
            Event::ClientStart(id) => self.with_client(id, |logic, ctx| logic.on_start(ctx)),
            Event::ClientTimer { client, token } => {
                self.with_client(client, |logic, ctx| logic.on_timer(ctx, token))
            }
            Event::ProfileWindow => self.on_profile_window(),
            Event::ElasticityTick => self.on_elasticity_tick(),
            Event::Control { token } => {
                let mut controller = self.controller.take();
                if let Some(c) = controller.as_mut() {
                    c.on_control(self, token);
                }
                if self.controller.is_none() {
                    self.controller = controller;
                }
            }
            Event::Fault(i) => self.on_fault_event(i),
            Event::HeartbeatCheck => self.on_heartbeat_check(),
            Event::ServerRestart(id) => self.on_server_restart(id),
            Event::MigrationRetry {
                actor,
                dst,
                attempt,
            } => self.on_migration_retry(actor, dst, attempt),
            Event::PartitionHeal => {
                let healed = self.cluster.net_faults_mut().heal_partitions();
                self.tracer.emit(self.now, Component::Chaos, None, || {
                    TraceEventKind::PartitionHealed {
                        healed: healed as u64,
                    }
                });
            }
            Event::LinkHeal => {
                let was_active = self.cluster.net_faults_mut().clear_degradation();
                self.backend.link_delay(0);
                self.tracer.emit(self.now, Component::Chaos, None, || {
                    TraceEventKind::LinksHealed { was_active }
                });
            }
        }
    }

    /// Returns whether `event` is a delivery that will take the plain
    /// enqueue path (live destination, no forwarding hop) on `server` —
    /// i.e. its bookkeeping pushes no events and touches only that
    /// server's queues, so it can join a coalesced same-tick batch.
    fn simple_delivery_to(actors: &[Option<ActorEntry>], event: &Event, server: ServerId) -> bool {
        let Event::DeliverActor(msg) = event else {
            return false;
        };
        let Some(entry) = actors.get(msg.to.0 as usize).and_then(|e| e.as_ref()) else {
            return false;
        };
        entry.server == server && Self::plain_delivery(msg, entry.server)
    }

    /// Returns whether `msg` takes the plain enqueue path when its
    /// destination actor lives on `host`: either the send-time destination
    /// still matches, or the message already took its one forwarding hop —
    /// so delivering it pushes no re-route events.
    fn plain_delivery(msg: &Message, host: ServerId) -> bool {
        msg.forwarded || msg.dest_server_at_send.is_none_or(|s| s == host)
    }

    /// Delivers `msg` and coalesces the run of same-tick deliveries bound
    /// for the same server behind it into a single dispatch pass.
    ///
    /// This is behavior-preserving: a plain delivery's bookkeeping pushes
    /// no events, so deferring `try_dispatch` to the end of the run
    /// schedules the exact same `ServiceDone` events with the exact same
    /// sequence numbers the one-dispatch-per-delivery path would — the run
    /// queue is FIFO and lanes are claimed in delivery order either way.
    /// The batch stops at the first same-tick event that is not a plain
    /// delivery to this server (forwarding hops and orphan drops re-route
    /// or count events, so they keep their positions in the global order).
    fn on_deliver_batch(&mut self, msg: Message) {
        let simple = self
            .actors
            .get(msg.to.0 as usize)
            .and_then(|e| e.as_ref())
            .map(|entry| (entry.server, Self::plain_delivery(&msg, entry.server)));
        let Some((server, true)) = simple else {
            self.on_deliver(msg);
            return;
        };
        let mut queued = self.deliver_enqueue(msg);
        loop {
            let next = {
                let actors = &self.actors;
                self.events
                    .pop_at_if(self.now, |e| Self::simple_delivery_to(actors, e, server))
            };
            match next {
                Some(Event::DeliverActor(m)) => queued |= self.deliver_enqueue(m),
                Some(_) => unreachable!("predicate admits deliveries only"),
                None => break,
            }
        }
        if queued {
            self.try_dispatch(server);
        }
    }

    fn on_deliver(&mut self, mut msg: Message) {
        let Some(entry) = self.actors.get(msg.to.0 as usize).and_then(|e| e.as_ref()) else {
            // Arrivals addressed to an orphaned actor (crashed, not yet
            // respawned) are crash losses, not application bugs.
            if let Some(chaos) = self.chaos.as_mut() {
                if chaos.orphaned_ids.contains(&msg.to) {
                    chaos.stats.messages_lost_crash += 1;
                }
            }
            self.report.dropped_messages += 1;
            return;
        };
        let here = entry.server;
        // The actor migrated while the message was in flight: pay one
        // forwarding hop to its new home, once.
        if msg.dest_server_at_send.is_some_and(|s| s != here) && !msg.forwarded {
            msg.forwarded = true;
            msg.dest_server_at_send = Some(here);
            self.report.forwarded_messages += 1;
            let delay = self.cfg.network.remote_latency;
            self.events.push(self.now + delay, Event::DeliverActor(msg));
            return;
        }
        if self.deliver_enqueue(msg) {
            self.try_dispatch(here);
        }
    }

    /// The plain delivery path: byte accounting, tracing, carriage, and
    /// mailbox/run-queue bookkeeping — everything `on_deliver` does short
    /// of dispatching. Returns whether the destination joined the run
    /// queue. The caller has already ruled out the orphan and forwarding
    /// branches.
    fn deliver_enqueue(&mut self, msg: Message) -> bool {
        let here = self.entry(msg.to).server;
        if msg.was_remote {
            self.cluster.server_mut(here).add_net_bytes(msg.bytes);
            self.report.remote_messages += 1;
        } else {
            self.report.local_messages += 1;
        }
        self.tracer
            .emit(self.now, Component::Runtime, msg.trace, || {
                TraceEventKind::MessageDeliver {
                    to: msg.to.0,
                    server: here.0,
                    func: msg.fname.0,
                    forwarded: msg.forwarded,
                }
            });
        self.backend.transmit(Delivery {
            server: here.0,
            actor: msg.to.0,
            bytes: msg.bytes,
            remote: msg.was_remote,
        });
        let entry = self.entry_mut(msg.to);
        entry.mailbox.push_back(msg);
        let id = entry.id;
        if entry.runnable() {
            entry.in_runq = true;
            self.runq[here.0 as usize].push_back(id);
            true
        } else {
            false
        }
    }

    fn try_dispatch(&mut self, server: ServerId) {
        let sidx = server.0 as usize;
        while self.free_lanes[sidx] > 0 {
            let Some(actor) = self.runq[sidx].pop_front() else {
                break;
            };
            let Some(entry) = self.actors[actor.0 as usize].as_mut() else {
                continue;
            };
            entry.in_runq = false;
            if entry.server != server
                || entry.servicing
                || matches!(entry.migration, Some(MigrationState::InTransit { .. }))
            {
                continue;
            }
            let Some(mut msg) = entry.mailbox.pop_front() else {
                continue;
            };
            entry
                .counters
                .record_call(msg.from, msg.from_actor, msg.fname, msg.bytes);
            entry.servicing = true;
            let me = entry.id;
            let corr = msg.corr;
            let mut logic = entry.logic.take().expect("logic present outside dispatch");
            let ServiceEffects { sends, replies } = self.effects_pool.pop().unwrap_or_default();
            let mut ctx = ActorCtx {
                rt: self,
                me,
                corr,
                work: 0.0,
                sends,
                replies,
            };
            logic.on_message(&mut ctx, &mut msg);
            let ActorCtx {
                work,
                sends,
                replies,
                ..
            } = ctx;
            let tax = if self.cfg.epr_enabled {
                self.cfg.epr_tax_fixed + work * self.cfg.epr_tax_frac
            } else {
                0.0
            };
            let service = self
                .cluster
                .server(server)
                .instance()
                .service_time(work + tax);
            let entry = self.actors[actor.0 as usize]
                .as_mut()
                .expect("entry stable during dispatch");
            entry.logic = Some(logic);
            entry.counters.record_cpu(service);
            self.backend.execute(Execution {
                server: server.0,
                actor: actor.0,
                service_ns: service.as_micros() * 1_000,
            });
            self.cluster.server_mut(server).add_cpu_busy(service);
            self.free_lanes[sidx] -= 1;
            self.in_service[actor.0 as usize] = Some(ServiceEffects { sends, replies });
            self.events.push(
                self.now + service,
                Event::ServiceDone {
                    server,
                    actor,
                    epoch: self.server_epoch[sidx],
                },
            );
        }
    }

    fn on_service_done(&mut self, server: ServerId, actor: ActorId, epoch: u64) {
        // The server crashed after this service was dispatched: the lane it
        // occupied no longer exists and its effects died with the server.
        if epoch != self.server_epoch[server.0 as usize] {
            return;
        }
        self.free_lanes[server.0 as usize] += 1;
        let mut effects = self.in_service[actor.0 as usize].take().unwrap_or_default();
        let entry = self.entry_mut(actor);
        entry.servicing = false;
        let from_type = entry.type_id;
        // Flush buffered sends from the (still-source) server.
        for send in effects.sends.drain(..) {
            self.do_send(actor, from_type, server, send);
        }
        let mut reply_bytes = 0u64;
        for (corr, bytes, payload) in effects.replies.drain(..) {
            reply_bytes += bytes;
            let bps = self.cluster.server(server).instance().net_bps;
            self.cluster.server_mut(server).add_net_bytes(bytes);
            let delay = self.cfg.network.client_delay(bytes, bps);
            self.events.push(
                self.now + delay,
                Event::DeliverReply {
                    client: corr.client,
                    request: corr.request,
                    sent_at: corr.sent_at,
                    payload,
                },
            );
        }
        self.effects_pool.push(effects);
        let entry = self.entry_mut(actor);
        entry.counters.bytes_sent += reply_bytes;
        if entry.tombstone {
            self.reap_actor(actor);
        } else if let Some(MigrationState::Pending { dst }) = entry.migration {
            self.begin_transit(actor, dst);
        } else if entry.runnable() {
            entry.in_runq = true;
            self.runq[server.0 as usize].push_back(actor);
        }
        self.try_dispatch(server);
    }

    fn do_send(
        &mut self,
        from_actor: ActorId,
        from_type: ActorTypeId,
        from_server: ServerId,
        send: PendingSend,
    ) {
        let Some(dest_entry) = self.actors.get(send.to.0 as usize).and_then(|e| e.as_ref()) else {
            self.report.dropped_messages += 1;
            return;
        };
        let dest_server = dest_entry.server;
        let same = dest_server == from_server;
        let mut bps = self.cluster.server(from_server).instance().net_bps;
        let mut extra = SimDuration::ZERO;
        if !same {
            // Cross-server traffic is subject to injected network faults.
            // All of this is inert fault-free: no partitions, no
            // degradation, and crucially no RNG draw.
            if self.cluster.net_faults().severed(from_server, dest_server) {
                if let Some(chaos) = self.chaos.as_mut() {
                    chaos.stats.messages_lost_partition += 1;
                }
                self.report.dropped_messages += 1;
                return;
            }
            if self.cluster.net_faults().degradation().is_some() {
                let nf = self.cluster.net_faults();
                let drop_per_mille = nf.drop_per_mille() as u64;
                bps *= nf.bandwidth_factor();
                extra = nf.extra_latency();
                if drop_per_mille > 0 && self.rng.below(1000) < drop_per_mille {
                    if let Some(chaos) = self.chaos.as_mut() {
                        chaos.stats.messages_dropped_link += 1;
                    }
                    self.report.dropped_messages += 1;
                    return;
                }
            }
        }
        let delay = self.cfg.network.delivery_delay(same, send.bytes, bps) + extra;
        if !same {
            self.cluster
                .server_mut(from_server)
                .add_net_bytes(send.bytes);
        }
        self.entry_mut(from_actor).counters.bytes_sent += send.bytes;
        let trace = self.tracer.emit(self.now, Component::Runtime, None, || {
            TraceEventKind::MessageSend {
                from_actor: Some(from_actor.0),
                from_client: None,
                to: send.to.0,
                func: send.fname.0,
                bytes: send.bytes,
            }
        });
        let msg = Message {
            to: send.to,
            fname: send.fname,
            from: CallerKind::Actor(from_type),
            from_actor: Some(from_actor),
            bytes: send.bytes,
            corr: send.corr,
            payload: send.payload,
            dest_server_at_send: Some(dest_server),
            forwarded: false,
            was_remote: !same,
            trace,
        };
        self.events.push(self.now + delay, Event::DeliverActor(msg));
    }

    fn begin_transit(&mut self, actor: ActorId, dst: ServerId) {
        let (src, state_size) = {
            let e = self.entry(actor);
            (e.server, e.state_size)
        };
        // Remove from the source run queue eagerly so the flag discipline
        // (queued iff in_runq) holds.
        if self.entry(actor).in_runq {
            self.runq[src.0 as usize].retain(|&a| a != actor);
            self.entry_mut(actor).in_runq = false;
        }
        self.entry_mut(actor).migration = Some(MigrationState::InTransit { dst });
        self.cluster.server_mut(src).remove_mem(state_size);
        self.cluster.server_mut(src).add_net_bytes(state_size);
        let src_bps = self.cluster.server(src).instance().net_bps;
        let dst_bps = self.cluster.server(dst).instance().net_bps;
        let mut bps = src_bps.min(dst_bps);
        let mut extra = SimDuration::ZERO;
        if self.cluster.net_faults().degradation().is_some() {
            let nf = self.cluster.net_faults();
            bps *= nf.bandwidth_factor();
            extra = nf.extra_latency();
        }
        let delay = self.cfg.network.transfer_delay(state_size, bps) + extra;
        let entry = self.entry_mut(actor);
        entry.migration_seq += 1;
        let seq = entry.migration_seq;
        let parent = entry.migration_trace.take();
        let trace = self.tracer.emit(self.now, Component::Runtime, parent, || {
            TraceEventKind::MigrationStart {
                actor: actor.0,
                src: src.0,
                dst: dst.0,
                state_bytes: state_size,
            }
        });
        self.events.push(
            self.now + delay,
            Event::MigrationArrive {
                actor,
                dst,
                started: self.now,
                seq,
                trace,
            },
        );
    }

    fn on_migration_arrive(
        &mut self,
        actor: ActorId,
        dst: ServerId,
        started: SimTime,
        seq: u64,
        trace: Option<EventId>,
    ) {
        // The actor may have been removed — or the migration aborted by a
        // fault — while its state was in transit; a seq mismatch marks the
        // arrival as stale.
        let Some(entry) = self.actors.get(actor.0 as usize).and_then(|e| e.as_ref()) else {
            return;
        };
        if entry.migration_seq != seq {
            return;
        }
        let src = entry.server;
        let state_size = entry.state_size;
        // An open migration-abort window kills the transfer at the finish
        // line: the actor reverts to its source, then retries with backoff.
        let aborted = self
            .chaos
            .as_mut()
            .is_some_and(|c| c.should_abort_migration(self.now));
        if aborted {
            let mut chaos = self.chaos.take().expect("abort implies chaos");
            self.abort_in_transit(&mut chaos, actor, src, dst, "injected", trace);
            self.schedule_migration_retry(&mut chaos, actor, dst);
            self.chaos = Some(chaos);
            return;
        }
        self.inbound_migrations[dst.0 as usize] -= 1;
        if let Some(chaos) = self.chaos.as_mut() {
            chaos.retries.remove(&actor);
        }
        self.actors_by_server[src.0 as usize].remove(&actor);
        self.actors_by_server[dst.0 as usize].insert(actor);
        self.cluster.server_mut(dst).add_mem(state_size);
        self.cluster.server_mut(dst).add_net_bytes(state_size);
        let now = self.now;
        let entry = self.entry_mut(actor);
        entry.server = dst;
        entry.arrived_at = now;
        entry.migration = None;
        self.report.migrations.push(MigrationRecord {
            at: now,
            actor,
            src,
            dst,
            transfer_time: now.saturating_since(started),
        });
        self.tracer.emit(now, Component::Runtime, trace, || {
            TraceEventKind::MigrationComplete {
                actor: actor.0,
                src: src.0,
                dst: dst.0,
                transfer_us: now.saturating_since(started).as_micros(),
            }
        });
        let entry = self.entry_mut(actor);
        if entry.runnable() {
            entry.in_runq = true;
            self.runq[dst.0 as usize].push_back(actor);
            self.try_dispatch(dst);
        }
    }

    fn on_reply(
        &mut self,
        client: ClientId,
        request: u64,
        sent_at: SimTime,
        payload: Option<Payload>,
    ) {
        let latency_ms = self.now.saturating_since(sent_at).as_millis_f64();
        self.report.replies += 1;
        self.report.latency.record(latency_ms);
        self.report.latency_series.record(self.now, latency_ms);
        let bucket = self.cfg.latency_bucket;
        self.report
            .client_latency
            .entry(client)
            .or_insert_with(|| plasma_sim::metrics::BucketedSeries::new(bucket))
            .record(self.now, latency_ms);
        let latency = self.now.saturating_since(sent_at);
        self.with_client(client, |logic, ctx| {
            logic.on_reply(ctx, request, latency, payload)
        });
    }

    fn on_server_ready(&mut self, id: ServerId) {
        self.cluster.mark_running(id, self.now);
        self.free_lanes[id.0 as usize] = self.cluster.server(id).instance().vcpus;
        // A rebooted server recovers its own orphans in place when it comes
        // back before the failure detector reassigned them elsewhere.
        if let Some(mut chaos) = self.chaos.take() {
            if let Some((crashed_at, restart_trace)) = chaos.restarting.remove(&id) {
                if let Some(orphans) = chaos.orphans.remove(&id) {
                    for orphan in orphans {
                        self.respawn_orphan(&mut chaos, orphan, id, id, restart_trace);
                    }
                    chaos
                        .stats
                        .record_unavailability(self.now.saturating_since(crashed_at).as_secs_f64());
                }
            }
            self.chaos = Some(chaos);
        }
        let mut controller = self.controller.take();
        if let Some(c) = controller.as_mut() {
            c.on_server_ready(self, id);
        }
        if self.controller.is_none() {
            self.controller = controller;
        }
    }

    fn on_profile_window(&mut self) {
        self.roll_window(true);
    }

    /// Closes the current profiling window: builds the next
    /// [`ProfileSnapshot`] (moving each actor's counters into it, which
    /// leaves them zeroed for the next window), and barriers the
    /// execution backend. The periodic chain passes `schedule_next`; a
    /// forced early roll (snapshot-skew fault injection) does not, so the
    /// periodic cadence is preserved and the extra roll just inserts one
    /// additional generation.
    fn roll_window(&mut self, schedule_next: bool) {
        let window = self.cfg.profile_window;
        let mut servers = Vec::new();
        for sid in self.cluster.running_ids() {
            let usage = self.cluster.server_mut(sid).roll_usage(self.now);
            let actor_count = self.actors_by_server[sid.0 as usize].len();
            servers.push(ServerWindowStats {
                server: sid,
                usage,
                actor_count,
            });
            self.report
                .server_cpu
                .entry(sid)
                .or_default()
                .push(self.now, usage.cpu());
            self.report
                .server_actors
                .entry(sid)
                .or_default()
                .push(self.now, actor_count as f64);
        }
        let mut actor_stats = Vec::new();
        if self.cfg.epr_enabled {
            for entry in self.actors.iter_mut().flatten() {
                let server = entry.server;
                let vcpus = self.cluster.server(server).instance().vcpus;
                // Busy time is charged to the dispatch window, so a service
                // spanning a window boundary can overshoot; clamp like the
                // server-side meter does.
                let cpu_share = if window.is_zero() || vcpus == 0 {
                    0.0
                } else {
                    (entry.counters.cpu_busy.as_secs_f64() / (window.as_secs_f64() * vcpus as f64))
                        .min(1.0)
                };
                actor_stats.push(ActorWindowStats {
                    actor: entry.id,
                    type_id: entry.type_id,
                    server,
                    state_size: entry.state_size,
                    pinned: entry.pinned,
                    cpu_share,
                    counters: std::mem::take(&mut entry.counters),
                    refs: entry.refs.clone(),
                });
            }
        } else {
            for entry in self.actors.iter_mut().flatten() {
                entry.counters = ActorCounters::default();
            }
        }
        let next = Arc::new(ProfileSnapshot {
            generation: self.snapshot.generation + 1,
            at: self.now,
            window,
            actors: actor_stats,
            servers,
        });
        // Emit the generation delta alongside the snapshot itself, so
        // retained index structures (the EMR's EvalFrame) can patch in
        // place instead of rebuilding per round.
        if self.deltas.len() == self.delta_cap {
            self.deltas.pop_front();
        }
        self.deltas
            .push_back(SnapshotDelta::between(&self.snapshot, &next));
        self.snapshot = next;
        // Publish every running server's LEM report row to the carrier
        // before the barrier closes the window: worker-held rows become
        // byte-exact copies of what the EMR's `EvalFrame` computes from
        // this same snapshot generation, which is what lets QREPLY
        // candidates reproduce the shared-snapshot decision bit-for-bit.
        for sid in self.cluster.running_ids() {
            let report = self.server_report(sid);
            self.backend
                .publish_report(self.snapshot.generation, &report);
        }
        // Barrier the carrier on the freshly built generation; under live
        // this verifies exactly-once carriage of the window's events.
        self.backend.window_close(self.snapshot.generation);
        if schedule_next {
            self.events.push(self.now + window, Event::ProfileWindow);
        }
    }

    fn on_elasticity_tick(&mut self) {
        self.elasticity_rounds += 1;
        self.backend.round_barrier(self.elasticity_rounds);
        let mut controller = self.controller.take();
        if let Some(c) = controller.as_mut() {
            c.on_elasticity_tick(self);
        }
        if self.controller.is_none() {
            self.controller = controller;
        }
        self.events
            .push(self.now + self.cfg.elasticity_period, Event::ElasticityTick);
    }

    // ------------------------------------------------------------------
    // Chaos: fault injection and recovery.
    // ------------------------------------------------------------------

    fn on_fault_event(&mut self, idx: usize) {
        let Some(mut chaos) = self.chaos.take() else {
            return;
        };
        let kind = chaos.schedule[idx].kind.clone();
        chaos.stats.faults_injected += 1;
        let label = kind.label();
        let subject = kind.subject_server();
        let fault_trace = self.tracer.emit(self.now, Component::Chaos, None, || {
            TraceEventKind::FaultInjected {
                fault: label.to_string(),
                server: subject.map(|s| u64::from(s.0)),
            }
        });
        match kind {
            FaultKind::ServerCrash {
                server,
                restart_after,
            } => {
                self.apply_server_crash(&mut chaos, server, restart_after, fault_trace);
            }
            FaultKind::Partition { group, heal_after } => {
                let group_size = group.len() as u64;
                self.cluster.net_faults_mut().start_partition(group);
                self.tracer
                    .emit(self.now, Component::Chaos, fault_trace, || {
                        TraceEventKind::PartitionStarted { group_size }
                    });
                if let Some(d) = heal_after {
                    self.events.push(self.now + d, Event::PartitionHeal);
                }
            }
            FaultKind::HealPartitions => {
                let healed = self.cluster.net_faults_mut().heal_partitions();
                self.tracer
                    .emit(self.now, Component::Chaos, fault_trace, || {
                        TraceEventKind::PartitionHealed {
                            healed: healed as u64,
                        }
                    });
            }
            FaultKind::LinkDegrade {
                degradation,
                heal_after,
            } => {
                self.tracer
                    .emit(self.now, Component::Chaos, fault_trace, || {
                        TraceEventKind::LinkDegraded {
                            extra_latency_us: degradation.extra_latency.as_micros(),
                            bandwidth_pct: (degradation.bandwidth_factor * 100.0) as u32,
                            drop_per_mille: degradation.drop_per_mille,
                        }
                    });
                self.backend
                    .link_delay(degradation.extra_latency.as_micros() * 1_000);
                self.cluster.net_faults_mut().set_degradation(degradation);
                if let Some(d) = heal_after {
                    self.events.push(self.now + d, Event::LinkHeal);
                }
            }
            FaultKind::HealLinks => {
                let was_active = self.cluster.net_faults_mut().clear_degradation();
                self.backend.link_delay(0);
                self.tracer
                    .emit(self.now, Component::Chaos, fault_trace, || {
                        TraceEventKind::LinksHealed { was_active }
                    });
            }
            FaultKind::MigrationAbort { window, max } => {
                chaos.abort_until = self.now + window;
                chaos.abort_budget = max;
            }
            FaultKind::GemCrash { gem } => {
                // Only the controller knows its GEM topology; hand over.
                self.chaos = Some(chaos);
                let mut controller = self.controller.take();
                if let Some(c) = controller.as_mut() {
                    c.on_fault(self, ControlFault::GemCrash { gem });
                }
                if self.controller.is_none() {
                    self.controller = controller;
                }
                return;
            }
            FaultKind::LemCrash { server } => {
                // The monitor process restarts: the profiling window in
                // progress on this server is lost. A LEM on a server that
                // was never provisioned has nothing to lose.
                let ids: Vec<ActorId> = self
                    .actors_by_server
                    .get(server.0 as usize)
                    .map(|set| set.iter().copied().collect())
                    .unwrap_or_default();
                for aid in ids {
                    if let Some(e) = self.try_entry_mut(aid) {
                        e.counters.reset();
                    }
                }
                self.tracer
                    .emit(self.now, Component::Chaos, fault_trace, || {
                        TraceEventKind::LemCrashed { server: server.0 }
                    });
            }
            FaultKind::ProvisionerStall { duration } => {
                let until = self.now + duration;
                chaos.provisioner_stalled_until = until;
                self.tracer
                    .emit(self.now, Component::Chaos, fault_trace, || {
                        TraceEventKind::ProvisionerStalled {
                            until_us: until.as_micros(),
                        }
                    });
            }
            FaultKind::SnapshotSkew => {
                // Roll the profiling window early, off the periodic cadence:
                // any elasticity round currently between planning and apply
                // sees its snapshot generation change under it.
                chaos.stats.snapshot_skews += 1;
                self.roll_window(false);
            }
        }
        self.chaos = Some(chaos);
    }

    /// Crash-stops `server`: every resident actor loses its state and
    /// queued mail, in-flight migrations from or toward it abort, and the
    /// failure detector is left to notice.
    fn apply_server_crash(
        &mut self,
        chaos: &mut ChaosState,
        server: ServerId,
        restart_after: Option<SimDuration>,
        fault_trace: Option<EventId>,
    ) {
        if !self.cluster.crash(server, self.now) {
            return; // Not running: nothing to kill.
        }
        let sidx = server.0 as usize;
        self.server_epoch[sidx] += 1;
        self.free_lanes[sidx] = 0;
        self.runq[sidx].clear();
        chaos.stats.servers_crashed += 1;
        if chaos.stats.first_crash_at_s.is_none() {
            chaos.stats.first_crash_at_s = Some(self.now.as_secs_f64());
        }
        let residents: Vec<ActorId> = self.actors_by_server[sidx].iter().copied().collect();
        let actors_lost = residents.len() as u64;
        let messages_lost: u64 = residents
            .iter()
            .map(|&a| self.entry(a).mailbox.len() as u64)
            .sum();
        chaos.stats.actors_lost += actors_lost;
        chaos.stats.messages_lost_crash += messages_lost;
        let crash_trace = self
            .tracer
            .emit(self.now, Component::Runtime, fault_trace, || {
                TraceEventKind::ServerCrashed {
                    server: server.0,
                    actors_lost,
                    messages_lost,
                }
            });
        for aid in residents {
            let Some(entry) = self.actors[aid.0 as usize].take() else {
                continue;
            };
            self.actors_by_server[sidx].remove(&aid);
            // Buffered effects die with the server, never delivered.
            self.in_service[aid.0 as usize] = None;
            if let Some(MigrationState::Pending { dst } | MigrationState::InTransit { dst }) =
                entry.migration
            {
                self.inbound_migrations[dst.0 as usize] -= 1;
                chaos.stats.migrations_aborted += 1;
                self.tracer
                    .emit(self.now, Component::Runtime, crash_trace, || {
                        TraceEventKind::MigrationAborted {
                            actor: aid.0,
                            src: server.0,
                            dst: dst.0,
                            reason: "source-crashed".to_string(),
                        }
                    });
            }
            // In-transit state was already deducted from this server.
            if !matches!(entry.migration, Some(MigrationState::InTransit { .. })) {
                self.cluster.server_mut(server).remove_mem(entry.state_size);
            }
            chaos.stats.state_bytes_lost += entry.state_size;
            if entry.tombstone {
                continue; // Was being removed anyway; do not resurrect.
            }
            chaos.orphaned_ids.insert(aid);
            chaos.orphans.entry(server).or_default().push(OrphanActor {
                id: aid,
                type_id: entry.type_id,
                logic: entry.logic.expect("logic present outside dispatch"),
                state_size: entry.state_size,
                refs: entry.refs,
                pinned: entry.pinned,
                migration_seq: entry.migration_seq + 1,
            });
        }
        // Abort migrations headed toward the dead server.
        let inbound: Vec<ActorId> = self
            .actors
            .iter()
            .flatten()
            .filter(|e| {
                matches!(
                    e.migration,
                    Some(MigrationState::Pending { dst } | MigrationState::InTransit { dst })
                        if dst == server
                )
            })
            .map(|e| e.id)
            .collect();
        for aid in inbound {
            match self.entry(aid).migration {
                Some(MigrationState::Pending { .. }) => {
                    self.inbound_migrations[sidx] -= 1;
                    let e = self.entry_mut(aid);
                    e.migration = None;
                    let src = e.server;
                    chaos.stats.migrations_aborted += 1;
                    self.tracer
                        .emit(self.now, Component::Runtime, crash_trace, || {
                            TraceEventKind::MigrationAborted {
                                actor: aid.0,
                                src: src.0,
                                dst: server.0,
                                reason: "destination-down".to_string(),
                            }
                        });
                }
                Some(MigrationState::InTransit { .. }) => {
                    let src = self.entry(aid).server;
                    self.abort_in_transit(chaos, aid, src, server, "destination-down", crash_trace);
                }
                None => unreachable!("filtered on migration"),
            }
        }
        chaos.crashed.insert(
            server,
            CrashRecord {
                at: self.now,
                trace: crash_trace,
            },
        );
        if let Some(d) = restart_after {
            self.events.push(self.now + d, Event::ServerRestart(server));
        }
    }

    /// Reverts an in-transit migration: the actor stays on `src` with its
    /// state intact there, and the stale arrival event is invalidated.
    fn abort_in_transit(
        &mut self,
        chaos: &mut ChaosState,
        actor: ActorId,
        src: ServerId,
        dst: ServerId,
        reason: &'static str,
        parent: Option<EventId>,
    ) {
        self.inbound_migrations[dst.0 as usize] -= 1;
        let entry = self.entry_mut(actor);
        entry.migration = None;
        entry.migration_seq += 1;
        let state_size = entry.state_size;
        self.cluster.server_mut(src).add_mem(state_size);
        chaos.stats.migrations_aborted += 1;
        self.tracer.emit(self.now, Component::Runtime, parent, || {
            TraceEventKind::MigrationAborted {
                actor: actor.0,
                src: src.0,
                dst: dst.0,
                reason: reason.to_string(),
            }
        });
        let entry = self.entry_mut(actor);
        if entry.runnable() {
            entry.in_runq = true;
            self.runq[src.0 as usize].push_back(actor);
            self.try_dispatch(src);
        }
    }

    /// Arms one retry of an aborted migration, with exponential backoff,
    /// until the policy's attempt limit is exhausted.
    fn schedule_migration_retry(&mut self, chaos: &mut ChaosState, actor: ActorId, dst: ServerId) {
        let attempt = chaos.retries.entry(actor).or_insert(0);
        *attempt += 1;
        let attempt = *attempt;
        if attempt > chaos.policy.migration_retry_limit {
            return;
        }
        let delay = chaos.policy.backoff_for(attempt);
        self.events.push(
            self.now + delay,
            Event::MigrationRetry {
                actor,
                dst,
                attempt,
            },
        );
    }

    fn on_migration_retry(&mut self, actor: ActorId, dst: ServerId, attempt: u32) {
        let Some(chaos) = self.chaos.as_mut() else {
            return;
        };
        chaos.stats.migration_retries += 1;
        let retry_trace = self.tracer.emit(self.now, Component::Runtime, None, || {
            TraceEventKind::MigrationRetry {
                actor: actor.0,
                dst: dst.0,
                attempt,
            }
        });
        // A refusal (actor gone, destination down or unreachable, pinned
        // in the meantime) ends the retry chain; the controller re-plans.
        let _ = self.migrate_traced(actor, dst, retry_trace);
    }

    /// The heartbeat failure detector: declares silent-for-too-long
    /// servers dead and respawns their orphans on the survivors.
    fn on_heartbeat_check(&mut self) {
        let Some(mut chaos) = self.chaos.take() else {
            return;
        };
        let timeout = chaos.policy.heartbeat_timeout;
        let due: Vec<ServerId> = chaos
            .crashed
            .iter()
            .filter(|(_, rec)| self.now.saturating_since(rec.at) >= timeout)
            .map(|(&s, _)| s)
            .collect();
        for server in due {
            let running = self.cluster.running_ids();
            if running.is_empty() && chaos.policy.respawn {
                break; // Nowhere to respawn; retry next sweep.
            }
            let rec = chaos.crashed.remove(&server).expect("collected above");
            let latency = self.now.saturating_since(rec.at);
            chaos.stats.record_detection(latency.as_secs_f64());
            let dead_trace = self.tracer.emit(self.now, Component::Gem, rec.trace, || {
                TraceEventKind::ServerDeclaredDead {
                    server: server.0,
                    detect_latency_us: latency.as_micros(),
                }
            });
            if chaos.policy.respawn {
                if let Some(orphans) = chaos.orphans.remove(&server) {
                    for (k, orphan) in orphans.into_iter().enumerate() {
                        let dst = running[k % running.len()];
                        self.respawn_orphan(&mut chaos, orphan, server, dst, dead_trace);
                    }
                    chaos.stats.record_unavailability(latency.as_secs_f64());
                }
            }
        }
        self.events.push(
            self.now + chaos.policy.heartbeat_period,
            Event::HeartbeatCheck,
        );
        self.chaos = Some(chaos);
    }

    fn on_server_restart(&mut self, id: ServerId) {
        let Some(mut chaos) = self.chaos.take() else {
            return;
        };
        if let Some(ready_at) = self.cluster.restart(id, self.now) {
            chaos.stats.servers_restarted += 1;
            let rec = chaos.crashed.remove(&id);
            let crashed_at = rec.as_ref().map(|r| r.at);
            let parent = rec.and_then(|r| r.trace);
            let restart_trace = self.tracer.emit(self.now, Component::Chaos, parent, || {
                TraceEventKind::ServerRestarted {
                    server: id.0,
                    ready_at_us: ready_at.as_micros(),
                }
            });
            // If the failure detector already reassigned the orphans, the
            // server just comes back empty; otherwise it recovers them in
            // place once it is ready.
            if chaos.orphans.contains_key(&id) {
                chaos
                    .restarting
                    .insert(id, (crashed_at.unwrap_or(self.now), restart_trace));
            }
            self.events.push(ready_at, Event::ServerReady(id));
        }
        self.chaos = Some(chaos);
    }

    /// Re-inserts an orphaned actor on `dst` with fresh (lost) state; the
    /// directory preserved its identity, references and pin.
    fn respawn_orphan(
        &mut self,
        chaos: &mut ChaosState,
        orphan: OrphanActor,
        src: ServerId,
        dst: ServerId,
        parent: Option<EventId>,
    ) {
        let id = orphan.id;
        let state_size = orphan.state_size;
        let mut entry =
            ActorEntry::new(id, orphan.type_id, dst, orphan.logic, state_size, self.now);
        entry.refs = orphan.refs;
        entry.pinned = orphan.pinned;
        entry.migration_seq = orphan.migration_seq;
        self.actors[id.0 as usize] = Some(entry);
        self.actors_by_server[dst.0 as usize].insert(id);
        self.cluster.server_mut(dst).add_mem(state_size);
        chaos.orphaned_ids.remove(&id);
        chaos.stats.actors_recovered += 1;
        self.tracer.emit(self.now, Component::Runtime, parent, || {
            TraceEventKind::ActorRecovered {
                actor: id.0,
                src: src.0,
                dst: dst.0,
                state_bytes_lost: state_size,
            }
        });
    }

    fn with_client(
        &mut self,
        id: ClientId,
        f: impl FnOnce(&mut Box<dyn ClientLogic>, &mut ClientCtx<'_>),
    ) {
        let Some(mut logic) = self
            .clients
            .get_mut(id.0 as usize)
            .and_then(|c| c.logic.take())
        else {
            return;
        };
        let mut ctx = ClientCtx { rt: self, me: id };
        f(&mut logic, &mut ctx);
        self.clients[id.0 as usize].logic = Some(logic);
    }

    /// Drains the cluster's lifecycle journal into the execution backend,
    /// opening and closing per-server carriers as servers come and go.
    fn sync_backend_lifecycle(&mut self) {
        if !self.cluster.has_lifecycle_events() {
            return;
        }
        for ev in self.cluster.drain_lifecycle() {
            if ev.up {
                self.backend.server_up(ev.server.0, ev.vcpus);
                // A server booted mid-window has no usage row in the
                // current snapshot; publish its zero-usage row so a query
                // between boot and the next window roll sees the same
                // candidates as the EMR's frame.
                let report = self.server_report(ev.server);
                self.backend
                    .publish_report(self.snapshot.generation, &report);
            } else {
                self.backend.server_down(ev.server.0);
            }
        }
    }

    /// Builds the LEM report row for `sid` against the current snapshot:
    /// usage and actor count from the snapshot row, zeros for a server
    /// booted after it, capacity from the instance type. This is the one
    /// derivation of a server's row — the row the carriers hold and the
    /// EMR's `EvalFrame` builds its `ServerMeta` from. f64 fields travel
    /// as raw bit patterns so the wire cannot perturb them.
    pub fn server_report(&self, sid: ServerId) -> ServerReport {
        let (cpu, mem, net, actor_count) = match self.snapshot.server(sid) {
            Some(s) => (s.usage.cpu(), s.usage.mem(), s.usage.net(), s.actor_count),
            None => (0.0, 0.0, 0.0, 0),
        };
        let inst = self.cluster.server(sid).instance();
        ServerReport {
            server: sid.0,
            vcpus: inst.vcpus,
            actor_count: actor_count as u64,
            mem_bytes: inst.mem_bytes,
            total_speed_bits: inst.total_speed().to_bits(),
            net_bps_bits: inst.net_bps.to_bits(),
            cpu_bits: cpu.to_bits(),
            mem_bits: mem.to_bits(),
            net_bits: net.to_bits(),
        }
    }

    /// Sends a GEM policy query over the control carriage and returns the
    /// per-carrier replies. Lifecycle events are synced first so the
    /// carrier and the logical cluster agree on which servers are up.
    pub fn control_query(&mut self, query: ControlQuery) -> Vec<ControlReply> {
        self.sync_backend_lifecycle();
        self.backend.query(&query)
    }

    /// Broadcasts a GEM decision over the control carriage (audit/metrics
    /// traffic: workers count it, nothing feeds back).
    pub fn control_decision(&mut self, decision: ControlDecision) {
        self.backend.decide(&decision);
    }

    fn ensure_server_slots(&mut self, id: ServerId) {
        let idx = id.0 as usize;
        if idx >= self.actors_by_server.len() {
            self.actors_by_server.resize_with(idx + 1, BTreeSet::new);
            self.runq.resize_with(idx + 1, VecDeque::new);
            self.free_lanes.resize(idx + 1, 0);
            self.server_epoch.resize(idx + 1, 0);
            self.inbound_migrations.resize(idx + 1, 0);
        }
        self.free_lanes[idx] = self.cluster.server(id).instance().vcpus;
    }

    fn finalize_report(&mut self) {
        self.report.orphan_replies = self.orphan_replies;
        // Chaos scalars exist only when a fault plan is installed, so
        // fault-free reports stay byte-identical.
        if let Some(s) = self.chaos.as_ref().map(|c| c.stats) {
            let scalars = &mut self.report.scalars;
            let mut put = |k: &str, v: f64| {
                scalars.insert(format!("chaos.{k}"), v);
            };
            put("faults_injected", s.faults_injected as f64);
            put("servers_crashed", s.servers_crashed as f64);
            put("servers_restarted", s.servers_restarted as f64);
            put("actors_lost", s.actors_lost as f64);
            put("actors_recovered", s.actors_recovered as f64);
            put("state_bytes_lost", s.state_bytes_lost as f64);
            put("messages_lost_crash", s.messages_lost_crash as f64);
            put("messages_lost_partition", s.messages_lost_partition as f64);
            put("messages_dropped_link", s.messages_dropped_link as f64);
            put("migrations_aborted", s.migrations_aborted as f64);
            put("migration_retries", s.migration_retries as f64);
            put("snapshot_skews", s.snapshot_skews as f64);
            put("detections", s.detections as f64);
            put("detect_latency_mean_s", s.detect_latency_mean_s());
            put("detect_latency_max_s", s.detect_latency_max_s);
            put("unavailability_sum_s", s.unavailability_sum_s);
            put("unavailability_max_s", s.unavailability_max_s);
            if let Some(t) = s.first_crash_at_s {
                put("first_crash_at_s", t);
            }
        }
        // Backend scalars exist only for live/net runs, so sim reports
        // stay byte-identical to builds predating the backend layer. All
        // wall-clock values here are measurement side-channels (excluded
        // from decision digests and benchmark baselines).
        if self.backend.kind() != BackendKind::Sim {
            let s = self.backend.stats();
            let scalars = &mut self.report.scalars;
            let mut put = |k: &str, v: f64| {
                scalars.insert(format!("backend.{k}"), v);
            };
            put("deliveries", s.deliveries as f64);
            put("executions", s.executions as f64);
            put("windows_closed", s.windows_closed as f64);
            put("window_mismatches", s.window_mismatches as f64);
            put("rounds", s.rounds as f64);
            put("workers_spawned", s.workers_spawned as f64);
            put("wall_ms", s.wall_ns as f64 / 1e6);
            put("worker_busy_ms", s.worker_busy_ns as f64 / 1e6);
            put("channel_latency_us_mean", s.channel_latency_us_mean());
            put("channel_latency_us_max", s.channel_ns_max as f64 / 1e3);
            put("control_reports", s.control_reports as f64);
            put("control_queries", s.control_queries as f64);
            put("control_replies", s.control_replies as f64);
            put("control_decisions", s.control_decisions as f64);
            put("control_wire_bytes", s.control_wire_bytes as f64);
            if self.backend.kind() == BackendKind::Net {
                put("frames_sent", s.frames_sent as f64);
                put("frames_received", s.frames_received as f64);
                put("wire_bytes_sent", s.wire_bytes_sent as f64);
                put("wire_bytes_received", s.wire_bytes_received as f64);
                put("max_inflight_frames", s.max_inflight_frames as f64);
            }
        }
    }

    /// Returns the run report.
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// Which execution backend carries this run.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// Nanoseconds on the backend's monotonic clock: identically 0 under
    /// sim (virtual time lives in the event queue), real wall clock under
    /// live. Measurement only — never feed this back into scheduling.
    pub fn monotonic_ns(&self) -> u64 {
        self.backend.monotonic_ns()
    }

    /// Snapshot of the backend's cumulative carriage counters.
    pub fn backend_stats(&self) -> BackendStats {
        self.backend.stats()
    }

    /// Consumes the runtime, returning the report plus the cluster for cost
    /// queries.
    pub fn into_report(self) -> (RunReport, Cluster) {
        (self.report, self.cluster)
    }

    fn entry(&self, actor: ActorId) -> &ActorEntry {
        self.actors[actor.0 as usize]
            .as_ref()
            .expect("actor exists")
    }

    fn try_entry(&self, actor: ActorId) -> Option<&ActorEntry> {
        self.actors.get(actor.0 as usize).and_then(|e| e.as_ref())
    }

    fn try_entry_mut(&mut self, actor: ActorId) -> Option<&mut ActorEntry> {
        self.actors
            .get_mut(actor.0 as usize)
            .and_then(|e| e.as_mut())
    }

    fn entry_mut(&mut self, actor: ActorId) -> &mut ActorEntry {
        self.actors[actor.0 as usize]
            .as_mut()
            .expect("actor exists")
    }
}
