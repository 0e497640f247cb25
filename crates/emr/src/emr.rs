//! [`PlasmaEmr`]: the elasticity controller wiring LEM and GEM planning
//! into the actor runtime.
//!
//! One elasticity round follows the paper's two-level protocol (Figs. 2/4,
//! Algs. 1-2):
//!
//! 1. **Tick** — LEMs read the profiling snapshot; each reports to its GEM.
//!    GEMs with enough reports plan resource actions (`balance`,
//!    `reserve`) over their managed servers and vote on scaling; LEMs plan
//!    interaction actions (`colocate`, `separate`, `pin`), letting
//!    colocation partners chase this round's resource migrations.
//! 2. **Apply** (one control round-trip later) — conflicting actions are
//!    resolved by priority, each migration is admitted only if the target
//!    has idle capacity (the QUERY/QREPLY handshake of Alg. 1), and
//!    admitted actions are handed to the runtime's live-migration machinery.
//!
//! Scaling follows §4.2: when a majority of GEMs observe all their servers
//! overloaded, a server is provisioned; when a majority observe all idle,
//! one server is drained and decommissioned.

use std::collections::{BTreeMap, BTreeSet};

use plasma_actor::ids::{ActorId, ActorTypeId};
use plasma_actor::{
    ControlDecision, ControlQuery, ElasticityController, MigrationOrder, Runtime, ServerReport,
};
use plasma_cluster::{InstanceType, ServerId};
use plasma_epl::analyze::CompiledPolicy;
use plasma_epl::ast::{ActorRef, Behavior, Cond, Feature};
use plasma_trace::{Component, EventId, TraceEventKind, Tracer};

use crate::action::{resolve_conflicts, Action, ActionKind, RuleStat};
use crate::eval::BoundPolicy;
use crate::gem::{Bounds, GemConfig};
use crate::view::{EvalCtx, EvalFrame};
use crate::{gem, lem};

/// Control token for the apply phase.
const TOKEN_APPLY: u64 = 1;

/// Trace label for a behavior kind.
fn kind_str(kind: ActionKind) -> &'static str {
    match kind {
        ActionKind::Balance => "balance",
        ActionKind::Reserve => "reserve",
        ActionKind::Colocate => "colocate",
        ActionKind::Separate => "separate",
    }
}

/// Rule index as it appears in trace events: internal actions (scale-in
/// drains, marked `usize::MAX`) map to `u64::MAX`, which exporters render
/// as `null`.
fn rule_trace_id(rule: usize) -> u64 {
    if rule == usize::MAX {
        u64::MAX
    } else {
        rule as u64
    }
}

/// Configuration of the EMR.
#[derive(Clone, Debug)]
pub struct EmrConfig {
    /// Number of GEMs (the paper runs several for scalability and fault
    /// tolerance, §5.7).
    pub num_gems: usize,
    /// Fallback watermarks for rules that state none.
    pub default_bounds: Bounds,
    /// Maximum migrations one `balance` invocation may plan per round.
    pub max_balance_moves: usize,
    /// Minimum utilization gap for a balance move.
    pub min_gap: f64,
    /// Whether the EMR may grow/shrink the cluster.
    pub auto_scale: bool,
    /// Flavor provisioned on scale-out.
    pub scale_instance: InstanceType,
    /// How many servers may be drained per round on scale-in.
    pub scale_in_step: usize,
    /// How many servers may be requested per round on scale-out.
    pub scale_out_step: usize,
    /// Alg. 2's `K`: a GEM only processes its reports once it has heard
    /// from more than `k_reports` servers.
    pub k_reports: usize,
}

impl Default for EmrConfig {
    fn default() -> Self {
        EmrConfig {
            num_gems: 1,
            default_bounds: Bounds::DEFAULT,
            max_balance_moves: 8,
            min_gap: 0.10,
            auto_scale: false,
            scale_instance: InstanceType::m1_small(),
            scale_in_step: 2,
            scale_out_step: 1,
            k_reports: 0,
        }
    }
}

/// One planned-but-not-yet-applied elasticity round.
struct Round {
    /// The tick that planned the round (for trace correlation).
    number: u64,
    /// When planning happened; the plan→apply gap is the LEM→GEM→LEM
    /// decision latency the evaluation harness reports.
    planned_at: plasma_sim::SimTime,
    /// Snapshot generation the plan was computed from. If a profiling
    /// window (or an injected snapshot-skew fault) rolls a new generation
    /// before the apply instant, the apply phase detects the skew.
    planned_generation: u64,
    /// Servers requested this round (for the decision broadcast).
    grow: u32,
    /// Servers put into draining this round (for the decision broadcast).
    shrink: u32,
    actions: Vec<Action>,
}

/// Counters the EMR exports into the run report each round.
#[derive(Debug, Default, Clone, Copy)]
pub struct EmrStats {
    /// Elasticity rounds executed.
    pub ticks: u64,
    /// Actions planned (pre conflict resolution).
    pub planned: u64,
    /// Migrations admitted and issued.
    pub admitted: u64,
    /// Actions dropped by admission control or migration guards.
    pub rejected: u64,
    /// Scale-out events.
    pub scale_outs: u64,
    /// Scale-in (decommission) events.
    pub scale_ins: u64,
    /// Plan→apply round-trips completed.
    pub rounds_applied: u64,
    /// Total simulated plan→apply decision latency over applied rounds, in
    /// milliseconds (the LEM→GEM→LEM control loop of Alg. 1).
    pub decision_latency_ms_total: f64,
    /// Worst simulated plan→apply decision latency, in milliseconds.
    pub decision_latency_ms_max: f64,
    /// Total nanoseconds on the execution backend's monotonic clock spent
    /// building the evaluation frame and running GEM/LEM planning.
    /// Identically 0 under the sim backend (its carrier clock never moves)
    /// and host-dependent under live — so it is kept out of traces and
    /// benchmark baselines, exported only as a report scalar.
    pub eval_ns: u64,
    /// Rounds whose apply phase ran against a newer snapshot generation
    /// than the one it was planned from (a profiling window — or an
    /// injected snapshot-skew fault — closed mid-round).
    pub snapshot_skew_rounds: u64,
    /// Evaluation consumers (GEM scopes, the LEM pass, the apply phase)
    /// served by an already-built snapshot/frame instead of rebuilding one.
    pub snapshot_reuse: u64,
    /// Rounds whose evaluation frame was rebuilt from scratch (first round,
    /// scope changes, generation gaps past the delta history).
    pub frame_rebuilds: u64,
    /// Rounds whose retained evaluation frame was advanced in place by
    /// applying snapshot deltas instead of rebuilding.
    pub frame_patches: u64,
    /// Total nanoseconds on the execution backend's monotonic clock spent
    /// patching the retained frame (a subset of `eval_ns`, with the same
    /// backend caveat: identically 0 under sim).
    pub frame_patch_ns: u64,
}

/// The PLASMA elasticity management runtime.
pub struct PlasmaEmr {
    policy: CompiledPolicy,
    cfg: EmrConfig,
    pending: Option<Round>,
    /// Standing reservations: actor -> the dedicated server it was granted.
    /// An entry shields its server from balance targets and stops the
    /// reserve rule from re-planning the same actor every round; it is
    /// pruned when the actor dies or drifts off its home.
    reserved_homes: BTreeMap<ActorId, ServerId>,
    reserved_servers: BTreeSet<ServerId>,
    /// Actors currently pinned by this EMR's rules; pins are released when
    /// their rule stops firing (otherwise `pin` would permanently defeat
    /// scale-in).
    pinned: BTreeSet<ActorId>,
    draining: BTreeSet<ServerId>,
    booting: usize,
    /// Consecutive rounds with a majority scale-in vote; draining starts
    /// only after two in a row, so one noisy profiling window (e.g. a
    /// barrier lull) cannot decommission a busy server.
    in_vote_streak: u32,
    failed_gems: BTreeSet<usize>,
    placement_counter: usize,
    /// The retained evaluation frame, advanced across rounds by applying
    /// snapshot deltas; `None` until the first planning round.
    frame: Option<EvalFrame>,
    stats: EmrStats,
}

impl PlasmaEmr {
    /// Creates an EMR executing `policy`.
    pub fn new(policy: CompiledPolicy, cfg: EmrConfig) -> Self {
        PlasmaEmr {
            policy,
            cfg,
            pending: None,
            reserved_homes: BTreeMap::new(),
            reserved_servers: BTreeSet::new(),
            pinned: BTreeSet::new(),
            draining: BTreeSet::new(),
            booting: 0,
            in_vote_streak: 0,
            failed_gems: BTreeSet::new(),
            placement_counter: 0,
            frame: None,
            stats: EmrStats::default(),
        }
    }

    /// Returns the accumulated statistics.
    pub fn stats(&self) -> EmrStats {
        self.stats
    }

    /// Simulates a GEM crash: its servers are re-assigned to the remaining
    /// GEMs on the next round (the paper's shuffling fault tolerance,
    /// §4.3).
    pub fn fail_gem(&mut self, gem: usize) {
        // Unknown GEM ids are a no-op: `gem_assignment` only ever skips
        // ids in `0..num_gems`, so recording an out-of-range failure would
        // desynchronise `alive_gems` from the actual partition count.
        if gem < self.cfg.num_gems {
            self.failed_gems.insert(gem);
        }
    }

    /// Returns the number of live GEMs.
    pub fn alive_gems(&self) -> usize {
        self.cfg.num_gems.saturating_sub(self.failed_gems.len())
    }

    /// Partitions the in-scope servers among live GEMs (round-robin by
    /// server id, skipping failed GEMs).
    ///
    /// Recomputed every round from the servers currently running, so a
    /// crashed GEM's servers re-shuffle onto the survivors on the next
    /// tick, and a crashed server silently leaves its GEM's partition —
    /// the paper's §4.3 shuffling fault tolerance.
    pub fn gem_assignment(&self, servers: &[ServerId]) -> Vec<Vec<ServerId>> {
        let alive: Vec<usize> = (0..self.cfg.num_gems)
            .filter(|g| !self.failed_gems.contains(g))
            .collect();
        if alive.is_empty() {
            return Vec::new();
        }
        let mut out = vec![Vec::new(); alive.len()];
        for (i, &sid) in servers.iter().enumerate() {
            out[i % alive.len()].push(sid);
        }
        out
    }

    /// Returns the index (into [`PlasmaEmr::gem_assignment`]'s output) of
    /// the live GEM managing `sid`, or `None` if `sid` is not in `servers`
    /// or no GEM is alive.
    pub fn gem_for_server(&self, servers: &[ServerId], sid: ServerId) -> Option<usize> {
        let assignment = self.gem_assignment(servers);
        assignment.iter().position(|group| group.contains(&sid))
    }

    /// The tightest balance-rule bounds in the policy (used for admission
    /// and scaling decisions).
    fn policy_bounds(&self) -> Bounds {
        let mut bounds = self.cfg.default_bounds;
        for rule in &self.policy.rules {
            for cb in &rule.behaviors {
                if let Behavior::Balance { res, .. } = &cb.behavior {
                    let b = gem::extract_bounds(&rule.cond, *res, self.cfg.default_bounds);
                    bounds = Bounds {
                        upper: bounds.upper.min(b.upper),
                        lower: bounds.lower.max(b.lower),
                    };
                }
            }
        }
        bounds
    }

    fn in_scope_servers(&self, rt: &Runtime) -> Vec<ServerId> {
        rt.cluster()
            .running_ids()
            .into_iter()
            .filter(|s| !self.draining.contains(s))
            .collect()
    }

    fn progress_draining(&mut self, rt: &mut Runtime) {
        let draining: Vec<ServerId> = self.draining.iter().copied().collect();
        for sid in draining {
            // A draining server that crashed (or was stopped externally)
            // no longer needs decommissioning; forget it.
            if !rt.cluster().server(sid).is_running() {
                self.draining.remove(&sid);
                continue;
            }
            if rt.actors_on(sid).is_empty() && rt.decommission_server(sid).is_ok() {
                self.draining.remove(&sid);
                self.stats.scale_ins += 1;
            }
        }
    }

    /// Emits `RuleEvaluated`/`RuleFired` events for one planner pass and
    /// links each produced action to the event of the rule that fired it.
    fn trace_rule_events(
        tracer: &Tracer,
        now: plasma_sim::SimTime,
        component: Component,
        stats: &[RuleStat],
        actions: &mut [Action],
    ) {
        if !tracer.is_enabled() {
            return;
        }
        let mut fired: BTreeMap<usize, EventId> = BTreeMap::new();
        for stat in stats {
            let eval = tracer.emit(now, component, None, || TraceEventKind::RuleEvaluated {
                rule: stat.rule as u64,
                matches: stat.matches,
            });
            if stat.actions > 0 {
                if let Some(id) = tracer.emit(now, component, eval, || TraceEventKind::RuleFired {
                    rule: stat.rule as u64,
                    actions: stat.actions,
                }) {
                    fired.insert(stat.rule, id);
                }
            }
        }
        for action in actions {
            if action.trace.is_none() {
                action.trace = fired.get(&action.rule).copied();
            }
        }
    }

    fn plan_round(&mut self, rt: &mut Runtime) {
        let scope = self.in_scope_servers(rt);
        if scope.is_empty() {
            return;
        }
        let tracer = rt.tracer().clone();
        let trace_now = rt.now();
        let gem_cfg = GemConfig {
            default_bounds: self.cfg.default_bounds,
            max_balance_moves: self.cfg.max_balance_moves,
            min_gap: self.cfg.min_gap,
        };
        // Standing reservations persist while their actor lives on its
        // dedicated home; entries for dead or drifted actors are pruned, so
        // idle dedicated servers become reclaimable on scale-in.
        self.reserved_homes
            .retain(|&actor, &mut home| rt.actor_alive(actor) && rt.actor_server(actor) == home);
        self.reserved_servers = self.reserved_homes.values().copied().collect();
        // GEM phase: resource rules per GEM over its managed servers. One
        // evaluation frame (indexes + bound rule plans) is built from this
        // round's snapshot and shared by every GEM scope and the LEM pass.
        let mut all_actions: Vec<Action> = Vec::new();
        let mut out_votes = 0usize;
        let mut in_votes = 0usize;
        let mut unplaced = 0usize;
        let assignment = self.gem_assignment(&scope);
        let gem_count = assignment.len();
        let round_no = self.stats.ticks;
        let eval_start = rt.monotonic_ns();
        // Advance the retained frame to this round's snapshot generation by
        // applying the runtime's deltas; fall back to a from-scratch build
        // on the first round, on scope changes, and on generation gaps
        // beyond the bounded delta history.
        let mut retained = self.frame.take();
        let frame = match retained.take_if(|f| f.advance(rt)) {
            Some(f) => {
                self.stats.frame_patches += 1;
                self.stats.frame_patch_ns += rt.monotonic_ns().saturating_sub(eval_start);
                f
            }
            None => {
                self.stats.frame_rebuilds += 1;
                EvalFrame::new(rt)
            }
        };
        let mut consumers: u32 = 0;
        let bounds = self.policy_bounds();
        let (mut lem_plan, planned_generation) = {
            let bound = BoundPolicy::bind(&self.policy, &frame);
            for (gem_idx, servers) in assignment.iter().enumerate() {
                // Alg. 2 line 8: wait for more than K reports before
                // planning.
                if servers.len() <= self.cfg.k_reports {
                    continue;
                }
                // Alg. 2's QUERY, carried as first-class control traffic:
                // the GEM asks the execution backend for its managed
                // servers' report rows rather than reading the shared
                // snapshot directly. Replies carry bit-exact copies of
                // the rows the runtime published at window roll, so the
                // context built from them is interchangeable with the
                // shared-snapshot path — debug-asserted below, and
                // enforced release-mode by the N-way parity suite.
                let query = ControlQuery {
                    gem: gem_idx as u32,
                    round: round_no,
                    generation: frame.generation(),
                    scope: servers.iter().map(|s| s.0).collect(),
                };
                let query_ev = tracer.emit(trace_now, Component::Gem, None, || {
                    TraceEventKind::ControlQuerySent {
                        round: round_no,
                        gem: gem_idx as u32,
                        generation: frame.generation(),
                        servers: servers.len() as u32,
                    }
                });
                let replies = rt.control_query(query);
                // Merge the per-carrier replies back into scope order —
                // the order `EvalCtx::scoped` materializes servers in —
                // so the carrier's topology (one reply under sim, one per
                // group under net) cannot influence evaluation order.
                let mut merged: Vec<ServerReport> = Vec::with_capacity(servers.len());
                for sid in servers {
                    if let Some(c) = replies
                        .iter()
                        .flat_map(|r| r.candidates.iter())
                        .find(|c| c.server == sid.0)
                    {
                        merged.push(*c);
                    }
                }
                let ctx = EvalCtx::for_reports(&frame, &merged);
                debug_assert_eq!(
                    ctx.servers,
                    EvalCtx::scoped(&frame, servers).servers,
                    "wire-carried candidates must reproduce the shared-snapshot \
                     rows (round {round_no}, gem {gem_idx})"
                );
                tracer.emit(trace_now, Component::Gem, query_ev, || {
                    TraceEventKind::ControlQueryReply {
                        round: round_no,
                        gem: gem_idx as u32,
                        candidates: merged.len() as u32,
                    }
                });
                consumers += 1;
                let mut plan = gem::plan(&bound, &ctx, &gem_cfg, &self.reserved_servers);
                Self::trace_rule_events(
                    &tracer,
                    trace_now,
                    Component::Gem,
                    &plan.rule_stats,
                    &mut plan.actions,
                );
                tracer.emit(trace_now, Component::Gem, None, || {
                    TraceEventKind::ScaleVote {
                        gem: gem_idx as u32,
                        scale_out: plan.scale_out_vote,
                        scale_in: plan.scale_in_vote,
                    }
                });
                out_votes += plan.scale_out_vote as usize;
                in_votes += plan.scale_in_vote as usize;
                unplaced += plan.unplaced_reserves;
                self.reserved_servers.extend(plan.reserved.iter().copied());
                all_actions.extend(plan.actions);
            }
            // LEM phase: interaction rules, chasing the GEM round's targets.
            let pending_dst: BTreeMap<ActorId, ServerId> =
                all_actions.iter().map(|a| (a.actor, a.dst)).collect();
            let ctx = EvalCtx::scoped(&frame, &scope);
            consumers += 1;
            tracer.emit(trace_now, Component::Gem, None, || {
                TraceEventKind::SnapshotShared {
                    round: round_no,
                    generation: frame.generation(),
                    consumers,
                }
            });
            let plan = lem::plan(
                &bound,
                &ctx,
                &pending_dst,
                bounds.upper,
                &self.reserved_servers,
            );
            (plan, frame.generation())
        };
        self.frame = Some(frame);
        self.stats.eval_ns += rt.monotonic_ns().saturating_sub(eval_start);
        self.stats.snapshot_reuse += consumers.saturating_sub(1) as u64;
        Self::trace_rule_events(
            &tracer,
            trace_now,
            Component::Lem,
            &lem_plan.rule_stats,
            &mut lem_plan.actions,
        );
        // Pin set is recomputed every round: pin while the rule fires,
        // release when it no longer does.
        let new_pins: BTreeSet<ActorId> = lem_plan.pins.iter().copied().collect();
        for &actor in self.pinned.difference(&new_pins) {
            rt.set_pinned(actor, false);
        }
        for &actor in &new_pins {
            rt.set_pinned(actor, true);
        }
        self.pinned = new_pins;
        all_actions.extend(lem_plan.actions);
        self.stats.planned += all_actions.len() as u64;

        // Scaling by GEM majority vote (§4.2). Unplaced reserves justify
        // provisioning several servers in one round; the all-overloaded
        // vote grows the cluster one server at a time. The quorum is over
        // the *configured* GEM count, not just the live ones: crashed or
        // unreachable GEMs count as abstentions (§4.3), so a minority
        // island of GEMs can never scale the cluster on its own.
        let mut grow = 0u32;
        let mut shrink = 0u32;
        if self.cfg.auto_scale && gem_count > 0 {
            let majority = self.cfg.num_gems.max(gem_count) / 2 + 1;
            if out_votes >= majority {
                self.in_vote_streak = 0;
                let want = unplaced
                    .max(1)
                    .min(self.cfg.scale_out_step)
                    .saturating_sub(self.booting);
                for _ in 0..want {
                    if rt.request_server(self.cfg.scale_instance.clone()).is_some() {
                        self.booting += 1;
                        self.stats.scale_outs += 1;
                        grow += 1;
                    }
                }
            } else if in_votes >= majority && self.booting == 0 {
                self.in_vote_streak += 1;
                if self.in_vote_streak >= 2 {
                    let draining_before = self.draining.len();
                    all_actions.extend(self.plan_scale_in(rt));
                    shrink = (self.draining.len() - draining_before) as u32;
                }
            } else {
                self.in_vote_streak = 0;
            }
        }

        let mut actions = resolve_conflicts(all_actions);
        if tracer.is_enabled() {
            for action in &mut actions {
                let component = match action.kind {
                    ActionKind::Balance | ActionKind::Reserve => Component::Gem,
                    ActionKind::Colocate | ActionKind::Separate => Component::Lem,
                };
                let parent = action.trace;
                action.trace = tracer.emit(trace_now, component, parent, || {
                    TraceEventKind::PlanProposed {
                        round: round_no,
                        actor: action.actor.0,
                        src: action.src.0,
                        dst: action.dst.0,
                        action: kind_str(action.kind).to_string(),
                        priority: action.priority,
                        rule: rule_trace_id(action.rule),
                    }
                });
            }
        }
        self.pending = Some(Round {
            number: round_no,
            planned_at: trace_now,
            planned_generation,
            grow,
            shrink,
            actions,
        });
        // Model the LEM -> GEM -> LEM control round-trip before applying.
        rt.schedule_control(rt.control_latency() * 2, TOKEN_APPLY);
    }

    /// Drains the least-loaded servers for decommissioning.
    fn plan_scale_in(&mut self, rt: &Runtime) -> Vec<Action> {
        let scope = self.in_scope_servers(rt);
        let min_servers = rt.cluster().limits().min_servers;
        let mut spare = scope.len().saturating_sub(min_servers.max(1));
        let mut actions = Vec::new();
        let snapshot = rt.snapshot();
        let mut by_load: Vec<ServerId> = scope.clone();
        by_load.sort_by(|a, b| {
            let ua = snapshot.server(*a).map(|s| s.usage.cpu()).unwrap_or(0.0);
            let ub = snapshot.server(*b).map(|s| s.usage.cpu()).unwrap_or(0.0);
            ua.partial_cmp(&ub).expect("finite usage")
        });
        for victim in by_load.into_iter().take(self.cfg.scale_in_step * 2) {
            if spare == 0 {
                break;
            }
            if self.reserved_servers.contains(&victim) {
                continue;
            }
            // A server hosting pinned actors cannot be drained.
            if rt.actors_on(victim).iter().any(|&a| rt.is_pinned(a)) {
                continue;
            }
            spare -= 1;
            self.draining.insert(victim);
            // Spread the victim's actors over the surviving servers.
            let survivors: Vec<ServerId> = self
                .in_scope_servers(rt)
                .into_iter()
                .filter(|s| !self.draining.contains(s))
                .collect();
            if survivors.is_empty() {
                self.draining.remove(&victim);
                break;
            }
            for (i, actor) in rt.actors_on(victim).into_iter().enumerate() {
                actions.push(Action {
                    actor,
                    src: victim,
                    dst: survivors[i % survivors.len()],
                    kind: ActionKind::Balance,
                    priority: 100,
                    rule: usize::MAX,
                    trace: None,
                });
            }
        }
        actions
    }

    fn apply_round(&mut self, rt: &mut Runtime) {
        let Some(round) = self.pending.take() else {
            return;
        };
        let tracer = rt.tracer().clone();
        let trace_now = rt.now();
        let round_no = round.number;
        let bounds = self.policy_bounds();
        // Admission control: the QUERY/QREPLY handshake of Alg. 1. Each
        // target accepts an actor only while its projected usage stays
        // within bounds (this is what lets `balance` win over `colocate`).
        // The shared snapshot handle is fetched once at apply time (a
        // profiling window may have elapsed since planning) and reused for
        // every per-action share lookup below.
        let snapshot = rt.snapshot_shared();
        self.stats.snapshot_reuse += 1;
        // The plan was computed from an older generation: admission below
        // intentionally re-reads the *current* snapshot (fresher usage data
        // beats stale plans), and the round is counted as skewed.
        if snapshot.generation != round.planned_generation {
            self.stats.snapshot_skew_rounds += 1;
        }
        let mut projected: BTreeMap<ServerId, f64> = rt
            .cluster()
            .running_ids()
            .into_iter()
            .map(|sid| {
                let u = snapshot.server(sid).map(|s| s.usage.cpu()).unwrap_or(0.0);
                (sid, u)
            })
            .collect();
        let (grow, shrink) = (round.grow, round.shrink);
        let mut admitted_orders: Vec<MigrationOrder> = Vec::new();
        let mut actions = round.actions;
        actions.sort_by(|a, b| b.priority.cmp(&a.priority).then(a.rule.cmp(&b.rule)));
        for action in actions {
            let share = snapshot
                .actor(action.actor)
                .map(|s| s.cpu_share)
                .unwrap_or(0.0);
            let src_speed = rt.cluster().server(action.src).instance().total_speed();
            let dst = action.dst;
            // Alg. 1's QUERY to the destination LEM.
            let query = tracer.emit(trace_now, Component::Lem, action.trace, || {
                TraceEventKind::QuerySent {
                    round: round_no,
                    actor: action.actor.0,
                    src: action.src.0,
                    dst: dst.0,
                }
            });
            let reply = |admitted: bool, reason: &str| {
                tracer.emit(trace_now, Component::Lem, query, || {
                    TraceEventKind::QueryReply {
                        round: round_no,
                        actor: action.actor.0,
                        dst: dst.0,
                        admitted,
                        reason: reason.to_string(),
                    }
                })
            };
            if !rt.cluster().server(dst).is_running() {
                self.stats.rejected += 1;
                reply(false, "destination-down");
                continue;
            }
            // Under a partition the QUERY to the destination LEM never
            // returns; the GEM times out and drops the action (Alg. 1's
            // reply wait, with the fault model of §4.3).
            if !rt.reachable(action.src, dst) {
                self.stats.rejected += 1;
                reply(false, "query-timeout");
                continue;
            }
            let dst_speed = rt.cluster().server(dst).instance().total_speed();
            let incoming = share * src_speed / dst_speed.max(1e-9);
            let headroom_limit = if self.draining.contains(&action.src) {
                // Draining moves must land somewhere; allow up to saturation.
                0.95
            } else {
                bounds.upper
            };
            let projected_dst = projected.get(&dst).copied().unwrap_or(0.0);
            let projected_src = projected.get(&action.src).copied().unwrap_or(0.0);
            let within_headroom = projected_dst + incoming <= headroom_limit + 1e-9;
            let (accept, reason) = match action.kind {
                ActionKind::Reserve => (true, "reserve"),
                // A balance move is admitted when the target stays within
                // bounds, or - when the whole cluster runs hot - when it
                // still strictly improves on the source (otherwise a
                // saturated-but-skewed cluster could never rebalance).
                ActionKind::Balance => {
                    if within_headroom {
                        (true, "within-headroom")
                    } else if projected_dst + incoming < projected_src - share * 0.5 {
                        (true, "improves-source")
                    } else {
                        (false, "no-headroom")
                    }
                }
                // Interaction moves must find genuinely idle capacity
                // (the paper's balance-over-colocate admission, §4.3).
                _ => {
                    if within_headroom {
                        (true, "within-headroom")
                    } else {
                        (false, "no-headroom")
                    }
                }
            };
            let reply_id = reply(accept, reason);
            if !accept {
                self.stats.rejected += 1;
                continue;
            }
            match rt.migrate_traced(action.actor, dst, reply_id) {
                Ok(()) => {
                    self.stats.admitted += 1;
                    admitted_orders.push(MigrationOrder {
                        actor: action.actor.0,
                        src: action.src.0,
                        dst: dst.0,
                    });
                    if action.kind == ActionKind::Reserve {
                        self.reserved_homes.insert(action.actor, dst);
                    }
                    *projected.entry(dst).or_insert(0.0) += incoming;
                    if let Some(u) = projected.get_mut(&action.src) {
                        *u -= share;
                    }
                }
                Err(e) => {
                    self.stats.rejected += 1;
                    // The admission said yes but the runtime's migration
                    // guards (pin/residency/in-flight) said no; record the
                    // veto as a second, negative QREPLY.
                    tracer.emit(trace_now, Component::Lem, query, || {
                        TraceEventKind::QueryReply {
                            round: round_no,
                            actor: action.actor.0,
                            dst: dst.0,
                            admitted: false,
                            reason: format!("blocked-{e:?}"),
                        }
                    });
                }
            }
        }
        // Broadcast the applied round's outcome over the control carriage
        // (audit traffic: workers tally it, nothing feeds back) and mirror
        // it into the trace.
        let migrations = admitted_orders.len() as u32;
        rt.control_decision(ControlDecision {
            round: round_no,
            grow,
            shrink,
            migrations: admitted_orders,
        });
        tracer.emit(trace_now, Component::Gem, None, || {
            TraceEventKind::ControlDecisionIssued {
                round: round_no,
                grow,
                shrink,
                migrations,
            }
        });
        let decision_ms = trace_now.saturating_since(round.planned_at).as_secs_f64() * 1e3;
        self.stats.rounds_applied += 1;
        self.stats.decision_latency_ms_total += decision_ms;
        self.stats.decision_latency_ms_max = self.stats.decision_latency_ms_max.max(decision_ms);
        rt.record_custom("emr.decision_latency_ms", decision_ms);
        rt.record_custom("emr.admitted", self.stats.admitted as f64);
        rt.record_custom("emr.rejected", self.stats.rejected as f64);
        self.export_stats(rt);
    }

    /// Publishes the cumulative counters as report scalars so harnesses can
    /// read elasticity outcomes without reaching into the controller.
    fn export_stats(&self, rt: &mut Runtime) {
        let s = &self.stats;
        rt.record_scalar("emr.ticks", s.ticks as f64);
        rt.record_scalar("emr.planned", s.planned as f64);
        rt.record_scalar("emr.admitted", s.admitted as f64);
        rt.record_scalar("emr.rejected", s.rejected as f64);
        rt.record_scalar("emr.scale_outs", s.scale_outs as f64);
        rt.record_scalar("emr.scale_ins", s.scale_ins as f64);
        rt.record_scalar("emr.rounds_applied", s.rounds_applied as f64);
        rt.record_scalar("emr.eval_ns", s.eval_ns as f64);
        rt.record_scalar("emr.snapshot_reuse", s.snapshot_reuse as f64);
        rt.record_scalar("emr.snapshot_skew_rounds", s.snapshot_skew_rounds as f64);
        rt.record_scalar("emr.decision_latency_ms_max", s.decision_latency_ms_max);
        rt.record_scalar(
            "emr.decision_latency_ms_mean",
            if s.rounds_applied == 0 {
                0.0
            } else {
                s.decision_latency_ms_total / s.rounds_applied as f64
            },
        );
        // Appended after every pre-existing scalar so reports stay
        // byte-comparable to older baselines apart from these lines.
        rt.record_scalar("emr.frame_rebuilds", s.frame_rebuilds as f64);
        rt.record_scalar("emr.frame_patches", s.frame_patches as f64);
        rt.record_scalar("emr.frame_patch_ns", s.frame_patch_ns as f64);
    }

    /// Returns whether the policy wants `type_name` colocated with anything
    /// (used for creation-time placement, §4.2).
    fn type_in_colocate(&self, type_name: &str) -> bool {
        self.policy.rules.iter().any(|rule| {
            rule.behaviors.iter().any(|cb| match &cb.behavior {
                Behavior::Colocate(a, b) => {
                    ref_names_type(rule, a, type_name) || ref_names_type(rule, b, type_name)
                }
                _ => false,
            }) || cond_mentions_inref_type(rule, &rule.cond, type_name)
        })
    }

    fn type_in_reserve_or_balance(&self, type_name: &str) -> bool {
        self.policy.rules.iter().any(|rule| {
            rule.behaviors.iter().any(|cb| match &cb.behavior {
                Behavior::Reserve { actor, .. } => ref_names_type(rule, actor, type_name),
                Behavior::Balance { types, .. } => types.iter().any(|t| match t {
                    plasma_epl::ast::AType::Any => true,
                    plasma_epl::ast::AType::Named(n) => n == type_name,
                }),
                _ => false,
            })
        })
    }
}

fn ref_names_type(
    rule: &plasma_epl::analyze::CompiledRule,
    aref: &ActorRef,
    type_name: &str,
) -> bool {
    match rule.ref_type(aref) {
        plasma_epl::ast::AType::Any => true,
        plasma_epl::ast::AType::Named(n) => n == type_name,
    }
}

fn cond_mentions_inref_type(
    rule: &plasma_epl::analyze::CompiledRule,
    cond: &Cond,
    type_name: &str,
) -> bool {
    match cond {
        Cond::And(a, b) | Cond::Or(a, b) => {
            cond_mentions_inref_type(rule, a, type_name)
                || cond_mentions_inref_type(rule, b, type_name)
        }
        Cond::InRef { member, owner, .. } => {
            ref_names_type(rule, member, type_name) || ref_names_type(rule, owner, type_name)
        }
        Cond::Compare {
            feat: Feature::Call { caller, callee, .. },
            ..
        } => {
            if let plasma_epl::ast::Caller::Actor(a) = caller {
                if ref_names_type(rule, a, type_name) {
                    return true;
                }
            }
            ref_names_type(rule, callee, type_name)
        }
        _ => false,
    }
}

impl ElasticityController for PlasmaEmr {
    fn on_elasticity_tick(&mut self, rt: &mut Runtime) {
        self.stats.ticks += 1;
        self.progress_draining(rt);
        self.plan_round(rt);
        self.export_stats(rt);
    }

    fn on_control(&mut self, rt: &mut Runtime, token: u64) {
        if token == TOKEN_APPLY {
            self.apply_round(rt);
        }
    }

    fn on_server_ready(&mut self, rt: &mut Runtime, _server: ServerId) {
        self.booting = self.booting.saturating_sub(1);
        let _ = rt;
    }

    fn on_fault(&mut self, rt: &mut Runtime, fault: plasma_actor::ControlFault) {
        match fault {
            plasma_actor::ControlFault::GemCrash { gem } => {
                if gem < self.cfg.num_gems && !self.failed_gems.contains(&gem) {
                    self.fail_gem(gem);
                    rt.tracer()
                        .clone()
                        .emit(rt.now(), Component::Gem, None, || {
                            TraceEventKind::GemCrashed { gem: gem as u32 }
                        });
                }
            }
        }
    }

    fn place_new_actor(
        &mut self,
        rt: &Runtime,
        type_id: ActorTypeId,
        creator: Option<ServerId>,
    ) -> Option<ServerId> {
        let type_name = rt.names().type_name(type_id).to_string();
        let scope = self.in_scope_servers(rt);
        if scope.is_empty() {
            return None;
        }
        // Rule-guided placement (§4.2). Resource rules dominate: a type the
        // policy identifies as CPU-intensive (reserve/balance) starts on
        // the server with the most idle CPU, exactly as the paper
        // describes ("identify atype actors as CPU-intensive ... put on a
        // server with idle CPU resources").
        if self.type_in_reserve_or_balance(&type_name) {
            // Rotate across the idle third of the cluster rather than
            // always picking the single least-loaded server: utilization
            // snapshots lag by one profiling window, so a join burst would
            // otherwise herd every new actor onto the same machine.
            let snapshot = rt.snapshot();
            let mut candidates: Vec<ServerId> = scope
                .iter()
                .copied()
                .filter(|s| !self.reserved_servers.contains(s))
                .collect();
            if candidates.is_empty() {
                candidates = scope.clone();
            }
            candidates.sort_by(|a, b| {
                let ua = snapshot.server(*a).map(|s| s.usage.cpu()).unwrap_or(0.0);
                let ub = snapshot.server(*b).map(|s| s.usage.cpu()).unwrap_or(0.0);
                ua.partial_cmp(&ub).expect("finite usage")
            });
            let tier = candidates.len().div_ceil(3);
            self.placement_counter = self.placement_counter.wrapping_add(1);
            return Some(candidates[self.placement_counter % tier]);
        }
        // Otherwise colocate rules put the new actor next to its creator
        // (the actor that will hold a reference to it).
        if self.type_in_colocate(&type_name) {
            if let Some(c) = creator {
                return Some(c);
            }
        }
        // No applicable rule: round-robin across managed servers (the
        // paper's GEM "randomly picks a server").
        self.placement_counter = self.placement_counter.wrapping_add(1);
        Some(scope[self.placement_counter % scope.len()])
    }
}
