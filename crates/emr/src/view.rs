//! The evaluation view: one shared indexed frame per round, scoped contexts
//! per consumer.
//!
//! LEMs evaluate rules anchored to their own server; GEMs evaluate over all
//! servers they manage. Both used to rebuild a string-keyed context per
//! evaluation; now the EMR retains one [`EvalFrame`] across decision rounds,
//! advances it by applying the runtime's [`SnapshotDelta`]s, and every
//! consumer borrows it through a cheap scoped [`EvalCtx`].
//!
//! The frame carries the indexes the evaluator drives candidate enumeration
//! off: per-type actor lists, a per-server residency index, their
//! `(server, type)` intersection, and `cpu_share`-sorted copies of each for
//! threshold conditions (`actor.cpu.perc > X` resolves to a
//! `partition_point` over a sorted index instead of a scan). Index groups
//! store stable [`ActorId`]s — id order *is* enumeration order, which the
//! behavior expansion relies on — resolved through a dense id-indexed row
//! table, so membership edits never shift unrelated entries.
//!
//! # Incremental maintenance
//!
//! A frame is built from scratch once ([`EvalFrame::new`]) and then patched
//! per round ([`EvalFrame::advance`]): the merged delta since the frame's
//! generation names every actor whose indexed stats (`server`, `type_id`,
//! `cpu_share`) may have changed, and only those ids are spliced out of and
//! back into the affected groups at binary-searched positions. Row *data*
//! is always read from the current snapshot through the dense row table
//! (refreshed in one O(world) pass with no allocation or sorting), so
//! non-indexed stats — call counters, refs, state size — are never stale.
//! The frame falls back to a full rebuild on scope changes (the running
//! server set differs from the frame's) and on generation gaps (the
//! runtime's bounded delta history no longer reaches the frame's
//! generation). The from-scratch builder remains the correctness oracle:
//! a patched frame is index-for-index identical to a rebuilt one, which
//! the churn property tests assert.

use std::collections::BTreeMap;
use std::sync::Arc;

use plasma_actor::ids::{ActorId, ActorTypeId, FnId};
use plasma_actor::stats::{ActorWindowStats, ProfileSnapshot, SnapshotDelta};
use plasma_actor::{Runtime, ServerReport};
use plasma_cluster::ServerId;
use plasma_epl::ast::{AType, Comp, Res};

/// Sentinel in the dense id->row table for "not in this frame".
const NO_ROW: u32 = u32::MAX;

/// A touched actor's indexed state — `(server, type, cpu_share)` — at one
/// endpoint of a delta, or `None` when absent from that generation (or out
/// of the frame's scope).
type EndpointState = Option<(ServerId, ActorTypeId, f64)>;

/// Static capacity data of one server, captured at context build time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServerMeta {
    /// The server.
    pub id: ServerId,
    /// Total compute throughput (work units per second).
    pub total_speed: f64,
    /// Number of vCPU lanes.
    pub vcpus: u32,
    /// Memory capacity in bytes.
    pub mem_bytes: u64,
    /// NIC bandwidth in bits per second.
    pub net_bps: f64,
    /// Utilization fractions over the last window.
    pub cpu: f64,
    /// Memory utilization fraction.
    pub mem: f64,
    /// Network utilization fraction.
    pub net: f64,
    /// Resident actor count.
    pub actor_count: usize,
}

impl ServerMeta {
    /// Returns the utilization fraction of `res`.
    pub fn usage(&self, res: Res) -> f64 {
        match res {
            Res::Cpu => self.cpu,
            Res::Mem => self.mem,
            Res::Net => self.net,
        }
    }

    /// Decodes a wire-carried LEM report row. The report carries every
    /// f64 as raw bits, so this conversion is exact: a row published from
    /// the coordinator's snapshot comes back as the identical `ServerMeta`
    /// the shared-snapshot path computes.
    pub fn from_report(r: &ServerReport) -> ServerMeta {
        ServerMeta {
            id: ServerId(r.server),
            total_speed: f64::from_bits(r.total_speed_bits),
            vcpus: r.vcpus,
            mem_bytes: r.mem_bytes,
            net_bps: f64::from_bits(r.net_bps_bits),
            cpu: f64::from_bits(r.cpu_bits),
            mem: f64::from_bits(r.mem_bits),
            net: f64::from_bits(r.net_bits),
            actor_count: r.actor_count as usize,
        }
    }
}

/// A resolved actor-type selector, produced by binding a plan's type symbol
/// against the runtime's registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TypeSel {
    /// Matches every actor type.
    Any,
    /// Matches one concrete type.
    Id(ActorTypeId),
    /// The named type is unknown to the registry: matches nothing.
    Unknown,
}

impl TypeSel {
    /// Returns whether `actor` matches this selector.
    pub fn matches(self, actor: &ActorWindowStats) -> bool {
        match self {
            TypeSel::Any => true,
            TypeSel::Id(t) => actor.type_id == t,
            TypeSel::Unknown => false,
        }
    }
}

/// The retained indexed view over one profiling snapshot: server metadata,
/// the dense id->row table, candidate indexes, and the name tables rule
/// plans are bound against. Built once, advanced per decision round by
/// applying snapshot deltas, and shared by every [`EvalCtx`].
pub struct EvalFrame {
    snap: Arc<ProfileSnapshot>,
    /// Server metadata in construction-scope order.
    servers: Vec<ServerMeta>,
    server_idx: BTreeMap<ServerId, usize>,
    /// Dense actor-id-indexed row table: position of the actor's stats in
    /// `snap.actors`, or [`NO_ROW`] when the actor is absent or hosted
    /// outside the frame's scope. Actor ids are slab indices, so this stays
    /// compact and replaces the former `BTreeMap<ActorId, u32>` lookup.
    rows: Vec<u32>,
    /// Dense server-id-indexed membership mask over the frame's scope
    /// (server ids are slab indices too); the O(1) replacement for
    /// `server_idx` lookups on the per-actor hot paths.
    server_mask: Vec<bool>,
    /// Index groups, each an id-ascending list of in-scope actors.
    by_type: BTreeMap<ActorTypeId, Vec<ActorId>>,
    by_server: BTreeMap<ServerId, Vec<ActorId>>,
    by_server_type: BTreeMap<(ServerId, ActorTypeId), Vec<ActorId>>,
    /// `(cpu_share, id)`-ascending copies of the groups above (plus the
    /// whole world), for threshold pruning via `partition_point`.
    all_cpu: CpuGroup,
    by_type_cpu: BTreeMap<ActorTypeId, CpuGroup>,
    by_server_cpu: BTreeMap<ServerId, CpuGroup>,
    by_server_type_cpu: BTreeMap<(ServerId, ActorTypeId), CpuGroup>,
    type_names: BTreeMap<String, ActorTypeId>,
    fn_names: BTreeMap<String, FnId>,
}

/// A `(cpu_share, id)`-ascending candidate list with its sort keys stored
/// alongside the ids. Keeping the keys contiguous means threshold pruning
/// and the delta-patch binary searches probe a flat `f64` array instead of
/// chasing `id -> row -> stats` indirections per comparison, and makes the
/// group self-contained: its order can be queried without consulting any
/// snapshot generation.
#[derive(Clone, Debug, Default, PartialEq)]
struct CpuGroup {
    ids: Vec<ActorId>,
    keys: Vec<f64>,
}

impl CpuGroup {
    /// Lower-bound position of `(key, id)` under the `(cpu_share, id)`
    /// ascending order.
    fn lower_bound(&self, key: f64, id: ActorId) -> usize {
        let (mut lo, mut hi) = (0, self.ids.len());
        while lo < hi {
            let m = lo + (hi - lo) / 2;
            if self.keys[m]
                .total_cmp(&key)
                .then(self.ids[m].0.cmp(&id.0))
                .is_lt()
            {
                lo = m + 1;
            } else {
                hi = m;
            }
        }
        lo
    }
}

/// Resolves `id` to its stats row. Free-standing so callers can borrow the
/// index maps of the same frame mutably at the same time.
fn row_of<'s>(actors: &'s [ActorWindowStats], rows: &[u32], id: ActorId) -> &'s ActorWindowStats {
    &actors[rows[id.0 as usize] as usize]
}

impl EvalFrame {
    /// Builds the round's frame over every running server.
    pub fn new(rt: &Runtime) -> Self {
        Self::from_runtime(rt, &rt.cluster().running_ids())
    }

    /// Builds a frame over `scope` servers from the runtime's latest
    /// snapshot (non-running servers are skipped).
    pub(crate) fn from_runtime(rt: &Runtime, scope: &[ServerId]) -> Self {
        let servers = Self::server_metas(rt, scope);
        let names = rt.names();
        let mut type_names = BTreeMap::new();
        for t in names.all_types() {
            type_names.insert(names.type_name(t).to_string(), t);
        }
        let mut fn_names = BTreeMap::new();
        for f in names.all_functions() {
            fn_names.insert(names.function_name(f).to_string(), f);
        }
        Self::build(rt.snapshot_shared(), servers, type_names, fn_names)
    }

    /// Captures [`ServerMeta`] rows for the running servers of `scope`
    /// from the runtime's report rows ([`Runtime::server_report`]), the
    /// one derivation of a server's row.
    ///
    /// A running server absent from the snapshot became ready after the
    /// window closed; its row carries zero utilization *and* zero actors so
    /// the frame stays a pure function of one snapshot generation (mixing
    /// in live residency counts would make same-generation frames disagree
    /// across backends and invalidate delta patching).
    fn server_metas(rt: &Runtime, scope: &[ServerId]) -> Vec<ServerMeta> {
        let snap = rt.snapshot();
        scope
            .iter()
            .filter(|&&sid| rt.cluster().server(sid).is_running())
            .map(|&sid| {
                let server = rt.cluster().server(sid);
                debug_assert!(
                    snap.server(sid).is_some()
                        || snap.generation == 0
                        || server.started_at() + server.instance().boot_delay >= snap.at,
                    "running {sid:?} missing from generation {} although it \
                     was ready before the window closed",
                    snap.generation,
                );
                ServerMeta::from_report(&rt.server_report(sid))
            })
            .collect()
    }

    /// Builds a frame from pre-assembled parts (synthetic snapshots in
    /// benches and property tests). Actors on servers absent from `servers`
    /// are excluded, as they would be for non-running servers.
    pub fn from_parts(
        snap: Arc<ProfileSnapshot>,
        servers: Vec<ServerMeta>,
        type_names: BTreeMap<String, ActorTypeId>,
        fn_names: BTreeMap<String, FnId>,
    ) -> Self {
        Self::build(snap, servers, type_names, fn_names)
    }

    fn build(
        snap: Arc<ProfileSnapshot>,
        servers: Vec<ServerMeta>,
        type_names: BTreeMap<String, ActorTypeId>,
        fn_names: BTreeMap<String, FnId>,
    ) -> Self {
        let server_idx: BTreeMap<ServerId, usize> =
            servers.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut frame = EvalFrame {
            snap,
            servers,
            server_idx,
            rows: Vec::new(),
            server_mask: Vec::new(),
            by_type: BTreeMap::new(),
            by_server: BTreeMap::new(),
            by_server_type: BTreeMap::new(),
            all_cpu: CpuGroup::default(),
            by_type_cpu: BTreeMap::new(),
            by_server_cpu: BTreeMap::new(),
            by_server_type_cpu: BTreeMap::new(),
            type_names,
            fn_names,
        };
        frame.refresh_server_mask();
        frame.refresh_rows();
        let mut in_scope: Vec<ActorId> = Vec::new();
        for a in &frame.snap.actors {
            if frame.rows.get(a.actor.0 as usize) != Some(&NO_ROW) {
                in_scope.push(a.actor);
                frame.by_type.entry(a.type_id).or_default().push(a.actor);
                frame.by_server.entry(a.server).or_default().push(a.actor);
                frame
                    .by_server_type
                    .entry((a.server, a.type_id))
                    .or_default()
                    .push(a.actor);
            }
        }
        let actors = &frame.snap.actors;
        let rows = &frame.rows;
        let sort_cpu = |group: &[ActorId]| {
            let mut sorted = group.to_vec();
            // Stable sort over an id-ordered group keeps id-order ties, so
            // the result is `(cpu_share, id)`-ascending; shares are finite
            // so `total_cmp` equals the usual order.
            sorted.sort_by(|&x, &y| {
                row_of(actors, rows, x)
                    .cpu_share
                    .total_cmp(&row_of(actors, rows, y).cpu_share)
            });
            let keys = sorted
                .iter()
                .map(|&id| row_of(actors, rows, id).cpu_share)
                .collect();
            CpuGroup { ids: sorted, keys }
        };
        frame.all_cpu = sort_cpu(&in_scope);
        frame.by_type_cpu = frame
            .by_type
            .iter()
            .map(|(&k, v)| (k, sort_cpu(v)))
            .collect();
        frame.by_server_cpu = frame
            .by_server
            .iter()
            .map(|(&k, v)| (k, sort_cpu(v)))
            .collect();
        frame.by_server_type_cpu = frame
            .by_server_type
            .iter()
            .map(|(&k, v)| (k, sort_cpu(v)))
            .collect();
        frame
    }

    /// Rebuilds the dense server-membership mask from the scope list.
    fn refresh_server_mask(&mut self) {
        let width = self
            .servers
            .iter()
            .map(|s| s.id.0 as usize + 1)
            .max()
            .unwrap_or(0);
        self.server_mask.clear();
        self.server_mask.resize(width, false);
        for s in &self.servers {
            self.server_mask[s.id.0 as usize] = true;
        }
    }

    /// Returns whether `sid` is one of the frame's scope servers.
    fn scope_has(&self, sid: ServerId) -> bool {
        self.server_mask
            .get(sid.0 as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Rebuilds the dense id->row table from the current snapshot: one
    /// O(world) pass, no allocation beyond table growth, no sorting.
    fn refresh_rows(&mut self) {
        let max_id = self
            .snap
            .actors
            .last()
            .map(|a| a.actor.0 as usize + 1)
            .unwrap_or(0);
        self.rows.clear();
        self.rows.resize(max_id, NO_ROW);
        for (pos, a) in self.snap.actors.iter().enumerate() {
            if self
                .server_mask
                .get(a.server.0 as usize)
                .copied()
                .unwrap_or(false)
            {
                self.rows[a.actor.0 as usize] = pos as u32;
            }
        }
    }

    /// Advances the retained frame to the runtime's current snapshot by
    /// applying the composed generation delta. Returns `false` — leaving
    /// the frame untouched — when a full rebuild is required instead: the
    /// running server set changed, the runtime's bounded delta history no
    /// longer reaches this frame's generation, or the delta itself reports
    /// servers entering or leaving the profile.
    pub fn advance(&mut self, rt: &Runtime) -> bool {
        let scope = rt.cluster().running_ids();
        if scope.len() != self.servers.len()
            || !scope.iter().zip(&self.servers).all(|(s, m)| *s == m.id)
        {
            return false;
        }
        let Some(delta) = rt.delta_since(self.snap.generation) else {
            return false;
        };
        if delta.scope_changed() {
            return false;
        }
        // Late registrations only ever grow the name tables; refresh them
        // in place instead of rebuilding the whole frame.
        let names = rt.names();
        if names.all_types().count() != self.type_names.len() {
            self.type_names = names
                .all_types()
                .map(|t| (names.type_name(t).to_string(), t))
                .collect();
        }
        if names.all_functions().count() != self.fn_names.len() {
            self.fn_names = names
                .all_functions()
                .map(|f| (names.function_name(f).to_string(), f))
                .collect();
        }
        let servers = Self::server_metas(rt, &scope);
        self.apply(rt.snapshot_shared(), servers, &delta)
    }

    /// Applies one composed delta, advancing the frame from its current
    /// snapshot to `snap`. `servers` must cover the same server ids as the
    /// frame (scope changes require a rebuild). Returns `false` — frame
    /// untouched — when the delta does not chain the two generations or the
    /// scope differs.
    ///
    /// Cost is O(world) for the row-table refresh (pointer writes only)
    /// plus O(touched · log group + touched · group-shift) for the index
    /// splices — no re-sorting, no re-keying of untouched actors.
    pub fn apply(
        &mut self,
        snap: Arc<ProfileSnapshot>,
        servers: Vec<ServerMeta>,
        delta: &SnapshotDelta,
    ) -> bool {
        if delta.from_generation != self.snap.generation
            || delta.to_generation != snap.generation
            || delta.scope_changed()
        {
            return false;
        }
        if servers.len() != self.servers.len()
            || !servers.iter().zip(&self.servers).all(|(a, b)| a.id == b.id)
        {
            return false;
        }
        // Classify every touched actor by its endpoint states: the old
        // state read from the retained frame, the new state — plus its
        // exact row — from the incoming snapshot (scope is unchanged, so
        // the old server mask applies to both).
        let touched = delta.touched_actors();
        let mut states: Vec<(ActorId, EndpointState, EndpointState)> =
            Vec::with_capacity(touched.len());
        let mut exact_rows: Vec<(ActorId, u32)> = Vec::with_capacity(touched.len());
        for &id in &touched {
            let old = self.lookup(id).map(|a| (a.server, a.type_id, a.cpu_share));
            let row = snap
                .actors
                .binary_search_by(|a| a.actor.0.cmp(&id.0))
                .ok()
                .filter(|&i| self.scope_has(snap.actors[i].server));
            let new = row.map(|i| {
                let a = &snap.actors[i];
                (a.server, a.type_id, a.cpu_share)
            });
            exact_rows.push((id, row.map_or(NO_ROW, |i| i as u32)));
            states.push((id, old, new));
        }
        // Endpoint membership diff over the snapshot's actor vec (scope
        // notwithstanding: out-of-scope actors still occupy vec positions
        // and therefore shift everyone's rows). Single deltas list exactly
        // the endpoint changes; a *merged* delta may list one id as both
        // added and removed, so overlaps resolve by presence in the two
        // endpoint snapshots.
        let mut vec_adds: Vec<u64> = Vec::new();
        let mut vec_rms: Vec<u64> = Vec::new();
        {
            let (a, r) = (&delta.added, &delta.removed);
            let (mut i, mut j) = (0, 0);
            while i < a.len() || j < r.len() {
                match (a.get(i), r.get(j)) {
                    (Some(&x), Some(&y)) if x == y => {
                        let present = |s: &ProfileSnapshot| {
                            s.actors.binary_search_by(|w| w.actor.0.cmp(&x.0)).is_ok()
                        };
                        match (present(&self.snap), present(&snap)) {
                            (false, true) => vec_adds.push(x.0),
                            (true, false) => vec_rms.push(x.0),
                            _ => {}
                        }
                        i += 1;
                        j += 1;
                    }
                    (Some(&x), Some(&y)) if x < y => {
                        vec_adds.push(x.0);
                        i += 1;
                    }
                    (Some(_), Some(&y)) => {
                        vec_rms.push(y.0);
                        j += 1;
                    }
                    (Some(&x), None) => {
                        vec_adds.push(x.0);
                        i += 1;
                    }
                    (None, Some(&y)) => {
                        vec_rms.push(y.0);
                        j += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
        }
        // Batch the removals per group, keyed by OLD membership. Batches
        // accumulate in flat `(group key, entry)` vectors sorted and walked
        // as runs — no per-group map or vector allocation. The cpu batches
        // carry their endpoint `cpu_share`, so position lookups never touch
        // a snapshot row.
        let mut ty_rm: Vec<(ActorTypeId, ActorId)> = Vec::new();
        let mut srv_rm: Vec<(ServerId, ActorId)> = Vec::new();
        let mut st_rm: Vec<((ServerId, ActorTypeId), ActorId)> = Vec::new();
        let mut all_rm: Vec<(f64, ActorId)> = Vec::new();
        let mut cty_rm: Vec<(ActorTypeId, (f64, ActorId))> = Vec::new();
        let mut csrv_rm: Vec<(ServerId, (f64, ActorId))> = Vec::new();
        let mut cst_rm: Vec<((ServerId, ActorTypeId), (f64, ActorId))> = Vec::new();
        for &(id, old, new) in &states {
            let Some((srv, ty, cpu)) = old else { continue };
            let regroup = match new {
                None => true,
                Some((nsrv, nty, _)) => nsrv != srv || nty != ty,
            };
            let recpu = regroup || new.is_some_and(|(_, _, ncpu)| ncpu.total_cmp(&cpu).is_ne());
            if regroup {
                ty_rm.push((ty, id));
                srv_rm.push((srv, id));
                st_rm.push(((srv, ty), id));
            }
            if recpu {
                all_rm.push((cpu, id));
                cty_rm.push((ty, (cpu, id)));
                csrv_rm.push((srv, (cpu, id)));
                cst_rm.push(((srv, ty), (cpu, id)));
            }
        }
        // Group the batches: a stable key sort keeps each run id-ascending
        // (removal runs need no in-run order beyond that — their positions
        // re-sort anyway).
        ty_rm.sort_unstable();
        srv_rm.sort_unstable();
        st_rm.sort_unstable();
        cty_rm.sort_by_key(|e| e.0);
        csrv_rm.sort_by_key(|e| e.0);
        cst_rm.sort_by_key(|e| e.0);
        // Phase 1 — splice the batches out. Each removed id's position is
        // found by binary search under the group's own order (the cpu
        // twins store their keys inline, so no snapshot row is consulted),
        // then the survivors compact with block memmoves: O(touched · log
        // group) probe work plus one linear copy pass per *affected* group.
        // Emptied groups disappear (insertions below re-create theirs,
        // keeping map keys exactly the non-empty groups a rebuild would
        // produce).
        let mut pos: Vec<usize> = Vec::new();
        Self::remove_ids_runs(&mut self.by_type, &ty_rm, &mut pos);
        Self::remove_ids_runs(&mut self.by_server, &srv_rm, &mut pos);
        Self::remove_ids_runs(&mut self.by_server_type, &st_rm, &mut pos);
        Self::splice_remove_cpu(&mut self.all_cpu, &all_rm, &mut pos);
        Self::remove_cpu_runs(&mut self.by_type_cpu, &cty_rm, &mut pos);
        Self::remove_cpu_runs(&mut self.by_server_cpu, &csrv_rm, &mut pos);
        Self::remove_cpu_runs(&mut self.by_server_type_cpu, &cst_rm, &mut pos);
        // Swap in the new generation: row data for every untouched actor
        // now resolves to its current stats. The server mask is untouched —
        // the scope ids were verified identical above — and the row table
        // is patched from the membership diff instead of re-streamed from
        // the (much larger) stats rows.
        self.snap = snap;
        self.servers = servers;
        self.patch_rows(&vec_adds, &vec_rms, &exact_rows);
        // Batch the insertions per group, keyed by NEW membership, in the
        // same flat sorted-run layout.
        let mut ty_ins: Vec<(ActorTypeId, ActorId)> = Vec::new();
        let mut srv_ins: Vec<(ServerId, ActorId)> = Vec::new();
        let mut st_ins: Vec<((ServerId, ActorTypeId), ActorId)> = Vec::new();
        let mut all_ins: Vec<(f64, ActorId)> = Vec::new();
        let mut cty_ins: Vec<(ActorTypeId, (f64, ActorId))> = Vec::new();
        let mut csrv_ins: Vec<(ServerId, (f64, ActorId))> = Vec::new();
        let mut cst_ins: Vec<((ServerId, ActorTypeId), (f64, ActorId))> = Vec::new();
        for &(id, old, new) in &states {
            let Some((srv, ty, cpu)) = new else { continue };
            let regroup = match old {
                None => true,
                Some((osrv, oty, _)) => osrv != srv || oty != ty,
            };
            let recpu = regroup || old.is_some_and(|(_, _, ocpu)| ocpu.total_cmp(&cpu).is_ne());
            if regroup {
                ty_ins.push((ty, id));
                srv_ins.push((srv, id));
                st_ins.push(((srv, ty), id));
            }
            if recpu {
                all_ins.push((cpu, id));
                cty_ins.push((ty, (cpu, id)));
                csrv_ins.push((srv, (cpu, id)));
                cst_ins.push(((srv, ty), (cpu, id)));
            }
        }
        // Phase 2 — splice the batches in at the new keys, same
        // binary-search-then-block-move strategy as the removals. Insertion
        // runs must ascend under their group's order, so the cpu batches
        // sort by `(group key, cpu, id)`. Every element still in a cpu twin
        // has a generation-stable sort key (its `cpu_share` is unchanged
        // between the two snapshots, or the delta would have listed it), so
        // the retained inline keys stay consistent across the swap.
        ty_ins.sort_unstable();
        srv_ins.sort_unstable();
        st_ins.sort_unstable();
        let cpu_entry =
            |a: &(f64, ActorId), b: &(f64, ActorId)| a.0.total_cmp(&b.0).then(a.1 .0.cmp(&b.1 .0));
        cty_ins.sort_by(|a, b| a.0.cmp(&b.0).then(cpu_entry(&a.1, &b.1)));
        csrv_ins.sort_by(|a, b| a.0.cmp(&b.0).then(cpu_entry(&a.1, &b.1)));
        cst_ins.sort_by(|a, b| a.0.cmp(&b.0).then(cpu_entry(&a.1, &b.1)));
        all_ins.sort_by(cpu_entry);
        Self::insert_ids_runs(&mut self.by_type, &ty_ins, &mut pos);
        Self::insert_ids_runs(&mut self.by_server, &srv_ins, &mut pos);
        Self::insert_ids_runs(&mut self.by_server_type, &st_ins, &mut pos);
        Self::splice_insert_cpu(&mut self.all_cpu, &all_ins, &mut pos);
        Self::insert_cpu_runs(&mut self.by_type_cpu, &cty_ins, &mut pos);
        Self::insert_cpu_runs(&mut self.by_server_cpu, &csrv_ins, &mut pos);
        Self::insert_cpu_runs(&mut self.by_server_type_cpu, &cst_ins, &mut pos);
        true
    }

    /// Compacts `v` by removing the elements at `positions` (strictly
    /// ascending) with one forward block-memmove pass.
    fn splice_out<T: Copy>(v: &mut Vec<T>, positions: &[usize]) {
        let mut w = positions[0];
        for (k, &p) in positions.iter().enumerate() {
            let next = positions.get(k + 1).copied().unwrap_or(v.len());
            v.copy_within(p + 1..next, w);
            w += next - p - 1;
        }
        v.truncate(w);
    }

    /// Grows `v` by inserting `item(j)` at lower-bound position
    /// `positions[j]` (non-decreasing, relative to the pre-insert vector)
    /// with one backward block-memmove pass: each retained element shifts
    /// right at most once and the prefix below the first position never
    /// moves.
    fn splice_in<T: Copy>(v: &mut Vec<T>, item: impl Fn(usize) -> T, positions: &[usize], fill: T) {
        debug_assert!(positions.windows(2).all(|w| w[0] <= w[1]));
        let old_len = v.len();
        v.resize(old_len + positions.len(), fill);
        let mut src_end = old_len;
        for j in (0..positions.len()).rev() {
            let p = positions[j];
            v.copy_within(p..src_end, p + j + 1);
            v[p + j] = item(j);
            src_end = p;
        }
    }

    /// Removes `(cpu, id)` entries (all present under their carried old
    /// keys, in any order) from a cpu twin, keeping `ids` and `keys` in
    /// lockstep. `pos` is caller-provided scratch.
    fn splice_remove_cpu(group: &mut CpuGroup, rm: &[(f64, ActorId)], pos: &mut Vec<usize>) {
        if rm.is_empty() {
            return;
        }
        pos.clear();
        for &(key, id) in rm {
            let p = group.lower_bound(key, id);
            debug_assert!(
                group.ids.get(p) == Some(&id),
                "a batched removal named an id absent from its cpu twin"
            );
            pos.push(p);
        }
        // `rm` ascends by id, not by the twin's `(cpu, id)` order; the
        // block-move pass only needs the positions.
        pos.sort_unstable();
        Self::splice_out(&mut group.ids, pos);
        Self::splice_out(&mut group.keys, pos);
    }

    /// Inserts `(cpu, id)` entries (already `(cpu, id)`-ascending, none
    /// present) into a cpu twin, keeping `ids` and `keys` in lockstep.
    fn splice_insert_cpu(group: &mut CpuGroup, ins: &[(f64, ActorId)], pos: &mut Vec<usize>) {
        if ins.is_empty() {
            return;
        }
        pos.clear();
        for &(key, id) in ins {
            pos.push(group.lower_bound(key, id));
        }
        Self::splice_in(&mut group.ids, |j| ins[j].1, pos, ActorId(u64::MAX));
        Self::splice_in(&mut group.keys, |j| ins[j].0, pos, f64::NAN);
    }

    /// Walks `list` (sorted so equal group keys are adjacent) as runs,
    /// invoking `f` once per `(key, run)`.
    fn runs<K: PartialEq + Copy, V>(list: &[(K, V)], mut f: impl FnMut(K, &[(K, V)])) {
        let mut i = 0;
        while i < list.len() {
            let k = list[i].0;
            let mut j = i + 1;
            while j < list.len() && list[j].0 == k {
                j += 1;
            }
            f(k, &list[i..j]);
            i = j;
        }
    }

    /// Splices each run of `rm` (ids ascending per run, all present) out of
    /// its id-ordered group; emptied groups leave the map.
    fn remove_ids_runs<K: Ord + Copy>(
        map: &mut BTreeMap<K, Vec<ActorId>>,
        rm: &[(K, ActorId)],
        pos: &mut Vec<usize>,
    ) {
        Self::runs(rm, |k, run| {
            let Some(group) = map.get_mut(&k) else {
                debug_assert!(false, "removal from a group that does not exist");
                return;
            };
            pos.clear();
            for &(_, id) in run {
                let p = group.partition_point(|&x| x.0 < id.0);
                debug_assert!(
                    group.get(p) == Some(&id),
                    "a batched removal named an id absent from its group"
                );
                pos.push(p);
            }
            Self::splice_out(group, pos);
            if group.is_empty() {
                map.remove(&k);
            }
        });
    }

    /// Splices each run of `ins` (ids ascending per run, none present) into
    /// its id-ordered group, creating absent groups.
    fn insert_ids_runs<K: Ord + Copy>(
        map: &mut BTreeMap<K, Vec<ActorId>>,
        ins: &[(K, ActorId)],
        pos: &mut Vec<usize>,
    ) {
        Self::runs(ins, |k, run| {
            let group = map.entry(k).or_default();
            pos.clear();
            for &(_, id) in run {
                pos.push(group.partition_point(|&x| x.0 < id.0));
            }
            Self::splice_in(group, |j| run[j].1, pos, ActorId(u64::MAX));
        });
    }

    /// Splices each run of `rm` out of its cpu twin; emptied twins leave
    /// the map.
    fn remove_cpu_runs<K: Ord + Copy>(
        map: &mut BTreeMap<K, CpuGroup>,
        rm: &[(K, (f64, ActorId))],
        pos: &mut Vec<usize>,
    ) {
        Self::runs(rm, |k, run| {
            let Some(group) = map.get_mut(&k) else {
                debug_assert!(false, "removal from a cpu twin that does not exist");
                return;
            };
            pos.clear();
            for &(_, (key, id)) in run {
                let p = group.lower_bound(key, id);
                debug_assert!(
                    group.ids.get(p) == Some(&id),
                    "a batched removal named an id absent from its cpu twin"
                );
                pos.push(p);
            }
            pos.sort_unstable();
            Self::splice_out(&mut group.ids, pos);
            Self::splice_out(&mut group.keys, pos);
            if group.ids.is_empty() {
                map.remove(&k);
            }
        });
    }

    /// Splices each run of `ins` (already `(cpu, id)`-ascending per run)
    /// into its cpu twin, creating absent twins.
    fn insert_cpu_runs<K: Ord + Copy>(
        map: &mut BTreeMap<K, CpuGroup>,
        ins: &[(K, (f64, ActorId))],
        pos: &mut Vec<usize>,
    ) {
        Self::runs(ins, |k, run| {
            let group = map.entry(k).or_default();
            pos.clear();
            for &(_, (key, id)) in run {
                pos.push(group.lower_bound(key, id));
            }
            Self::splice_in(&mut group.ids, |j| run[j].1 .1, pos, ActorId(u64::MAX));
            Self::splice_in(&mut group.keys, |j| run[j].1 .0, pos, f64::NAN);
        });
    }

    /// Patches the dense id->row table across a snapshot swap. Untouched
    /// actors' rows shift by the running count of vec insertions minus
    /// removals below their id (`vec_adds` / `vec_rms`, id-ascending);
    /// touched actors then get their `exact` rows written directly. One
    /// O(world) pass over the packed `u32` table — the stats rows
    /// themselves are never streamed.
    fn patch_rows(&mut self, vec_adds: &[u64], vec_rms: &[u64], exact: &[(ActorId, u32)]) {
        let new_width = self
            .snap
            .actors
            .last()
            .map(|a| a.actor.0 as usize + 1)
            .unwrap_or(0);
        if new_width > self.rows.len() {
            self.rows.resize(new_width, NO_ROW);
        }
        let mut events: Vec<(u64, i64)> = vec_adds
            .iter()
            .map(|&id| (id, 1i64))
            .chain(vec_rms.iter().map(|&id| (id, -1i64)))
            .collect();
        events.sort_unstable();
        let mut shift = 0i64;
        for (k, &(eid, d)) in events.iter().enumerate() {
            shift += d;
            // A membership change at `eid` shifts every row for ids above
            // it, up to the next event (ranges between same-id events are
            // empty, so duplicate ids compose correctly).
            let lo = (eid as usize + 1).min(self.rows.len());
            let hi = events
                .get(k + 1)
                .map(|&(n, _)| n as usize + 1)
                .unwrap_or(self.rows.len())
                .min(self.rows.len());
            if shift != 0 {
                for r in &mut self.rows[lo..hi] {
                    if *r != NO_ROW {
                        // Touched rows may transiently wrap here; their
                        // exact values land below.
                        *r = (*r as i64).wrapping_add(shift) as u32;
                    }
                }
            }
        }
        for &(id, row) in exact {
            // A touched id can sit beyond the table when a merged delta
            // names an actor absent from both endpoints; its implicit row
            // is already NO_ROW.
            if let Some(r) = self.rows.get_mut(id.0 as usize) {
                *r = row;
            } else {
                debug_assert_eq!(row, NO_ROW);
            }
        }
    }

    /// Returns the snapshot generation this frame was built from.
    pub fn generation(&self) -> u64 {
        self.snap.generation
    }

    /// Returns the stats row of `id`, if the actor is in the frame.
    pub(crate) fn lookup(&self, id: ActorId) -> Option<&ActorWindowStats> {
        match self.rows.get(id.0 as usize) {
            Some(&pos) if pos != NO_ROW => Some(&self.snap.actors[pos as usize]),
            _ => None,
        }
    }

    /// Returns the metadata of every frame server.
    pub fn servers(&self) -> &[ServerMeta] {
        &self.servers
    }

    /// Returns the metadata of one frame server.
    pub fn server(&self, id: ServerId) -> Option<&ServerMeta> {
        self.server_idx.get(&id).map(|&i| &self.servers[i])
    }

    /// Resolves an EPL type name against the application's registry.
    pub fn type_id(&self, name: &str) -> Option<ActorTypeId> {
        self.type_names.get(name).copied()
    }

    /// Resolves a function name against the application's registry.
    pub fn fn_id(&self, name: &str) -> Option<FnId> {
        self.fn_names.get(name).copied()
    }

    fn group(&self, sel: TypeSel, on_server: Option<ServerId>, cpu_sorted: bool) -> &[ActorId] {
        if cpu_sorted {
            return self.cpu_group(sel, on_server).map_or(&[], |g| &g.ids);
        }
        let found = match (sel, on_server) {
            (TypeSel::Unknown, _) => None,
            (TypeSel::Any, None) => {
                // The unsorted full list is `EvalCtx::actors()`; only the
                // sorted variant is served from here.
                debug_assert!(cpu_sorted);
                Some(&self.all_cpu.ids)
            }
            (TypeSel::Any, Some(s)) => self.by_server.get(&s),
            (TypeSel::Id(t), None) => self.by_type.get(&t),
            (TypeSel::Id(t), Some(s)) => self.by_server_type.get(&(s, t)),
        };
        found.map_or(&[], |v| v)
    }

    /// The `(cpu_share, id)`-ascending twin for a selector, keys included.
    fn cpu_group(&self, sel: TypeSel, on_server: Option<ServerId>) -> Option<&CpuGroup> {
        match (sel, on_server) {
            (TypeSel::Unknown, _) => None,
            (TypeSel::Any, None) => Some(&self.all_cpu),
            (TypeSel::Any, Some(s)) => self.by_server_cpu.get(&s),
            (TypeSel::Id(t), None) => self.by_type_cpu.get(&t),
            (TypeSel::Id(t), Some(s)) => self.by_server_type_cpu.get(&(s, t)),
        }
    }

    /// Asserts this frame's indexes are identical — contents *and* order —
    /// to `oracle`'s (a frame freshly rebuilt from the same snapshot and
    /// scope). Used by the churn property tests and the maintenance bench.
    #[cfg(any(test, feature = "naive-oracle"))]
    pub fn assert_same_indexes(&self, oracle: &EvalFrame) {
        assert_eq!(self.snap.generation, oracle.snap.generation, "generation");
        assert_eq!(self.servers, oracle.servers, "server metadata");
        assert_eq!(self.server_idx, oracle.server_idx, "server index");
        // Row tables may differ in trailing NO_ROW padding (the retained
        // table never shrinks); compare them semantically.
        let width = self.rows.len().max(oracle.rows.len());
        for i in 0..width {
            assert_eq!(
                self.rows.get(i).copied().unwrap_or(NO_ROW),
                oracle.rows.get(i).copied().unwrap_or(NO_ROW),
                "row table entry for actor {i}"
            );
        }
        assert_eq!(self.by_type, oracle.by_type, "by_type");
        assert_eq!(self.by_server, oracle.by_server, "by_server");
        assert_eq!(self.by_server_type, oracle.by_server_type, "by_server_type");
        assert_eq!(self.all_cpu, oracle.all_cpu, "all_cpu");
        assert_eq!(self.by_type_cpu, oracle.by_type_cpu, "by_type_cpu");
        assert_eq!(self.by_server_cpu, oracle.by_server_cpu, "by_server_cpu");
        assert_eq!(
            self.by_server_type_cpu, oracle.by_server_type_cpu,
            "by_server_type_cpu"
        );
    }
}

/// A scoped, immutable view over one profiling snapshot.
///
/// A context narrows a frame to the servers one consumer manages; all
/// candidate enumeration stays index-driven on the shared frame, filtered
/// by scope where the scope is partial.
pub struct EvalCtx<'a> {
    frame: &'a EvalFrame,
    /// Servers in scope, in scope order.
    pub servers: Vec<ServerMeta>,
    /// `None` when the scope covers the whole frame.
    scope: Option<BTreeMap<ServerId, ()>>,
    /// In-scope actor rows, in id order.
    actors: Vec<&'a ActorWindowStats>,
}

impl<'a> EvalCtx<'a> {
    /// Borrows the round's shared frame, narrowed to `scope` servers.
    /// Servers absent from the frame (not running at build time) are
    /// skipped.
    pub fn scoped(frame: &'a EvalFrame, scope: &[ServerId]) -> Self {
        let servers = scope
            .iter()
            .filter_map(|&sid| frame.server(sid))
            .copied()
            .collect();
        Self::over(frame, servers)
    }

    /// Builds a context from wire-carried LEM report rows — the QREPLY
    /// candidates of one GEM query, already merged into scope order.
    ///
    /// Each row decodes bit-for-bit into the `ServerMeta` the
    /// shared-snapshot path computes, so a context built this way is
    /// interchangeable with [`EvalCtx::scoped`] over the same scope: same
    /// servers in the same order, same in-scope actor rows. The EMR
    /// debug-asserts that equivalence every round; it is what keeps
    /// decision digests byte-identical with the control plane on the
    /// wire.
    pub fn for_reports(frame: &'a EvalFrame, reports: &[ServerReport]) -> Self {
        Self::over(frame, reports.iter().map(ServerMeta::from_report).collect())
    }

    /// Narrows `frame` to `servers` (in scope order): the actor rows kept
    /// are those resident on one of them.
    fn over(frame: &'a EvalFrame, servers: Vec<ServerMeta>) -> Self {
        let full = servers.len() == frame.servers.len();
        let scope_set: Option<BTreeMap<ServerId, ()>> = if full {
            None
        } else {
            Some(servers.iter().map(|s| (s.id, ())).collect())
        };
        let actors: Vec<&'a ActorWindowStats> = frame
            .snap
            .actors
            .iter()
            .filter(|a| match &scope_set {
                Some(set) => set.contains_key(&a.server),
                None => frame.scope_has(a.server),
            })
            .collect();
        EvalCtx {
            frame,
            servers,
            scope: scope_set,
            actors,
        }
    }

    pub(crate) fn frame(&self) -> &'a EvalFrame {
        self.frame
    }

    fn in_scope(&self, sid: ServerId) -> bool {
        match &self.scope {
            Some(set) => set.contains_key(&sid),
            None => self.frame.scope_has(sid),
        }
    }

    /// Returns the window length in seconds.
    pub fn window_secs(&self) -> f64 {
        self.frame.snap.window.as_secs_f64().max(1e-9)
    }

    /// Returns every in-scope actor.
    pub fn actors(&self) -> &[&'a ActorWindowStats] {
        &self.actors
    }

    /// Returns the stats of one actor, if in scope.
    pub fn actor(&self, id: ActorId) -> Option<&'a ActorWindowStats> {
        let a = self.frame.lookup(id)?;
        if self.in_scope(a.server) {
            Some(a)
        } else {
            None
        }
    }

    /// Returns the server metadata for `id`, if in scope.
    pub fn server(&self, id: ServerId) -> Option<&ServerMeta> {
        self.servers.iter().find(|s| s.id == id)
    }

    /// Resolves an EPL type name against the application's registry.
    pub fn type_id(&self, name: &str) -> Option<ActorTypeId> {
        self.frame.type_id(name)
    }

    /// Resolves a function name against the application's registry.
    pub fn fn_id(&self, name: &str) -> Option<FnId> {
        self.frame.fn_id(name)
    }

    /// Returns whether an actor's type matches an EPL type pattern.
    pub fn matches_type(&self, actor: &ActorWindowStats, pattern: &AType) -> bool {
        self.type_sel(pattern).matches(actor)
    }

    /// Binds a type pattern to a selector over this context's registry.
    pub fn type_sel(&self, pattern: &AType) -> TypeSel {
        match pattern {
            AType::Any => TypeSel::Any,
            AType::Named(name) => match self.type_id(name) {
                Some(t) => TypeSel::Id(t),
                None => TypeSel::Unknown,
            },
        }
    }

    /// Returns the in-scope actors matching a type pattern, optionally
    /// restricted to one server, in id order.
    pub fn actors_matching(
        &self,
        pattern: &AType,
        on_server: Option<ServerId>,
    ) -> Vec<&'a ActorWindowStats> {
        self.select(self.type_sel(pattern), on_server)
    }

    /// Index-driven candidate enumeration: in-scope actors matching `sel`,
    /// optionally on one server, in id order.
    pub(crate) fn select(
        &self,
        sel: TypeSel,
        on_server: Option<ServerId>,
    ) -> Vec<&'a ActorWindowStats> {
        let frame = self.frame;
        match (sel, on_server) {
            (TypeSel::Unknown, _) => Vec::new(),
            (_, Some(s)) if !self.in_scope(s) => Vec::new(),
            (TypeSel::Any, None) => self.actors.clone(),
            (sel, on_server @ Some(_)) => frame
                .group(sel, on_server, false)
                .iter()
                .filter_map(|&id| frame.lookup(id))
                .collect(),
            (sel @ TypeSel::Id(_), None) => {
                let group = frame.group(sel, None, false);
                match &self.scope {
                    None => group.iter().filter_map(|&id| frame.lookup(id)).collect(),
                    Some(set) => group
                        .iter()
                        .filter_map(|&id| frame.lookup(id))
                        .filter(|a| set.contains_key(&a.server))
                        .collect(),
                }
            }
        }
    }

    /// Threshold-pruned enumeration for `actor.cpu.perc comp val`
    /// conditions: candidates whose `cpu_share * 100` satisfies `comp`
    /// against `val`, selected by `partition_point` over the frame's
    /// cpu-sorted index. The comparison applied is bit-identical to the
    /// per-candidate check, so the result set matches a full scan exactly;
    /// output order is unspecified (callers dedupe).
    pub(crate) fn select_cpu_threshold(
        &self,
        sel: TypeSel,
        on_server: Option<ServerId>,
        comp: Comp,
        val: f64,
    ) -> Vec<&'a ActorWindowStats> {
        if let Some(s) = on_server {
            if !self.in_scope(s) {
                return Vec::new();
            }
        }
        let frame = self.frame;
        let Some(group) = frame.cpu_group(sel, on_server) else {
            return Vec::new();
        };
        // The twin's inline keys are maintained bit-identical to each
        // actor's `cpu_share`, so thresholding on them matches the
        // per-candidate check exactly.
        let pass = |&key: &f64| comp.eval(key * 100.0, val);
        // `cpu_share` ascends along the group and every `Comp` is a
        // half-line, so passing candidates form a prefix (Lt/Le) or a
        // suffix (Gt/Ge).
        let hits = match comp {
            Comp::Gt | Comp::Ge => &group.ids[group.keys.partition_point(|k| !pass(k))..],
            Comp::Lt | Comp::Le => &group.ids[..group.keys.partition_point(pass)],
        };
        let needs_scope_filter = on_server.is_none() && self.scope.is_some();
        hits.iter()
            .filter_map(|&id| frame.lookup(id))
            .filter(|a| !needs_scope_filter || self.in_scope(a.server))
            .collect()
    }

    /// Returns an actor's utilization fraction of its server for `res`.
    pub fn actor_usage(&self, actor: &ActorWindowStats, res: Res) -> f64 {
        match res {
            Res::Cpu => actor.cpu_share,
            Res::Mem => {
                let cap = self
                    .server(actor.server)
                    .map(|s| s.mem_bytes)
                    .unwrap_or(u64::MAX);
                if cap == 0 {
                    0.0
                } else {
                    actor.state_size as f64 / cap as f64
                }
            }
            Res::Net => {
                let bps = self
                    .server(actor.server)
                    .map(|s| s.net_bps)
                    .unwrap_or(f64::INFINITY);
                let recv: u64 = actor.counters.calls.values().map(|s| s.bytes).sum();
                let bits = (actor.counters.bytes_sent + recv) as f64 * 8.0;
                if bps <= 0.0 {
                    0.0
                } else {
                    bits / (bps * self.window_secs())
                }
            }
        }
    }
}
