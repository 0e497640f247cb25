//! The benchmark's own actor and client logic (the `apps` layer).
//!
//! Skew mirrors E-Store (§5.5): a read hits a root partition, which
//! forwards it to one of its children, which replies. Churn mirrors the
//! Halo presence service (§5.7): consoles join a session (which spawns a
//! player and references it), heartbeat through a CPU-heavy router to the
//! session and on to the player, and leave (which drops the reference and
//! despawns the player).
//!
//! Clients draw from their own seeded generators, never from the program's
//! RNG, and record every request in a shared [`Book`] so that unanswered
//! requests count as failed.

use std::sync::{Arc, Mutex};

use plasma::prelude::*;

use crate::input::{ConsolePlan, SplitMix};
use crate::meter::Meter;

/// Client-side record of one repetition.
#[derive(Debug, Default)]
pub struct Book {
    /// Requests issued.
    pub issued: u64,
    /// Replies received.
    pub answered: u64,
    /// Simulated latency of every reply, in milliseconds.
    pub latency_ms: Vec<f64>,
    /// Per client: the outstanding request and when it was issued.
    pub outstanding: Vec<Option<(u64, SimTime)>>,
}

impl Book {
    /// A book for `clients` clients.
    pub fn new(clients: usize) -> Self {
        Book {
            outstanding: vec![None; clients],
            ..Book::default()
        }
    }

    /// Records `request`, issued by `client` at `at`.
    pub fn issue(&mut self, client: usize, request: u64, at: SimTime) {
        self.issued += 1;
        self.outstanding[client] = Some((request, at));
    }

    /// Records the reply to `request` of `client`.
    pub fn answer(&mut self, client: usize, request: u64, latency: SimDuration) {
        if let Some((r, _)) = self.outstanding[client] {
            if r == request {
                self.outstanding[client] = None;
            }
        }
        self.answered += 1;
        self.latency_ms.push(latency.as_millis_f64());
    }

    /// Requests issued at or before `cutoff` that never got a reply.
    pub fn unanswered_before(&self, cutoff: SimTime) -> u64 {
        self.outstanding
            .iter()
            .flatten()
            .filter(|&&(_, at)| at <= cutoff)
            .count() as u64
    }
}

/// A shared book.
pub(crate) type SharedBook = Arc<Mutex<Book>>;

fn book_mut(book: &SharedBook) -> std::sync::MutexGuard<'_, Book> {
    book.lock().expect("client book poisoned")
}

// ---------------------------------------------------------------------------
// Skew.

/// A root partition: forwards each read to one child, rotating.
pub(crate) struct Root {
    /// Child partitions.
    pub(crate) children: Vec<ActorId>,
    /// CPU work per read.
    pub(crate) work: f64,
    /// Rotation cursor.
    pub(crate) next: usize,
    /// Shared meter.
    pub(crate) meter: Arc<Meter>,
}

impl ActorLogic for Root {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        let t = self.meter.handler_enter();
        ctx.work(self.work);
        let child = self.children[self.next % self.children.len()];
        self.next += 1;
        ctx.send(child, "read", 128);
        self.meter.handler_exit(t);
    }
}

/// A child partition: replies to the client.
pub(crate) struct Child {
    /// CPU work per read.
    pub(crate) work: f64,
    /// Shared meter.
    pub(crate) meter: Arc<Meter>,
}

impl ActorLogic for Child {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        let t = self.meter.handler_enter();
        ctx.work(self.work);
        ctx.reply(512);
        self.meter.handler_exit(t);
    }
}

/// A closed-loop E-Store client drawing roots from a cascade distribution.
pub(crate) struct SkewClient {
    /// This client's index in the book.
    pub(crate) index: usize,
    /// Root actors by traffic rank.
    pub(crate) roots: Arc<Vec<ActorId>>,
    /// Cumulative rank distribution.
    pub(crate) cdf: Arc<Vec<f64>>,
    /// The client's own generator.
    pub(crate) rng: SplitMix,
    /// Think time.
    pub(crate) think: SimDuration,
    /// Delay before the first request.
    pub(crate) start: SimDuration,
    /// Shared book.
    pub(crate) book: SharedBook,
    /// Shared meter.
    pub(crate) meter: Arc<Meter>,
}

impl SkewClient {
    fn fire(&mut self, ctx: &mut ClientCtx<'_>) {
        let u = self.rng.next_f64();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.roots.len() - 1);
        let request = ctx.request(self.roots[rank], "read", 96);
        book_mut(&self.book).issue(self.index, request, ctx.now());
    }
}

impl ClientLogic for SkewClient {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_>) {
        ctx.set_timer(self.start, 0);
    }

    fn on_reply(
        &mut self,
        ctx: &mut ClientCtx<'_>,
        request: u64,
        latency: SimDuration,
        _payload: Option<Payload>,
    ) {
        let t = self.meter.handler_enter();
        book_mut(&self.book).answer(self.index, request, latency);
        ctx.set_timer(self.think, 0);
        self.meter.handler_exit(t);
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_>, _token: u64) {
        let t = self.meter.handler_enter();
        self.fire(ctx);
        self.meter.handler_exit(t);
    }
}

/// Cumulative cascade distribution: rank i gets `skew` of what ranks
/// `0..i` left, and the last rank takes the remainder.
pub(crate) fn cascade_cdf(ranks: usize, skew: f64) -> Vec<f64> {
    let weights = plasma_apps::estore::cascade_weights(ranks, skew);
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w;
            acc
        })
        .collect();
    if let Some(last) = cdf.last_mut() {
        *last = f64::INFINITY;
    }
    cdf
}

// ---------------------------------------------------------------------------
// Churn.

/// A heartbeat travelling router -> session -> player.
struct Beat {
    session: ActorId,
    player: ActorId,
}

/// Session requests from consoles.
enum SessionOp {
    Join,
    Leave(ActorId),
}

/// Reply to a join: the new player.
struct Joined(ActorId);

/// A router: decrypts (CPU work) and forwards to the session.
pub(crate) struct Router {
    /// CPU work per heartbeat.
    pub(crate) work: f64,
    /// Shared meter.
    pub(crate) meter: Arc<Meter>,
}

impl ActorLogic for Router {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, msg: &mut Message) {
        let t = self.meter.handler_enter();
        ctx.work(self.work);
        if let Some(beat) = msg.take_payload::<Beat>() {
            let session = beat.session;
            ctx.send_with(session, "heartbeat", 96, beat);
        }
        self.meter.handler_exit(t);
    }
}

/// A session: creates and removes players, forwards heartbeats.
pub(crate) struct Session {
    /// Shared meter.
    pub(crate) meter: Arc<Meter>,
}

impl Session {
    /// Times a runtime call made from the handler so handler busy time
    /// excludes it.
    fn nested<T>(&self, f: impl FnOnce() -> T) -> T {
        if !self.meter.traced() {
            return f();
        }
        let t0 = self.meter.now_ns();
        let out = f();
        self.meter.add_nested(self.meter.now_ns() - t0);
        out
    }
}

impl ActorLogic for Session {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, msg: &mut Message) {
        let t = self.meter.handler_enter();
        if let Some(beat) = msg.take_payload::<Beat>() {
            ctx.work(0.0003);
            ctx.send(beat.player, "heartbeat", 64);
        } else if let Some(op) = msg.take_payload::<SessionOp>() {
            match *op {
                SessionOp::Join => {
                    ctx.work(0.0008);
                    let meter = Arc::clone(&self.meter);
                    let player =
                        self.nested(|| ctx.spawn("Player", Box::new(Player { meter }), 64 << 10));
                    ctx.add_ref("players", player);
                    ctx.reply_with(48, Box::new(Joined(player)));
                }
                SessionOp::Leave(player) => {
                    ctx.work(0.0004);
                    ctx.remove_ref("players", player);
                    self.nested(|| ctx.despawn(player));
                    ctx.reply(32);
                }
            }
        }
        self.meter.handler_exit(t);
    }
}

/// A player: replies to its console's heartbeat.
pub(crate) struct Player {
    /// Shared meter.
    pub(crate) meter: Arc<Meter>,
}

impl ActorLogic for Player {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        let t = self.meter.handler_enter();
        ctx.work(0.0002);
        ctx.reply(32);
        self.meter.handler_exit(t);
    }
}

/// What a console is waiting for.
enum Phase {
    /// The join timer.
    Idle,
    /// The join reply.
    Joining,
    /// The next heartbeat timer or reply; the count of heartbeats left.
    Staying(ActorId, u32),
    /// The leave reply.
    Leaving,
}

/// A console: joins, heartbeats, leaves. Each step waits for the
/// previous reply, so no message is ever in flight to a removed player.
pub(crate) struct Console {
    index: usize,
    session: ActorId,
    router: ActorId,
    join: SimDuration,
    beat: SimDuration,
    beats: u32,
    bytes: u64,
    phase: Phase,
    book: SharedBook,
    meter: Arc<Meter>,
}

impl Console {
    /// Console `index` of the book: it joins `session` and heartbeats
    /// through `router` as `plan` says.
    pub(crate) fn new(
        index: usize,
        session: ActorId,
        router: ActorId,
        plan: &ConsolePlan,
        book: SharedBook,
        meter: Arc<Meter>,
    ) -> Self {
        Console {
            index,
            session,
            router,
            join: SimDuration::from_micros(plan.join_us),
            beat: SimDuration::from_micros(plan.beat_us),
            beats: plan.beats,
            bytes: u64::from(plan.bytes),
            phase: Phase::Idle,
            book,
            meter,
        }
    }

    fn issue(&mut self, ctx: &mut ClientCtx<'_>, to: ActorId, fname: &str, payload: Payload) {
        let request = ctx.request_with(to, fname, self.bytes, payload);
        book_mut(&self.book).issue(self.index, request, ctx.now());
    }
}

impl ClientLogic for Console {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_>) {
        ctx.set_timer(self.join, 0);
    }

    fn on_reply(
        &mut self,
        ctx: &mut ClientCtx<'_>,
        request: u64,
        latency: SimDuration,
        payload: Option<Payload>,
    ) {
        let t = self.meter.handler_enter();
        book_mut(&self.book).answer(self.index, request, latency);
        self.phase = match self.phase {
            Phase::Joining => {
                let joined = payload
                    .and_then(|p| p.downcast::<Joined>().ok())
                    .expect("a join is answered with its player");
                ctx.set_timer(self.beat, 0);
                Phase::Staying(joined.0, self.beats)
            }
            Phase::Staying(player, left) if left > 1 => {
                ctx.set_timer(self.beat, 0);
                Phase::Staying(player, left - 1)
            }
            Phase::Staying(player, _) => {
                let session = self.session;
                self.issue(ctx, session, "leave", Box::new(SessionOp::Leave(player)));
                Phase::Leaving
            }
            Phase::Idle | Phase::Leaving => Phase::Idle,
        };
        self.meter.handler_exit(t);
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_>, _token: u64) {
        let t = self.meter.handler_enter();
        match self.phase {
            Phase::Idle => {
                let session = self.session;
                self.issue(ctx, session, "join", Box::new(SessionOp::Join));
                self.phase = Phase::Joining;
            }
            Phase::Staying(player, _) => {
                let beat = Beat {
                    session: self.session,
                    player,
                };
                let router = self.router;
                self.issue(ctx, router, "heartbeat", Box::new(beat));
            }
            Phase::Joining | Phase::Leaving => {}
        }
        self.meter.handler_exit(t);
    }
}
