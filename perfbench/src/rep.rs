//! One repetition of a workload: set up, step the horizon one profiling
//! window at a time (sampling the cluster after each), then read the
//! public counters.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use plasma::prelude::*;

use crate::apps::{self, Book, SharedBook};
use crate::calib;
use crate::input::{Carrier, ChurnInput, Input, SkewInput, CUTOFF_S, WINDOW_S};
use crate::meter::{ControllerLog, Meter, Span};
use crate::stats::{quantile, tail_percentile};
use crate::timed_emr::TimedEmr;

/// Everything one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Policy compilation, wall ns.
    pub compile_ns: u64,
    /// `PlasmaBuilder::build`, wall ns (worker spawn included).
    pub build_ns: u64,
    /// Setup spawn calls and their wall ns.
    pub spawn_calls: u64,
    /// Wall ns in setup `spawn_actor` calls.
    pub spawn_ns: u64,
    /// Whole setup, wall ns.
    pub setup_ns: u64,
    /// Whole horizon, wall ns, kernel samples excluded.
    pub run_ns: u64,
    /// Wall ns of each `run_until` window, kernel samples excluded.
    pub window_ns: Vec<u64>,
    /// Wall ns of the host-speed kernel, sampled right after each window
    /// (untraced repetitions only).
    pub calib_ns: Vec<u64>,
    /// Wall ns of the kernel sampled right after setup (untraced only).
    pub setup_calib_ns: u64,
    /// Controller timings.
    pub controller: ControllerLog,
    /// Handler calls and busy ns.
    pub handler_calls: u64,
    /// Handler busy ns.
    pub handler_ns: u64,
    /// Spans (traced runs only).
    pub spans: Vec<Span>,
    /// The program's decision digest.
    pub decision_digest: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Report counters and scalars read at the horizon.
    pub counters: BTreeMap<String, f64>,
    /// Median simulated client latency, in ms.
    pub latency_p50_ms: f64,
    /// Simulated client latency at `latency_tail_pct`, in ms.
    pub latency_tail_ms: f64,
    /// The tail percentile: the highest that leaves ten replies beyond it.
    pub latency_tail_pct: f64,
    /// Simulated server-seconds provisioned, sampled at each window.
    pub server_s: f64,
    /// Most servers active at a window end.
    pub peak_servers: u64,
    /// Client requests issued.
    pub attempted: u64,
    /// Client replies received.
    pub answered: u64,
    /// Requests failed: dropped, or unanswered 5 simulated s before the
    /// horizon.
    pub failed: u64,
}

impl Rep {
    /// Local plus remote deliveries.
    pub fn deliveries(&self) -> u64 {
        (self.counter("actor.local_messages") + self.counter("actor.remote_messages")) as u64
    }

    /// A counter read at the horizon (0 when absent).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn backend_kind(c: Carrier) -> BackendKind {
    match c {
        Carrier::Sim => BackendKind::Sim,
        Carrier::Live => BackendKind::Live,
        Carrier::Net => BackendKind::Net,
    }
}

/// A system set up and ready to run, with the probes that watch it.
pub(crate) struct Prepared {
    app: Plasma,
    meter: Arc<Meter>,
    book: SharedBook,
    root: Option<u32>,
    rep: Rep,
}

impl Prepared {
    /// Wall time of the setup, in nanoseconds.
    pub(crate) fn setup_ns(&self) -> u64 {
        self.rep.setup_ns
    }

    /// The kernel sample taken right after the setup (untraced only).
    pub(crate) fn setup_calib_ns(&self) -> u64 {
        self.rep.setup_calib_ns
    }
}

/// Sets up `input` on `carrier`: compiles the policy, builds the system
/// (spawning the carrier's workers), adds servers, actors and clients.
pub(crate) fn setup(input: &Input, carrier: Carrier, traced: bool) -> Prepared {
    let meter = Arc::new(Meter::new(traced));
    let mut rep = Rep::default();
    let root = meter.open("rep", None);
    let setup_t = Instant::now();
    let setup = meter.open("setup", root);

    let schema = match input {
        Input::Skew(_) => plasma_apps::estore::schema(),
        Input::Churn(_) => plasma_apps::halo::schema(),
    };
    let span = meter.open("epl.compile", setup);
    let t = Instant::now();
    let compiled = compile(input.policy(), &schema).expect("workload policy compiles");
    rep.compile_ns = ns_since(t);
    meter.close(span);

    let (runtime_cfg, emr_cfg) = configs(input, carrier);
    let span = meter.open("core.build", setup);
    let t = Instant::now();
    let emr = TimedEmr::new(PlasmaEmr::new(compiled, emr_cfg), Arc::clone(&meter));
    let mut app = Plasma::builder()
        .runtime_config(runtime_cfg)
        .controller(Box::new(emr))
        .build()
        .expect("a controller-only build cannot fail");
    rep.build_ns = ns_since(t);
    meter.close(span);

    let span = meter.open("actor.populate", setup);
    let book: SharedBook = Arc::new(Mutex::new(Book::new(input.clients() as usize)));
    match input {
        Input::Skew(s) => populate_skew(&mut app, s, &book, &meter, &mut rep),
        Input::Churn(c) => populate_churn(&mut app, c, &book, &meter, &mut rep),
    }
    meter.close(span);
    meter.close(setup);
    rep.setup_ns = ns_since(setup_t);
    if !traced {
        rep.setup_calib_ns = calib::sample();
    }
    Prepared {
        app,
        meter,
        book,
        root,
        rep,
    }
}

/// Runs one repetition of `input` on `carrier`: set up, then the horizon.
pub(crate) fn run(input: &Input, carrier: Carrier, traced: bool) -> Rep {
    let Prepared {
        mut app,
        meter,
        book,
        root,
        mut rep,
    } = setup(input, carrier, traced);
    let run = meter.open("run", root);
    let run_t = Instant::now();
    let windows = input.horizon_s() / WINDOW_S;
    let mut calib_total = 0;
    for w in 1..=windows {
        let span = meter.open("window", run);
        meter.set_window(span);
        let t = Instant::now();
        app.run_until(SimTime::from_secs(w * WINDOW_S));
        let wall = ns_since(t);
        // Kernel samples the controller wrapper took after each round.
        let inside = std::mem::take(
            &mut meter
                .controller
                .lock()
                .expect("controller log poisoned")
                .calib_ns,
        );
        rep.window_ns.push(wall - inside);
        meter.close(span);
        meter.set_window(None);
        read_window(&app, &mut rep);
        calib_total += inside;
        if !traced {
            let ns = calib::sample();
            rep.calib_ns.push(ns);
            calib_total += ns;
        }
    }
    rep.run_ns = ns_since(run_t) - calib_total;
    meter.close(run);
    meter.close(root);

    read_horizon(&app, &mut rep);
    let book = std::mem::take(&mut *book.lock().expect("client book poisoned"));
    let cutoff = SimTime::from_secs(input.horizon_s() - CUTOFF_S);
    rep.attempted = book.issued;
    rep.answered = book.answered;
    rep.failed = book.unanswered_before(cutoff);
    let mut latency = book.latency_ms;
    latency.sort_by(f64::total_cmp);
    rep.latency_tail_pct = tail_percentile(latency.len());
    rep.latency_p50_ms = quantile(&latency, 0.5);
    rep.latency_tail_ms = quantile(&latency, rep.latency_tail_pct / 100.0);
    rep.controller =
        std::mem::take(&mut *meter.controller.lock().expect("controller log poisoned"));
    (rep.handler_calls, rep.handler_ns) = meter.handler_totals();
    rep.spans = meter.take_spans();
    // Dropping the app stops the carrier (joins threads, reaps workers).
    drop(app);
    rep
}

fn configs(input: &Input, carrier: Carrier) -> (RuntimeConfig, EmrConfig) {
    let period = SimDuration::from_secs(input.period_s());
    let base = RuntimeConfig {
        elasticity_period: period,
        min_residency: period,
        profile_window: SimDuration::from_secs(WINDOW_S),
        backend: backend_kind(carrier),
        ..RuntimeConfig::default()
    };
    match input {
        Input::Skew(s) => (
            RuntimeConfig {
                seed: s.runtime_seed,
                ..base
            },
            EmrConfig::default(),
        ),
        Input::Churn(c) => (
            RuntimeConfig {
                seed: c.runtime_seed,
                limits: ClusterLimits {
                    max_servers: c.max_servers as usize,
                    min_servers: 1,
                },
                ..base
            },
            EmrConfig {
                auto_scale: true,
                ..EmrConfig::default()
            },
        ),
    }
}

fn populate_skew(
    app: &mut Plasma,
    s: &SkewInput,
    book: &SharedBook,
    meter: &Arc<Meter>,
    rep: &mut Rep,
) {
    let rt = app.runtime_mut();
    let servers: Vec<ServerId> = (0..s.servers)
        .map(|_| rt.add_server(InstanceType::m1_small()))
        .collect();
    for _ in 0..s.spare_servers {
        rt.add_server(InstanceType::m1_small());
    }
    let mut spawn = |rt: &mut Runtime, logic: Box<dyn ActorLogic>, size: u64, home: ServerId| {
        let t = Instant::now();
        let id = rt.spawn_actor("Partition", logic, size, home);
        rep.spawn_ns += ns_since(t);
        rep.spawn_calls += 1;
        id
    };
    let mut by_rank = vec![ActorId(0); s.roots as usize];
    for &rank in &s.spawn_order {
        // Rank decides the home, as in E-Store: the hottest roots share
        // servers the same way on every seed.
        let home = servers[rank as usize % servers.len()];
        let children: Vec<ActorId> = (0..s.children_per_root)
            .map(|_| {
                let logic = apps::Child {
                    work: s.child_work,
                    meter: Arc::clone(meter),
                };
                spawn(rt, Box::new(logic), 512 << 10, home)
            })
            .collect();
        let logic = apps::Root {
            children: children.clone(),
            work: s.root_work,
            next: 0,
            meter: Arc::clone(meter),
        };
        let root = spawn(rt, Box::new(logic), 256 << 10, home);
        for &c in &children {
            rt.actor_add_ref(root, "children", c);
        }
        by_rank[rank as usize] = root;
    }
    let roots = Arc::new(by_rank);
    let cdf = Arc::new(apps::cascade_cdf(s.roots as usize, s.skew));
    for (index, (&seed, &start)) in s.client_seeds.iter().zip(&s.client_start_us).enumerate() {
        rt.add_client(Box::new(apps::SkewClient {
            index,
            roots: Arc::clone(&roots),
            cdf: Arc::clone(&cdf),
            rng: crate::input::SplitMix::new(seed),
            think: SimDuration::from_micros(s.think_us),
            start: SimDuration::from_micros(start),
            book: Arc::clone(book),
            meter: Arc::clone(meter),
        }));
    }
}

fn populate_churn(
    app: &mut Plasma,
    c: &ChurnInput,
    book: &SharedBook,
    meter: &Arc<Meter>,
    rep: &mut Rep,
) {
    let rt = app.runtime_mut();
    let servers: Vec<ServerId> = (0..c.servers)
        .map(|_| rt.add_server(InstanceType::m1_small()))
        .collect();
    let mut spawn = |rt: &mut Runtime, ty: &str, logic: Box<dyn ActorLogic>, size, home| {
        let t = Instant::now();
        let id = rt.spawn_actor(ty, logic, size, home);
        rep.spawn_ns += ns_since(t);
        rep.spawn_calls += 1;
        id
    };
    let routers: Vec<ActorId> = (0..c.routers as usize)
        .map(|i| {
            let logic = apps::Router {
                work: c.router_work,
                meter: Arc::clone(meter),
            };
            spawn(
                rt,
                "Router",
                Box::new(logic),
                32 << 10,
                servers[i % servers.len()],
            )
        })
        .collect();
    let sessions: Vec<ActorId> = (0..c.sessions as usize)
        .map(|i| {
            let logic = apps::Session {
                meter: Arc::clone(meter),
            };
            spawn(
                rt,
                "Session",
                Box::new(logic),
                128 << 10,
                servers[i % servers.len()],
            )
        })
        .collect();
    for (index, plan) in c.consoles.iter().enumerate() {
        rt.add_client(Box::new(apps::Console::new(
            index,
            sessions[plan.session as usize],
            routers[plan.router as usize],
            plan,
            Arc::clone(book),
            Arc::clone(meter),
        )));
    }
}

fn read_window(app: &Plasma, rep: &mut Rep) {
    let active = app.runtime().cluster().active_count() as u64;
    rep.server_s += (active * WINDOW_S) as f64;
    rep.peak_servers = rep.peak_servers.max(active);
}

fn read_horizon(app: &Plasma, rep: &mut Rep) {
    let rt = app.runtime();
    let report = rt.report();
    let c = &mut rep.counters;
    for (k, v) in &report.scalars {
        c.insert(k.clone(), *v);
    }
    let mut put = |k: &str, v: f64| {
        c.insert(k.to_string(), v);
    };
    put("actor.local_messages", report.local_messages as f64);
    put("actor.remote_messages", report.remote_messages as f64);
    put("actor.forwarded_messages", report.forwarded_messages as f64);
    put("actor.dropped_messages", report.dropped_messages as f64);
    put("actor.requests", report.requests as f64);
    put("actor.replies", report.replies as f64);
    put("actor.migrations", report.migrations.len() as f64);
    put("actor.snapshot_builds", rt.snapshot_builds() as f64);
    put(
        "cluster.servers_created",
        rt.cluster().all_servers().len() as f64,
    );
    let b = rt.backend_stats();
    put("backend.frames_sent", b.frames_sent as f64);
    put("backend.wire_bytes_sent", b.wire_bytes_sent as f64);
    put("backend.max_inflight_frames", b.max_inflight_frames as f64);
    put("backend.control_wire_bytes", b.control_wire_bytes as f64);
    put("backend.channel_us_mean", b.channel_latency_us_mean());
    put("backend.workers_spawned", b.workers_spawned as f64);
    put("backend.windows_closed", b.windows_closed as f64);
    put("backend.rounds", b.rounds as f64);
    put("backend.window_mismatches", b.window_mismatches as f64);
    rep.decision_digest = report.decision_digest();
    rep.decisions = report.decisions.len() as u64;
}
