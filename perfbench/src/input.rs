//! Seeded workload inputs.
//!
//! Everything random about a workload is drawn here, from the `--seed`
//! argument, before the program under test is built: the program receives
//! only the generated actors, clients and policy. The same seed gives
//! byte-identical inputs ([`Input::to_bytes`]), which [`Input::digest`]
//! condenses for printing next to each result.

use std::fmt;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning, for checking a claimed gain on unseen inputs.
pub const HELD_OUT_SEED: u64 = 7919;

/// The carrier a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Carrier {
    /// The audit-only simulated carrier.
    Sim,
    /// One worker thread per server.
    Live,
    /// `plasma-server` processes over localhost TCP.
    Net,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// E-Store skew on the sim carrier.
    SkewSim,
    /// The same skew inputs on the net carrier.
    SkewNet,
    /// The same skew inputs on the live carrier.
    SkewLive,
    /// Halo-style join/leave churn with auto-scaling, on the sim carrier.
    ChurnSim,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SkewSim,
        Workload::SkewNet,
        Workload::SkewLive,
        Workload::ChurnSim,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SkewSim => "skew-sim",
            Workload::SkewNet => "skew-net",
            Workload::SkewLive => "skew-live",
            Workload::ChurnSim => "churn-sim",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The carrier the workload measures.
    pub fn carrier(self) -> Carrier {
        match self {
            Workload::SkewSim | Workload::ChurnSim => Carrier::Sim,
            Workload::SkewNet => Carrier::Net,
            Workload::SkewLive => Carrier::Live,
        }
    }
}

/// Splitmix64: the benchmark's own generator, so that inputs do not change
/// when the program's RNG does.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// E-Store skew: root partitions with children, read by closed-loop clients
/// whose target roots follow a cascade distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct SkewInput {
    /// Root partitions.
    pub roots: u32,
    /// Children per root.
    pub children_per_root: u32,
    /// Servers the roots are spread over.
    pub servers: u32,
    /// Extra empty servers the EMR may move partitions to.
    pub spare_servers: u32,
    /// Cascade skew: root rank i gets this share of the traffic left after
    /// ranks `0..i`.
    pub skew: f64,
    /// Client think time between a reply and the next request.
    pub think_us: u64,
    /// CPU work of a root read, in m1.small seconds.
    pub root_work: f64,
    /// CPU work of a child read.
    pub child_work: f64,
    /// Elasticity period in simulated seconds.
    pub period_s: u64,
    /// Simulated horizon in seconds.
    pub horizon_s: u64,
    /// Seed of the program's own RNG.
    pub runtime_seed: u64,
    /// The root ranks in spawn order (a seeded permutation, so actor ids
    /// and EMR tie-breaks differ between seeds while the load per server
    /// does not).
    pub spawn_order: Vec<u32>,
    /// Per-client RNG seed for drawing roots.
    pub client_seeds: Vec<u64>,
    /// Per-client start offset, so clients do not fire in lockstep.
    pub client_start_us: Vec<u64>,
}

/// One console of the churn workload: it joins its session, heartbeats
/// through a router a few times, and leaves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsolePlan {
    /// Index of the session it joins.
    pub session: u32,
    /// Index of the router its heartbeat goes through.
    pub router: u32,
    /// When it joins.
    pub join_us: u64,
    /// Time from the join to the first heartbeat, and between heartbeats.
    pub beat_us: u64,
    /// Heartbeats before it leaves.
    pub beats: u32,
    /// Size of each of its requests.
    pub bytes: u32,
}

/// Halo-style churn: consoles join sessions (spawning players), heartbeat
/// through CPU-heavy routers, and leave (despawning players).
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnInput {
    /// Router actors.
    pub routers: u32,
    /// Session actors.
    pub sessions: u32,
    /// Servers at start.
    pub servers: u32,
    /// Cluster ceiling for scale-out.
    pub max_servers: u32,
    /// CPU work of a router heartbeat (decryption).
    pub router_work: f64,
    /// Elasticity period in simulated seconds.
    pub period_s: u64,
    /// Simulated horizon in seconds.
    pub horizon_s: u64,
    /// Seed of the program's own RNG.
    pub runtime_seed: u64,
    /// The consoles.
    pub consoles: Vec<ConsolePlan>,
}

/// The generated inputs of one workload.
#[derive(Clone, Debug, PartialEq)]
pub enum Input {
    /// Inputs of the skew workloads.
    Skew(SkewInput),
    /// Inputs of the churn workload.
    Churn(ChurnInput),
}

/// Width of a profiling window, and of one `run_until` step, in seconds.
pub const WINDOW_S: u64 = 5;

/// Requests issued in the last `CUTOFF_S` simulated seconds may still be
/// unanswered at the horizon without counting as failed.
pub const CUTOFF_S: u64 = 5;

impl Input {
    /// Generates the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Input {
        // The carrier does not enter the generator: skew-net and skew-live
        // get exactly skew-sim's inputs.
        match workload {
            Workload::SkewSim | Workload::SkewNet | Workload::SkewLive => Input::Skew(skew(seed)),
            Workload::ChurnSim => Input::Churn(churn(seed)),
        }
    }

    /// The EPL policy the workload runs under.
    pub fn policy(&self) -> &'static str {
        match self {
            Input::Skew(_) => plasma_apps::estore::policy(),
            Input::Churn(_) => plasma_apps::halo::resource_policy(),
        }
    }

    /// Elasticity period in simulated seconds.
    pub fn period_s(&self) -> u64 {
        match self {
            Input::Skew(s) => s.period_s,
            Input::Churn(c) => c.period_s,
        }
    }

    /// Simulated horizon in seconds.
    pub fn horizon_s(&self) -> u64 {
        match self {
            Input::Skew(s) => s.horizon_s,
            Input::Churn(c) => c.horizon_s,
        }
    }

    /// Actors spawned at setup.
    pub fn actors(&self) -> u64 {
        match self {
            Input::Skew(s) => u64::from(s.roots) * (1 + u64::from(s.children_per_root)),
            Input::Churn(c) => u64::from(c.routers + c.sessions),
        }
    }

    /// Clients added at setup.
    pub fn clients(&self) -> u64 {
        match self {
            Input::Skew(s) => s.client_seeds.len() as u64,
            Input::Churn(c) => c.consoles.len() as u64,
        }
    }

    /// A canonical byte encoding of every input field and the policy text.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut put = |v: u64| out.extend_from_slice(&v.to_le_bytes());
        match self {
            Input::Skew(s) => {
                put(1);
                for v in [
                    u64::from(s.roots),
                    u64::from(s.children_per_root),
                    u64::from(s.servers),
                    u64::from(s.spare_servers),
                    s.skew.to_bits(),
                    s.think_us,
                    s.root_work.to_bits(),
                    s.child_work.to_bits(),
                    s.period_s,
                    s.horizon_s,
                    s.runtime_seed,
                ] {
                    put(v);
                }
                s.spawn_order.iter().for_each(|&r| put(u64::from(r)));
                s.client_seeds.iter().for_each(|&v| put(v));
                s.client_start_us.iter().for_each(|&v| put(v));
            }
            Input::Churn(c) => {
                put(2);
                for v in [
                    u64::from(c.routers),
                    u64::from(c.sessions),
                    u64::from(c.servers),
                    u64::from(c.max_servers),
                    c.router_work.to_bits(),
                    c.period_s,
                    c.horizon_s,
                    c.runtime_seed,
                ] {
                    put(v);
                }
                for p in &c.consoles {
                    for v in [
                        u64::from(p.session),
                        u64::from(p.router),
                        p.join_us,
                        p.beat_us,
                        u64::from(p.beats),
                        u64::from(p.bytes),
                    ] {
                        put(v);
                    }
                }
            }
        }
        out.extend_from_slice(self.policy().as_bytes());
        out
    }

    /// FNV-1a over [`Input::to_bytes`].
    pub fn digest(&self) -> u64 {
        fnv1a(&self.to_bytes())
    }
}

/// One-line description of an input's shape.
pub struct Shape<'a>(pub &'a Input);

impl fmt::Display for Shape<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let i = self.0;
        write!(
            f,
            "actors={} clients={} horizon_s={} period_s={} input_digest={:016x}",
            i.actors(),
            i.clients(),
            i.horizon_s(),
            i.period_s(),
            i.digest()
        )
    }
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn skew(seed: u64) -> SkewInput {
    let mut rng = SplitMix::new(seed ^ 0x534B_4557);
    let roots = 160u32;
    let clients = 192usize;
    let think_us = 50_000;
    let mut spawn_order: Vec<u32> = (0..roots).collect();
    for i in (1..spawn_order.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        spawn_order.swap(i, j);
    }
    let runtime_seed = rng.next_u64();
    let client_seeds = (0..clients).map(|_| rng.next_u64()).collect();
    let client_start_us = (0..clients).map(|_| rng.below(think_us)).collect();
    SkewInput {
        roots,
        children_per_root: 4,
        servers: 4,
        spare_servers: 1,
        skew: 0.35,
        think_us,
        root_work: 0.0018,
        child_work: 0.0012,
        period_s: 30,
        horizon_s: 600,
        runtime_seed,
        spawn_order,
        client_seeds,
        client_start_us,
    }
}

fn churn(seed: u64) -> ChurnInput {
    let mut rng = SplitMix::new(seed ^ 0x4348_5552);
    let routers = 16u32;
    let sessions = 64u32;
    let horizon_s = 600u64;
    // Joins follow a triangle over the first half of the horizon, and each
    // console stays two to three minutes (four heartbeats 30 to 45 s
    // apart): load climbs past the scale-out band, then drains below the
    // scale-in band before the horizon. Players are many and heartbeats
    // rare, so planning weighs almost as much as the rest of the runtime.
    let ramp_us = horizon_s * 500_000;
    let runtime_seed = rng.next_u64();
    let consoles = (0..12_000)
        .map(|_| {
            let tri = (rng.next_f64() + rng.next_f64()) / 2.0;
            ConsolePlan {
                session: rng.below(u64::from(sessions)) as u32,
                router: rng.below(u64::from(routers)) as u32,
                join_us: (tri * ramp_us as f64) as u64,
                beat_us: 30_000_000 + rng.below(15_000_000),
                beats: 4,
                bytes: 128 + rng.below(16_384) as u32,
            }
        })
        .collect();
    ChurnInput {
        routers,
        sessions,
        servers: 4,
        max_servers: 12,
        router_work: 0.0125,
        period_s: 5,
        horizon_s,
        runtime_seed,
        consoles,
    }
}
