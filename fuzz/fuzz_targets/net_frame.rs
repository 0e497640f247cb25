//! Fuzz target: no byte stream may panic the wire-frame decoder.
//!
//! Feeds arbitrary bytes to `plasma-net`'s frame decoder two ways — the
//! whole buffer through `decode_prefix`, and byte-by-byte through a
//! [`FrameBuffer`] (the torn-read reassembly path the coordinator and
//! workers actually use) — and checks three properties:
//!
//! 1. **No panic**: every input decodes to frames or a clean `DecodeError`.
//! 2. **Round-trip stability**: any frame the decoder accepts re-encodes to
//!    exactly the bytes it was decoded from (strict decode means no
//!    tolerated trailing garbage, so `encode(decode(b)) == b` on the
//!    consumed prefix).
//! 3. **Reassembly equivalence**: the frames recovered from byte-at-a-time
//!    feeding match the frames recovered from the whole buffer, up to the
//!    first error.
//!
//! Same self-contained driver shape as `epl_compile` / `fault_plan`: a
//! splitmix64-seeded mutator over a checked-in seed corpus, reproducible
//! from the printed seed. Usage:
//!
//! ```text
//! net_frame [iterations] [seed]
//! net_frame gen-corpus      # (re)write the seed corpus and exit
//! ```
//!
//! Defaults: 20000 iterations (each one a decode pass over a mutated
//! stream), seed 0x4652 (ASCII "FR"). A panic anywhere aborts the process
//! with a non-zero exit, which is the failure signal CI keys on.

use std::path::PathBuf;

use plasma_backend::{
    ControlDecision, ControlQuery, ControlReply, Delivery, Execution, MigrationOrder, ServerReport,
    WindowCounters,
};
use plasma_net::{Frame, FrameBuffer, WIRE_VERSION};

/// Decodes `bytes` as a whole-buffer frame stream: the exact frames, then
/// whether the stream ended in an error (vs. an incomplete tail).
fn decode_whole(bytes: &[u8]) -> (Vec<Frame>, bool) {
    let mut frames = Vec::new();
    let mut rest = bytes;
    loop {
        match Frame::decode_prefix(rest) {
            Ok(Some((frame, consumed))) => {
                // Property 2: strict decode means byte-exact re-encode.
                let reenc = frame.encode_vec();
                assert_eq!(
                    reenc,
                    &rest[..consumed],
                    "frame {frame:?} did not round-trip its own bytes"
                );
                frames.push(frame);
                rest = &rest[consumed..];
            }
            Ok(None) => return (frames, false),
            Err(_) => return (frames, true),
        }
    }
}

/// One fuzz execution over one byte stream.
fn run_one(bytes: &[u8]) {
    let (whole, whole_errored) = decode_whole(bytes);

    // Property 3: byte-at-a-time reassembly sees the same frames.
    let mut fb = FrameBuffer::new();
    let mut torn = Vec::new();
    let mut torn_errored = false;
    'feed: for &b in bytes {
        fb.extend(std::slice::from_ref(&b));
        loop {
            match fb.next() {
                Ok(Some(frame)) => torn.push(frame),
                Ok(None) => break,
                Err(_) => {
                    torn_errored = true;
                    break 'feed;
                }
            }
        }
    }
    assert_eq!(whole, torn, "torn reassembly diverged from whole-buffer");
    assert_eq!(whole_errored, torn_errored, "error position diverged");
}

/// Writes the seed corpus: one valid frame of every kind concatenated into
/// a conversation-shaped stream, plus deliberately-broken variants that
/// seed the mutator near the error paths.
fn gen_corpus(dir: &PathBuf) {
    std::fs::create_dir_all(dir).expect("create corpus dir");
    let counters = WindowCounters {
        deliveries: 10,
        executions: 9,
        busy_ns: 9_000,
        latency_ns_total: 10_000,
        latency_ns_max: 5_000,
        latency_samples: 2,
        reports: 2,
        queries: 1,
        replies: 1,
        decisions: 1,
    };
    let report = ServerReport {
        server: 1,
        vcpus: 4,
        actor_count: 12,
        mem_bytes: 1 << 30,
        total_speed_bits: 4.0f64.to_bits(),
        net_bps_bits: 1e9f64.to_bits(),
        cpu_bits: 0.85f64.to_bits(),
        mem_bits: 0.4f64.to_bits(),
        net_bits: 0.1f64.to_bits(),
    };
    let conversation = [
        Frame::Hello {
            group: 1,
            wire_version: WIRE_VERSION,
        },
        Frame::ServerUp {
            server: 0,
            vcpus: 2,
        },
        Frame::ServerUp {
            server: 1,
            vcpus: 4,
        },
        Frame::Deliver {
            delivery: Delivery {
                server: 0,
                actor: 7,
                bytes: 64,
                remote: false,
            },
            delay_ns: 0,
        },
        Frame::Deliver {
            delivery: Delivery {
                server: 1,
                actor: 8,
                bytes: 128,
                remote: true,
            },
            delay_ns: 5_000,
        },
        Frame::Execute {
            execution: Execution {
                server: 1,
                actor: 8,
                service_ns: 1_000,
            },
        },
        Frame::Report {
            generation: 3,
            report,
        },
        Frame::WindowMark { generation: 3 },
        Frame::WindowAck {
            generation: 3,
            counters,
        },
        Frame::Query {
            query: ControlQuery {
                gem: 0,
                round: 2,
                generation: 3,
                scope: vec![0, 1],
            },
        },
        Frame::QReply {
            reply: ControlReply {
                gem: 0,
                round: 2,
                generation: 3,
                candidates: vec![report],
            },
        },
        Frame::Decision {
            decision: ControlDecision {
                round: 2,
                grow: 1,
                shrink: 0,
                migrations: vec![MigrationOrder {
                    actor: 7,
                    src: 0,
                    dst: 1,
                }],
            },
        },
        Frame::ServerDown { server: 1 },
        Frame::ServerRetired {
            server: 1,
            counters,
        },
        Frame::RoundMark { round: 2 },
        Frame::RoundAck { round: 2 },
        Frame::Shutdown,
    ];
    let mut stream = Vec::new();
    for f in &conversation {
        f.encode(&mut stream);
    }
    std::fs::write(dir.join("conversation.bin"), &stream).expect("write seed");

    // A truncated frame (torn mid-payload).
    let deliver = conversation[3].encode_vec();
    std::fs::write(dir.join("torn.bin"), &deliver[..deliver.len() - 3]).expect("write seed");

    // A bad version byte, then a valid frame that must never be reached.
    let mut bad_version = conversation[7].encode_vec();
    bad_version[4] = 0x7F;
    bad_version.extend_from_slice(&conversation[16].encode_vec());
    std::fs::write(dir.join("bad-version.bin"), &bad_version).expect("write seed");

    // An oversize length prefix.
    let mut oversize = Vec::new();
    oversize.extend_from_slice(&(1u32 << 20).to_be_bytes());
    oversize.extend_from_slice(&[1, 2, 3, 4]);
    std::fs::write(dir.join("oversize.bin"), &oversize).expect("write seed");

    // A length prefix announcing more payload than the kind carries.
    let mut trailing = conversation[16].encode_vec(); // Shutdown: len=2
    trailing[3] = 6; // claim 4 extra payload bytes
    trailing.extend_from_slice(&[0, 0, 0, 0]);
    std::fs::write(dir.join("trailing.bin"), &trailing).expect("write seed");

    // A Hello whose header version is current but whose negotiated
    // `wire_version` field disagrees — exercises the handshake-mismatch
    // path without tripping the frame decoder itself.
    let stale_hello = Frame::Hello {
        group: 0,
        wire_version: WIRE_VERSION.wrapping_sub(1),
    };
    std::fs::write(dir.join("stale-hello.bin"), stale_hello.encode_vec()).expect("write seed");

    println!("net_frame: corpus written to {}", dir.display());
}

/// Deterministic splitmix64 step.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform value in `0..n` (`n > 0`).
fn below(state: &mut u64, n: usize) -> usize {
    (mix(state) % n as u64) as usize
}

/// Applies 1–4 random mutations to `base`. Frames are length-prefixed
/// binary, so besides generic bit/byte damage the interesting mutations
/// re-slice streams at non-frame boundaries and corrupt the header bytes
/// (length, version, kind) specifically.
fn mutate(base: &[u8], seeds: &[Vec<u8>], state: &mut u64) -> Vec<u8> {
    let mut out = base.to_vec();
    for _ in 0..1 + below(state, 4) {
        match below(state, 6) {
            // Flip one bit.
            0 if !out.is_empty() => {
                let i = below(state, out.len());
                out[i] ^= 1 << below(state, 8);
            }
            // Overwrite one byte.
            1 if !out.is_empty() => {
                let i = below(state, out.len());
                out[i] = below(state, 256) as u8;
            }
            // Truncate at a random point (mid-frame cuts included).
            2 if !out.is_empty() => out.truncate(below(state, out.len())),
            // Corrupt an early byte — headers live at small offsets, so
            // this concentrates damage on length/version/kind fields.
            3 if !out.is_empty() => {
                let i = below(state, out.len().min(6));
                out[i] = below(state, 256) as u8;
            }
            // Duplicate a random slice in place.
            4 if !out.is_empty() => {
                let a = below(state, out.len());
                let b = a + below(state, out.len() - a);
                let dup: Vec<u8> = out[a..b].to_vec();
                let at = below(state, out.len() + 1);
                out.splice(at..at, dup);
            }
            // Splice a random tail of another seed onto a random prefix.
            _ => {
                let other = &seeds[below(state, seeds.len())];
                let cut = below(state, out.len() + 1);
                let from = below(state, other.len() + 1);
                out.truncate(cut);
                out.extend_from_slice(&other[from..]);
            }
        }
        if out.len() > 1 << 12 {
            out.truncate(1 << 12);
        }
    }
    out
}

fn main() {
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus/net_frame");
    let mut argv = std::env::args().skip(1);
    let first = argv.next();
    if first.as_deref() == Some("gen-corpus") {
        gen_corpus(&corpus);
        return;
    }
    let iterations: u64 = first
        .map(|a| a.parse().expect("iterations must be a number"))
        .unwrap_or(20_000);
    let mut state: u64 = argv
        .next()
        .map(|a| a.parse().expect("seed must be a number"))
        .unwrap_or(0x4652);
    println!("net_frame: {iterations} iterations, seed {state:#x}");

    let mut entries: Vec<PathBuf> = std::fs::read_dir(&corpus)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", corpus.display()))
        .map(|e| e.expect("readable corpus entry").path())
        .collect();
    entries.sort();
    let seeds: Vec<Vec<u8>> = entries
        .iter()
        .map(|p| std::fs::read(p).expect("readable corpus file"))
        .collect();
    assert!(!seeds.is_empty(), "seed corpus is empty");

    for (path, seed) in entries.iter().zip(&seeds) {
        run_one(seed);
        println!("  seed ok: {}", path.file_name().unwrap().to_string_lossy());
    }
    for i in 0..iterations {
        let base = &seeds[below(&mut state, seeds.len())];
        let input = mutate(base, &seeds, &mut state);
        run_one(&input);
        if (i + 1) % 5000 == 0 {
            println!("  {} iterations...", i + 1);
        }
    }
    println!(
        "net_frame: ok ({} seeds, {iterations} mutations)",
        seeds.len()
    );
}
