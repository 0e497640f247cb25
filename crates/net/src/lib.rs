#![warn(missing_docs)]

//! Multi-process TCP execution backend for the PLASMA runtime.
//!
//! `plasma-net` is the third rung of the backend ladder. The backend crate
//! proves the carrier abstraction with an in-queue adapter (sim) and an
//! OS-thread carrier (live); this crate carries the same surface across
//! real *process* boundaries: every [`Delivery`](plasma_backend::Delivery)
//! and [`Execution`](plasma_backend::Execution) is serialized onto a
//! versioned, length-prefixed binary wire format and shipped over
//! localhost TCP to `plasma-server` worker processes — one process per
//! server group — which account the carriage and answer window/round
//! barriers over the same FIFO connection.
//!
//! The layering mirrors the paper's separation of mechanism from policy:
//! elasticity decisions are made once, by the deterministic coordinator,
//! and are *carried* by whichever medium the run selects. Because nothing
//! a carrier returns may steer scheduling, a same-seed scenario produces
//! byte-identical normalized BENCH JSON and an identical timestamp-free
//! `decision_digest` under sim, live, and net — the three-way parity the
//! `net-parity` CI job gates.
//!
//! Crate layout:
//!
//! - [`frame`] — the wire format: `len:u32be` framing, version byte,
//!   message kinds, strict decode, and [`FrameBuffer`] reassembly over
//!   torn reads. Field-level codecs for the carriage types live in
//!   `plasma_backend::wire` so the types and their encoding stay together.
//! - [`worker`] — the `plasma-server` loop: decodes frames into calls on a
//!   `plasma_backend::Lem` (the same worker-side LEM the thread backend
//!   runs) and writes barrier acks and query replies back. The binary
//!   itself is a thin wrapper over [`worker::run`].
//! - [`NetBackend`] — the coordinator side: spawns and addresses workers,
//!   multiplexes frames over per-group connections, and checks each
//!   window against a `plasma_backend::Tally`, exactly as the thread
//!   backend does.

pub mod frame;
pub mod worker;

mod backend;

pub use backend::{locate_worker, NetBackend, NetConfig};
pub use frame::{Frame, FrameBuffer, MAX_FRAME_LEN, WIRE_VERSION};
