//! Wall-clock benchmark of PLASMA, driven from outside through the public
//! `plasma` facade. See `NOTES.md` beside this crate for the workloads,
//! the metrics and which layer each belongs to.

pub mod apps;
pub mod bench;
pub mod calib;
pub mod input;
pub mod meter;
pub mod rep;
pub mod stats;
pub mod timed_emr;
