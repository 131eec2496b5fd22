//! The repo's benchmark of record: four workloads, eight end-to-end
//! metrics with regression bounds, and a per-layer trace — all taken
//! from outside the engines, through the crates' public functions.
//! `README.md` in this directory is the catalogue; `BENCHMARK.json` at
//! the repo root is the contract later changes are held to.

pub mod catalog;
pub mod data;
pub mod diff;
pub mod inproc;
pub mod jsonin;
pub mod layers;
pub mod report;
pub mod schedule;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod verify;
