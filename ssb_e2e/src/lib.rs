//! End-to-end SSB benchmark of the HEF engine: the 13 SSB queries at
//! SF 1, planned and executed one at a time by a single closed-loop
//! client, over three storage layouts (see `README.md`). Layers are timed
//! from outside, around the benchmark's own calls into the engine's
//! public functions.

pub mod measure;
pub mod probes;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;
