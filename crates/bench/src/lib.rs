//! Benchmark harness and experiment drivers.
//!
//! The paper is a theory paper without empirical tables; every
//! experiment here turns one of its theorems into a measurable artifact.
//! [`suite::CLAIMS`] lists them, one row per claim, and `exp_all` prints
//! their tables; docs/DESIGN.md §4 maps each id to the claim it checks.

pub mod checkpoint_suite;
pub mod engine_suite;
pub mod suite;
pub mod tables;
