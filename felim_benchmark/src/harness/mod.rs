//! The benchmark harness: workloads, repetition runner, tracing,
//! capture-replay and the comparison rule.

pub mod cell;
pub mod compare;
pub mod daemon;
pub mod fig6;
pub mod metrics;
pub mod proxy;
pub mod reference;
pub mod replay;
pub mod report;
pub mod runner;
pub mod serve;
pub mod stats;
pub mod tracer;
pub mod workloads;
