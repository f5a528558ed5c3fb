//! Normal-build personality: std threads, unwrapped.

pub use std::thread::{
    available_parallelism, current, panicking, scope, sleep, spawn, yield_now, JoinHandle, Result, Scope,
    ScopedJoinHandle,
};
