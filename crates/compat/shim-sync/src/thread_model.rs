//! Model-check personality for `std::thread`: spawned threads register
//! with the active execution and run under the cooperative scheduler;
//! joins are model-level blocking operations. Without an active
//! execution everything forwards to std.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex as StdMutex, PoisonError};
use std::time::Duration;

// Model threads run on real OS threads, so `current()` identifies them
// as it does outside an execution.
pub use std::thread::{available_parallelism, current, panicking, Result};

use crate::model::{ctx, thread_body};

/// Model-aware `std::thread::spawn`. Inside an execution the child
/// becomes a model thread; it MUST be joined before the checked closure
/// returns (use scopes, or keep the handle).
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    match ctx() {
        None => JoinHandle {
            inner: std::thread::spawn(f),
            model: None,
        },
        Some(c) => {
            let tid = c.exec.spawn_thread(c.tid);
            let exec = c.exec.clone();
            JoinHandle {
                inner: std::thread::spawn(move || thread_body(exec, tid, f)),
                model: Some(tid),
            }
        }
    }
}

/// Model-aware join handle.
pub struct JoinHandle<T> {
    inner: std::thread::JoinHandle<T>,
    model: Option<usize>,
}

impl<T> JoinHandle<T> {
    /// Waits for the thread (a model blocking point when applicable).
    pub fn join(self) -> Result<T> {
        if let Some(target) = self.model {
            if let Some(c) = ctx() {
                c.exec.join_thread(c.tid, target);
            }
        }
        self.inner.join()
    }

    /// Whether the thread has finished.
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

struct ScopeModel {
    pending: StdMutex<Vec<usize>>,
}

/// Model-aware `std::thread::Scope`.
pub struct Scope<'scope, 'env: 'scope> {
    std: &'scope std::thread::Scope<'scope, 'env>,
    model: Option<ScopeModel>,
}

/// Model-aware scoped join handle.
pub struct ScopedJoinHandle<'scope, T> {
    inner: std::thread::ScopedJoinHandle<'scope, T>,
    model: Option<usize>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a scoped thread (registered with the execution when one
    /// is active).
    pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        match &self.model {
            None => ScopedJoinHandle {
                inner: self.std.spawn(f),
                model: None,
            },
            Some(m) => {
                let c = ctx().expect("scope.spawn called from a model thread");
                let tid = c.exec.spawn_thread(c.tid);
                m.pending.lock().unwrap_or_else(PoisonError::into_inner).push(tid);
                let exec = c.exec.clone();
                ScopedJoinHandle {
                    inner: self.std.spawn(move || thread_body(exec, tid, f)),
                    model: Some(tid),
                }
            }
        }
    }
}

impl<T> ScopedJoinHandle<'_, T> {
    /// Waits for the thread (idempotent at the model level — the scope
    /// end will model-join it again harmlessly).
    pub fn join(self) -> Result<T> {
        if let Some(target) = self.model {
            if let Some(c) = ctx() {
                c.exec.join_thread(c.tid, target);
            }
        }
        self.inner.join()
    }

    /// Whether the thread has finished.
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

/// Model-aware `std::thread::scope`. On the model path every spawned
/// thread is model-joined before the std scope's implicit join — even
/// when the closure unwinds — so the scope owner can never hold the
/// scheduling token while parked in a real (non-model) join.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
{
    match ctx() {
        None => std::thread::scope(|s| f(&Scope { std: s, model: None })),
        Some(c) => std::thread::scope(|s| {
            let sc = Scope {
                std: s,
                model: Some(ScopeModel {
                    pending: StdMutex::new(Vec::new()),
                }),
            };
            let result = panic::catch_unwind(AssertUnwindSafe(|| f(&sc)));
            let pending: Vec<usize> = {
                let model = sc.model.as_ref().expect("model scope");
                let mut p = model.pending.lock().unwrap_or_else(PoisonError::into_inner);
                p.drain(..).collect()
            };
            let mut join_panic = None;
            for tid in pending {
                if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| c.exec.join_thread(c.tid, tid))) {
                    // Aborted schedule: remaining threads unwind on
                    // their own; the std scope join below collects them.
                    join_panic = Some(p);
                    break;
                }
            }
            match result {
                Ok(v) => {
                    if let Some(p) = join_panic {
                        panic::resume_unwind(p);
                    }
                    v
                }
                Err(p) => panic::resume_unwind(p),
            }
        }),
    }
}

/// Model-aware `yield_now`: a pure preemption point inside an execution.
pub fn yield_now() {
    match ctx() {
        Some(c) => c.exec.yield_op(c.tid),
        None => std::thread::yield_now(),
    }
}

/// Model-aware `sleep`: modeled time does not exist, so inside an
/// execution this is just a preemption point.
pub fn sleep(dur: Duration) {
    match ctx() {
        Some(c) => {
            let _ = dur;
            c.exec.yield_op(c.tid);
        }
        None => std::thread::sleep(dur),
    }
}
