//! Model-check personality: the same `std::sync` surface, but every
//! operation is a scheduling point of the active
//! [`crate::model`] execution. Outside an execution (no thread-local
//! context) every type forwards straight to the std primitive it wraps,
//! so ordinary tests behave normally even with the feature enabled.
//!
//! The exclusivity trick that keeps this crate `unsafe`-free: data
//! lives inside a real std primitive, and the *model* lock guarantees
//! at most one model thread holds it, so the inner `try_lock` always
//! succeeds (poison aside) — the std primitive provides storage and
//! `Send`/`Sync` soundness, the model provides the schedule.

use std::sync::Condvar as StdCondvar;
use std::sync::Mutex as StdMutex;
use std::sync::MutexGuard as StdMutexGuard;
use std::sync::OnceLock as StdOnceLock;
use std::sync::RwLock as StdRwLock;
use std::sync::RwLockReadGuard as StdRwLockReadGuard;
use std::sync::RwLockWriteGuard as StdRwLockWriteGuard;

pub use std::sync::{Arc, LockResult, PoisonError, TryLockError, TryLockResult, WaitTimeoutResult, Weak};

use crate::model::{ctx, Ctx, Handle};

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Model-aware `std::sync::Mutex`.
pub struct Mutex<T> {
    label: &'static str,
    handle: Handle,
    inner: StdMutex<T>,
}

/// Guard for [`Mutex`]; releases the model lock on drop.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
    model: Option<Ctx>,
}

impl<T> Mutex<T> {
    /// Creates a mutex (model label `"Mutex"`).
    pub const fn new(value: T) -> Mutex<T> {
        Mutex::labeled("Mutex", value)
    }

    /// Creates a mutex with a diagnostic label for model reports.
    pub const fn labeled(label: &'static str, value: T) -> Mutex<T> {
        Mutex {
            label,
            handle: Handle::new(),
            inner: StdMutex::new(value),
        }
    }

    /// Acquires the lock (a scheduling point under model check).
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        if let Some(c) = ctx() {
            c.exec.lock(c.tid, &self.handle, self.label);
            self.relock(Some(c))
        } else {
            match self.inner.lock() {
                Ok(g) => Ok(MutexGuard {
                    lock: self,
                    inner: Some(g),
                    model: None,
                }),
                Err(p) => Err(PoisonError::new(MutexGuard {
                    lock: self,
                    inner: Some(p.into_inner()),
                    model: None,
                })),
            }
        }
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }

    /// Mutable access without locking (requires `&mut`).
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }

    /// Re-take the inner std lock after the model granted exclusivity.
    /// `WouldBlock` is only reachable in teardown (an aborted schedule
    /// unwinding several threads at once); block on the real lock then.
    fn relock(&self, model: Option<Ctx>) -> LockResult<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Ok(MutexGuard {
                lock: self,
                inner: Some(g),
                model,
            }),
            Err(TryLockError::Poisoned(p)) => Err(PoisonError::new(MutexGuard {
                lock: self,
                inner: Some(p.into_inner()),
                model,
            })),
            Err(TryLockError::WouldBlock) => match self.inner.lock() {
                Ok(g) => Ok(MutexGuard {
                    lock: self,
                    inner: Some(g),
                    model,
                }),
                Err(p) => Err(PoisonError::new(MutexGuard {
                    lock: self,
                    inner: Some(p.into_inner()),
                    model,
                })),
            },
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

impl<'a, T> std::ops::Deref for MutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the std lock")
    }
}

impl<'a, T> std::ops::DerefMut for MutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the std lock")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the std lock before the model marks the mutex free,
        // so the next model holder's try_lock succeeds.
        self.inner = None;
        if let Some(c) = self.model.take() {
            c.exec.unlock(c.tid, &self.lock.handle, self.lock.label);
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Model-aware `std::sync::Condvar`.
pub struct Condvar {
    label: &'static str,
    handle: Handle,
    inner: StdCondvar,
}

impl Condvar {
    /// Creates a condvar (model label `"Condvar"`).
    pub const fn new() -> Condvar {
        Condvar::labeled("Condvar")
    }

    /// Creates a condvar with a diagnostic label for model reports.
    pub const fn labeled(label: &'static str) -> Condvar {
        Condvar {
            label,
            handle: Handle::new(),
            inner: StdCondvar::new(),
        }
    }

    /// Blocks on the condvar, releasing (and on wake reacquiring) the
    /// guard's mutex. Under model check the park/wake is a scheduler
    /// event; a schedule where every live thread parks here is reported
    /// as a lost wakeup.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let lock = guard.lock;
        let mut guard = guard;
        let model = guard.model.take();
        let inner = guard.inner.take();
        std::mem::forget(guard);
        match model {
            None => {
                let std_guard = inner.expect("guard holds the std lock");
                match self.inner.wait(std_guard) {
                    Ok(g) => Ok(MutexGuard {
                        lock,
                        inner: Some(g),
                        model: None,
                    }),
                    Err(p) => Err(PoisonError::new(MutexGuard {
                        lock,
                        inner: Some(p.into_inner()),
                        model: None,
                    })),
                }
            }
            Some(c) => {
                drop(inner);
                c.exec
                    .condvar_wait(c.tid, &self.handle, self.label, &lock.handle, lock.label);
                lock.relock(Some(c))
            }
        }
    }

    /// Wakes one waiter (deterministically the longest-waiting one
    /// under model check).
    pub fn notify_one(&self) {
        if let Some(c) = ctx() {
            c.exec.condvar_notify(c.tid, &self.handle, self.label, false);
        }
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        if let Some(c) = ctx() {
            c.exec.condvar_notify(c.tid, &self.handle, self.label, true);
        }
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// Model-aware `std::sync::RwLock`.
pub struct RwLock<T> {
    label: &'static str,
    handle: Handle,
    inner: StdRwLock<T>,
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T> {
    lock: &'a RwLock<T>,
    inner: Option<StdRwLockReadGuard<'a, T>>,
    model: Option<Ctx>,
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T> {
    lock: &'a RwLock<T>,
    inner: Option<StdRwLockWriteGuard<'a, T>>,
    model: Option<Ctx>,
}

impl<T> RwLock<T> {
    /// Creates an rwlock (model label `"RwLock"`).
    pub const fn new(value: T) -> RwLock<T> {
        RwLock::labeled("RwLock", value)
    }

    /// Creates an rwlock with a diagnostic label for model reports.
    pub const fn labeled(label: &'static str, value: T) -> RwLock<T> {
        RwLock {
            label,
            handle: Handle::new(),
            inner: StdRwLock::new(value),
        }
    }

    /// Acquires a shared lock.
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        if let Some(c) = ctx() {
            c.exec.lock_shared(c.tid, &self.handle, self.label);
            match self.inner.try_read() {
                Ok(g) => Ok(RwLockReadGuard {
                    lock: self,
                    inner: Some(g),
                    model: Some(c),
                }),
                Err(TryLockError::Poisoned(p)) => Err(PoisonError::new(RwLockReadGuard {
                    lock: self,
                    inner: Some(p.into_inner()),
                    model: Some(c),
                })),
                Err(TryLockError::WouldBlock) => match self.inner.read() {
                    Ok(g) => Ok(RwLockReadGuard {
                        lock: self,
                        inner: Some(g),
                        model: Some(c),
                    }),
                    Err(p) => Err(PoisonError::new(RwLockReadGuard {
                        lock: self,
                        inner: Some(p.into_inner()),
                        model: Some(c),
                    })),
                },
            }
        } else {
            match self.inner.read() {
                Ok(g) => Ok(RwLockReadGuard {
                    lock: self,
                    inner: Some(g),
                    model: None,
                }),
                Err(p) => Err(PoisonError::new(RwLockReadGuard {
                    lock: self,
                    inner: Some(p.into_inner()),
                    model: None,
                })),
            }
        }
    }

    /// Acquires the exclusive lock.
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        if let Some(c) = ctx() {
            c.exec.lock(c.tid, &self.handle, self.label);
            match self.inner.try_write() {
                Ok(g) => Ok(RwLockWriteGuard {
                    lock: self,
                    inner: Some(g),
                    model: Some(c),
                }),
                Err(TryLockError::Poisoned(p)) => Err(PoisonError::new(RwLockWriteGuard {
                    lock: self,
                    inner: Some(p.into_inner()),
                    model: Some(c),
                })),
                Err(TryLockError::WouldBlock) => match self.inner.write() {
                    Ok(g) => Ok(RwLockWriteGuard {
                        lock: self,
                        inner: Some(g),
                        model: Some(c),
                    }),
                    Err(p) => Err(PoisonError::new(RwLockWriteGuard {
                        lock: self,
                        inner: Some(p.into_inner()),
                        model: Some(c),
                    })),
                },
            }
        } else {
            match self.inner.write() {
                Ok(g) => Ok(RwLockWriteGuard {
                    lock: self,
                    inner: Some(g),
                    model: None,
                }),
                Err(p) => Err(PoisonError::new(RwLockWriteGuard {
                    lock: self,
                    inner: Some(p.into_inner()),
                    model: None,
                })),
            }
        }
    }

    /// Consumes the rwlock, returning the value.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }

    /// Mutable access without locking (requires `&mut`).
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwLock")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

impl<'a, T> std::ops::Deref for RwLockReadGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the std lock")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        if let Some(c) = self.model.take() {
            c.exec.unlock_shared(c.tid, &self.lock.handle, self.lock.label);
        }
    }
}

impl<'a, T> std::ops::Deref for RwLockWriteGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the std lock")
    }
}

impl<'a, T> std::ops::DerefMut for RwLockWriteGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the std lock")
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        if let Some(c) = self.model.take() {
            c.exec.unlock(c.tid, &self.lock.handle, self.lock.label);
        }
    }
}

// ---------------------------------------------------------------------------
// OnceLock
// ---------------------------------------------------------------------------

/// Model-aware `std::sync::OnceLock`. Initialization runs in an
/// exclusive model section on the cell's handle; observers take an
/// acquire happens-before edge from the publication.
pub struct OnceLock<T> {
    handle: Handle,
    inner: StdOnceLock<T>,
}

impl<T> OnceLock<T> {
    /// Creates an empty cell.
    pub const fn new() -> OnceLock<T> {
        OnceLock {
            handle: Handle::new(),
            inner: StdOnceLock::new(),
        }
    }

    /// The value, if initialized (acquire edge under model check).
    pub fn get(&self) -> Option<&T> {
        if let Some(c) = ctx() {
            c.exec.atomic_op(c.tid, &self.handle, "OnceLock", true, false);
        }
        self.inner.get()
    }

    /// Sets the value if empty.
    pub fn set(&self, value: T) -> Result<(), T> {
        if let Some(c) = ctx() {
            c.exec.lock(c.tid, &self.handle, "OnceLock");
            let result = self.inner.set(value);
            c.exec.unlock(c.tid, &self.handle, "OnceLock");
            result
        } else {
            self.inner.set(value)
        }
    }

    /// Gets the value, initializing it with `f` if empty. Under model
    /// check the winner runs `f` inside an exclusive section and its
    /// publication happens-before every later observation.
    pub fn get_or_init<F: FnOnce() -> T>(&self, f: F) -> &T {
        if let Some(c) = ctx() {
            c.exec.atomic_op(c.tid, &self.handle, "OnceLock", true, false);
            if let Some(v) = self.inner.get() {
                return v;
            }
            c.exec.lock(c.tid, &self.handle, "OnceLock");
            let v = self.inner.get_or_init(f);
            c.exec.unlock(c.tid, &self.handle, "OnceLock");
            v
        } else {
            self.inner.get_or_init(f)
        }
    }

    /// Consumes the cell, returning the value.
    pub fn into_inner(self) -> Option<T> {
        self.inner.into_inner()
    }
}

impl<T> Default for OnceLock<T> {
    fn default() -> OnceLock<T> {
        OnceLock::new()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OnceLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("OnceLock").field(&self.inner.get()).finish()
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Model-aware atomics. Value semantics come from the wrapped std
/// atomic (always `SeqCst` internally — schedules, not hardware
/// reorderings, are the state space being explored); the declared
/// `Ordering` of each call decides which happens-before clock edges the
/// model records (acquire joins, release publishes).
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use crate::model::ctx;
    use crate::model::Handle;

    fn is_acquire(o: Ordering) -> bool {
        matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
    }

    fn is_release(o: Ordering) -> bool {
        matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
    }

    macro_rules! int_atomic {
        ($Name:ident, $Std:ident, $prim:ty) => {
            /// Model-aware atomic integer.
            pub struct $Name {
                handle: Handle,
                inner: std::sync::atomic::$Std,
            }

            impl $Name {
                /// Creates a new atomic.
                pub const fn new(v: $prim) -> $Name {
                    $Name {
                        handle: Handle::new(),
                        inner: std::sync::atomic::$Std::new(v),
                    }
                }

                fn op(&self, acquire: bool, release: bool) {
                    if let Some(c) = ctx() {
                        c.exec
                            .atomic_op(c.tid, &self.handle, stringify!($Name), acquire, release);
                    }
                }

                /// Atomic load.
                pub fn load(&self, order: Ordering) -> $prim {
                    self.op(is_acquire(order), false);
                    self.inner.load(Ordering::SeqCst)
                }

                /// Atomic store.
                pub fn store(&self, v: $prim, order: Ordering) {
                    self.op(false, is_release(order));
                    self.inner.store(v, Ordering::SeqCst);
                }

                /// Atomic swap.
                pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                    self.op(is_acquire(order), is_release(order));
                    self.inner.swap(v, Ordering::SeqCst)
                }

                /// Atomic add, returning the previous value.
                pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                    self.op(is_acquire(order), is_release(order));
                    self.inner.fetch_add(v, Ordering::SeqCst)
                }

                /// Atomic subtract, returning the previous value.
                pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                    self.op(is_acquire(order), is_release(order));
                    self.inner.fetch_sub(v, Ordering::SeqCst)
                }

                /// Atomic max, returning the previous value.
                pub fn fetch_max(&self, v: $prim, order: Ordering) -> $prim {
                    self.op(is_acquire(order), is_release(order));
                    self.inner.fetch_max(v, Ordering::SeqCst)
                }

                /// Atomic min, returning the previous value.
                pub fn fetch_min(&self, v: $prim, order: Ordering) -> $prim {
                    self.op(is_acquire(order), is_release(order));
                    self.inner.fetch_min(v, Ordering::SeqCst)
                }

                /// Atomic compare-and-exchange.
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    self.op(is_acquire(success) || is_acquire(failure), is_release(success));
                    self.inner
                        .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
                }

                /// Consumes the atomic, returning the value.
                pub fn into_inner(self) -> $prim {
                    self.inner.into_inner()
                }
            }

            impl Default for $Name {
                fn default() -> $Name {
                    $Name::new(0)
                }
            }

            impl std::fmt::Debug for $Name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    std::fmt::Debug::fmt(&self.inner, f)
                }
            }
        };
    }

    int_atomic!(AtomicUsize, AtomicUsize, usize);
    int_atomic!(AtomicU64, AtomicU64, u64);
    int_atomic!(AtomicU32, AtomicU32, u32);
    int_atomic!(AtomicI64, AtomicI64, i64);

    /// Model-aware `AtomicBool`.
    pub struct AtomicBool {
        handle: Handle,
        inner: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// Creates a new atomic bool.
        pub const fn new(v: bool) -> AtomicBool {
            AtomicBool {
                handle: Handle::new(),
                inner: std::sync::atomic::AtomicBool::new(v),
            }
        }

        fn op(&self, acquire: bool, release: bool) {
            if let Some(c) = ctx() {
                c.exec.atomic_op(c.tid, &self.handle, "AtomicBool", acquire, release);
            }
        }

        /// Atomic load.
        pub fn load(&self, order: Ordering) -> bool {
            self.op(is_acquire(order), false);
            self.inner.load(Ordering::SeqCst)
        }

        /// Atomic store.
        pub fn store(&self, v: bool, order: Ordering) {
            self.op(false, is_release(order));
            self.inner.store(v, Ordering::SeqCst);
        }

        /// Atomic swap.
        pub fn swap(&self, v: bool, order: Ordering) -> bool {
            self.op(is_acquire(order), is_release(order));
            self.inner.swap(v, Ordering::SeqCst)
        }

        /// Consumes the atomic, returning the value.
        pub fn into_inner(self) -> bool {
            self.inner.into_inner()
        }
    }

    impl Default for AtomicBool {
        fn default() -> AtomicBool {
            AtomicBool::new(false)
        }
    }

    impl std::fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            std::fmt::Debug::fmt(&self.inner, f)
        }
    }
}

// ---------------------------------------------------------------------------
// mpsc
// ---------------------------------------------------------------------------

/// Model-aware `std::sync::mpsc` (the subset the engine uses: unbounded
/// `channel`, `send`, blocking `recv`, non-blocking `try_recv`,
/// iteration, disconnect errors).
/// Messages carry the sender's vector clock, so send → receive is a
/// happens-before edge.
pub mod mpsc {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, PoisonError};

    pub use std::sync::mpsc::{RecvError, SendError, TryRecvError};

    use crate::model::{ctx, Handle, VClock};

    struct Chan<T> {
        handle: Handle,
        queue: StdMutex<VecDeque<(T, VClock)>>,
        ready: StdCondvar,
        senders: AtomicUsize,
        rx_gone: AtomicBool,
    }

    /// Sending half.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// Receiving half.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Creates an unbounded channel.
    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            handle: Handle::new(),
            queue: StdMutex::new(VecDeque::new()),
            ready: StdCondvar::new(),
            senders: AtomicUsize::new(1),
            rx_gone: AtomicBool::new(false),
        });
        (Sender { chan: chan.clone() }, Receiver { chan })
    }

    impl<T> Sender<T> {
        /// Sends a value; `Err` if the receiver was dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.chan.rx_gone.load(Ordering::SeqCst) {
                return Err(SendError(value));
            }
            let clock = if let Some(c) = ctx() {
                c.exec.chan_send(c.tid, &self.chan.handle, "mpsc")
            } else {
                VClock::default()
            };
            self.chan
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back((value, clock));
            self.chan.ready.notify_all();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.chan.senders.fetch_add(1, Ordering::SeqCst);
            Sender {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.chan.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                if let Some(c) = ctx() {
                    c.exec.chan_hangup(&self.chan.handle, "mpsc");
                }
                self.chan.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks for the next value; `Err` once every sender is gone
        /// and the queue is drained.
        pub fn recv(&self) -> Result<T, RecvError> {
            if let Some(c) = ctx() {
                let chan = &self.chan;
                c.exec
                    .chan_recv(
                        c.tid,
                        &chan.handle,
                        "mpsc",
                        || chan.queue.lock().unwrap_or_else(PoisonError::into_inner).pop_front(),
                        || chan.senders.load(Ordering::SeqCst) == 0,
                    )
                    .map_err(|()| RecvError)
            } else {
                let mut queue = self.chan.queue.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    if let Some((value, _)) = queue.pop_front() {
                        return Ok(value);
                    }
                    if self.chan.senders.load(Ordering::SeqCst) == 0 {
                        return Err(RecvError);
                    }
                    queue = self.chan.ready.wait(queue).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }

        /// Takes the next value without blocking: `Empty` while senders
        /// remain, `Disconnected` once every sender is gone and the queue
        /// is drained. Inside an execution this is a scheduling point, and
        /// a received value carries the same send → receive
        /// happens-before edge as [`Receiver::recv`].
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let chan = &self.chan;
            let pop = || chan.queue.lock().unwrap_or_else(PoisonError::into_inner).pop_front();
            let disconnected = || chan.senders.load(Ordering::SeqCst) == 0;
            let got = match ctx() {
                Some(c) => c.exec.chan_try_recv(c.tid, "mpsc", pop),
                None => pop().map(|(value, _)| value),
            };
            match got {
                Some(value) => Ok(value),
                // Checked after the pop, as `recv` does: a message sent
                // just before the last sender hung up is still delivered.
                None if disconnected() => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocking iterator until disconnect.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.chan.rx_gone.store(true, Ordering::SeqCst);
        }
    }

    /// Borrowing iterator over received values.
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    /// Owning iterator over received values.
    pub struct IntoIter<T> {
        rx: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;
        fn into_iter(self) -> IntoIter<T> {
            IntoIter { rx: self }
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }
}
