//! Self-tests for the model checker: each detector catches its bug
//! class, and correct protocols explore cleanly to completion.
#![cfg(feature = "model-check")]

use std::sync::atomic::Ordering;

use shim_sync::cell::RaceCell;
use shim_sync::model::{check, Config, FailureKind, Strategy};
use shim_sync::sync::atomic::AtomicUsize;
use shim_sync::sync::{Arc, Condvar, Mutex};
use shim_sync::thread;

#[test]
fn mutex_counter_explores_multiple_schedules_cleanly() {
    let report = check("mutex_counter", &Config::default(), || {
        let n = Arc::new(Mutex::new(0usize));
        thread::scope(|s| {
            for _ in 0..2 {
                let n = n.clone();
                s.spawn(move || {
                    let mut g = n.lock().expect("lock");
                    *g += 1;
                });
            }
        });
        assert_eq!(*n.lock().expect("lock"), 2);
    });
    report.assert_complete();
    assert!(report.iterations > 1, "two racing lockers must yield several schedules");
}

#[test]
fn unsynchronized_writes_are_reported_as_a_race() {
    let report = check("racecell_ww", &Config::default(), || {
        let cell = Arc::new(RaceCell::new(0usize));
        thread::scope(|s| {
            for i in 0..2 {
                let cell = cell.clone();
                s.spawn(move || cell.set(i));
            }
        });
    });
    let failure = report.expect_failure("two unsynchronized writers always race");
    assert_eq!(failure.kind, FailureKind::Race, "got: {failure:?}");
}

#[test]
fn lock_protected_writes_do_not_race() {
    let report = check("racecell_locked", &Config::default(), || {
        let cell = Arc::new(RaceCell::new(0usize));
        let lock = Arc::new(Mutex::new(()));
        thread::scope(|s| {
            for _ in 0..2 {
                let cell = cell.clone();
                let lock = lock.clone();
                s.spawn(move || {
                    let _g = lock.lock().expect("lock");
                    let v = cell.get();
                    cell.set(v + 1);
                });
            }
        });
        assert_eq!(cell.get(), 2);
    });
    report.assert_complete();
}

#[test]
fn release_acquire_atomics_publish_data() {
    // Message-passing via a release store / acquire load: the reader
    // only touches the cell after observing the flag, so the atomic's
    // happens-before edge must make the accesses ordered.
    let report = check("atomic_publish", &Config::default(), || {
        let data = Arc::new(RaceCell::new(0usize));
        let flag = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            let d = data.clone();
            let f = flag.clone();
            s.spawn(move || {
                d.set(42);
                f.store(1, Ordering::Release);
            });
            let d = data.clone();
            let f = flag.clone();
            s.spawn(move || {
                if f.load(Ordering::Acquire) == 1 {
                    assert_eq!(d.get(), 42);
                }
            });
        });
    });
    report.assert_complete();
}

#[test]
fn ab_ba_locking_is_reported() {
    let report = check("ab_ba", &Config::default(), || {
        let a = Arc::new(Mutex::labeled("lock.a", ()));
        let b = Arc::new(Mutex::labeled("lock.b", ()));
        thread::scope(|s| {
            let (a1, b1) = (a.clone(), b.clone());
            s.spawn(move || {
                let _ga = a1.lock().expect("a");
                let _gb = b1.lock().expect("b");
            });
            let (a2, b2) = (a.clone(), b.clone());
            s.spawn(move || {
                let _gb = b2.lock().expect("b");
                let _ga = a2.lock().expect("a");
            });
        });
    });
    let failure = report.expect_failure("AB-BA ordering must be caught");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock | FailureKind::LockCycle),
        "got: {failure:?}"
    );
}

#[test]
fn lost_wakeup_is_reported() {
    // Classic bug: the producer notifies BEFORE publishing under the
    // lock. A schedule exists where the waiter wakes on the early
    // notify, rechecks, sees nothing, and re-parks — after which the
    // publication happens with no further signal.
    let report = check("lost_wakeup", &Config::default(), || {
        let slot = Arc::new((Mutex::labeled("slot.state", false), Condvar::labeled("slot.cv")));
        thread::scope(|s| {
            let waiter = slot.clone();
            s.spawn(move || {
                let (lock, cv) = &*waiter;
                let mut ready = lock.lock().expect("lock");
                while !*ready {
                    ready = cv.wait(ready).expect("wait");
                }
            });
            let producer = slot.clone();
            s.spawn(move || {
                let (lock, cv) = &*producer;
                cv.notify_all(); // BUG: signal precedes the publication
                *lock.lock().expect("lock") = true;
            });
        });
    });
    let failure = report.expect_failure("notify-before-publish must lose a wakeup");
    assert_eq!(failure.kind, FailureKind::LostWakeup, "got: {failure:?}");
}

#[test]
fn correct_condvar_handoff_is_clean() {
    let report = check("condvar_handoff", &Config::default(), || {
        let slot = Arc::new((Mutex::labeled("slot.state", false), Condvar::labeled("slot.cv")));
        thread::scope(|s| {
            let waiter = slot.clone();
            s.spawn(move || {
                let (lock, cv) = &*waiter;
                let mut ready = lock.lock().expect("lock");
                while !*ready {
                    ready = cv.wait(ready).expect("wait");
                }
            });
            let producer = slot.clone();
            s.spawn(move || {
                let (lock, cv) = &*producer;
                *lock.lock().expect("lock") = true;
                cv.notify_all();
            });
        });
    });
    report.assert_complete();
}

#[test]
fn unbounded_spin_hits_the_step_bound() {
    let cfg = Config {
        max_steps: 500,
        ..Config::default()
    };
    let report = check("spin", &cfg, || {
        let flag = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            let f = flag.clone();
            s.spawn(move || {
                // Spin-wait with no partner ever setting the flag.
                while f.load(Ordering::Acquire) == 0 {
                    thread::yield_now();
                }
            });
        });
    });
    let failure = report.expect_failure("a pure spin must exceed the step budget");
    assert_eq!(failure.kind, FailureKind::StepBound, "got: {failure:?}");
}

#[test]
fn channel_send_is_a_happens_before_edge() {
    use shim_sync::sync::mpsc;
    let report = check("chan_hb", &Config::default(), || {
        let cell = Arc::new(RaceCell::new(0usize));
        let (tx, rx) = mpsc::channel::<usize>();
        thread::scope(|s| {
            let c = cell.clone();
            s.spawn(move || {
                c.set(7);
                tx.send(1).expect("send");
            });
            let c = cell.clone();
            s.spawn(move || {
                let _ = rx.recv().expect("recv");
                assert_eq!(c.get(), 7);
            });
        });
    });
    report.assert_complete();
}

#[test]
fn try_recv_is_a_scheduling_point_and_a_happens_before_edge() {
    use shim_sync::sync::mpsc::{self, TryRecvError};
    // Counted across schedules (outside the model): both outcomes of the
    // single `try_recv` must be explored, and a received value must order
    // the sender's write before the receiver's read.
    let got = std::sync::atomic::AtomicUsize::new(0);
    let empty = std::sync::atomic::AtomicUsize::new(0);
    let report = check("chan_try_recv_hb", &Config::default(), || {
        let cell = Arc::new(RaceCell::new(0usize));
        let (tx, rx) = mpsc::channel::<usize>();
        thread::scope(|s| {
            let c = cell.clone();
            s.spawn(move || {
                c.set(7);
                // The receiver may have polled and hung up already.
                let _ = tx.send(1);
            });
            let c = cell.clone();
            let (got, empty) = (&got, &empty);
            s.spawn(move || match rx.try_recv() {
                Ok(1) => {
                    assert_eq!(c.get(), 7);
                    got.fetch_add(1, Ordering::SeqCst);
                }
                Ok(v) => panic!("unexpected message {v}"),
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => {
                    empty.fetch_add(1, Ordering::SeqCst);
                }
            });
        });
    });
    report.assert_complete();
    assert!(got.load(Ordering::SeqCst) > 0, "some schedule must deliver the message");
    assert!(
        empty.load(Ordering::SeqCst) > 0,
        "some schedule must poll before the send"
    );
}

#[test]
fn an_empty_try_recv_orders_nothing() {
    use shim_sync::sync::mpsc;
    // Reading the cell whatever `try_recv` returned: the schedules where
    // it came back empty leave the write unordered with the read.
    let report = check("chan_try_recv_no_edge", &Config::default(), || {
        let cell = Arc::new(RaceCell::new(0usize));
        let (tx, rx) = mpsc::channel::<usize>();
        thread::scope(|s| {
            let c = cell.clone();
            s.spawn(move || {
                c.set(7);
                let _ = tx.send(1);
            });
            let c = cell.clone();
            s.spawn(move || {
                let _ = rx.try_recv();
                let _ = c.get();
            });
        });
    });
    let failure = report.expect_failure("a read after an empty poll races the write");
    assert_eq!(failure.kind, FailureKind::Race, "got: {failure:?}");
}

#[test]
fn try_recv_drains_before_reporting_disconnect() {
    use shim_sync::sync::mpsc::{self, TryRecvError};
    let report = check("chan_try_recv_disconnect", &Config::default(), || {
        let (tx, rx) = mpsc::channel::<usize>();
        thread::spawn(move || tx.send(3).expect("send")).join().expect("sender");
        assert_eq!(rx.try_recv(), Ok(3), "a message sent before hangup is delivered");
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    });
    report.assert_complete();
}

#[test]
fn fixture_assertions_surface_as_panic_failures() {
    let report = check("assert_fail", &Config::default(), || {
        let n = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            let n1 = n.clone();
            s.spawn(move || {
                // Non-atomic increment: load, then store. Some schedule
                // loses an update and the final assert fires.
                let v = n1.load(Ordering::SeqCst);
                n1.store(v + 1, Ordering::SeqCst);
            });
            let n2 = n.clone();
            s.spawn(move || {
                let v = n2.load(Ordering::SeqCst);
                n2.store(v + 1, Ordering::SeqCst);
            });
        });
        assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
    });
    let failure = report.expect_failure("the lost-update schedule must be found");
    assert_eq!(failure.kind, FailureKind::Panic, "got: {failure:?}");
}

#[test]
fn random_walk_finds_the_same_race() {
    let cfg = Config {
        strategy: Strategy::Random { seed: 7 },
        max_iterations: 200,
        ..Config::default()
    };
    let report = check("racecell_random", &cfg, || {
        let cell = Arc::new(RaceCell::new(0usize));
        thread::scope(|s| {
            for i in 0..2 {
                let cell = cell.clone();
                s.spawn(move || cell.set(i));
            }
        });
    });
    let failure = report.expect_failure("random walk must hit the race quickly");
    assert_eq!(failure.kind, FailureKind::Race);
    assert!(!report.complete, "random walks never claim completeness");
}

#[test]
fn outside_an_execution_the_types_forward_to_std() {
    // Plain threads + shim primitives without check(): std behavior.
    let n = Arc::new(Mutex::new(0usize));
    let (tx, rx) = shim_sync::sync::mpsc::channel::<usize>();
    thread::scope(|s| {
        for i in 0..4 {
            let n = n.clone();
            let tx = tx.clone();
            s.spawn(move || {
                *n.lock().expect("lock") += 1;
                tx.send(i).expect("send");
            });
        }
    });
    drop(tx);
    assert_eq!(*n.lock().expect("lock"), 4);
    let mut got: Vec<usize> = rx.into_iter().collect();
    got.sort_unstable();
    assert_eq!(got, vec![0, 1, 2, 3]);
}
