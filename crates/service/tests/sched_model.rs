//! Model-checked interleaving tests for the service's sync sites.
//!
//! Run with `cargo test -p reqisc-service --features sched-model --test
//! sched_model`. Every test body builds its shared state *inside* the
//! closure handed to the explorer, uses only the shim primitives from
//! [`reqisc_service::sync`] / [`reqisc_sched::thread`], and is
//! deterministic — the three rules that make a recorded failure
//! schedule replayable.
//!
//! The models mirror `service.rs`: one inflight lock guarding the
//! waiter map and the `done_seq` counter, one bounded solve queue, and
//! the solve workers. They pin the conservation laws across **all**
//! bounded interleavings of small configs, not just the ones a lucky
//! wall-clock run happens to hit:
//!
//! * a queue push wakes a blocked pop (no lost `Condvar` wakeup —
//!   `queue_push_wakes_blocked_pop` is the seeded-violation target of
//!   the CI `sched-check` smoke, which deletes `try_push`'s
//!   `notify_one` and expects a deadlock report with a schedule);
//! * a same-key admission racing last-waiter-out cancellation and a
//!   solve worker conserves the job (`admitted == delivered +
//!   cancelled`, and the surviving waiter hears exactly once);
//! * two coalesced waiters racing last-waiter-out cancel exactly once;
//! * shutdown racing admission and an in-flight solve drains balanced;
//! * a warm delivery racing a solve completion reaches the waiters in
//!   strictly increasing `done_seq` order — and the explorer catches
//!   the twin that assigns `done_seq` outside the inflight lock.

#![cfg(feature = "sched-model")]

use reqisc_sched::thread::spawn;
use reqisc_sched::{check, explore, replay, ModelConfig};
use reqisc_service::sync::atomic::{AtomicU64, Ordering};
use reqisc_service::sync::{LockRecover, Mutex};
use reqisc_service::{JobQueue, DEFAULT_PRIORITY};
use std::sync::Arc;

/// `JobQueue::try_push` must wake a consumer blocked in `pop`. This is
/// the lost-wakeup sentinel: the seeded CI smoke removes the
/// `notify_one` from `try_push` and this model — which deliberately
/// never calls `close()`, whose `notify_all` would mask the bug —
/// must then deadlock with a replayable schedule.
#[test]
fn queue_push_wakes_blocked_pop() {
    check("queue_push_wakes_blocked_pop", ModelConfig::default(), || {
        let q = Arc::new(JobQueue::<u32>::new(2));
        let qc = q.clone();
        let consumer = spawn(move || qc.pop());
        q.try_push(7, DEFAULT_PRIORITY).expect("queue has room");
        let got = consumer.join().expect("consumer ran to completion");
        assert_eq!(got, Some(7), "blocked pop observed the pushed job");
    });
}

/// The inflight state of one compile key, as `service.rs` keeps it:
/// the waiter ids registered for the queued/running job (`None` = no
/// job in flight), the global `done_seq`, and the responses each waiter
/// received, as `(waiter, done_seq)` pairs in arrival order.
#[derive(Default)]
struct Inflight {
    waiters: Option<Vec<u64>>,
    done_seq: u64,
    received: Vec<(u64, u64)>,
}

impl Inflight {
    /// `Inner::deliver`: with the lock held, assign the next `done_seq`
    /// and send it to every waiter.
    fn deliver(&mut self, waiters: &[u64]) {
        self.done_seq += 1;
        for &w in waiters {
            self.received.push((w, self.done_seq));
        }
    }
}

/// A same-key resubmission (`submit_compile`) racing the last waiter's
/// cancel (`WaiterGuard::drop`) while a solve worker drains the queue.
/// Admission either coalesces onto the job or — once the cancel removed
/// the key — misses the (cold) warm tiers and queues a fresh job, all
/// inside one inflight critical section; the cancel removes the waiter
/// and the queue entry under the same lock. In every interleaving each
/// admitted job ends exactly one way (delivered or cancelled), the
/// resubmitted waiter hears exactly once, and the queue ends empty.
#[test]
fn admission_probe_vs_cancel_conserves_the_job() {
    check("admission_probe_vs_cancel", ModelConfig::default(), || {
        let solve = Arc::new(JobQueue::<u32>::new(2));
        let inflight = Arc::new(Mutex::new(Inflight {
            waiters: Some(vec![1]),
            ..Inflight::default()
        }));
        let (admitted, delivered, cancelled) =
            (Arc::new(AtomicU64::new(1)), Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        solve.try_push(1, DEFAULT_PRIORITY).expect("queue has room");

        let (q, infl, del) = (solve.clone(), inflight.clone(), delivered.clone());
        let worker = spawn(move || {
            // Mirrors solve_loop: claim, solve unlocked, deliver locked.
            while q.pop().is_some() {
                let mut st = infl.lock_recover();
                let waiters = st.waiters.take().unwrap_or_default();
                st.deliver(&waiters);
                drop(st);
                del.fetch_add(1, Ordering::Relaxed);
            }
        });

        let (q, infl, can) = (solve.clone(), inflight.clone(), cancelled.clone());
        let cancel = spawn(move || {
            let mut st = infl.lock_recover();
            if let Some(list) = st.waiters.as_mut() {
                list.retain(|&w| w != 1);
                if list.is_empty() {
                    st.waiters = None;
                    if q.remove_first(|_| true) {
                        can.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            drop(st);
        });

        let (q, infl, adm) = (solve.clone(), inflight.clone(), admitted.clone());
        let admit = spawn(move || {
            let mut st = infl.lock_recover();
            match st.waiters.as_mut() {
                Some(list) => list.push(2),
                // The probe misses (the key was never solved), so the
                // job queues and registers in the same critical section.
                None => {
                    q.try_push(2, DEFAULT_PRIORITY).expect("queue has room");
                    st.waiters = Some(vec![2]);
                    adm.fetch_add(1, Ordering::Relaxed);
                }
            }
            drop(st);
        });

        cancel.join().expect("cancel ran to completion");
        admit.join().expect("admission ran to completion");
        solve.close();
        worker.join().expect("worker drained the queue");

        assert_eq!(
            delivered.load(Ordering::Relaxed) + cancelled.load(Ordering::Relaxed),
            admitted.load(Ordering::Relaxed),
            "an admitted job was lost or ended twice"
        );
        let st = inflight.lock_recover();
        let heard = st.received.iter().filter(|(w, _)| *w == 2).count();
        assert_eq!(heard, 1, "the resubmitted waiter must hear exactly once");
        assert!(st.waiters.is_none(), "no waiter is left registered");
        assert!(solve.is_empty(), "the queue retains no job");
    });
}

/// Two coalesced waiters racing `WaiterGuard::drop`: whichever leaves
/// last — under the inflight lock — does the queue removal and the
/// `cancelled` increment, and does each exactly once in every
/// interleaving.
#[test]
fn coalesced_waiters_cancel_exactly_once() {
    check("coalesced_waiters_last_out", ModelConfig::default(), || {
        let solve = Arc::new(JobQueue::<u32>::new(2));
        // The inflight map's waiter list for the one shared key.
        let waiters = Arc::new(Mutex::new(vec![1u64, 2u64]));
        let cancelled = Arc::new(AtomicU64::new(0));
        solve.try_push(1, DEFAULT_PRIORITY).expect("queue has room");

        let handles: Vec<_> = [1u64, 2u64]
            .into_iter()
            .map(|me| {
                let (q, waiters, cancelled) = (solve.clone(), waiters.clone(), cancelled.clone());
                spawn(move || {
                    let mut list = waiters.lock_recover();
                    list.retain(|id| *id != me);
                    if list.is_empty() && q.remove_first(|_| true) {
                        cancelled.fetch_add(1, Ordering::Relaxed);
                    }
                    drop(list);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("waiter drop ran to completion");
        }
        assert_eq!(
            cancelled.load(Ordering::Relaxed),
            1,
            "exactly one waiter performs the cancellation"
        );
        assert!(solve.is_empty(), "the job left the queue exactly once");
    });
}

/// Shutdown racing admission and an in-flight solve: `Service::shutdown`
/// closes the solve queue while a submission may still be pushing and
/// the worker is mid-solve. In every interleaving the push either lands
/// before the close (and is delivered) or is rejected, every accepted
/// job is delivered, and the queue drains balanced (`enqueued ==
/// dequeued`).
#[test]
fn shutdown_with_inflight_solve_drains_balanced() {
    check("shutdown_drains_balanced", ModelConfig::default(), || {
        let solve = Arc::new(JobQueue::<u32>::new(4));
        let inflight = Arc::new(Mutex::new(Inflight::default()));
        let accepted = Arc::new(AtomicU64::new(1));
        solve.try_push(0, DEFAULT_PRIORITY).expect("queue has room");

        let (q, infl) = (solve.clone(), inflight.clone());
        let worker = spawn(move || {
            while let Some(job) = q.pop() {
                infl.lock_recover().deliver(&[u64::from(job)]);
            }
        });

        let (q, acc) = (solve.clone(), accepted.clone());
        let admit = spawn(move || {
            if q.try_push(1, DEFAULT_PRIORITY).is_ok() {
                acc.fetch_add(1, Ordering::Relaxed);
            }
        });

        solve.close();
        admit.join().expect("admission ran to completion");
        worker.join().expect("worker exited on close");

        let delivered = inflight.lock_recover().done_seq;
        assert_eq!(delivered, accepted.load(Ordering::Relaxed), "delivered == accepted");
        let stats = solve.ring_stats();
        assert_eq!(stats.enqueued, stats.dequeued, "solve queue drained balanced at shutdown");
    });
}

/// One warm delivery (at admission) and one solve completion racing to
/// the same connection. Both deliver through `Inner::deliver` with the
/// inflight lock held, so responses reach the waiter in strictly
/// increasing `done_seq` order in every interleaving.
#[test]
fn concurrent_deliveries_arrive_in_done_seq_order() {
    check("deliveries_in_done_seq_order", ModelConfig::default(), || {
        let inflight = Arc::new(Mutex::new(Inflight::default()));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let infl = inflight.clone();
                spawn(move || infl.lock_recover().deliver(&[1]))
            })
            .collect();
        for h in handles {
            h.join().expect("delivery ran to completion");
        }
        let st = inflight.lock_recover();
        let seqs: Vec<u64> = st.received.iter().map(|&(_, seq)| seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "done_seq out of delivery order: {seqs:?}");
    });
}

/// The same race with the bug the lock placement exists to prevent:
/// assigning `done_seq` from an atomic *before* taking the inflight
/// lock lets the later-numbered delivery overtake the earlier one. The
/// explorer must find that interleaving and hand back a deterministic,
/// replayable schedule.
#[test]
fn explorer_catches_done_seq_assigned_outside_the_lock() {
    let buggy = || {
        let done_seq = Arc::new(AtomicU64::new(0));
        let inflight = Arc::new(Mutex::new(Inflight::default()));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (seq, infl) = (done_seq.clone(), inflight.clone());
                spawn(move || {
                    let mine = seq.fetch_add(1, Ordering::Relaxed) + 1; // BUG: unlocked
                    infl.lock_recover().received.push((1, mine));
                })
            })
            .collect();
        for h in handles {
            h.join().expect("delivery ran to completion");
        }
        let st = inflight.lock_recover();
        let seqs: Vec<u64> = st.received.iter().map(|&(_, seq)| seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "done_seq out of delivery order: {seqs:?}");
    };

    let report = explore(ModelConfig::default(), buggy);
    let failure = report.failure.expect("the unlocked done_seq race must be found");
    assert!(
        failure.message.contains("done_seq out of delivery order"),
        "failure is the reordered delivery, got: {}",
        failure.message
    );
    assert!(!failure.trace.is_empty(), "failure carries the step trace");
    assert!(!failure.schedule.is_empty(), "failure carries a replay schedule");

    // The schedule is a deterministic reproducer, not a one-off.
    let again = replay(ModelConfig::default(), &failure.schedule, buggy);
    let refound = again.failure.expect("replaying the schedule reproduces the race");
    assert_eq!(refound.message, failure.message);
}

/// The shared-segment publish/probe protocol (`reqisc-shmem`), modeled
/// on shim atomics so the explorer covers every bounded interleaving:
/// the publisher writes the payload, Release-stores the commit word,
/// then claims the index slot (tag CAS, then Release offset store); the
/// prober walks the index with Acquire loads. The pinned laws: a probe
/// that reaches a record through the index **always** sees the commit
/// word and the payload (the Release/Acquire pair publishes both), and
/// a claimed-but-not-yet-linked slot (offset still 0) reads as a clean
/// miss, never as garbage.
#[test]
fn segment_probe_never_observes_uncommitted_payload() {
    check("shmem_publish_probe_commit_order", ModelConfig::default(), || {
        const COMMIT: u64 = 0x5251_0000_0000_0008;
        // One record (payload + commit word) and one index slot
        // (tag + offset), exactly the segment's per-entry atomics.
        let payload = Arc::new(AtomicU64::new(0));
        let commit = Arc::new(AtomicU64::new(0));
        let slot_tag = Arc::new(AtomicU64::new(0)); // 0 = SLOT_EMPTY
        let slot_off = Arc::new(AtomicU64::new(0)); // 0 = claim in flight

        let (pay_w, com_w, tag_w, off_w) =
            (payload.clone(), commit.clone(), slot_tag.clone(), slot_off.clone());
        let publisher = spawn(move || {
            // Segment::publish: plain payload writes, Release commit,
            // tag CAS claim, Release offset link — in that order.
            pay_w.store(42, Ordering::Relaxed);
            com_w.store(COMMIT, Ordering::Release);
            if tag_w.compare_exchange(0, 7, Ordering::AcqRel, Ordering::Relaxed).is_ok() {
                off_w.store(64, Ordering::Release);
            }
        });

        let probed = {
            let (pay_r, com_r, tag_r, off_r) =
                (payload.clone(), commit.clone(), slot_tag.clone(), slot_off.clone());
            let prober = spawn(move || {
                // Segment::probe: Acquire tag, Acquire offset; offset 0
                // = a claim in flight = a clean miss.
                if tag_r.load(Ordering::Acquire) != 7 {
                    return false;
                }
                let off = off_r.load(Ordering::Acquire);
                if off == 0 {
                    return false;
                }
                assert_eq!(off, 64, "linked offset is the published one");
                assert_eq!(
                    com_r.load(Ordering::Acquire),
                    COMMIT,
                    "an indexed record always shows its commit word"
                );
                assert_eq!(
                    pay_r.load(Ordering::Relaxed),
                    42,
                    "an indexed record always shows its payload"
                );
                true
            });
            prober.join().expect("prober ran to completion")
        };
        publisher.join().expect("publisher ran to completion");
        // After the publisher joined, the entry is definitely probeable.
        assert_eq!(slot_tag.load(Ordering::Acquire), 7);
        assert_eq!(slot_off.load(Ordering::Acquire), 64);
        let _ = probed; // any prober outcome (hit or in-flight miss) is legal mid-publish
    });
}

/// Two publishers racing the same key: the slot-tag CAS elects exactly
/// one winner in every interleaving, the loser reports `Duplicate`
/// without touching the slot, and the offset the index ends up holding
/// is the winner's own committed record — never a torn mix.
#[test]
fn segment_racing_publishers_elect_one_committed_winner() {
    check("shmem_racing_publishers", ModelConfig::default(), || {
        let commits = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let slot_tag = Arc::new(AtomicU64::new(0));
        let slot_off = Arc::new(AtomicU64::new(0));
        let wins = Arc::new(AtomicU64::new(0));

        let handles: Vec<_> = [0u64, 1u64]
            .into_iter()
            .map(|me| {
                let (commits, tag, off, wins) =
                    (commits.clone(), slot_tag.clone(), slot_off.clone(), wins.clone());
                spawn(move || {
                    // Each publisher appends its own record at a
                    // distinct offset (64 / 128), commits it…
                    commits[me as usize].store(1, Ordering::Release);
                    // …then tries to claim the shared slot.
                    if tag.compare_exchange(0, 7, Ordering::AcqRel, Ordering::Relaxed).is_ok() {
                        off.store(64 * (me + 1), Ordering::Release);
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                    // The loser's record stays unreachable log garbage —
                    // the first-writer-wins dedup contract.
                })
            })
            .collect();
        for h in handles {
            h.join().expect("publisher ran to completion");
        }

        assert_eq!(wins.load(Ordering::Relaxed), 1, "exactly one CAS winner");
        let off = slot_off.load(Ordering::Acquire);
        assert!(off == 64 || off == 128, "slot holds a whole winner offset, got {off}");
        let winner = (off / 64 - 1) as usize;
        assert_eq!(
            commits[winner].load(Ordering::Acquire),
            1,
            "the indexed record is the committed one"
        );
    });
}
