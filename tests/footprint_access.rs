//! The footprint check behind `SharedSlice::read`/`write` inside a task body: a range that one
//! strong declared entry contains is checked without touching the heap, a range that only the
//! union of several entries covers is still accepted, and a weak or read-only cover is refused.
//!
//! The count is per thread (`common`'s allocator), so the pool's workers and the test
//! harness's other threads never disturb a measurement taken around one call inside one task
//! body.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use common::thread_allocations_in;
use weakdep::{Clauses, JobError, Runtime, SharedSlice, TaskCtx};

#[test]
fn a_covered_access_allocates_nothing() {
    let rt = Runtime::with_workers(2);
    let data = SharedSlice::<u64>::new(64);
    // One slot per measured call, `usize::MAX` until the body has measured it.
    let counts: Arc<[AtomicUsize; 5]> =
        Arc::new(std::array::from_fn(|_| AtomicUsize::new(usize::MAX)));
    let (d, c) = (data.clone(), Arc::clone(&counts));
    rt.run(move |root| {
        let d2 = d.clone();
        root.task()
            .input(d.region(0..16))
            .inout(d.region(32..64))
            .label("covered")
            .spawn(move |t| {
                let measured = [
                    thread_allocations_in(|| d2.read(t, 0..16).len()),
                    thread_allocations_in(|| d2.read(t, 4..8).len()),
                    thread_allocations_in(|| d2.read(t, 40..48).len()),
                    thread_allocations_in(|| d2.write(t, 32..64).len()),
                    thread_allocations_in(|| d2.write(t, 33..34).len()),
                ];
                for (slot, allocations) in c.iter().zip(measured) {
                    slot.store(allocations, SeqCst);
                }
            });
    });
    let counts: Vec<usize> = counts.iter().map(|slot| slot.load(SeqCst)).collect();
    assert_eq!(
        counts,
        vec![0; 5],
        "heap allocations per covered read/write call"
    );
}

#[test]
fn a_read_across_two_adjacent_strong_entries_is_covered() {
    let rt = Runtime::with_workers(2);
    let data = SharedSlice::<u64>::new(8);
    data.init_with(|i| i as u64);
    let sums = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
    let (d, s) = (data.clone(), Arc::clone(&sums));
    rt.run(move |root| {
        // `in` + `inout`: the modes differ, so normalisation keeps two entries and only their
        // union covers 0..8 — the union path of the check.
        let (d2, s2) = (d.clone(), Arc::clone(&s));
        root.task()
            .input(d.region(0..4))
            .inout(d.region(4..8))
            .label("straddle")
            .spawn(move |t| {
                s2[0].store(d2.read(t, 0..8).iter().sum::<u64>() as usize, SeqCst);
            });
        // Two adjacent `in` entries: normalisation coalesces them, one entry covers.
        let (d3, s3) = (d.clone(), Arc::clone(&s));
        root.task()
            .input(d.region(0..4))
            .input(d.region(4..8))
            .label("coalesced")
            .spawn(move |t| {
                s3[1].store(d3.read(t, 0..8).iter().sum::<u64>() as usize, SeqCst);
            });
    });
    assert_eq!(sums[0].load(SeqCst), 28);
    assert_eq!(sums[1].load(SeqCst), 28);
}

/// Runs one task, the only child of a `spawn_each` wave, declared by `declare` and whose body
/// calls `access`, and returns its panic message.
fn refused_access(
    declare: impl Fn(&mut Clauses, &SharedSlice<u64>) + Send + 'static,
    access: impl Fn(&TaskCtx<'_>, &SharedSlice<u64>) + Send + Sync + 'static,
) -> String {
    let rt = Runtime::with_workers(2);
    let data = SharedSlice::<u64>::new(8);
    let handle = rt.submit(move |root| {
        let d = data.clone();
        root.spawn_each(
            1,
            |_, c| {
                declare(c, &data);
                c.label("refused");
            },
            move |t, _| access(t, &d),
        );
    });
    match handle.wait_result() {
        Err(JobError::Panicked { message, .. }) => message,
        other => panic!("the access must be refused, got {other:?}"),
    }
}

#[test]
fn weak_and_read_only_covers_are_refused() {
    let weak_only = refused_access(
        |c, d| {
            c.weak_inout(d.region(0..8));
        },
        |t, d| {
            let _ = d.read(t, 0..8);
        },
    );
    assert!(
        weak_only.contains("without a covering strong dependency"),
        "{weak_only}"
    );

    let read_only = refused_access(
        |c, d| {
            c.input(d.region(0..8));
        },
        |t, d| {
            let _ = d.write(t, 0..8);
        },
    );
    assert!(
        read_only.contains("without a covering strong write dependency"),
        "{read_only}"
    );

    // A write across a read-only and a write-capable neighbour: the union path refuses it too.
    let mixed = refused_access(
        |c, d| {
            c.input(d.region(0..4)).inout(d.region(4..8));
        },
        |t, d| {
            let _ = d.write(t, 0..8);
        },
    );
    assert!(
        mixed.contains("without a covering strong write dependency"),
        "{mixed}"
    );
}
