//! Property tests for the deterministic fault injector.
//!
//! Replayability is the core contract: the same seed must yield the
//! same fault schedule, independent of wall clock, thread
//! interleaving, or how many times the plan is consulted. The wire
//! codec half of this satellite (truncated / bit-flipped frames are
//! rejected, never mis-decoded or panicking) lives next to the codecs
//! in `crates/core/tests/wire_props.rs` — core depends on comm, not
//! the other way around.

use bytes::Bytes;
use std::sync::Arc;
use std::time::Duration;
use vira_comm::{FaultPlan, FaultStats, FaultyTransport, LinkFaults, LocalWorld, Transport};
use vira_testkit::{check, Gen, DEFAULT_CASES};

fn arb_link_faults(g: &mut Gen) -> LinkFaults {
    LinkFaults {
        drop_p: g.probability(),
        dup_p: g.probability(),
        delay_p: g.probability(),
        delay_max: Duration::from_millis(g.u64_in(0..10)),
        reorder_p: g.probability(),
        truncate_p: g.probability(),
        corrupt_p: g.probability(),
    }
}

fn arb_payloads(g: &mut Gen) -> Vec<Vec<u8>> {
    g.vec(1..32, |g| g.bytes(0..64))
}

/// Same seed ⇒ identical fault schedule, message by message.
#[test]
fn same_seed_same_schedule() {
    check(DEFAULT_CASES, |g| {
        let seed = g.u64();
        let lf = arb_link_faults(g);
        let (from, to) = (g.usize_in(0..8), g.usize_in(0..8));
        let n = g.u64_in(1..256);
        let a = FaultPlan::new(seed).with_default(lf);
        let b = FaultPlan::new(seed).with_default(lf);
        for i in 0..n {
            assert_eq!(a.decision(from, to, i), b.decision(from, to, i));
        }
    });
}

/// Decisions are per-link: the schedule on one link does not depend
/// on traffic order elsewhere (the decision is a pure function of
/// the per-link message index).
#[test]
fn schedule_is_a_pure_function_of_link_and_index() {
    check(DEFAULT_CASES, |g| {
        let seed = g.u64();
        let lf = arb_link_faults(g);
        let indices = g.vec(1..64, |g| g.u64_in(0..512));
        let plan = FaultPlan::new(seed).with_default(lf);
        // Query in arbitrary order, then again one by one: same answers.
        let scattered: Vec<_> = indices.iter().map(|&i| plan.decision(1, 2, i)).collect();
        for (&i, d) in indices.iter().zip(&scattered) {
            assert_eq!(&plan.decision(1, 2, i), d);
            // Other-link queries in between change nothing.
            let _ = plan.decision(2, 1, i);
            assert_eq!(&plan.decision(1, 2, i), d);
        }
    });
}

/// Two transports replaying the same plan over the same traffic
/// deliver byte-identical message streams.
#[test]
fn transport_replays_identically() {
    check(DEFAULT_CASES, |g| {
        let seed = g.u64();
        let lf = LinkFaults {
            drop_p: g.probability(),
            dup_p: g.probability(),
            truncate_p: g.probability(),
            corrupt_p: g.probability(),
            ..Default::default()
        };
        let payloads = arb_payloads(g);
        let run = |payloads: &[Vec<u8>]| -> Vec<Vec<u8>> {
            let mut world = LocalWorld::create(2);
            let b = world.pop().unwrap();
            let a = FaultyTransport::new(
                world.pop().unwrap(),
                Arc::new(FaultPlan::new(seed).with_default(lf)),
                Arc::new(FaultStats::default()),
            );
            for p in payloads {
                a.send(1, 10, Bytes::copy_from_slice(p)).unwrap();
            }
            drop(a);
            let mut got = Vec::new();
            while let Ok(Some(m)) = b.try_recv() {
                got.push(m.payload.to_vec());
            }
            got
        };
        assert_eq!(run(&payloads), run(&payloads));
    });
}

/// A fault-free plan is a faithful pass-through for any traffic.
#[test]
fn inert_plan_is_transparent() {
    check(DEFAULT_CASES, |g| {
        let plan = FaultPlan::new(g.u64());
        let payloads = arb_payloads(g);
        assert!(plan.is_inert());
        let mut world = LocalWorld::create(2);
        let b = world.pop().unwrap();
        let a = FaultyTransport::new(
            world.pop().unwrap(),
            Arc::new(plan),
            Arc::new(FaultStats::default()),
        );
        for p in &payloads {
            a.send(1, 10, Bytes::copy_from_slice(p)).unwrap();
        }
        for p in &payloads {
            assert_eq!(&b.recv().unwrap().payload[..], &p[..]);
        }
    });
}
