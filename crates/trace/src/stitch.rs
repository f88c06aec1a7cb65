//! Deterministic stitching of per-shard trace logs.
//!
//! A sharded simulation produces one [`TraceLog`](crate::TraceLog) per
//! shard, each in a private timestamp space (every shard starts its queue
//! clock at 0) and a private id space (instances, memory requesters, and
//! command sequence numbers all start at 0). Stitching turns those logs
//! into one global log the existing consumers — [`audit`](mod@crate::audit),
//! [`MetricsRegistry`](crate::MetricsRegistry), the Chrome exporter — can
//! process unchanged:
//!
//! 1. [`retag`] maps each shard's ids into disjoint global ranges (shard
//!    `s`'s instance `i` becomes `offset + i`), preserving the
//!    [`FALLBACK_TRACK`] sentinel;
//! 2. [`stitch`] merges the retagged logs into one stream, ordered by
//!    event timestamp with shard index as the tiebreak.
//!
//! The merge is a *streaming* k-way merge: it only ever takes the head of
//! each shard's queue, so each shard's internal emission order — which the
//! model relies on for span bracketing — is preserved verbatim, while
//! events from different shards interleave monotonically wherever the
//! inputs are monotone. The output is a pure function of the input logs
//! and their order, never of thread scheduling: merging the same per-shard
//! logs in the same shard order is bit-identical no matter how many worker
//! threads produced them.

use crate::{Cycles, TraceEvent, FALLBACK_TRACK};

/// The primary timestamp of an event: `start` for span events, `at` for
/// instants. This is the merge key [`stitch`] orders shards by.
#[must_use]
pub fn event_time(event: &TraceEvent) -> Cycles {
    match event {
        TraceEvent::CmdEnqueue { at, .. }
        | TraceEvent::CmdDrop { at, .. }
        | TraceEvent::CmdShed { at, .. }
        | TraceEvent::FrameDecode { at, .. }
        | TraceEvent::CmdDispatch { at, .. }
        | TraceEvent::CmdRetry { at, .. }
        | TraceEvent::CmdFallback { at, .. }
        | TraceEvent::FsmTransition { at, .. }
        | TraceEvent::AdtAccess { at, .. }
        | TraceEvent::MemAccess { at, .. } => *at,
        TraceEvent::CmdComplete { enqueue, .. } => *enqueue,
        TraceEvent::DeserOp { start, .. }
        | TraceEvent::SerOp { start, .. }
        | TraceEvent::MemloaderStream { start, .. }
        | TraceEvent::Field { start, .. }
        | TraceEvent::FsuOp { start, .. }
        | TraceEvent::MemwriterFlush { start, .. } => *start,
    }
}

/// Offsets mapping one shard's private id spaces into the global log.
///
/// With `k` instances per shard, shard `s` conventionally gets
/// `instance: s * k`, `requester: s * (k + 1)` (the memory system's
/// requester space has one extra slot for the CPU fallback, which must not
/// collide with the next shard's instance 0), and `seq` the running total
/// of commands offered by earlier shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTags {
    /// Added to every accelerator-instance id (except [`FALLBACK_TRACK`]).
    pub instance: usize,
    /// Added to every memory-system requester id.
    pub requester: usize,
    /// Added to every command sequence number.
    pub seq: usize,
    /// Added to every RPC connection index.
    pub conn: usize,
}

/// Rewrites one shard's events in place from shard-local ids to global
/// ids. The [`FALLBACK_TRACK`] sentinel on instance fields is preserved —
/// it means "the CPU, not an accelerator" in every shard alike.
pub fn retag(events: &mut [TraceEvent], tags: ShardTags) {
    let shift = |instance: &mut usize| {
        if *instance != FALLBACK_TRACK {
            *instance += tags.instance;
        }
    };
    for e in events {
        match e {
            TraceEvent::CmdEnqueue { seq, .. }
            | TraceEvent::CmdDrop { seq, .. }
            | TraceEvent::CmdShed { seq, .. }
            | TraceEvent::CmdFallback { seq, .. } => *seq += tags.seq,
            TraceEvent::FrameDecode { conn, .. } => *conn += tags.conn,
            TraceEvent::CmdDispatch { seq, instance, .. }
            | TraceEvent::CmdRetry { seq, instance, .. }
            | TraceEvent::CmdComplete { seq, instance, .. } => {
                *seq += tags.seq;
                shift(instance);
            }
            TraceEvent::DeserOp { instance, .. }
            | TraceEvent::SerOp { instance, .. }
            | TraceEvent::MemloaderStream { instance, .. }
            | TraceEvent::FsmTransition { instance, .. }
            | TraceEvent::Field { instance, .. }
            | TraceEvent::AdtAccess { instance, .. }
            | TraceEvent::FsuOp { instance, .. }
            | TraceEvent::MemwriterFlush { instance, .. } => shift(instance),
            TraceEvent::MemAccess { requester, .. } => *requester += tags.requester,
        }
    }
}

/// Merges per-shard logs (already [`retag`]ged by the caller) into one
/// stream: repeatedly take the head event with the smallest
/// `(event_time, shard index)` pair.
///
/// Within a shard, emission order is preserved exactly (only heads are
/// taken), so span bracketing survives; across shards, the output is
/// globally time-ordered wherever the inputs are. Deterministic by
/// construction — no clocks, no thread identity, shard index breaks ties.
#[must_use]
pub fn stitch(shards: &[Vec<TraceEvent>]) -> Vec<TraceEvent> {
    let mut heads = vec![0usize; shards.len()];
    let total: usize = shards.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    loop {
        let mut best: Option<(Cycles, usize)> = None;
        for (s, log) in shards.iter().enumerate() {
            if let Some(e) = log.get(heads[s]) {
                let key = (event_time(e), s);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        let Some((_, s)) = best else {
            break;
        };
        out.push(shards[s][heads[s]].clone());
        heads[s] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enqueue(seq: usize, at: Cycles) -> TraceEvent {
        TraceEvent::CmdEnqueue {
            seq,
            at,
            wire_bytes: 1,
            deser: true,
        }
    }

    fn deser_op(instance: usize, start: Cycles, cycles: Cycles) -> TraceEvent {
        TraceEvent::DeserOp {
            instance,
            start,
            cycles,
            fsm_cycles: 0,
            stream_cycles: 0,
            wire_bytes: 1,
            fields: 1,
        }
    }

    fn complete(seq: usize, instance: usize, enqueue: Cycles) -> TraceEvent {
        TraceEvent::CmdComplete {
            seq,
            enqueue,
            dispatch: enqueue,
            complete: enqueue + 1,
            service: 1,
            instance,
            wire_bytes: 1,
            deser: true,
            sharers: 1,
            attempts: 1,
            outcome: crate::CmdOutcome::Ok,
        }
    }

    #[test]
    fn event_time_reads_start_or_at_for_every_variant() {
        assert_eq!(event_time(&enqueue(0, 42)), 42);
        assert_eq!(event_time(&deser_op(0, 7, 100)), 7);
        assert_eq!(event_time(&complete(0, 0, 13)), 13);
        assert_eq!(
            event_time(&TraceEvent::FrameDecode {
                conn: 0,
                at: 9,
                len: 5,
                ok: true
            }),
            9
        );
    }

    #[test]
    fn retag_offsets_ids_and_preserves_fallback_sentinel() {
        let mut events = vec![
            enqueue(0, 0),
            deser_op(1, 0, 10),
            complete(0, FALLBACK_TRACK, 0),
            TraceEvent::MemAccess {
                requester: 2,
                at: 3,
                cycles: 1,
                addr: 0,
                len: 64,
                write: false,
                mode: crate::MemAccessMode::Blocking,
                tlb_walk_cycles: 0,
                l1_hits: 1,
                l2_hits: 0,
                llc_hits: 0,
                dram_accesses: 0,
            },
        ];
        retag(
            &mut events,
            ShardTags {
                instance: 4,
                requester: 5,
                seq: 100,
                conn: 8,
            },
        );
        assert_eq!(events[0], enqueue(100, 0));
        assert_eq!(events[1], deser_op(5, 0, 10));
        // The fallback sentinel is not an instance id: it must survive.
        assert!(matches!(
            events[2],
            TraceEvent::CmdComplete {
                seq: 100,
                instance: FALLBACK_TRACK,
                ..
            }
        ));
        assert!(matches!(
            events[3],
            TraceEvent::MemAccess { requester: 7, .. }
        ));
    }

    #[test]
    fn stitch_merges_monotonically_and_breaks_ties_by_shard() {
        let shard0 = vec![enqueue(0, 0), enqueue(1, 10), enqueue(2, 20)];
        let shard1 = vec![enqueue(100, 0), enqueue(101, 15)];
        let merged = stitch(&[shard0, shard1]);
        let seqs: Vec<usize> = merged
            .iter()
            .map(|e| match e {
                TraceEvent::CmdEnqueue { seq, .. } => *seq,
                _ => unreachable!(),
            })
            .collect();
        // Tie at t=0 goes to shard 0; otherwise strictly by time.
        assert_eq!(seqs, vec![0, 100, 1, 101, 2]);
    }

    #[test]
    fn stitch_preserves_within_shard_order_for_out_of_order_spans() {
        // A span emitted at completion can carry a start earlier than an
        // already-emitted instant (the model emits in completion order).
        // Stitching must not reorder it past its shard predecessors.
        let shard0 = vec![enqueue(0, 5), deser_op(0, 2, 10)];
        let shard1 = vec![enqueue(1, 3)];
        let merged = stitch(&[shard0.clone(), shard1]);
        // shard1's t=3 event slots before shard0's t=5 head, but shard0's
        // out-of-order span (t=2) stays behind its own t=5 predecessor.
        assert_eq!(merged[0], enqueue(1, 3));
        assert_eq!(merged[1], shard0[0]);
        assert_eq!(merged[2], shard0[1]);
    }

    #[test]
    fn stitched_multi_shard_log_passes_the_accounting_audit() {
        // Two shards, one instance each, private seq/instance spaces.
        let mut shard0 = vec![
            enqueue(0, 0),
            deser_op(0, 1, 40),
            complete(0, 0, 0),
            enqueue(1, 8),
            deser_op(0, 9, 60),
            complete(1, 0, 8),
        ];
        let mut shard1 = vec![enqueue(0, 2), deser_op(0, 3, 25), complete(0, 0, 2)];
        retag(&mut shard0, ShardTags::default());
        retag(
            &mut shard1,
            ShardTags {
                instance: 1,
                requester: 2,
                seq: 2,
                conn: 0,
            },
        );
        let merged = stitch(&[shard0, shard1]);
        let expected = [
            crate::ExpectedStats {
                instance: 0,
                deser_ops: 2,
                deser_cycles: 100,
                ser_ops: 0,
                ser_cycles: 0,
                saturated: false,
            },
            crate::ExpectedStats {
                instance: 1,
                deser_ops: 1,
                deser_cycles: 25,
                ser_ops: 0,
                ser_cycles: 0,
                saturated: false,
            },
        ];
        let report = crate::audit(&merged, &expected);
        assert!(report.ok(), "{:?}", report.problems);
    }
}
