#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # fragdb-obs — span reconstruction and critical-path profiling
//!
//! Pure, replayable observability over the telemetry stream: the same
//! `TelemetryEvent`s the simulator already emits (or their JSONL
//! export) are grouped by causal id `(fragment, epoch, frag_seq)` into
//! per-commit **span trees** — submission queue wait, §4.1 lock wait,
//! execution, then one network + hold-back leg per replica install.
//!
//! On top of the spans sit:
//!
//! * a **critical-path profiler** ([`SpanReport::critical_path`],
//!   [`critical::attribution_table`]) answering "which phase made the
//!   slowest replica late" per commit, and
//! * a deterministic **folded-stack** renderer ([`critical::folded`])
//!   whose output is byte-identical for a given seed.
//!
//! Reconstruction is a pure function of the event stream: feeding the
//! in-memory records and feeding the JSONL export of the same run
//! (decoded by `fragdb_sim::telemetry::parse_jsonl`, the one wire codec)
//! produce identical reports ([`SpanReport::from_records`] /
//! [`SpanReport::from_jsonl`]). Ring-evicted commits surface as
//! explicit [`span::SpanStatus::Truncated`] spans — counted, never
//! silently dropped.

pub mod critical;
pub mod span;

pub use critical::{attribution_table, folded, span_lines, validate_folded};
pub use span::{CommitSpan, InstallLeg, QueueAttr, SpanReport, SpanStatus};

#[cfg(test)]
mod tests {
    use super::*;
    use fragdb_sim::telemetry::render_jsonl;
    use fragdb_sim::{CausalId, Metrics, SimTime, TelemetryEvent as E, TelemetryRecord};

    fn rec(at: u64, event: E) -> TelemetryRecord {
        TelemetryRecord {
            at: SimTime(at),
            event,
        }
    }

    fn cause(fragment: u32, epoch: u64, frag_seq: u64) -> CausalId {
        CausalId {
            fragment,
            epoch,
            frag_seq,
        }
    }

    /// Streams are typed records rendered by the telemetry encoder, so
    /// they hold only lines the program can emit.
    fn export(records: &[TelemetryRecord]) -> String {
        render_jsonl(records, 0)
    }

    /// A hand-built stream: one queued+locked commit to 2 replicas with
    /// one retransmitted leg, plus one truncated install.
    fn sample_stream() -> String {
        let c = cause(7, 1, 5);
        export(&[
            rec(
                10,
                E::SubmissionQueued {
                    fragment: 7,
                    depth: 1,
                },
            ),
            rec(
                40,
                E::Initiated {
                    node: 0,
                    fragment: 7,
                    txn_seq: 3,
                },
            ),
            rec(
                41,
                E::LockWaitStarted {
                    node: 0,
                    fragment: 7,
                    txn_seq: 3,
                    sites: 2,
                },
            ),
            rec(
                55,
                E::LockGranted {
                    node: 0,
                    fragment: 7,
                    txn_seq: 3,
                },
            ),
            rec(
                60,
                E::Committed {
                    cause: c,
                    node: 0,
                    txn_seq: 3,
                },
            ),
            rec(
                60,
                E::BroadcastSent {
                    cause: c,
                    node: 0,
                    recipients: 2,
                },
            ),
            rec(60, E::Installed { cause: c, node: 0 }),
            rec(
                70,
                E::Retransmit {
                    from: 0,
                    to: 2,
                    count: 1,
                },
            ),
            rec(80, E::Installed { cause: c, node: 1 }),
            rec(
                90,
                E::HeldBack {
                    cause: c,
                    node: 2,
                    depth: 1,
                },
            ),
            rec(95, E::Installed { cause: c, node: 2 }),
            // Truncated: an install whose commit was ring-evicted.
            rec(
                99,
                E::Installed {
                    cause: cause(2, 0, 1),
                    node: 4,
                },
            ),
        ])
    }

    #[test]
    fn sample_stream_reconstructs_expected_span() {
        let report = SpanReport::from_jsonl(&sample_stream()).unwrap();
        assert_eq!(report.len(), 2);
        assert_eq!(report.complete, 1);
        assert_eq!(report.truncated, 1);

        let s = &report.spans[1];
        assert_eq!(s.cause.fragment, 7);
        assert_eq!(s.status, SpanStatus::Complete);
        assert_eq!(s.queue_us, 30);
        assert_eq!(s.lock_wait_us, 14);
        assert_eq!(s.exec_us, 6);
        assert_eq!(s.legs.len(), 3);
        // Home leg: zero net, zero holdback.
        assert_eq!(s.legs[0].node, 0);
        assert_eq!(s.legs[0].net_us, 0);
        // Node 1: clean 20us leg.
        assert_eq!(s.legs[1].net_us, 20);
        assert!(!s.legs[1].retransmitted);
        // Node 2: retransmitted, arrived (held back) at 90, installed 95.
        assert!(s.legs[2].retransmitted);
        assert_eq!(s.legs[2].net_us, 30);
        assert_eq!(s.legs[2].holdback_us, 5);

        // Critical path ends at the last install (node 2).
        let path = SpanReport::critical_path(s);
        assert_eq!(
            path,
            vec![
                ("queue", 30),
                ("lock_wait", 14),
                ("exec", 6),
                ("retransmit", 30),
                ("holdback", 5)
            ]
        );
        // Tie between queue and retransmit durations broken toward the
        // earlier pipeline stage.
        assert_eq!(report.critical.get("queue"), Some(&(1, 30)));
    }

    #[test]
    fn folded_output_is_valid_and_deterministic() {
        let a = folded(&SpanReport::from_jsonl(&sample_stream()).unwrap());
        let b = folded(&SpanReport::from_jsonl(&sample_stream()).unwrap());
        assert_eq!(a, b);
        validate_folded(&a).unwrap();
        assert!(a.contains("commit;net;retransmit 30\n"));
        assert!(a.contains("commit;queue;wait 30\n"));
        // No election/token-move leaves in a fault-free stream.
        assert!(!a.contains("election"));

        validate_folded("").unwrap_err();
        validate_folded("commit;bogus 3\n").unwrap_err();
        validate_folded("commit;queue;wait x\n").unwrap_err();
        validate_folded("commit;queue;wait 1\ncommit;exec 1\n").unwrap_err();
    }

    #[test]
    fn publish_sets_registered_keys() {
        let report = SpanReport::from_jsonl(&sample_stream()).unwrap();
        let mut m = Metrics::new();
        report.publish(&mut m);
        assert_eq!(m.counter("telemetry.spans_truncated"), 1);
        let h = m.histogram("obs.critical_path.len").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Some(5));
        assert!(m.histogram("span.phase.retransmit").is_some());
        assert!(m.histogram("span.phase.holdback").is_some());
    }

    #[test]
    fn abort_before_initiation_retires_the_queue_slot() {
        // Two submissions queue on fragment 3; the first aborts without
        // ever initiating (home crash drain), the second commits.
        let text = export(&[
            rec(
                5,
                E::SubmissionQueued {
                    fragment: 3,
                    depth: 1,
                },
            ),
            rec(
                9,
                E::SubmissionQueued {
                    fragment: 3,
                    depth: 2,
                },
            ),
            rec(
                20,
                E::Aborted {
                    node: 1,
                    fragment: 3,
                    txn_seq: 0,
                    reason: "unavailable",
                },
            ),
            rec(
                30,
                E::Initiated {
                    node: 1,
                    fragment: 3,
                    txn_seq: 1,
                },
            ),
            rec(
                44,
                E::Committed {
                    cause: cause(3, 0, 0),
                    node: 1,
                    txn_seq: 1,
                },
            ),
        ]);
        let report = SpanReport::from_jsonl(&text).unwrap();
        let s = &report.spans[0];
        // The surviving commit pairs with the SECOND queue entry (9→30),
        // not the aborted first one.
        assert_eq!(s.queue_us, 21);
        assert_eq!(s.exec_us, 14);
    }

    #[test]
    fn queue_wait_overlapping_election_window_is_attributed() {
        let text = export(&[
            rec(
                5,
                E::SubmissionQueued {
                    fragment: 1,
                    depth: 1,
                },
            ),
            rec(
                10,
                E::ElectionStarted {
                    fragment: 1,
                    epoch: 1,
                    candidate: 2,
                },
            ),
            rec(
                90,
                E::TokenRecovered {
                    fragment: 1,
                    epoch: 2,
                    node: 2,
                },
            ),
            rec(
                100,
                E::Initiated {
                    node: 2,
                    fragment: 1,
                    txn_seq: 0,
                },
            ),
            rec(
                110,
                E::Committed {
                    cause: cause(1, 2, 1),
                    node: 2,
                    txn_seq: 0,
                },
            ),
        ]);
        let report = SpanReport::from_jsonl(&text).unwrap();
        let s = &report.spans[0];
        assert_eq!(s.queue_attr, QueueAttr::Election);
        assert_eq!(s.queue_us, 95);
        let f = folded(&report);
        assert!(f.contains("commit;queue;election 95\n"));
    }

    #[test]
    fn replay_rejects_lines_the_program_never_emits() {
        // A queue entry without its depth field.
        let text = "{\"at_micros\":10,\"event\":\"submission_queued\",\"fragment\":7}\n";
        assert!(SpanReport::from_jsonl(text).is_err());
        assert!(SpanReport::from_jsonl("{\"at_micros\":1,\"event\":\"mystery\"}\n").is_err());
        // Comments and blank lines are skipped.
        assert!(SpanReport::from_jsonl("# 3 earlier events dropped\n\n")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn attribution_table_mentions_every_dominating_phase() {
        let report = SpanReport::from_jsonl(&sample_stream()).unwrap();
        let table = attribution_table(&report);
        assert!(table.contains("over 1 committed spans"));
        assert!(table.contains("1 truncated"));
        assert!(table.contains("queue"));
        let lines = span_lines(&report);
        assert!(lines.contains("frag=7"));
        assert!(lines.contains("status=Complete"));
        assert!(lines.contains("status=Truncated"));
    }
}
