//! Structured event telemetry.
//!
//! Where [`crate::trace::Trace`] records free-form strings, this module
//! records **typed** events carrying virtual time, node/fragment ids, and a
//! causal id — the originating quasi-transaction's `(fragment, epoch,
//! frag_seq)` — so a commit at the agent can be joined to its install at
//! every replica, a move request to the token's arrival, and a crash to the
//! completion of catch-up.
//!
//! Layering: this crate sits below the model crate, so events carry *raw*
//! ids (`u32` node/fragment, `u64` epoch/sequence). The system layer
//! converts its typed ids at the emission site.
//!
//! Discipline mirrors `Trace`:
//!
//! * disabled by default; emission sites construct events inside closures so
//!   a disabled stream is a single branch — zero allocation on hot paths;
//! * the buffer is bounded; overflow evicts oldest-first and counts drops;
//! * everything is deterministic: the event log for a seeded run is
//!   byte-for-byte reproducible.
//!
//! This module is also the only place that knows the JSON-lines wire form
//! (no serde in this offline build). Each event's wire name and field list
//! are declared once, in the [`TelemetryEvent`] table; the encoder
//! ([`TelemetryRecord::to_json_line`], [`render_jsonl`]) and the strict
//! decoder ([`TelemetryRecord::from_json_line`], [`parse_jsonl`]) are
//! generated from it.
//!
//! On top of the raw stream, [`Probes`] derives online measurements and
//! publishes them as dimensioned [`Metrics`] keys (`frag.<f>.lag`,
//! `node.<n>.staleness`, …) through an interning cache so steady-state
//! observation allocates nothing.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use crate::histogram::QuantileSketch;
use crate::metrics::{keys, Metrics};
use crate::time::SimTime;

/// Causal identity of a quasi-transaction: the fragment it updates, the
/// token epoch it was issued under, and its position in the fragment's
/// update sequence. Every event downstream of a commit (broadcast, install,
/// forward, repackage) carries the same id, which is what makes the
/// commit→install join well-defined even across §4.4.3 repackaging.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CausalId {
    /// Fragment whose update sequence this transaction extends.
    pub fragment: u32,
    /// Token epoch under which the sequence number was issued.
    pub epoch: u64,
    /// Position in the fragment's update sequence.
    pub frag_seq: u64,
}

/// Writes one field type as `,"key":value`.
trait ToWire {
    fn to_wire(&self, key: &str, out: &mut String);
}

/// Reads back exactly what the type's [`ToWire`] wrote. `&'static str`
/// has no impl: a word field names its registry lookup in the event table.
trait FromWire: Sized {
    fn from_wire(cur: &mut Cursor<'_>, key: &str) -> Result<Self, String>;
}

impl ToWire for u64 {
    fn to_wire(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":{self}");
    }
}

impl FromWire for u64 {
    fn from_wire(cur: &mut Cursor<'_>, key: &str) -> Result<Self, String> {
        cur.field(key)?;
        cur.number(key)
    }
}

impl ToWire for u32 {
    fn to_wire(&self, key: &str, out: &mut String) {
        u64::from(*self).to_wire(key, out);
    }
}

impl FromWire for u32 {
    fn from_wire(cur: &mut Cursor<'_>, key: &str) -> Result<Self, String> {
        u32::try_from(u64::from_wire(cur, key)?).map_err(|_| format!("field {key:?} overflows u32"))
    }
}

/// A causal id flattens to `fragment`/`epoch`/`frag_seq`, whatever the
/// field is called.
impl ToWire for CausalId {
    fn to_wire(&self, _key: &str, out: &mut String) {
        self.fragment.to_wire("fragment", out);
        self.epoch.to_wire("epoch", out);
        self.frag_seq.to_wire("frag_seq", out);
    }
}

impl FromWire for CausalId {
    fn from_wire(cur: &mut Cursor<'_>, _key: &str) -> Result<Self, String> {
        Ok(CausalId {
            fragment: u32::from_wire(cur, "fragment")?,
            epoch: u64::from_wire(cur, "epoch")?,
            frag_seq: u64::from_wire(cur, "frag_seq")?,
        })
    }
}

/// Word fields hold registered identifiers, so they need no escaping.
impl ToWire for &'static str {
    fn to_wire(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":\"{self}\"");
    }
}

/// Reads a line in the exact shape the encoder writes: fixed field order,
/// no whitespace, no escapes.
struct Cursor<'a> {
    rest: &'a str,
}

impl<'a> Cursor<'a> {
    /// Consume `,"key":`.
    fn field(&mut self, key: &str) -> Result<(), String> {
        self.rest = self
            .rest
            .strip_prefix(",\"")
            .and_then(|r| r.strip_prefix(key))
            .and_then(|r| r.strip_prefix("\":"))
            .ok_or_else(|| format!("expected field {key:?} at {:?}", self.rest))?;
        Ok(())
    }

    fn number(&mut self, key: &str) -> Result<u64, String> {
        let end = self
            .rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(self.rest.len());
        let (digits, rest) = self.rest.split_at(end);
        self.rest = rest;
        digits
            .parse()
            .map_err(|_| format!("field {key:?} is not a u64"))
    }

    fn quoted(&mut self, key: &str) -> Result<&'a str, String> {
        let (word, rest) = self
            .rest
            .strip_prefix('"')
            .and_then(|r| r.split_once('"'))
            .ok_or_else(|| format!("field {key:?} is not a string"))?;
        self.rest = rest;
        Ok(word)
    }

    /// Consume a `,"key":"word"` field whose word `vocab` registers.
    fn word(
        &mut self,
        key: &str,
        vocab: fn(&str) -> Option<&'static str>,
    ) -> Result<&'static str, String> {
        self.field(key)?;
        let word = self.quoted(key)?;
        vocab(word).ok_or_else(|| format!("unregistered {key} {word:?}"))
    }
}

/// Decode one event field: through [`FromWire`], or through the named
/// registry lookup for a word field.
macro_rules! decode_field {
    ($cur:ident, $field:ident: $ty:ty) => {
        <$ty as FromWire>::from_wire($cur, stringify!($field))?
    };
    ($cur:ident, $field:ident: $ty:ty => $vocab:path) => {
        $cur.word(stringify!($field), $vocab)?
    };
}

/// Declares [`TelemetryEvent`] from one table of `Variant = "wire_name" {
/// fields }` entries and generates its `name()` and its wire encoder and
/// decoder from the same table. A word (`&'static str`) field names, after
/// `=>`, the `metrics::keys` lookup that maps a decoded word back to its
/// registered spelling.
macro_rules! telemetry_events {
    (
        $(#[$meta:meta])*
        pub enum TelemetryEvent {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $wire:literal {
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident: $ty:ty $(=> $vocab:path)?
                    ),+ $(,)?
                }
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum TelemetryEvent {
            $(
                $(#[$vmeta])*
                $variant {
                    $($(#[$fmeta])* $field: $ty,)+
                },
            )+
        }

        impl TelemetryEvent {
            /// The variant's stable wire name, used by the JSON-lines export
            /// and the timeline renderer.
            pub fn name(&self) -> &'static str {
                match self {
                    $(TelemetryEvent::$variant { .. } => $wire,)+
                }
            }

            fn write_fields(&self, out: &mut String) {
                match self {
                    $(TelemetryEvent::$variant { $($field),+ } => {
                        $(ToWire::to_wire($field, stringify!($field), out);)+
                    })+
                }
            }

            fn read_fields(name: &str, cur: &mut Cursor<'_>) -> Result<Self, String> {
                match name {
                    $($wire => Ok(TelemetryEvent::$variant {
                        $($field: decode_field!(cur, $field: $ty $(=> $vocab)?),)+
                    }),)+
                    _ => Err(format!("unknown event {name:?}")),
                }
            }
        }
    };
}

telemetry_events! {
    /// One structured telemetry event.
    ///
    /// Variants cover the transaction lifecycle, token movement, the network,
    /// and crash recovery. The set is deliberately open-ended: renderers must
    /// treat unknown variants as opaque (match with a wildcard arm). Each
    /// variant's fields encode in declaration order.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum TelemetryEvent {
        /// A submission entered the system at its initiating node.
        Initiated = "initiated" {
            /// Initiating node.
            node: u32,
            /// Fragment the transaction runs against.
            fragment: u32,
            /// The node-local transaction sequence number the submission runs
            /// under — pairs initiation with the eventual `Committed` /
            /// `Aborted` carrying the same `(node, txn_seq)`.
            txn_seq: u64,
        },
        /// A quasi-transaction committed at the fragment's agent home.
        Committed = "committed" {
            /// Causal id of the committed quasi-transaction.
            cause: CausalId,
            /// Agent home where the commit happened.
            node: u32,
            /// Node-local sequence of the committing transaction at its origin
            /// — joins the commit back to its `Initiated` (and any
            /// `LockWaitStarted`/`LockGranted` pair) for span reconstruction.
            txn_seq: u64,
        },
        /// The committed quasi-transaction was broadcast to replicas.
        BroadcastSent = "broadcast_sent" {
            /// Causal id of the broadcast quasi-transaction.
            cause: CausalId,
            /// Broadcasting node (the agent home).
            node: u32,
            /// Number of recipients addressed.
            recipients: u32,
        },
        /// A quasi-transaction was installed at a replica (the commit at the
        /// agent home counts as that node's install, so fault-free each commit
        /// joins to exactly R installs, R = replica count).
        Installed = "installed" {
            /// Causal id of the installed quasi-transaction.
            cause: CausalId,
            /// Node the install happened at.
            node: u32,
        },
        /// A transaction aborted.
        Aborted = "aborted" {
            /// Node at which the abort was decided.
            node: u32,
            /// Fragment of the aborted transaction.
            fragment: u32,
            /// Node-local sequence of the aborted transaction at its origin —
            /// closes the `Initiated`/`LockWaitStarted` pair for spans.
            txn_seq: u64,
            /// Abort reason, matching the `abort.*` metric suffixes.
            reason: &'static str => keys::abort_reason,
        },
        /// A read ran at a node; records how far behind the agent it was.
        ReadObserved = "read_observed" {
            /// Node that served the read.
            node: u32,
            /// Fragment read.
            fragment: u32,
            /// Highest update sequence installed at the reading node.
            seen_seq: u64,
            /// Agent's current update sequence (what a fresh read would see).
            agent_seq: u64,
        },
        /// An out-of-order quasi-transaction was held back at a replica.
        HeldBack = "held_back" {
            /// Causal id of the held-back quasi-transaction — lets span
            /// reconstruction split the replica hop into network time
            /// (commit→arrival) and hold-back time (arrival→install).
            cause: CausalId,
            /// Node holding the update back.
            node: u32,
            /// Hold-back buffer depth after insertion.
            depth: u64,
        },
        /// A §4.1 transaction began acquiring read/exclusive locks (2PC-style
        /// lock-site round). Paired with `LockGranted` by `(node, txn_seq)`.
        LockWaitStarted = "lock_wait_started" {
            /// Home node of the acquiring transaction.
            node: u32,
            /// Fragment the transaction updates (or reads, for read-only).
            fragment: u32,
            /// Node-local sequence of the acquiring transaction.
            txn_seq: u64,
            /// Number of *remote* lock sites contacted (0 = all-local).
            sites: u32,
        },
        /// All locks for the transaction are held; execution proceeds. Ends
        /// the `LockWaitStarted` phase opened by the same `(node, txn_seq)`.
        LockGranted = "lock_granted" {
            /// Home node of the acquiring transaction.
            node: u32,
            /// Fragment the transaction updates (or reads, for read-only).
            fragment: u32,
            /// Node-local sequence of the acquiring transaction.
            txn_seq: u64,
        },
        /// A submission queued behind a move / majority commit / 2PC.
        SubmissionQueued = "submission_queued" {
            /// Fragment whose queue grew.
            fragment: u32,
            /// Queue depth after insertion.
            depth: u64,
        },
        /// A token (agent) move was requested.
        MoveRequested = "move_requested" {
            /// Fragment whose token moves.
            fragment: u32,
            /// Current agent home.
            from: u32,
            /// Destination node.
            to: u32,
        },
        /// The token finished moving: the destination is now the agent.
        TokenArrived = "token_arrived" {
            /// Fragment whose token arrived.
            fragment: u32,
            /// New agent home.
            node: u32,
        },
        /// A move was deferred or abandoned (endpoint down, move in progress).
        MoveAborted = "move_aborted" {
            /// Fragment whose move did not start.
            fragment: u32,
            /// Agent home at the time of the request.
            from: u32,
            /// Requested destination.
            to: u32,
        },
        /// The link layer dropped transmissions (fault injection or the
        /// destination node being down).
        Dropped = "dropped" {
            /// Sender.
            from: u32,
            /// Intended receiver.
            to: u32,
            /// Number of transmissions lost in this batch.
            count: u64,
        },
        /// The reliable layer retransmitted unacked packets.
        Retransmit = "retransmit" {
            /// Sender.
            from: u32,
            /// Receiver.
            to: u32,
            /// Number of retransmissions in this batch.
            count: u64,
        },
        /// An application message was released in order to its destination.
        Delivered = "delivered" {
            /// Sender.
            from: u32,
            /// Receiver.
            to: u32,
            /// Message kind (the envelope's wire name).
            kind: &'static str => keys::msg_kind,
        },
        /// A node crashed (volatile state lost; WAL survives).
        Crash = "crash" {
            /// Crashed node.
            node: u32,
        },
        /// A node recovered: the WAL was replayed into the store.
        Recover = "recover" {
            /// Recovered node.
            node: u32,
            /// Fragments found divergent from the agents at recovery time.
            behind_fragments: u64,
        },
        /// A recovered node finished catching up on every divergent fragment.
        CatchupComplete = "catchup_complete" {
            /// Node whose catch-up completed.
            node: u32,
        },
        /// A node's failure detector suspected a silent peer.
        SuspectRaised = "suspect_raised" {
            /// Observing node (whose local detector raised the suspicion).
            node: u32,
            /// The suspected peer.
            suspect: u32,
        },
        /// A quorum election started to re-home a suspected token.
        ElectionStarted = "election_started" {
            /// Fragment whose token is being re-homed.
            fragment: u32,
            /// The token epoch the election fences on.
            epoch: u64,
            /// The initiating node (and candidate new home).
            candidate: u32,
        },
        /// An election reached a majority: the token re-homed under a new
        /// epoch, fencing out the old home.
        ElectionWon = "election_won" {
            /// Fragment whose token re-homed.
            fragment: u32,
            /// The **new** (post-reattach) token epoch.
            epoch: u64,
            /// The winning node (new agent home).
            node: u32,
        },
        /// An election round ended without re-homing the token.
        ElectionAborted = "election_aborted" {
            /// Fragment the round concerned.
            fragment: u32,
            /// The epoch the round fenced on.
            epoch: u64,
            /// Why: one of [`keys::ELECTION_ABORT_REASONS`] —
            /// [`keys::ELECTION_ABORT_TIMEOUT`],
            /// [`keys::ELECTION_ABORT_HOME_ALIVE`],
            /// [`keys::ELECTION_ABORT_SUPERSEDED`], or
            /// [`keys::ELECTION_ABORT_CANDIDATE_CRASHED`].
            reason: &'static str => keys::election_abort_reason,
        },
        /// Post-election §4.4.1 recovery finished: the elected home holds the
        /// token and the fragment accepts writes again.
        TokenRecovered = "token_recovered" {
            /// Recovered fragment.
            fragment: u32,
            /// Epoch the fragment now runs under.
            epoch: u64,
            /// The elected home.
            node: u32,
        },
        /// An open group-commit batch element was discarded by a home crash
        /// before its broadcast; closes the causal id's lifecycle so the
        /// commit→install join is not left dangling.
        BatchDiscarded = "batch_discarded" {
            /// Causal id of the never-broadcast quasi-transaction.
            cause: CausalId,
            /// The crashed home that held the open batch.
            node: u32,
        },
        /// A fragment's replica set changed size (allocator shrink toward the
        /// configured replication factor, §6 partial replication).
        ReplicaSetChanged = "replica_set_changed" {
            /// Fragment whose replica set changed.
            fragment: u32,
            /// Replica count before the change.
            from_count: u32,
            /// Replica count after the change.
            to_count: u32,
        },
    }
}

/// A timestamped telemetry event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryRecord {
    /// Virtual time of emission.
    pub at: SimTime,
    /// The event.
    pub event: TelemetryEvent,
}

impl TelemetryRecord {
    /// One flat JSON object: `at_micros`, `event`, then the variant's
    /// fields. Causal ids flatten to `fragment`/`epoch`/`frag_seq`.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"at_micros\":{},\"event\":\"{}\"",
            self.at.micros(),
            self.event.name()
        );
        self.event.write_fields(&mut out);
        out.push('}');
        out
    }

    /// The inverse of [`TelemetryRecord::to_json_line`]: accepts exactly
    /// the lines it emits. A known event with its fields in declaration
    /// order and registered words is decoded, and the result must then
    /// re-encode to the input byte for byte — so duplicate, missing,
    /// extra, or reordered fields, unknown events and non-canonical
    /// numbers are all rejected.
    pub fn from_json_line(line: &str) -> Result<TelemetryRecord, String> {
        let mut cur = Cursor {
            rest: line
                .strip_prefix("{\"at_micros\":")
                .ok_or("expected a record starting {\"at_micros\":")?,
        };
        let at = SimTime(cur.number("at_micros")?);
        cur.field("event")?;
        let name = cur.quoted("event")?;
        let event = TelemetryEvent::read_fields(name, &mut cur)?;
        if cur.rest != "}" {
            return Err(format!("unexpected trailing input {:?}", cur.rest));
        }
        let record = TelemetryRecord { at, event };
        if record.to_json_line() != line {
            return Err(format!(
                "not canonical: re-encodes as {}",
                record.to_json_line()
            ));
        }
        Ok(record)
    }
}

/// Render records as JSON lines, oldest first, preceded by a drop-marker
/// comment line when `dropped` earlier events were evicted. The marker
/// uses `#` so a JSONL consumer can skip it unambiguously.
pub fn render_jsonl<'a>(
    records: impl IntoIterator<Item = &'a TelemetryRecord>,
    dropped: u64,
) -> String {
    let mut out = String::new();
    if dropped > 0 {
        let _ = writeln!(out, "# {dropped} earlier events dropped");
    }
    for r in records {
        out.push_str(&r.to_json_line());
        out.push('\n');
    }
    out
}

/// Parse a JSON-lines export back into records. Blank lines and `#`
/// comment lines are skipped; every other line must be exactly what
/// [`TelemetryRecord::to_json_line`] emits.
pub fn parse_jsonl(text: &str) -> Result<Vec<TelemetryRecord>, String> {
    (1..)
        .zip(text.lines())
        .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
        .map(|(n, line)| {
            TelemetryRecord::from_json_line(line).map_err(|e| format!("line {n}: {e}"))
        })
        .collect()
}

/// Interning cache for dimensioned metric keys (`frag.3.lag`,
/// `node.7.staleness`, …). The first observation of a `(prefix, index,
/// suffix)` triple formats and stores the key; every later observation
/// reuses the stored `String`, so steady-state emission performs no
/// formatting and no allocation.
#[derive(Debug, Default)]
pub struct DimKeys {
    cache: BTreeMap<(&'static str, u32, &'static str), String>,
    interned: u64,
}

impl DimKeys {
    /// Empty cache.
    pub fn new() -> Self {
        DimKeys::default()
    }

    /// The interned key for `<prefix>.<index>.<suffix>`, formatting it only
    /// on first use.
    pub fn key(&mut self, prefix: &'static str, index: u32, suffix: &'static str) -> &str {
        let interned = &mut self.interned;
        self.cache
            .entry((prefix, index, suffix))
            .or_insert_with(|| {
                *interned += 1;
                format!("{prefix}.{index}.{suffix}")
            })
    }

    /// How many distinct keys have been formatted so far. Tests pin this to
    /// assert steady-state observation allocates no new keys.
    pub fn interned(&self) -> u64 {
        self.interned
    }
}

/// Online probe state derived from the event stream.
///
/// Probes publish into [`Metrics`] under dimensioned keys:
///
/// * `frag.<f>.lag` — histogram of commit→install propagation lag (µs),
///   one observation per *remote* install (the paper's mutual-consistency
///   window, §4.3 discussion).
/// * `node.<n>.staleness` — histogram of `agent_seq − seen_seq` at each
///   read served by node `n` (how many updates behind the agent the read
///   ran, §4.1 vs §4.3 freshness).
/// * `node.<n>.holdback` — histogram of hold-back buffer depth at each
///   out-of-order arrival.
/// * `frag.<f>.queue` — histogram of submission queue depth behind a
///   move/majority-commit/2PC.
/// * `frag.<f>.move_stall` — histogram of token-movement stall time (µs),
///   `MoveRequested`→`TokenArrived` (§5 unavailability window). A move
///   aborted mid-flight (endpoint crash) **also** closes its window with
///   an observation — the stall was real — provided the abort names the
///   same `(from, to)` endpoints that opened it; a deferral of an
///   unrelated request for the same fragment does not.
/// * `frag.<f>.unavail_window` — histogram of self-heal unavailability
///   (µs), `ElectionStarted`→`TokenRecovered`; an election aborted because
///   the home proved alive discards the window (no recovery happened).
#[derive(Debug, Default)]
pub struct Probes {
    keys: DimKeys,
    commit_at: BTreeMap<CausalId, SimTime>,
    move_started: BTreeMap<u32, (SimTime, u32, u32)>,
    unavail_started: BTreeMap<u32, SimTime>,
    /// Merged commit→install lag across all fragments, recorded online at
    /// observation time — exact even after ring-buffer eviction, bounded
    /// memory at any cardinality. The scale runner reads its headline
    /// p50/p99 from here; per-fragment exact histograms remain the
    /// differential oracle.
    lag_sketch: QuantileSketch,
}

impl Probes {
    fn update(&mut self, at: SimTime, ev: &TelemetryEvent, metrics: &mut Metrics) {
        match ev {
            TelemetryEvent::Committed { cause, .. } => {
                self.commit_at.insert(*cause, at);
            }
            TelemetryEvent::Installed { cause, node: _ } => {
                if let Some(&t0) = self.commit_at.get(cause) {
                    // The agent home's own install records a zero lag, so
                    // the fault-free distribution is visibly zero rather
                    // than silently absent; remote installs measure the
                    // mutual-consistency window.
                    let lag = at.micros().saturating_sub(t0.micros());
                    let key = self.keys.key("frag", cause.fragment, "lag");
                    metrics.observe_named(key, lag);
                    self.lag_sketch.record(lag);
                }
            }
            TelemetryEvent::ReadObserved {
                node,
                seen_seq,
                agent_seq,
                ..
            } => {
                let staleness = agent_seq.saturating_sub(*seen_seq);
                let key = self.keys.key("node", *node, "staleness");
                metrics.observe_named(key, staleness);
            }
            TelemetryEvent::HeldBack { node, depth, .. } => {
                let key = self.keys.key("node", *node, "holdback");
                metrics.observe_named(key, *depth);
            }
            TelemetryEvent::SubmissionQueued { fragment, depth } => {
                let key = self.keys.key("frag", *fragment, "queue");
                metrics.observe_named(key, *depth);
            }
            TelemetryEvent::MoveRequested { fragment, from, to } => {
                self.move_started
                    .entry(*fragment)
                    .or_insert((at, *from, *to));
            }
            TelemetryEvent::TokenArrived { fragment, .. } => {
                if let Some((t0, _, _)) = self.move_started.remove(fragment) {
                    let stall = at.micros().saturating_sub(t0.micros());
                    let key = self.keys.key("frag", *fragment, "move_stall");
                    metrics.observe_named(key, stall);
                }
            }
            TelemetryEvent::MoveAborted { fragment, from, to } => {
                // Only the move that opened the window may close it: a
                // deferred *unrelated* request for the same fragment must
                // not swallow the in-flight move's stall measurement. The
                // matching abort observes the stall — the fragment really
                // was unavailable that long — instead of leaking it.
                if let Some(&(t0, f0, t0_to)) = self.move_started.get(fragment) {
                    if f0 == *from && t0_to == *to {
                        self.move_started.remove(fragment);
                        let stall = at.micros().saturating_sub(t0.micros());
                        let key = self.keys.key("frag", *fragment, "move_stall");
                        metrics.observe_named(key, stall);
                    }
                }
            }
            TelemetryEvent::ElectionStarted { fragment, .. } => {
                self.unavail_started.entry(*fragment).or_insert(at);
            }
            TelemetryEvent::TokenRecovered { fragment, .. } => {
                if let Some(t0) = self.unavail_started.remove(fragment) {
                    let window = at.micros().saturating_sub(t0.micros());
                    let key = self.keys.key("frag", *fragment, "unavail_window");
                    metrics.observe_named(key, window);
                }
            }
            // A false suspicion (the home answered mid-election) never
            // made the fragment unavailable; timed-out rounds keep the
            // window open for the retry.
            TelemetryEvent::ElectionAborted {
                fragment,
                reason: keys::ELECTION_ABORT_HOME_ALIVE,
                ..
            } => {
                self.unavail_started.remove(fragment);
            }
            TelemetryEvent::BatchDiscarded { cause, .. } => {
                // The commit will never install anywhere else; close the
                // lag join so the causal id does not dangle.
                self.commit_at.remove(cause);
            }
            TelemetryEvent::ReplicaSetChanged {
                fragment, to_count, ..
            } => {
                // Gauge semantics: the fragment's current replica-set size.
                let key = self.keys.key("frag", *fragment, "replica_count");
                metrics.set_named(key, u64::from(*to_count));
            }
            _ => {}
        }
    }

    /// Number of distinct dimensioned keys formatted so far.
    pub fn interned_keys(&self) -> u64 {
        self.keys.interned()
    }

    /// The merged commit→install lag sketch (all fragments, all installs
    /// joined so far). Exact in count/sum/min/max; quantiles within 2⁻⁵.
    pub fn lag_sketch(&self) -> &QuantileSketch {
        &self.lag_sketch
    }
}

/// Bounded, optionally-disabled structured event stream with online probes.
///
/// Mirrors [`crate::trace::Trace`]: disabled by default, closure-deferred
/// emission (see `Engine::emit`), bounded buffer with a drop counter.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    cap: usize,
    dropped: u64,
    events: VecDeque<TelemetryRecord>,
    probes: Probes,
}

impl Telemetry {
    /// A stream that records nothing (the default for production runs).
    pub fn disabled() -> Self {
        Telemetry {
            enabled: false,
            cap: 0,
            dropped: 0,
            events: VecDeque::new(),
            probes: Probes::default(),
        }
    }

    /// A stream that keeps at most `cap` most-recent events. Probes are
    /// updated on every event regardless of eviction, so derived metrics
    /// stay exact even when the raw buffer wraps.
    pub fn bounded(cap: usize) -> Self {
        Telemetry {
            enabled: true,
            cap: cap.max(1),
            dropped: 0,
            events: VecDeque::new(),
            probes: Probes::default(),
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event: update probes, then buffer (evicting oldest-first
    /// past the cap). No-op when disabled — but callers should gate on
    /// [`Telemetry::is_enabled`] *before* constructing the event so hot
    /// paths pay a single branch (see `Engine::emit`).
    pub fn record(&mut self, at: SimTime, event: TelemetryEvent, metrics: &mut Metrics) {
        if !self.enabled {
            return;
        }
        self.probes.update(at, &event, metrics);
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TelemetryRecord { at, event });
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TelemetryRecord> {
        self.events.iter()
    }

    /// How many events were evicted due to the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Probe state (for key-interning assertions).
    pub fn probes(&self) -> &Probes {
        &self.probes
    }

    /// Render the retained events as JSON lines ([`render_jsonl`]), with
    /// the drop marker when the buffer wrapped.
    pub fn render_jsonl(&self) -> String {
        render_jsonl(&self.events, self.dropped)
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cause(f: u32, seq: u64) -> CausalId {
        CausalId {
            fragment: f,
            epoch: 0,
            frag_seq: seq,
        }
    }

    #[test]
    fn disabled_stream_records_nothing() {
        let mut t = Telemetry::disabled();
        let mut m = Metrics::new();
        t.record(SimTime(1), TelemetryEvent::Crash { node: 0 }, &mut m);
        assert!(t.is_empty());
        assert!(!t.is_enabled());
        assert_eq!(m.counters().count(), 0);
    }

    #[test]
    fn bounded_stream_evicts_oldest_and_counts_drops() {
        let mut t = Telemetry::bounded(2);
        let mut m = Metrics::new();
        for n in 0..4 {
            t.record(SimTime(n), TelemetryEvent::Crash { node: n as u32 }, &mut m);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 2);
        let nodes: Vec<u32> = t
            .events()
            .map(|r| match r.event {
                TelemetryEvent::Crash { node } => node,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(nodes, vec![2, 3]);
        assert!(t.render_jsonl().starts_with("# 2 earlier events dropped\n"));
    }

    #[test]
    fn lag_probe_joins_commit_to_install() {
        let mut t = Telemetry::bounded(16);
        let mut m = Metrics::new();
        let c = cause(3, 7);
        t.record(
            SimTime::from_millis(10),
            TelemetryEvent::Committed {
                cause: c,
                node: 0,
                txn_seq: 0,
            },
            &mut m,
        );
        t.record(
            SimTime::from_millis(10),
            TelemetryEvent::Installed { cause: c, node: 0 },
            &mut m,
        );
        t.record(
            SimTime::from_millis(35),
            TelemetryEvent::Installed { cause: c, node: 1 },
            &mut m,
        );
        let h = m.histogram("frag.3.lag").expect("lag histogram");
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(25_000));
    }

    #[test]
    fn staleness_probe_is_per_node() {
        let mut t = Telemetry::bounded(16);
        let mut m = Metrics::new();
        t.record(
            SimTime(1),
            TelemetryEvent::ReadObserved {
                node: 2,
                fragment: 0,
                seen_seq: 5,
                agent_seq: 9,
            },
            &mut m,
        );
        let h = m
            .histogram("node.2.staleness")
            .expect("staleness histogram");
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Some(4));
    }

    #[test]
    fn move_stall_probe_spans_request_to_arrival() {
        let mut t = Telemetry::bounded(16);
        let mut m = Metrics::new();
        t.record(
            SimTime::from_secs(1),
            TelemetryEvent::MoveRequested {
                fragment: 1,
                from: 0,
                to: 2,
            },
            &mut m,
        );
        t.record(
            SimTime::from_secs(4),
            TelemetryEvent::TokenArrived {
                fragment: 1,
                node: 2,
            },
            &mut m,
        );
        let h = m.histogram("frag.1.move_stall").expect("stall histogram");
        assert_eq!(h.max(), Some(3_000_000));
        // A second arrival with no open request records nothing.
        t.record(
            SimTime::from_secs(5),
            TelemetryEvent::TokenArrived {
                fragment: 1,
                node: 0,
            },
            &mut m,
        );
        assert_eq!(m.histogram("frag.1.move_stall").unwrap().count(), 1);
    }

    #[test]
    fn move_stall_observed_not_leaked_on_matching_abort() {
        let mut t = Telemetry::bounded(16);
        let mut m = Metrics::new();
        t.record(
            SimTime::from_secs(1),
            TelemetryEvent::MoveRequested {
                fragment: 2,
                from: 0,
                to: 3,
            },
            &mut m,
        );
        // An unrelated deferred request (different endpoints) must not
        // close the in-flight move's window.
        t.record(
            SimTime::from_secs(2),
            TelemetryEvent::MoveAborted {
                fragment: 2,
                from: 3,
                to: 4,
            },
            &mut m,
        );
        assert!(m.histogram("frag.2.move_stall").is_none());
        // The matching abort (the opener crashed mid-move) closes the
        // window WITH an observation — emitted, not leaked.
        t.record(
            SimTime::from_secs(5),
            TelemetryEvent::MoveAborted {
                fragment: 2,
                from: 0,
                to: 3,
            },
            &mut m,
        );
        let h = m.histogram("frag.2.move_stall").expect("stall observed");
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Some(4_000_000));
        // And the window is closed: a later arrival records nothing new.
        t.record(
            SimTime::from_secs(9),
            TelemetryEvent::TokenArrived {
                fragment: 2,
                node: 0,
            },
            &mut m,
        );
        assert_eq!(m.histogram("frag.2.move_stall").unwrap().count(), 1);
    }

    #[test]
    fn unavail_window_spans_election_to_recovery() {
        let mut t = Telemetry::bounded(16);
        let mut m = Metrics::new();
        t.record(
            SimTime::from_secs(1),
            TelemetryEvent::ElectionStarted {
                fragment: 0,
                epoch: 3,
                candidate: 1,
            },
            &mut m,
        );
        // A timed-out round keeps the window open for the retry.
        t.record(
            SimTime::from_secs(2),
            TelemetryEvent::ElectionAborted {
                fragment: 0,
                epoch: 3,
                reason: keys::ELECTION_ABORT_TIMEOUT,
            },
            &mut m,
        );
        t.record(
            SimTime::from_secs(3),
            TelemetryEvent::ElectionStarted {
                fragment: 0,
                epoch: 3,
                candidate: 1,
            },
            &mut m,
        );
        t.record(
            SimTime::from_secs(4),
            TelemetryEvent::TokenRecovered {
                fragment: 0,
                epoch: 4,
                node: 1,
            },
            &mut m,
        );
        let h = m.histogram("frag.0.unavail_window").expect("window");
        assert_eq!(h.count(), 1);
        // Measured from the FIRST round, not the retry.
        assert_eq!(h.max(), Some(3_000_000));
        // A false suspicion discards the window entirely.
        t.record(
            SimTime::from_secs(10),
            TelemetryEvent::ElectionStarted {
                fragment: 0,
                epoch: 4,
                candidate: 2,
            },
            &mut m,
        );
        t.record(
            SimTime::from_secs(11),
            TelemetryEvent::ElectionAborted {
                fragment: 0,
                epoch: 4,
                reason: keys::ELECTION_ABORT_HOME_ALIVE,
            },
            &mut m,
        );
        t.record(
            SimTime::from_secs(20),
            TelemetryEvent::TokenRecovered {
                fragment: 0,
                epoch: 5,
                node: 2,
            },
            &mut m,
        );
        assert_eq!(m.histogram("frag.0.unavail_window").unwrap().count(), 1);
    }

    #[test]
    fn batch_discarded_closes_the_lag_join() {
        let mut t = Telemetry::bounded(16);
        let mut m = Metrics::new();
        let c = cause(1, 4);
        t.record(
            SimTime(0),
            TelemetryEvent::Committed {
                cause: c,
                node: 0,
                txn_seq: 0,
            },
            &mut m,
        );
        t.record(
            SimTime(10),
            TelemetryEvent::BatchDiscarded { cause: c, node: 0 },
            &mut m,
        );
        // A stray install after the discard joins to nothing.
        t.record(
            SimTime(99),
            TelemetryEvent::Installed { cause: c, node: 2 },
            &mut m,
        );
        assert!(m.histogram("frag.1.lag").is_none());
    }

    #[test]
    fn self_heal_events_serialize_flat() {
        let r = TelemetryRecord {
            at: SimTime::from_millis(2),
            event: TelemetryEvent::SuspectRaised {
                node: 1,
                suspect: 0,
            },
        };
        assert_eq!(
            r.to_json_line(),
            "{\"at_micros\":2000,\"event\":\"suspect_raised\",\"node\":1,\"suspect\":0}"
        );
        let r = TelemetryRecord {
            at: SimTime(7),
            event: TelemetryEvent::ElectionAborted {
                fragment: 3,
                epoch: 2,
                reason: keys::ELECTION_ABORT_HOME_ALIVE,
            },
        };
        assert_eq!(
            r.to_json_line(),
            "{\"at_micros\":7,\"event\":\"election_aborted\",\"fragment\":3,\"epoch\":2,\"reason\":\"home_alive\"}"
        );
        let r = TelemetryRecord {
            at: SimTime(8),
            event: TelemetryEvent::BatchDiscarded {
                cause: cause(2, 11),
                node: 4,
            },
        };
        assert_eq!(
            r.to_json_line(),
            "{\"at_micros\":8,\"event\":\"batch_discarded\",\"fragment\":2,\"epoch\":0,\"frag_seq\":11,\"node\":4}"
        );
    }

    #[test]
    fn replica_set_changed_publishes_gauge_and_serializes_flat() {
        let mut t = Telemetry::bounded(16);
        let mut m = Metrics::new();
        t.record(
            SimTime::from_secs(1),
            TelemetryEvent::ReplicaSetChanged {
                fragment: 3,
                from_count: 8,
                to_count: 3,
            },
            &mut m,
        );
        assert_eq!(m.counter("frag.3.replica_count"), 3);
        // Gauge semantics: a later change overwrites, not accumulates.
        t.record(
            SimTime::from_secs(2),
            TelemetryEvent::ReplicaSetChanged {
                fragment: 3,
                from_count: 3,
                to_count: 5,
            },
            &mut m,
        );
        assert_eq!(m.counter("frag.3.replica_count"), 5);
        let r = TelemetryRecord {
            at: SimTime(12),
            event: TelemetryEvent::ReplicaSetChanged {
                fragment: 3,
                from_count: 8,
                to_count: 3,
            },
        };
        assert_eq!(
            r.to_json_line(),
            "{\"at_micros\":12,\"event\":\"replica_set_changed\",\"fragment\":3,\"from_count\":8,\"to_count\":3}"
        );
    }

    #[test]
    fn dim_keys_intern_once() {
        let mut k = DimKeys::new();
        assert_eq!(k.key("frag", 3, "lag"), "frag.3.lag");
        assert_eq!(k.key("frag", 3, "lag"), "frag.3.lag");
        assert_eq!(k.key("node", 3, "lag"), "node.3.lag");
        assert_eq!(k.interned(), 2);
    }

    #[test]
    fn steady_state_observation_interns_no_new_keys() {
        let mut t = Telemetry::bounded(64);
        let mut m = Metrics::new();
        let warm = |t: &mut Telemetry, m: &mut Metrics, at: u64| {
            t.record(
                SimTime(at),
                TelemetryEvent::ReadObserved {
                    node: 1,
                    fragment: 0,
                    seen_seq: 0,
                    agent_seq: 1,
                },
                m,
            );
        };
        warm(&mut t, &mut m, 1);
        let after_first = t.probes().interned_keys();
        for i in 2..50 {
            warm(&mut t, &mut m, i);
        }
        assert_eq!(t.probes().interned_keys(), after_first);
        assert_eq!(m.histogram("node.1.staleness").unwrap().count(), 49);
    }

    /// One event of every variant, with distinct field values.
    fn one_of_each() -> Vec<TelemetryEvent> {
        use TelemetryEvent::*;
        let c = CausalId {
            fragment: 3,
            epoch: 2,
            frag_seq: u64::MAX,
        };
        vec![
            Initiated {
                node: 1,
                fragment: 2,
                txn_seq: 3,
            },
            Committed {
                cause: c,
                node: 4,
                txn_seq: 5,
            },
            BroadcastSent {
                cause: c,
                node: 4,
                recipients: 6,
            },
            Installed { cause: c, node: 7 },
            Aborted {
                node: 1,
                fragment: 2,
                txn_seq: 3,
                reason: "unavailable",
            },
            ReadObserved {
                node: 1,
                fragment: 2,
                seen_seq: 3,
                agent_seq: 4,
            },
            HeldBack {
                cause: c,
                node: 5,
                depth: 6,
            },
            LockWaitStarted {
                node: 1,
                fragment: 2,
                txn_seq: 3,
                sites: 4,
            },
            LockGranted {
                node: 1,
                fragment: 2,
                txn_seq: 3,
            },
            SubmissionQueued {
                fragment: 2,
                depth: 3,
            },
            MoveRequested {
                fragment: 1,
                from: 2,
                to: 3,
            },
            TokenArrived {
                fragment: 1,
                node: 3,
            },
            MoveAborted {
                fragment: 1,
                from: 2,
                to: 3,
            },
            Dropped {
                from: 1,
                to: 2,
                count: 3,
            },
            Retransmit {
                from: 1,
                to: 2,
                count: 3,
            },
            Delivered {
                from: 1,
                to: 2,
                kind: "vote_req",
            },
            Crash { node: u32::MAX },
            Recover {
                node: 1,
                behind_fragments: 2,
            },
            CatchupComplete { node: 1 },
            SuspectRaised {
                node: 1,
                suspect: 0,
            },
            ElectionStarted {
                fragment: 1,
                epoch: 2,
                candidate: 3,
            },
            ElectionWon {
                fragment: 1,
                epoch: 3,
                node: 3,
            },
            ElectionAborted {
                fragment: 1,
                epoch: 2,
                reason: keys::ELECTION_ABORT_CANDIDATE_CRASHED,
            },
            TokenRecovered {
                fragment: 1,
                epoch: 3,
                node: 3,
            },
            BatchDiscarded { cause: c, node: 4 },
            ReplicaSetChanged {
                fragment: 1,
                from_count: 8,
                to_count: 3,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_the_wire_form() {
        let events = one_of_each();
        let names: std::collections::BTreeSet<&str> = events.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), 26, "one event per variant");
        let records: Vec<TelemetryRecord> = events
            .into_iter()
            .enumerate()
            .map(|(i, event)| TelemetryRecord {
                at: SimTime(10 * i as u64),
                event,
            })
            .collect();
        for r in &records {
            assert_eq!(
                TelemetryRecord::from_json_line(&r.to_json_line()),
                Ok(r.clone())
            );
        }
        let text = render_jsonl(&records, 7);
        assert!(text.starts_with("# 7 earlier events dropped\n"));
        assert_eq!(parse_jsonl(&text), Ok(records));
    }

    #[test]
    fn decoder_accepts_only_what_the_encoder_emits() {
        let ok = "{\"at_micros\":5,\"event\":\"submission_queued\",\"fragment\":7,\"depth\":1}";
        assert!(TelemetryRecord::from_json_line(ok).is_ok());
        for bad in [
            "",
            "not json",
            "{\"event\":\"crash\",\"node\":1}",
            "{\"at_micros\":x,\"event\":\"crash\",\"node\":1}",
            "{\"at_micros\":5,\"event\":\"mystery\"}",
            // Missing, extra, duplicated and reordered fields.
            "{\"at_micros\":5,\"event\":\"submission_queued\",\"fragment\":7}",
            "{\"at_micros\":5,\"event\":\"crash\",\"node\":1,\"x\":3}",
            "{\"at_micros\":5,\"event\":\"crash\",\"node\":1,\"node\":1}",
            "{\"at_micros\":5,\"event\":\"token_arrived\",\"node\":1,\"fragment\":7}",
            // Non-canonical numbers, whitespace, out-of-range ids.
            "{\"at_micros\":05,\"event\":\"crash\",\"node\":1}",
            "{\"at_micros\":5,\"event\":\"crash\",\"node\":+1}",
            "{\"at_micros\":5, \"event\":\"crash\",\"node\":1}",
            "{\"at_micros\":5,\"event\":\"crash\",\"node\":4294967296}",
            // Words outside their registry, including another field's.
            "{\"at_micros\":5,\"event\":\"aborted\",\"node\":1,\"fragment\":3,\"txn_seq\":0,\"reason\":\"node_down\"}",
            "{\"at_micros\":5,\"event\":\"aborted\",\"node\":1,\"fragment\":3,\"txn_seq\":0,\"reason\":\"timeout\"}",
            "{\"at_micros\":5,\"event\":\"delivered\",\"from\":1,\"to\":2,\"kind\":\"qu\\\"asi\"}",
        ] {
            assert!(TelemetryRecord::from_json_line(bad).is_err(), "accepted {bad}");
        }
        // Line numbers count comments and blanks.
        let err = parse_jsonl(&format!("# header\n\n{ok}\n{{}}\n")).unwrap_err();
        assert!(err.starts_with("line 4:"), "{err}");
    }

    #[test]
    fn json_lines_are_flat() {
        let r = TelemetryRecord {
            at: SimTime::from_millis(5),
            event: TelemetryEvent::Delivered {
                from: 1,
                to: 2,
                kind: "quasi",
            },
        };
        assert_eq!(
            r.to_json_line(),
            "{\"at_micros\":5000,\"event\":\"delivered\",\"from\":1,\"to\":2,\"kind\":\"quasi\"}"
        );
        let r = TelemetryRecord {
            at: SimTime(0),
            event: TelemetryEvent::Committed {
                cause: cause(2, 11),
                node: 4,
                txn_seq: 9,
            },
        };
        assert_eq!(
            r.to_json_line(),
            "{\"at_micros\":0,\"event\":\"committed\",\"fragment\":2,\"epoch\":0,\"frag_seq\":11,\"node\":4,\"txn_seq\":9}"
        );
        let r = TelemetryRecord {
            at: SimTime(3),
            event: TelemetryEvent::HeldBack {
                cause: cause(1, 6),
                node: 2,
                depth: 4,
            },
        };
        assert_eq!(
            r.to_json_line(),
            "{\"at_micros\":3,\"event\":\"held_back\",\"fragment\":1,\"epoch\":0,\"frag_seq\":6,\"node\":2,\"depth\":4}"
        );
    }

    #[test]
    fn lock_pair_events_serialize_flat() {
        let r = TelemetryRecord {
            at: SimTime(10),
            event: TelemetryEvent::LockWaitStarted {
                node: 1,
                fragment: 2,
                txn_seq: 5,
                sites: 3,
            },
        };
        assert_eq!(
            r.to_json_line(),
            "{\"at_micros\":10,\"event\":\"lock_wait_started\",\"node\":1,\"fragment\":2,\"txn_seq\":5,\"sites\":3}"
        );
        let r = TelemetryRecord {
            at: SimTime(20),
            event: TelemetryEvent::LockGranted {
                node: 1,
                fragment: 2,
                txn_seq: 5,
            },
        };
        assert_eq!(
            r.to_json_line(),
            "{\"at_micros\":20,\"event\":\"lock_granted\",\"node\":1,\"fragment\":2,\"txn_seq\":5}"
        );
    }

    #[test]
    fn lag_sketch_tracks_the_probe_histograms() {
        use crate::histogram::Histogram;
        let mut t = Telemetry::bounded(2); // tiny ring: eviction is constant
        let mut m = Metrics::new();
        for seq in 0..8u64 {
            let c = cause((seq % 2) as u32, seq);
            t.record(
                SimTime(1_000 * seq),
                TelemetryEvent::Committed {
                    cause: c,
                    node: 0,
                    txn_seq: seq,
                },
                &mut m,
            );
            t.record(
                SimTime(1_000 * seq + 250 * (seq + 1)),
                TelemetryEvent::Installed { cause: c, node: 1 },
                &mut m,
            );
        }
        // The merged sketch saw every install despite ring eviction, and
        // its exact moments equal the union of the per-frag histograms.
        let s = t.probes().lag_sketch();
        let mut union = Histogram::new();
        union.merge(m.histogram("frag.0.lag").unwrap());
        union.merge(m.histogram("frag.1.lag").unwrap());
        assert_eq!(s.count(), union.count());
        assert_eq!(s.sum(), union.sum());
        assert_eq!(s.min(), union.min());
        assert_eq!(s.max(), union.max());
        assert!(t.dropped() > 0, "ring must actually have wrapped");
    }

    #[test]
    fn probes_survive_buffer_eviction() {
        // Cap of 1: every event is evicted immediately, yet derived metrics
        // keep counting.
        let mut t = Telemetry::bounded(1);
        let mut m = Metrics::new();
        let c = cause(0, 0);
        t.record(
            SimTime(0),
            TelemetryEvent::Committed {
                cause: c,
                node: 0,
                txn_seq: 0,
            },
            &mut m,
        );
        t.record(
            SimTime(9),
            TelemetryEvent::Installed { cause: c, node: 1 },
            &mut m,
        );
        assert_eq!(m.histogram("frag.0.lag").unwrap().count(), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.dropped(), 1);
    }
}
