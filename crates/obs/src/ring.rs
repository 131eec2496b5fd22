//! The lock-free span sink: a fixed-capacity ring of seqlock slots.
//!
//! Execution code (scheduler workers, spawn-per-query scoped threads,
//! client threads driving pipelines) records [`SpanEvent`]s into a
//! shared [`TraceSink`] without locks: a writer claims a ticket with
//! one `fetch_add`, then publishes the event into `ticket % capacity`
//! under a per-slot sequence word (seqlock protocol). When the ring
//! wraps, the **newest events win** — like Chrome's own trace ring, the
//! sink keeps the most recent window and counts what it overwrote
//! ([`TraceSink::dropped`]).
//!
//! Once the ring has wrapped, two writers can address one slot. A
//! writer therefore claims its slot by a compare-and-swap from the
//! sequence word it observed to "being written" — the standard seqlock
//! writer — so only one writer owns a slot at a time. A writer that
//! finds the slot being written, or already holding a newer ticket,
//! drops its event and counts it ([`TraceSink::lost`]) instead of
//! mixing its payload into another writer's.
//!
//! Overhead budget: recording one event is one `fetch_add`, one load,
//! one compare-and-swap and five stores (and one clock read at span
//! start) — a handful of atomics per *morsel batch*, not per tuple, and
//! nothing at all when no sink is attached (one `Option` test).
//!
//! Readers ([`TraceSink::snapshot`]) validate each slot's sequence word
//! before and after copying it and discard torn slots, so a snapshot
//! taken while writers are live yields only consistent events. The
//! intended use reads after the traced work quiesced (end of run), when
//! every published event is consistent by the thread-join edge.

use std::sync::atomic::{fence, AtomicU16, AtomicU64, Ordering};
use std::time::Instant;

/// What a span covers, coarse-to-fine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// One full query execution (admission to result).
    Query,
    /// One pipeline stage of a plan (a `QueryPlan::stages` index).
    Stage,
    /// One executed morsel batch inside a stage.
    Morsel,
}

impl SpanKind {
    /// Stable lowercase label (the Chrome export's `cat` field).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::Stage => "stage",
            SpanKind::Morsel => "morsel",
        }
    }

    fn from_u8(v: u8) -> SpanKind {
        match v {
            0 => SpanKind::Query,
            1 => SpanKind::Stage,
            _ => SpanKind::Morsel,
        }
    }
}

/// Stage index used when a span has no stage (query spans).
pub const NO_STAGE: u16 = u16::MAX;

/// One recorded span. Identity fields are small integers — the sink
/// knows nothing about queries or engines; callers map their enums and
/// supply name tables at export time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    pub kind: SpanKind,
    /// Caller-side query ordinal (e.g. index into `QueryId::ALL`).
    pub query: u16,
    /// Caller-side engine ordinal.
    pub engine: u8,
    /// Stage index, [`NO_STAGE`] for query spans.
    pub stage: u16,
    /// Small per-OS-thread id (see [`thread_tid`]).
    pub tid: u16,
    /// Per-sink query-run sequence number tying spans of one run.
    pub run_seq: u32,
    /// Rows covered (morsel batches; 0 otherwise).
    pub rows: u32,
    /// Span start, nanoseconds since the sink's epoch.
    pub t0_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

impl SpanEvent {
    fn pack(&self) -> [u64; 4] {
        let w0 = (self.kind as u64)
            | ((self.engine as u64) << 8)
            | ((self.stage as u64) << 16)
            | ((self.query as u64) << 32)
            | ((self.tid as u64) << 48);
        let w1 = (self.run_seq as u64) | ((self.rows as u64) << 32);
        [w0, w1, self.t0_ns, self.dur_ns]
    }

    fn unpack(w: [u64; 4]) -> SpanEvent {
        SpanEvent {
            kind: SpanKind::from_u8((w[0] & 0xff) as u8),
            engine: ((w[0] >> 8) & 0xff) as u8,
            stage: ((w[0] >> 16) & 0xffff) as u16,
            query: ((w[0] >> 32) & 0xffff) as u16,
            tid: ((w[0] >> 48) & 0xffff) as u16,
            run_seq: (w[1] & 0xffff_ffff) as u32,
            rows: (w[1] >> 32) as u32,
            t0_ns: w[2],
            dur_ns: w[3],
        }
    }
}

/// Slot states below this are not published events: 0 = never written,
/// 1 = write in progress. Published slots store `ticket + SEQ_BASE`.
const SEQ_BASE: u64 = 2;
const SEQ_EMPTY: u64 = 0;
const SEQ_WRITING: u64 = 1;

struct Slot {
    /// Seqlock word: [`SEQ_EMPTY`], [`SEQ_WRITING`], or
    /// `ticket + SEQ_BASE` once the event at that ticket is published.
    seq: AtomicU64,
    data: [AtomicU64; 4],
}

/// The shared event sink. See the module docs for the protocol.
pub struct TraceSink {
    slots: Box<[Slot]>,
    /// Next write ticket; `ticket % slots.len()` addresses the slot.
    head: AtomicU64,
    /// Events whose writer found its slot owned by another writer.
    lost: AtomicU64,
    /// Per-sink query-run sequence source (see [`QueryTrace::new`]).
    next_run: AtomicU64,
    epoch: Instant,
}

impl TraceSink {
    /// Sink holding the most recent `capacity` events (rounded up to a
    /// power of two, minimum 8).
    pub fn new(capacity: usize) -> TraceSink {
        let cap = capacity.max(8).next_power_of_two();
        TraceSink {
            slots: (0..cap)
                .map(|_| Slot {
                    seq: AtomicU64::new(SEQ_EMPTY),
                    data: Default::default(),
                })
                .collect(),
            head: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            next_run: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Slot count of the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Nanoseconds since the sink's epoch (the time base of every
    /// recorded span).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Events recorded so far (including ones since overwritten).
    pub fn recorded(&self) -> u64 {
        // ORDERING: Relaxed — monotonic stats read; no data is
        // published through the head counter.
        self.head.load(Ordering::Relaxed)
    }

    /// Events lost to wrap-around: the ring keeps the newest
    /// `capacity()` events, so this is how many old ones were
    /// overwritten (the drop-on-full counter).
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Events dropped because another writer owned their slot: the ring
    /// had wrapped onto a slot still being written, or already holding
    /// a newer event. Counted apart from [`TraceSink::dropped`], which
    /// counts overwritten events.
    pub fn lost(&self) -> u64 {
        // ORDERING: Relaxed — monotonic stats read.
        self.lost.load(Ordering::Relaxed)
    }

    /// Record one event (lock-free; callable from any thread).
    pub fn push(&self, ev: SpanEvent) {
        // ORDERING: Relaxed — the ticket only picks a slot; the slot's
        // own seq word publishes the payload.
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) & (self.slots.len() - 1)];
        let words = ev.pack();
        // ORDERING: Relaxed load and CAS — they only decide which writer
        // owns the slot; the CAS's atomicity makes that one writer, and
        // no payload is read through them. The fence below orders the
        // claim before the payload stores.
        let seen = slot.seq.load(Ordering::Relaxed);
        if seen == SEQ_WRITING
            || seen >= ticket + SEQ_BASE
            || slot
                .seq
                .compare_exchange(seen, SEQ_WRITING, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            // ORDERING: Relaxed — monotonic stats counter.
            self.lost.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // ORDERING: Release fence — no payload store below may become
        // visible before the WRITING claim above, so a reader whose
        // Acquire fence sees any new payload word re-reads a changed seq
        // and discards the slot (the seqlock writer's fence).
        fence(Ordering::Release);
        for (i, (d, w)) in slot.data.iter().zip(words).enumerate() {
            if i == 2 {
                test_pause::between_words();
            }
            // ORDERING: Relaxed — payload words; the fence above and
            // the publishing store below carry them.
            d.store(w, Ordering::Relaxed);
        }
        // ORDERING: Release — a reader that sees the published ticket
        // sees the full payload.
        slot.seq.store(ticket + SEQ_BASE, Ordering::Release);
    }

    /// Copy out every consistent published event, oldest first. Slots
    /// mid-write (or overwritten during the copy) are skipped — with
    /// quiesced writers the snapshot is exact.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        let mut out: Vec<(u64, SpanEvent)> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            // ORDERING: Acquire — pairs with the writer's publishing
            // release store so the payload reads below see the words
            // that belong to this sequence value.
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 < SEQ_BASE {
                continue;
            }
            let mut words = [0u64; 4];
            for (w, d) in words.iter_mut().zip(&slot.data) {
                // ORDERING: Relaxed — validated by the seq re-check.
                *w = d.load(Ordering::Relaxed);
            }
            // ORDERING: Acquire fence + relaxed re-load — the seqlock
            // validation read: the fence keeps the payload loads above
            // from drifting past the re-check (crossbeam's pattern).
            fence(Ordering::Acquire);
            // ORDERING: Relaxed — ordered by the fence directly above.
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // torn: overwritten while copying
            }
            out.push((s1 - SEQ_BASE, SpanEvent::unpack(words)));
        }
        out.sort_by_key(|(ticket, _)| *ticket);
        out.into_iter().map(|(_, ev)| ev).collect()
    }
}

/// A pause a test can place in the middle of a writer's payload stores,
/// between its claim and its publish, to interleave two writers of one
/// slot deterministically. Compiled to nothing outside tests.
mod test_pause {
    #[cfg(test)]
    thread_local! {
        pub(super) static HOOK: std::cell::RefCell<Option<Box<dyn FnMut()>>> =
            const { std::cell::RefCell::new(None) };
    }

    #[inline(always)]
    pub(super) fn between_words() {
        #[cfg(test)]
        HOOK.with(|h| {
            if let Some(f) = h.borrow_mut().as_mut() {
                f()
            }
        });
    }
}

/// Small dense per-OS-thread id for trace attribution (Chrome `tid`).
/// Assigned on first use per thread; wraps at 65536 threads.
pub fn thread_tid() -> u16 {
    static NEXT: AtomicU16 = AtomicU16::new(0);
    thread_local! {
        static TID: u16 =
            // ORDERING: Relaxed — a unique-id dispenser; no data is
            // published through it.
            NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Per-run recording handle: carries the identity every span of one
/// query execution shares (run sequence, query ordinal, engine) plus
/// the *current stage* morsel batches attribute themselves to.
///
/// Stages of one run execute sequentially (pipeline breakers are
/// barriers), so a single current-stage word per run is race-free in
/// practice; morsel events racing a stage transition would at worst
/// carry the neighbouring stage index — attribution noise, not
/// corruption.
pub struct QueryTrace<'a> {
    sink: &'a TraceSink,
    run_seq: u32,
    query: u16,
    engine: u8,
    cur_stage: AtomicU16,
}

impl<'a> QueryTrace<'a> {
    /// New handle for one query run; draws the next run sequence
    /// number from the sink.
    pub fn new(sink: &'a TraceSink, query: u16, engine: u8) -> QueryTrace<'a> {
        // ORDERING: Relaxed — unique-id dispenser.
        let run_seq = sink.next_run.fetch_add(1, Ordering::Relaxed) as u32;
        QueryTrace {
            sink,
            run_seq,
            query,
            engine,
            cur_stage: AtomicU16::new(NO_STAGE),
        }
    }

    /// The sink spans are recorded into.
    pub fn sink(&self) -> &'a TraceSink {
        self.sink
    }

    /// This run's sequence number within the sink.
    pub fn run_seq(&self) -> u32 {
        self.run_seq
    }

    fn record(&self, kind: SpanKind, stage: u16, rows: u32, t0_ns: u64) {
        self.sink.push(SpanEvent {
            kind,
            query: self.query,
            engine: self.engine,
            stage,
            tid: thread_tid(),
            run_seq: self.run_seq,
            rows,
            t0_ns,
            dur_ns: self.sink.now_ns().saturating_sub(t0_ns),
        });
    }

    /// RAII span covering the whole query execution.
    pub fn query_span<'t>(&'t self) -> SpanGuard<'t, 'a> {
        SpanGuard {
            trace: self,
            kind: SpanKind::Query,
            stage: NO_STAGE,
            t0_ns: self.sink.now_ns(),
        }
    }

    /// RAII span covering pipeline stage `idx`; morsel batches recorded
    /// while it is live attribute themselves to this stage.
    pub fn stage_span<'t>(&'t self, idx: u16) -> SpanGuard<'t, 'a> {
        // ORDERING: Relaxed — attribution label (see the type docs).
        self.cur_stage.store(idx, Ordering::Relaxed);
        SpanGuard {
            trace: self,
            kind: SpanKind::Stage,
            stage: idx,
            t0_ns: self.sink.now_ns(),
        }
    }

    /// Record one executed morsel batch of `rows` rows that started at
    /// `t0_ns` (from [`TraceSink::now_ns`] via [`QueryTrace::now_ns`]).
    #[inline]
    pub fn record_morsel(&self, t0_ns: u64, rows: u32) {
        // ORDERING: Relaxed — attribution label.
        let stage = self.cur_stage.load(Ordering::Relaxed);
        self.record(SpanKind::Morsel, stage, rows, t0_ns);
    }

    /// The sink's clock (span start timestamps).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.sink.now_ns()
    }
}

/// RAII guard of one span: records the event (with the elapsed
/// duration) into the sink when dropped.
pub struct SpanGuard<'t, 'a> {
    trace: &'t QueryTrace<'a>,
    kind: SpanKind,
    stage: u16,
    t0_ns: u64,
}

impl Drop for SpanGuard<'_, '_> {
    fn drop(&mut self) {
        self.trace.record(self.kind, self.stage, 0, self.t0_ns);
        if self.kind == SpanKind::Stage {
            // ORDERING: Relaxed — attribution label reset.
            self.trace.cur_stage.store(NO_STAGE, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(run_seq: u32, t0: u64) -> SpanEvent {
        SpanEvent {
            kind: SpanKind::Morsel,
            query: 3,
            engine: 1,
            stage: 2,
            tid: thread_tid(),
            run_seq,
            rows: 1024,
            t0_ns: t0,
            dur_ns: 5,
        }
    }

    #[test]
    fn events_pack_roundtrip() {
        let e = SpanEvent {
            kind: SpanKind::Stage,
            query: 11,
            engine: 2,
            stage: 4,
            tid: 7,
            run_seq: 123_456,
            rows: 0,
            t0_ns: u64::MAX / 3,
            dur_ns: 42,
        };
        assert_eq!(SpanEvent::unpack(e.pack()), e);
    }

    #[test]
    fn snapshot_returns_events_in_order() {
        let sink = TraceSink::new(16);
        for i in 0..10 {
            sink.push(ev(i, i as u64 * 100));
        }
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 10);
        assert!(snap.windows(2).all(|w| w[0].run_seq < w[1].run_seq));
        assert_eq!(sink.dropped(), 0);
        assert_eq!(sink.recorded(), 10);
    }

    #[test]
    fn wrap_around_keeps_newest_and_counts_dropped() {
        let sink = TraceSink::new(8); // capacity rounds to 8
        assert_eq!(sink.capacity(), 8);
        for i in 0..20 {
            sink.push(ev(i, i as u64));
        }
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 8, "ring keeps exactly capacity events");
        let seqs: Vec<u32> = snap.iter().map(|e| e.run_seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u32>>(), "newest window wins");
        assert_eq!(sink.dropped(), 12);
        assert_eq!(sink.recorded(), 20);
    }

    #[test]
    fn concurrent_writers_publish_consistent_events() {
        let sink = TraceSink::new(1 << 12);
        let threads = 8;
        let per = 400; // 3200 < 4096: nothing wraps, all must survive
        std::thread::scope(|s| {
            for t in 0..threads {
                let sink = &sink;
                s.spawn(move || {
                    for i in 0..per {
                        sink.push(SpanEvent {
                            kind: SpanKind::Morsel,
                            query: t as u16,
                            engine: t as u8,
                            stage: i as u16,
                            tid: thread_tid(),
                            run_seq: t,
                            rows: i,
                            t0_ns: (t as u64) << 32 | i as u64,
                            dur_ns: i as u64,
                        });
                    }
                });
            }
        });
        let snap = sink.snapshot();
        assert_eq!(snap.len(), (threads * per) as usize);
        assert_eq!(sink.dropped(), 0);
        for e in &snap {
            // Self-consistency: every field derives from (t, i); torn
            // mixes of two writers would break the relations.
            assert_eq!(e.query as u32, e.run_seq);
            assert_eq!(e.engine as u32, e.run_seq);
            assert_eq!(e.stage as u32, e.rows);
            assert_eq!(e.t0_ns, (e.run_seq as u64) << 32 | e.rows as u64);
        }
    }

    #[test]
    fn concurrent_wrapping_writers_never_yield_torn_events() {
        // Tiny ring, heavy overwrite pressure, snapshots racing pushes.
        let sink = TraceSink::new(8);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let sink = &sink;
                s.spawn(move || {
                    for i in 0..5_000u32 {
                        let v = (t << 16) | (i & 0xffff);
                        sink.push(SpanEvent {
                            kind: SpanKind::Morsel,
                            query: 0,
                            engine: 0,
                            stage: 0,
                            tid: 0,
                            run_seq: v,
                            rows: v,
                            t0_ns: v as u64,
                            dur_ns: v as u64,
                        });
                    }
                });
            }
            let sink = &sink;
            s.spawn(move || {
                for _ in 0..200 {
                    for e in sink.snapshot() {
                        assert_eq!(e.run_seq, e.rows, "torn event escaped the seqlock");
                        assert_eq!(e.t0_ns, e.run_seq as u64);
                        assert_eq!(e.dur_ns, e.run_seq as u64);
                    }
                }
            });
        });
        assert_eq!(sink.recorded(), 20_000);
        assert_eq!(sink.dropped(), 20_000 - 8);
        assert!(sink.lost() < 20_000);
    }

    /// Two writers eight tickets apart on a ring of eight slots: the
    /// first pauses halfway through its payload while the second writes
    /// the same slot. Neither may publish a mix of the two events.
    #[test]
    fn a_writer_wrapped_onto_a_slot_mid_write_never_tears_it() {
        let sink = TraceSink::new(8);
        let (paused_tx, paused_rx) = std::sync::mpsc::channel();
        let (resume_tx, resume_rx) = std::sync::mpsc::channel::<()>();
        let consistent = |e: &SpanEvent| e.run_seq == e.rows && e.t0_ns == e.run_seq as u64;
        let tagged = |v: u32| SpanEvent {
            run_seq: v,
            rows: v,
            t0_ns: v as u64,
            dur_ns: v as u64,
            ..ev(0, 0)
        };
        std::thread::scope(|s| {
            let sink = &sink;
            s.spawn(move || {
                test_pause::HOOK.with(|h| {
                    *h.borrow_mut() = Some(Box::new(move || {
                        paused_tx.send(()).unwrap();
                        resume_rx.recv().unwrap();
                    }))
                });
                sink.push(tagged(1)); // ticket 0, slot 0
            });
            paused_rx.recv().unwrap();
            for v in 2..=9 {
                sink.push(tagged(v)); // tickets 1..=8; ticket 8 is slot 0
            }
            resume_tx.send(()).unwrap();
        });
        let snap = sink.snapshot();
        assert!(snap.iter().all(consistent), "torn event published: {snap:?}");
        assert_eq!(sink.recorded(), 9);
        assert_eq!(sink.lost(), 1, "the second writer of slot 0 drops its event");
        assert_eq!(snap.len(), 8);
    }

    #[test]
    fn guards_record_nested_spans() {
        let sink = TraceSink::new(64);
        let qt = QueryTrace::new(&sink, 2, 0);
        {
            let _q = qt.query_span();
            {
                let _s = qt.stage_span(0);
                let t0 = qt.now_ns();
                qt.record_morsel(t0, 500);
            }
            {
                let _s = qt.stage_span(1);
                let t0 = qt.now_ns();
                qt.record_morsel(t0, 300);
            }
        }
        let snap = sink.snapshot();
        // Drop order: morsel(0), stage(0), morsel(1), stage(1), query.
        let kinds: Vec<SpanKind> = snap.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SpanKind::Morsel,
                SpanKind::Stage,
                SpanKind::Morsel,
                SpanKind::Stage,
                SpanKind::Query
            ]
        );
        let query = snap[4];
        assert_eq!(query.stage, NO_STAGE);
        for stage in [snap[1], snap[3]] {
            assert!(stage.t0_ns >= query.t0_ns);
            assert!(stage.t0_ns + stage.dur_ns <= query.t0_ns + query.dur_ns);
        }
        // Morsel events inherit the live stage index.
        assert_eq!(snap[0].stage, 0);
        assert_eq!(snap[0].rows, 500);
        assert_eq!(snap[2].stage, 1);
        assert!(snap.iter().all(|e| e.run_seq == qt.run_seq()));
    }

    #[test]
    fn run_seqs_are_distinct_per_trace() {
        let sink = TraceSink::new(8);
        let a = QueryTrace::new(&sink, 0, 0);
        let b = QueryTrace::new(&sink, 0, 0);
        assert_ne!(a.run_seq(), b.run_seq());
    }
}
