//! Unified telemetry for the Atlas pipeline: spans, counters, a metrics
//! registry, and trace export — dependency-free and allocation-free in
//! steady state.
//!
//! ## Design contract
//!
//! * **No-op when disabled.** A [`Recorder`] is a cheap cloneable handle;
//!   the default handle is disabled and every recording method returns
//!   after a single `Option` check. No wall-clock is read, no lock is
//!   taken, nothing allocates.
//! * **Allocation-free in steady state.** Each thread records into a
//!   fixed-capacity thread-local buffer (reserved once, on the thread's
//!   first event) and drains it into a pre-reserved shared sink — at a
//!   stage barrier, at the end of a pool item, or when the local buffer
//!   fills. Neither side ever grows; overflow events are counted in
//!   [`Recorder::dropped`] instead of reallocating.
//!   `tests/hotpath_alloc.rs` pins this.
//! * **Wall-clock never leaks into model-level output.** Timestamps ride
//!   the trace channel only. Every event carries a [`Event::det`] flag:
//!   deterministic events (kernel applies, reshuffles, stage timings,
//!   plan/sample spans) have a name/args/ordinal sequence that is
//!   byte-identical across thread, shard and worker counts once
//!   timestamps and lanes are stripped — [`det_signature`] computes the
//!   canonical form. Scheduling artifacts (per-worker waits, queue
//!   latencies) are recorded with `det = false` and excluded from
//!   determinism comparisons.
//!
//! ## Export
//!
//! [`write_ndjson`] streams one JSON object per event (schema
//! `atlas-trace/1`, see `docs/OBSERVABILITY.md`); [`write_chrome`] emits
//! Chrome `trace_event` JSON loadable in Perfetto / `chrome://tracing`,
//! with one track per recording lane. The [`MetricsRegistry`] snapshot
//! (monotonic counters such as the Scratch offset-table memo hits and
//! the serve pool totals) is appended to both. Caller-supplied strings
//! ([`TraceMeta`]) go through [`escape`], the workspace's one JSON string
//! escaper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// Maximum key/value pairs one event can carry.
pub const MAX_ARGS: usize = 6;

/// Default shared-sink capacity (events) of [`Recorder::enabled`].
pub const DEFAULT_SINK_CAPACITY: usize = 1 << 16;

/// Default per-thread buffer capacity (events) of [`Recorder::enabled`].
pub const DEFAULT_LOCAL_CAPACITY: usize = 1 << 12;

/// What an [`Event`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A wall-clock interval (`ts_ns` .. `ts_ns + dur_ns`).
    Span,
    /// A point sample of one or more counters (`args`).
    Counter,
}

impl EventKind {
    /// The wire spelling (`"span"` / `"counter"`).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Counter => "counter",
        }
    }
}

/// One recorded telemetry event. Plain data: `&'static str` names, fixed
/// argument slots, no heap — copying one into a buffer allocates nothing.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Event name from the span taxonomy (`kernel.apply`,
    /// `machine.reshuffle`, …; see `docs/OBSERVABILITY.md`).
    pub name: &'static str,
    /// Span or counter.
    pub kind: EventKind,
    /// `true` when the event's name/ordinal/args sequence is part of the
    /// determinism contract (identical across thread/worker counts once
    /// timestamps and lanes are stripped); `false` for scheduling
    /// artifacts like per-worker barrier waits.
    pub det: bool,
    /// Recording lane: a small per-thread ordinal assigned on the
    /// thread's first event, used as the track id in trace viewers.
    /// Presentation only — never part of the deterministic signature.
    pub lane: u32,
    /// Bulk-synchronous step index (or job/stage ordinal for serve and
    /// plan events).
    pub stage: u32,
    /// Shard index, `0` when not shard-scoped.
    pub shard: u32,
    /// Ordinal disambiguating events with equal `(stage, shard, name)`.
    pub ord: u32,
    /// Nanoseconds since the recorder was enabled (trace channel only).
    pub ts_ns: u64,
    /// Span duration in nanoseconds (`0` for counters).
    pub dur_ns: u64,
    n_args: u8,
    args: [(&'static str, u64); MAX_ARGS],
}

impl Event {
    /// The event's key/value arguments, in recording order.
    pub fn args(&self) -> &[(&'static str, u64)] {
        &self.args[..self.n_args as usize]
    }

    /// The canonical timestamp-free, lane-free rendering used for
    /// determinism comparisons and for the stable export order.
    pub fn signature(&self) -> String {
        let mut s = format!(
            "{} {} stage={} shard={} ord={}",
            self.name,
            self.kind.name(),
            self.stage,
            self.shard,
            self.ord
        );
        for (k, v) in self.args() {
            s.push_str(&format!(" {k}={v}"));
        }
        s
    }
}

fn pack_args(args: &[(&'static str, u64)]) -> (u8, [(&'static str, u64); MAX_ARGS]) {
    let mut packed = [("", 0u64); MAX_ARGS];
    let n = args.len().min(MAX_ARGS);
    packed[..n].copy_from_slice(&args[..n]);
    (n as u8, packed)
}

/// The deterministic subsequence of a trace, in canonical form: the
/// sorted [`Event::signature`] lines of every `det` event. Two runs of
/// the same workload — at any thread, shard or worker count — must
/// produce equal signatures (pinned by `tests/trace_determinism.rs`).
pub fn det_signature(events: &[Event]) -> String {
    let mut lines: Vec<String> = events
        .iter()
        .filter(|e| e.det)
        .map(Event::signature)
        .collect();
    lines.sort_unstable();
    lines.join("\n")
}

/// Converts model-level (simulated) seconds to integer nanoseconds for an
/// event argument. Deterministic: a pure function of the input float.
pub fn secs_to_ns(secs: f64) -> u64 {
    (secs * 1e9).round() as u64
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

/// A registry of named monotonic counters and gauges, snapshot in
/// deterministic (name-sorted) order.
///
/// Two write shapes:
///
/// * [`add`](MetricsRegistry::add)/[`set`](MetricsRegistry::set) — one
///   global cell per name;
/// * [`lane_set`](MetricsRegistry::lane_set) — one cell per (name, lane),
///   for per-thread monotonic counters republished from worker threads
///   (the Scratch memo counters pattern: each worker overwrites its own
///   slot, the snapshot sums the lanes).
///
/// In steady state — every key already present — updates take one mutex
/// lock and allocate nothing.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<MetricsMap>,
}

#[derive(Debug, Default)]
struct MetricsMap {
    counters: BTreeMap<&'static str, u64>,
    lanes: BTreeMap<(&'static str, u32), u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name` (creating it at zero).
    pub fn add(&self, name: &'static str, delta: u64) {
        *self
            .inner
            .lock()
            .expect("metrics lock")
            .counters
            .entry(name)
            .or_insert(0) += delta;
    }

    /// Sets the counter `name` to an absolute value (gauge semantics).
    pub fn set(&self, name: &'static str, value: u64) {
        self.inner
            .lock()
            .expect("metrics lock")
            .counters
            .insert(name, value);
    }

    /// Overwrites lane `lane`'s slot of `name` with this thread's latest
    /// monotonic counter value. [`snapshot`](MetricsRegistry::snapshot)
    /// sums the lanes, so totals stay correct after the publishing
    /// threads exit.
    pub fn lane_set(&self, name: &'static str, lane: u32, value: u64) {
        self.inner
            .lock()
            .expect("metrics lock")
            .lanes
            .insert((name, lane), value);
    }

    /// The merged counter snapshot, name-sorted: per-lane slots are
    /// summed into their base name and folded into the global cells.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        let m = self.inner.lock().expect("metrics lock");
        let mut out: BTreeMap<&'static str, u64> = m.counters.clone();
        for (&(name, _), &v) in &m.lanes {
            *out.entry(name).or_insert(0) += v;
        }
        out.into_iter().collect()
    }
}

// ---------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------

/// Start marker of a span: the wall-clock instant captured by
/// [`Recorder::start`], or nothing when the recorder is disabled (so a
/// disabled recorder never reads the clock).
#[derive(Clone, Copy, Debug)]
pub struct SpanStart(Option<Instant>);

struct Inner {
    /// Globally unique id distinguishing this recorder's events in the
    /// per-thread buffers (a thread may outlive many recorders).
    epoch: u64,
    t0: Instant,
    local_cap: usize,
    sink: Mutex<Vec<Event>>,
    sink_cap: usize,
    dropped: AtomicU64,
    next_lane: AtomicU32,
    metrics: MetricsRegistry,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("epoch", &self.epoch)
            .field("sink_cap", &self.sink_cap)
            .field("local_cap", &self.local_cap)
            .finish_non_exhaustive()
    }
}

static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

struct LocalBuf {
    epoch: u64,
    lane: u32,
    /// Back-pointer to the sink the buffered events belong to, so a
    /// recorder switch on this thread can rescue them instead of
    /// dropping them.
    home: Option<Weak<Inner>>,
    /// End timestamp of this thread's latest event — the anchor
    /// [`Recorder::wait_span`] measures idle gaps from.
    last_end_ns: u64,
    /// Last stage a wait span was emitted for (one per stage per lane).
    last_wait_stage: u32,
    buf: Vec<Event>,
}

impl LocalBuf {
    const fn new() -> Self {
        LocalBuf {
            epoch: 0,
            lane: 0,
            home: None,
            last_end_ns: 0,
            last_wait_stage: u32::MAX,
            buf: Vec::new(),
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = const { RefCell::new(LocalBuf::new()) };
}

/// Handle to the telemetry subsystem: cloneable, cheap, and disabled by
/// default. Threaded through the pipeline on `AtlasConfig`.
///
/// ```
/// use atlas_telemetry::Recorder;
/// let rec = Recorder::enabled();
/// let t = rec.start();
/// rec.span("kernel.apply", t, true, 0, 3, 0, &[("ops", 7)]);
/// rec.flush();
/// let events = rec.drain();
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].name, "kernel.apply");
///
/// // The default handle is a no-op: nothing is recorded, nothing allocates.
/// let off = Recorder::default();
/// assert!(!off.is_enabled());
/// off.span("kernel.apply", off.start(), true, 0, 0, 0, &[]);
/// assert!(off.drain().is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// An enabled recorder with the default capacities.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_SINK_CAPACITY, DEFAULT_LOCAL_CAPACITY)
    }

    /// An enabled recorder with explicit shared-sink and per-thread
    /// buffer capacities (events). Both are fixed for the recorder's
    /// lifetime; events past capacity are counted as dropped, never
    /// grown into.
    pub fn with_capacity(sink_cap: usize, local_cap: usize) -> Self {
        let sink_cap = sink_cap.max(1);
        let local_cap = local_cap.max(1);
        Recorder {
            inner: Some(Arc::new(Inner {
                epoch: NEXT_EPOCH.fetch_add(1, Ordering::Relaxed),
                t0: Instant::now(),
                local_cap,
                sink: Mutex::new(Vec::with_capacity(sink_cap)),
                sink_cap,
                dropped: AtomicU64::new(0),
                next_lane: AtomicU32::new(0),
                metrics: MetricsRegistry::new(),
            })),
        }
    }

    /// `true` when this handle records events.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Captures a span's start instant (`None` — no clock read — when
    /// disabled). Pass the result to [`Recorder::span`].
    #[inline]
    pub fn start(&self) -> SpanStart {
        SpanStart(self.inner.as_ref().map(|_| Instant::now()))
    }

    /// Records a span from `start` to now into this thread's buffer.
    /// No-op when disabled or when `start` came from a disabled handle.
    ///
    /// The argument list mirrors the [`Event`] fields one-to-one on
    /// purpose: call sites in the execution hot path must stay
    /// builder-free (no intermediate struct, no allocation).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn span(
        &self,
        name: &'static str,
        start: SpanStart,
        det: bool,
        stage: u32,
        shard: u32,
        ord: u32,
        args: &[(&'static str, u64)],
    ) {
        let Some(inner) = &self.inner else { return };
        let Some(t_start) = start.0 else { return };
        let ts_ns = t_start.saturating_duration_since(inner.t0).as_nanos() as u64;
        let dur_ns = t_start.elapsed().as_nanos() as u64;
        let (n_args, packed) = pack_args(args);
        self.record(
            inner,
            Event {
                name,
                kind: EventKind::Span,
                det,
                lane: 0,
                stage,
                shard,
                ord,
                ts_ns,
                dur_ns,
                n_args,
                args: packed,
            },
        );
    }

    /// Records a point counter sample. No-op when disabled.
    #[inline]
    pub fn counter(
        &self,
        name: &'static str,
        det: bool,
        stage: u32,
        shard: u32,
        ord: u32,
        args: &[(&'static str, u64)],
    ) {
        let Some(inner) = &self.inner else { return };
        let ts_ns = inner.t0.elapsed().as_nanos() as u64;
        let (n_args, packed) = pack_args(args);
        self.record(
            inner,
            Event {
                name,
                kind: EventKind::Counter,
                det,
                lane: 0,
                stage,
                shard,
                ord,
                ts_ns,
                dur_ns: 0,
                n_args,
                args: packed,
            },
        );
    }

    /// Records a *wait* span covering this thread's idle gap — from the
    /// end of its previous event to now — the first time the thread is
    /// seen working on `stage`. This is how per-worker barrier/reshuffle
    /// wait shows up on the flame chart without hooking the thread pool's
    /// internals. Always `det = false`: the gap count and extent depend
    /// on the schedule.
    #[inline]
    pub fn wait_span(&self, name: &'static str, stage: u32) {
        let Some(inner) = &self.inner else { return };
        let now_ns = inner.t0.elapsed().as_nanos() as u64;
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            self.sync_local(inner, &mut l);
            if l.last_wait_stage == stage || l.last_end_ns == 0 || now_ns <= l.last_end_ns {
                l.last_wait_stage = stage;
                return;
            }
            l.last_wait_stage = stage;
            let ev = Event {
                name,
                kind: EventKind::Span,
                det: false,
                lane: l.lane,
                stage,
                shard: 0,
                ord: 0,
                ts_ns: l.last_end_ns,
                dur_ns: now_ns - l.last_end_ns,
                n_args: 0,
                args: [("", 0); MAX_ARGS],
            };
            Self::push_local(inner, &mut l, ev);
        });
    }

    /// Ensures the thread-local buffer belongs to this recorder's epoch:
    /// rescues (flushes) a previous recorder's events to their own sink,
    /// assigns a lane, and reserves the fixed local capacity once.
    fn sync_local(&self, inner: &Arc<Inner>, l: &mut LocalBuf) {
        if l.epoch == inner.epoch {
            return;
        }
        if !l.buf.is_empty() {
            match l.home.as_ref().and_then(Weak::upgrade) {
                Some(old) => old.flush_from(&mut l.buf),
                None => l.buf.clear(),
            }
        }
        l.epoch = inner.epoch;
        l.lane = inner.next_lane.fetch_add(1, Ordering::Relaxed);
        l.home = Some(Arc::downgrade(inner));
        l.last_end_ns = 0;
        l.last_wait_stage = u32::MAX;
        if l.buf.capacity() < inner.local_cap {
            l.buf.reserve_exact(inner.local_cap - l.buf.capacity());
        }
    }

    fn push_local(inner: &Inner, l: &mut LocalBuf, ev: Event) {
        if l.buf.len() == l.buf.capacity() {
            inner.flush_from(&mut l.buf);
        }
        l.last_end_ns = l.last_end_ns.max(ev.ts_ns + ev.dur_ns);
        l.buf.push(ev);
    }

    fn record(&self, inner: &Arc<Inner>, ev: Event) {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            self.sync_local(inner, &mut l);
            let mut ev = ev;
            ev.lane = l.lane;
            Self::push_local(inner, &mut l, ev);
        });
    }

    /// Drains this thread's buffer into the shared sink. Call at a stage
    /// barrier or before a worker thread exits — events still buffered on
    /// a dead thread are lost.
    pub fn flush(&self) {
        let Some(inner) = &self.inner else { return };
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if l.epoch == inner.epoch && !l.buf.is_empty() {
                inner.flush_from(&mut l.buf);
            }
        });
    }

    /// Flushes this thread, then takes every sunk event, in canonical
    /// order (deterministic fields first, timestamps last — stable across
    /// schedules). Other threads must have [`flush`](Recorder::flush)ed
    /// already.
    pub fn drain(&self) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        self.flush();
        // `split_off(0)` keeps the sink's reserved capacity in place, so
        // recording stays allocation-free even after a mid-run drain.
        let mut events = inner.sink.lock().expect("sink lock").split_off(0);
        events.sort_by(|a, b| {
            (
                !a.det, a.name, a.stage, a.shard, a.ord, a.args, a.lane, a.ts_ns,
            )
                .cmp(&(
                    !b.det, b.name, b.stage, b.shard, b.ord, b.args, b.lane, b.ts_ns,
                ))
        });
        events
    }

    /// Events lost to a full sink (the fixed capacities never grow).
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// Adds `delta` to registry counter `name`. No-op when disabled.
    pub fn metric_add(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.add(name, delta);
        }
    }

    /// Sets registry counter `name` to an absolute value. No-op when
    /// disabled.
    pub fn metric_set(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.set(name, value);
        }
    }

    /// Republishes this thread's latest value of a per-thread monotonic
    /// counter under its recording lane (see
    /// [`MetricsRegistry::lane_set`]). No-op when disabled.
    pub fn metric_lane_set(&self, name: &'static str, value: u64) {
        let Some(inner) = &self.inner else { return };
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            self.sync_local(inner, &mut l);
            inner.metrics.lane_set(name, l.lane, value);
        });
    }

    /// The merged, name-sorted metrics snapshot (empty when disabled).
    pub fn metrics_snapshot(&self) -> Vec<(&'static str, u64)> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.metrics.snapshot())
    }
}

impl Inner {
    /// Moves as many buffered events as fit into the sink's remaining
    /// fixed capacity; the excess is counted as dropped. Clears `buf`
    /// either way (its capacity is retained).
    fn flush_from(&self, buf: &mut Vec<Event>) {
        let mut sink = self.sink.lock().expect("sink lock");
        let room = self.sink_cap.saturating_sub(sink.len());
        let take = room.min(buf.len());
        sink.extend_from_slice(&buf[..take]);
        let lost = buf.len() - take;
        if lost > 0 {
            self.dropped.fetch_add(lost as u64, Ordering::Relaxed);
        }
        buf.clear();
    }
}

// ---------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------

/// Trace file format selected by `--trace-format`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON event object per line (schema `atlas-trace/1`).
    #[default]
    Ndjson,
    /// Chrome `trace_event` JSON, loadable in Perfetto.
    Chrome,
}

impl TraceFormat {
    /// The CLI spelling of the variant.
    pub fn name(self) -> &'static str {
        match self {
            TraceFormat::Ndjson => "ndjson",
            TraceFormat::Chrome => "chrome",
        }
    }
}

impl std::str::FromStr for TraceFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "ndjson" => Ok(TraceFormat::Ndjson),
            "chrome" => Ok(TraceFormat::Chrome),
            other => Err(format!(
                "unknown trace format '{other}' (expected ndjson|chrome)"
            )),
        }
    }
}

/// Run-level context stamped into trace headers.
#[derive(Clone, Debug, Default)]
pub struct TraceMeta {
    /// Producing front end (`"atlas-sim"`, `"atlas-serve"`, a test name).
    pub source: String,
    /// Resolved simulation backend (`"statevec"`, `"stabilizer"`, …).
    pub backend: String,
    /// Host CPU count at run time.
    pub host_cpus: usize,
    /// Configured executor thread budget.
    pub threads: usize,
}

/// Escapes a string for embedding in a JSON document (no surrounding
/// quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn write_args_object(out: &mut String, args: &[(&'static str, u64)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{k}\":{v}"));
    }
    out.push('}');
}

/// Writes the NDJSON trace: an `atlas-trace/1` header line, one event
/// object per line, and a final `atlas-metrics/1` counters line.
/// `events` should come from [`Recorder::drain`] (canonical order);
/// `metrics` from [`Recorder::metrics_snapshot`].
pub fn write_ndjson(
    w: &mut dyn Write,
    meta: &TraceMeta,
    events: &[Event],
    metrics: &[(&'static str, u64)],
    dropped: u64,
) -> io::Result<()> {
    writeln!(
        w,
        "{{\"schema\":\"atlas-trace/1\",\"source\":\"{}\",\"backend\":\"{}\",\
         \"host_cpus\":{},\"threads\":{},\"events\":{},\"dropped\":{dropped}}}",
        escape(&meta.source),
        escape(&meta.backend),
        meta.host_cpus,
        meta.threads,
        events.len()
    )?;
    let mut line = String::new();
    for e in events {
        line.clear();
        line.push_str(&format!(
            "{{\"name\":\"{}\",\"kind\":\"{}\",\"det\":{},\"lane\":{},\"stage\":{},\
             \"shard\":{},\"ord\":{},\"ts_ns\":{},\"dur_ns\":{},\"args\":",
            e.name,
            e.kind.name(),
            e.det,
            e.lane,
            e.stage,
            e.shard,
            e.ord,
            e.ts_ns,
            e.dur_ns
        ));
        write_args_object(&mut line, e.args());
        line.push('}');
        writeln!(w, "{line}")?;
    }
    let mut mline = String::from("{\"schema\":\"atlas-metrics/1\",\"counters\":{");
    for (i, (k, v)) in metrics.iter().enumerate() {
        if i > 0 {
            mline.push(',');
        }
        mline.push_str(&format!("\"{k}\":{v}"));
    }
    mline.push_str("}}");
    writeln!(w, "{mline}")
}

/// Writes a Chrome `trace_event` JSON object (`traceEvents` array plus
/// metadata), loadable in Perfetto or `chrome://tracing`. Spans become
/// complete (`"ph":"X"`) events and counters become `"ph":"C"` samples;
/// each recording lane is a named thread track. The metrics snapshot
/// rides along under `otherData.metrics`.
pub fn write_chrome(
    w: &mut dyn Write,
    meta: &TraceMeta,
    events: &[Event],
    metrics: &[(&'static str, u64)],
    dropped: u64,
) -> io::Result<()> {
    write!(
        w,
        "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"source\":\"{}\",\"backend\":\"{}\",\
         \"host_cpus\":{},\"threads\":{},\"dropped\":{dropped},\"metrics\":{{",
        escape(&meta.source),
        escape(&meta.backend),
        meta.host_cpus,
        meta.threads
    )?;
    for (i, (k, v)) in metrics.iter().enumerate() {
        if i > 0 {
            write!(w, ",")?;
        }
        write!(w, "\"{k}\":{v}")?;
    }
    write!(w, "}}}},\"traceEvents\":[")?;
    write!(
        w,
        "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\
         \"args\":{{\"name\":\"atlas\"}}}}"
    )?;
    let mut lanes: Vec<u32> = events.iter().map(|e| e.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for lane in &lanes {
        write!(
            w,
            ",{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{lane},\
             \"args\":{{\"name\":\"lane-{lane}\"}}}}"
        )?;
    }
    let mut args = String::new();
    for e in events {
        let ts_us = e.ts_ns as f64 / 1000.0;
        args.clear();
        write_args_object(&mut args, e.args());
        match e.kind {
            EventKind::Span => {
                let dur_us = e.dur_ns as f64 / 1000.0;
                write!(
                    w,
                    ",{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"atlas\",\"pid\":1,\
                     \"tid\":{},\"ts\":{ts_us:.3},\"dur\":{dur_us:.3},\"args\":{{\
                     \"det\":{},\"stage\":{},\"shard\":{},\"ord\":{},\"args\":{args}}}}}",
                    e.name, e.lane, e.det, e.stage, e.shard, e.ord
                )?;
            }
            EventKind::Counter => {
                // Counter tracks: one series per argument.
                write!(
                    w,
                    ",{{\"ph\":\"C\",\"name\":\"{}\",\"cat\":\"atlas\",\"pid\":1,\
                     \"tid\":{},\"ts\":{ts_us:.3},\"args\":{args}}}",
                    e.name, e.lane
                )?;
            }
        }
    }
    writeln!(w, "]}}")
}

/// Drains the recorder and writes the trace in the requested format.
/// Worker threads must have flushed (the pipeline's barrier/job-end
/// flush points take care of that).
pub fn export(
    rec: &Recorder,
    w: &mut dyn Write,
    format: TraceFormat,
    meta: &TraceMeta,
) -> io::Result<()> {
    let events = rec.drain();
    let metrics = rec.metrics_snapshot();
    let dropped = rec.dropped();
    match format {
        TraceFormat::Ndjson => write_ndjson(w, meta, &events, &metrics, dropped),
        TraceFormat::Chrome => write_chrome(w, meta, &events, &metrics, dropped),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let rec = Recorder::default();
        assert!(!rec.is_enabled());
        let t = rec.start();
        assert!(t.0.is_none(), "disabled start must not read the clock");
        rec.span("kernel.apply", t, true, 0, 0, 0, &[("ops", 1)]);
        rec.counter("machine.step", true, 0, 0, 0, &[]);
        rec.wait_span("worker.wait", 1);
        rec.metric_add("x", 1);
        rec.metric_lane_set("y", 2);
        rec.flush();
        assert!(rec.drain().is_empty());
        assert!(rec.metrics_snapshot().is_empty());
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn span_and_counter_round_trip() {
        let rec = Recorder::enabled();
        let t = rec.start();
        rec.span(
            "kernel.apply",
            t,
            true,
            2,
            3,
            1,
            &[("ops", 7), ("amps", 16)],
        );
        rec.counter("machine.step", true, 2, 0, 0, &[("compute_ns", 42)]);
        let events = rec.drain();
        assert_eq!(events.len(), 2);
        let span = events.iter().find(|e| e.name == "kernel.apply").unwrap();
        assert_eq!(span.kind, EventKind::Span);
        assert_eq!((span.stage, span.shard, span.ord), (2, 3, 1));
        assert_eq!(span.args(), &[("ops", 7), ("amps", 16)]);
        let ctr = events.iter().find(|e| e.name == "machine.step").unwrap();
        assert_eq!(ctr.kind, EventKind::Counter);
        assert_eq!(ctr.dur_ns, 0);
        // Drain empties the sink.
        assert!(rec.drain().is_empty());
    }

    #[test]
    fn det_signature_ignores_lanes_and_timestamps_and_nondet_events() {
        let rec = Recorder::enabled();
        let t = rec.start();
        rec.span("a", t, true, 0, 1, 0, &[("k", 5)]);
        rec.span("b", rec.start(), true, 1, 0, 0, &[]);
        rec.wait_span("worker.wait", 1); // non-det, excluded
        let sig1 = det_signature(&rec.drain());

        // Same deterministic content from a different-thread schedule.
        let rec2 = Recorder::enabled();
        std::thread::scope(|s| {
            let r = &rec2;
            s.spawn(move || {
                let t = r.start();
                r.span("b", t, true, 1, 0, 0, &[]);
                r.flush();
            });
        });
        let t = rec2.start();
        rec2.span("a", t, true, 0, 1, 0, &[("k", 5)]);
        let sig2 = det_signature(&rec2.drain());
        assert_eq!(sig1, sig2);
        assert!(sig1.contains("a span stage=0 shard=1 ord=0 k=5"));
        assert!(!sig1.contains("worker.wait"));
    }

    #[test]
    fn fixed_capacities_drop_instead_of_growing() {
        let rec = Recorder::with_capacity(4, 2);
        for i in 0..10 {
            rec.counter("c", true, i, 0, 0, &[]);
        }
        rec.flush();
        let events = rec.drain();
        assert_eq!(events.len(), 4, "sink capacity is a hard ceiling");
        assert_eq!(rec.dropped(), 6);
    }

    #[test]
    fn steady_state_recording_reuses_buffers() {
        let rec = Recorder::enabled();
        // Warm: first event assigns the lane and reserves the local buffer.
        rec.counter("warm", true, 0, 0, 0, &[]);
        rec.flush();
        LOCAL.with(|l| {
            let cap_before = l.borrow().buf.capacity();
            for i in 0..100 {
                rec.counter("steady", true, i, 0, 0, &[("v", i as u64)]);
            }
            rec.flush();
            assert_eq!(l.borrow().buf.capacity(), cap_before);
        });
        assert_eq!(rec.drain().len(), 101);
    }

    #[test]
    fn metrics_registry_merges_lanes_and_counters() {
        let m = MetricsRegistry::new();
        m.add("hits", 3);
        m.add("hits", 2);
        m.set("gauge", 7);
        m.lane_set("hits", 0, 10);
        m.lane_set("hits", 1, 4);
        m.lane_set("hits", 1, 6); // republish overwrites the lane slot
        let snap = m.snapshot();
        assert_eq!(snap, vec![("gauge", 7), ("hits", 5 + 10 + 6)]);
    }

    #[test]
    fn recorder_switch_rescues_buffered_events() {
        let a = Recorder::enabled();
        a.counter("a.event", true, 0, 0, 0, &[]);
        // Recording through a second recorder on the same thread must
        // first flush the buffered events to their own sink.
        let b = Recorder::enabled();
        b.counter("b.event", true, 0, 0, 0, &[]);
        let got_a = a.drain();
        assert_eq!(got_a.len(), 1);
        assert_eq!(got_a[0].name, "a.event");
        let got_b = b.drain();
        assert_eq!(got_b.len(), 1);
        assert_eq!(got_b[0].name, "b.event");
    }

    #[test]
    fn wait_span_emits_one_gap_per_stage() {
        let rec = Recorder::enabled();
        let t = rec.start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        rec.span("work", t, true, 0, 0, 0, &[]);
        std::thread::sleep(std::time::Duration::from_millis(1));
        rec.wait_span("worker.wait", 1);
        rec.wait_span("worker.wait", 1); // same stage: no second gap
        let events = rec.drain();
        let waits: Vec<_> = events.iter().filter(|e| e.name == "worker.wait").collect();
        assert_eq!(waits.len(), 1);
        assert!(!waits[0].det);
        assert!(waits[0].dur_ns > 0);
        let work = events.iter().find(|e| e.name == "work").unwrap();
        assert_eq!(waits[0].ts_ns, work.ts_ns + work.dur_ns);
    }

    #[test]
    fn ndjson_export_has_header_events_and_metrics() {
        let rec = Recorder::enabled();
        let t = rec.start();
        rec.span("kernel.apply", t, true, 0, 0, 0, &[("ops", 3)]);
        rec.metric_add("scratch.table_hits", 11);
        let meta = TraceMeta {
            source: "test".into(),
            backend: "statevec".into(),
            host_cpus: 4,
            threads: 2,
        };
        let mut out = Vec::new();
        export(&rec, &mut out, TraceFormat::Ndjson, &meta).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"schema\":\"atlas-trace/1\""));
        assert!(lines[0].contains("\"backend\":\"statevec\""));
        assert!(lines[0].contains("\"events\":1"));
        assert!(lines[1].contains("\"name\":\"kernel.apply\""));
        assert!(lines[1].contains("\"args\":{\"ops\":3}"));
        assert!(lines[2].contains("\"schema\":\"atlas-metrics/1\""));
        assert!(lines[2].contains("\"scratch.table_hits\":11"));
    }

    #[test]
    fn chrome_export_is_trace_event_shaped() {
        let rec = Recorder::enabled();
        let t = rec.start();
        rec.span("kernel.apply", t, true, 1, 2, 0, &[("ops", 3)]);
        rec.counter("machine.step", true, 1, 0, 0, &[("compute_ns", 9)]);
        let mut out = Vec::new();
        export(&rec, &mut out, TraceFormat::Chrome, &TraceMeta::default()).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"traceEvents\":["));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"C\""));
        assert!(text.contains("\"thread_name\""));
        assert!(text.contains("\"name\":\"kernel.apply\""));
    }

    #[test]
    fn trace_format_parses_and_round_trips() {
        use std::str::FromStr;
        for f in [TraceFormat::Ndjson, TraceFormat::Chrome] {
            assert_eq!(TraceFormat::from_str(f.name()).unwrap(), f);
        }
        assert!(TraceFormat::from_str("xml").is_err());
        assert_eq!(TraceFormat::default(), TraceFormat::Ndjson);
    }

    #[test]
    fn secs_to_ns_is_deterministic_rounding() {
        assert_eq!(secs_to_ns(0.0), 0);
        assert_eq!(secs_to_ns(1.5e-9), 2);
        assert_eq!(secs_to_ns(1.0), 1_000_000_000);
    }
}
