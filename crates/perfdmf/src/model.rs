//! The profile data model: trials, metrics, events, threads, measurements.
//!
//! Measurements live in a single contiguous arena indexed
//! `(event * n_metrics + metric) * n_threads + thread`, so one
//! event/metric column is a contiguous `&[Measurement]` handed out
//! zero-copy, and name → id lookups go through interned hash tables
//! instead of linear scans. The JSON form is unchanged from the
//! original nested `data[event][metric][thread]` layout (see the
//! manual `Serialize`/`Deserialize` impls on [`Profile`]).

use crate::metadata::Metadata;
use crate::{DmfError, Result};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Name of the conventional top-level event. Analyses that compare a
/// region against the whole program (the paper's `compareEventToMain`)
/// resolve this event.
pub const MAIN_EVENT: &str = "main";

/// Separator used in callpath event names (`main => loop => inner`),
/// following the TAU convention.
pub const CALLPATH_SEPARATOR: &str = " => ";

/// Identifier of a metric within one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MetricId(pub u32);

/// Identifier of an event (instrumented code region) within one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EventId(pub u32);

/// TAU-style thread identity: node, context, thread.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct ThreadId {
    /// Node (MPI rank or SMP node index).
    pub node: u32,
    /// Context within the node (usually 0).
    pub context: u32,
    /// Thread within the context (OpenMP thread index).
    pub thread: u32,
}

impl ThreadId {
    /// Shorthand for a flat thread numbering `(0,0,t)`.
    pub fn flat(t: u32) -> Self {
        ThreadId {
            node: 0,
            context: 0,
            thread: t,
        }
    }

    /// Shorthand for MPI-style numbering `(rank,0,0)`.
    pub fn rank(r: u32) -> Self {
        ThreadId {
            node: r,
            context: 0,
            thread: 0,
        }
    }
}

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}.{}", self.node, self.context, self.thread)
    }
}

/// A measured performance metric (e.g. `TIME`, `CPU_CYCLES`,
/// `BACK_END_BUBBLE_ALL`, `L3_MISSES`, or a derived expression).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name. Derived metrics use parenthesised expressions such as
    /// `(BACK_END_BUBBLE_ALL / CPU_CYCLES)`, matching PerfExplorer.
    pub name: String,
    /// Whether this metric was derived by analysis rather than measured.
    pub derived: bool,
}

impl Metric {
    /// A measured (non-derived) metric.
    pub fn measured(name: impl Into<String>) -> Self {
        Metric {
            name: name.into(),
            derived: false,
        }
    }

    /// A derived metric.
    pub fn derived(name: impl Into<String>) -> Self {
        Metric {
            name: name.into(),
            derived: true,
        }
    }
}

/// An instrumented code region. Regions form a call tree encoded in their
/// names with [`CALLPATH_SEPARATOR`], as TAU does for callpath profiles.
///
/// The name is one shared allocation: the profile's name index, a
/// materialized trial's copy of a PDB1 manifest, the load-balance
/// observations and facts, the incremental analysis state and the
/// script host's event lists all hold clones of the same `Arc`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Full (possibly callpath) name.
    pub name: Arc<str>,
    /// Optional source-region kind tag ("procedure", "loop", "barrier",
    /// "callsite", ...) supplied by the instrumentation layer.
    pub kind: Option<String>,
}

impl Event {
    /// Creates a plain event.
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        Event {
            name: name.into(),
            kind: None,
        }
    }

    /// Creates an event with a region-kind tag.
    pub fn with_kind(name: impl Into<Arc<str>>, kind: impl Into<String>) -> Self {
        Event {
            name: name.into(),
            kind: Some(kind.into()),
        }
    }

    /// Leaf (rightmost) component of the callpath name.
    pub fn leaf(&self) -> &str {
        self.name
            .rsplit(CALLPATH_SEPARATOR)
            .next()
            .unwrap_or(&self.name)
    }

    /// Callpath parent name (everything before the last separator), or
    /// `None` for a root event.
    pub fn parent_name(&self) -> Option<&str> {
        self.name
            .rfind(CALLPATH_SEPARATOR)
            .map(|idx| &self.name[..idx])
    }

    /// Whether this event is an ancestor of `other` in the call tree
    /// (proper prefix of its callpath).
    pub fn is_ancestor_of(&self, other: &Event) -> bool {
        other.name.len() > self.name.len()
            && other.name.starts_with(&*self.name)
            && other.name[self.name.len()..].starts_with(CALLPATH_SEPARATOR)
    }
}

/// One cell of a profile: the measurements of one event, for one metric,
/// on one thread.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Measurement {
    /// Inclusive value (includes children).
    pub inclusive: f64,
    /// Exclusive value (excludes children).
    pub exclusive: f64,
    /// Number of invocations of the region.
    pub calls: f64,
    /// Number of child invocations made from the region.
    pub subcalls: f64,
}

impl Measurement {
    /// A measurement with equal inclusive/exclusive value and one call.
    pub fn leaf(value: f64) -> Self {
        Measurement {
            inclusive: value,
            exclusive: value,
            calls: 1.0,
            subcalls: 0.0,
        }
    }
}

/// The measurement container of a trial: a dense
/// `event × metric × thread` array.
///
/// Storage is a flat arena with event-major stride
/// `(event * n_metrics + metric) * n_threads + thread`: one
/// event/metric column occupies `n_threads` adjacent cells, and one
/// event's block of `n_metrics * n_threads` cells is contiguous too.
/// Name lookups ([`Profile::metric_id`], [`Profile::event_id`]) are
/// O(1) through interned side tables kept in sync by the mutating
/// methods.
#[derive(Debug, Clone)]
pub struct Profile {
    metrics: Vec<Metric>,
    events: Vec<Event>,
    threads: Vec<ThreadId>,
    /// Flat arena; see the struct docs for the stride.
    data: Vec<Measurement>,
    metric_index: HashMap<String, u32>,
    /// Keys share their events' name allocations.
    event_index: HashMap<Arc<str>, u32>,
}

// The intern tables are derivable from `metrics`/`events`, so equality
// (like the wire format) covers only the four logical fields.
impl PartialEq for Profile {
    fn eq(&self, other: &Self) -> bool {
        self.metrics == other.metrics
            && self.events == other.events
            && self.threads == other.threads
            && self.data == other.data
    }
}

impl Profile {
    /// Creates an empty profile over the given thread set.
    pub fn new(threads: Vec<ThreadId>) -> Self {
        Profile {
            metrics: Vec::new(),
            events: Vec::new(),
            threads,
            data: Vec::new(),
            metric_index: HashMap::new(),
            event_index: HashMap::new(),
        }
    }

    /// Creates an empty profile with arena capacity reserved for
    /// `events × metrics` columns, so bulk loads append without
    /// reallocating.
    pub fn with_capacity(threads: Vec<ThreadId>, events: usize, metrics: usize) -> Self {
        let mut p = Profile::new(threads);
        p.metrics.reserve(metrics);
        p.events.reserve(events);
        p.data.reserve(events * metrics * p.threads.len());
        p
    }

    /// Assembles a profile from complete parts: the three axis vectors
    /// plus a flat arena in the canonical
    /// `(event * n_metrics + metric) * n_threads + thread` order.
    ///
    /// Validates the arena length against the axes and rejects
    /// duplicate metric/event names, then builds the interned lookup
    /// tables. This is the single entry point for bulk loaders (the
    /// JSON deserializer and the PDB1 binary reader) — validation
    /// lives here so every format enforces the same invariants.
    pub fn from_parts(
        metrics: Vec<Metric>,
        events: Vec<Event>,
        threads: Vec<ThreadId>,
        data: Vec<Measurement>,
    ) -> Result<Self> {
        let expected = events.len() * metrics.len() * threads.len();
        if data.len() != expected {
            return Err(DmfError::Incompatible(format!(
                "profile arena has {} cells, dimensions require {expected} \
                 ({} events x {} metrics x {} threads)",
                data.len(),
                events.len(),
                metrics.len(),
                threads.len()
            )));
        }
        let mut metric_index = HashMap::with_capacity(metrics.len());
        for (i, m) in metrics.iter().enumerate() {
            if metric_index.insert(m.name.clone(), i as u32).is_some() {
                return Err(DmfError::Duplicate {
                    kind: "metric",
                    name: m.name.clone(),
                });
            }
        }
        let mut event_index = HashMap::with_capacity(events.len());
        for (i, e) in events.iter().enumerate() {
            if event_index.insert(Arc::clone(&e.name), i as u32).is_some() {
                return Err(DmfError::Duplicate {
                    kind: "event",
                    name: e.name.to_string(),
                });
            }
        }
        Ok(Profile {
            metrics,
            events,
            threads,
            data,
            metric_index,
            event_index,
        })
    }

    /// All metrics.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// All events.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// All threads.
    pub fn threads(&self) -> &[ThreadId] {
        &self.threads
    }

    /// Number of threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Number of metrics.
    pub fn metric_count(&self) -> usize {
        self.metrics.len()
    }

    /// Number of events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Arena offset of a cell; see the struct docs for the stride.
    #[inline]
    fn offset(&self, event: usize, metric: usize, thread: usize) -> usize {
        (event * self.metrics.len() + metric) * self.threads.len() + thread
    }

    /// Looks up a metric id by name in O(1).
    pub fn metric_id(&self, name: &str) -> Option<MetricId> {
        self.metric_index.get(name).map(|&i| MetricId(i))
    }

    /// Looks up an event id by full name in O(1).
    pub fn event_id(&self, name: &str) -> Option<EventId> {
        self.event_index.get(name).map(|&i| EventId(i))
    }

    /// Metric by id.
    pub fn metric(&self, id: MetricId) -> &Metric {
        &self.metrics[id.0 as usize]
    }

    /// Event by id.
    pub fn event(&self, id: EventId) -> &Event {
        &self.events[id.0 as usize]
    }

    /// Adds a metric, initialising its cells to zero for every existing
    /// event. Fails on duplicates.
    ///
    /// This is the expensive mutation: the arena is rebuilt to widen
    /// every event block by one column. Loaders that know their metric
    /// set up front should add all metrics before the bulk of events.
    pub fn add_metric(&mut self, metric: Metric) -> Result<MetricId> {
        if self.metric_index.contains_key(&metric.name) {
            return Err(DmfError::Duplicate {
                kind: "metric",
                name: metric.name,
            });
        }
        let nm = self.metrics.len();
        let nt = self.threads.len();
        let ne = self.events.len();
        if ne > 0 && nt > 0 {
            let mut widened = Vec::with_capacity(ne * (nm + 1) * nt);
            if nm == 0 {
                widened.resize(ne * nt, Measurement::default());
            } else {
                for block in self.data.chunks_exact(nm * nt) {
                    widened.extend_from_slice(block);
                    widened.resize(widened.len() + nt, Measurement::default());
                }
            }
            self.data = widened;
        }
        self.metric_index.insert(metric.name.clone(), nm as u32);
        self.metrics.push(metric);
        Ok(MetricId(nm as u32))
    }

    /// Adds an event, initialising its cells to zero for every metric.
    /// Fails on duplicates. Amortised O(1) in the arena: the new block
    /// is appended at the end.
    pub fn add_event(&mut self, event: Event) -> Result<EventId> {
        if self.event_index.contains_key(&event.name) {
            return Err(DmfError::Duplicate {
                kind: "event",
                name: event.name.to_string(),
            });
        }
        let ne = self.events.len();
        let block = self.metrics.len() * self.threads.len();
        self.data
            .resize(self.data.len() + block, Measurement::default());
        self.event_index.insert(event.name.clone(), ne as u32);
        self.events.push(event);
        Ok(EventId(ne as u32))
    }

    /// Fault-injection support (the `faultsim` crate): overwrites a
    /// metric's name **without** updating the interned lookup table,
    /// leaving the index stale and possibly creating duplicate names —
    /// the inconsistency a hand-edited or bit-rotted store exhibits.
    /// Analyses must tolerate profiles in this state; normal code adds
    /// metrics through [`Profile::add_metric`].
    pub fn corrupt_metric_name(&mut self, id: MetricId, name: impl Into<String>) {
        if let Some(m) = self.metrics.get_mut(id.0 as usize) {
            m.name = name.into();
        }
    }

    /// Fault-injection counterpart of [`Profile::corrupt_metric_name`]
    /// for event names.
    pub fn corrupt_event_name(&mut self, id: EventId, name: impl Into<Arc<str>>) {
        if let Some(e) = self.events.get_mut(id.0 as usize) {
            e.name = name.into();
        }
    }

    /// Returns the measurement cell, if all indices are in range.
    pub fn get(&self, event: EventId, metric: MetricId, thread: usize) -> Option<&Measurement> {
        if event.0 as usize >= self.events.len()
            || metric.0 as usize >= self.metrics.len()
            || thread >= self.threads.len()
        {
            return None;
        }
        self.data
            .get(self.offset(event.0 as usize, metric.0 as usize, thread))
    }

    /// Mutable access to a measurement cell.
    pub fn get_mut(
        &mut self,
        event: EventId,
        metric: MetricId,
        thread: usize,
    ) -> Option<&mut Measurement> {
        if event.0 as usize >= self.events.len()
            || metric.0 as usize >= self.metrics.len()
            || thread >= self.threads.len()
        {
            return None;
        }
        let idx = self.offset(event.0 as usize, metric.0 as usize, thread);
        self.data.get_mut(idx)
    }

    /// Sets a measurement cell. Out-of-range indices are an error.
    pub fn set(
        &mut self,
        event: EventId,
        metric: MetricId,
        thread: usize,
        m: Measurement,
    ) -> Result<()> {
        match self.get_mut(event, metric, thread) {
            Some(cell) => {
                *cell = m;
                Ok(())
            }
            None => Err(DmfError::NotFound {
                kind: "profile cell",
                name: format!("event {event:?} metric {metric:?} thread {thread}"),
            }),
        }
    }

    /// Zero-copy per-thread column for one event/metric: `n_threads`
    /// contiguous cells straight out of the arena.
    pub fn column(&self, event: EventId, metric: MetricId) -> &[Measurement] {
        let start = self.offset(event.0 as usize, metric.0 as usize, 0);
        &self.data[start..start + self.threads.len()]
    }

    /// Mutable counterpart of [`Profile::column`].
    pub fn column_mut(&mut self, event: EventId, metric: MetricId) -> &mut [Measurement] {
        let start = self.offset(event.0 as usize, metric.0 as usize, 0);
        let nt = self.threads.len();
        &mut self.data[start..start + nt]
    }

    /// Zero-copy block of one event's cells across all metrics and
    /// threads: `n_metrics * n_threads` contiguous cells, metric-major.
    pub fn event_slice(&self, event: EventId) -> &[Measurement] {
        let block = self.metrics.len() * self.threads.len();
        let start = event.0 as usize * block;
        &self.data[start..start + block]
    }

    /// Strided view of one metric on one thread across every event, in
    /// event order. (The stride makes this a walk, not a slice.)
    pub fn thread_slice(
        &self,
        metric: MetricId,
        thread: usize,
    ) -> impl Iterator<Item = (EventId, &Measurement)> + '_ {
        let stride = self.metrics.len() * self.threads.len();
        let first = metric.0 as usize * self.threads.len() + thread;
        self.data
            .iter()
            .skip(first)
            .step_by(stride.max(1))
            .take(self.events.len())
            .enumerate()
            .map(|(e, m)| (EventId(e as u32), m))
    }

    /// Iterates every event/metric column as a zero-copy slice. This is
    /// the replacement for the old triple index loop: callers get each
    /// contiguous column exactly once, in arena order.
    pub fn columns(&self) -> impl Iterator<Item = (EventId, MetricId, &[Measurement])> + '_ {
        let nm = self.metrics.len();
        let nt = self.threads.len();
        self.data
            .chunks_exact(nt.max(1))
            .enumerate()
            .map(move |(i, col)| {
                (
                    EventId((i / nm.max(1)) as u32),
                    MetricId((i % nm.max(1)) as u32),
                    col,
                )
            })
    }

    /// Mutable counterpart of [`Profile::columns`]; columns are disjoint
    /// so the borrow is safe to split.
    pub fn columns_mut(
        &mut self,
    ) -> impl Iterator<Item = (EventId, MetricId, &mut [Measurement])> + '_ {
        let nm = self.metrics.len();
        let nt = self.threads.len();
        self.data
            .chunks_exact_mut(nt.max(1))
            .enumerate()
            .map(move |(i, col)| {
                (
                    EventId((i / nm.max(1)) as u32),
                    MetricId((i % nm.max(1)) as u32),
                    col,
                )
            })
    }

    /// Iterates every cell with its coordinates, in arena order.
    pub fn cells(&self) -> impl Iterator<Item = (EventId, MetricId, usize, &Measurement)> + '_ {
        self.columns()
            .flat_map(|(e, m, col)| col.iter().enumerate().map(move |(t, c)| (e, m, t, c)))
    }

    /// The whole arena, read-only. Exposed for benchmarks and bulk
    /// numeric sweeps; coordinate-aware callers should prefer
    /// [`Profile::columns`].
    pub fn arena(&self) -> &[Measurement] {
        &self.data
    }

    /// Exclusive values across threads as a fresh vector.
    pub fn exclusive_across_threads(&self, event: EventId, metric: MetricId) -> Vec<f64> {
        self.column(event, metric)
            .iter()
            .map(|m| m.exclusive)
            .collect()
    }

    /// Inclusive values across threads as a fresh vector.
    pub fn inclusive_across_threads(&self, event: EventId, metric: MetricId) -> Vec<f64> {
        self.column(event, metric)
            .iter()
            .map(|m| m.inclusive)
            .collect()
    }

    /// Mean of exclusive values across threads.
    pub fn mean_exclusive(&self, event: EventId, metric: MetricId) -> f64 {
        let v = self.column(event, metric);
        if v.is_empty() {
            return 0.0;
        }
        v.iter().map(|m| m.exclusive).sum::<f64>() / v.len() as f64
    }

    /// Mean of inclusive values across threads.
    pub fn mean_inclusive(&self, event: EventId, metric: MetricId) -> f64 {
        let v = self.column(event, metric);
        if v.is_empty() {
            return 0.0;
        }
        v.iter().map(|m| m.inclusive).sum::<f64>() / v.len() as f64
    }

    /// Maximum inclusive value across threads (the critical-path reading of
    /// a region's cost in a fork-join program).
    pub fn max_inclusive(&self, event: EventId, metric: MetricId) -> f64 {
        self.column(event, metric)
            .iter()
            .map(|m| m.inclusive)
            .fold(0.0, f64::max)
    }

    /// The event id of [`MAIN_EVENT`], if present.
    pub fn main_event(&self) -> Option<EventId> {
        self.event_id(MAIN_EVENT)
    }
}

// The wire format predates the flat arena: `data` is serialized as the
// original nested `[event][metric][thread]` arrays, so repositories
// written by older builds load unchanged and new files remain readable
// by them. Only the in-memory layout changed. The one-pass decoder reads
// the nested arrays straight into the flat arena, recording only their
// lengths for the shape check.
impl Serialize for Profile {
    fn serialize(&self, w: &mut serde::Writer) {
        w.begin('{');
        w.key(true, "metrics");
        self.metrics.serialize(w);
        w.key(false, "events");
        self.events.serialize(w);
        w.key(false, "threads");
        self.threads.serialize(w);
        w.key(false, "data");
        w.begin('[');
        for e in 0..self.events.len() {
            w.element(e == 0);
            w.begin('[');
            for m in 0..self.metrics.len() {
                w.element(m == 0);
                w.seq(self.column(EventId(e as u32), MetricId(m as u32)));
            }
            w.end(']', self.metrics.is_empty());
        }
        w.end(']', self.events.is_empty());
        w.end('}', false);
    }

    fn to_value(&self) -> serde::Value {
        let events: Vec<serde::Value> = (0..self.events.len())
            .map(|e| {
                serde::Value::Array(
                    (0..self.metrics.len())
                        .map(|m| {
                            serde::Value::Array(
                                self.column(EventId(e as u32), MetricId(m as u32))
                                    .iter()
                                    .map(Serialize::to_value)
                                    .collect(),
                            )
                        })
                        .collect(),
                )
            })
            .collect();
        serde::Value::Object(vec![
            ("metrics".to_string(), self.metrics.to_value()),
            ("events".to_string(), self.events.to_value()),
            ("threads".to_string(), self.threads.to_value()),
            ("data".to_string(), serde::Value::Array(events)),
        ])
    }
}

/// The `data` arrays as read: every cell in `[event][metric][thread]`
/// order, the metric-row count of each event block, and the cell count
/// of each row.
#[derive(Default)]
struct NestedCells {
    cells: Vec<Measurement>,
    rows: Vec<usize>,
    lens: Vec<usize>,
}

impl NestedCells {
    fn read(r: &mut serde::Reader<'_>) -> std::result::Result<Self, serde::Error> {
        fn open(r: &mut serde::Reader<'_>) -> std::result::Result<(), serde::Error> {
            if r.begin_array()? {
                Ok(())
            } else {
                Err(r.type_error("array"))
            }
        }
        let mut nested = NestedCells::default();
        open(r)?;
        while r.next_element()? {
            open(r)?;
            let mut rows = 0;
            while r.next_element()? {
                open(r)?;
                let start = nested.cells.len();
                while r.next_element()? {
                    nested.cells.push(Measurement::deserialize(r)?);
                }
                nested.lens.push(nested.cells.len() - start);
                rows += 1;
            }
            nested.rows.push(rows);
        }
        Ok(nested)
    }

    /// Checks the nested shape against the axes, with the errors of the
    /// reference path, and assembles the profile.
    fn into_profile(
        self,
        metrics: Vec<Metric>,
        events: Vec<Event>,
        threads: Vec<ThreadId>,
    ) -> std::result::Result<Profile, serde::Error> {
        let (ne, nm, nt) = (events.len(), metrics.len(), threads.len());
        if self.rows.len() != ne {
            return Err(serde::Error::custom(format!(
                "Profile: {} events but {} data blocks",
                ne,
                self.rows.len()
            )));
        }
        let mut lens = self.lens.iter();
        for (e, &rows) in self.rows.iter().enumerate() {
            if rows != nm {
                return Err(serde::Error::custom(format!(
                    "Profile: event {e} has {rows} metric rows, expected {nm}"
                )));
            }
            for (m, &len) in lens.by_ref().take(rows).enumerate() {
                if len != nt {
                    return Err(serde::Error::custom(format!(
                        "Profile: event {e} metric {m} has {len} cells, expected {nt}"
                    )));
                }
            }
        }
        Profile::from_parts(metrics, events, threads, self.cells)
            .map_err(|e| serde::Error::custom(format!("Profile: {e}")))
    }
}

impl Deserialize for Profile {
    fn deserialize(r: &mut serde::Reader<'_>) -> std::result::Result<Self, serde::Error> {
        if !r.begin_object()? {
            return Err(serde::Error::custom("Profile: expected object"));
        }
        let (mut metrics, mut events, mut threads, mut data) = (None, None, None, None);
        while let Some(key) = r.next_key()? {
            match &*key {
                "metrics" if metrics.is_none() => metrics = Some(Vec::<Metric>::deserialize(r)?),
                "events" if events.is_none() => events = Some(Vec::<Event>::deserialize(r)?),
                "threads" if threads.is_none() => threads = Some(Vec::<ThreadId>::deserialize(r)?),
                "data" if data.is_none() => data = Some(NestedCells::read(r)?),
                _ => r.skip_value()?,
            }
        }
        let missing = |name: &str| serde::Error::custom(format!("Profile: missing field {name}"));
        let metrics = metrics.ok_or_else(|| missing("metrics"))?;
        let events = events.ok_or_else(|| missing("events"))?;
        let threads = threads.ok_or_else(|| missing("threads"))?;
        let data = data.ok_or_else(|| missing("data"))?;
        data.into_profile(metrics, events, threads)
    }

    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let pairs = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("Profile: expected object"))?;
        let field = |name: &str| {
            serde::object_get(pairs, name)
                .ok_or_else(|| serde::Error::custom(format!("Profile: missing field {name}")))
        };
        let metrics = Vec::<Metric>::from_value(field("metrics")?)?;
        let events = Vec::<Event>::from_value(field("events")?)?;
        let threads = Vec::<ThreadId>::from_value(field("threads")?)?;
        let nested = Vec::<Vec<Vec<Measurement>>>::from_value(field("data")?)?;

        let (ne, nm, nt) = (events.len(), metrics.len(), threads.len());
        if nested.len() != ne {
            return Err(serde::Error::custom(format!(
                "Profile: {} events but {} data blocks",
                ne,
                nested.len()
            )));
        }
        let mut data = Vec::with_capacity(ne * nm * nt);
        for (e, block) in nested.iter().enumerate() {
            if block.len() != nm {
                return Err(serde::Error::custom(format!(
                    "Profile: event {e} has {} metric rows, expected {nm}",
                    block.len()
                )));
            }
            for (m, col) in block.iter().enumerate() {
                if col.len() != nt {
                    return Err(serde::Error::custom(format!(
                        "Profile: event {e} metric {m} has {} cells, expected {nt}",
                        col.len()
                    )));
                }
                data.extend_from_slice(col);
            }
        }

        Profile::from_parts(metrics, events, threads, data)
            .map_err(|e| serde::Error::custom(format!("Profile: {e}")))
    }
}

/// One experimental run: a profile plus its identity and metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trial {
    /// Trial name, unique within its experiment (e.g. `"1_8"` for
    /// 1 node × 8 threads).
    pub name: String,
    /// The measurement data.
    pub profile: Profile,
    /// Performance context: machine, schedule, problem size, ...
    pub metadata: Metadata,
}

impl Trial {
    /// Creates a trial around an existing profile.
    pub fn new(name: impl Into<String>, profile: Profile) -> Self {
        Trial {
            name: name.into(),
            profile,
            metadata: Metadata::new(),
        }
    }
}

/// Incremental builder for trials, used by the simulator's profiling layer
/// and the format readers.
#[derive(Debug, Clone)]
pub struct TrialBuilder {
    name: String,
    profile: Profile,
    metadata: Metadata,
}

impl TrialBuilder {
    /// Starts a trial over `n` flat threads `(0,0,0) .. (0,0,n-1)`.
    pub fn with_flat_threads(name: impl Into<String>, n: usize) -> Self {
        TrialBuilder {
            name: name.into(),
            profile: Profile::new((0..n as u32).map(ThreadId::flat).collect()),
            metadata: Metadata::new(),
        }
    }

    /// Starts a trial over `n` MPI ranks `(0,0,0) .. (n-1,0,0)`.
    pub fn with_ranks(name: impl Into<String>, n: usize) -> Self {
        TrialBuilder {
            name: name.into(),
            profile: Profile::new((0..n as u32).map(ThreadId::rank).collect()),
            metadata: Metadata::new(),
        }
    }

    /// Starts a trial over an explicit thread list.
    pub fn with_threads(name: impl Into<String>, threads: Vec<ThreadId>) -> Self {
        TrialBuilder {
            name: name.into(),
            profile: Profile::new(threads),
            metadata: Metadata::new(),
        }
    }

    /// Adds (or reuses) a measured metric and returns its id.
    pub fn metric(&mut self, name: &str) -> MetricId {
        match self.profile.metric_id(name) {
            Some(id) => id,
            None => self
                .profile
                .add_metric(Metric::measured(name))
                .expect("checked for duplicate"),
        }
    }

    /// Adds (or reuses) an event and returns its id.
    pub fn event(&mut self, name: &str) -> EventId {
        match self.profile.event_id(name) {
            Some(id) => id,
            None => self
                .profile
                .add_event(Event::new(name))
                .expect("checked for duplicate"),
        }
    }

    /// Adds (or reuses) an event with a region-kind tag.
    pub fn event_with_kind(&mut self, name: &str, kind: &str) -> EventId {
        match self.profile.event_id(name) {
            Some(id) => id,
            None => self
                .profile
                .add_event(Event::with_kind(name, kind))
                .expect("checked for duplicate"),
        }
    }

    /// Writes one measurement cell.
    pub fn set(&mut self, event: EventId, metric: MetricId, thread: usize, m: Measurement) {
        self.profile
            .set(event, metric, thread, m)
            .expect("builder indices are construction-time valid");
    }

    /// Accumulates into one measurement cell (adds values and calls).
    pub fn accumulate(&mut self, event: EventId, metric: MetricId, thread: usize, m: Measurement) {
        if let Some(cell) = self.profile.get_mut(event, metric, thread) {
            cell.inclusive += m.inclusive;
            cell.exclusive += m.exclusive;
            cell.calls += m.calls;
            cell.subcalls += m.subcalls;
        }
    }

    /// Sets a metadata field.
    pub fn meta(&mut self, key: &str, value: impl Into<crate::MetaValue>) -> &mut Self {
        self.metadata.set(key, value);
        self
    }

    /// Read access to the profile under construction (name/id lookups
    /// for incremental consumers, e.g. the simulator's flush journal).
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Finishes the trial.
    pub fn build(self) -> Trial {
        Trial {
            name: self.name,
            profile: self.profile,
            metadata: self.metadata,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> Profile {
        let mut p = Profile::new(vec![ThreadId::flat(0), ThreadId::flat(1)]);
        let time = p.add_metric(Metric::measured("TIME")).unwrap();
        let main = p.add_event(Event::new("main")).unwrap();
        let inner = p.add_event(Event::new("main => loop")).unwrap();
        p.set(
            main,
            time,
            0,
            Measurement {
                inclusive: 10.0,
                exclusive: 4.0,
                calls: 1.0,
                subcalls: 1.0,
            },
        )
        .unwrap();
        p.set(
            main,
            time,
            1,
            Measurement {
                inclusive: 12.0,
                exclusive: 6.0,
                calls: 1.0,
                subcalls: 1.0,
            },
        )
        .unwrap();
        p.set(inner, time, 0, Measurement::leaf(6.0)).unwrap();
        p.set(inner, time, 1, Measurement::leaf(6.0)).unwrap();
        p
    }

    #[test]
    fn metric_and_event_lookup() {
        let p = sample_profile();
        assert_eq!(p.metric_id("TIME"), Some(MetricId(0)));
        assert_eq!(p.metric_id("MISSING"), None);
        assert_eq!(p.event_id("main"), Some(EventId(0)));
        assert_eq!(p.main_event(), Some(EventId(0)));
        assert_eq!(p.event(EventId(1)).leaf(), "loop");
    }

    #[test]
    fn duplicate_metric_rejected() {
        let mut p = sample_profile();
        assert!(matches!(
            p.add_metric(Metric::measured("TIME")),
            Err(DmfError::Duplicate { kind: "metric", .. })
        ));
    }

    #[test]
    fn duplicate_event_rejected() {
        let mut p = sample_profile();
        assert!(matches!(
            p.add_event(Event::new("main")),
            Err(DmfError::Duplicate { kind: "event", .. })
        ));
    }

    #[test]
    fn adding_metric_resizes_existing_events() {
        let mut p = sample_profile();
        let cycles = p.add_metric(Metric::measured("CPU_CYCLES")).unwrap();
        let main = p.event_id("main").unwrap();
        assert_eq!(p.get(main, cycles, 0), Some(&Measurement::default()));
        assert_eq!(p.get(main, cycles, 1), Some(&Measurement::default()));
    }

    #[test]
    fn across_threads_views() {
        let p = sample_profile();
        let time = p.metric_id("TIME").unwrap();
        let main = p.event_id("main").unwrap();
        assert_eq!(p.exclusive_across_threads(main, time), vec![4.0, 6.0]);
        assert_eq!(p.inclusive_across_threads(main, time), vec![10.0, 12.0]);
        assert_eq!(p.mean_exclusive(main, time), 5.0);
        assert_eq!(p.mean_inclusive(main, time), 11.0);
        assert_eq!(p.max_inclusive(main, time), 12.0);
    }

    #[test]
    fn callpath_relationships() {
        let main = Event::new("main");
        let outer = Event::new("main => outer");
        let inner = Event::new("main => outer => inner");
        assert!(main.is_ancestor_of(&outer));
        assert!(main.is_ancestor_of(&inner));
        assert!(outer.is_ancestor_of(&inner));
        assert!(!inner.is_ancestor_of(&outer));
        assert!(!outer.is_ancestor_of(&outer));
        assert_eq!(inner.parent_name(), Some("main => outer"));
        assert_eq!(main.parent_name(), None);
        assert_eq!(inner.leaf(), "inner");
    }

    #[test]
    fn prefix_but_not_path_component_is_not_ancestor() {
        let a = Event::new("main");
        let b = Event::new("mainline"); // name prefix, not a callpath child
        assert!(!a.is_ancestor_of(&b));
    }

    #[test]
    fn out_of_range_set_is_error() {
        let mut p = sample_profile();
        let time = p.metric_id("TIME").unwrap();
        let main = p.event_id("main").unwrap();
        assert!(p.set(main, time, 99, Measurement::default()).is_err());
        assert!(p.get(EventId(42), time, 0).is_none());
    }

    #[test]
    fn builder_roundtrip() {
        let mut b = TrialBuilder::with_flat_threads("1_4", 4);
        let t = b.metric("TIME");
        let e = b.event("main");
        for th in 0..4 {
            b.set(e, t, th, Measurement::leaf(th as f64));
        }
        b.accumulate(e, t, 0, Measurement::leaf(1.0));
        b.meta("schedule", "dynamic");
        let trial = b.build();
        assert_eq!(trial.name, "1_4");
        assert_eq!(trial.profile.thread_count(), 4);
        let cell = trial.profile.get(e, t, 0).unwrap();
        assert_eq!(cell.exclusive, 1.0);
        assert_eq!(cell.calls, 2.0);
        assert_eq!(trial.metadata.get_str("schedule"), Some("dynamic"));
    }

    #[test]
    fn builder_reuses_ids() {
        let mut b = TrialBuilder::with_ranks("mpi", 2);
        let a = b.metric("TIME");
        let a2 = b.metric("TIME");
        assert_eq!(a, a2);
        let e = b.event("main");
        let e2 = b.event("main");
        assert_eq!(e, e2);
    }

    #[test]
    fn thread_id_display_and_constructors() {
        assert_eq!(ThreadId::flat(3).to_string(), "0.0.3");
        assert_eq!(ThreadId::rank(5).to_string(), "5.0.0");
    }

    #[test]
    fn profile_serde_roundtrip() {
        let p = sample_profile();
        let json = serde_json::to_string(&p).unwrap();
        let back: Profile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn serde_wire_format_is_nested_v1() {
        // The arena must not leak into the JSON: `data` stays the
        // nested [event][metric][thread] arrays of the original layout.
        let p = sample_profile();
        let json = serde_json::to_string(&p).unwrap();
        assert!(json.contains("\"data\":[[["));
        assert!(json.starts_with("{\"metrics\":["));
    }

    #[test]
    fn column_views_are_contiguous_and_correct() {
        let p = sample_profile();
        let time = p.metric_id("TIME").unwrap();
        let main = p.event_id("main").unwrap();
        let inner = p.event_id("main => loop").unwrap();

        let col = p.column(main, time);
        assert_eq!(col.len(), 2);
        assert_eq!(col[0].exclusive, 4.0);
        assert_eq!(col[1].exclusive, 6.0);

        // event_slice covers all metrics for one event contiguously.
        assert_eq!(p.event_slice(inner), p.column(inner, time));

        // thread_slice walks one (metric, thread) lane across events.
        let lane: Vec<f64> = p.thread_slice(time, 1).map(|(_, m)| m.exclusive).collect();
        assert_eq!(lane, vec![6.0, 6.0]);
    }

    #[test]
    fn columns_iterator_covers_every_column_once() {
        let mut p = sample_profile();
        p.add_metric(Metric::measured("CPU_CYCLES")).unwrap();
        let seen: Vec<(u32, u32)> = p.columns().map(|(e, m, _)| (e.0, m.0)).collect();
        assert_eq!(seen, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        for (e, m, col) in p.columns() {
            assert_eq!(col, p.column(e, m));
        }
        assert_eq!(p.cells().count(), 2 * 2 * 2);
    }

    #[test]
    fn columns_mut_writes_through() {
        let mut p = sample_profile();
        for (_, _, col) in p.columns_mut() {
            for cell in col {
                cell.exclusive *= 2.0;
            }
        }
        let time = p.metric_id("TIME").unwrap();
        let main = p.event_id("main").unwrap();
        assert_eq!(p.get(main, time, 0).unwrap().exclusive, 8.0);
    }

    #[test]
    fn add_metric_preserves_existing_cells() {
        let mut p = sample_profile();
        let time = p.metric_id("TIME").unwrap();
        let main = p.event_id("main").unwrap();
        let before = *p.get(main, time, 1).unwrap();
        let cyc = p.add_metric(Metric::measured("CPU_CYCLES")).unwrap();
        assert_eq!(p.get(main, time, 1), Some(&before));
        assert_eq!(p.get(main, cyc, 1), Some(&Measurement::default()));
        // Columns remain addressable after the rebuild.
        assert_eq!(p.column(main, cyc).len(), 2);
    }

    #[test]
    fn interned_lookup_tracks_mutations() {
        let mut p = Profile::new(vec![ThreadId::flat(0)]);
        assert_eq!(p.metric_id("TIME"), None);
        let t = p.add_metric(Metric::measured("TIME")).unwrap();
        let e = p.add_event(Event::new("alpha")).unwrap();
        assert_eq!(p.metric_id("TIME"), Some(t));
        assert_eq!(p.event_id("alpha"), Some(e));
        for i in 0..100 {
            p.add_event(Event::new(format!("ev{i}"))).unwrap();
        }
        assert_eq!(p.event_id("ev99"), Some(EventId(100)));
        assert_eq!(p.event_count(), 101);
        assert_eq!(p.arena().len(), 101);
    }

    #[test]
    fn empty_profiles_are_serde_stable() {
        let p = Profile::new(Vec::new());
        let json = serde_json::to_string(&p).unwrap();
        let back: Profile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
        assert_eq!(back.columns().count(), 0);
    }

    #[test]
    fn deserialize_rejects_ragged_data() {
        // Two events declared, one data block: dimension mismatch.
        let json = r#"{"metrics":[{"name":"TIME","derived":false}],
            "events":[{"name":"a","kind":null},{"name":"b","kind":null}],
            "threads":[{"node":0,"context":0,"thread":0}],
            "data":[[[{"inclusive":1.0,"exclusive":1.0,"calls":1.0,"subcalls":0.0}]]]}"#;
        assert!(serde_json::from_str::<Profile>(json).is_err());
    }
}
