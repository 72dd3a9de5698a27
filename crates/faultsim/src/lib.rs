//! Seeded fault injection over performance profiles.
//!
//! An unattended analysis service sees every kind of broken input real
//! profile collections produce: counters that went non-finite, threads
//! that never flushed their files, repositories truncated mid-write,
//! bit rot on archival storage. This crate is the corruption side of the
//! robustness story: a deterministic, composable engine that applies
//! those faults to in-memory [`Trial`]s and to their serialized text
//! forms, so tests, proptests and the `chaos` CLI can drive the whole
//! pipeline through them and assert graceful degradation instead of
//! panics.
//!
//! Everything is seeded: the same [`FaultPlan`] over the same input
//! always produces the same corruption, so a failing chaos seed is a
//! reproducible bug report.

#![warn(missing_docs)]

use perfdmf::formats::Diagnostic;
use perfdmf::{DmfError, EventId, Measurement, Metric, MetricId, Profile, ThreadId, Trial};
use rand::{Rng, SeedableRng, StdRng};

/// One corruption kind. Parameters (which cell, which thread, skew
/// factors, flip positions) are drawn from the plan's seeded generator
/// at application time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Set one measurement field of a random cell to NaN.
    NanCell,
    /// Set one measurement field of a random cell to +/- infinity.
    InfCell,
    /// Negate one measurement field of a random cell.
    NegativeCell,
    /// Zero the call count of a random cell that carries time.
    DroppedCalls,
    /// Remove one thread from the profile (a rank that never wrote its
    /// file).
    DropThread,
    /// Remove one event from the profile.
    DropEvent,
    /// Remove one metric from the profile.
    DropMetric,
    /// Rename one metric to the name of another *without* updating the
    /// interned lookup index — the duplicate-key/stale-index shape a
    /// hand-edited or bit-rotted store exhibits.
    DuplicateMetricName,
    /// Scale one thread's `TIME` columns by a skew factor, as
    /// unsynchronised node clocks do.
    ClockSkew,
    /// Cut the serialized text at a random fraction of its length.
    TruncateText,
    /// Flip a handful of random bits in the serialized bytes.
    BitFlip,
    /// Duplicate a random line of the serialized text (duplicate keys
    /// in row-oriented formats).
    DuplicateLine,
    /// Replace a random line with binary garbage.
    GarbageLine,
    /// Overwrite a PDB1 file's magic bytes with garbage.
    BadMagic,
    /// Cut the PDB1 bytes partway through a random section.
    TruncatedSection,
    /// Flip one bit of a random PDB1 section's stored checksum.
    FlippedChecksum,
    /// Knock the column-pages section offset off 8-byte alignment.
    MisalignedPage,
}

impl Fault {
    /// Faults that act on an in-memory [`Trial`].
    pub const PROFILE_FAULTS: [Fault; 9] = [
        Fault::NanCell,
        Fault::InfCell,
        Fault::NegativeCell,
        Fault::DroppedCalls,
        Fault::DropThread,
        Fault::DropEvent,
        Fault::DropMetric,
        Fault::DuplicateMetricName,
        Fault::ClockSkew,
    ];

    /// Faults that act on serialized text.
    pub const TEXT_FAULTS: [Fault; 4] = [
        Fault::TruncateText,
        Fault::BitFlip,
        Fault::DuplicateLine,
        Fault::GarbageLine,
    ];

    /// Faults that act on PDB1 binary bytes — the crash/bit-rot shapes
    /// a binary container exhibits, matched to `perfdmf::pdb1`'s
    /// corruption helpers.
    pub const BINARY_FAULTS: [Fault; 4] = [
        Fault::BadMagic,
        Fault::TruncatedSection,
        Fault::FlippedChecksum,
        Fault::MisalignedPage,
    ];

    /// Whether this fault applies to an in-memory profile.
    pub fn is_profile_fault(self) -> bool {
        Fault::PROFILE_FAULTS.contains(&self)
    }

    /// Whether this fault applies to serialized text.
    pub fn is_text_fault(self) -> bool {
        Fault::TEXT_FAULTS.contains(&self)
    }

    /// Whether this fault applies to PDB1 binary bytes.
    pub fn is_binary_fault(self) -> bool {
        Fault::BINARY_FAULTS.contains(&self)
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Record of one corruption actually performed — what the plan did, so
/// a test can assert the pipeline noticed it.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedFault {
    /// The fault kind.
    pub fault: Fault,
    /// Human-readable description of the concrete corruption
    /// (`"TIME[compute] thread 3 inclusive -> NaN"`).
    pub detail: String,
}

/// A seeded, composable corruption plan.
///
/// Apply it to a trial with [`FaultPlan::apply_to_trial`] or to a
/// serialized form with [`FaultPlan::apply_to_text`]; faults of the
/// wrong domain are skipped. Faults that cannot apply to the given
/// input (e.g. dropping a thread from a one-thread profile) are also
/// skipped, so matrix runs never fabricate empty inputs themselves —
/// parsers and workflows own that case separately.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds one fault to the plan (builder style).
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Adds several faults.
    pub fn with_all(mut self, faults: &[Fault]) -> Self {
        self.faults.extend_from_slice(faults);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The faults in application order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Applies every profile-domain fault to the trial in order,
    /// returning a record of each corruption performed.
    pub fn apply_to_trial(&self, trial: &mut Trial) -> Vec<AppliedFault> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut applied = Vec::new();
        for &fault in &self.faults {
            if !fault.is_profile_fault() {
                continue;
            }
            if let Some(detail) = apply_profile_fault(fault, &mut trial.profile, &mut rng) {
                applied.push(AppliedFault { fault, detail });
            }
        }
        applied
    }

    /// Applies every text-domain fault to the serialized form in order.
    pub fn apply_to_text(&self, text: &str) -> (String, Vec<AppliedFault>) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = text.to_string();
        let mut applied = Vec::new();
        for &fault in &self.faults {
            if !fault.is_text_fault() {
                continue;
            }
            if let Some(detail) = apply_text_fault(fault, &mut out, &mut rng) {
                applied.push(AppliedFault { fault, detail });
            }
        }
        (out, applied)
    }

    /// Applies every binary-domain fault to PDB1 bytes in order.
    ///
    /// Faults of other domains are skipped, and the PDB1 helpers refuse
    /// non-PDB1 input themselves, so feeding JSON bytes through a
    /// binary plan returns them unchanged (except [`Fault::BadMagic`],
    /// which by definition needs no valid container to scribble on).
    pub fn apply_to_bytes(&self, bytes: &[u8]) -> (Vec<u8>, Vec<AppliedFault>) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = bytes.to_vec();
        let mut applied = Vec::new();
        for &fault in &self.faults {
            if !fault.is_binary_fault() {
                continue;
            }
            if let Some(detail) = apply_binary_fault(fault, &mut out, &mut rng) {
                applied.push(AppliedFault { fault, detail });
            }
        }
        (out, applied)
    }
}

// ---------------------------------------------------------------------------
// Lifecycle faults: crashes, stalls, and unreliable chunk delivery.
// ---------------------------------------------------------------------------

/// Where in a chunk's ingest lifecycle a simulated crash lands.
///
/// The streaming ingest path is `journal append -> apply -> ack`; each
/// kill point exercises one distinct durability obligation of that
/// ordering:
///
/// * [`KillPoint::BeforeAppend`] — the chunk never reached the journal
///   and was never acked; the client must redeliver it.
/// * [`KillPoint::MidAppend`] — the process died inside the append,
///   leaving a torn frame at the journal tail; replay must truncate it
///   and the (unacked) chunk must be redelivered.
/// * [`KillPoint::AfterAppend`] — the frame is durable but the apply
///   (and ack) never happened; replay must resurrect the chunk and a
///   client retry must dedup against it.
/// * [`KillPoint::AfterApply`] — the chunk was applied and acked;
///   recovery must preserve it (an acked chunk is never lost) and a
///   replayed delivery must dedup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// Crash before the journal append of the victim chunk.
    BeforeAppend,
    /// Crash partway through writing the victim chunk's journal frame.
    MidAppend,
    /// Crash after the append is durable, before apply and ack.
    AfterAppend,
    /// Crash after the chunk was applied and acknowledged.
    AfterApply,
}

impl KillPoint {
    /// Every kill point, in lifecycle order — the CI chaos matrix.
    pub const MATRIX: [KillPoint; 4] = [
        KillPoint::BeforeAppend,
        KillPoint::MidAppend,
        KillPoint::AfterAppend,
        KillPoint::AfterApply,
    ];

    /// Parses the CLI spelling (`before-append`, `mid-append`,
    /// `after-append`, `after-apply`).
    pub fn parse(s: &str) -> Option<KillPoint> {
        match s {
            "before-append" => Some(KillPoint::BeforeAppend),
            "mid-append" => Some(KillPoint::MidAppend),
            "after-append" => Some(KillPoint::AfterAppend),
            "after-apply" => Some(KillPoint::AfterApply),
            _ => None,
        }
    }
}

impl std::fmt::Display for KillPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KillPoint::BeforeAppend => "before-append",
            KillPoint::MidAppend => "mid-append",
            KillPoint::AfterAppend => "after-append",
            KillPoint::AfterApply => "after-apply",
        })
    }
}

/// One step of an unreliable delivery schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOp {
    /// First delivery of a chunk. A `Deliver` whose position in the
    /// plan is later than the chunk's natural order models a *dropped*
    /// earlier delivery that the client retried.
    Deliver {
        /// Index of the chunk to send.
        chunk: usize,
    },
    /// A duplicated delivery of an already-sent chunk (network replay
    /// or an over-eager client retry); the ingest path must dedup it
    /// by sequence number.
    Redeliver {
        /// Index of the chunk to send again.
        chunk: usize,
    },
    /// A worker/client stall: the sender goes quiet for a few
    /// milliseconds mid-stream, exercising timing gaps between
    /// deliveries.
    Stall {
        /// How long to stall.
        millis: u64,
    },
}

/// A seeded, unreliable delivery schedule over `n` chunks: reordered,
/// with duplicated deliveries, dropped-then-retried chunks, and stalls.
///
/// Invariant: every chunk index in `0..n` appears **exactly once** as
/// [`DeliveryOp::Deliver`] — nothing is silently lost, because a real
/// client retries dropped sends. Duplicates and stalls are extra.
#[derive(Debug, Clone)]
pub struct DeliveryPlan {
    seed: u64,
    ops: Vec<DeliveryOp>,
    duplicated: usize,
    deferred: usize,
    stalls: usize,
}

impl DeliveryPlan {
    /// Builds the schedule for `chunks` chunks. `bootstrap`, when
    /// given, is delivered first (streaming trials bootstrap from the
    /// chunk that carries the root event); the rest are shuffled.
    pub fn generate(seed: u64, chunks: usize, bootstrap: Option<usize>) -> DeliveryPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11fe_c7c1e);
        let mut order: Vec<usize> = (0..chunks).filter(|&i| Some(i) != bootstrap).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..i + 1));
        }

        // A slice of the stream gets "dropped" in flight and retried
        // after everything else — the reordering an unreliable network
        // plus client retry produces.
        let mut deferred = Vec::new();
        let mut first_pass = Vec::new();
        for &c in &order {
            if order.len() > 1 && rng.random::<f64>() < 0.2 {
                deferred.push(c);
            } else {
                first_pass.push(c);
            }
        }

        let mut plan = DeliveryPlan {
            seed,
            ops: Vec::new(),
            duplicated: 0,
            deferred: deferred.len(),
            stalls: 0,
        };
        let push_deliver = |plan: &mut DeliveryPlan, rng: &mut StdRng, chunk: usize| {
            plan.ops.push(DeliveryOp::Deliver { chunk });
            if rng.random::<f64>() < 0.25 {
                plan.ops.push(DeliveryOp::Redeliver { chunk });
                plan.duplicated += 1;
            }
            if rng.random::<f64>() < 0.15 {
                plan.ops.push(DeliveryOp::Stall {
                    millis: 1 + rng.random_range(0..3u64),
                });
                plan.stalls += 1;
            }
        };
        if let Some(b) = bootstrap {
            push_deliver(&mut plan, &mut rng, b);
        }
        for c in first_pass {
            push_deliver(&mut plan, &mut rng, c);
        }
        for c in deferred {
            push_deliver(&mut plan, &mut rng, c);
        }
        plan
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The delivery steps in order.
    pub fn ops(&self) -> &[DeliveryOp] {
        &self.ops
    }

    /// How many duplicated deliveries the plan injects.
    pub fn duplicated(&self) -> usize {
        self.duplicated
    }

    /// How many chunks were dropped in flight and retried at the tail.
    pub fn deferred(&self) -> usize {
        self.deferred
    }

    /// How many stalls the plan injects.
    pub fn stalls(&self) -> usize {
        self.stalls
    }

    /// The positions (op indices) of first deliveries, in op order —
    /// the schedule a crash harness counts acks against.
    pub fn deliveries(&self) -> Vec<usize> {
        self.ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| matches!(op, DeliveryOp::Deliver { .. }).then_some(i))
            .collect()
    }
}

/// Picks a random `(event, metric, thread)` cell, or `None` on an empty
/// profile.
fn pick_cell(p: &Profile, rng: &mut StdRng) -> Option<(EventId, MetricId, usize)> {
    if p.event_count() == 0 || p.metric_count() == 0 || p.thread_count() == 0 {
        return None;
    }
    Some((
        EventId(rng.random_range(0..p.event_count() as u32)),
        MetricId(rng.random_range(0..p.metric_count() as u32)),
        rng.random_range(0..p.thread_count()),
    ))
}

/// Field names of a [`Measurement`], indexable for random choice.
const FIELDS: [&str; 4] = ["inclusive", "exclusive", "calls", "subcalls"];

fn field_mut(m: &mut Measurement, i: usize) -> &mut f64 {
    match i {
        0 => &mut m.inclusive,
        1 => &mut m.exclusive,
        2 => &mut m.calls,
        _ => &mut m.subcalls,
    }
}

fn cell_detail(p: &Profile, e: EventId, m: MetricId, t: usize, field: usize, to: &str) -> String {
    format!(
        "{}[{}] thread {} {} -> {}",
        p.metric(m).name,
        p.event(e).name,
        t,
        FIELDS[field],
        to
    )
}

fn apply_profile_fault(fault: Fault, p: &mut Profile, rng: &mut StdRng) -> Option<String> {
    match fault {
        Fault::NanCell | Fault::InfCell | Fault::NegativeCell => {
            let (e, m, t) = pick_cell(p, rng)?;
            let field = rng.random_range(0..4usize);
            let value = match fault {
                Fault::NanCell => f64::NAN,
                Fault::InfCell => {
                    if rng.random::<bool>() {
                        f64::INFINITY
                    } else {
                        f64::NEG_INFINITY
                    }
                }
                _ => -(rng.random::<f64>() * 1e6 + 1.0),
            };
            let detail = cell_detail(p, e, m, t, field, &value.to_string());
            *field_mut(&mut p.column_mut(e, m)[t], field) = value;
            Some(detail)
        }
        Fault::DroppedCalls => {
            let time = p.metric_id("TIME")?;
            if p.event_count() == 0 || p.thread_count() == 0 {
                return None;
            }
            let e = EventId(rng.random_range(0..p.event_count() as u32));
            let t = rng.random_range(0..p.thread_count());
            let detail = cell_detail(p, e, time, t, 2, "0");
            p.column_mut(e, time)[t].calls = 0.0;
            Some(detail)
        }
        Fault::DropThread => {
            if p.thread_count() < 2 {
                return None;
            }
            let drop = rng.random_range(0..p.thread_count());
            let detail = format!("dropped thread {:?}", p.threads()[drop]);
            *p = rebuild_without(p, Axis::Thread(drop));
            Some(detail)
        }
        Fault::DropEvent => {
            if p.event_count() < 2 {
                return None;
            }
            let drop = rng.random_range(0..p.event_count());
            let detail = format!("dropped event {:?}", p.events()[drop].name);
            *p = rebuild_without(p, Axis::Event(drop));
            Some(detail)
        }
        Fault::DropMetric => {
            if p.metric_count() < 2 {
                return None;
            }
            let drop = rng.random_range(0..p.metric_count());
            let detail = format!("dropped metric {:?}", p.metrics()[drop].name);
            *p = rebuild_without(p, Axis::Metric(drop));
            Some(detail)
        }
        Fault::DuplicateMetricName => {
            if p.metric_count() < 2 {
                return None;
            }
            let victim = rng.random_range(0..p.metric_count() as u32);
            let donor = (victim + 1 + rng.random_range(0..p.metric_count() as u32 - 1))
                % p.metric_count() as u32;
            let name = p.metric(MetricId(donor)).name.clone();
            let detail = format!(
                "metric {:?} renamed to duplicate {:?} (index left stale)",
                p.metric(MetricId(victim)).name,
                name
            );
            p.corrupt_metric_name(MetricId(victim), name);
            Some(detail)
        }
        Fault::ClockSkew => {
            let time = p.metric_id("TIME")?;
            if p.thread_count() == 0 {
                return None;
            }
            let t = rng.random_range(0..p.thread_count());
            let factor = 1.0 + rng.random::<f64>() * 4.0;
            for ei in 0..p.event_count() {
                let cell = &mut p.column_mut(EventId(ei as u32), time)[t];
                cell.inclusive *= factor;
                cell.exclusive *= factor;
            }
            Some(format!("thread {t} TIME skewed by {factor:.3}"))
        }
        _ => None,
    }
}

enum Axis {
    Thread(usize),
    Event(usize),
    Metric(usize),
}

/// Rebuilds a profile with one element of one axis removed, copying all
/// surviving cells.
fn rebuild_without(src: &Profile, drop: Axis) -> Profile {
    let keep_t: Vec<usize> = (0..src.thread_count())
        .filter(|&t| !matches!(drop, Axis::Thread(d) if d == t))
        .collect();
    let keep_e: Vec<usize> = (0..src.event_count())
        .filter(|&e| !matches!(drop, Axis::Event(d) if d == e))
        .collect();
    let keep_m: Vec<usize> = (0..src.metric_count())
        .filter(|&m| !matches!(drop, Axis::Metric(d) if d == m))
        .collect();

    let threads: Vec<ThreadId> = keep_t.iter().map(|&t| src.threads()[t]).collect();
    let mut out = Profile::with_capacity(threads, keep_e.len(), keep_m.len());
    // A prior fault may have introduced duplicate names; keep the first
    // occurrence of a name and drop shadowed copies, remembering which
    // source columns actually made it in.
    let mut added_m: Vec<usize> = Vec::new();
    for &m in &keep_m {
        let metric = src.metrics()[m].clone();
        if out
            .add_metric(Metric {
                name: metric.name,
                derived: metric.derived,
            })
            .is_ok()
        {
            added_m.push(m);
        }
    }
    let mut added_e: Vec<usize> = Vec::new();
    for &e in &keep_e {
        if out.add_event(src.events()[e].clone()).is_ok() {
            added_e.push(e);
        }
    }
    for (oe, &e) in added_e.iter().enumerate() {
        for (om, &m) in added_m.iter().enumerate() {
            let src_col = src.column(EventId(e as u32), MetricId(m as u32));
            let dst = out.column_mut(EventId(oe as u32), MetricId(om as u32));
            for (oi, &t) in keep_t.iter().enumerate() {
                dst[oi] = src_col[t];
            }
        }
    }
    out
}

fn apply_binary_fault(fault: Fault, bytes: &mut Vec<u8>, rng: &mut StdRng) -> Option<String> {
    use perfdmf::pdb1;
    match fault {
        Fault::BadMagic => {
            // Two fixed garbage bytes keep the result from ever being a
            // valid magic; two random ones vary the corruption by seed.
            let garbage = [
                0xDE,
                0xAD,
                rng.random_range(0..256u32) as u8,
                rng.random_range(0..256u32) as u8,
            ];
            pdb1::corrupt_magic(bytes, garbage)
        }
        Fault::TruncatedSection => {
            let section = rng.random_range(0..3usize);
            let frac = rng.random::<f64>();
            pdb1::truncate_in_section(bytes, section, frac)
        }
        Fault::FlippedChecksum => {
            let section = rng.random_range(0..3usize);
            let bit = rng.random_range(0..32u32);
            pdb1::flip_section_checksum(bytes, section, bit)
        }
        Fault::MisalignedPage => pdb1::misalign_pages_offset(bytes, 1 + rng.random_range(0..7u64)),
        _ => None,
    }
}

fn apply_text_fault(fault: Fault, text: &mut String, rng: &mut StdRng) -> Option<String> {
    match fault {
        Fault::TruncateText => {
            if text.is_empty() {
                return None;
            }
            let mut cut = rng.random_range(0..text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text.truncate(cut);
            Some(format!("truncated to {cut} bytes"))
        }
        Fault::BitFlip => {
            if text.is_empty() {
                return None;
            }
            let mut bytes = text.clone().into_bytes();
            let flips = rng.random_range(1..4usize);
            let mut positions = Vec::with_capacity(flips);
            for _ in 0..flips {
                let at = rng.random_range(0..bytes.len());
                let bit = rng.random_range(0..8u32);
                bytes[at] ^= 1 << bit;
                positions.push(format!("byte {at} bit {bit}"));
            }
            *text = String::from_utf8_lossy(&bytes).into_owned();
            Some(format!("flipped {}", positions.join(", ")))
        }
        Fault::DuplicateLine => {
            let lines: Vec<&str> = text.lines().collect();
            if lines.is_empty() {
                return None;
            }
            let at = rng.random_range(0..lines.len());
            let dup = lines[at].to_string();
            let mut out: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
            out.insert(at, dup);
            *text = out.join("\n");
            text.push('\n');
            Some(format!("duplicated line {}", at + 1))
        }
        Fault::GarbageLine => {
            let lines: Vec<&str> = text.lines().collect();
            if lines.is_empty() {
                return None;
            }
            let at = rng.random_range(0..lines.len());
            let mut out: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
            let garbage: String = (0..rng.random_range(4..24usize))
                .map(|_| (rng.random_range(0x21..0x7fu32)) as u8 as char)
                .collect();
            out[at] = garbage;
            *text = out.join("\n");
            text.push('\n');
            Some(format!("replaced line {} with garbage", at + 1))
        }
        _ => None,
    }
}

/// Checks one reader's strict/lossy contract on one input. Every
/// profile reader is one walk under two fault policies, so its strict
/// entry point succeeds exactly when the lossy one (or PDB1 salvage)
/// reports nothing, both then read the same value, and a strict
/// failure's message is the cause the first diagnostic records.
/// Returns the violation, if any.
pub fn policy_contract<T: PartialEq>(
    reader: &str,
    strict: perfdmf::Result<T>,
    lossy: Option<T>,
    diagnostics: &[Diagnostic],
) -> Option<String> {
    match strict {
        Ok(_) if !diagnostics.is_empty() => Some(format!(
            "{reader}: strict accepted what lossy diagnosed ({})",
            diagnostics[0]
        )),
        Ok(value) if lossy.as_ref() != Some(&value) => {
            Some(format!("{reader}: strict and lossy read different values"))
        }
        Ok(_) => None,
        Err(e) => {
            let cause = match e {
                DmfError::Parse { message, .. } => message,
                DmfError::Json(e) => e.to_string(),
                other => other.to_string(),
            };
            match diagnostics.first() {
                None => Some(format!("{reader}: strict failed ({cause}), lossy is clean")),
                Some(d) if !d.message.contains(&cause) => Some(format!(
                    "{reader}: first diagnostic {:?} does not record the strict cause {cause:?}",
                    d.message
                )),
                Some(_) => None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf::TrialBuilder;

    fn trial() -> Trial {
        let mut b = TrialBuilder::with_flat_threads("t", 4);
        let time = b.metric("TIME");
        let cyc = b.metric("CPU_CYCLES");
        for name in ["main", "main => compute", "main => exchange"] {
            let e = b.event(name);
            for t in 0..4 {
                b.set(e, time, t, Measurement::leaf(10.0 + t as f64));
                b.set(e, cyc, t, Measurement::leaf(1e6));
            }
        }
        b.build()
    }

    #[test]
    fn plans_are_deterministic() {
        let plan = FaultPlan::new(7).with_all(&Fault::PROFILE_FAULTS);
        let mut a = trial();
        let mut b = trial();
        let ra = plan.apply_to_trial(&mut a);
        let rb = plan.apply_to_trial(&mut b);
        assert_eq!(ra, rb);
        assert_eq!(a.profile, b.profile);
        assert!(!ra.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        // Same fault, different seed: hits a different cell/field (the
        // fixed seeds here are chosen to differ and stay stable).
        let da = FaultPlan::new(1)
            .with(Fault::NanCell)
            .apply_to_trial(&mut trial());
        let db = FaultPlan::new(2)
            .with(Fault::NanCell)
            .apply_to_trial(&mut trial());
        assert_ne!(da[0].detail, db[0].detail);
    }

    #[test]
    fn nan_fault_lands_in_profile() {
        let mut t = trial();
        let applied = FaultPlan::new(3)
            .with(Fault::NanCell)
            .apply_to_trial(&mut t);
        assert_eq!(applied.len(), 1);
        let any_nan = t.profile.arena().iter().any(|c| {
            c.inclusive.is_nan() || c.exclusive.is_nan() || c.calls.is_nan() || c.subcalls.is_nan()
        });
        assert!(any_nan);
    }

    #[test]
    fn drop_faults_shrink_axes() {
        let mut t = trial();
        FaultPlan::new(5)
            .with(Fault::DropThread)
            .with(Fault::DropEvent)
            .with(Fault::DropMetric)
            .apply_to_trial(&mut t);
        assert_eq!(t.profile.thread_count(), 3);
        assert_eq!(t.profile.event_count(), 2);
        assert_eq!(t.profile.metric_count(), 1);
        // The arena stays consistent with the shrunken axes.
        assert_eq!(t.profile.arena().len(), 3 * 2);
    }

    #[test]
    fn duplicate_metric_creates_stale_index() {
        let mut t = trial();
        let applied = FaultPlan::new(11)
            .with(Fault::DuplicateMetricName)
            .apply_to_trial(&mut t);
        assert_eq!(applied.len(), 1);
        let names: Vec<&str> = t
            .profile
            .metrics()
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(names, vec!["TIME", "TIME"]);
        // Both original names still resolve through the stale index.
        assert!(t.profile.metric_id("TIME").is_some());
        assert!(t.profile.metric_id("CPU_CYCLES").is_some());
    }

    #[test]
    fn text_faults_change_text_deterministically() {
        let text = "header\nrow one\nrow two\nrow three\n";
        let plan = FaultPlan::new(9).with_all(&Fault::TEXT_FAULTS);
        let (a, ra) = plan.apply_to_text(text);
        let (b, rb) = plan.apply_to_text(text);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        assert_ne!(a, text);
        assert_eq!(ra.len(), 4);
    }

    #[test]
    fn profile_faults_skip_text_and_vice_versa() {
        let mut t = trial();
        let (txt, applied_text) = FaultPlan::new(1)
            .with(Fault::NanCell)
            .apply_to_text("abc\n");
        assert_eq!(txt, "abc\n");
        assert!(applied_text.is_empty());
        let applied = FaultPlan::new(1)
            .with(Fault::TruncateText)
            .apply_to_trial(&mut t);
        assert!(applied.is_empty());
    }

    #[test]
    fn binary_faults_corrupt_pdb1_deterministically() {
        let mut repo = perfdmf::Repository::new();
        repo.add_trial("app", "exp", trial()).unwrap();
        let bytes = repo.to_pdb1();

        let plan = FaultPlan::new(17).with_all(&Fault::BINARY_FAULTS);
        let (a, ra) = plan.apply_to_bytes(&bytes);
        let (b, rb) = plan.apply_to_bytes(&bytes);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        assert_ne!(a, bytes);
        assert!(!ra.is_empty());
        // Every applied corruption defeats the strict reader.
        assert!(perfdmf::Repository::from_pdb1(&a).is_err());
    }

    #[test]
    fn binary_faults_skip_other_domains_and_non_pdb1_input() {
        // A binary plan leaves text and trials alone.
        let plan = FaultPlan::new(1).with_all(&Fault::BINARY_FAULTS);
        let (txt, applied) = plan.apply_to_text("abc\n");
        assert_eq!(txt, "abc\n");
        assert!(applied.is_empty());
        let mut t = trial();
        assert!(plan.apply_to_trial(&mut t).is_empty());

        // Structural binary faults refuse JSON bytes; only BadMagic —
        // a blind scribble over the first four bytes — still lands.
        let json = b"{\"applications\": {}}".to_vec();
        let (out, applied) = FaultPlan::new(1)
            .with(Fault::TruncatedSection)
            .with(Fault::FlippedChecksum)
            .with(Fault::MisalignedPage)
            .apply_to_bytes(&json);
        assert_eq!(out, json);
        assert!(applied.is_empty());

        // And text plans skip binary bytes-domain faults.
        let (txt2, applied2) = FaultPlan::new(2)
            .with(Fault::BadMagic)
            .apply_to_text("abcdef\n");
        assert_eq!(txt2, "abcdef\n");
        assert!(applied2.is_empty());
    }

    #[test]
    fn every_binary_fault_kind_applies_to_a_real_file() {
        let mut repo = perfdmf::Repository::new();
        repo.add_trial("app", "exp", trial()).unwrap();
        let bytes = repo.to_pdb1();
        for fault in Fault::BINARY_FAULTS {
            let (out, applied) = FaultPlan::new(23).with(fault).apply_to_bytes(&bytes);
            assert_eq!(applied.len(), 1, "{fault} did not apply");
            assert_eq!(applied[0].fault, fault);
            assert_ne!(out, bytes, "{fault} left the bytes unchanged");
        }
    }

    #[test]
    fn delivery_plans_are_deterministic_and_complete() {
        for seed in 0..32u64 {
            let a = DeliveryPlan::generate(seed, 9, Some(4));
            let b = DeliveryPlan::generate(seed, 9, Some(4));
            assert_eq!(a.ops(), b.ops());
            // Every chunk is first-delivered exactly once; nothing is
            // silently lost no matter how hostile the plan.
            let mut seen = vec![0usize; 9];
            for op in a.ops() {
                if let DeliveryOp::Deliver { chunk } = op {
                    seen[*chunk] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "seed {seed}: {seen:?}");
            // The bootstrap chunk leads the schedule.
            assert_eq!(a.ops()[0], DeliveryOp::Deliver { chunk: 4 });
            // Duplicated deliveries only follow their first delivery.
            let mut delivered = std::collections::HashSet::new();
            for op in a.ops() {
                match op {
                    DeliveryOp::Deliver { chunk } => {
                        delivered.insert(*chunk);
                    }
                    DeliveryOp::Redeliver { chunk } => {
                        assert!(delivered.contains(chunk), "seed {seed}: early redeliver")
                    }
                    DeliveryOp::Stall { .. } => {}
                }
            }
            assert_eq!(a.deliveries().len(), 9);
        }
    }

    #[test]
    fn delivery_plans_vary_by_seed_and_inject_lifecycle_faults() {
        let plans: Vec<DeliveryPlan> = (0..16)
            .map(|s| DeliveryPlan::generate(s, 12, None))
            .collect();
        assert!(
            plans.windows(2).any(|w| w[0].ops() != w[1].ops()),
            "16 seeds produced identical schedules"
        );
        // Across a modest seed range every lifecycle fault kind shows up.
        assert!(plans.iter().any(|p| p.duplicated() > 0));
        assert!(plans.iter().any(|p| p.deferred() > 0));
        assert!(plans.iter().any(|p| p.stalls() > 0));
    }

    #[test]
    fn kill_point_parse_round_trips() {
        for kp in KillPoint::MATRIX {
            assert_eq!(KillPoint::parse(&kp.to_string()), Some(kp));
        }
        assert_eq!(KillPoint::parse("nope"), None);
    }

    #[test]
    fn inapplicable_faults_are_skipped() {
        let mut b = TrialBuilder::with_flat_threads("tiny", 1);
        let time = b.metric("TIME");
        let e = b.event("main");
        b.set(e, time, 0, Measurement::leaf(1.0));
        let mut t = b.build();
        let applied = FaultPlan::new(1)
            .with(Fault::DropThread)
            .with(Fault::DropEvent)
            .with(Fault::DropMetric)
            .with(Fault::DuplicateMetricName)
            .apply_to_trial(&mut t);
        assert!(applied.is_empty());
        assert_eq!(t.profile.thread_count(), 1);
    }
}
