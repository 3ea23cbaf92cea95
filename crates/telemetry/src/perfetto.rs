//! Perfetto binary trace exporter (+ structural validator).
//!
//! Emits the subset of the Perfetto `Trace` protobuf that the Perfetto UI
//! and `trace_processor` need to display our streams natively — hand-rolled
//! field-by-field (the dependency set has no protobuf crate), which is
//! fine because the schema surface we touch is small and stable:
//!
//! ```text
//! Trace            { repeated TracePacket packet = 1; }
//! TracePacket      { timestamp = 8 (ns), trusted_packet_sequence_id = 10,
//!                    track_event = 11, track_descriptor = 60 }
//! TrackDescriptor  { uuid = 1, name = 2, process = 3, parent_uuid = 5,
//!                    counter = 8 (marks a counter track) }
//! ProcessDescriptor{ pid = 1, process_name = 6 }
//! TrackEvent       { debug_annotations = 4, type = 9, track_uuid = 11,
//!                    categories = 22, name = 23,
//!                    counter_value = 30, double_counter_value = 44 }
//! DebugAnnotation  { uint_value = 3, double_value = 5, string_value = 6,
//!                    name = 10 }
//! ```
//!
//! Mapping from our [`Record`] stream:
//!
//! * Every sim track id becomes a child `TrackDescriptor` under one
//!   process track ("lfm-sim"); descriptors are emitted before any event
//!   that references them.
//! * Spans become `SLICE_BEGIN`/`SLICE_END` pairs (Perfetto's track
//!   events are stateful, unlike Chrome's complete `"X"` events), with
//!   task/attempt/attrs as debug annotations on the begin event. Packets
//!   are ordered so nesting reconstructs correctly: at equal timestamps,
//!   ends of earlier slices close first (innermost — shortest — first),
//!   then begins open outermost-first, and zero-duration slices emit
//!   their end immediately after their begin.
//! * Timed counters/gauges become counter tracks; counters plot running
//!   totals exactly like the Chrome exporter. Integral values use the
//!   varint `counter_value`, everything else `double_counter_value`.
//! * Untimed metric samples have no Perfetto timeline representation and
//!   are skipped here — their aggregates already ship in the Chrome
//!   trace's `otherData` and the JSONL dump.
//!
//! [`validate_trace`] is the in-repo structural checker the round-trip
//! tests use: a generic wiretype walker that verifies the packet framing,
//! that every `track_uuid` was declared by a descriptor packet first, and
//! that slice begin/end depth stays balanced per track.

use crate::codec::{self, put_f64, put_varint, put_varint_bytes, Reader};
use crate::export::TraceSink;
use crate::record::{AttrValue, MetricKind, Record};
use crate::wire::as_exact_u64;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

const NANOS: f64 = 1e9;

// TracePacket field numbers.
const PKT_TIMESTAMP: u64 = 8;
const PKT_SEQUENCE_ID: u64 = 10;
const PKT_TRACK_EVENT: u64 = 11;
const PKT_TRACK_DESCRIPTOR: u64 = 60;

// TrackDescriptor / ProcessDescriptor field numbers.
const TDESC_UUID: u64 = 1;
const TDESC_NAME: u64 = 2;
const TDESC_PROCESS: u64 = 3;
const TDESC_PARENT_UUID: u64 = 5;
const TDESC_COUNTER: u64 = 8;
const PDESC_PID: u64 = 1;
const PDESC_NAME: u64 = 6;

// TrackEvent field numbers and event types.
const TEV_DEBUG_ANNOTATION: u64 = 4;
const TEV_TYPE: u64 = 9;
const TEV_TRACK_UUID: u64 = 11;
const TEV_CATEGORY: u64 = 22;
const TEV_NAME: u64 = 23;
const TEV_COUNTER_VALUE: u64 = 30;
const TEV_DOUBLE_COUNTER_VALUE: u64 = 44;
const TYPE_SLICE_BEGIN: u64 = 1;
const TYPE_SLICE_END: u64 = 2;
const TYPE_INSTANT: u64 = 3;
const TYPE_COUNTER: u64 = 4;

// DebugAnnotation field numbers.
const ANN_UINT: u64 = 3;
const ANN_DOUBLE: u64 = 5;
const ANN_STRING: u64 = 6;
const ANN_NAME: u64 = 10;

const PROCESS_UUID: u64 = 1;
const SEQUENCE_ID: u64 = 1;

// -------------------------------------------------------------------
// protobuf fields over the shared codec
// -------------------------------------------------------------------

fn put_varint_field(buf: &mut Vec<u8>, field: u64, v: u64) {
    put_varint(buf, field << 3);
    put_varint(buf, v);
}

fn put_double_field(buf: &mut Vec<u8>, field: u64, v: f64) {
    put_varint(buf, field << 3 | 1);
    put_f64(buf, v);
}

fn put_len_field(buf: &mut Vec<u8>, field: u64, bytes: &[u8]) {
    put_varint(buf, field << 3 | 2);
    put_varint_bytes(buf, bytes);
}

fn put_str_field(buf: &mut Vec<u8>, field: u64, s: &str) {
    put_len_field(buf, field, s.as_bytes());
}

// -------------------------------------------------------------------
// export
// -------------------------------------------------------------------

fn annotation(name: &str, value: &AttrValue) -> Vec<u8> {
    let mut a = Vec::with_capacity(name.len() + 12);
    match value {
        AttrValue::U64(v) => put_varint_field(&mut a, ANN_UINT, *v),
        AttrValue::F64(v) => put_double_field(&mut a, ANN_DOUBLE, *v),
        AttrValue::Str(v) => put_str_field(&mut a, ANN_STRING, v),
    }
    put_str_field(&mut a, ANN_NAME, name);
    a
}

fn ns(secs: f64) -> u64 {
    (secs * NANOS).round().max(0.0) as u64
}

/// One fully-encoded TracePacket plus its sort key; packets at equal
/// timestamps order as: ends of earlier slices (innermost first), then
/// begins (outermost first, zero-duration ends riding just behind their
/// begin), then instants, then counter samples. `idx` (emission order)
/// breaks remaining ties deterministically.
struct Packet {
    key: (u64, u8, u64, usize, u8),
    bytes: Vec<u8>,
}

/// A TrackEvent wrapped in its TracePacket.
fn event_packet(ts: u64, event: &[u8]) -> Vec<u8> {
    let mut p = Vec::with_capacity(event.len() + 12);
    put_varint_field(&mut p, PKT_TIMESTAMP, ts);
    put_varint_field(&mut p, PKT_SEQUENCE_ID, SEQUENCE_ID);
    put_len_field(&mut p, PKT_TRACK_EVENT, event);
    p
}

/// What a track descriptor declares: the one process track, a lane
/// (sim track id) under it, or a counter track under it.
#[derive(Clone, Copy, PartialEq)]
enum TrackKind {
    Process,
    Lane,
    Counter,
}

/// A TrackDescriptor wrapped in its TracePacket.
fn descriptor_packet(uuid: u64, name: &str, kind: TrackKind) -> Vec<u8> {
    let mut desc = Vec::new();
    put_varint_field(&mut desc, TDESC_UUID, uuid);
    put_str_field(&mut desc, TDESC_NAME, name);
    if kind == TrackKind::Process {
        let mut process = Vec::new();
        put_varint_field(&mut process, PDESC_PID, 1);
        put_str_field(&mut process, PDESC_NAME, name);
        put_len_field(&mut desc, TDESC_PROCESS, &process);
    } else {
        put_varint_field(&mut desc, TDESC_PARENT_UUID, PROCESS_UUID);
    }
    if kind == TrackKind::Counter {
        put_len_field(&mut desc, TDESC_COUNTER, &[]); // presence marks the track type
    }
    let mut p = Vec::with_capacity(desc.len() + 8);
    put_varint_field(&mut p, PKT_SEQUENCE_ID, SEQUENCE_ID);
    put_len_field(&mut p, PKT_TRACK_DESCRIPTOR, &desc);
    p
}

fn process_descriptor() -> Vec<u8> {
    descriptor_packet(PROCESS_UUID, "lfm-sim", TrackKind::Process)
}

/// A slice-begin or instant TrackEvent: debug annotations (attrs, then
/// task and attempt), then type, track, category and name.
fn labelled_event(
    ty: u64,
    uuid: u64,
    cat: &str,
    name: &str,
    attrs: &[(String, AttrValue)],
    task: Option<u64>,
    attempt: Option<u32>,
) -> Vec<u8> {
    let mut ev = Vec::new();
    let ids = task
        .map(|t| ("task", t))
        .into_iter()
        .chain(attempt.map(|a| ("attempt", a as u64)));
    for (k, v) in attrs {
        put_len_field(&mut ev, TEV_DEBUG_ANNOTATION, &annotation(k, v));
    }
    for (k, v) in ids {
        put_len_field(
            &mut ev,
            TEV_DEBUG_ANNOTATION,
            &annotation(k, &AttrValue::U64(v)),
        );
    }
    put_varint_field(&mut ev, TEV_TYPE, ty);
    put_varint_field(&mut ev, TEV_TRACK_UUID, uuid);
    put_str_field(&mut ev, TEV_CATEGORY, cat);
    put_str_field(&mut ev, TEV_NAME, name);
    ev
}

/// The state both exporters keep: one uuid per lane and counter track,
/// assigned in order of first appearance, plus each counter's running
/// total. Bounded by distinct tracks, not run length.
#[derive(Default)]
struct Tracks {
    lanes: BTreeMap<u64, u64>,
    /// Metric name → (uuid, running total of its counter samples).
    counters: BTreeMap<String, (u64, f64)>,
}

impl Tracks {
    fn declared(&self) -> usize {
        self.lanes.len() + self.counters.len()
    }

    fn next_uuid(&self) -> u64 {
        PROCESS_UUID + 1 + self.declared() as u64
    }

    fn lane(&mut self, lane: u64, declare: &mut Vec<Vec<u8>>) -> u64 {
        let uuid = self.next_uuid();
        *self.lanes.entry(lane).or_insert_with(|| {
            declare.push(descriptor_packet(
                uuid,
                &format!("track-{lane}"),
                TrackKind::Lane,
            ));
            uuid
        })
    }

    fn counter(&mut self, name: &str, declare: &mut Vec<Vec<u8>>) -> &mut (u64, f64) {
        if !self.counters.contains_key(name) {
            let uuid = self.next_uuid();
            declare.push(descriptor_packet(uuid, name, TrackKind::Counter));
            self.counters.insert(name.to_string(), (uuid, 0.0));
        }
        self.counters.get_mut(name).expect("declared above")
    }

    /// Encode one record's TracePackets, keyed for [`perfetto_trace`]'s
    /// sort (`idx` is the record's position), first pushing onto
    /// `declare` the descriptor of any track the record is the first to
    /// use. A span yields its begin then its end; untimed metric samples
    /// have no timeline representation and yield nothing.
    fn encode(&mut self, idx: usize, record: &Record, declare: &mut Vec<Vec<u8>>) -> Vec<Packet> {
        match record {
            Record::Span(s) => {
                let uuid = self.lane(s.track, declare);
                let (start, end) = (ns(s.start_secs), ns(s.end_secs));
                let dur = end.saturating_sub(start);
                let begin = labelled_event(
                    TYPE_SLICE_BEGIN,
                    uuid,
                    &s.cat,
                    &s.name,
                    &s.attrs,
                    s.task,
                    s.attempt,
                );
                let mut end_ev = Vec::new();
                put_varint_field(&mut end_ev, TEV_TYPE, TYPE_SLICE_END);
                put_varint_field(&mut end_ev, TEV_TRACK_UUID, uuid);
                // Begins open outermost (longest) first; ends close
                // innermost (shortest) first. A zero-duration slice keeps
                // its end glued right after its begin (same rank/idx,
                // sub-order 1) so track depth never dips negative.
                vec![
                    Packet {
                        key: (start, 1, u64::MAX - dur, idx, 0),
                        bytes: event_packet(start, &begin),
                    },
                    Packet {
                        key: if dur == 0 {
                            (end, 1, u64::MAX, idx, 1)
                        } else {
                            (end, 0, dur, idx, 0)
                        },
                        bytes: event_packet(end, &end_ev),
                    },
                ]
            }
            Record::Instant(i) => {
                let uuid = self.lane(i.track, declare);
                let at = ns(i.at_secs);
                let ev = labelled_event(
                    TYPE_INSTANT,
                    uuid,
                    &i.cat,
                    &i.name,
                    &i.attrs,
                    i.task,
                    i.attempt,
                );
                vec![Packet {
                    key: (at, 2, 0, idx, 0),
                    bytes: event_packet(at, &ev),
                }]
            }
            Record::Metric(m) => {
                let Some(at) = m.at_secs.map(ns) else {
                    return Vec::new();
                };
                let (uuid, total) = self.counter(&m.name, declare);
                // Counters plot running totals, like the Chrome exporter.
                let value = match m.kind {
                    MetricKind::Counter => {
                        *total += m.value;
                        *total
                    }
                    _ => m.value,
                };
                let mut ev = Vec::new();
                put_varint_field(&mut ev, TEV_TYPE, TYPE_COUNTER);
                put_varint_field(&mut ev, TEV_TRACK_UUID, *uuid);
                match as_exact_u64(value) {
                    Some(v) => put_varint_field(&mut ev, TEV_COUNTER_VALUE, v),
                    None => put_double_field(&mut ev, TEV_DOUBLE_COUNTER_VALUE, value),
                }
                vec![Packet {
                    key: (at, 3, 0, idx, 0),
                    bytes: event_packet(at, &ev),
                }]
            }
        }
    }
}

/// Render a record stream as a binary Perfetto trace: every descriptor
/// first, then all events in one nesting-stable time sort.
pub fn perfetto_trace(records: &[Record]) -> Vec<u8> {
    let mut tracks = Tracks::default();
    let mut descriptors = vec![process_descriptor()];
    let mut packets: Vec<Packet> = Vec::with_capacity(records.len() * 2);
    for (idx, record) in records.iter().enumerate() {
        packets.extend(tracks.encode(idx, record, &mut descriptors));
    }
    packets.sort_by_key(|p| p.key);
    let mut out = Vec::with_capacity(records.len() * 24 + 64);
    for bytes in descriptors.iter().chain(packets.iter().map(|p| &p.bytes)) {
        put_len_field(&mut out, 1, bytes);
    }
    out
}

/// Write the Perfetto trace for `records` to `path` (legacy slice shim
/// over [`PerfettoSink`]).
pub fn write_perfetto_trace(path: &Path, records: &[Record]) -> std::io::Result<()> {
    let f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut sink = PerfettoSink::new(f);
    crate::export::export_records(&mut sink, records.iter().cloned())
}

/// Buffered Perfetto sink: collects the whole stream and renders it with
/// [`perfetto_trace`] at `finish` — **byte-identical** to the slice path.
/// Perfetto's nesting-stable packet order is a global sort over all
/// events, so exact byte parity requires seeing the full stream; memory
/// therefore grows with it. For live streaming with bounded memory use
/// [`PerfettoStreamSink`].
pub struct PerfettoSink<W: Write> {
    w: W,
    records: Vec<Record>,
}

impl<W: Write> PerfettoSink<W> {
    pub fn new(w: W) -> Self {
        PerfettoSink {
            w,
            records: Vec::new(),
        }
    }
}

impl<W: Write> TraceSink for PerfettoSink<W> {
    fn begin(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    fn record(&mut self, record: &Record) -> std::io::Result<()> {
        self.records.push(record.clone());
        Ok(())
    }

    fn finish(&mut self) -> std::io::Result<()> {
        self.w.write_all(&perfetto_trace(&self.records))?;
        self.w.flush()
    }

    fn buffered_records(&self) -> usize {
        self.records.len()
    }
}

/// Incremental Perfetto sink with bounded memory: packets are written as
/// records arrive, descriptors lazily the moment a track is first
/// referenced (always before the event that needs them), and each span's
/// `SLICE_END` rides immediately behind its `SLICE_BEGIN` so per-track
/// depth stays balanced no matter where the stream stops. State is one
/// uuid per distinct track/counter name plus one running total per
/// counter — independent of run length.
///
/// The price of streaming is packet order: packets appear in record
/// order, not the globally time-sorted, nesting-stable order
/// [`perfetto_trace`] produces, so the bytes differ from the buffered
/// path (Perfetto's trace_processor sorts on load; [`validate_trace`]
/// passes either way). Where byte-stable golden output matters, use
/// [`PerfettoSink`].
pub struct PerfettoStreamSink<W: Write> {
    w: W,
    tracks: Tracks,
}

impl<W: Write> PerfettoStreamSink<W> {
    pub fn new(w: W) -> Self {
        PerfettoStreamSink {
            w,
            tracks: Tracks::default(),
        }
    }

    /// Tracks declared so far (memory-bound diagnostics).
    pub fn tracks_declared(&self) -> usize {
        self.tracks.declared()
    }

    fn write_packet(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let mut framed = Vec::with_capacity(bytes.len() + 4);
        put_len_field(&mut framed, 1, bytes);
        self.w.write_all(&framed)
    }
}

impl<W: Write> TraceSink for PerfettoStreamSink<W> {
    fn begin(&mut self) -> std::io::Result<()> {
        self.write_packet(&process_descriptor())
    }

    fn record(&mut self, record: &Record) -> std::io::Result<()> {
        let mut declare = Vec::new();
        let packets = self.tracks.encode(0, record, &mut declare);
        for bytes in declare.iter().chain(packets.iter().map(|p| &p.bytes)) {
            self.write_packet(bytes)?;
        }
        Ok(())
    }

    fn finish(&mut self) -> std::io::Result<()> {
        self.w.flush()
    }
}

// -------------------------------------------------------------------
// structural validation
// -------------------------------------------------------------------

/// What [`validate_trace`] counted while walking a trace.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    pub packets: usize,
    pub tracks: usize,
    pub slices: usize,
    pub instants: usize,
    pub counter_samples: usize,
}

/// One protobuf field: its number, the value if it is a varint, the
/// payload if it is length-delimited.
type Field<'a> = (u64, Option<u64>, Option<&'a [u8]>);

/// Read one field tag and its payload.
fn read_field<'a>(r: &mut Reader<'a>) -> Result<Field<'a>, String> {
    let read = |r: &mut Reader<'a>| -> Result<Field<'a>, codec::Error> {
        let at = r.position();
        let key = r.varint()?;
        let field = key >> 3;
        match key & 7 {
            0 => Ok((field, Some(r.varint()?), None)),
            1 => r.take(8).map(|_| (field, None, None)),
            2 => Ok((field, None, Some(r.varint_bytes()?))),
            5 => r.take(4).map(|_| (field, None, None)),
            _ => Err(codec::Error::Corrupt {
                at,
                what: "wire type",
            }),
        }
    };
    read(r).map_err(|e| format!("trace field {e}"))
}

/// The value of varint field `field` in `msg` (its last occurrence).
fn varint_field(msg: &[u8], field: u64) -> Result<Option<u64>, String> {
    let mut r = Reader::new(msg);
    let mut value = None;
    while !r.is_empty() {
        let (f, v, _) = read_field(&mut r)?;
        if f == field {
            value = Some(v.ok_or_else(|| format!("field {field} must be varint"))?);
        }
    }
    Ok(value)
}

/// Structurally validate a Perfetto trace produced by [`perfetto_trace`]
/// (or anything schema-compatible): correct protobuf framing with every
/// byte consumed, every `track_uuid` declared by a preceding descriptor,
/// and slice begin/end balanced per track (depth never negative, zero at
/// the end). Returns counts for round-trip assertions.
pub fn validate_trace(bytes: &[u8]) -> Result<TraceStats, String> {
    let mut stats = TraceStats::default();
    let mut known_tracks: BTreeMap<u64, i64> = BTreeMap::new(); // uuid → open slice depth
    let mut r = Reader::new(bytes);
    while !r.is_empty() {
        let (field, _, payload) = read_field(&mut r)?;
        if field != 1 {
            return Err(format!("unexpected top-level field {field}"));
        }
        let payload = payload.ok_or("packet must be length-delimited")?;
        stats.packets += 1;
        let mut pkt = Reader::new(payload);
        while !pkt.is_empty() {
            let (field, value, bytes) = read_field(&mut pkt)?;
            match field {
                PKT_TIMESTAMP | PKT_SEQUENCE_ID => {
                    value.ok_or("timestamp/sequence id must be varint")?;
                }
                PKT_TRACK_DESCRIPTOR => {
                    let desc = bytes.ok_or("track descriptor must be a message")?;
                    let uuid =
                        varint_field(desc, TDESC_UUID)?.ok_or("track descriptor without uuid")?;
                    if known_tracks.insert(uuid, 0).is_some() {
                        return Err(format!("duplicate descriptor for track {uuid}"));
                    }
                    stats.tracks += 1;
                }
                PKT_TRACK_EVENT => {
                    let ev = bytes.ok_or("track event must be a message")?;
                    let ev_type = varint_field(ev, TEV_TYPE)?;
                    let uuid = varint_field(ev, TEV_TRACK_UUID)?
                        .ok_or("track event without track_uuid")?;
                    let depth = known_tracks
                        .get_mut(&uuid)
                        .ok_or_else(|| format!("event references undeclared track {uuid}"))?;
                    match ev_type.ok_or("track event without type")? {
                        TYPE_SLICE_BEGIN => {
                            *depth += 1;
                            stats.slices += 1;
                        }
                        TYPE_SLICE_END => {
                            *depth -= 1;
                            if *depth < 0 {
                                return Err(format!("slice end underflow on track {uuid}"));
                            }
                        }
                        TYPE_INSTANT => stats.instants += 1,
                        TYPE_COUNTER => stats.counter_samples += 1,
                        t => return Err(format!("unknown track event type {t}")),
                    }
                }
                _ => {}
            }
        }
    }
    for (uuid, depth) in &known_tracks {
        if *depth != 0 {
            return Err(format!("track {uuid} ends with {depth} unclosed slices"));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use lfm_simcluster::time::SimTime;

    #[test]
    fn exported_trace_validates_with_expected_counts() {
        let r = Recorder::enabled();
        r.span("outer", "sim")
            .at(SimTime::from_secs(1.0), SimTime::from_secs(4.0))
            .track(2)
            .attr("k", 7u64)
            .emit();
        r.span("inner", "sim")
            .at(SimTime::from_secs(2.0), SimTime::from_secs(3.0))
            .track(2)
            .task(5)
            .emit();
        r.instant("kill", "sim")
            .at(SimTime::from_secs(3.0))
            .track(2)
            .emit();
        r.counter_at("done", 1, SimTime::from_secs(3.0));
        r.counter_at("done", 1, SimTime::from_secs(4.0));
        r.gauge("pending", 2.5, SimTime::from_secs(2.0));
        r.counter("untimed", 9); // aggregates only: skipped on the timeline
        let trace = perfetto_trace(&r.take());
        let stats = validate_trace(&trace).expect("trace must validate");
        assert_eq!(stats.tracks, 4, "process + lane + 2 counter tracks");
        assert_eq!(stats.slices, 2);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.counter_samples, 3);
    }

    #[test]
    fn zero_duration_and_shared_timestamps_keep_depth_balanced() {
        let r = Recorder::enabled();
        // Outer span, inner span ending at the same instant, and a
        // zero-duration span at that same timestamp.
        r.span("outer", "sim")
            .at(SimTime::from_secs(1.0), SimTime::from_secs(2.0))
            .emit();
        r.span("inner", "sim")
            .at(SimTime::from_secs(1.5), SimTime::from_secs(2.0))
            .emit();
        r.span("blip", "sim")
            .at(SimTime::from_secs(2.0), SimTime::from_secs(2.0))
            .emit();
        let trace = perfetto_trace(&r.take());
        let stats = validate_trace(&trace).expect("nesting must stay balanced");
        assert_eq!(stats.slices, 3);
    }

    #[test]
    fn truncated_and_corrupt_traces_are_rejected() {
        let r = Recorder::enabled();
        r.counter_at("c", 1, SimTime::from_secs(1.0));
        let trace = perfetto_trace(&r.take());
        assert!(validate_trace(&trace[..trace.len() - 1]).is_err());
        // An event referencing a track no descriptor declared.
        let mut ev = Vec::new();
        put_varint_field(&mut ev, TEV_TYPE, TYPE_INSTANT);
        put_varint_field(&mut ev, TEV_TRACK_UUID, 99);
        let mut bogus = Vec::new();
        put_len_field(&mut bogus, 1, &event_packet(5, &ev));
        assert!(validate_trace(&bogus)
            .unwrap_err()
            .contains("undeclared track"));
        // A packet length varint whose 10th byte overflows 64 bits.
        let mut overlong = vec![0x0a];
        overlong.extend([0x80; 9]);
        overlong.push(0x02);
        assert!(validate_trace(&overlong).is_err());
    }

    #[test]
    fn empty_stream_is_a_valid_single_descriptor_trace() {
        let stats = validate_trace(&perfetto_trace(&[])).unwrap();
        assert_eq!(stats.tracks, 1, "just the process track");
        assert_eq!(stats.slices + stats.instants + stats.counter_samples, 0);
    }

    fn busy_recorder() -> Recorder {
        let r = Recorder::enabled();
        for i in 0..50u64 {
            let t = i as f64;
            r.span("step", "sim")
                .at(SimTime::from_secs(t), SimTime::from_secs(t + 0.5))
                .track(i % 3)
                .task(i)
                .attr("i", i)
                .emit();
            r.counter_at("done", 1, SimTime::from_secs(t + 0.5));
            r.gauge("depth", (i % 7) as f64, SimTime::from_secs(t));
        }
        r.instant("mark", "sim").at(SimTime::from_secs(9.0)).emit();
        r.counter("untimed", 3);
        r
    }

    #[test]
    fn buffered_sink_is_byte_identical_to_slice_export() {
        let records = busy_recorder().take();
        let slice = perfetto_trace(&records);
        let mut buf = Vec::new();
        let mut sink = PerfettoSink::new(&mut buf);
        crate::export::export_records(&mut sink, records.iter().cloned()).unwrap();
        assert_eq!(sink.buffered_records(), records.len());
        drop(sink);
        assert_eq!(buf, slice);
    }

    #[test]
    fn stream_sink_validates_with_matching_counts_and_bounded_state() {
        let records = busy_recorder().take();
        let slice_stats = validate_trace(&perfetto_trace(&records)).unwrap();
        let mut buf = Vec::new();
        let mut sink = PerfettoStreamSink::new(&mut buf);
        sink.begin().unwrap();
        for r in &records {
            sink.record(r).unwrap();
        }
        sink.finish().unwrap();
        assert_eq!(sink.buffered_records(), 0, "stream sink holds no records");
        // 3 lanes + 2 counter tracks, no matter how many records flowed.
        assert_eq!(sink.tracks_declared(), 5);
        drop(sink);
        let stats = validate_trace(&buf).expect("streamed trace must validate");
        assert_eq!(stats.tracks, slice_stats.tracks);
        assert_eq!(stats.slices, slice_stats.slices);
        assert_eq!(stats.instants, slice_stats.instants);
        assert_eq!(stats.counter_samples, slice_stats.counter_samples);
    }

    /// A fixed record set built from plain structs (no interning, no
    /// recorder), covering nested and zero-length slices, instants, every
    /// annotation type, counters with int and double values, and an
    /// untimed metric.
    fn pinned_records() -> Vec<Record> {
        use crate::record::{InstantRecord, MetricRecord, SpanRecord};
        let span = |seq, name: &str, track, start, end, task, attrs| {
            Record::Span(SpanRecord {
                seq,
                name: name.into(),
                cat: "sim".into(),
                start_secs: start,
                end_secs: end,
                track,
                depth: 0,
                task,
                attempt: task.map(|t| (t % 3) as u32),
                attrs,
            })
        };
        let metric = |seq, name: &str, kind, value, at_secs| {
            Record::Metric(MetricRecord {
                seq,
                name: name.into(),
                kind,
                value,
                at_secs,
            })
        };
        vec![
            span(
                0,
                "outer",
                2,
                1.0,
                4.0,
                Some(5),
                vec![
                    ("polls".into(), AttrValue::U64(7)),
                    ("peak".into(), AttrValue::F64(1.25)),
                    ("status".into(), AttrValue::Str("ok".into())),
                ],
            ),
            span(1, "inner", 2, 2.0, 4.0, None, Vec::new()),
            span(2, "blip", 2, 4.0, 4.0, None, Vec::new()),
            span(3, "other", 9, 0.5, 1.5, Some(1 << 33), Vec::new()),
            Record::Instant(InstantRecord {
                seq: 4,
                name: "kill".into(),
                cat: "sim".into(),
                at_secs: 3.0,
                track: 9,
                task: Some(12),
                attempt: None,
                attrs: vec![("why".into(), AttrValue::Str("limit".into()))],
            }),
            metric(5, "done", MetricKind::Counter, 1.0, Some(2.0)),
            metric(6, "done", MetricKind::Counter, 0.5, Some(3.0)),
            metric(7, "depth", MetricKind::Gauge, 4.0, Some(2.5)),
            metric(8, "depth", MetricKind::Gauge, -1.5, Some(3.5)),
            metric(9, "untimed", MetricKind::Histogram, 9.0, None),
        ]
    }

    /// Length and FNV-1a digest of the buffered and the streamed trace of
    /// [`pinned_records`]: pins both encoders byte for byte.
    #[test]
    fn trace_bytes_are_pinned() {
        let records = pinned_records();
        let slice = perfetto_trace(&records);
        assert_eq!(
            (slice.len(), crate::codec::fnv1a(&slice)),
            (528, 0x2b1e948c9ee2f5dd)
        );
        let mut stream = Vec::new();
        let mut sink = PerfettoStreamSink::new(&mut stream);
        crate::export::export_records(&mut sink, records.iter().cloned()).unwrap();
        drop(sink);
        assert_eq!(
            (stream.len(), crate::codec::fnv1a(&stream)),
            (528, 0x7f6d617de2a4cfeb)
        );
    }
}
