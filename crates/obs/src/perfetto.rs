//! Chrome/Perfetto trace-event JSON export — and a schema validator.
//!
//! The exporter turns a drained event stream into the [Trace Event
//! Format] the Perfetto UI (and `chrome://tracing`) loads directly: one
//! track per rank (`pid 0`, `tid = rank`), `"X"` complete events for
//! spans, `"i"` instants for point events, and `"s"`/`"f"` flow arrows
//! tying each message send to its receive across tracks.
//!
//! Output is a pure function of the input events: entries are emitted in
//! a stable order and floats use the shortest round-tripping form, so
//! two bit-identical event streams (e.g. two same-seed simulator runs)
//! produce byte-identical trace files. That property is load-bearing —
//! the sim-determinism regression test compares FNV digests of whole
//! files.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! Spans are recorded at completion with their duration (see
//! [`crate::event`]), so the exporter back-dates each `"X"` entry to
//! `ts - dur`.

use crate::event::{EventKind, TraceEvent};
use serde::Serialize;
use serde_json::Value;

/// FNV-1a over a byte string — the repo's standard cheap digest, used
/// for trace-file determinism checks and flow-arrow ids.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A flow arrow's id: the same (coll, round, sem, src, dst) tuple on
/// sender and receiver hashes to the same id, which is what makes the
/// arrow connect.
fn flow_id(coll: u64, round: u64, sem: u32, src: u32, dst: u32) -> u64 {
    let mut bytes = Vec::with_capacity(28);
    bytes.extend_from_slice(&coll.to_le_bytes());
    bytes.extend_from_slice(&round.to_le_bytes());
    bytes.extend_from_slice(&sem.to_le_bytes());
    bytes.extend_from_slice(&src.to_le_bytes());
    bytes.extend_from_slice(&dst.to_le_bytes());
    fnv1a(&bytes)
}

fn us(ns: u64) -> Value {
    Value::Float(ns as f64 / 1000.0)
}

/// The event's fields as a Perfetto `args` object, straight from the
/// serde shape (externally tagged: `{"Variant": {fields…}}` — we unwrap
/// to the fields).
fn args_of(kind: &EventKind) -> Value {
    match kind.to_value() {
        Value::Obj(pairs) if pairs.len() == 1 => pairs.into_iter().next().unwrap().1,
        other => other,
    }
}

fn entry(ph: &str, name: &str, tid: u32, extra: Vec<(String, Value)>) -> Value {
    let mut pairs = vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("ph".to_string(), Value::Str(ph.to_string())),
        ("pid".to_string(), Value::Int(0)),
        ("tid".to_string(), Value::Int(i128::from(tid))),
    ];
    pairs.extend(extra);
    Value::Obj(pairs)
}

/// Render `events` (any rank mix, each rank's slice in drain order) as a
/// complete Chrome/Perfetto trace-event JSON document.
pub fn perfetto_trace(events: &[TraceEvent]) -> String {
    let mut ranks: Vec<u32> = events.iter().map(|e| e.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();

    let mut entries: Vec<Value> = Vec::with_capacity(events.len() + ranks.len() + 1);
    entries.push(entry(
        "M",
        "process_name",
        0,
        vec![(
            "args".to_string(),
            Value::Obj(vec![("name".to_string(), Value::Str("pcoll".to_string()))]),
        )],
    ));
    for r in &ranks {
        entries.push(entry(
            "M",
            "thread_name",
            *r,
            vec![(
                "args".to_string(),
                Value::Obj(vec![("name".to_string(), Value::Str(format!("rank {r}")))]),
            )],
        ));
    }

    // Stable output order: by timestamp, then rank, then input position.
    let mut ordered: Vec<&TraceEvent> = events.iter().collect();
    ordered.sort_by_key(|e| (e.ts_ns, e.rank));

    for ev in ordered {
        let name = ev.kind.name();
        let args = vec![("args".to_string(), args_of(&ev.kind))];
        match ev.kind.dur_ns() {
            Some(dur) => {
                let mut extra = vec![
                    ("ts".to_string(), us(ev.ts_ns.saturating_sub(dur))),
                    ("dur".to_string(), us(dur)),
                ];
                extra.extend(args);
                entries.push(entry("X", name, ev.rank, extra));
            }
            None => {
                let mut extra = vec![
                    ("ts".to_string(), us(ev.ts_ns)),
                    ("s".to_string(), Value::Str("t".to_string())),
                ];
                extra.extend(args);
                entries.push(entry("i", name, ev.rank, extra));
            }
        }
        // Message events additionally carry a flow arrow endpoint.
        let flow = match &ev.kind {
            EventKind::MsgSend {
                coll,
                round,
                sem,
                dst,
                ..
            } => Some(("s", flow_id(*coll, *round, *sem, ev.rank, *dst))),
            EventKind::MsgRecv {
                coll,
                round,
                sem,
                src,
                ..
            } => Some(("f", flow_id(*coll, *round, *sem, *src, ev.rank))),
            _ => None,
        };
        if let Some((ph, id)) = flow {
            let mut extra = vec![
                ("ts".to_string(), us(ev.ts_ns)),
                ("cat".to_string(), Value::Str("msg".to_string())),
                ("id".to_string(), Value::Str(format!("{id:#x}"))),
            ];
            if ph == "f" {
                extra.push(("bp".to_string(), Value::Str("e".to_string())));
            }
            entries.push(entry(ph, "msg", ev.rank, extra));
        }
    }

    Value::Obj(vec![
        ("traceEvents".to_string(), Value::Arr(entries)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ])
    .to_json()
}

/// What [`validate_perfetto`] counted in a well-formed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Total trace entries (including metadata).
    pub entries: usize,
    /// `"X"` complete events (spans).
    pub spans: usize,
    /// `"i"` instant events.
    pub instants: usize,
    /// `"s"` flow starts.
    pub flow_starts: usize,
    /// `"f"` flow ends.
    pub flow_ends: usize,
    /// Distinct rank tracks carrying events.
    pub ranks: usize,
}

/// Check `json` against the trace-event schema the Perfetto UI expects:
/// a `traceEvents` array whose entries carry a known phase, a track
/// (`pid`/`tid`), timestamps where required, non-negative durations on
/// spans, and ids on flow endpoints. Returns counts on success and the
/// first violation on failure.
pub fn validate_perfetto(json: &str) -> Result<TraceSummary, String> {
    let doc = Value::parse(json).map_err(|e| format!("not JSON: {e}"))?;
    let events = doc
        .field("traceEvents")
        .and_then(|v| v.as_arr())
        .map_err(|e| format!("traceEvents: {e}"))?;
    let mut sum = TraceSummary::default();
    let mut tids = std::collections::BTreeSet::new();
    for (i, ev) in events.iter().enumerate() {
        let at = |e: &str| format!("traceEvents[{i}]: {e}");
        let ph = match ev.field("ph") {
            Ok(Value::Str(s)) => s.clone(),
            _ => return Err(at("missing string `ph`")),
        };
        if ev.field("name").is_err() {
            return Err(at("missing `name`"));
        }
        let tid = ev
            .field("tid")
            .and_then(|v| v.as_int())
            .map_err(|e| at(&format!("tid: {e}")))?;
        ev.field("pid")
            .and_then(|v| v.as_int())
            .map_err(|e| at(&format!("pid: {e}")))?;
        if ph != "M" {
            let ts = ev
                .field("ts")
                .and_then(|v| v.as_float())
                .map_err(|e| at(&format!("ts: {e}")))?;
            if !ts.is_finite() || ts < 0.0 {
                return Err(at("negative or non-finite ts"));
            }
            tids.insert(tid);
        }
        match ph.as_str() {
            "M" => {}
            "X" => {
                let dur = ev
                    .field("dur")
                    .and_then(|v| v.as_float())
                    .map_err(|e| at(&format!("dur: {e}")))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(at("negative or non-finite dur"));
                }
                sum.spans += 1;
            }
            "i" => {
                if ev.field("s").is_err() {
                    return Err(at("instant without scope `s`"));
                }
                sum.instants += 1;
            }
            "s" | "f" => {
                if ev.field("id").is_err() {
                    return Err(at("flow event without `id`"));
                }
                if ph == "s" {
                    sum.flow_starts += 1;
                } else {
                    sum.flow_ends += 1;
                }
            }
            other => return Err(at(&format!("unknown phase `{other}`"))),
        }
        sum.entries += 1;
    }
    sum.ranks = tids.len();
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                ts_ns: 1_000,
                rank: 0,
                kind: EventKind::MsgSend {
                    coll: 1,
                    round: 3,
                    sem: 2,
                    dst: 1,
                    bytes: 64,
                },
            },
            TraceEvent {
                ts_ns: 2_500,
                rank: 1,
                kind: EventKind::MsgRecv {
                    coll: 1,
                    round: 3,
                    sem: 2,
                    src: 0,
                    bytes: 64,
                },
            },
            TraceEvent {
                ts_ns: 9_000,
                rank: 1,
                kind: EventKind::RoundComplete {
                    coll: 1,
                    round: 3,
                    external: true,
                    dur_ns: 6_500,
                },
            },
            TraceEvent {
                ts_ns: 9_100,
                rank: 0,
                kind: EventKind::PeerDown { peer: 1 },
            },
        ]
    }

    #[test]
    fn export_validates_and_counts() {
        let json = perfetto_trace(&sample());
        let sum = validate_perfetto(&json).expect("valid trace");
        // 2 tracks (ranks 0, 1), 1 span, 3 instants (send, recv, and the
        // peer-down verdict all render as instants), 1 flow pair.
        assert_eq!(sum.ranks, 2);
        assert_eq!(sum.spans, 1);
        assert_eq!(sum.instants, 3);
        assert_eq!(sum.flow_starts, 1);
        assert_eq!(sum.flow_ends, 1);
    }

    #[test]
    fn matching_send_recv_share_a_flow_id() {
        let json = perfetto_trace(&sample());
        let doc = Value::parse(&json).unwrap();
        let evs = doc.field("traceEvents").unwrap().as_arr().unwrap();
        let ids: Vec<String> = evs
            .iter()
            .filter(|e| matches!(e.field("ph"), Ok(Value::Str(p)) if p == "s" || p == "f"))
            .map(|e| match e.field("id") {
                Ok(Value::Str(s)) => s.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0], ids[1], "send and recv must bind to one arrow");
    }

    #[test]
    fn spans_are_backdated_by_their_duration() {
        let json = perfetto_trace(&sample());
        let doc = Value::parse(&json).unwrap();
        let evs = doc.field("traceEvents").unwrap().as_arr().unwrap();
        let span = evs
            .iter()
            .find(|e| matches!(e.field("ph"), Ok(Value::Str(p)) if p == "X"))
            .expect("one span");
        let ts = span.field("ts").unwrap().as_float().unwrap();
        let dur = span.field("dur").unwrap().as_float().unwrap();
        assert!((ts - 2.5).abs() < 1e-9, "9.0µs end − 6.5µs dur = 2.5µs");
        assert!((dur - 6.5).abs() < 1e-9);
    }

    #[test]
    fn export_is_deterministic() {
        let a = perfetto_trace(&sample());
        let b = perfetto_trace(&sample());
        assert_eq!(a, b);
        assert_eq!(fnv1a(a.as_bytes()), fnv1a(b.as_bytes()));
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_perfetto("not json").is_err());
        assert!(validate_perfetto("{}").is_err(), "no traceEvents");
        let bad = r#"{"traceEvents":[{"name":"x","ph":"X","pid":0,"tid":0,"ts":1.0}]}"#;
        assert!(validate_perfetto(bad).is_err(), "span without dur");
        let bad = r#"{"traceEvents":[{"name":"x","ph":"q","pid":0,"tid":0,"ts":1.0}]}"#;
        assert!(validate_perfetto(bad).is_err(), "unknown phase");
        let ok = r#"{"traceEvents":[]}"#;
        assert_eq!(validate_perfetto(ok).unwrap(), TraceSummary::default());
    }
}
