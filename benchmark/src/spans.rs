//! In-memory spans recorded from outside the product, their tree, self
//! times, and the Chrome-trace dump written when a traced run ends.
//!
//! The decorators in `decor.rs` record one raw span per call into a
//! layer's public function. The trainer's own share of a step is never
//! timed directly: the step span and the two gaps the trainer fills
//! between calls (the injected sleeps, and the gradient reduction with
//! its copies) are derived afterwards from the order of the calls.

use crate::report::obj;
use serde::json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span names; the part before the dot is the crate (layer) the time
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Step = 0,
    Sample = 1,
    GradStep = 2,
    Sleep = 3,
    WriteGrads = 4,
    ReduceCall = 5,
    OptDelta = 6,
    ApplyDelta = 7,
    Round = 8,
}

impl Kind {
    pub const ALL: [Kind; 9] = [
        Kind::Step,
        Kind::Sample,
        Kind::GradStep,
        Kind::Sleep,
        Kind::WriteGrads,
        Kind::ReduceCall,
        Kind::OptDelta,
        Kind::ApplyDelta,
        Kind::Round,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Step => "eager_sgd.step",
            Kind::Sample => "datagen.sample",
            Kind::GradStep => "dnn.grad_step",
            Kind::Sleep => "imbalance.sleep",
            Kind::WriteGrads => "dnn.write_grads",
            Kind::ReduceCall => "eager_sgd.reduce_call",
            Kind::OptDelta => "dnn.opt_delta",
            Kind::ApplyDelta => "dnn.apply_delta",
            Kind::Round => "pcoll.round",
        }
    }

    fn from_code(code: u64) -> Kind {
        Kind::ALL[code as usize]
    }
}

/// One span: name, start, end, the span that caused it, and the step (or
/// round) it belongs to. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same list.
    pub parent: Option<usize>,
    pub step: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-rank recorder the decorators write into. Pre-allocated; a record
/// is one uncontended lock and one push.
pub struct SpanSink {
    epoch: Instant,
    step: AtomicU64,
    raw: Mutex<Vec<Span>>,
}

impl SpanSink {
    pub fn new(epoch: Instant, capacity: usize) -> SpanSink {
        SpanSink {
            epoch,
            step: AtomicU64::new(0),
            raw: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    /// The trainer moved on to `step` (called from `Workload::sample`).
    pub fn set_step(&self, step: u64) {
        self.step.store(step, Ordering::Relaxed);
    }

    pub fn record(&self, kind: Kind, start: Instant, end: Instant) {
        let span = Span {
            kind,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            parent: None,
            step: self.step.load(Ordering::Relaxed),
        };
        self.raw
            .lock()
            .expect("span sink poisoned by a panicking rank")
            .push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .raw
                .lock()
                .expect("span sink poisoned by a panicking rank"),
        )
    }
}

/// Build one rank's span tree from the raw call spans of its steps.
///
/// Per step the trainer calls, in order: `sample`, `grad_step`,
/// (sleeps), `write_grads`, (reduce), `opt.delta`, `apply_delta`. The
/// step span runs from `sample`'s start to the next step's `sample`
/// start — or to `apply_delta`'s end for the last step of a window,
/// after which evaluation and barriers follow. Calls outside a step
/// (model synchronisation, evaluation) carry no `sample` and are dropped.
pub fn step_tree(raw: &[Span], window_steps: usize) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::with_capacity(raw.len() + raw.len() / 2);
    let mut i = 0;
    while i < raw.len() {
        if raw[i].kind != Kind::Sample {
            i += 1;
            continue;
        }
        let step = raw[i].step;
        let calls: Vec<Span> = raw[i..]
            .iter()
            .take_while(|s| s.step == step)
            .take(5)
            .copied()
            .collect();
        let complete = calls.len() == 5
            && calls[1].kind == Kind::GradStep
            && calls[2].kind == Kind::WriteGrads
            && calls[3].kind == Kind::OptDelta
            && calls[4].kind == Kind::ApplyDelta;
        if !complete {
            i += 1;
            continue;
        }
        let next_sample = raw.get(i + 5).filter(|s| s.kind == Kind::Sample);
        let last_of_window = (step as usize + 1).is_multiple_of(window_steps);
        let end_ns = match next_sample {
            Some(s) if !last_of_window => s.start_ns,
            _ => calls[4].end_ns,
        };
        let root = out.len();
        out.push(Span {
            kind: Kind::Step,
            start_ns: calls[0].start_ns,
            end_ns,
            parent: None,
            step,
        });
        let child = |kind, start_ns, end_ns| Span {
            kind,
            start_ns,
            end_ns,
            parent: Some(root),
            step,
        };
        out.push(child(Kind::Sample, calls[0].start_ns, calls[0].end_ns));
        out.push(child(Kind::GradStep, calls[1].start_ns, calls[1].end_ns));
        out.push(child(Kind::Sleep, calls[1].end_ns, calls[2].start_ns));
        out.push(child(Kind::WriteGrads, calls[2].start_ns, calls[2].end_ns));
        out.push(child(Kind::ReduceCall, calls[2].end_ns, calls[3].start_ns));
        out.push(child(Kind::OptDelta, calls[3].start_ns, calls[3].end_ns));
        out.push(child(Kind::ApplyDelta, calls[4].start_ns, calls[4].end_ns));
        i += 5;
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are not counted twice,
/// and a child is clipped to its parent's interval).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Flatten spans to integers (five per span) so they can cross the TCP
/// launch's JSON result channel.
pub fn encode(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .flat_map(|s| {
            [
                s.kind as u64,
                s.start_ns,
                s.end_ns,
                s.parent.map_or(0, |p| p as u64 + 1),
                s.step,
            ]
        })
        .collect()
}

/// Inverse of [`encode`].
pub fn decode(flat: &[u64]) -> Vec<Span> {
    flat.chunks_exact(5)
        .map(|c| Span {
            kind: Kind::from_code(c[0]),
            start_ns: c[1],
            end_ns: c[2],
            parent: c[3].checked_sub(1).map(|p| p as usize),
            step: c[4],
        })
        .collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, one track per rank.
pub fn chrome_trace(tracks: &[(String, Vec<Span>)], meta: Value) -> Value {
    let text = |s: &str| Value::Str(s.into());
    let mut events = Vec::new();
    for (tid, (track, spans)) in tracks.iter().enumerate() {
        let tid = Value::Int(tid as i128);
        events.push(obj(vec![
            ("name", text("thread_name")),
            ("ph", text("M")),
            ("pid", Value::Int(0)),
            ("tid", tid.clone()),
            ("args", obj(vec![("name", text(track))])),
        ]));
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(Value::Null, |p| Value::Int(p as i128));
            events.push(obj(vec![
                ("name", text(s.kind.name())),
                ("ph", text("X")),
                ("ts", Value::Float(s.start_ns as f64 / 1e3)),
                ("dur", Value::Float(s.dur_ns() as f64 / 1e3)),
                ("pid", Value::Int(0)),
                ("tid", tid.clone()),
                (
                    "args",
                    obj(vec![
                        ("id", Value::Int(id as i128)),
                        ("parent", parent),
                        ("step", Value::Int(i128::from(s.step))),
                    ]),
                ),
            ]));
        }
    }
    obj(vec![
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", text("ms")),
        ("otherData", meta),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
            parent,
            step: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once_and_clips_them() {
        let spans = [
            span(Kind::Step, 0, 100, None),
            span(Kind::GradStep, 10, 40, Some(0)),
            // Overlaps the previous child by 10 and its own child nests.
            span(Kind::ReduceCall, 30, 70, Some(0)),
            span(Kind::Round, 35, 60, Some(2)),
            // Sticks out of the parent: only 90..100 counts.
            span(Kind::ApplyDelta, 90, 130, Some(0)),
        ];
        let own = self_times_ns(&spans);
        // Children cover 10..70 and 90..100 of the step.
        assert_eq!(own[0], 100 - 60 - 10);
        assert_eq!(own[1], 30);
        assert_eq!(own[2], 40 - 25);
        assert_eq!(own[3], 25);
        assert_eq!(own[4], 40);
    }

    #[test]
    fn step_tree_derives_step_sleep_and_reduce_spans() {
        let call = |kind, start_ns, end_ns, step| Span {
            kind,
            start_ns,
            end_ns,
            parent: None,
            step,
        };
        let raw = [
            call(Kind::Sample, 0, 2, 0),
            call(Kind::GradStep, 3, 10, 0),
            call(Kind::WriteGrads, 30, 32, 0),
            call(Kind::OptDelta, 50, 52, 0),
            call(Kind::ApplyDelta, 52, 55, 0),
            // Step 1 closes the window: its span ends with apply_delta.
            call(Kind::Sample, 60, 61, 1),
            call(Kind::GradStep, 61, 70, 1),
            call(Kind::WriteGrads, 70, 71, 1),
            call(Kind::OptDelta, 80, 81, 1),
            call(Kind::ApplyDelta, 81, 85, 1),
            // Model synchronisation between windows: not part of a step.
            call(Kind::WriteGrads, 90, 95, 1),
        ];
        let tree = step_tree(&raw, 2);
        assert_eq!(tree.len(), 16);
        assert_eq!(
            (tree[0].kind, tree[0].start_ns, tree[0].end_ns),
            (Kind::Step, 0, 60)
        );
        assert_eq!(
            (tree[3].kind, tree[3].start_ns, tree[3].end_ns),
            (Kind::Sleep, 10, 30)
        );
        assert_eq!(
            (tree[5].kind, tree[5].start_ns, tree[5].end_ns),
            (Kind::ReduceCall, 32, 50)
        );
        assert_eq!((tree[8].kind, tree[8].end_ns), (Kind::Step, 85));
        assert!(tree[9..].iter().all(|s| s.parent == Some(8)));
        // Self times of a step's spans add up to the step exactly.
        let own = self_times_ns(&tree);
        let total: u64 = own[..8].iter().sum();
        assert_eq!(total, tree[0].dur_ns());
        assert_eq!(own[0], 60 - (2 + 7 + 20 + 2 + 18 + 2 + 3));
    }

    #[test]
    fn encode_round_trips() {
        let spans = vec![
            span(Kind::Step, 5, 50, None),
            span(Kind::Round, 7, 9, Some(0)),
        ];
        assert_eq!(decode(&encode(&spans)), spans);
    }
}
