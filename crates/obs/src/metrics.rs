//! A unified metrics registry: named counters, gauges, and log₂-bucket
//! histograms behind one [`MetricsRegistry::render`].
//!
//! The repo's telemetry grew up scattered — `CommStats` atomics in the
//! transport, `RoundStats`/`EngineStats` in the scheduler, the
//! collective's `RoundCounters` — each with its own read path. The registry
//! gives them a single sink: producers export into it under stable
//! names, and one `render()` call emits everything in a deterministic
//! text exposition format (Prometheus-flavored: `name value` lines plus
//! interpolated p50/p95/p99 quantiles per histogram).
//!
//! Histograms bucket by `⌊log₂ v⌋` — 65 fixed buckets covering the full
//! `u64` range with constant memory and O(1) recording, which is the
//! right shape for latencies spanning nanoseconds (an in-process hop) to
//! seconds (a WAN straggler convoy). Quantiles interpolate linearly
//! inside the containing bucket, so they carry at most a 2× relative
//! error — plenty for "did p99 move an order of magnitude".

use crate::event::TraceEvent;
use std::collections::BTreeMap;
use std::sync::Mutex;

const BUCKETS: usize = 65;

/// A fixed-memory log₂-bucket histogram over `u64` samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// Bucket index of a sample: 0 holds exactly zero, bucket `i ≥ 1` holds
/// `[2^(i−1), 2^i)`.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// `[lo, hi)` value range of a bucket, as floats for interpolation.
fn bounds(i: usize) -> (f64, f64) {
    if i == 0 {
        (0.0, 0.0)
    } else {
        ((1u128 << (i - 1)) as f64, (1u128 << i) as f64)
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), linearly interpolated inside
    /// the containing log₂ bucket. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            if *c == 0 {
                continue;
            }
            let before = cum as f64;
            cum += c;
            if cum as f64 >= target {
                let (lo, hi) = bounds(i);
                let frac = ((target - before) / *c as f64).clamp(0.0, 1.0);
                return (lo + (hi - lo) * frac).min(self.max as f64);
            }
        }
        self.max as f64
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
}

/// Thread-safe named-metric sink; see the module docs. Construct with
/// [`MetricsRegistry::default`], feed it from any number of exporters,
/// render once.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

fn guard(m: &Mutex<Inner>) -> std::sync::MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl MetricsRegistry {
    /// Add to a monotonic counter (created at zero on first touch).
    pub fn counter_add(&self, name: &str, v: u64) {
        *guard(&self.inner)
            .counters
            .entry(name.to_string())
            .or_insert(0) += v;
    }

    /// Raise a high-watermark gauge to at least `v`.
    pub fn gauge_max(&self, name: &str, v: u64) {
        let mut g = guard(&self.inner);
        let e = g.gauges.entry(name.to_string()).or_insert(0);
        *e = (*e).max(v);
    }

    /// Record one histogram sample.
    pub fn observe(&self, name: &str, v: u64) {
        guard(&self.inner)
            .hists
            .entry(name.to_string())
            .or_default()
            .record(v);
    }

    /// Absorb a drained trace: every event increments
    /// `events_<kind>_total`, and every span feeds a `<kind>_ns`
    /// latency histogram.
    pub fn absorb_trace(&self, events: &[TraceEvent]) {
        let mut g = guard(&self.inner);
        for ev in events {
            let name = ev.kind.name();
            *g.counters
                .entry(format!("events_{name}_total"))
                .or_insert(0) += 1;
            if let Some(dur) = ev.kind.dur_ns() {
                g.hists.entry(format!("{name}_ns")).or_default().record(dur);
            }
        }
    }

    /// Snapshot of one histogram's quantiles, for programmatic readers:
    /// `(count, p50, p95, p99, max)`; `None` if the name is unknown.
    pub fn histogram_summary(&self, name: &str) -> Option<(u64, f64, f64, f64, u64)> {
        let g = guard(&self.inner);
        let h = g.hists.get(name)?;
        Some((
            h.count(),
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
            h.max(),
        ))
    }

    /// Read a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        guard(&self.inner).counters.get(name).copied().unwrap_or(0)
    }

    /// Deterministic text exposition of everything in the registry:
    /// counters, gauges, then histograms, each alphabetical.
    pub fn render(&self) -> String {
        let g = guard(&self.inner);
        let mut out = String::new();
        for (name, v) in &g.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &g.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, h) in &g.hists {
            out.push_str(&format!(
                "# TYPE {name} histogram\n{name}_count {}\n{name}_sum {}\n",
                h.count(),
                h.sum()
            ));
            for (label, q) in [("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)] {
                out.push_str(&format!("{name}{{q=\"{label}\"}} {}\n", h.quantile(q)));
            }
            out.push_str(&format!("{name}_max {}\n", h.max()));
        }
        out
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = guard(&self.inner);
        write!(
            f,
            "MetricsRegistry({} counters, {} gauges, {} histograms)",
            g.counters.len(),
            g.gauges.len(),
            g.hists.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn bucket_layout_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn quantiles_are_ordered_and_bucket_bounded() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (p50, p95, p99) = (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p99 <= h.max() as f64);
        // All-equal samples: every quantile lands in that value's bucket.
        let mut h = Histogram::default();
        for _ in 0..100 {
            h.record(100);
        }
        for q in [0.5, 0.95, 0.99] {
            let v = h.quantile(q);
            assert!((64.0..=128.0).contains(&v), "q={q} → {v}");
        }
        assert_eq!(Histogram::default().quantile(0.5), 0.0, "empty → 0");
    }

    #[test]
    fn registry_renders_deterministically() {
        let reg = MetricsRegistry::default();
        reg.counter_add("zz_total", 1);
        reg.counter_add("aa_total", 2);
        reg.counter_add("aa_total", 3);
        reg.gauge_max("depth", 4);
        reg.gauge_max("depth", 2);
        reg.observe("lat_ns", 1000);
        reg.observe("lat_ns", 4000);
        let a = reg.render();
        let b = reg.render();
        assert_eq!(a, b);
        assert!(a.contains("aa_total 5\n"));
        assert!(a.contains("zz_total 1\n"));
        assert!(a.contains("depth 4\n"));
        assert!(a.contains("lat_ns_count 2\n"));
        assert!(a.contains("lat_ns_sum 5000\n"));
        assert!(
            a.find("aa_total").unwrap() < a.find("zz_total").unwrap(),
            "alphabetical"
        );
        assert_eq!(reg.counter("aa_total"), 5);
        assert_eq!(reg.counter("missing"), 0);
    }

    #[test]
    fn absorbing_a_trace_counts_kinds_and_spans() {
        let reg = MetricsRegistry::default();
        let events = vec![
            TraceEvent {
                ts_ns: 1,
                rank: 0,
                kind: EventKind::RoundOpen { coll: 1, round: 0 },
            },
            TraceEvent {
                ts_ns: 2,
                rank: 0,
                kind: EventKind::RoundComplete {
                    coll: 1,
                    round: 0,
                    external: false,
                    dur_ns: 500,
                },
            },
            TraceEvent {
                ts_ns: 3,
                rank: 1,
                kind: EventKind::RoundComplete {
                    coll: 1,
                    round: 0,
                    external: true,
                    dur_ns: 700,
                },
            },
        ];
        reg.absorb_trace(&events);
        assert_eq!(reg.counter("events_round_open_total"), 1);
        assert_eq!(reg.counter("events_round_complete_total"), 2);
        let (count, p50, _, _, max) = reg.histogram_summary("round_complete_ns").unwrap();
        assert_eq!(count, 2);
        assert!(p50 > 0.0);
        assert_eq!(max, 700);
        assert!(reg.histogram_summary("nope").is_none());
    }
}
