//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSON lines when the run ends. Self time of a span
//! is its duration minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Layers a span may be charged to.
pub const LAYERS: [&str; 4] = ["core", "service", "gateway", "journal"];

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub layer: &'static str,
    /// Submission or run the span belongs to.
    pub unit: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span sink; records nothing when disabled, so untraced runs pay one
/// branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a finished span; returns its id (0 when disabled) so children
    /// can name it as parent.
    pub fn record(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<u64>,
        unit: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, layer, parent, unit, start, end);
        id
    }

    /// Reserve an id for a span whose end is not known yet, so children can
    /// be recorded first; close it with [`Tracer::record_as`].
    pub fn reserve(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span under an id from [`Tracer::reserve`].
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        layer: &'static str,
        parent: Option<u64>,
        unit: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.lock().expect("span sink poisoned").push(Span {
            id,
            parent: parent.filter(|&p| p != 0),
            name,
            layer,
            unit,
            start_ns: ns(start),
            end_ns: ns(end.max(start)),
        });
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// Self time of every span, in ns, keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// Total self time per layer, in ms.
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let st = self_times(spans);
    let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    for s in spans {
        *out.entry(s.layer).or_default() += st[&s.id] as f64 / 1e6;
    }
    out
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            f,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"unit\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.layer,
            s.unit,
            s.start_ns,
            s.end_ns
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new(true);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = t.reserve();
        // Children [10,30] and [20,40] overlap: together they cover 30 ms.
        t.record("post", "gateway", Some(root), 1, at(10), at(30));
        t.record("get", "gateway", Some(root), 1, at(20), at(40));
        // A child poking out of its parent only counts inside it.
        t.record("get", "gateway", Some(root), 1, at(90), at(120));
        t.record_as(root, "wf", "service", None, 1, at(0), at(100));
        let spans = t.take();
        let st = self_times(&spans);
        assert_eq!(st[&root], 60_000_000);
        let by_layer = self_ms_by_layer(&spans);
        assert!((by_layer["service"] - 60.0).abs() < 1e-9);
        assert!((by_layer["gateway"] - 70.0).abs() < 1e-9);
        assert_eq!(by_layer["journal"], 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("run", "core", None, 0, now, now), 0);
        assert!(t.take().is_empty());
    }
}
