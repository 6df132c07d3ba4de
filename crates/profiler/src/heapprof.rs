//! Longitudinal heap profile: snapshots → time series → drift findings →
//! flamegraph export.
//!
//! [`HeapProfile`] consumes the [`HeapSnapshot`]s a profiled run captured
//! (see `Heap::set_heap_profiling`), feeds each context's live-bytes series
//! into a bounded [`SeriesStore`], and exposes:
//!
//! * per-context **peaks** — the cycle at which a context's retained size
//!   was largest (cited by `chameleon profile --emit heapprof` suggestions);
//! * **drift findings** — contexts whose live-bytes trend crossed the
//!   configured growth threshold (suspected bloat);
//! * a **collapsed-stack flamegraph** of the peak snapshot (context chains
//!   as frames, retained bytes as weights — the format `flamegraph.pl` and
//!   `inferno` consume);
//! * **JSONL / JSON** exports of the snapshots and a run summary.

use chameleon_heap::{ContextId, ContextSnap, Heap, HeapSnapshot};
use chameleon_telemetry::json;
use chameleon_telemetry::series::{DriftConfig, DriftFinding, SeriesStore};
use std::fmt::Write as _;

/// Series key used for the bucket of objects allocated without a context.
pub const NO_CTX_KEY: u64 = u64::MAX;

fn series_key(ctx: Option<ContextId>) -> u64 {
    ctx.map_or(NO_CTX_KEY, |c| u64::from(c.0))
}

/// A run's longitudinal heap profile, built from captured snapshots.
#[derive(Debug, Clone)]
pub struct HeapProfile {
    /// The captured snapshots, in cycle order.
    pub snapshots: Vec<HeapSnapshot>,
    /// Per-context live-bytes series (keyed by `series_key` semantics:
    /// `ContextId.0`, or [`NO_CTX_KEY`] for the no-context bucket).
    pub store: SeriesStore,
}

impl HeapProfile {
    /// Drains nothing: reads the heap's captured snapshots and builds the
    /// per-context series, retaining at most `series_capacity` points per
    /// context (downsampled 2:1 when full).
    pub fn from_heap(heap: &Heap, series_capacity: usize) -> Self {
        HeapProfile::from_snapshots(heap.heap_snapshots(), series_capacity)
    }

    /// Builds from an explicit snapshot list (tests, offline analysis).
    pub fn from_snapshots(snapshots: Vec<HeapSnapshot>, series_capacity: usize) -> Self {
        let mut store = SeriesStore::new(series_capacity);
        for s in &snapshots {
            for c in &s.contexts {
                store.push(series_key(c.ctx), s.cycle, c.self_bytes);
            }
        }
        HeapProfile { snapshots, store }
    }

    /// The cycle and retained bytes at which `ctx` peaked (first cycle
    /// wins ties). `None` if the context never appeared in a snapshot.
    pub fn peak(&self, ctx: Option<ContextId>) -> Option<(u64, u64)> {
        let mut best: Option<(u64, u64)> = None;
        for s in &self.snapshots {
            if let Some(c) = s.context(ctx) {
                if best.is_none_or(|(_, r)| c.retained_bytes > r) {
                    best = Some((s.cycle, c.retained_bytes));
                }
            }
        }
        best
    }

    /// The snapshot with the most live bytes (first such cycle on ties);
    /// the flamegraph is rendered from it.
    pub fn peak_snapshot(&self) -> Option<&HeapSnapshot> {
        let mut best: Option<&HeapSnapshot> = None;
        for s in &self.snapshots {
            if best.is_none_or(|b| s.live_bytes > b.live_bytes) {
                best = Some(s);
            }
        }
        best
    }

    /// Drift findings over the per-context live-bytes series, ordered by
    /// series key.
    pub fn drift(&self, cfg: &DriftConfig) -> Vec<DriftFinding> {
        self.store.detect_drift(cfg)
    }

    /// Human-readable label for a series key.
    pub fn key_label(&self, heap: &Heap, key: u64) -> String {
        if key == NO_CTX_KEY {
            "<no-context>".to_owned()
        } else {
            heap.format_context(ContextId(key as u32))
        }
    }

    /// Renders the peak snapshot in collapsed-stack format: one line per
    /// context, `frame;frame;...;src_type weight`, frames outermost first,
    /// weight = retained bytes. Standard flamegraph tooling consumes this
    /// directly. Zero-weight contexts are skipped; an empty string means no
    /// snapshot was captured.
    pub fn flamegraph(&self, heap: &Heap) -> String {
        let Some(snap) = self.peak_snapshot() else {
            return String::new();
        };
        let mut out = String::new();
        for c in &snap.contexts {
            if c.retained_bytes == 0 {
                continue;
            }
            let mut frames: Vec<String> = match c.ctx {
                Some(ctx) => {
                    // Context frames are innermost-first; flamegraph stacks
                    // are base (outermost) first.
                    let mut fs = heap.context_frames(ctx);
                    fs.reverse();
                    fs.push(heap.context_src_type(ctx));
                    fs
                }
                None => vec!["<no-context>".to_owned()],
            };
            for f in &mut frames {
                sanitize_frame(f);
            }
            let _ = writeln!(out, "{} {}", frames.join(";"), c.retained_bytes);
        }
        out
    }

    /// Renders every snapshot as one JSONL line (kind `heap_snapshot`,
    /// `t` = simulated time), with per-context entries carrying labels
    /// resolved against `heap`.
    pub fn snapshots_jsonl(&self, heap: &Heap) -> String {
        let mut out = String::new();
        for s in &self.snapshots {
            let _ = write!(
                out,
                "{{\"ev\":\"heap_snapshot\",\"t\":{},\"cycle\":{},\"live_bytes\":{},\"live_objects\":{},\"retained_root\":{},\"contexts\":[",
                s.at_units, s.cycle, s.live_bytes, s.live_objects, s.retained_root
            );
            for (i, c) in s.contexts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_context_snap(&mut out, heap, c);
            }
            out.push_str("]}\n");
        }
        out
    }

    /// A run-level JSON summary: snapshot count, peak cycle, top contexts
    /// by peak retained size, and drift findings.
    pub fn summary_json(&self, heap: &Heap, top: usize, drift_cfg: &DriftConfig) -> String {
        let mut out = String::new();
        out.push_str("{\"snapshots\":");
        let _ = write!(out, "{}", self.snapshots.len());
        if let Some(peak) = self.peak_snapshot() {
            let _ = write!(
                out,
                ",\"peak_cycle\":{},\"peak_live_bytes\":{}",
                peak.cycle, peak.live_bytes
            );
        }
        out.push_str(",\"top_retained\":[");
        for (i, (ctx, cycle, retained)) in self.top_retained(top).into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"label\":");
            json::write_str(
                &mut out,
                &ctx.map_or_else(|| "<no-context>".to_owned(), |c| heap.format_context(c)),
            );
            let _ = write!(
                out,
                ",\"peak_cycle\":{cycle},\"retained_bytes\":{retained}}}"
            );
        }
        out.push_str("],\"drift\":[");
        for (i, f) in self.drift(drift_cfg).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"label\":");
            json::write_str(&mut out, &self.key_label(heap, f.key));
            let _ = write!(
                out,
                ",\"first_mean\":{:.1},\"last_mean\":{:.1},\"growth_pct\":{:.1}}}",
                f.first_mean, f.last_mean, f.growth_pct
            );
        }
        out.push_str("]}");
        out
    }

    /// The `k` contexts with the largest peak retained size, descending
    /// (ties broken toward lower context ids, `None` last).
    pub fn top_retained(&self, k: usize) -> Vec<(Option<ContextId>, u64, u64)> {
        let mut keys: Vec<u64> = self.store.keys();
        keys.sort_unstable();
        let mut rows: Vec<(Option<ContextId>, u64, u64)> = keys
            .into_iter()
            .map(|key| {
                let ctx = (key != NO_CTX_KEY).then_some(ContextId(key as u32));
                let (cycle, retained) = self.peak(ctx).unwrap_or((0, 0));
                (ctx, cycle, retained)
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.2));
        rows.truncate(k);
        rows
    }
}

fn write_context_snap(out: &mut String, heap: &Heap, c: &ContextSnap) {
    out.push_str("{\"label\":");
    json::write_str(
        out,
        &c.ctx
            .map_or_else(|| "<no-context>".to_owned(), |ctx| heap.format_context(ctx)),
    );
    let _ = write!(
        out,
        ",\"self_bytes\":{},\"objects\":{},\"edges_in\":{},\"retained_bytes\":{},\"coll_live\":{},\"coll_used\":{},\"coll_core\":{},\"coll_count\":{}}}",
        c.self_bytes,
        c.objects,
        c.edges_in,
        c.retained_bytes,
        c.coll.live,
        c.coll.used,
        c.coll.core,
        c.coll.count
    );
}

/// Collapsed-stack frames must not contain the separators the format
/// reserves (`;` between frames, space before the weight).
fn sanitize_frame(f: &mut String) {
    if f.contains([';', ' ']) {
        *f = f.replace(';', ":").replace(' ', "_");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_heap::HeapProfConfig;

    /// A heap with two rooted contexts, one of which grows every cycle.
    fn profiled_heap(cycles: usize) -> Heap {
        let heap = Heap::new();
        heap.set_heap_profiling(Some(HeapProfConfig { every: 1 }));
        let class = heap.register_class("Node", None);
        let stable = heap.intern_context("ArrayList", &["Stable.run:1".to_owned()], 2);
        let growing = heap.intern_context("HashMap", &["Grow.run:2".to_owned()], 2);
        let s = heap.alloc_scalar(class, 0, 64, Some(stable));
        heap.add_root(s);
        for _ in 0..cycles {
            for _ in 0..4 {
                let g = heap.alloc_scalar(class, 0, 128, Some(growing));
                heap.add_root(g);
            }
            heap.gc();
        }
        heap
    }

    #[test]
    fn series_and_peaks_follow_snapshots() {
        let heap = profiled_heap(8);
        let p = HeapProfile::from_heap(&heap, 64);
        assert_eq!(p.snapshots.len(), 8);
        let growing = p.snapshots[0].contexts[1].ctx;
        let (cycle, retained) = p.peak(growing).unwrap();
        assert_eq!(cycle, 8, "monotone growth peaks at the last cycle");
        assert!(retained > 0);
        let series = p.store.get(1).unwrap();
        assert!(series.windows(2).all(|w| w[0].value < w[1].value));
    }

    #[test]
    fn drift_flags_the_growing_context_only() {
        let heap = profiled_heap(8);
        let p = HeapProfile::from_heap(&heap, 64);
        let findings = p.drift(&DriftConfig::default());
        assert_eq!(findings.len(), 1);
        assert_eq!(p.key_label(&heap, findings[0].key), "HashMap:Grow.run:2");
    }

    #[test]
    fn flamegraph_lines_are_parseable_and_weighted() {
        let heap = profiled_heap(4);
        let p = HeapProfile::from_heap(&heap, 64);
        let fg = p.flamegraph(&heap);
        assert!(!fg.is_empty());
        for line in fg.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("frame/weight split");
            assert!(weight.parse::<u64>().is_ok(), "weight parses: {line}");
            assert!(!stack.is_empty());
        }
        // Innermost frame (just before the weight) is the source type.
        assert!(fg.contains("Grow.run:2;HashMap "), "fg:\n{fg}");
    }

    #[test]
    fn exports_are_valid_json() {
        let heap = profiled_heap(4);
        let p = HeapProfile::from_heap(&heap, 64);
        let jsonl = p.snapshots_jsonl(&heap);
        let lines = json::validate_jsonl(&jsonl, &["ev", "t", "cycle", "contexts"]).unwrap();
        assert_eq!(lines, 4);
        let summary = p.summary_json(&heap, 5, &DriftConfig::default());
        let v = json::parse(&summary).expect("summary parses");
        assert_eq!(v.get("snapshots").unwrap().as_u64(), Some(4));
        assert!(!v.get("top_retained").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn empty_profile_degrades_gracefully() {
        let heap = Heap::new();
        let p = HeapProfile::from_heap(&heap, 8);
        assert!(p.snapshots.is_empty());
        assert!(p.peak_snapshot().is_none());
        assert!(p.flamegraph(&heap).is_empty());
        assert_eq!(p.snapshots_jsonl(&heap), "");
        let v = json::parse(&p.summary_json(&heap, 5, &DriftConfig::default())).unwrap();
        assert_eq!(v.get("snapshots").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn frame_sanitizer_preserves_format() {
        let mut f = "weird frame;with seps".to_owned();
        sanitize_frame(&mut f);
        assert_eq!(f, "weird_frame:with_seps");
    }
}
