//! Chrome trace-event JSON export for recorded spans.
//!
//! [`render`] turns a batch of [`SpanRecord`]s into the Chrome
//! trace-event format (the JSON object form, `{"traceEvents": [...]}`),
//! loadable by `chrome://tracing` and <https://ui.perfetto.dev>. Complete
//! spans become `ph:"X"` events and instants become `ph:"i"` thread-scoped
//! events; `pid` is the environment (always 1 — one simulation per trace)
//! and `tid` is the span's lane, with `ph:"M"` metadata naming each lane.
//!
//! Unit convention (README event-schema table): every payload the runtime
//! emits carries **nanoseconds**; the Chrome `ts`/`dur` fields are the one
//! spec-mandated exception (microseconds, fractional), and each event's
//! `args` restate the exact `begin_ns`/`dur_ns` alongside the derived
//! `dur_us` so no consumer has to re-scale.

use crate::json::write_str;
use crate::trace::{SpanKind, SpanRecord};
use std::fmt::Write as _;

/// The `pid` every event carries (one simulated environment per trace).
pub const TRACE_PID: u32 = 1;

/// Human label for a display lane.
pub fn lane_label(lane: u32) -> String {
    if lane == 0 {
        "env".to_owned()
    } else {
        format!("worker {}", lane - 1)
    }
}

/// Microseconds with nanosecond precision, as Chrome expects for `ts`/`dur`.
fn push_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

fn push_args(out: &mut String, r: &SpanRecord) {
    let _ = write!(out, "\"args\":{{\"id\":{},\"parent\":{}", r.id, r.parent);
    let _ = write!(out, ",\"begin_ns\":{}", r.begin_ns);
    if r.kind == SpanKind::Complete {
        let dur = r.dur_ns();
        let _ = write!(out, ",\"dur_ns\":{dur},\"dur_us\":");
        push_us(out, dur);
    }
    for (k, v) in r.key_values() {
        out.push(',');
        write_str(out, k);
        let _ = write!(out, ":{v}");
    }
    out.push('}');
}

/// Renders `records` as a Chrome trace-event JSON document. Events are
/// ordered by `(lane, begin_ns, id)` so the output is a deterministic
/// function of the record set.
pub fn render(records: &[SpanRecord]) -> String {
    let mut recs: Vec<&SpanRecord> = records.iter().collect();
    recs.sort_by_key(|r| (r.lane, r.begin_ns, r.id));

    let mut lanes: Vec<u32> = recs.iter().map(|r| r.lane).collect();
    lanes.dedup(); // records are lane-sorted

    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str("\n  ");
    };

    for lane in &lanes {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{TRACE_PID},\"tid\":{lane},\"args\":{{\"name\":"
        );
        write_str(&mut out, &lane_label(*lane));
        out.push_str("}}");
    }

    for r in recs {
        sep(&mut out, &mut first);
        out.push_str("{\"name\":");
        write_str(&mut out, r.name);
        match r.kind {
            SpanKind::Complete => {
                let _ = write!(
                    out,
                    ",\"ph\":\"X\",\"pid\":{TRACE_PID},\"tid\":{},\"ts\":",
                    r.lane
                );
                push_us(&mut out, r.begin_ns);
                out.push_str(",\"dur\":");
                push_us(&mut out, r.dur_ns());
            }
            SpanKind::Instant => {
                let _ = write!(
                    out,
                    ",\"ph\":\"i\",\"s\":\"t\",\"pid\":{TRACE_PID},\"tid\":{},\"ts\":",
                    r.lane
                );
                push_us(&mut out, r.begin_ns);
            }
        }
        out.push(',');
        push_args(&mut out, r);
        out.push('}');
    }

    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Quick structural summary of a record batch: `(lanes, spans, instants)`.
/// The CLI prints it after writing a timeline.
pub fn summarize(records: &[SpanRecord]) -> (usize, usize, usize) {
    let mut lanes: Vec<u32> = records.iter().map(|r| r.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let spans = records
        .iter()
        .filter(|r| r.kind == SpanKind::Complete)
        .count();
    (lanes.len(), spans, records.len() - spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::trace::Tracer;

    fn sample_records() -> Vec<SpanRecord> {
        let t = Tracer::new();
        let lane0 = t.lane(0);
        let w = lane0.scope("workload").arg("sites", 4);
        lane0.instant("marker", &[("partition", 2)]);
        drop(lane0.scope("gc_mark"));
        drop(w);
        drop(t.lane(3).scope("partition").arg("partition", 1));
        t.records()
    }

    #[test]
    fn render_is_perfetto_shaped_json() {
        let body = render(&sample_records());
        let v = json::parse(&body).expect("valid JSON document");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        for e in events {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            assert!(e.get("pid").unwrap().as_u64().is_some());
            assert!(e.get("tid").unwrap().as_u64().is_some());
            match ph {
                "X" => {
                    assert!(e.get("ts").unwrap().as_f64().is_some());
                    assert!(e.get("dur").unwrap().as_f64().is_some());
                    let args = e.get("args").unwrap();
                    assert!(args.get("dur_ns").unwrap().as_u64().is_some());
                    assert!(args.get("dur_us").unwrap().as_f64().is_some());
                    assert!(args.get("begin_ns").unwrap().as_u64().is_some());
                }
                "i" => {
                    assert_eq!(e.get("s").unwrap().as_str(), Some("t"));
                    assert!(e.get("ts").unwrap().as_f64().is_some());
                }
                "M" => {
                    assert!(e
                        .get("args")
                        .unwrap()
                        .get("name")
                        .unwrap()
                        .as_str()
                        .is_some());
                }
                other => panic!("unexpected phase {other}"),
            }
        }
        // Key-value args survive with their names.
        let marker = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("marker"))
            .unwrap();
        assert_eq!(
            marker
                .get("args")
                .unwrap()
                .get("partition")
                .unwrap()
                .as_u64(),
            Some(2)
        );
    }

    #[test]
    fn ts_and_dur_are_microseconds_of_the_ns_payload() {
        let rec = SpanRecord {
            id: 1,
            parent: 0,
            lane: 0,
            kind: SpanKind::Complete,
            begin_ns: 1_234_567,
            end_ns: 3_234_567,
            name: "x",
            args: [("", 0); crate::trace::MAX_SPAN_ARGS],
            nargs: 0,
        };
        let v = json::parse(&render(&[rec])).unwrap();
        let e = &v.get("traceEvents").unwrap().as_arr().unwrap()[1]; // [0] is metadata
        assert_eq!(e.get("ts").unwrap().as_f64(), Some(1234.567));
        assert_eq!(e.get("dur").unwrap().as_f64(), Some(2000.0));
        assert_eq!(
            e.get("args").unwrap().get("dur_ns").unwrap().as_u64(),
            Some(2_000_000)
        );
    }

    #[test]
    fn lane_labels_cover_env_and_workers() {
        assert_eq!(lane_label(0), "env");
        assert_eq!(lane_label(1), "worker 0");
        assert_eq!(lane_label(5), "worker 4");
    }

    #[test]
    fn summarize_counts_lanes_spans_instants() {
        let recs = sample_records();
        let (lanes, spans, instants) = summarize(&recs);
        assert_eq!(lanes, 2);
        assert_eq!(spans, 3);
        assert_eq!(instants, 1);
    }
}
