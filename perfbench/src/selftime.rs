//! Self time per span name, from the program's own spans.
//!
//! `tpl_trace` aggregates spans inclusively; a span's self time is its
//! duration minus the part its child spans cover.  The raw events are only
//! exported as Chrome `trace_event` JSON, so this reads them back from there.

use mr_tpl::harness::json::JsonValue;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// One complete span: thread, start and duration in nanoseconds, name.
struct Span<'a> {
    tid: u64,
    start: u64,
    dur: u64,
    name: &'a str,
}

/// Self seconds per span name in a Chrome trace dump.
///
/// # Errors
///
/// The dump does not parse, or a span event lacks a field.
pub fn self_seconds(chrome_json: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = JsonValue::parse(chrome_json).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("trace has no traceEvents")?;
    let number = |event: &JsonValue, key: &str| {
        event
            .get(key)
            .and_then(JsonValue::as_f64)
            .ok_or(format!("span event without {key}"))
    };
    let mut spans = Vec::new();
    for event in events {
        if event.get("ph").and_then(JsonValue::as_str) != Some("X") {
            continue;
        }
        // Timestamps are microseconds with nanosecond decimals.
        spans.push(Span {
            tid: number(event, "tid")? as u64,
            start: (number(event, "ts")? * 1000.0).round() as u64,
            dur: (number(event, "dur")? * 1000.0).round() as u64,
            name: event
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("span event without name")?,
        });
    }
    // Parents sort before their children: same start, longer first.
    spans.sort_by_key(|s| (s.tid, s.start, Reverse(s.dur)));
    let mut own: BTreeMap<&str, i64> = BTreeMap::new();
    let mut open: Vec<&Span> = Vec::new();
    for span in &spans {
        while open
            .last()
            .is_some_and(|top| top.tid != span.tid || top.start + top.dur <= span.start)
        {
            open.pop();
        }
        if let Some(parent) = open.last() {
            *own.entry(parent.name).or_default() -= span.dur as i64;
        }
        *own.entry(span.name).or_default() += span.dur as i64;
        open.push(span);
    }
    Ok(own
        .into_iter()
        .map(|(name, ns)| (name.to_string(), ns.max(0) as f64 / 1e9))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_subtracted_from_their_parent_only() {
        let dump = r#"{"traceEvents": [
            {"ph": "X", "name": "outer", "pid": 1, "tid": 1, "ts": 0.0, "dur": 10.0},
            {"ph": "X", "name": "inner", "pid": 1, "tid": 1, "ts": 2.0, "dur": 3.0},
            {"ph": "X", "name": "leaf", "pid": 1, "tid": 1, "ts": 2.5, "dur": 1.0},
            {"ph": "X", "name": "inner", "pid": 1, "tid": 1, "ts": 5.0, "dur": 4.0},
            {"ph": "X", "name": "other", "pid": 1, "tid": 2, "ts": 1.0, "dur": 2.0},
            {"ph": "C", "name": "count", "pid": 1, "tid": 1, "ts": 2.0, "args": {"value": 3}}
        ]}"#;
        let own = self_seconds(dump).unwrap();
        let us = |name: &str| (own[name] * 1e6).round();
        assert_eq!(us("outer"), 3.0);
        assert_eq!(us("inner"), 6.0);
        assert_eq!(us("leaf"), 1.0);
        assert_eq!(us("other"), 2.0);
    }
}
