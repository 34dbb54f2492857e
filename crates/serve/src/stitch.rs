//! Stitching Chrome traces from several processes into one file.
//!
//! With `PATHREP_OBS_TRACE` set on both sides, the client and the daemon
//! each write their flight ring as a Chrome trace at report time
//! (`pathrep_obs::flight`; span `B`/`E` plus instant `i` marks). Because
//! the wire protocol propagates [`crate::protocol::TraceContext`], the
//! spans of one logical request carry the same `trace_id` in *both* files —
//! stitching them into a single array lets `chrome://tracing` /
//! Perfetto show the client-side wait and the daemon-side handling
//! together, correlated by the `args.trace_id` field.
//!
//! Timestamps are **not** rebased: each process's `ts` values come from
//! its own monotonic epoch, so absolute offsets between processes are
//! meaningless; the per-process ordering (and therefore B/E nesting) is
//! preserved exactly. Correlate across processes by `trace_id`, not by
//! wall-clock.

use pathrep_obs::json::{parse, JsonValue};

/// Merges Chrome trace arrays into one, preserving each input's event
/// order (so begin/end nesting stays balanced per thread) and tagging
/// every event's `pid` with the input's index to keep processes distinct
/// even when both traces used the same pid.
///
/// # Errors
///
/// A human-readable message naming the offending input when one is not a
/// JSON array of objects.
pub fn stitch_traces(inputs: &[(String, String)]) -> Result<String, String> {
    let mut merged: Vec<JsonValue> = Vec::new();
    for (idx, (name, content)) in inputs.iter().enumerate() {
        let v = parse(content).map_err(|e| format!("{name}: {e}"))?;
        let events = v
            .array()
            .map_err(|e| format!("{name}: expected a Chrome trace array: {e}"))?;
        for ev in events {
            merged.push(retag_pid(ev, idx as f64).map_err(|e| format!("{name}: {e}"))?);
        }
    }
    let body: Vec<String> = merged.iter().map(JsonValue::render).collect();
    Ok(format!("[{}]\n", body.join(",\n")))
}

/// Replaces the event's `pid` with `process` (the input file's index) so
/// viewers lay each source process out on its own track.
fn retag_pid(event: &JsonValue, process: f64) -> Result<JsonValue, String> {
    match event {
        JsonValue::Object(fields) => {
            let mut out = Vec::with_capacity(fields.len() + 1);
            let mut seen = false;
            for (k, v) in fields {
                if k == "pid" {
                    out.push((k.clone(), JsonValue::Number(process)));
                    seen = true;
                } else {
                    out.push((k.clone(), v.clone()));
                }
            }
            if !seen {
                out.push(("pid".to_owned(), JsonValue::Number(process)));
            }
            Ok(JsonValue::Object(out))
        }
        _ => Err("trace event is not a JSON object".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stitching_preserves_order_and_retags_pids() {
        let a = r#"[{"name":"client.predict","ph":"B","ts":1,"pid":7,"tid":1,
                     "args":{"trace_id":42,"request_seq":0}},
                    {"name":"client.predict","ph":"E","ts":9,"pid":7,"tid":1}]"#
            .replace('\n', "");
        let b = r#"[{"name":"serve.request","ph":"B","ts":100,"pid":7,"tid":3,
                     "args":{"trace_id":42,"request_seq":0}},
                    {"name":"serve.request","ph":"E","ts":105,"pid":7,"tid":3}]"#
            .replace('\n', "");
        let merged =
            stitch_traces(&[("a".into(), a), ("b".into(), b)]).expect("stitch succeeds");
        let events = parse(&merged).unwrap();
        let events = events.array().unwrap();
        assert_eq!(events.len(), 4);
        // Per-file order preserved: B before E within each source.
        let phases: Vec<String> = events
            .iter()
            .map(|e| e.field("ph").unwrap().string().unwrap())
            .collect();
        assert_eq!(phases, ["B", "E", "B", "E"]);
        // pids retagged by input index; both files shared pid 7 on disk.
        let pids: Vec<f64> = events
            .iter()
            .map(|e| e.field("pid").unwrap().number().unwrap())
            .collect();
        assert_eq!(pids, [0.0, 0.0, 1.0, 1.0]);
        // The shared trace_id survives for cross-process correlation.
        let tid0 = events[0].field("args").unwrap().field("trace_id").unwrap();
        let tid2 = events[2].field("args").unwrap().field("trace_id").unwrap();
        assert_eq!(tid0.number().unwrap(), tid2.number().unwrap());
    }

    #[test]
    fn stitching_rejects_non_arrays() {
        let err = stitch_traces(&[("bad.json".into(), "{\"a\":1}".into())]).unwrap_err();
        assert!(err.contains("bad.json"), "{err}");
    }
}
