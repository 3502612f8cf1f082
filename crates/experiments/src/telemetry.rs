//! Run-health bookkeeping for experiment artifacts.
//!
//! Every figure the `repro` binary regenerates gets a run-health block —
//! simulators, events processed, peak pending events, dropped trace
//! records — embedded next to its results in `results/*.json`.

use netsim::telemetry::SessionStats;

/// Wraps figure results and their run-health block into the artifact
/// object written to `results/*.json`:
///
/// ```json
/// { "results": <results>, "run_health": { "events_processed": ..., ... } }
/// ```
///
/// The block carries only the *deterministic* accounting of the run
/// ([`SessionStats`]: simulators, events, peak heap, dropped trace
/// records), so artifacts are byte-identical across repeat runs, worker
/// counts and cache resumption. Wall-clock performance belongs on stderr
/// and in `benchmark/`'s runs, not in figure artifacts.
pub fn artifact_json<T: serde::Serialize + ?Sized>(results: &T, work: &SessionStats) -> String {
    let wrapped = serde_json::Value::Object(vec![
        ("results".to_owned(), serde_json::to_value(results)),
        ("run_health".to_owned(), serde_json::to_value(work)),
    ]);
    serde_json::to_string_pretty(&wrapped).expect("shim serializer is total")
}

/// Prints a stderr warning if the run lost trace records outright
/// (overflowed the in-memory buffer with no sink attached). Returns true
/// if it warned.
pub fn warn_if_dropped(figure: &str, dropped_trace_records: u64) -> bool {
    if dropped_trace_records > 0 {
        eprintln!(
            "warning: [{figure}] dropped {dropped_trace_records} trace record(s) — raise the \
             trace buffer capacity or attach a streaming sink",
        );
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_embeds_results_and_run_health() {
        let work = SessionStats {
            sims: 2,
            events_processed: 512,
            peak_event_heap: 31,
            dropped_trace_records: 0,
            traced_keep_first_sims: 1,
            traced_keep_latest_sims: 0,
            impair_drops: 4,
            impair_dups: 1,
            impair_reorders: 6,
            link_flaps: 2,
            workload_flows: 10_000,
            workload_bytes_per_flow: 96,
        };
        assert!(artifact_json(&[0.0], &work).contains("\"impair_drops\""));
        assert!(artifact_json(&[0.0], &work).contains("\"workload_flows\""));
        assert!(artifact_json(&[0.0], &work).contains("\"traced_keep_first_sims\""));
        let rows = vec![1.0_f64, 2.0];
        let json = artifact_json(&rows, &work);
        assert!(json.contains("\"results\""));
        assert!(json.contains("\"run_health\""));
        assert!(json.contains("\"events_processed\""));
        assert!(json.contains("\"dropped_trace_records\""));
        // The block must stay deterministic: no wall-clock-derived fields.
        assert!(!json.contains("events_per_sec"));
        assert!(!json.contains("wall_time_s"));
    }

    #[test]
    fn warns_only_when_records_were_lost() {
        assert!(!warn_if_dropped("test", 0));
        assert!(warn_if_dropped("test", 3));
    }
}
