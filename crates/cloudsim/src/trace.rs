//! Saving and loading request traces as JSON, so experiments can be
//! replayed byte-for-byte across machines and CLI runs.

use crate::arrivals::CloudRequest;
use std::fmt;
use std::path::Path;

/// Trace serialisation/IO failure.
#[derive(Debug)]
pub enum TraceError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Malformed JSON or schema mismatch.
    Format(serde_json::Error),
    /// Ids are not dense `0..n` in order (the simulator requires it).
    BadIds,
    /// By this request, the latest arrival plus the summed service times
    /// exceed half of `SimTime`'s range, so the run could overflow the
    /// clock.
    Horizon {
        /// The first request at which the bound is exceeded.
        id: u64,
    },
}

/// The latest sim time a trace may reach: half of `SimTime`'s range, the
/// bound `simulate --rate` applies to generated arrivals. A trace's latest
/// arrival plus the sum of its service times bounds every departure, even
/// if every request waits for all the others.
const HORIZON_LIMIT_US: u64 = u64::MAX / 2;

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "trace I/O error: {e}"),
            Self::Format(e) => write!(f, "trace format error: {e}"),
            Self::BadIds => write!(f, "trace request ids must be dense 0..n in arrival order"),
            Self::Horizon { id } => write!(
                f,
                "trace request {id}: the latest arrival plus the service times up to it \
                 exceed {HORIZON_LIMIT_US} µs, half the simulation clock's range"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<serde_json::Error> for TraceError {
    fn from(e: serde_json::Error) -> Self {
        Self::Format(e)
    }
}

/// Serialise a trace to pretty JSON.
pub(crate) fn to_json(trace: &[CloudRequest]) -> String {
    serde_json::to_string_pretty(trace).expect("traces are plain data")
}

/// Parse a trace from JSON, validating dense ordered ids and that the
/// run fits in half of `SimTime`'s range.
pub(crate) fn from_json(json: &str) -> Result<Vec<CloudRequest>, TraceError> {
    let trace: Vec<CloudRequest> = serde_json::from_str(json)?;
    let (mut latest_arrival, mut total_service) = (0u64, 0u64);
    for (i, r) in trace.iter().enumerate() {
        if r.id != i as u64 {
            return Err(TraceError::BadIds);
        }
        latest_arrival = latest_arrival.max(r.arrival.as_micros());
        total_service = total_service.saturating_add(r.service_time.as_micros());
        if latest_arrival.saturating_add(total_service) > HORIZON_LIMIT_US {
            return Err(TraceError::Horizon { id: r.id });
        }
    }
    Ok(trace)
}

/// Write a trace to a file.
pub fn save(trace: &[CloudRequest], path: impl AsRef<Path>) -> Result<(), TraceError> {
    std::fs::write(path, to_json(trace))?;
    Ok(())
}

/// Read a trace from a file.
pub fn load(path: impl AsRef<Path>) -> Result<Vec<CloudRequest>, TraceError> {
    from_json(&std::fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vc_des::SimTime;

    fn sample() -> Vec<CloudRequest> {
        ArrivalProcess::paper_standard().generate(5, 3, &mut StdRng::seed_from_u64(1))
    }

    #[test]
    fn json_roundtrip() {
        let trace = sample();
        let json = to_json(&trace);
        let back = from_json(&json).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn file_roundtrip() {
        let trace = sample();
        let path = std::env::temp_dir().join("affinity_vc_trace_test.json");
        save(&trace, &path).unwrap();
        let back = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(trace, back);
    }

    #[test]
    fn bad_ids_rejected() {
        let mut trace = sample();
        trace[0].id = 7;
        let json = to_json(&trace);
        assert!(matches!(from_json(&json), Err(TraceError::BadIds)));
    }

    #[test]
    fn garbage_rejected() {
        assert!(matches!(from_json("not json"), Err(TraceError::Format(_))));
        assert!(matches!(
            load("/nonexistent/path/trace.json"),
            Err(TraceError::Io(_))
        ));
    }

    #[test]
    fn wrong_shape_rejected() {
        // Top level must be an array of requests, not an object or scalar.
        assert!(matches!(from_json("{}"), Err(TraceError::Format(_))));
        assert!(matches!(from_json("42"), Err(TraceError::Format(_))));
        // Array elements must match the request schema.
        assert!(matches!(
            from_json(r#"[{"id": 0}]"#),
            Err(TraceError::Format(_))
        ));
    }

    #[test]
    fn empty_trace_is_valid() {
        assert_eq!(from_json("[]").unwrap(), vec![]);
    }

    #[test]
    fn reordered_ids_rejected() {
        let mut trace = sample();
        trace.swap(0, 1); // ids stay dense but leave arrival order
        let json = to_json(&trace);
        assert!(matches!(from_json(&json), Err(TraceError::BadIds)));
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut trace = sample();
        trace[1].id = 0;
        let json = to_json(&trace);
        assert!(matches!(from_json(&json), Err(TraceError::BadIds)));
    }

    #[test]
    fn horizon_past_half_the_clock_rejected() {
        let mut trace = sample();
        trace[3].service_time = SimTime::from_micros(u64::MAX - 1);
        let err = from_json(&to_json(&trace)).unwrap_err();
        assert!(matches!(err, TraceError::Horizon { id: 3 }), "{err}");
        assert!(err.to_string().contains("request 3"), "{err}");

        let mut trace = sample();
        trace[1].arrival = SimTime::from_micros(HORIZON_LIMIT_US);
        assert!(matches!(
            from_json(&to_json(&trace)),
            Err(TraceError::Horizon { id: 1 })
        ));

        // Exactly at the limit is accepted.
        let mut trace = sample();
        for r in &mut trace {
            r.arrival = SimTime::from_micros(0);
            r.service_time = SimTime::from_micros(0);
        }
        trace[4].arrival = SimTime::from_micros(HORIZON_LIMIT_US);
        assert_eq!(from_json(&to_json(&trace)).unwrap(), trace);
    }

    #[test]
    fn error_messages_name_the_failure() {
        let bad_ids = from_json(&to_json(&{
            let mut t = sample();
            t[0].id = 9;
            t
        }))
        .unwrap_err();
        assert!(bad_ids.to_string().contains("dense"));
        let format = from_json("[[]]").unwrap_err();
        assert!(format.to_string().contains("format"));
        let io = load("/nonexistent/path/trace.json").unwrap_err();
        assert!(io.to_string().contains("I/O"));
    }
}
