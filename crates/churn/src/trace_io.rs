//! Text serialization of availability traces.
//!
//! A line-oriented format so the real STUNner trace (or any other
//! availability data) can be converted offline and dropped into the
//! experiments in place of the synthetic model:
//!
//! ```text
//! # ta-trace v1            (comment/blank lines ignored)
//! 1                         (node 0: online at t=0, no transitions)
//! 0 60.5:1 7200:0           (node 1: offline, up at 60.5 s, down at 7200 s)
//! ```
//!
//! Times are fractional seconds from the window start; `1` means the node
//! goes (or starts) online.

use std::error::Error;
use std::fmt;

use ta_sim::SimTime;

use crate::schedule::{AvailabilitySchedule, InvalidScheduleError};

/// Error parsing a trace document.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseTraceError {
    /// A line could not be parsed.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// Parsed segments violated schedule invariants.
    Invalid(InvalidScheduleError),
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTraceError::Malformed { line, reason } => {
                write!(f, "trace line {line}: {reason}")
            }
            ParseTraceError::Invalid(e) => write!(f, "invalid trace: {e}"),
        }
    }
}

impl Error for ParseTraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseTraceError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<InvalidScheduleError> for ParseTraceError {
    fn from(e: InvalidScheduleError) -> Self {
        ParseTraceError::Invalid(e)
    }
}

fn parse_state(token: &str, line: usize) -> Result<bool, ParseTraceError> {
    match token {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(ParseTraceError::Malformed {
            line,
            reason: format!("expected 0 or 1, got `{other}`"),
        }),
    }
}

/// Parses a trace document into an [`AvailabilitySchedule`].
///
/// # Errors
///
/// Returns [`ParseTraceError`] on syntax errors or schedule invariant
/// violations (non-monotonic or non-alternating transitions).
pub fn parse_trace(text: &str) -> Result<AvailabilitySchedule, ParseTraceError> {
    let mut nodes = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let initial = parse_state(
            tokens
                .next()
                .expect("split of non-empty line yields a token"),
            line_no,
        )?;
        let mut transitions = Vec::new();
        for token in tokens {
            let (time_str, state_str) =
                token
                    .split_once(':')
                    .ok_or_else(|| ParseTraceError::Malformed {
                        line: line_no,
                        reason: format!("expected `seconds:state`, got `{token}`"),
                    })?;
            let secs: f64 = time_str.parse().map_err(|_| ParseTraceError::Malformed {
                line: line_no,
                reason: format!("bad time `{time_str}`"),
            })?;
            if !secs.is_finite() || secs < 0.0 {
                return Err(ParseTraceError::Malformed {
                    line: line_no,
                    reason: format!("time {secs} out of range"),
                });
            }
            let state = parse_state(state_str, line_no)?;
            transitions.push((SimTime::from_secs_f64(secs), state));
        }
        nodes.push((initial, transitions));
    }
    Ok(AvailabilitySchedule::new(nodes)?)
}

/// Serializes a schedule to the trace text format (inverse of
/// [`parse_trace`]).
pub fn write_trace(schedule: &AvailabilitySchedule) -> String {
    let mut out = String::from("# ta-trace v1\n");
    for seg in schedule.segments() {
        out.push(if seg.initial_online { '1' } else { '0' });
        for (t, up) in seg.transitions() {
            out.push_str(&format!(" {}:{}", t.as_secs_f64(), u8::from(up)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SmartphoneTraceModel;
    use ta_sim::engine::AvailabilityModel;
    use ta_sim::{paper, NodeId};

    #[test]
    fn parses_the_documented_example() {
        let text = "# ta-trace v1\n1\n0 60.5:1 7200:0\n";
        let sched = parse_trace(text).unwrap();
        assert_eq!(sched.n(), 2);
        let seg0 = sched.segment(NodeId::new(0));
        assert!(seg0.initial_online);
        assert!(seg0.times.is_empty());
        let seg1 = sched.transitions(NodeId::new(1));
        assert!(!sched.initially_online(NodeId::new(1)));
        assert_eq!(seg1.len(), 2);
        assert_eq!(seg1[0].0, SimTime::from_secs_f64(60.5));
        assert!(seg1[0].1);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let sched = parse_trace("\n# c\n\n1\n# d\n0\n").unwrap();
        assert_eq!(sched.n(), 2);
    }

    #[test]
    fn roundtrips_a_synthetic_trace() {
        let original = SmartphoneTraceModel::default().generate(50, paper::TWO_DAYS, 5);
        let text = write_trace(&original);
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn rejects_bad_state_token() {
        let err = parse_trace("2\n").unwrap_err();
        assert!(matches!(err, ParseTraceError::Malformed { line: 1, .. }));
    }

    #[test]
    fn rejects_bad_transition_syntax() {
        assert!(matches!(
            parse_trace("0 60,1\n").unwrap_err(),
            ParseTraceError::Malformed { .. }
        ));
        assert!(matches!(
            parse_trace("0 abc:1\n").unwrap_err(),
            ParseTraceError::Malformed { .. }
        ));
        assert!(matches!(
            parse_trace("0 -5:1\n").unwrap_err(),
            ParseTraceError::Malformed { .. }
        ));
    }

    #[test]
    fn rejects_non_alternating_trace() {
        let err = parse_trace("0 10:1 20:1\n").unwrap_err();
        assert!(matches!(err, ParseTraceError::Invalid(_)));
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let err = parse_trace("1\n0 x:1\n").unwrap_err();
        assert!(err.to_string().contains("line 2"));
    }
}
