//! Experiment harness: shared scenario builders and output formatting for
//! the per-table/per-figure binaries (`table1`, `table2`, `fig1` … `fig8`,
//! `ablation_*`).
//!
//! Every binary prints a human-readable table followed by a single
//! `RESULT-JSON:` line with the same data machine-readably, so
//! `EXPERIMENTS.md` numbers can be regenerated and diffed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod chart;
pub mod fig56;
pub mod scenarios;
pub mod table;

use serde::Serialize;

/// Print a line to stdout, tolerating a closed pipe (`fig7 | head` must
/// not panic).
pub fn print_line(line: &str) {
    use std::io::Write;
    let _ = writeln!(std::io::stdout(), "{line}");
}

/// Print the machine-readable result trailer.
///
/// # Panics
/// Panics if `value` cannot be serialised (plain data types never fail).
pub fn emit_json<T: Serialize>(label: &str, value: &T) {
    let json = serde_json::to_string(value).expect("result serialisation cannot fail");
    print_line(&format!("RESULT-JSON {label}: {json}"));
}

#[cfg(test)]
mod tests {
    #[test]
    fn emit_json_smoke() {
        super::emit_json("test", &serde_json::json!({"a": 1}));
    }
}
