//! Tiny ASCII bar charts for figure binaries — the terminal rendition of
//! the paper's plots.

/// Render labelled horizontal bars scaled to `width` columns, each line
/// `label | ███… value`. Values must be non-negative and finite.
///
/// # Panics
/// Panics on negative/NaN values or `width == 0`.
fn bars(items: &[(String, f64)], width: usize) -> String {
    assert!(width > 0, "chart width must be positive");
    for (label, v) in items {
        assert!(v.is_finite() && *v >= 0.0, "bad value {v} for {label}");
    }
    let max = items.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
    let label_w = items.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, v) in items {
        let filled = if max > 0.0 {
            ((v / max) * width as f64).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "{label:<label_w$} | {}{} {v:.1}\n",
            "█".repeat(filled),
            " ".repeat(width - filled.min(width)),
        ));
    }
    out
}

/// Print a titled bar chart to stdout (broken-pipe tolerant).
pub fn print(title: &str, items: &[(String, f64)], width: usize) {
    crate::print_line(&format!("\n-- {title} --"));
    for line in bars(items, width).lines() {
        crate::print_line(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_to_max() {
        let out = bars(
            &[("a".into(), 10.0), ("bb".into(), 5.0), ("c".into(), 0.0)],
            10,
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains(&"█".repeat(10)));
        assert!(lines[1].contains(&"█".repeat(5)));
        assert!(!lines[2].contains('█'));
        // labels padded to equal width
        assert!(lines[0].starts_with("a  |"));
        assert!(lines[1].starts_with("bb |"));
    }

    #[test]
    fn all_zero_renders_empty_bars() {
        let out = bars(&[("x".into(), 0.0)], 8);
        assert!(out.contains("x |"));
        assert!(!out.contains('█'));
    }

    #[test]
    #[should_panic(expected = "bad value")]
    fn negative_rejected() {
        let _ = bars(&[("x".into(), -1.0)], 8);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        let _ = bars(&[("x".into(), 1.0)], 0);
    }
}
