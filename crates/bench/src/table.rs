//! Minimal fixed-width text-table printer for experiment output.

/// Render a table: header row, separator, data rows; columns padded to the
/// widest cell.
///
/// # Panics
/// Panics if any row's length differs from the header's.
fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row width must match header");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}", w = w))
            .collect();
        format!("| {} |\n", padded.join(" | "))
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    out.push_str(&fmt_row(&sep, &widths));
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Print a titled table to stdout (broken-pipe tolerant).
pub fn print(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    crate::print_line(&format!("\n== {title} =="));
    for line in render(headers, rows).lines() {
        crate::print_line(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let s = render(
            &["id", "name"],
            &[
                vec!["1".into(), "alpha".into()],
                vec!["22".into(), "b".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("id"));
        assert!(lines[2].starts_with("| 1 "));
        // all lines same width
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_panics() {
        let _ = render(&["a"], &[vec!["1".into(), "2".into()]]);
    }
}
