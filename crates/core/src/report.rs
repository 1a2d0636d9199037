//! Plain-text renderers for experiment outputs.
//!
//! Every figure/table binary in `neofog-bench` prints through these so
//! the regenerated rows/series look alike and are easy to diff against
//! the paper.

#![expect(
    clippy::indexing_slicing,
    reason = "column-width table sized to the header row"
)]

use std::fmt::Write as _;

/// Renders a simple ASCII table with a header row.
///
/// # Examples
///
/// ```
/// use neofog_core::report::render_table;
///
/// let s = render_table(
///     &["system", "fog"],
///     &[vec!["NEOFog".to_string(), "5018".to_string()]],
/// );
/// assert!(s.contains("NEOFog"));
/// assert!(s.lines().count() >= 3);
/// ```
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().take(cols).enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            let _ = write!(out, "+{:-<width$}", "", width = w + 2);
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "| {h:width$} ", width = widths[i]);
    }
    out.push_str("|\n");
    sep(&mut out);
    for row in rows {
        for (i, cell) in row.iter().take(cols).enumerate() {
            let _ = write!(out, "| {cell:width$} ", width = widths[i]);
        }
        out.push_str("|\n");
    }
    sep(&mut out);
    out
}

/// Renders a numeric series as an ASCII sparkline-style bar chart, one
/// row per point, scaled to `max_width` characters.
#[must_use]
pub fn render_bars(labels: &[String], values: &[f64], max_width: usize) -> String {
    let peak = values.iter().copied().fold(0.0f64, f64::max).max(1e-12);
    let label_w = labels.iter().map(String::len).max().unwrap_or(0);
    let mut out = String::new();
    for (label, &v) in labels.iter().zip(values) {
        let bar = ((v / peak) * max_width as f64).round() as usize;
        let _ = writeln!(out, "{label:label_w$} | {:bar$} {v:.0}", "", bar = bar);
    }
    // Replace the spaces used for the bar body with block characters.
    out.lines()
        .map(|line| {
            if let Some(pos) = line.find("| ") {
                let (head, tail) = line.split_at(pos + 2);
                let digits_at = tail.rfind(' ').map_or(0, |p| p);
                let (bar, num) = tail.split_at(digits_at);
                format!("{head}{}{num}", "#".repeat(bar.len()))
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

/// Formats a ratio as the paper prints gains, e.g. `2.1X`.
#[must_use]
pub fn gain(value: f64) -> String {
    format!("{value:.1}X")
}

/// Formats a signed percentage with one decimal, e.g. `-55.2%`.
#[must_use]
pub fn percent(value: f64) -> String {
    format!("{:+.1}%", value * 100.0)
}

/// Downsamples a series to at most `n` points by averaging buckets —
/// used to print Figure 9's 1500-slot traces as readable curves.
#[must_use]
pub fn downsample(series: &[f32], n: usize) -> Vec<f32> {
    if series.is_empty() || n == 0 {
        return Vec::new();
    }
    let bucket = series.len().div_ceil(n);
    series
        .chunks(bucket)
        .map(|c| c.iter().sum::<f32>() / c.len() as f32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let s = render_table(
            &["a", "long header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["yyyy".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        // All lines share a width.
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "{s}");
        assert!(s.contains("long header"));
    }

    #[test]
    fn bars_scale_to_peak() {
        let s = render_bars(&["a".into(), "b".into()], &[50.0, 100.0], 10);
        let a_bar = s.lines().next().unwrap().matches('#').count();
        let b_bar = s.lines().nth(1).unwrap().matches('#').count();
        assert_eq!(b_bar, 10);
        assert_eq!(a_bar, 5);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(gain(2.13), "2.1X");
        assert_eq!(percent(-0.552), "-55.2%");
    }

    #[test]
    fn downsample_preserves_mean() {
        let series: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let ds = downsample(&series, 10);
        assert_eq!(ds.len(), 10);
        let mean: f32 = ds.iter().sum::<f32>() / ds.len() as f32;
        assert!((mean - 49.5).abs() < 0.6);
    }

    #[test]
    fn downsample_edge_cases() {
        assert!(downsample(&[], 5).is_empty());
        assert!(downsample(&[1.0], 0).is_empty());
        assert_eq!(downsample(&[1.0, 3.0], 5), vec![1.0, 3.0]);
    }
}
