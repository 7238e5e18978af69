//! Experiment harness regenerating the paper's Table 1 measurements.
//!
//! The paper is a theory paper whose single table (Table 1) is a matrix of
//! round-complexity bounds. "Reproducing the evaluation" therefore means
//! measuring round counts for every claimed bound and checking the *growth
//! shapes*: who wins, by what factor, and where crossovers fall. Each
//! experiment Eⁱ from DESIGN.md has a binary in `src/bin/` that prints its
//! table; `table1_all` runs the full suite. Nothing here measures wall
//! time — that is the job of the repo benchmark (`benchmark/run.sh`).
//!
//! The helpers here are shared by the binaries: measurement records, table
//! rendering, and log–log slope fitting for empirical growth exponents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Instance label (family, parameters).
    pub label: String,
    /// The independent variable (usually `n`).
    pub x: f64,
    /// Measured rounds (or another dependent quantity).
    pub y: f64,
}

/// Renders an aligned text table.
///
/// # Examples
///
/// ```
/// let s = dapsp_bench::render_table(
///     "demo",
///     &["n", "rounds"],
///     &[vec!["8".into(), "24".into()], vec!["16".into(), "48".into()]],
/// );
/// assert!(s.contains("demo"));
/// assert!(s.contains("rounds"));
/// ```
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("| ");
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:>width$} | ", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(&sep, &widths));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Prints a table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("{}", render_table(title, headers, rows));
}

/// Least-squares slope of `log y` against `log x` — the empirical growth
/// exponent (`~1` for linear algorithms, `~2` for quadratic ones).
///
/// # Panics
///
/// Panics if fewer than two points, if all `x` values coincide, or if any
/// coordinate is non-positive.
///
/// # Examples
///
/// ```
/// let xs = [8.0, 16.0, 32.0, 64.0];
/// let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x).collect();
/// let slope = dapsp_bench::loglog_slope(&xs, &ys);
/// assert!((slope - 1.0).abs() < 1e-9);
/// ```
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert!(xs.len() == ys.len() && xs.len() >= 2, "need >= 2 points");
    assert!(
        xs.iter().chain(ys.iter()).all(|&v| v > 0.0),
        "log-log fit needs positive data"
    );
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    let n = lx.len() as f64;
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    assert!(
        var > 0.0,
        "log-log fit needs at least two distinct x values"
    );
    cov / var
}

/// Ratio-of-means helper: how much larger `ys` is than `xs` on average.
///
/// # Panics
///
/// Panics on empty or mismatched inputs.
pub fn mean_ratio(ys: &[f64], xs: &[f64]) -> f64 {
    assert!(!xs.is_empty() && xs.len() == ys.len(), "mismatched inputs");
    let r: f64 = ys.iter().zip(xs).map(|(y, x)| y / x).sum();
    r / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_detects_quadratic_growth() {
        let xs = [4.0, 8.0, 16.0, 32.0];
        let ys: Vec<f64> = xs.iter().map(|x| 0.5 * x * x).collect();
        assert!((loglog_slope(&xs, &ys) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn slope_tolerates_constants_and_noise() {
        let xs = [16.0, 32.0, 64.0, 128.0];
        let ys: Vec<f64> = xs.iter().map(|x| 7.0 * x + 20.0).collect();
        let s = loglog_slope(&xs, &ys);
        assert!(s > 0.85 && s < 1.1, "slope {s}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn slope_rejects_zeros() {
        loglog_slope(&[1.0, 2.0], &[0.0, 1.0]);
    }

    #[test]
    fn table_renders_all_cells() {
        let t = render_table("t", &["a", "b"], &[vec!["1".into(), "22".into()]]);
        assert!(t.contains("| 1 |"));
        assert!(t.contains("22"));
    }

    #[test]
    fn mean_ratio_basic() {
        assert!((mean_ratio(&[2.0, 4.0], &[1.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}
