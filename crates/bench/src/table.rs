//! Result tables: aligned stdout rendering plus CSV files under
//! `results/`, so every experiment table can be regenerated and
//! re-plotted from the same run.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// A simple column-aligned results table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table to a string (markdown-ish, aligned).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(widths.iter()) {
                let _ = write!(s, " {c:>w$} |", w = w);
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{:-<w$}|", "", w = w + 2);
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes `name.csv` under `dir` (created if missing).
    pub fn write_csv(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let mut f = fs::File::create(dir.join(format!("{name}.csv")))?;
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(())
    }
}

/// Formats a float with 4 decimals (table cell helper).
pub(crate) fn f(x: f64) -> String {
    if x.is_infinite() {
        "inf".to_string()
    } else {
        format!("{x:.4}")
    }
}

/// Mean of a slice (0 when empty).
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Runs `reps` seeded replications of `job` across threads (one batch per
/// available core) and collects results in seed order, so tables do not
/// depend on the core count.
pub(crate) fn replicate<T: Send>(reps: u64, job: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..reps).map(|_| None).collect();
    let chunk = out
        .len()
        .div_ceil(std::thread::available_parallelism().map_or(4, |p| p.get()));
    if chunk == 0 {
        return Vec::new();
    }
    std::thread::scope(|scope| {
        for (ci, slot) in out.chunks_mut(chunk).enumerate() {
            let job = &job;
            scope.spawn(move || {
                for (i, s) in slot.iter_mut().enumerate() {
                    *s = Some(job((ci * chunk + i) as u64));
                }
            });
        }
    });
    out.into_iter().map(|x| x.expect("job ran")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["n", "value"]);
        t.row(vec!["1".into(), "0.5".into()]);
        t.row(vec!["100".into(), "12.25".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("|   n |"));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("qosc-table-test");
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.write_csv(&dir, "demo").unwrap();
        let s = std::fs::read_to_string(dir.join("demo.csv")).unwrap();
        assert_eq!(s, "a,b\n1,2\n");
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(f(f64::INFINITY), "inf");
        assert_eq!(f(0.12345), "0.1235");
    }

    #[test]
    fn replicate_preserves_seed_order() {
        let out = replicate(17, |seed| seed * 2);
        assert_eq!(out, (0..17).map(|s| s * 2).collect::<Vec<_>>());
    }
}
