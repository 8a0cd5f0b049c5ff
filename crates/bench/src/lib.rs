//! Shared reporting helpers for the figure-regeneration binaries.
//!
//! Every binary prints the paper's expected series next to the measured
//! series and writes machine-readable CSV/JSON under `results/` at the
//! workspace root, which EXPERIMENTS.md references.

use std::fs;
use std::path::PathBuf;

pub mod request_path;

/// Directory where experiment outputs land (`<workspace>/results`).
pub fn results_dir() -> PathBuf {
    let dir = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(m) => PathBuf::from(m).join("../../results"),
        Err(_) => PathBuf::from("results"),
    };
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes a text artifact into `results/`, returning its path.
pub fn write_artifact(name: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(name);
    if let Err(e) = fs::write(&path, contents) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    path
}

/// Bundle `i` of the hostname-pinned optimizer profile (`bench_optimizer`,
/// `tests/optimizer_oracle.rs`): a one-node fallback plus a variable
/// fan-out across the bundle's own pair of hosts. The dominated `t`
/// choices (same demands, strictly worse predicted time) and the per-pair
/// hostname pins give the facts engine real work on every pruning axis.
pub fn pinned_bag(i: usize) -> String {
    let h0 = format!("node{:02}.sp2", 2 * i);
    let h1 = format!("node{:02}.sp2", 2 * i + 1);
    format!(
        "harmonyBundle app{i}:1 config {{ \
         {{small {{node a {{seconds 900}} {{memory 32}} {{hostname {h0}}}}}}} \
         {{wide {{variable t {{1 2 3 4}}}} \
          {{node a {{seconds {{600 / t}}}} {{memory 32}} {{hostname {h0}}}}} \
          {{node b {{seconds {{600 / t}}}} {{memory 32}} {{hostname {h1}}}}} \
          {{performance {{600 / t}}}}}} }}"
    )
}

/// A fixed-width text table builder for terminal reports.
#[derive(Debug, Default, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (missing cells render empty; extras are dropped).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().take(cols).enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                line.push_str(&format!("{cell:<w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Prints a pass/fail line for a named shape check and returns whether
/// it held (binaries exit nonzero when any check fails).
pub fn check(name: &str, ok: bool) -> bool {
    println!("  [{}] {name}", if ok { "PASS" } else { "FAIL" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333", "4"]);
        let text = t.render();
        assert!(text.contains("long-header"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let csv = t.to_csv();
        assert!(csv.starts_with("a,long-header\n"));
        assert!(csv.contains("333,4\n"));
    }

    #[test]
    fn check_reports() {
        assert!(check("ok thing", true));
        assert!(!check("bad thing", false));
    }

    #[test]
    fn results_dir_exists() {
        let dir = results_dir();
        assert!(dir.exists());
        let p = write_artifact("selftest.txt", "hello");
        assert!(p.exists());
        let _ = std::fs::remove_file(p);
    }
}
