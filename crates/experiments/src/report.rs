//! Figure reports: tables plus the data files that regenerate the plot.

use std::io::Write;
use std::path::PathBuf;

use ta_metrics::Table;

/// The output of one figure module.
#[derive(Debug)]
pub struct Report {
    /// Figure identifier (e.g. `"fig2"`).
    pub name: String,
    /// What the figure shows.
    pub description: String,
    /// Titled summary tables (printed to stdout).
    pub tables: Vec<(String, Table)>,
    /// Data files written (gnuplot-ready `.dat`).
    pub files: Vec<PathBuf>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(name: impl Into<String>, description: impl Into<String>) -> Self {
        Report {
            name: name.into(),
            description: description.into(),
            tables: Vec::new(),
            files: Vec::new(),
        }
    }

    /// Adds a titled table.
    pub fn table(&mut self, title: impl Into<String>, table: Table) {
        self.tables.push((title.into(), table));
    }

    /// Records a written data file.
    pub fn file(&mut self, path: PathBuf) {
        self.files.push(path);
    }

    /// Renders the whole report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {}\n", self.name, self.description));
        for (title, table) in &self.tables {
            out.push('\n');
            out.push_str(&format!("-- {title}\n"));
            out.push_str(&table.render());
        }
        if !self.files.is_empty() {
            out.push_str("\ndata files:\n");
            for f in &self.files {
                out.push_str(&format!("  {}\n", f.display()));
            }
        }
        out
    }

    /// Prints the report to stdout, followed by the `profile` block of
    /// every run executed since the last print (present only under
    /// `TA_PROFILE=1`; see [`crate::runner::take_profile`]). A closed
    /// stdout drops the text quietly, as [`ta_telemetry::print_line`] does.
    pub fn print(&self) {
        let mut text = self.render();
        let profile = crate::runner::take_profile();
        if !profile.is_empty() {
            text.push_str(&format!("\n-- profile\n{}", profile.render()));
        }
        let _ = std::io::stdout().lock().write_all(text.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_sections() {
        let mut r = Report::new("figX", "demo");
        let mut t = Table::new(vec!["k".into(), "v".into()]);
        t.row_display(["a", "1"]);
        r.table("panel", t);
        r.file(PathBuf::from("results/x.dat"));
        let text = r.render();
        assert!(text.contains("== figX — demo"));
        assert!(text.contains("-- panel"));
        assert!(text.contains("results/x.dat"));
    }
}
