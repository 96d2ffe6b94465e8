//! Figure reports: a titled set of series with rendering helpers.

use crate::chart::ascii_chart;
use crate::csv::series_to_csv;
use simcore::Series;

/// Everything needed to print (or save) one reproduced figure.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Figure identifier, e.g. `"Fig. 7"`.
    pub id: String,
    /// Human title, e.g. `"Average response time vs number of tasks"`.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl FigureReport {
    /// Creates an empty report.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        FigureReport {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a curve.
    pub fn push(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Finds a curve by label.
    pub fn series_named(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Full terminal rendering: header, value table, ASCII chart.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {}: {} ==\n", self.id, self.title));
        out.push_str(&format!("   y: {} | x: {}\n\n", self.y_label, self.x_label));
        // Value table.
        out.push_str(&format!("{:>10}", self.x_label));
        for s in &self.series {
            out.push_str(&format!(" {:>28}", truncate(&s.label, 28)));
        }
        out.push('\n');
        let xs: Vec<f64> = {
            let mut xs: Vec<f64> = self
                .series
                .iter()
                .flat_map(|s| s.points.iter().map(|p| p.x))
                .collect();
            xs.sort_by(|a, b| a.total_cmp(b));
            xs.dedup();
            xs
        };
        for x in xs {
            out.push_str(&format!("{x:>10.1}"));
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => out.push_str(&format!(" {y:>28.4}")),
                    None => out.push_str(&format!(" {:>28}", "-")),
                }
            }
            out.push('\n');
        }
        out.push('\n');
        out.push_str(&ascii_chart(&self.series, 64, 16));
        out
    }

    /// CSV rendering of the series table.
    pub fn to_csv(&self) -> String {
        series_to_csv(&self.series)
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n.saturating_sub(1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> FigureReport {
        let mut r = FigureReport::new("Fig. 7", "Response time", "tasks", "aveRT");
        r.push(Series::from_xy(
            "Adaptive RL",
            &[500.0, 1000.0],
            &[40.0, 45.0],
        ));
        r.push(Series::from_xy(
            "Online RL",
            &[500.0, 1000.0],
            &[44.0, 52.0],
        ));
        r
    }

    #[test]
    fn render_contains_all_parts() {
        let text = report().render();
        assert!(text.contains("Fig. 7"));
        assert!(text.contains("Adaptive RL"));
        assert!(text.contains("500.0"));
        assert!(text.contains("40.0000"));
        assert!(text.contains('*'));
    }

    #[test]
    fn series_lookup() {
        let r = report();
        assert!(r.series_named("Online RL").is_some());
        assert!(r.series_named("nope").is_none());
    }

    #[test]
    fn csv_export_matches_series() {
        let csv = report().to_csv();
        assert!(csv.starts_with("x,Adaptive RL,Online RL\n"));
        assert!(csv.contains("500,40,44"));
    }

    #[test]
    fn truncate_labels() {
        assert_eq!(truncate("short", 10), "short");
        assert_eq!(truncate("12345678901", 10), "123456789…");
    }
}
