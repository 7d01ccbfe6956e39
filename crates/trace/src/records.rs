//! Result records for figures and tables.
//!
//! Every bench binary produces one of these and renders it the same way,
//! so EXPERIMENTS.md rows can be regenerated mechanically and diffed.

use crate::json::Value;
use std::fmt::Write as _;

/// One (x, y) measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Independent variable (e.g. parent footprint in MiB).
    pub x: f64,
    /// Dependent variable (e.g. latency in µs).
    pub y: f64,
}

/// One line of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Measurements in x order.
    pub points: Vec<Point>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Series {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push(Point { x, y });
    }

    /// y value at the largest x.
    pub fn last_y(&self) -> Option<f64> {
        self.points.last().map(|p| p.y)
    }

    /// y value at the smallest x.
    pub fn first_y(&self) -> Option<f64> {
        self.points.first().map(|p| p.y)
    }

    /// Ratio of last to first y — the growth factor across the sweep.
    pub fn growth_factor(&self) -> Option<f64> {
        match (self.first_y(), self.last_y()) {
            (Some(a), Some(b)) if a > 0.0 => Some(b / a),
            _ => None,
        }
    }
}

/// A figure: several series over a shared x axis.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureData {
    /// Identifier, e.g. "fig1".
    pub id: String,
    /// Title as printed.
    pub title: String,
    /// x-axis label.
    pub xlabel: String,
    /// y-axis label.
    pub ylabel: String,
    /// The lines.
    pub series: Vec<Series>,
}

impl FigureData {
    /// Creates an empty figure.
    pub fn new(id: &str, title: &str, xlabel: &str, ylabel: &str) -> FigureData {
        FigureData {
            id: id.to_string(),
            title: title.to_string(),
            xlabel: xlabel.to_string(),
            ylabel: ylabel.to_string(),
            series: Vec::new(),
        }
    }

    /// Looks up a series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Renders the figure as an aligned text table (x column + one column
    /// per series).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        let _ = write!(out, "{:>14}", self.xlabel);
        for s in &self.series {
            let _ = write!(out, "{:>16}", s.label);
        }
        let _ = writeln!(out, "    ({})", self.ylabel);
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|p| p.x).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            let _ = write!(out, "{:>14.3}", x);
            for s in &self.series {
                match s.points.get(i) {
                    Some(p) => {
                        let _ = write!(out, "{:>16.3}", p.y);
                    }
                    None => {
                        let _ = write!(out, "{:>16}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// The figure as a JSON value (`.pretty()` is what `results/` holds).
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("id".into(), Value::Str(self.id.clone())),
            ("title".into(), Value::Str(self.title.clone())),
            ("xlabel".into(), Value::Str(self.xlabel.clone())),
            ("ylabel".into(), Value::Str(self.ylabel.clone())),
            (
                "series".into(),
                Value::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            Value::Obj(vec![
                                ("label".into(), Value::Str(s.label.clone())),
                                (
                                    "points".into(),
                                    Value::Arr(
                                        s.points
                                            .iter()
                                            .map(|p| {
                                                Value::Obj(vec![
                                                    ("x".into(), Value::Num(p.x)),
                                                    ("y".into(), Value::Num(p.y)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A table: column headers and string rows.
#[derive(Debug, Clone, PartialEq)]
pub struct TableData {
    /// Identifier, e.g. "tab_overcommit".
    pub id: String,
    /// Title as printed.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells (same arity as `columns`).
    pub rows: Vec<Vec<String>>,
}

impl TableData {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> TableData {
        TableData {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the headers.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        for (i, c) in self.columns.iter().enumerate() {
            let _ = write!(out, "{:>w$}  ", c, w = widths[i]);
        }
        let _ = writeln!(out);
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", cell, w = widths[i]);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// The table as a JSON value (`.pretty()` is what `results/` holds).
    pub fn to_value(&self) -> Value {
        let strs = |xs: &[String]| Value::Arr(xs.iter().cloned().map(Value::Str).collect());
        Value::Obj(vec![
            ("id".into(), Value::Str(self.id.clone())),
            ("title".into(), Value::Str(self.title.clone())),
            ("columns".into(), strs(&self.columns)),
            (
                "rows".into(),
                Value::Arr(self.rows.iter().map(|r| strs(r)).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_growth_factor() {
        let mut s = Series::new("fork");
        s.push(1.0, 10.0);
        s.push(2.0, 20.0);
        s.push(4.0, 80.0);
        assert_eq!(s.growth_factor(), Some(8.0));
        assert_eq!(s.first_y(), Some(10.0));
        assert_eq!(s.last_y(), Some(80.0));
    }

    #[test]
    fn figure_render_aligns_series() {
        let mut f = FigureData::new("fig1", "latency", "MiB", "us");
        let mut a = Series::new("fork");
        a.push(1.0, 2.0);
        a.push(2.0, 4.0);
        let mut b = Series::new("spawn");
        b.push(1.0, 3.0);
        b.push(2.0, 3.0);
        f.series.push(a);
        f.series.push(b);
        let r = f.render();
        assert!(r.contains("fig1"));
        assert!(r.contains("fork"));
        assert!(r.contains("spawn"));
        assert_eq!(r.lines().count(), 4);
        assert!(f.series("fork").is_some());
        assert!(f.series("nope").is_none());
    }

    #[test]
    fn table_render_and_arity() {
        let mut t = TableData::new("tab", "demo", &["policy", "result"]);
        t.push_row(vec!["never".into(), "ENOMEM".into()]);
        t.push_row(vec!["always".into(), "OOM-kill".into()]);
        let r = t.render();
        assert!(r.contains("policy"));
        assert!(r.contains("OOM-kill"));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn bad_row_arity_panics() {
        let mut t = TableData::new("tab", "demo", &["one", "two"]);
        t.push_row(vec!["only-one".into()]);
    }
}
