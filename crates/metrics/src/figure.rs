//! Figures: labelled series plus metadata, renderable and serialisable.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::json::{Json, JsonError};

/// One labelled data series (x, y pairs).
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Legend label, e.g. `"chaos [NoXS]"`.
    pub label: String,
    /// The data points, in insertion order.
    pub points: Vec<(f64, f64)>,
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
        self.points.push((x, y));
    }

    /// Builds a series from an iterator of points.
    pub fn from_points(
        label: impl Into<String>,
        points: impl IntoIterator<Item = (f64, f64)>,
    ) -> Series {
        Series {
            label: label.into(),
            points: points.into_iter().collect(),
        }
    }

    /// The y value at the point whose x is nearest to `x`, or `None` if
    /// the series is empty.
    pub fn nearest_y(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .min_by(|a, b| {
                (a.0 - x)
                    .abs()
                    .partial_cmp(&(b.0 - x).abs())
                    .expect("NaN x value")
            })
            .map(|p| p.1)
    }
}

/// A reproduced paper figure: series plus axis/em metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct Figure {
    /// Stable identifier, e.g. `"fig09"`.
    pub id: String,
    /// Human title, e.g. `"Creation times for LightVM mechanism combos"`.
    pub title: String,
    /// x-axis label.
    pub xlabel: String,
    /// y-axis label.
    pub ylabel: String,
    /// The series, in legend order.
    pub series: Vec<Series>,
    /// Free-form metadata (machine, seed, parameters).
    pub meta: BTreeMap<String, String>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        xlabel: impl Into<String>,
        ylabel: impl Into<String>,
    ) -> Figure {
        Figure {
            id: id.into(),
            title: title.into(),
            xlabel: xlabel.into(),
            ylabel: ylabel.into(),
            series: Vec::new(),
            meta: BTreeMap::new(),
        }
    }

    /// Adds a series.
    pub fn push_series(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Records a metadata key (machine, seed, parameter).
    pub fn set_meta(&mut self, key: impl Into<String>, value: impl ToString) {
        self.meta.insert(key.into(), value.to_string());
    }

    /// Renders an ASCII table sampling each series at the given x values
    /// (nearest data point). This is what `runall` prints for each figure.
    pub fn render_table(&self, xs: &[f64]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        for (k, v) in &self.meta {
            let _ = writeln!(out, "#   {k}: {v}");
        }
        let col_w = 14usize;
        let _ = write!(out, "{:>col_w$}", self.xlabel);
        for s in &self.series {
            let _ = write!(out, " {:>col_w$}", truncate(&s.label, col_w));
        }
        let _ = writeln!(out);
        for &x in xs {
            let _ = write!(out, "{x:>col_w$.1}");
            for s in &self.series {
                match s.nearest_y(x) {
                    Some(y) => {
                        let _ = write!(out, " {y:>col_w$.3}");
                    }
                    None => {
                        let _ = write!(out, " {:>col_w$}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "# y unit: {}", self.ylabel);
        out
    }

    /// CSV rendering: header `x,<label...>` then one row per distinct x
    /// across all series (nearest-point sampling per series).
    pub fn to_csv(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN x value"));
        xs.dedup();
        let mut out = String::new();
        let _ = write!(out, "{}", csv_escape(&self.xlabel));
        for s in &self.series {
            let _ = write!(out, ",{}", csv_escape(&s.label));
        }
        let _ = writeln!(out);
        for x in xs {
            let _ = write!(out, "{x}");
            for s in &self.series {
                match s
                    .points
                    .iter()
                    .find(|p| p.0 == x)
                    .map(|p| p.1)
                {
                    Some(y) => {
                        let _ = write!(out, ",{y}");
                    }
                    None => {
                        let _ = write!(out, ",");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        let series = Json::Arr(
            self.series
                .iter()
                .map(|s| {
                    Json::obj([
                        ("label".to_string(), Json::Str(s.label.clone())),
                        (
                            "points".to_string(),
                            Json::Arr(
                                s.points
                                    .iter()
                                    .map(|&(x, y)| Json::Arr(vec![Json::Num(x), Json::Num(y)]))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let meta = Json::Obj(
            self.meta
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect(),
        );
        Json::obj([
            ("id".to_string(), Json::Str(self.id.clone())),
            ("title".to_string(), Json::Str(self.title.clone())),
            ("xlabel".to_string(), Json::Str(self.xlabel.clone())),
            ("ylabel".to_string(), Json::Str(self.ylabel.clone())),
            ("series".to_string(), series),
            ("meta".to_string(), meta),
        ])
        .pretty()
    }

    /// Parses a figure previously written by [`Figure::to_json`].
    pub fn from_json(src: &str) -> Result<Figure, JsonError> {
        let bad = |msg: &str| JsonError {
            message: msg.to_string(),
            offset: 0,
        };
        let v = Json::parse(src)?;
        let field = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(&format!("missing string field '{key}'")))
        };
        let mut fig = Figure::new(
            field("id")?,
            field("title")?,
            field("xlabel")?,
            field("ylabel")?,
        );
        for s in v
            .get("series")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing 'series' array"))?
        {
            let label = s
                .get("label")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("series without a label"))?;
            let mut series = Series::new(label);
            for pt in s
                .get("points")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("series without points"))?
            {
                match pt.as_arr() {
                    Some([x, y]) => series.push(
                        x.as_f64().ok_or_else(|| bad("non-numeric x"))?,
                        y.as_f64().ok_or_else(|| bad("non-numeric y"))?,
                    ),
                    _ => return Err(bad("point is not an [x, y] pair")),
                }
            }
            fig.push_series(series);
        }
        if let Some(meta) = v.get("meta").and_then(Json::as_obj) {
            for (k, val) in meta {
                fig.set_meta(k, val.as_str().unwrap_or_default());
            }
        }
        Ok(fig)
    }

    /// Writes `<id>.json` and `<id>.csv` into `dir` (created if missing).
    pub fn write_files(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.json", self.id)), self.to_json())?;
        std::fs::write(dir.join(format!("{}.csv", self.id)), self.to_csv())?;
        Ok(())
    }
}

fn truncate(s: &str, w: usize) -> String {
    if s.len() <= w {
        s.to_string()
    } else {
        format!("{}~", &s[..w - 1])
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_figure() -> Figure {
        let mut f = Figure::new("figX", "Test", "n", "time [ms]");
        f.push_series(Series::from_points("a", [(0.0, 1.0), (10.0, 2.0)]));
        f.push_series(Series::from_points("b", [(0.0, 5.0), (10.0, 6.0)]));
        f.set_meta("seed", 42);
        f
    }

    #[test]
    fn nearest_y_picks_closest_point() {
        let s = Series::from_points("s", [(0.0, 1.0), (10.0, 2.0), (20.0, 3.0)]);
        assert_eq!(s.nearest_y(1.0), Some(1.0));
        assert_eq!(s.nearest_y(9.0), Some(2.0));
        assert_eq!(s.nearest_y(100.0), Some(3.0));
        assert_eq!(Series::new("e").nearest_y(0.0), None);
    }

    #[test]
    fn table_contains_all_series() {
        let f = sample_figure();
        let t = f.render_table(&[0.0, 10.0]);
        assert!(t.contains("figX"));
        assert!(t.contains("seed: 42"));
        assert!(t.contains("a"));
        assert!(t.contains("b"));
        assert!(t.contains("5.000"));
    }

    #[test]
    fn csv_round_trips_values() {
        let f = sample_figure();
        let csv = f.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "n,a,b");
        assert_eq!(lines[1], "0,1,5");
        assert_eq!(lines[2], "10,2,6");
    }

    #[test]
    fn csv_escapes_commas() {
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("q\"q"), "\"q\"\"q\"");
    }

    #[test]
    fn json_round_trip() {
        let f = sample_figure();
        let parsed = Figure::from_json(&f.to_json()).unwrap();
        assert_eq!(parsed.id, "figX");
        assert_eq!(parsed.series, f.series);
        assert_eq!(parsed, f);
    }

    #[test]
    fn write_files_creates_both_artifacts() {
        let dir = std::env::temp_dir().join("lightvm-metrics-test");
        let _ = std::fs::remove_dir_all(&dir);
        sample_figure().write_files(&dir).unwrap();
        assert!(dir.join("figX.json").exists());
        assert!(dir.join("figX.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
