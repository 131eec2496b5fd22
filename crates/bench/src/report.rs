//! One typed report per experiment, rendered once as JSON or as text.
//!
//! Every `experiments` subcommand measures into a [`Report`]: a title,
//! caveat notes and one top-level [`Obj`]. The two renderers are the
//! only output formats:
//!
//! * [`Report::to_json`] writes the tree through [`crate::json`]
//!   (escaped strings, `null` for non-finite numbers), keys in
//!   insertion order.
//! * [`Report::to_text`] prints the title, the notes and the top-level
//!   scalars as `#` lines and every list of objects as an aligned
//!   table whose columns are the object keys — first column
//!   left-aligned, the rest right-aligned. An object nested in a row
//!   contributes `key.sub` columns; a list of objects nested in a row
//!   prints as a sub-table under a `##` heading named by the row's
//!   first cell. [`Value::Raw`] appears only in JSON.

use crate::{fmt_ms, json};
use std::time::Duration;

/// One node of a report tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    /// A duration: milliseconds in JSON, [`fmt_ms`] in text.
    Ms(Duration),
    Str(String),
    /// Pre-rendered JSON embedded verbatim; omitted from text.
    Raw(String),
    List(Vec<Value>),
    Obj(Obj),
}

/// An object whose keys keep their insertion order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Obj(Vec<(String, Value)>);

impl Obj {
    pub fn new() -> Self {
        Self::default()
    }

    /// `self` with `key` appended.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.push(key, value);
        self
    }

    /// Append `key` (after every key already present).
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        self.0.push((key.into(), value.into()));
    }
}

macro_rules! int_values {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
            }
        }
    )*};
}
int_values!(i64, u64, u32, usize);

macro_rules! wrapped_values {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::$variant(v.into())
            }
        }
    )*};
}
wrapped_values!(bool => Bool, f64 => Num, Duration => Ms, &str => Str, String => Str, Obj => Obj);

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::List(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

impl Value {
    /// The value as one JSON document.
    pub fn to_json(&self) -> String {
        match self {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Num(x) => json::number(*x),
            Value::Ms(d) => json::number(d.as_secs_f64() * 1e3),
            Value::Str(s) => json::string(s),
            Value::Raw(r) => r.clone(),
            Value::List(items) => json::array(items.iter().map(Value::to_json)),
            Value::Obj(o) => {
                o.0.iter()
                    .fold(json::Object::new(), |acc, (k, v)| acc.field(k, v.to_json()))
                    .build()
            }
        }
    }

    /// The value as one text cell.
    fn cell(&self) -> String {
        match self {
            Value::Null => "-".to_string(),
            Value::Num(x) => fmt_num(*x),
            Value::Ms(d) => fmt_ms(*d),
            Value::Str(s) => s.clone(),
            Value::Raw(_) => String::new(),
            Value::List(items) => items.iter().map(Value::cell).collect::<Vec<_>>().join(","),
            Value::Bool(_) | Value::Int(_) | Value::Obj(_) => self.to_json(),
        }
    }
}

/// A number with precision that shrinks as it grows; `-` when not finite.
fn fmt_num(x: f64) -> String {
    if !x.is_finite() {
        "-".to_string()
    } else if x.abs() >= 100.0 || x.fract() == 0.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.3}")
    }
}

/// An object split for text: scalar cells under dotted column names,
/// and the lists of objects it nests (at any depth of nested objects).
#[derive(Default)]
struct Flat<'a> {
    cells: Vec<(String, String)>,
    tables: Vec<(String, &'a [Value])>,
}

impl<'a> Flat<'a> {
    fn of(obj: &'a Obj) -> Self {
        let mut flat = Flat::default();
        flat.add(obj, "");
        flat
    }

    fn add(&mut self, obj: &'a Obj, prefix: &str) {
        for (k, v) in &obj.0 {
            let key = format!("{prefix}{k}");
            match v {
                Value::Obj(o) => self.add(o, &format!("{key}.")),
                // An empty list is neither a table nor a cell.
                Value::List(items) if items.iter().all(|i| matches!(i, Value::Obj(_))) => {
                    if !items.is_empty() {
                        self.tables.push((key, items));
                    }
                }
                Value::Raw(_) => {}
                v => self.cells.push((key, v.cell())),
            }
        }
    }
}

/// Append `rows` (objects) as an aligned table, then each row's nested
/// lists as sub-tables headed by the row's first cell.
fn table(rows: &[Value], out: &mut String) {
    let flats: Vec<Flat> = rows
        .iter()
        .filter_map(|r| match r {
            Value::Obj(o) => Some(Flat::of(o)),
            _ => None,
        })
        .collect();
    let mut columns: Vec<&str> = Vec::new();
    for (k, _) in flats.iter().flat_map(|f| &f.cells) {
        if !columns.contains(&k.as_str()) {
            columns.push(k);
        }
    }
    let grid: Vec<Vec<&str>> = flats
        .iter()
        .map(|f| {
            columns
                .iter()
                .map(|c| {
                    f.cells
                        .iter()
                        .find(|(k, _)| k == c)
                        .map_or("-", |(_, v)| v.as_str())
                })
                .collect()
        })
        .collect();
    let widths: Vec<usize> = (0..columns.len())
        .map(|i| {
            grid.iter()
                .map(|r| r[i])
                .chain([columns[i]])
                .map(|c| c.chars().count())
                .max()
                .unwrap_or(0)
        })
        .collect();
    for line in std::iter::once(&columns).chain(&grid) {
        let mut text = String::new();
        for (i, (cell, w)) in line.iter().zip(&widths).enumerate() {
            if i == 0 {
                text.push_str(&format!("{cell:<w$}"));
            } else {
                text.push_str(&format!("  {cell:>w$}"));
            }
        }
        out.push_str(text.trim_end());
        out.push('\n');
    }
    for f in &flats {
        let label = f.cells.first().map_or("", |(_, v)| v.as_str());
        for (key, items) in &f.tables {
            out.push_str(&format!("\n## {label} {key}\n"));
            table(items, out);
        }
    }
}

/// One experiment's result: what was measured, and under which caveats.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    pub title: String,
    /// Caveats printed under the title (e.g. [`crate::counters_note`]);
    /// the JSON form carries them as `notes`.
    pub notes: Vec<String>,
    pub body: Obj,
}

impl Report {
    /// An empty report for experiment `id`: the body starts with
    /// `"experiment": id`.
    pub fn new(id: &str, title: impl Into<String>) -> Self {
        Report {
            title: title.into(),
            notes: Vec::new(),
            body: Obj::new().with("experiment", id),
        }
    }

    /// `self` with one more caveat note.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// `self` with `key` appended to the body.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.body.push(key, value);
        self
    }

    /// The body as one JSON document (plus `notes` when there are any).
    pub fn to_json(&self) -> String {
        let mut body = self.body.clone();
        if !self.notes.is_empty() {
            body.push("notes", self.notes.clone());
        }
        Value::Obj(body).to_json()
    }

    /// The aligned-text rendering described in the module docs.
    pub fn to_text(&self) -> String {
        let mut out = format!("# {}\n", self.title);
        for note in &self.notes {
            out.push_str(&format!("# {note}\n"));
        }
        let flat = Flat::of(&self.body);
        if !flat.cells.is_empty() {
            let scalars: Vec<String> = flat.cells.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!("# {}\n", scalars.join(" ")));
        }
        for (key, rows) in &flat.tables {
            out.push_str(&format!("\n## {key}\n"));
            table(rows, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_renders_as_json() {
        let cases: [(Value, &str); 11] = [
            (Value::Null, "null"),
            (true.into(), "true"),
            (7u64.into(), "7"),
            (1.5.into(), "1.5"),
            (f64::NAN.into(), "null"),
            (f64::INFINITY.into(), "null"),
            (Duration::from_micros(2500).into(), "2.5"),
            ("a\"b\\c\nd".into(), r#""a\"b\\c\nd""#),
            (Value::Raw(r#"{"m":[1]}"#.to_string()), r#"{"m":[1]}"#),
            (vec![1u32, 2].into(), "[1,2]"),
            (Option::<u64>::None.into(), "null"),
        ];
        for (value, want) in cases {
            assert_eq!(value.to_json(), want, "{value:?}");
        }
        let obj = Obj::new().with("k", "v").with("n", Obj::new().with("x", 1u64));
        assert_eq!(Value::Obj(obj).to_json(), r#"{"k":"v","n":{"x":1}}"#);
    }

    #[test]
    fn keys_keep_insertion_order() {
        let r = Report::new("t", "title")
            .with("zeta", 1u64)
            .with("alpha", 2u64)
            .with("mid", 3u64);
        assert_eq!(r.to_json(), r#"{"experiment":"t","zeta":1,"alpha":2,"mid":3}"#);
        assert!(r.to_text().contains("# experiment=t zeta=1 alpha=2 mid=3\n"));
        let noted = r.note("caveat");
        assert!(noted.to_json().ends_with(r#","notes":["caveat"]}"#));
        assert!(noted.to_text().starts_with("# title\n# caveat\n"));
    }

    #[test]
    fn nested_objects_are_dotted_columns_and_nested_lists_sub_tables() {
        let row = |name: &str, n: u64| {
            Obj::new()
                .with("run", name)
                .with("cache", Obj::new().with("hits", n).with("misses", 0u64))
                .with(
                    "stages",
                    vec![Obj::new().with("stage", "scan").with("rows", n * 10)],
                )
        };
        let text = Report::new("t", "nest")
            .with("rows", vec![row("q1/typer", 1), row("q6/typer", 2)])
            .to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[3], "## rows");
        assert_eq!(lines[4], "run       cache.hits  cache.misses");
        assert_eq!(lines[5], "q1/typer           1             0");
        assert_eq!(&lines[7..10], ["", "## q1/typer stages", "stage  rows"]);
        assert_eq!(lines[10], "scan     10");
        assert_eq!(lines[12], "## q6/typer stages");
        assert_eq!(lines[14], "scan     20");
    }

    #[test]
    fn raw_appears_only_in_json() {
        let r = Report::new("t", "raw").with(
            "rows",
            vec![Obj::new()
                .with("q", "q1")
                .with("metrics", Value::Raw(r#"{"secret":1}"#.into()))],
        );
        assert!(r.to_json().contains(r#""metrics":{"secret":1}"#));
        let text = r.to_text();
        assert!(!text.contains("metrics") && !text.contains("secret"), "{text}");
    }

    #[test]
    fn columns_fit_the_widest_cell_and_the_first_is_left_aligned() {
        let rows = vec![
            Obj::new()
                .with("query", "q1")
                .with("ms", Duration::from_millis(250))
                .with("x", Value::Null),
            Obj::new()
                .with("query", "ssb-q4.1")
                .with("ms", Duration::from_micros(1500))
                .with("x", 0.5),
        ];
        let text = Report::new("t", "widths").with("rows", rows).to_text();
        let table: Vec<&str> = text.lines().skip(4).collect();
        assert_eq!(
            table,
            [
                "query      ms      x",
                "q1        250      -",
                "ssb-q4.1  1.5  0.500"
            ]
        );
    }
}
