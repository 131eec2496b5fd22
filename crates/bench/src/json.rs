//! Minimal JSON emission for the experiments harness' `--json` mode.
//!
//! The workspace is dependency-free, so machine-readable output is built
//! with a tiny writer instead of serde: objects and arrays accumulate
//! pre-rendered members, scalars render through the typed helpers. The
//! produced text is valid JSON (escaped strings, `null` for missing
//! counters, no trailing commas) so downstream tooling can record
//! `BENCH_*.json` perf trajectories across PRs.

/// Render a string as a JSON string literal (with escaping).
pub fn string(s: &str) -> String {
    format!("\"{}\"", dbep_obs::json_escape(s))
}

/// Render a float (JSON has no NaN/Inf; those become `null`).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Render an optional integer counter as a number or `null`.
pub fn opt_u64(v: Option<u64>) -> String {
    match v {
        Some(v) => format!("{v}"),
        None => "null".to_string(),
    }
}

/// An object under construction: `field` values must already be
/// rendered JSON (use [`string`]/[`number`]/[`opt_u64`] or a nested
/// builder's `build()`).
#[derive(Default)]
pub struct Object {
    members: Vec<String>,
}

impl Object {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn field(mut self, key: &str, rendered_value: impl Into<String>) -> Self {
        self.members
            .push(format!("{}:{}", string(key), rendered_value.into()));
        self
    }

    pub fn build(self) -> String {
        format!("{{{}}}", self.members.join(","))
    }
}

/// Render a sequence of already-rendered JSON values as an array.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_and_composition() {
        assert_eq!(string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(opt_u64(None), "null");
        assert_eq!(opt_u64(Some(7)), "7");
        let obj = Object::new()
            .field("query", string("q1"))
            .field("ms", number(2.0))
            .build();
        assert_eq!(obj, r#"{"query":"q1","ms":2}"#);
        assert_eq!(array([obj.clone()]), format!("[{obj}]"));
    }

    #[test]
    fn output_parses_as_json_shaped_text() {
        // A structural sanity check without a parser dependency: balanced
        // braces/brackets and quote count parity on a nested document.
        let doc = Object::new()
            .field("experiment", string("fig3"))
            .field(
                "queries",
                array((0..3).map(|i| {
                    Object::new()
                        .field("query", string(&format!("q{i}")))
                        .field("typer_ms", number(i as f64))
                        .build()
                })),
            )
            .build();
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        assert_eq!(doc.matches('"').count() % 2, 0);
    }
}
