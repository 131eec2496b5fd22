//! `dbep-obs` — the observability layer of the reproduction.
//!
//! The paper's whole argument is *measurement* (Table 1 attributes
//! cycles, instructions and cache misses per paradigm), yet a serving
//! engine needs more than offline benchmark tables: it needs to see
//! where inside a query time goes, how the shared scheduler behaves
//! under load, and what actually ran. This crate supplies the three
//! substrates, std-only and dependency-free like the rest of the
//! workspace:
//!
//! * [`ring`] — a lock-free ring-buffer **span sink** ([`TraceSink`])
//!   recording `query → stage → morsel-batch` spans via RAII guards,
//!   cheap enough to leave attached in serving paths.
//! * [`chrome`] — export of a sink snapshot as Chrome `trace_event`
//!   JSON, loadable in `chrome://tracing` / Perfetto.
//! * [`metrics`] — a **metrics registry** of named counters, gauges and
//!   fixed-bucket log-linear histograms, snapshot-exportable as JSON
//!   and Prometheus text exposition.
//! * [`log`] — the **structured query log**: one JSONL record per
//!   `Session` run (query, engine, parameter fingerprint, stage
//!   timings, scheduler stats), the capture substrate for workload
//!   mining (ROADMAP item 5).
//!
//! This crate sits below the scheduler in the dependency order: it
//! knows nothing about queries, engines or plans. Callers map their
//! enums to small integers when recording and supply name tables when
//! exporting ([`chrome::TraceNames`]).

pub mod chrome;
pub mod log;
pub mod metrics;
pub mod ring;

pub use chrome::{chrome_trace, TraceNames, TraceQuery};
pub use log::{QueryLog, QueryLogRecord};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use ring::{QueryTrace, SpanEvent, SpanGuard, SpanKind, TraceSink};

/// FNV-1a over `bytes`: the stable 64-bit fingerprint used to identify
/// parameter bindings in the query log (stable across runs and builds,
/// unlike `std`'s `DefaultHasher`).
pub fn fingerprint64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `s` as JSON string contents (no surrounding quotes): quotes,
/// backslashes and control characters escaped. The workspace's one JSON
/// string escaper — the exporters here, `dbep-bench`'s report writer
/// and `dbep-lint`'s report all call it.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Extract the raw text of `"key": <value>` from a flat JSON object
/// (no nested objects under the key). Returns the value token with
/// surrounding whitespace trimmed. This is *not* a JSON parser — it is
/// exactly enough to round-trip the flat records this crate writes.
pub(crate) fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = line[at..].trim_start();
    let end = if let Some(stripped) = rest.strip_prefix('"') {
        // String value: scan to the closing unescaped quote.
        let mut esc = false;
        let mut idx = None;
        for (i, c) in stripped.char_indices() {
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                idx = Some(i + 2); // include both quotes
                break;
            }
        }
        idx?
    } else if let Some(stripped) = rest.strip_prefix('[') {
        stripped.find(']')? + 2
    } else {
        rest.find([',', '}'])?
    };
    Some(rest[..end].trim())
}

/// `json_field` for u64 values.
pub fn json_u64(line: &str, key: &str) -> Option<u64> {
    json_field(line, key)?.parse().ok()
}

/// `json_field` for string values (unescapes the common escapes).
pub fn json_str(line: &str, key: &str) -> Option<String> {
    let raw = json_field(line, key)?;
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                other => out.push(other),
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// `json_field` for bool values.
pub fn json_bool(line: &str, key: &str) -> Option<bool> {
    match json_field(line, key)? {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

/// `json_field` for `[u64, ...]` arrays.
pub fn json_u64_array(line: &str, key: &str) -> Option<Vec<u64>> {
    let raw = json_field(line, key)?;
    let inner = raw.strip_prefix('[')?.strip_suffix(']')?.trim();
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner.split(',').map(|t| t.trim().parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(fingerprint64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint64(b"q6"), fingerprint64(b"q6"));
        assert_ne!(fingerprint64(b"q6"), fingerprint64(b"q9"));
    }

    #[test]
    fn json_escape_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn field_extraction_roundtrips() {
        let line = r#"{"a": 12, "s": "he\"llo", "b": true, "v": [1, 2, 3], "e": [], "last": 9}"#;
        assert_eq!(json_u64(line, "a"), Some(12));
        assert_eq!(json_str(line, "s").as_deref(), Some("he\"llo"));
        assert_eq!(json_bool(line, "b"), Some(true));
        assert_eq!(json_u64_array(line, "v"), Some(vec![1, 2, 3]));
        assert_eq!(json_u64_array(line, "e"), Some(vec![]));
        assert_eq!(json_u64(line, "last"), Some(9));
        assert_eq!(json_u64(line, "missing"), None);
    }
}
