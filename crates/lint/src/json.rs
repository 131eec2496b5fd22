//! Minimal JSON writer, same spirit as the bench crate's in-tree
//! serializer: only what the `--json` report needs.

/// Escape `s` as JSON string contents (no surrounding quotes): the
/// workspace's one escaper, from `dbep-obs`.
pub use dbep_obs::json_escape as escape;

/// Render the check report as a single JSON object.
pub fn report(root: &str, files_scanned: usize, findings: &[crate::rules::Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"root\": \"{}\",\n", escape(root)));
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!("  \"count\": {},\n", findings.len()));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            escape(f.rule),
            escape(&f.path),
            f.line,
            escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn report_shape() {
        let findings = vec![Finding {
            rule: "unsafe",
            path: "crates/x/src/lib.rs".to_string(),
            line: 7,
            message: "`unsafe` without a `// SAFETY:` justification".to_string(),
        }];
        let json = report("/repo", 3, &findings);
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"line\": 7"));
        assert!(json.contains("\"files_scanned\": 3"));
    }
}
