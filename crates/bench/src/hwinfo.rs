//! Host hardware inventory (the Table 4 report).
//!
//! The paper tabulates three platforms (Skylake-X, Threadripper, Knights
//! Landing). We run on whatever host executes the harness and print the
//! same attribute rows for it (DESIGN.md substitution 3).

use std::fs;

fn read(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

fn cpuinfo_field(field: &str) -> Option<String> {
    let text = fs::read_to_string("/proc/cpuinfo").ok()?;
    text.lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
}

fn meminfo_gib(field: &str) -> Option<f64> {
    let text = fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0 / 1024.0)
}

/// `(level, size)` of data/unified cache `index` of cpu0.
fn cache(index: usize) -> Option<(String, String)> {
    let base = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
    let level = read(&format!("{base}/level"))?;
    let typ = read(&format!("{base}/type"))?;
    let size = read(&format!("{base}/size"))?;
    if typ == "Instruction" {
        return None;
    }
    Some((level, size))
}

/// Host description as ordered `(attribute, value)` rows — the host
/// fingerprint recorded beside a measurement.
pub fn fields() -> Vec<(String, String)> {
    let mut rows: Vec<(String, String)> = Vec::new();
    let mut push = |k: &str, v: String| rows.push((k.to_string(), v));
    push(
        "model",
        cpuinfo_field("model name").unwrap_or_else(|| "unknown".into()),
    );
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    push("logical cores", cores.to_string());
    if let Some(mhz) = cpuinfo_field("cpu MHz") {
        push("clock", format!("{mhz} MHz (current)"));
    }
    push(
        "tsc rate",
        format!("{:.2} GHz", dbep_runtime::counters::tsc_per_ns()),
    );
    for i in 0..4 {
        if let Some((level, size)) = cache(i) {
            push(&format!("L{level} cache"), size);
        }
    }
    if let Some(gib) = meminfo_gib("MemTotal") {
        push("memory", format!("{gib:.1} GiB"));
    }
    push("simd", dbep_runtime::simd::describe());
    rows
}

/// Multi-line host description in the spirit of the paper's Table 4.
pub fn report() -> String {
    let lines: Vec<String> = fields().iter().map(|(k, v)| format!("{k}: {v}")).collect();
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_has_core_fields() {
        let r = super::report();
        assert!(r.contains("logical cores:"));
        assert!(r.contains("simd:"));
    }
}
