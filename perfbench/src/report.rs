//! What one run reports: named metrics with units, the tally of output
//! checks, the facts about the host it ran on, and their JSON rendering.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` declares it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `MB`, `count`, `ratio`).
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Output checks made during a run: how many were made, how many failed,
/// and what the first failure was.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Checked operations.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// Description of the first failed check.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Records one check; `what` describes it should it fail.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }

    /// Failed checks over checked operations (0 when nothing was checked).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Facts about the host and build, recorded with every result so results
/// from different hosts or builds are never compared.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// Worker threads the benchmark runs the program on.
    pub threads: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Operating system.
    pub os: &'static str,
    /// CPU architecture.
    pub arch: &'static str,
}

impl Host {
    /// The running host, with the benchmark using at most two threads.
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host {
            nproc,
            threads: nproc.min(crate::MAX_THREADS),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            os: std::env::consts::OS,
            arch: std::env::consts::ARCH,
        }
    }
}

/// Peak resident set size of this process so far in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let unavailable = || "peak RSS is not available on this platform".to_string();
    let status = std::fs::read_to_string("/proc/self/status").map_err(|_| unavailable())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(unavailable)?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|kb| kb.parse().ok())
        .ok_or_else(unavailable)?;
    Ok(kb / 1024.0)
}

/// Renders the result line the benchmark contract asks for: exactly
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics_object(metrics)
    )
}

/// `{"name": {"value": v, "unit": u}, ...}` in the given order.
pub fn metrics_object(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (never produced by a correct run) become
/// `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// A JSON string literal (the benchmark's own strings never need more than
/// quote and backslash escaping, but control characters are escaped too).
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_raises_the_error_rate() {
        let mut tally = Tally::default();
        tally.check(true, || "fine".into());
        assert_eq!(tally.error_rate(), 0.0);
        tally.check(false, || "first".into());
        tally.check(false, || "second".into());
        tally.check(true, || "fine".into());
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert_eq!(tally.error_rate(), 0.5);
        assert_eq!(tally.first_failure.as_deref(), Some("first"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut tally = Tally::default();
        tally.check(true, String::new);
        let line = result_line(&tally, &[Metric::new("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(number(1.2034567891234), "1.2034567891234");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
