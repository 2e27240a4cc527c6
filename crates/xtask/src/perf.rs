//! `cargo xtask perf` — the perf-trajectory regression gate.
//!
//! Compares a freshly measured `BENCH_par.json` (written by the
//! `bench_suite` binary) against the committed baseline, row by row, with
//! noise-aware thresholds. The gate is deliberately conservative in both
//! directions:
//!
//! - A row regresses only when the *best* current sample (`min_ms`) is
//!   slower than the baseline median by more than the noise allowance —
//!   `max(2 × baseline spread, 30% of the median, 1 ms)` — so scheduler
//!   jitter on a loaded CI box does not produce false alarms, while a real
//!   algorithmic regression (the kind that motivated this gate: a fan-out
//!   dominated for four PRs by one O(capacity) eviction scan) still trips
//!   it.
//! - Comparisons are *skipped* (not passed, not failed) when the two
//!   reports are not comparable: different `schema_version`, a different
//!   host fingerprint (available parallelism or OS), or a `--quick`
//!   baseline that carries no per-figure rows.
//!
//! Sub-millisecond rows are ignored: they measure harness overhead, not
//! workload, and their relative noise is unbounded.
//!
//! The JSON reader is hand-rolled like the rest of xtask (this crate
//! builds dependency-free, before the workspace shims).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value — just enough of the grammar for `BENCH_par.json`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts (serde_json's
/// default recursion limit). A deeper document is an error, not a stack
/// overflow.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a byte-offset message on malformed input, trailing garbage, or
/// nesting deeper than 128 arrays/objects.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while bytes
        .get(*pos)
        .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
    {
        *pos += 1;
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", want as char))
    }
}

/// Parses one value inside `depth` open arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while bytes
        .get(*pos)
        .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        out.push(hex);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&b) => {
                // Multi-byte UTF-8 sequences pass through unchanged.
                let len = utf8_len(b);
                let chunk = bytes
                    .get(*pos..*pos + len)
                    .and_then(|c| std::str::from_utf8(c).ok())
                    .ok_or_else(|| format!("bad utf-8 at byte {pos}"))?;
                out.push_str(chunk);
                *pos += len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xf0..=0xf7 => 4,
        0xe0..=0xef => 3,
        0xc0..=0xdf => 2,
        _ => 1,
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect_byte(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect_byte(bytes, pos, b':')?;
        fields.push((key, parse_value(bytes, pos, depth)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect_byte(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

/// One timed measurement from `BENCH_par.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchRow {
    /// Median of the samples, in milliseconds.
    pub median_ms: f64,
    /// Best sample, in milliseconds.
    pub min_ms: f64,
    /// Spread of the samples (max − min), in milliseconds.
    pub spread_ms: f64,
}

/// A parsed bench report: the host fingerprint plus every named row.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Layout version (absent in pre-versioned reports).
    pub schema_version: Option<u64>,
    /// `host.available_parallelism`, when stamped.
    pub parallelism: Option<u64>,
    /// `host.os`, when stamped.
    pub os: Option<String>,
    /// Whether the report came from a `--quick` run (fan-out only).
    pub quick: bool,
    /// Rows by dotted name (`fanout.serial`, `cache.cold`,
    /// `figure.fig07_waterfall.serial`, …), name-ordered.
    pub rows: BTreeMap<String, BenchRow>,
}

/// Parses a `BENCH_par.json` document into named rows.
///
/// # Errors
///
/// Returns a message when the document is not JSON or a stat block is
/// missing its `median_ms`/`min_ms`.
pub fn parse_bench(text: &str) -> Result<BenchReport, String> {
    let doc = parse_json(text)?;
    let mut rows = BTreeMap::new();
    let mut add = |name: String, stat: Option<&Json>| -> Result<(), String> {
        let Some(stat) = stat else { return Ok(()) };
        let field = |key: &str| {
            stat.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("row `{name}`: missing `{key}`"))
        };
        let samples = stat
            .get("samples_ms")
            .and_then(Json::as_arr)
            .map(|items| items.iter().filter_map(Json::as_num).collect::<Vec<f64>>())
            .unwrap_or_default();
        let spread = match (
            samples.iter().copied().reduce(f64::max),
            samples.iter().copied().reduce(f64::min),
        ) {
            (Some(max), Some(min)) => max - min,
            _ => 0.0,
        };
        rows.insert(
            name.clone(),
            BenchRow {
                median_ms: field("median_ms")?,
                min_ms: field("min_ms")?,
                spread_ms: spread,
            },
        );
        Ok(())
    };
    for (section, keys) in [
        ("fanout", &["serial", "parallel"][..]),
        ("cache", &["cold", "warm"][..]),
        ("stream", &["serial", "parallel"][..]),
        ("energy_integrate", &["clean", "faulty"][..]),
        ("des_events", &["hot", "logged"][..]),
    ] {
        for key in keys {
            add(
                format!("{section}.{key}"),
                doc.get(section).and_then(|s| s.get(key)),
            )?;
        }
    }
    for figure in doc
        .get("figures")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        let Some(name) = figure.get("name").and_then(Json::as_str) else {
            continue;
        };
        add(format!("{name}.serial"), figure.get("serial"))?;
        add(format!("{name}.parallel"), figure.get("parallel"))?;
    }
    Ok(BenchReport {
        schema_version: doc
            .get("schema_version")
            .and_then(Json::as_num)
            .map(|v| v as u64),
        parallelism: doc
            .get("host")
            .and_then(|h| h.get("available_parallelism"))
            .and_then(Json::as_num)
            .map(|v| v as u64),
        os: doc
            .get("host")
            .and_then(|h| h.get("os"))
            .and_then(Json::as_str)
            .map(str::to_owned),
        quick: doc.get("quick") == Some(&Json::Bool(true)),
        rows,
    })
}

/// The outcome of one row comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum RowVerdict {
    /// Within the noise allowance (or faster).
    Ok,
    /// Slower than the allowance permits.
    Regressed {
        /// The failing row's allowance, in milliseconds.
        allowed_ms: f64,
    },
    /// Present in the baseline but missing from the current report.
    Unmatched,
    /// Present in the current report but not the baseline — a freshly
    /// added bench row. Informational only: a new row has no history to
    /// regress against, and failing on it would force every bench
    /// addition to land in two commits (row first, baseline second).
    NewRow,
    /// Below the measurement floor in the baseline — too noisy to gate on.
    TooSmall,
}

impl fmt::Display for RowVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowVerdict::Ok => write!(f, "ok"),
            RowVerdict::Regressed { allowed_ms } => {
                write!(f, "REGRESSED (allowed {allowed_ms:.3} ms)")
            }
            RowVerdict::Unmatched => write!(f, "unmatched (missing from current run)"),
            RowVerdict::NewRow => write!(f, "new row (no baseline; informational)"),
            RowVerdict::TooSmall => write!(f, "skipped (sub-ms row)"),
        }
    }
}

/// Why a whole comparison was skipped.
#[derive(Debug, Clone, PartialEq)]
pub enum Skip {
    /// The two reports use different layouts.
    SchemaMismatch {
        /// Baseline version (`None` = pre-versioned).
        baseline: Option<u64>,
        /// Current version.
        current: Option<u64>,
    },
    /// The reports were measured on different hosts.
    HostMismatch {
        /// Baseline fingerprint, rendered.
        baseline: String,
        /// Current fingerprint, rendered.
        current: String,
    },
    /// The baseline is a `--quick` smoke run with no per-figure rows.
    QuickBaseline,
}

impl fmt::Display for Skip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Skip::SchemaMismatch { baseline, current } => write!(
                f,
                "schema_version mismatch (baseline {baseline:?}, current {current:?})"
            ),
            Skip::HostMismatch { baseline, current } => write!(
                f,
                "host fingerprint mismatch (baseline {baseline}, current {current})"
            ),
            Skip::QuickBaseline => write!(f, "baseline is a --quick smoke run"),
        }
    }
}

/// The full comparison: either skipped with a reason, or per-row verdicts.
#[derive(Debug, Clone, PartialEq)]
pub enum PerfCheck {
    /// Not comparable; the gate passes vacuously.
    Skipped(Skip),
    /// Compared; regressions (if any) are in the rows.
    Compared(Vec<(String, RowVerdict)>),
}

impl PerfCheck {
    /// Whether the gate passes (skips pass vacuously).
    pub fn passed(&self) -> bool {
        match self {
            PerfCheck::Skipped(_) => true,
            PerfCheck::Compared(rows) => !rows
                .iter()
                .any(|(_, v)| matches!(v, RowVerdict::Regressed { .. })),
        }
    }
}

/// Rows at or under this baseline median measure harness overhead, not
/// workload; they are reported but never gated on.
const FLOOR_MS: f64 = 1.0;

/// The per-row noise allowance added to the baseline median: twice the
/// baseline's observed sample spread, or 30% of its median, or the
/// measurement floor — whichever is largest.
fn allowance_ms(baseline: &BenchRow) -> f64 {
    (2.0 * baseline.spread_ms)
        .max(baseline.median_ms * 0.3)
        .max(FLOOR_MS)
}

/// Compares `current` against `baseline` row by row.
pub fn compare(baseline: &BenchReport, current: &BenchReport) -> PerfCheck {
    if baseline.schema_version != current.schema_version {
        return PerfCheck::Skipped(Skip::SchemaMismatch {
            baseline: baseline.schema_version,
            current: current.schema_version,
        });
    }
    let fingerprint =
        |r: &BenchReport| format!("{:?}/{:?}", r.parallelism, r.os.as_deref().unwrap_or("?"));
    if baseline.parallelism != current.parallelism || baseline.os != current.os {
        return PerfCheck::Skipped(Skip::HostMismatch {
            baseline: fingerprint(baseline),
            current: fingerprint(current),
        });
    }
    if baseline.quick {
        return PerfCheck::Skipped(Skip::QuickBaseline);
    }
    let mut verdicts = Vec::new();
    for (name, base) in &baseline.rows {
        let verdict = match current.rows.get(name) {
            None => RowVerdict::Unmatched,
            Some(_) if base.median_ms <= FLOOR_MS => RowVerdict::TooSmall,
            Some(cur) => {
                let allowed = base.median_ms + allowance_ms(base);
                // Gate on the *best* current sample: any single clean run
                // proves the code is still fast; all samples slow means a
                // real regression (or a hopelessly loaded box, which the
                // spread term absorbs).
                if cur.min_ms > allowed {
                    RowVerdict::Regressed {
                        allowed_ms: allowed,
                    }
                } else {
                    RowVerdict::Ok
                }
            }
        };
        verdicts.push((name.clone(), verdict));
    }
    for name in current.rows.keys() {
        if !baseline.rows.contains_key(name) {
            verdicts.push((name.clone(), RowVerdict::NewRow));
        }
    }
    PerfCheck::Compared(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(version: Option<u64>, rows: &[(&str, f64, f64, f64)]) -> BenchReport {
        BenchReport {
            schema_version: version,
            parallelism: Some(4),
            os: Some("linux".to_string()),
            quick: false,
            rows: rows
                .iter()
                .map(|&(name, median_ms, min_ms, spread_ms)| {
                    (
                        name.to_string(),
                        BenchRow {
                            median_ms,
                            min_ms,
                            spread_ms,
                        },
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn json_parser_round_trips_bench_shapes() {
        let doc = parse_json(
            "{\"a\": 1.5, \"b\": [1, 2e3], \"c\": {\"d\": \"x\\n\"}, \
             \"e\": null, \"f\": true}",
        )
        .expect("parses");
        assert_eq!(doc.get("a").and_then(Json::as_num), Some(1.5));
        assert_eq!(
            doc.get("b").and_then(Json::as_arr).map(|a| a.len()),
            Some(2)
        );
        assert_eq!(
            doc.get("c").and_then(|c| c.get("d")).and_then(Json::as_str),
            Some("x\n")
        );
        assert_eq!(doc.get("e"), Some(&Json::Null));
        assert_eq!(doc.get("f"), Some(&Json::Bool(true)));
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("{}extra").is_err());
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn json_nesting_is_bounded_instead_of_overflowing_the_stack() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\":".repeat(n) + "1" + &"}".repeat(n);
        assert!(parse_json(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse_json(&objects(MAX_DEPTH)).is_ok());
        assert!(parse_json(&arrays(MAX_DEPTH + 1)).is_err());
        assert!(parse_json(&objects(MAX_DEPTH + 1)).is_err());
        assert!(parse_json(&"[".repeat(200_000)).is_err());
        assert!(parse_json(&"{\"k\":".repeat(200_000)).is_err());
    }

    #[test]
    fn bench_rows_are_extracted_with_spread() {
        let report = parse_bench(
            "{\"schema_version\": 2, \"host\": {\"available_parallelism\": 8, \
             \"os\": \"linux\"}, \"quick\": false, \"fanout\": {\"serial\": \
             {\"median_ms\": 10.0, \"min_ms\": 9.0, \"samples_ms\": [9.0, 10.0, 12.0]}}, \
             \"figures\": [{\"name\": \"figure.f\", \"serial\": \
             {\"median_ms\": 5.0, \"min_ms\": 4.0, \"samples_ms\": [4.0, 5.0]}}]}",
        )
        .expect("parses");
        assert_eq!(report.schema_version, Some(2));
        assert_eq!(report.parallelism, Some(8));
        assert_eq!(report.os.as_deref(), Some("linux"));
        let fanout = report.rows.get("fanout.serial").expect("fanout row");
        assert!((fanout.spread_ms - 3.0).abs() < 1e-12);
        assert!(report.rows.contains_key("figure.f.serial"));
    }

    #[test]
    fn unversioned_seed_reports_still_parse() {
        let report = parse_bench(
            "{\"bench\": \"par_fanout\", \"quick\": false, \"fanout\": {\"serial\": \
             {\"median_ms\": 140.0, \"min_ms\": 133.0, \"samples_ms\": [140.0, 143.0, 133.0]}}}",
        )
        .expect("parses");
        assert_eq!(report.schema_version, None);
        assert_eq!(report.parallelism, None);
    }

    #[test]
    fn schema_mismatch_skips() {
        let base = report(None, &[("fanout.serial", 100.0, 95.0, 5.0)]);
        let cur = report(Some(2), &[("fanout.serial", 100.0, 95.0, 5.0)]);
        let check = compare(&base, &cur);
        assert!(matches!(
            check,
            PerfCheck::Skipped(Skip::SchemaMismatch { .. })
        ));
        assert!(check.passed());
    }

    #[test]
    fn host_mismatch_skips() {
        let base = report(Some(2), &[("fanout.serial", 100.0, 95.0, 5.0)]);
        let mut cur = base.clone();
        cur.parallelism = Some(64);
        assert!(matches!(
            compare(&base, &cur),
            PerfCheck::Skipped(Skip::HostMismatch { .. })
        ));
    }

    #[test]
    fn quick_baseline_skips() {
        let mut base = report(Some(2), &[("fanout.serial", 100.0, 95.0, 5.0)]);
        base.quick = true;
        let cur = report(Some(2), &[("fanout.serial", 100.0, 95.0, 5.0)]);
        assert!(matches!(
            compare(&base, &cur),
            PerfCheck::Skipped(Skip::QuickBaseline)
        ));
    }

    #[test]
    fn within_noise_passes_and_regression_fails() {
        let base = report(Some(2), &[("fanout.serial", 100.0, 95.0, 5.0)]);
        // Allowance: max(2*5, 0.3*100, 1) = 30 -> threshold 130.
        let fine = report(Some(2), &[("fanout.serial", 129.0, 125.0, 4.0)]);
        assert!(compare(&base, &fine).passed());
        let slow = report(Some(2), &[("fanout.serial", 140.0, 131.0, 4.0)]);
        let check = compare(&base, &slow);
        assert!(!check.passed());
        let PerfCheck::Compared(rows) = check else {
            panic!("expected comparison");
        };
        assert!(matches!(rows[0].1, RowVerdict::Regressed { .. }));
    }

    #[test]
    fn one_fast_sample_is_enough() {
        let base = report(Some(2), &[("fanout.serial", 100.0, 95.0, 5.0)]);
        // Median is awful (loaded box) but the best sample is clean.
        let noisy = report(Some(2), &[("fanout.serial", 400.0, 101.0, 300.0)]);
        assert!(compare(&base, &noisy).passed());
    }

    #[test]
    fn sub_millisecond_rows_never_gate() {
        let base = report(Some(2), &[("figure.tiny.serial", 0.005, 0.004, 0.01)]);
        let cur = report(Some(2), &[("figure.tiny.serial", 0.9, 0.8, 0.1)]);
        let PerfCheck::Compared(rows) = compare(&base, &cur) else {
            panic!("expected comparison");
        };
        assert_eq!(rows[0].1, RowVerdict::TooSmall);
        assert!(compare(&base, &cur).passed());
    }

    #[test]
    fn unmatched_rows_are_reported_not_failed() {
        let base = report(Some(2), &[("fanout.serial", 100.0, 95.0, 5.0)]);
        let cur = report(Some(2), &[("cache.cold", 50.0, 48.0, 2.0)]);
        let check = compare(&base, &cur);
        assert!(check.passed());
        let PerfCheck::Compared(rows) = check else {
            panic!("expected comparison");
        };
        assert_eq!(rows.len(), 2);
        // Baseline-only row: unmatched. Current-only row: a new bench row,
        // reported as informational rather than lumped in with unmatched.
        assert_eq!(
            rows.iter()
                .find(|(n, _)| n == "fanout.serial")
                .map(|r| &r.1),
            Some(&RowVerdict::Unmatched)
        );
        assert_eq!(
            rows.iter().find(|(n, _)| n == "cache.cold").map(|r| &r.1),
            Some(&RowVerdict::NewRow)
        );
    }

    #[test]
    fn new_bench_rows_are_informational() {
        let base = report(Some(2), &[("fanout.serial", 100.0, 95.0, 5.0)]);
        let cur = report(
            Some(2),
            &[
                ("fanout.serial", 100.0, 95.0, 5.0),
                ("energy_integrate.clean", 4.0, 3.8, 0.3),
            ],
        );
        let check = compare(&base, &cur);
        assert!(check.passed(), "a new row must never fail the gate");
        let PerfCheck::Compared(rows) = check else {
            panic!("expected comparison");
        };
        assert_eq!(
            rows.iter()
                .find(|(n, _)| n == "energy_integrate.clean")
                .map(|r| &r.1),
            Some(&RowVerdict::NewRow)
        );
    }

    #[test]
    fn energy_integrate_rows_parse() {
        let report = parse_bench(
            "{\"schema_version\": 2, \"host\": {\"available_parallelism\": 8, \
             \"os\": \"linux\"}, \"quick\": false, \"energy_integrate\": {\
             \"samples\": 1000000, \"clean\": {\"median_ms\": 4.0, \"min_ms\": 3.8}, \
             \"faulty\": {\"median_ms\": 5.0, \"min_ms\": 4.7}}}",
        )
        .expect("parses");
        assert!(report.rows.contains_key("energy_integrate.clean"));
        assert!(report.rows.contains_key("energy_integrate.faulty"));
    }

    #[test]
    fn des_event_rows_parse() {
        let report = parse_bench(
            "{\"schema_version\": 2, \"host\": {\"available_parallelism\": 8, \
             \"os\": \"linux\"}, \"quick\": false, \"des_events\": {\
             \"events\": 1000000, \"tokens\": 1024, \
             \"hot\": {\"median_ms\": 60.0, \"min_ms\": 58.0}, \
             \"logged\": {\"median_ms\": 75.0, \"min_ms\": 72.0}}}",
        )
        .expect("parses");
        assert!(report.rows.contains_key("des_events.hot"));
        assert!(report.rows.contains_key("des_events.logged"));
    }
}
