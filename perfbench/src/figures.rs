//! `figures`: repeated uncached fan-outs of all 26 figure tables through
//! `figs::all_with_pool`, each checked byte-for-byte against
//! `figures_output.txt`.
//!
//! The tables are pinned by the workspace `SEED` constant, so this workload
//! ignores `--seed` (and says so in its record). One operation is one
//! fan-out; one unit of work is one table.

use std::sync::OnceLock;
use std::time::Instant;

use sustain_bench::figs::{self, NamedFigure};
use sustain_bench::table::Table;
use sustain_par::ParPool;

use crate::report::Tally;
use crate::trace::Passes;
use crate::{repeat_for, set_up, stats, Config, EndToEnd, Traced};

/// Fan-outs in the traced run's fixed input.
const TRACED_FANOUTS: usize = 8;

/// Generators broken out by name in the per-layer metrics: fig07 is the
/// fan-out's critical path; fig10 and fig11 carry `fleet::utilization` and
/// `edge`.
const NAMED: [(&str, &str); 3] = [
    ("fig07_waterfall", "figs.fig07_waterfall.busy_ms"),
    ("fig10_histogram", "figs.fig10_histogram.busy_ms"),
    ("fig11_federated", "figs.fig11_federated.busy_ms"),
];

/// Every table `all_figures` prints, in its order.
pub fn catalogue() -> Vec<NamedFigure> {
    figs::FIGURES
        .iter()
        .chain(figs::extras::TABLES)
        .chain(figs::extensions::TABLES)
        .copied()
        .collect()
}

/// `figures_output.txt` at the root of the checkout.
pub fn golden() -> Result<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../figures_output.txt");
    std::fs::read_to_string(path).map_err(|e| format!("cannot read figures_output.txt: {e}"))
}

/// The text `all_figures` prints for `tables`.
pub fn render(tables: &[Table]) -> String {
    tables.iter().map(|t| format!("{t}\n")).collect()
}

/// Checks one fan-out's text against the golden file.
pub fn check_fanout(tally: &mut Tally, tables: &[Table], golden: &str) {
    let text = render(tables);
    tally.check(text == golden, || {
        let line = text
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map_or_else(|| "length".to_string(), |l| format!("line {}", l + 1));
        format!("fan-out output differs from figures_output.txt at {line}")
    });
}

/// The untraced run: fan-outs on a pool of `cfg.threads` workers until
/// `cfg.seconds` have passed.
pub fn end_to_end(cfg: &Config) -> Result<EndToEnd, String> {
    let mut run = EndToEnd {
        latency_percentile: 1.0,
        names: [
            "tables_per_s",
            "fanout_p1_ms",
            "fanout_p50_ms",
            "fanout_tail_ms",
        ],
        ..EndToEnd::default()
    };
    // Set-up: load the golden text, build the pool, and run one checked
    // warm-up fan-out.
    let tally = &mut run.tally;
    let ((golden, pool), setup_s) = set_up(|_| {
        let golden = golden()?;
        let pool = ParPool::new(cfg.threads);
        check_fanout(tally, &figs::all_with_pool(&pool), &golden);
        Ok((golden, pool))
    })?;
    run.setup_s = setup_s;

    let tally = &mut run.tally;
    let (ops, latencies) = (&mut run.ops, &mut run.latencies_ms);
    repeat_for(cfg.seconds, |_| {
        let start = Instant::now();
        let tables = figs::all_with_pool(&pool);
        let secs = start.elapsed().as_secs_f64();
        ops.push((tables.len() as f64, secs));
        latencies.push(secs * 1e3);
        check_fanout(tally, &tables, &golden);
    });
    run.notes.push((
        "seed_use",
        "ignored: tables are pinned by sustain_bench::SEED".into(),
    ));
    run.notes.push(("tables", catalogue().len().to_string()));
    Ok(run)
}

/// Span names `bench.figs.<figure>`, one per catalogue entry.
fn span_names() -> &'static [&'static str] {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    NAMES.get_or_init(|| {
        catalogue()
            .iter()
            .map(|(name, _)| {
                let short = name.trim_start_matches("figure.");
                &*Box::leak(format!("bench.figs.{short}").into_boxed_str())
            })
            .collect()
    })
}

/// The traced run: a fixed number of fan-outs in which the benchmark calls
/// every `figs::*::generate` itself, inside a `bench.figs.<figure>` span,
/// on the same pool `all_with_pool` uses.
pub fn traced(cfg: &Config) -> Result<Traced, String> {
    let golden = golden()?;
    let mut tally = Tally::default();
    let names = span_names();
    let passes = Passes::run(cfg.threads, &mut tally, |threads| {
        let pool = ParPool::new(threads);
        (0..TRACED_FANOUTS)
            .map(|_| {
                pool.map_indexed(catalogue(), |i, (_, generate)| {
                    let _span = sustain_obs::handle().span(names[i]);
                    generate()
                })
            })
            .collect::<Vec<_>>()
    });
    for tables in &passes.output {
        check_fanout(&mut tally, tables, &golden);
    }
    let layers = passes.layers(&mut tally);

    // Each fan-out's generator spans are adopted in submission order, so
    // the recording holds one block of `catalogue().len()` per fan-out.
    let spans = layers.spans_with_prefix("bench.figs.");
    let per_fanout = names.len();
    tally.check(spans.len() == per_fanout * TRACED_FANOUTS, || {
        format!(
            "expected {} generator spans, found {}",
            per_fanout * TRACED_FANOUTS,
            spans.len()
        )
    });
    let mut named = [Vec::new(), Vec::new(), Vec::new()];
    let (mut rest, mut critical) = (Vec::new(), Vec::new());
    for block in spans.chunks(per_fanout) {
        let mut rest_ms = 0.0;
        let mut longest: f64 = 0.0;
        for &(name, ms) in block {
            longest = longest.max(ms);
            match NAMED.iter().position(|(fig, _)| name.ends_with(fig)) {
                Some(k) => named[k].push(ms),
                None => rest_ms += ms,
            }
        }
        rest.push(rest_ms);
        critical.push(longest);
    }
    let median = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let mut metrics = passes.common_metrics(&layers, TRACED_FANOUTS as f64);
    metrics.push(("figs.rest.busy_ms", median(&rest)));
    metrics.push(("figs.critical_path_ms", median(&critical)));
    for ((_, metric), values) in NAMED.iter().zip(&named) {
        metrics.push((metric, median(values)));
    }
    Ok(Traced {
        metrics,
        tally,
        notes: vec![
            (
                "seed_use",
                "ignored: tables are pinned by sustain_bench::SEED".into(),
            ),
            ("fanouts", TRACED_FANOUTS.to_string()),
            ("per", "ms metrics are per fan-out".into()),
            (
                "zero_because",
                "no fleet replica or stream pipeline runs in this workload".into(),
            ),
        ],
    })
}
