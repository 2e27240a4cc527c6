//! Never-panic properties for the profiler's readers of outside text:
//! `events.jsonl` (`SpanTree::from_jsonl`, `prof::profile_jsonl`) and
//! `flame.folded` (`prof::parse_folded`). Each must return `Ok` or `Err`
//! on any input: arbitrary text, JSON-shaped fragments, and truncations and
//! one-byte flips of a real export, made in process from the recording
//! `all_figures --obs <dir> --obs-clock sim` makes.

use std::sync::OnceLock;

use proptest::prelude::*;
use sustainai::obs::ObsConfig;
use sustainai::par::ParPool;
use sustainai::prof::{self, SpanTree};

/// The `events.jsonl` and `flame.folded` exports of one sim-clocked run of
/// what `all_figures --obs` records: the figure catalogue on one worker,
/// then the fault tables. About 120 000 records, 14 MB.
struct Export {
    events: String,
    /// Byte offset of every line start in `events`.
    line_starts: Vec<usize>,
    folded: String,
    /// The profile of the in-memory records, before any text round trip.
    profile: prof::Profile,
}

fn export() -> &'static Export {
    static EXPORT: OnceLock<Export> = OnceLock::new();
    EXPORT.get_or_init(|| {
        let obs = ObsConfig::enabled().build();
        let pool = ParPool::new(1);
        sustainai::obs::with_task_handle(&obs, || {
            sustain_bench::figs::all_with_pool(&pool);
            sustain_bench::figs::faults::all();
        });
        let events = obs.export_jsonl();
        let tree = SpanTree::from_records(&obs.events());
        let folded = prof::to_folded(&tree);
        let line_starts = std::iter::once(0)
            .chain(events.match_indices('\n').map(|(i, _)| i + 1))
            .filter(|&i| i < events.len())
            .collect();
        Export {
            events,
            line_starts,
            folded,
            profile: prof::Profile::from_tree(&tree),
        }
    })
}

/// `lines` whole lines of the real `events.jsonl`, starting at line `start`
/// (mod the line count): the whole export is too large to re-parse on every
/// case.
fn window(start: usize, lines: usize) -> &'static str {
    let export = export();
    let starts = &export.line_starts;
    let first = start % starts.len();
    let begin = starts[first];
    let end = starts
        .get(first + lines)
        .copied()
        .unwrap_or(export.events.len());
    &export.events[begin..end]
}

/// `text` cut after `cut` bytes (mod its length + 1) and with the byte at
/// `flip.0` (mod its length) XORed by `flip.1`, read back the way a lossy
/// reader of a damaged file would.
fn damage(text: &str, cut: usize, flip: (usize, u16)) -> (String, String) {
    let bytes = text.as_bytes();
    let truncated = String::from_utf8_lossy(&bytes[..cut % (bytes.len() + 1)]).into_owned();
    let mut flipped = bytes.to_vec();
    if let Some(b) = flipped.get_mut(flip.0 % bytes.len().max(1)) {
        *b ^= flip.1 as u8;
    }
    (truncated, String::from_utf8_lossy(&flipped).into_owned())
}

/// JSON-shaped pieces, so arbitrary lines reach past the parser into the
/// span-field checks: huge and non-finite numbers, lone surrogates, and
/// spans that parent themselves or each other.
const FRAGMENTS: [&str; 24] = [
    r#"{"type":"span","#,
    r#"{"type":"event","#,
    r#""id":"#,
    r#""parent":"#,
    r#""name":"#,
    r#""start_s":"#,
    r#""end_s":"#,
    r#""fig07""#,
    r#""\uD800""#,
    "null",
    "0",
    "1",
    "-1",
    "1e999",
    "-1e999",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
    "0.5",
    ",",
    "}",
    "[",
    "]",
    " ",
    "\n",
];

/// Runs every events.jsonl reader on `text`; none may panic, and the
/// profile reader must agree with the tree reader on success.
fn read_events(text: &str) {
    let tree = SpanTree::from_jsonl(text);
    let profile = prof::profile_jsonl(text);
    assert_eq!(tree.is_ok(), profile.is_ok());
    if let Ok(tree) = tree {
        let _ = prof::to_folded(&tree);
    }
}

proptest! {
    #[test]
    fn arbitrary_text_never_panics_a_reader(
        bytes in prop::collection::vec(0u16..256, 0..256),
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..48),
    ) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let text = String::from_utf8_lossy(&raw);
        read_events(&text);
        let _ = prof::parse_folded(&text);
        let shaped: String = picks.iter().map(|&p| FRAGMENTS[p]).collect();
        read_events(&shaped);
        let _ = prof::parse_folded(&shaped);
    }

    #[test]
    fn damaged_events_export_never_panics_a_reader(
        start in 0usize..1_000_000,
        lines in 1usize..65,
        cut in 0usize..1_000_000,
        flip in (0usize..1_000_000, 1u16..256),
    ) {
        let text = window(start, lines);
        prop_assert!(SpanTree::from_jsonl(text).is_ok(), "whole lines of the export decode");
        let (truncated, flipped) = damage(text, cut, flip);
        read_events(&truncated);
        read_events(&flipped);
    }

    #[test]
    fn damaged_folded_export_never_panics_the_parser(
        cut in 0usize..1_000_000,
        flip in (0usize..1_000_000, 1u16..256),
    ) {
        let (truncated, flipped) = damage(&export().folded, cut, flip);
        let _ = prof::parse_folded(&truncated);
        let _ = prof::parse_folded(&flipped);
    }
}

#[test]
fn the_whole_export_decodes_to_the_recorded_profile() {
    let export = export();
    let from_text = prof::profile_jsonl(&export.events).expect("real export decodes");
    assert_eq!(from_text, export.profile);
    assert!(from_text.stats("optim.cache.simulate").is_some());
    let stacks = prof::parse_folded(&export.folded).expect("real folded export parses");
    assert!(!stacks.is_empty());
}

#[test]
fn folded_counts_past_u128_max_neither_panic_nor_wrap() {
    let max = u128::MAX;
    let text = format!("a;b {max}\na;b 1\n");
    assert!(prof::parse_folded(&text).is_err());
    assert!(prof::parse_folded(&format!("a;b {max}\n")).is_ok());
    // Two 1e300-second spans of one stack, each alone past u128::MAX µs.
    let span = |id| {
        format!(
            r#"{{"type":"span","id":{id},"parent":null,"name":"x","start_s":0.0,"end_s":1e300}}"#
        )
    };
    let tree = SpanTree::from_jsonl(&format!("{}\n{}\n", span(1), span(2))).expect("valid spans");
    assert_eq!(prof::to_folded(&tree), format!("x {max}\n"));
}
