//! Property tests for the checkpoint store's wire format: any
//! checkpoint value that the emitter can produce must parse back
//! **equal** (floats travel as exact `u64` bit patterns, so
//! equality is bit equality), any manifest must read back through the
//! store's JSON reader field for field, and any persisted makespan whose bits
//! decode to NaN/Inf must be *rejected* at parse time — the store's
//! NaN/Inf-free invariant. Chunk bounds are exempt (`chunk_min` is
//! legitimately `+∞` on decision-free runs) and the strategies leave
//! them fully arbitrary to prove it.
//!
//! Strategies are built from the offline proptest stub's primitives
//! (ranges, tuples, `prop_map`, `collection::vec`); enum variants are
//! picked by a generated selector index.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ckpt_exp::checkpoint::{
    checkpoint_json, manifest_json, parse_checkpoint, ItemPayload, RefineColumn, StudyManifest,
    TraceStatsBits, STORE_VERSION,
};
use ckpt_exp::jsonio::{self, escape_str, Json};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Exponent field of an IEEE-754 double (all-ones ⇒ Inf/NaN).
const EXP_MASK: u64 = 0x7FF << 52;

/// Characters the JSON escaper and unescaper must agree on: quotes,
/// backslashes, control characters (escaped as `\u00XX`), multi-byte
/// code points, and an astral-plane scalar (a surrogate *pair* under
/// `\u` escaping).
const PALETTE: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{0}', '\u{1}', '\u{7f}',
    'é', 'Δ', '€', '🦀',
];

fn any_string() -> impl Strategy<Value = String> {
    vec(0..PALETTE.len(), 0..12).prop_map(|ix| ix.into_iter().map(|i| PALETTE[i]).collect())
}

fn any_bool() -> impl Strategy<Value = bool> {
    (0..2u32).prop_map(|b| b == 1)
}

fn any_u64() -> impl Strategy<Value = u64> {
    0..u64::MAX
}

/// Arbitrary bit patterns nudged to decode finite: flipping bit 62
/// turns an all-ones exponent into `0b011…`, so the map is total and
/// never discards cases.
fn finite_bits() -> impl Strategy<Value = u64> {
    any_u64().prop_map(|b| if f64::from_bits(b).is_finite() { b } else { b ^ (1 << 62) })
}

/// Stats with a finite makespan but *fully arbitrary* chunk bounds —
/// NaN/Inf chunk bits must round-trip, not be rejected.
fn stats_bits() -> impl Strategy<Value = TraceStatsBits> {
    (finite_bits(), any_u64(), any_u64(), any_u64(), any_u64()).prop_map(
        |(makespan, failures, decisions, chunk_min, chunk_max)| TraceStatsBits {
            makespan,
            failures,
            decisions,
            chunk_min,
            chunk_max,
        },
    )
}

fn refine_column() -> impl Strategy<Value = RefineColumn> {
    (0..600usize, vec(stats_bits(), 0..3))
        .prop_map(|(candidate, stats)| RefineColumn { candidate, stats })
}

/// Every payload variant (selector-indexed); the ingredient pools are
/// generated unconditionally and the unused ones discarded.
fn payload() -> impl Strategy<Value = ItemPayload> {
    (
        0..4usize,
        (any_bool(), any_string(), vec(stats_bits(), 0..4)),
        vec(finite_bits(), 0..4),
        vec(refine_column(), 0..3),
    )
        .prop_map(|(variant, (built, reason, stats), makespans, columns)| match variant {
            0 => ItemPayload::Policy { built, reason, stats },
            1 => ItemPayload::LowerBound { makespans },
            2 => ItemPayload::Coarse { stats },
            _ => ItemPayload::Refine { columns },
        })
}

fn completed_map() -> impl Strategy<Value = BTreeMap<u64, ItemPayload>> {
    vec((any_u64(), payload()), 0..8).prop_map(|kv| kv.into_iter().collect())
}

/// One identity row in the shape the manifest writes them: a JSON
/// object of an escaped string and a number.
fn cell_row(label: &str, procs: u64) -> String {
    format!("{{\"label\": \"{}\", \"procs\": {procs}}}", escape_str(label))
}

fn study_manifest() -> impl Strategy<Value = StudyManifest> {
    (
        (any_u64(), any_string(), any_string(), 0..64usize, 1..64usize, any_string()),
        vec((any_string(), any_u64()), 0..4),
        any_u64(),
    )
        .prop_map(
            |((version, study, fingerprint, lanes, trace_block, golden_hash), rows, items)| {
                StudyManifest {
                    version,
                    study,
                    fingerprint,
                    lanes,
                    trace_block,
                    golden_hash,
                    cells: rows.iter().map(|(label, procs)| cell_row(label, *procs)).collect(),
                    items,
                }
            },
        )
}

/// Rebuild a manifest from its parsed document (rows re-rendered from
/// their parsed fields).
fn read_manifest(doc: &Json) -> Option<StudyManifest> {
    let u = |key: &str| doc.get(key).and_then(Json::as_u64);
    let s = |key: &str| doc.get(key).and_then(Json::as_str).map(str::to_string);
    let cells = doc
        .get("cells")?
        .as_arr()?
        .iter()
        .map(|row| Some(cell_row(row.get("label")?.as_str()?, row.get("procs")?.as_u64()?)))
        .collect::<Option<Vec<String>>>()?;
    Some(StudyManifest {
        version: u("version")?,
        study: s("study")?,
        fingerprint: s("fingerprint")?,
        lanes: usize::try_from(u("lanes")?).ok()?,
        trace_block: usize::try_from(u("trace_block")?).ok()?,
        golden_hash: s("golden_hash")?,
        cells,
        items: u("items")?,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn manifest_round_trips_byte_exact(m in study_manifest()) {
        // Resume reads `fingerprint` and `study ls` reads `items` back
        // from this rendering, whatever the strings hold.
        let src = manifest_json(&m);
        let doc = jsonio::parse(&src).expect("emitted manifest must parse");
        let parsed = read_manifest(&doc).expect("every manifest field reads back");
        prop_assert_eq!(manifest_json(&parsed), src);
        prop_assert_eq!(parsed, m);
    }

    #[test]
    fn manifest_emission_is_a_pure_function(m in study_manifest()) {
        // The fingerprint hashes this serialisation, so it must be
        // deterministic down to the byte.
        prop_assert_eq!(manifest_json(&m), manifest_json(&m.clone()));
    }

    #[test]
    fn checkpoint_round_trips_byte_exact(
        study in any_string(),
        fingerprint in any_string(),
        seq in any_u64(),
        completed in completed_map(),
    ) {
        let src = checkpoint_json(&study, &fingerprint, seq, &completed);
        let parsed = parse_checkpoint(&src).expect("emitted checkpoint must parse");
        prop_assert_eq!(parsed.version, STORE_VERSION);
        prop_assert_eq!(parsed.study, study);
        prop_assert_eq!(parsed.fingerprint, fingerprint);
        prop_assert_eq!(parsed.seq, seq);
        prop_assert_eq!(parsed.completed, completed);
    }

    #[test]
    fn non_finite_lower_bound_makespans_are_rejected(
        id in any_u64(),
        bits in any_u64(),
        completed in completed_map(),
    ) {
        let mut completed = completed;
        let non_finite = bits | EXP_MASK;
        completed.insert(id, ItemPayload::LowerBound { makespans: vec![non_finite] });
        let src = checkpoint_json("s", "fp", 0, &completed);
        let err = parse_checkpoint(&src)
            .expect_err("a NaN/Inf makespan must not load");
        prop_assert!(err.to_string().contains("non-finite"), "{}", err);
    }

    #[test]
    fn non_finite_stats_makespans_are_rejected(
        id in any_u64(),
        bits in any_u64(),
        stats in stats_bits(),
        completed in completed_map(),
    ) {
        let mut stats = stats;
        let mut completed = completed;
        stats.makespan = bits | EXP_MASK;
        completed.insert(id, ItemPayload::Coarse { stats: vec![stats] });
        let src = checkpoint_json("s", "fp", 0, &completed);
        let err = parse_checkpoint(&src)
            .expect_err("a NaN/Inf makespan must not load");
        prop_assert!(err.to_string().contains("non-finite"), "{}", err);
    }
}
