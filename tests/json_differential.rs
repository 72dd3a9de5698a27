//! Differential check of the one-pass JSON codec against
//! `serde::reference`, the two-pass codec through a `Value` tree, over
//! the workspace types with JSON codecs: `Trial`, `Profile`,
//! `Metadata`, `ChunkBatch`, `Repository` and `openuh::ir::Program`,
//! which are persisted or sent over the wire, and `rules::Fact`, which
//! nothing persists or sends but whose hand-written codec (the type
//! name plus a field-name-ordered object, whatever the fact's slot
//! order) must still agree on both paths.
//!
//! For every generated value the two paths must write byte-identical
//! compact and pretty text. For that text, and for truncated,
//! byte-mutated and key-spliced variants of it, they must agree on
//! whether decoding fails and, when it does not, on the decoded value
//! (floats compared by bits, so `-0.0` differs from `0.0`) and on its
//! re-encoding.

use openuh::ir::{Program, RegionAttrs, RegionKind};
use perfdmf::{
    ChunkBatch, ColumnDelta, Measurement, MetaValue, Metadata, Profile, Repository, Trial,
    TrialBuilder,
};
use proptest::prelude::*;
use rand::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::fmt::Debug;

/// Floats that stress the codecs: ordinary fractions, integral values,
/// signed zero, subnormals, extremes, and non-finite values (written as
/// `null`, read back as NaN).
fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..1e3,
        -1e6f64..1e6,
        (0u32..5000).prop_map(|i| i as f64),
        prop::sample::select(vec![
            0.0,
            -0.0,
            0.1,
            1e22,
            1e23,
            9007199254740993.0,
            5e-324,
            -1e-300,
            1e300,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
        ]),
    ]
}

/// Names with characters that need escaping or are multi-byte.
fn name() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(vec![
            "main",
            " => ",
            "loop",
            "\"q\"",
            "back\\slash",
            "tab\t",
            "nl\n",
            "\u{1}",
            "é",
            "😀",
            "/",
            "x",
        ]),
        1..4,
    )
    .prop_map(|parts| parts.concat())
}

fn measurement() -> impl Strategy<Value = Measurement> {
    (float(), float(), float(), float()).prop_map(|(inclusive, exclusive, calls, subcalls)| {
        Measurement {
            inclusive,
            exclusive,
            calls,
            subcalls,
        }
    })
}

fn metadata() -> impl Strategy<Value = Metadata> {
    let value = prop_oneof![
        name().prop_map(MetaValue::Str),
        float().prop_map(MetaValue::Num),
        prop::sample::select(vec![true, false]).prop_map(MetaValue::Bool),
    ];
    prop::collection::vec((name(), value), 0..4).prop_map(|pairs| {
        let mut meta = Metadata::new();
        for (k, v) in pairs {
            meta.set(&k, v);
        }
        meta
    })
}

fn trial() -> impl Strategy<Value = Trial> {
    (1usize..3, 1usize..4, 1usize..4, name(), metadata()).prop_flat_map(
        |(nm, ne, nt, trial_name, meta)| {
            prop::collection::vec(measurement(), nm * ne * nt).prop_map(move |cells| {
                let mut b = TrialBuilder::with_flat_threads(trial_name.clone(), nt);
                let metrics: Vec<_> = (0..nm).map(|m| b.metric(&format!("M{m}"))).collect();
                let events: Vec<_> = (0..ne).map(|e| b.event(&format!("main => e{e}"))).collect();
                let mut cell = cells.iter();
                for &e in &events {
                    for &m in &metrics {
                        for t in 0..nt {
                            b.set(e, m, t, *cell.next().expect("one cell per slot"));
                        }
                    }
                }
                let mut trial = b.build();
                trial.metadata = meta.clone();
                trial
            })
        },
    )
}

fn chunk() -> impl Strategy<Value = ChunkBatch> {
    let delta = (
        name(),
        name(),
        prop_oneof![Just(None), name().prop_map(Some)],
        prop::collection::vec((0u32..64, measurement()), 0..4),
    )
        .prop_map(|(metric, event, event_kind, cells)| ColumnDelta {
            metric,
            event,
            event_kind,
            cells,
        });
    (
        prop_oneof![0u64..100, Just(u64::MAX), Just(i64::MAX as u64 + 1)],
        0u32..64,
        prop::collection::vec(delta, 0..3),
    )
        .prop_map(|(seq, threads, deltas)| ChunkBatch {
            seq,
            threads,
            deltas,
        })
}

fn repository() -> impl Strategy<Value = Repository> {
    prop::collection::vec((name(), name(), trial()), 0..3).prop_map(|trials| {
        let mut repo = Repository::new();
        for (app, exp, trial) in trials {
            repo.upsert_trial(&app, &exp, trial);
        }
        repo
    })
}

fn fact() -> impl Strategy<Value = rules::Fact> {
    let value = prop_oneof![
        name().prop_map(rules::Value::Str),
        float().prop_map(rules::Value::Num),
        prop::sample::select(vec![true, false]).prop_map(rules::Value::Bool),
    ];
    (name(), prop::collection::vec((name(), value), 0..4)).prop_map(|(ty, fields)| {
        fields
            .into_iter()
            .fold(rules::Fact::new(ty), |f, (k, v)| f.with(&k, v))
    })
}

fn attrs() -> impl Strategy<Value = RegionAttrs> {
    (0u32..100, float(), float()).prop_map(|(basic_blocks, instructions, ilp)| RegionAttrs {
        basic_blocks,
        instructions,
        ilp,
        ..RegionAttrs::default()
    })
}

fn program() -> impl Strategy<Value = Program> {
    let kind = prop::sample::select(vec![
        RegionKind::Loop,
        RegionKind::Branch,
        RegionKind::Callsite,
    ]);
    (
        name(),
        attrs(),
        prop::collection::vec((name(), kind, attrs()), 0..4),
    )
        .prop_map(|(root, root_attrs, children)| {
            let mut p = Program::new();
            let id = p.add_procedure(&root, root_attrs);
            for (child, kind, attrs) in children {
                p.add_child(id, &child, kind, attrs);
            }
            p
        })
}

/// Whether two value trees are equal with floats compared by bits.
fn same_tree(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Array(x), Value::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same_tree(p, q))
        }
        (Value::Object(x), Value::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kx, vx), (ky, vy))| kx == ky && same_tree(vx, vy))
        }
        _ => a == b,
    }
}

/// Both paths decode `text` to the same value, or both fail. Values
/// are compared as bit-exact trees (where every non-finite float is
/// `null`), by `==` unless either holds a NaN, and by their
/// re-encodings.
fn assert_agree<T: Serialize + Deserialize + PartialEq + Debug>(text: &str) {
    let one_pass = serde_json::from_str::<T>(text);
    let reference = serde::reference::from_str::<T>(text);
    let ty = std::any::type_name::<T>();
    match (one_pass, reference) {
        (Ok(a), Ok(b)) => {
            // A value unequal to itself holds a NaN.
            #[allow(clippy::eq_op)]
            let has_nan = a != a || b != b;
            assert!(
                same_tree(&a.to_value(), &b.to_value()) && (has_nan || a == b),
                "{ty} decodes differ on {text:?}:\n{a:?}\n{b:?}"
            );
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde::reference::to_string(&b)
            );
        }
        (Err(_), Err(_)) => {}
        (a, b) => panic!(
            "{ty}: one-pass {:?} but reference {:?} on {text:?}",
            a.map(|_| "Ok"),
            b.map(|_| "Ok")
        ),
    }
}

/// JSON-significant bytes (plus a few others) to mutate with.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ',', ':', '0', '1', '9', '-', '+', '.', 'e', 'E', 'n', 't', 'f', 'u',
    '\\', ' ', 'a', 'é',
];

/// Truncations, one-character substitutions, deletions and insertions
/// of `text`, plus an unknown key and a duplicate of the first key
/// spliced into its first object.
fn variants(text: &str, rng: &mut StdRng) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let pos = |rng: &mut StdRng| rng.random_range(0..chars.len());
    for _ in 0..12 {
        let cut = pos(rng);
        out.push(chars[..cut].iter().collect());
        let at = pos(rng);
        let c = ALPHABET[rng.random_range(0..ALPHABET.len())];
        let mut swapped = chars.clone();
        swapped[at] = c;
        out.push(swapped.iter().collect());
        let mut deleted = chars.clone();
        deleted.remove(pos(rng));
        out.push(deleted.iter().collect());
        let mut inserted = chars.clone();
        inserted.insert(pos(rng), c);
        out.push(inserted.iter().collect());
    }
    if let Some(open) = text.find('{') {
        let (head, tail) = text.split_at(open + 1);
        out.push(format!(
            "{head}\"zz\":[1,{{\"a\":null}},\"\\u00e9\"],{tail}"
        ));
        // The first key again, ahead of the original: the first
        // occurrence wins and the original must still be valid.
        if let Some(colon) = tail.find(':') {
            let key = &tail[..colon];
            for v in ["null", "0", "2.0", "[]", "{}", "\"s\""] {
                out.push(format!("{head}{key}:{v},{tail}"));
            }
        }
    }
    out
}

fn check<T: Serialize + Deserialize + PartialEq + Debug>(value: &T, seed: u64) {
    let compact = serde_json::to_string(value).unwrap();
    let pretty = serde_json::to_string_pretty(value).unwrap();
    assert_eq!(compact, serde::reference::to_string(value), "compact text");
    assert_eq!(
        pretty,
        serde::reference::to_string_pretty(value),
        "pretty text"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for text in [&compact, &pretty] {
        assert!(
            serde_json::from_str::<T>(text).is_ok(),
            "own output must decode: {text}"
        );
        assert_agree::<T>(text);
        for variant in variants(text, &mut rng) {
            assert_agree::<T>(&variant);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn trial_paths_agree(t in trial(), seed in 0u64..1 << 32) {
        check(&t, seed);
        check(&t.profile, seed);
        check::<Profile>(&t.profile, seed ^ 1);
        check(&t.metadata, seed);
    }

    #[test]
    fn chunk_paths_agree(c in chunk(), seed in 0u64..1 << 32) {
        check(&c, seed);
    }

    #[test]
    fn repository_paths_agree(r in repository(), seed in 0u64..1 << 32) {
        check(&r, seed);
    }

    #[test]
    fn fact_paths_agree(f in fact(), seed in 0u64..1 << 32) {
        check(&f, seed);
    }

    #[test]
    fn program_paths_agree(p in program(), seed in 0u64..1 << 32) {
        check(&p, seed);
    }
}

/// The fixture repository written by an older build decodes and
/// re-encodes identically on both paths.
#[test]
fn v1_fixture_paths_agree() {
    let text = include_str!("../crates/perfdmf/tests/fixtures/v1_repo.json");
    let repo: Repository = serde_json::from_str(text).unwrap();
    check(&repo, 7);
    assert_agree::<Repository>(text);
}
