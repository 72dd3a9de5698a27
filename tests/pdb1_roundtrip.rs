//! PDB1 end-to-end guarantees: JSON ↔ PDB1 round-trip equivalence
//! (proptest-pinned), byte-stable re-encode, mapped-store
//! materialization, and golden corrupt-file fixtures — one per binary
//! fault kind — each degrading to a partial report instead of a panic.

use faultsim::{Fault, FaultPlan};
use perfdmf::{
    pdb1, sanitize_trial, Format, MappedRepository, Measurement, MetaValue, Repository, Trial,
    TrialBuilder,
};
use proptest::prelude::*;

/// A deterministic trial of the given shape; every cell value is
/// distinct so layout mistakes (swapped axes, off-by-one strides) can't
/// cancel out.
fn shaped_trial(name: &str, nm: usize, ne: usize, nt: usize, scale: f64) -> Trial {
    let mut b = TrialBuilder::with_flat_threads(name, nt);
    let metrics: Vec<_> = (0..nm).map(|m| b.metric(&format!("M{m}"))).collect();
    let events: Vec<_> = (0..ne)
        .map(|e| {
            if e == 0 {
                b.event("main")
            } else {
                b.event(&format!("main => e{e}"))
            }
        })
        .collect();
    for (mi, &m) in metrics.iter().enumerate() {
        for (ei, &e) in events.iter().enumerate() {
            for t in 0..nt {
                let base = 1.0 + mi as f64 + 10.0 * ei as f64 + 100.0 * t as f64;
                b.set(
                    e,
                    m,
                    t,
                    Measurement {
                        inclusive: scale * base,
                        exclusive: scale * base * 0.5,
                        calls: (t + 1) as f64,
                        subcalls: ei as f64,
                    },
                );
            }
        }
    }
    b.meta("threads", nt);
    b.meta("label", MetaValue::Str(format!("{name} shaped")));
    b.build()
}

fn multi_trial_repo() -> Repository {
    let mut repo = Repository::new();
    repo.add_trial("app", "exp", shaped_trial("first", 2, 3, 4, 1.0))
        .unwrap();
    repo.add_trial("app", "exp", shaped_trial("second", 2, 3, 4, 2.0))
        .unwrap();
    repo.add_trial("app", "other", shaped_trial("third", 1, 2, 2, 3.0))
        .unwrap();
    repo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any repository shape: JSON and PDB1 decode to the same
    /// repository, converting through either format is the identity,
    /// and re-encoding decoded PDB1 is byte-stable.
    #[test]
    fn json_and_pdb1_round_trips_agree(
        napps in 1usize..3,
        ntrials in 1usize..3,
        nm in 1usize..4,
        ne in 1usize..5,
        nt in 1usize..6,
        scale in 0.001f64..1e6,
    ) {
        let mut repo = Repository::new();
        for a in 0..napps {
            for t in 0..ntrials {
                let s = scale * (1 + a * ntrials + t) as f64;
                repo.add_trial(
                    &format!("app{a}"),
                    "exp",
                    shaped_trial(&format!("t{t}"), nm, ne, nt, s),
                )
                .unwrap();
            }
        }

        let via_json = Repository::from_json(&repo.to_json().unwrap()).unwrap();
        prop_assert_eq!(&via_json, &repo);

        let bytes = repo.to_pdb1();
        let via_pdb1 = Repository::from_pdb1(&bytes).unwrap();
        prop_assert_eq!(&via_pdb1, &repo);

        // JSON -> PDB1 -> JSON is the identity.
        let cross = Repository::from_json(
            &Repository::from_pdb1(&via_json.to_pdb1()).unwrap().to_json().unwrap(),
        )
        .unwrap();
        prop_assert_eq!(&cross, &repo);

        // Decode + re-encode reproduces the exact bytes.
        prop_assert_eq!(via_pdb1.to_pdb1(), bytes);

        // The mapped store materializes the same repository.
        let mapped = MappedRepository::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&mapped.to_repository().unwrap(), &repo);
    }
}

/// The quality layer composes with the binary format: NaN and negative
/// cells survive the PDB1 round-trip bit-for-bit (the format never
/// launders damage), and sanitization of a trial materialized from a
/// mapped view repairs exactly what it repairs on the owned original.
#[test]
fn sanitize_after_pdb1_roundtrip_matches_owned_sanitize() {
    let mut dirty = shaped_trial("dirty", 2, 3, 4, 1.0);
    {
        let m = dirty.profile.metric_id("M0").unwrap();
        let e = dirty.profile.event_id("main => e1").unwrap();
        dirty.profile.get_mut(e, m, 1).unwrap().exclusive = f64::NAN;
        dirty.profile.get_mut(e, m, 2).unwrap().inclusive = -5.0;
    }
    let mut repo = Repository::new();
    repo.add_trial("app", "exp", dirty.clone()).unwrap();
    let bytes = repo.to_pdb1();

    let mapped = MappedRepository::from_bytes(&bytes).unwrap();
    let mut via_pdb1 = mapped
        .view("app", "exp", "dirty")
        .unwrap()
        .to_trial()
        .unwrap();
    // The format must not launder damaged cells (NaN != NaN, so check
    // the two cells directly rather than whole-trial equality).
    {
        let m = via_pdb1.profile.metric_id("M0").unwrap();
        let e = via_pdb1.profile.event_id("main => e1").unwrap();
        assert!(via_pdb1.profile.get(e, m, 1).unwrap().exclusive.is_nan());
        assert_eq!(via_pdb1.profile.get(e, m, 2).unwrap().inclusive, -5.0);
    }

    let from_mapped = sanitize_trial(&mut via_pdb1);
    let mut owned = dirty;
    let from_owned = sanitize_trial(&mut owned);
    assert!(!from_mapped.is_clean());
    assert_eq!(from_mapped.summary(), from_owned.summary());
    assert_eq!(via_pdb1, owned);
}

/// Golden fixture: a mid-write truncation inside the column pages
/// section. The manifest survives, so salvage keeps every trial whose
/// page is still intact and names the ones it dropped.
#[test]
fn golden_truncated_pages_section_keeps_head_trials() {
    let repo = multi_trial_repo();
    let mut bytes = repo.to_pdb1();
    let detail = pdb1::truncate_in_section(&mut bytes, 2, 0.5).unwrap();
    assert!(detail.contains("column pages"), "{detail}");

    assert!(Repository::from_pdb1(&bytes).is_err());
    let (partial, diags) = pdb1::salvage(&bytes).unwrap();
    assert!(partial.trial_count() < repo.trial_count());
    assert!(!diags.is_empty());
    assert!(diags.iter().all(|d| d.format == "pdb1"));
    // Every surviving trial is bit-identical to its original.
    for app in partial.application_names().collect::<Vec<_>>() {
        let a = partial.application(app).unwrap();
        for exp in a.experiment_names().collect::<Vec<_>>() {
            for t in partial.experiment(app, exp).unwrap().trials() {
                assert_eq!(t, repo.trial(app, exp, &t.name).unwrap());
            }
        }
    }
}

/// Golden fixture: a flipped section checksum. The data is untouched,
/// so salvage recovers everything and reports which section's checksum
/// lies.
#[test]
fn golden_flipped_checksum_recovers_all_trials_with_diagnostic() {
    let repo = multi_trial_repo();
    for section in 0..3usize {
        let mut bytes = repo.to_pdb1();
        pdb1::flip_section_checksum(&mut bytes, section, 7).unwrap();
        assert!(
            Repository::from_pdb1(&bytes).is_err(),
            "strict read accepted a bad section-{section} checksum"
        );
        let (partial, diags) = pdb1::salvage(&bytes).unwrap();
        assert_eq!(partial.trial_count(), repo.trial_count());
        assert!(!diags.is_empty());
        let named = ["string table", "manifest", "column pages"][section];
        assert!(
            diags.iter().any(|d| d.message.contains(named)),
            "diagnostics {diags:?} do not name {named:?}"
        );
    }
}

/// Golden fixture: destroyed magic. The file is unnavigable, but the
/// repository layer still degrades to the `.bak` generation rather
/// than panicking or returning garbage.
#[test]
fn golden_bad_magic_falls_back_to_backup_generation() {
    let dir = std::env::temp_dir().join("pdb1_roundtrip_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("badmagic.pdb");
    std::fs::remove_file(&path).ok();

    let repo = multi_trial_repo();
    repo.save_as(&path, Format::Pdb1).unwrap();
    repo.save_as(&path, Format::Pdb1).unwrap(); // second save leaves a .bak

    let mut bytes = std::fs::read(&path).unwrap();
    pdb1::corrupt_magic(&mut bytes, *b"NOPE").unwrap();
    std::fs::write(&path, &bytes).unwrap();

    assert!(Repository::load(&path).is_err());
    let recovered = Repository::load_or_salvage(&path).unwrap();
    assert!(recovered.used_backup);
    assert_eq!(recovered.repo, repo);

    std::fs::remove_file(&path).ok();
    let mut bak = path.clone().into_os_string();
    bak.push(".bak");
    std::fs::remove_file(bak).ok();
}

/// Golden fixture: a misaligned column-pages offset. Every page read
/// lands on shifted garbage, so every trial drops — the partial report
/// is empty but typed, and nothing panics anywhere in the stack.
#[test]
fn golden_misaligned_pages_drop_trials_with_diagnostics() {
    let repo = multi_trial_repo();
    let mut bytes = repo.to_pdb1();
    pdb1::misalign_pages_offset(&mut bytes, 3).unwrap();

    assert!(Repository::from_pdb1(&bytes).is_err());
    let (partial, diags) = pdb1::salvage(&bytes).unwrap();
    assert_eq!(partial.trial_count(), 0);
    assert!(!diags.is_empty());
    assert!(MappedRepository::from_bytes(&bytes).is_err());
}

/// Every binary fault kind, rng-parameterised through the faultsim
/// plan: the readers never panic, salvage that succeeds yields a
/// subset of the original trials plus diagnostics, and strict and
/// salvage keep their contract (strict loads exactly when salvage is
/// clean, and its error is the cause salvage records first).
#[test]
fn every_fault_kind_degrades_never_panics() {
    let repo = multi_trial_repo();
    let bytes = repo.to_pdb1();
    let (clean, diags) = pdb1::salvage(&bytes).unwrap();
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(clean, Repository::from_pdb1(&bytes).unwrap());
    for fault in Fault::BINARY_FAULTS {
        for seed in 0..8u64 {
            let (corrupt, applied) = FaultPlan::new(seed).with(fault).apply_to_bytes(&bytes);
            assert_eq!(applied.len(), 1, "{fault} seed {seed}");
            let strict = Repository::from_pdb1(&corrupt);
            assert!(
                strict.is_err(),
                "{fault} seed {seed} passed the strict reader"
            );
            match pdb1::salvage(&corrupt) {
                Ok((partial, diags)) => {
                    assert!(partial.trial_count() <= repo.trial_count());
                    assert!(
                        partial.trial_count() == repo.trial_count() || !diags.is_empty(),
                        "{fault} seed {seed} dropped trials silently"
                    );
                    let violation =
                        faultsim::policy_contract("pdb1", strict, Some(partial), &diags);
                    assert_eq!(violation, None, "{fault} seed {seed}");
                }
                // Only an unnavigable container may refuse outright.
                Err(e) => {
                    let msg = e.to_string();
                    assert!(
                        matches!(
                            fault,
                            Fault::BadMagic | Fault::TruncatedSection | Fault::MisalignedPage
                        ),
                        "{fault} seed {seed} hard-failed salvage: {msg}"
                    );
                }
            }
            if let Ok(mapped) = MappedRepository::from_bytes(&corrupt) {
                for view in mapped.views().flatten() {
                    let _ = view.to_trial();
                }
            }
        }
    }
}
