//! Property-based tests for the profile store, algebra and formats.

use perfdmf::algebra::{aggregate_threads, difference, merge, Aggregation};
use perfdmf::formats::{csv, tau};
use perfdmf::{
    sanitize_trial, EventId, Measurement, MetricId, Profile, Repository, ThreadId, Trial,
    TrialBuilder,
};
use proptest::prelude::*;

/// Strategy: a small random profile with one TIME metric.
fn arb_profile() -> impl Strategy<Value = Profile> {
    (
        1usize..5,                                 // threads
        prop::collection::vec("[a-z]{1,8}", 1..6), // event names
    )
        .prop_flat_map(|(threads, mut names)| {
            names.sort();
            names.dedup();
            let n_events = names.len();
            (
                Just(threads),
                Just(names),
                prop::collection::vec(0.0f64..1e4, n_events * threads),
            )
        })
        .prop_map(|(threads, names, values)| {
            let mut b = TrialBuilder::with_flat_threads("p", threads);
            let m = b.metric("TIME");
            for (i, name) in names.iter().enumerate() {
                let e = b.event(name);
                for t in 0..threads {
                    b.set(e, m, t, Measurement::leaf(values[i * threads + t]));
                }
            }
            b.build().profile
        })
}

/// A consistent callpath trial: `TIME` plus `metrics - 1` counters,
/// event `i > 0` a child of an earlier event picked by `parents[i]`,
/// and every `TIME` parent's inclusive value its own exclusive plus
/// its children's inclusive values, summed in event order.
fn consistent_trial(
    (threads, events, metrics): (usize, usize, usize),
    parents: &[u32],
    draws: &[f64],
) -> Trial {
    let mut names = vec!["main".to_string()];
    let mut kids: Vec<Vec<usize>> = vec![Vec::new(); events];
    for (i, &pick) in parents.iter().enumerate().take(events).skip(1) {
        let p = pick as usize % i;
        names.push(format!("{} => f{i}", names[p]));
        kids[p].push(i);
    }
    let mut b = TrialBuilder::with_flat_threads("p", threads);
    let ms: Vec<MetricId> = (0..metrics)
        .map(|m| {
            b.metric(&if m == 0 {
                "TIME".into()
            } else {
                format!("C{m}")
            })
        })
        .collect();
    let es: Vec<EventId> = names.iter().map(|n| b.event(n)).collect();
    let mut draw = draws.iter().copied().cycle();
    for (mi, &m) in ms.iter().enumerate() {
        for t in 0..threads {
            // Children have higher indices, so a reverse sweep sees them
            // before their parent.
            let mut inclusive = vec![0.0; events];
            for e in (0..events).rev() {
                let exclusive = draw.next().expect("cycle");
                inclusive[e] = exclusive
                    + if mi == 0 {
                        kids[e].iter().fold(0.0, |sum, &c| sum + inclusive[c])
                    } else {
                        draw.next().expect("cycle")
                    };
                let cell = Measurement {
                    inclusive: inclusive[e],
                    exclusive,
                    calls: 1.0 + draw.next().expect("cycle").floor(),
                    subcalls: kids[e].len() as f64,
                };
                b.set(es[e], m, t, cell);
            }
        }
    }
    b.build()
}

/// Seeds faults into a trial. Each fault is `(cell, kind, field)`:
/// `cell` picks an arena cell modulo its size, `field` one of its four
/// fields, and `kind` what goes wrong there.
fn corrupt(trial: &mut Trial, faults: &[(usize, u32, usize)]) {
    let p = &mut trial.profile;
    let (nm, ne, nt) = (p.metric_count(), p.event_count(), p.thread_count());
    for &(cell, kind, field) in faults {
        let idx = cell % (ne * nm * nt);
        let (e, m, t) = (
            EventId((idx / (nm * nt)) as u32),
            MetricId((idx / nt % nm) as u32),
            idx % nt,
        );
        let c = &mut p.column_mut(e, m)[t];
        let fields = [
            &mut c.inclusive,
            &mut c.exclusive,
            &mut c.calls,
            &mut c.subcalls,
        ];
        let seeded = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0 - cell as f64,
        ];
        match kind {
            0..=3 => *fields.into_iter().nth(field).expect("four fields") = seeded[kind as usize],
            4 => c.exclusive = c.inclusive * 2.0 + 1.0,
            5 => c.calls = 0.0,
            // A child's inclusive time grows past what its parent holds.
            6 => c.inclusive = c.inclusive * 10.0 + 1.0,
            7 if nm > 1 => {
                let donor = p
                    .metric(MetricId(((m.0 as usize + 1) % nm) as u32))
                    .name
                    .clone();
                p.corrupt_metric_name(m, donor);
            }
            8 if ne > 1 => {
                let donor = p
                    .event(EventId(((e.0 as usize + 1) % ne) as u32))
                    .name
                    .clone();
                p.corrupt_event_name(e, donor);
            }
            // A whole metric goes bad.
            9 => {
                for ei in 0..ne {
                    for c in p.column_mut(EventId(ei as u32), m) {
                        c.exclusive = f64::NAN;
                    }
                }
            }
            _ => {}
        }
    }
}

/// A trial's axes and every cell's bits, so NaN compares by bits.
fn bits(trial: &Trial) -> (Vec<String>, Vec<String>, usize, Vec<u64>) {
    let p = &trial.profile;
    (
        p.metrics().iter().map(|m| m.name.clone()).collect(),
        p.events().iter().map(|e| e.name.to_string()).collect(),
        p.thread_count(),
        p.arena()
            .iter()
            .flat_map(|c| [c.inclusive, c.exclusive, c.calls, c.subcalls])
            .map(f64::to_bits)
            .collect(),
    )
}

proptest! {
    #[test]
    fn difference_with_self_is_zero(p in arb_profile()) {
        let d = difference(&p, &p).unwrap();
        let m = d.metric_id("TIME").unwrap();
        for ev in d.events() {
            let e = d.event_id(&ev.name).unwrap();
            for t in 0..d.thread_count() {
                let c = d.get(e, m, t).unwrap();
                prop_assert!(c.exclusive.abs() < 1e-9);
                prop_assert!(c.inclusive.abs() < 1e-9);
            }
        }
    }

    #[test]
    fn merge_is_commutative_on_values(a in arb_profile(), b in arb_profile()) {
        prop_assume!(a.thread_count() == b.thread_count());
        let ab = merge(&a, &b).unwrap();
        let ba = merge(&b, &a).unwrap();
        let m = ab.metric_id("TIME").unwrap();
        let m2 = ba.metric_id("TIME").unwrap();
        for ev in ab.events() {
            let e1 = ab.event_id(&ev.name).unwrap();
            let e2 = ba.event_id(&ev.name).unwrap();
            for t in 0..ab.thread_count() {
                let c1 = ab.get(e1, m, t).unwrap();
                let c2 = ba.get(e2, m2, t).unwrap();
                prop_assert!((c1.exclusive - c2.exclusive).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn merge_then_difference_recovers_left(a in arb_profile(), b in arb_profile()) {
        prop_assume!(a.thread_count() == b.thread_count());
        let merged = merge(&a, &b).unwrap();
        let back = difference(&merged, &b).unwrap();
        let m = back.metric_id("TIME").unwrap();
        for ev in a.events() {
            // Events unique to `a` survive; events shared with `b` must
            // subtract back to a's values.
            if b.event_id(&ev.name).is_some() {
                let ea = a.event_id(&ev.name).unwrap();
                let eo = back.event_id(&ev.name).unwrap();
                let ma = a.metric_id("TIME").unwrap();
                for t in 0..a.thread_count() {
                    let va = a.get(ea, ma, t).unwrap().exclusive;
                    let vo = back.get(eo, m, t).unwrap().exclusive;
                    prop_assert!((va - vo).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn aggregation_mean_between_min_and_max(p in arb_profile()) {
        let mean = aggregate_threads(&p, Aggregation::Mean).unwrap();
        let min = aggregate_threads(&p, Aggregation::Min).unwrap();
        let max = aggregate_threads(&p, Aggregation::Max).unwrap();
        let m = mean.metric_id("TIME").unwrap();
        for ev in p.events() {
            let e = mean.event_id(&ev.name).unwrap();
            let vmean = mean.get(e, m, 0).unwrap().exclusive;
            let vmin = min.get(e, m, 0).unwrap().exclusive;
            let vmax = max.get(e, m, 0).unwrap().exclusive;
            prop_assert!(vmin <= vmean + 1e-9);
            prop_assert!(vmean <= vmax + 1e-9);
        }
    }

    #[test]
    fn aggregation_total_is_threads_times_mean(p in arb_profile()) {
        let mean = aggregate_threads(&p, Aggregation::Mean).unwrap();
        let total = aggregate_threads(&p, Aggregation::Total).unwrap();
        let m = mean.metric_id("TIME").unwrap();
        let n = p.thread_count() as f64;
        for ev in p.events() {
            let e = mean.event_id(&ev.name).unwrap();
            let vmean = mean.get(e, m, 0).unwrap().exclusive;
            let vtotal = total.get(e, m, 0).unwrap().exclusive;
            prop_assert!((vtotal - n * vmean).abs() < 1e-6 * (1.0 + vtotal.abs()));
        }
    }

    #[test]
    fn csv_roundtrip_preserves_profile(p in arb_profile()) {
        let trial = Trial::new("t", p);
        let text = csv::write_trial(&trial);
        let back = csv::parse_trial("t", &text).unwrap();
        prop_assert_eq!(trial.profile, back.profile);
    }

    #[test]
    fn tau_roundtrip_preserves_rows(
        rows in prop::collection::vec(
            ("[a-z]{1,10}", 0.0f64..1e6, 0.0f64..1e6, 1.0f64..100.0),
            1..8,
        )
    ) {
        let mut named: Vec<(String, Measurement)> = Vec::new();
        for (name, excl, extra, calls) in rows {
            if named.iter().any(|(n, _)| *n == name) {
                continue;
            }
            named.push((
                name,
                Measurement {
                    exclusive: excl,
                    inclusive: excl + extra,
                    calls,
                    subcalls: 0.0,
                },
            ));
        }
        let text = tau::write_thread_profile("TIME", &named);
        let parsed = tau::parse_thread_profile(&text).unwrap();
        prop_assert_eq!(parsed.metric, "TIME");
        prop_assert_eq!(parsed.rows, named);
    }

    #[test]
    fn repository_roundtrips_through_json(p in arb_profile()) {
        let mut repo = Repository::new();
        repo.add_trial("app", "exp", Trial::new("t", p)).unwrap();
        let json = repo.to_json().unwrap();
        let back = Repository::from_json(&json).unwrap();
        prop_assert_eq!(repo, back);
    }

    /// The invariant walk is a fixed point: a consistent profile passes
    /// untouched, a corrupted one comes out satisfying every cell
    /// invariant, and a second walk repairs and quarantines nothing,
    /// finds the same flags and changes no bit.
    #[test]
    fn sanitize_is_a_fixed_point_that_leaves_every_invariant_true(
        shape in (1usize..5, 1usize..9, 1usize..4),
        parents in prop::collection::vec(0u32..1000, 9),
        draws in prop::collection::vec(0.0f64..1e3, 61),
        faults in prop::collection::vec((0usize..10_000, 0u32..10, 0usize..4), 0..8),
    ) {
        let clean = consistent_trial(shape, &parents, &draws);
        let mut t = clean.clone();
        let report = sanitize_trial(&mut t);
        prop_assert!(report.is_clean(), "{}", report.summary());
        prop_assert!(bits(&t) == bits(&clean));

        let mut dirty = clean;
        corrupt(&mut dirty, &faults);
        let mut once = dirty.clone();
        let first = sanitize_trial(&mut once);
        // The report is empty of repairs exactly when nothing changed.
        let untouched = first.repairs.is_empty() && first.quarantined.is_empty();
        prop_assert_eq!(untouched, bits(&once) == bits(&dirty));

        let time = once.profile.metric_id("TIME");
        for (_, m, t, c) in once.profile.cells() {
            for v in [c.inclusive, c.exclusive, c.calls, c.subcalls] {
                prop_assert!(v.is_finite() && v >= 0.0, "{m:?} thread {t}: {c:?}");
            }
            prop_assert!(c.exclusive <= c.inclusive, "{m:?} thread {t}: {c:?}");
            prop_assert!(Some(m) != time || c.inclusive == 0.0 || c.calls != 0.0);
        }

        let mut twice = once.clone();
        let second = sanitize_trial(&mut twice);
        prop_assert!(
            second.repairs.is_empty() && second.quarantined.is_empty(),
            "{}",
            second.summary()
        );
        prop_assert_eq!(&second.flagged, &first.flagged);
        prop_assert!(bits(&twice) == bits(&once));
    }
}

#[test]
fn repository_query_across_formats() {
    // Profiles arriving via different formats coexist in one repository.
    let tau_text = "1 templated_functions_MULTI_TIME\n\"main\" 1 0 10 10 0\n";
    let tau_trial = tau::assemble_trial("tau_run", &[(ThreadId::flat(0), tau_text)]).unwrap();

    let csv_text = "\
event,metric,node,context,thread,inclusive,exclusive,calls,subcalls
main,TIME,0,0,0,20,20,1,0
";
    let csv_trial = csv::parse_trial("csv_run", csv_text).unwrap();

    let mut repo = Repository::new();
    repo.add_trial("app", "exp", tau_trial).unwrap();
    repo.add_trial("app", "exp", csv_trial).unwrap();

    let a = repo.trial("app", "exp", "tau_run").unwrap();
    let b = repo.trial("app", "exp", "csv_run").unwrap();
    let (pa, pb) = (&a.profile, &b.profile);
    let diff = difference(pb, pa).unwrap();
    let m = diff.metric_id("TIME").unwrap();
    let e = diff.event_id("main").unwrap();
    assert_eq!(diff.get(e, m, 0).unwrap().exclusive, 10.0);
}
