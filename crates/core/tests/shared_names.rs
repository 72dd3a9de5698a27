//! One event name, one allocation: a trial materialized from a PDB1
//! store hands the same `Arc<str>` to its profile, to the load-balance
//! observations and facts, to the incremental state's facts and to the
//! script host's `trial_events` list.

use perfdmf::{MappedRepository, Measurement, Repository, Trial, TrialBuilder};
use perfexplorer::loadbalance;
use perfexplorer::scripting::PerfExplorerScript;
use perfexplorer::AnalysisState;
use std::sync::Arc;

const INNER: &str = "main => outer => inner";

/// A nested, imbalanced trial with `threads` threads.
fn trial(name: &str, threads: usize) -> Trial {
    let mut b = TrialBuilder::with_flat_threads(name, threads);
    let time = b.metric("TIME");
    let main = b.event("main");
    let outer = b.event("main => outer");
    let inner = b.event(INNER);
    for t in 0..threads {
        let busy = 10.0 * (t + 1) as f64;
        b.set(main, time, t, Measurement::leaf(100.0));
        b.set(outer, time, t, Measurement::leaf(90.0 - busy));
        b.set(inner, time, t, Measurement::leaf(busy));
    }
    b.build()
}

/// The fact string `field` of every fact of `fact_type`.
fn fact_strs(facts: &[rules::Fact], fact_type: &str, field: &str) -> Vec<Arc<str>> {
    facts
        .iter()
        .filter(|f| f.fact_type() == fact_type)
        .filter_map(|f| match f.get(field) {
            Some(rules::Value::Str(s)) => Some(Arc::clone(s)),
            _ => None,
        })
        .collect()
}

#[test]
fn a_materialized_event_name_is_one_allocation_from_store_to_facts_and_scripts() {
    let mut repo = Repository::new();
    repo.add_trial("app", "exp", trial("t4", 4)).unwrap();
    repo.add_trial("app", "exp", trial("t8", 8)).unwrap();
    let store = MappedRepository::from_bytes(&repo.to_pdb1()).unwrap();
    let t4 = store.view("app", "exp", "t4").unwrap().to_trial().unwrap();
    let t8 = store.view("app", "exp", "t8").unwrap().to_trial().unwrap();

    let at = t4.profile.event_id(INNER).unwrap().0 as usize;
    let name = &t4.profile.events()[at].name;
    // The manifest's string table holds the name once for both trials.
    assert!(Arc::ptr_eq(name, &t8.profile.events()[at].name));

    let analysis = loadbalance::analyze(&t4, "TIME").unwrap();
    let observed = analysis.observations.iter().find(|o| o.event == INNER);
    assert!(Arc::ptr_eq(name, &observed.unwrap().event.0));
    let paired = analysis.nested.iter().find(|n| n.inner == INNER);
    assert!(Arc::ptr_eq(name, &paired.unwrap().inner.0));

    let facts = analysis.facts();
    let regions = fact_strs(&facts, "RegionBalance", "eventName");
    assert!(regions.iter().any(|s| Arc::ptr_eq(name, s)));
    let inners = fact_strs(&facts, "NestedCorrelation", "inner");
    assert!(!inners.is_empty() && inners.iter().all(|s| Arc::ptr_eq(name, s)));

    let state = AnalysisState::new(&t4, "TIME").unwrap();
    assert_eq!(state.facts(), facts);
    let streamed = fact_strs(&state.facts(), "RegionBalance", "eventName");
    assert!(streamed.iter().any(|s| Arc::ptr_eq(name, s)));

    let mut cold = Repository::new();
    cold.upsert_trial("app", "exp", t4.clone());
    let mut session = PerfExplorerScript::new(cold);
    let events = session
        .run(r#"trial_events(load_trial("app", "exp", "t4"))"#)
        .unwrap();
    let script::Value::List(events) = events else {
        panic!("trial_events returned {events:?}");
    };
    match &events[at] {
        script::Value::Str(s) => assert!(Arc::ptr_eq(name, s)),
        other => panic!("event {at} is {other:?}"),
    }
}
