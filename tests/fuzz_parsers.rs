//! Robustness fuzzing: no parser in the workspace may panic on
//! arbitrary input — malformed files must come back as typed errors.
//! The profile readers are also held to their strict/lossy contract on
//! every input.

use faultsim::{Fault, FaultPlan};
use perfdmf::formats::{csv, gprof, tau, Diagnostic};
use perfdmf::{Measurement, Repository, ThreadId, TrialBuilder};
use proptest::prelude::*;

fn assert_policy_contract<T: PartialEq>(
    reader: &str,
    input: &str,
    strict: perfdmf::Result<T>,
    lossy: Option<T>,
    diagnostics: &[Diagnostic],
) {
    if let Some(violation) = faultsim::policy_contract(reader, strict, lossy, diagnostics) {
        panic!("{violation}\ninput: {input:?}");
    }
}

fn check_csv(input: &str) {
    let lossy = csv::parse_trial_lossy("fuzz", input);
    assert_policy_contract(
        "csv",
        input,
        csv::parse_trial("fuzz", input),
        lossy.trial,
        &lossy.diagnostics,
    );
}

fn check_tau(input: &str) {
    let (parsed, diagnostics) = tau::parse_thread_profile_lossy(input);
    assert_policy_contract(
        "tau",
        input,
        tau::parse_thread_profile(input),
        parsed,
        &diagnostics,
    );
    let files = [(ThreadId::flat(0), input)];
    let lossy = tau::assemble_trial_lossy("fuzz", &files);
    assert_policy_contract(
        "tau trial",
        input,
        tau::assemble_trial("fuzz", &files),
        lossy.trial,
        &lossy.diagnostics,
    );
}

fn check_gprof(input: &str) {
    let lossy = gprof::parse_flat_profile_lossy("fuzz", input);
    assert_policy_contract(
        "gprof",
        input,
        gprof::parse_flat_profile("fuzz", input),
        lossy.trial,
        &lossy.diagnostics,
    );
}

/// The repository JSON reader: strict `from_json` and lossy
/// `salvage_json` keep the contract, salvage refuses only what strict
/// refuses, and strict agrees with the derived `Repository` decoder.
fn check_repository_json(input: &str) {
    let strict = Repository::from_json(input);
    assert_eq!(
        strict.as_ref().ok(),
        serde_json::from_str::<Repository>(input).ok().as_ref(),
        "from_json differs from the derived decoder on {input:?}"
    );
    match Repository::salvage_json(input) {
        Ok((repo, diagnostics)) => {
            assert_policy_contract("json repository", input, strict, Some(repo), &diagnostics)
        }
        Err(e) => assert!(
            strict.is_err(),
            "salvage refused ({e}) what strict read: {input:?}"
        ),
    }
}

/// A small repository as pretty JSON, so line faults hit single members.
fn repository_text() -> String {
    let mut repo = Repository::new();
    for (app, exp, name, threads) in [
        ("a", "x", "t1", 2),
        ("a", "x", "t2", 3),
        ("b", "y", "t3", 1),
    ] {
        let mut b = TrialBuilder::with_flat_threads(name, threads);
        let time = b.metric("TIME");
        let main = b.event("main");
        for t in 0..threads {
            b.set(main, time, t, Measurement::leaf(1.5 + t as f64));
        }
        b.meta("threads", threads);
        repo.add_trial(app, exp, b.build()).unwrap();
    }
    serde_json::to_string_pretty(&repo).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The rule-language parser returns Ok or Err, never panics.
    #[test]
    fn drl_parser_never_panics(input in "\\PC*") {
        let _ = rules::drl::parse(&input);
    }

    /// Structured-looking rule fragments still never panic.
    #[test]
    fn drl_parser_survives_rule_shaped_input(
        name in "[a-zA-Z ]{0,12}",
        field in "[a-z]{1,8}",
        op in prop::sample::select(vec!["==", ">", "<", "contains", "!!", ":"]),
        value in "[a-z0-9\"(){};,]{0,10}",
    ) {
        let src = format!(
            "rule \"{name}\" when F( {field} {op} {value} ) then print({field}); end"
        );
        let _ = rules::drl::parse(&src);
    }

    /// The script language parser/interpreter never panics.
    #[test]
    fn script_never_panics(input in "\\PC*") {
        let mut interp = script::Interpreter::new().with_step_limit(50_000);
        let _ = interp.run(&input);
    }

    /// Script fragments with plausible syntax never panic either.
    #[test]
    fn script_survives_code_shaped_input(
        kw in prop::sample::select(vec!["let", "if", "while", "for", "fn", "return"]),
        body in "[a-z0-9+\\-*/=<>(){};, \"\\[\\]]{0,40}",
    ) {
        let mut interp = script::Interpreter::new().with_step_limit(50_000);
        let _ = interp.run(&format!("{kw} {body}"));
    }

    /// TAU profile parser never panics.
    #[test]
    fn tau_parser_never_panics(input in "\\PC*") {
        check_tau(&input);
    }

    /// TAU header-shaped input never panics.
    #[test]
    fn tau_parser_survives_header_shaped_input(
        n in 0usize..5,
        metric in "[A-Z_]{0,12}",
        rows in prop::collection::vec(("[a-z => ]{0,16}", "[0-9. eE+-]{0,16}"), 0..5),
    ) {
        let mut src = format!("{n} templated_functions_MULTI_{metric}\n# header\n");
        for (name, nums) in rows {
            src.push_str(&format!("\"{name}\" {nums}\n"));
        }
        check_tau(&src);
    }

    /// CSV trial parser never panics.
    #[test]
    fn csv_parser_never_panics(input in "\\PC*") {
        check_csv(&input);
    }

    /// CSV with the right header but junk rows never panics.
    #[test]
    fn csv_parser_survives_row_junk(rows in prop::collection::vec("[a-z0-9\",.\\-]{0,40}", 0..8)) {
        let mut src = String::from(
            "event,metric,node,context,thread,inclusive,exclusive,calls,subcalls\n",
        );
        for r in rows {
            src.push_str(&r);
            src.push('\n');
        }
        check_csv(&src);
    }

    /// gprof flat-profile parser never panics.
    #[test]
    fn gprof_parser_never_panics(input in "\\PC*") {
        check_gprof(&input);
    }

    /// A gprof table header followed by junk rows, blank lines or
    /// nothing at all never panics.
    #[test]
    fn gprof_parser_survives_table_shaped_input(
        rows in prop::collection::vec("[a-z0-9. ]{0,40}", 0..6),
    ) {
        let mut src = String::from(
            " time   seconds   seconds    calls  ms/call  ms/call  name\n",
        );
        for r in rows {
            src.push_str(&r);
            src.push('\n');
        }
        check_gprof(&src);
    }

    /// Repository JSON loader never panics, and its strict and lossy
    /// policies keep their contract.
    #[test]
    fn repository_json_never_panics(input in "\\PC*") {
        check_repository_json(&input);
    }

    /// Corrupted repository documents: a text fault, then a member
    /// renamed or retyped, keep the strict/lossy contract.
    #[test]
    fn repository_json_salvage_keeps_its_contract(
        seed in 0u64..1 << 32,
        fault in prop::sample::select(Fault::TEXT_FAULTS.to_vec()),
        edit in prop::sample::select(vec![
            ("", ""),
            ("\"experiments\"", "\"experimentz\""),
            ("\"trials\": {", "\"trials\": 7, \"z\": {"),
            ("\"threads\": [", "\"threads\": {}, \"q\": ["),
            ("\"inclusive\": 1.5", "\"inclusive\": \"1.5\""),
            ("\"name\": \"TIME\"", "\"name\": [\"TIME\"]"),
        ]),
    ) {
        let text = repository_text().replacen(edit.0, edit.1, 1);
        let (corrupt, _) = FaultPlan::new(seed).with(fault).apply_to_text(&text);
        check_repository_json(&text);
        check_repository_json(&corrupt);
    }
}
