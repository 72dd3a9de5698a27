//! Robustness fuzzing: no parser in the workspace may panic on
//! arbitrary input — malformed files must come back as typed errors.
//! The profile readers are also held to their strict/lossy contract on
//! every input.

use perfdmf::formats::{csv, gprof, tau, Diagnostic};
use perfdmf::ThreadId;
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

    /// Repository JSON loader never panics.
    #[test]
    fn repository_json_never_panics(input in "\\PC*") {
        let _ = perfdmf::Repository::from_json(&input);
    }
}
