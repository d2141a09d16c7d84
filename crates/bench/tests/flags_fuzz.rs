//! Fuzzes `cli::Flags`, the one argument parser of `ks-bench` and
//! `ksum`, with token vectors drawn from both binaries' flag tables,
//! `--` garbage, stray words and numeric edge strings. Parsing, every
//! accessor and the global-flag extraction never panic, and each error
//! names the token that caused it.

use ks_bench::cli::{Flags, UsageError};
use proptest::prelude::*;
use proptest::sample::select;

/// Flags of both binaries, garbage, strays and numeric edge values.
const TOKENS: &[&str] = &[
    // ks-bench
    "--smoke",
    "--full",
    "--json",
    "--csv",
    "--gate",
    "--devices",
    "--queries",
    "--seed",
    // ksum
    "--m",
    "--h",
    "--backend",
    "--static",
    "--kernel",
    "--clients",
    "--shared-ratio",
    "--wave",
    "--lifecycle-faults",
    "--energy-budget",
    "--pack",
    "--no-pack",
    "--threads",
    "--faults",
    // garbage and strays
    "--",
    "---",
    "--bogus",
    "--queue",
    "-x",
    "-",
    "stray",
    "sweep",
    "",
    // numeric edges
    "nan",
    "inf",
    "-0",
    "1e400",
    "18446744073709551616",
    "0",
    "1",
    "-1",
    "0.5",
];

/// One command's flag table: its switches and its valued flags.
#[derive(Debug, Clone, Copy)]
struct Table {
    switches: &'static [&'static str],
    valued: &'static [&'static str],
}

/// Tables shaped like the binaries' own: `ks-bench sweep` (a flag in
/// both lists), the `ks-bench` gates, and `ksum`'s problem, `lint`
/// and `serve-bench` commands.
const TABLES: [Table; 5] = [
    Table {
        switches: &["--smoke", "--full", "--csv"],
        valued: &["--json", "--csv"],
    },
    Table {
        switches: &["--smoke"],
        valued: &["--devices", "--queries", "--seed", "--json", "--gate"],
    },
    Table {
        switches: &[],
        valued: &["--m", "--h", "--seed", "--backend"],
    },
    Table {
        switches: &["--static"],
        valued: &["--json", "--kernel"],
    },
    Table {
        switches: &["--smoke", "--pack", "--no-pack"],
        valued: &[
            "--clients",
            "--shared-ratio",
            "--m",
            "--h",
            "--seed",
            "--devices",
            "--wave",
            "--backend",
            "--lifecycle-faults",
            "--energy-budget",
            "--json",
        ],
    },
];

const GLOBALS: &[&str] = &["--threads", "--faults"];

fn tokens() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(select(TOKENS.to_vec()), 0..8)
        .prop_map(|t| t.into_iter().map(String::from).collect())
}

/// `msg` is a parse error about one of `args`.
fn names_a_token(msg: &str, args: &[String]) -> bool {
    args.iter().any(|t| {
        msg == format!("missing value for {t}")
            || msg == format!("unknown flag {t}")
            || msg == format!("unexpected argument {t}")
    })
}

/// Every accessor on `flag` answers without a panic, and a failed one
/// names the flag and the value it was given.
fn accessors_hold(flags: &Flags, flag: &str) {
    let value = flags.opt(flag);
    let invalid = |r: Result<(), UsageError>| {
        if let Err(UsageError(msg)) = r {
            let v = value.expect("only a given value can fail to parse");
            assert_eq!(msg, format!("invalid value for {flag}: {v}"));
        }
    };
    invalid(flags.get(flag, 0usize).map(drop));
    invalid(flags.get(flag, 0u64).map(drop));
    invalid(flags.get(flag, 0.0f32).map(drop));
    invalid(flags.parsed::<f64>(flag).map(drop));
    if let Err(UsageError(msg)) = flags.size(flag, 1, 1) {
        assert!(
            msg == format!("invalid value for {flag}: {}", value.unwrap_or_default())
                || msg.starts_with(&format!("{flag} must be at least 1")),
            "{msg}"
        );
    }
    if value.is_some() {
        assert!(flags.has(flag));
    }
    let _ = flags.last_of(&[flag, "--smoke"]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn parse_accepts_or_names_the_offending_token(
        args in tokens(),
        table in select(TABLES.to_vec()),
    ) {
        match Flags::parse(&args, table.switches, table.valued) {
            Ok(flags) => {
                for flag in table.valued.iter().chain(table.switches) {
                    accessors_hold(&flags, flag);
                }
                for value in table.valued.iter().filter_map(|f| flags.opt(f)) {
                    prop_assert!(!value.starts_with("--"), "{value:?} taken as a value");
                }
            }
            Err(UsageError(msg)) => {
                prop_assert!(names_a_token(&msg, &args), "{msg:?} names no token");
            }
        }
    }

    #[test]
    fn extract_takes_each_global_with_its_value(args in tokens()) {
        match Flags::extract(&args, GLOBALS) {
            Ok((globals, rest)) => {
                let taken = args.iter().filter(|a| GLOBALS.contains(&a.as_str())).count();
                prop_assert_eq!(rest.len() + 2 * taken, args.len());
                prop_assert!(rest.iter().all(|a| !GLOBALS.contains(&a.as_str())));
                for flag in GLOBALS {
                    accessors_hold(&globals, flag);
                }
            }
            Err(UsageError(msg)) => {
                prop_assert!(
                    GLOBALS.iter().any(|g| msg == format!("missing value for {g}")),
                    "{msg:?}"
                );
            }
        }
    }
}

#[test]
fn the_last_of_two_overriding_switches_wins() {
    let parse = |a: &[&str]| {
        let args: Vec<String> = a.iter().map(|t| (*t).to_string()).collect();
        Flags::parse(&args, &["--pack", "--no-pack", "--smoke"], &[]).expect("valid")
    };
    let table = ["--pack", "--no-pack"];
    assert_eq!(
        parse(&["--pack", "--smoke", "--no-pack"]).last_of(&table),
        Some("--no-pack")
    );
    assert_eq!(
        parse(&["--no-pack", "--pack", "--smoke"]).last_of(&table),
        Some("--pack")
    );
    assert_eq!(parse(&["--smoke"]).last_of(&table), None);
}

#[test]
fn globals_come_out_from_anywhere_on_the_line() {
    let args: Vec<String> = ["--threads", "2", "solve", "--m", "8", "--faults", "sm=1"]
        .iter()
        .map(|t| (*t).to_string())
        .collect();
    let (globals, rest) = Flags::extract(&args, GLOBALS).expect("valid");
    assert_eq!(rest, ["solve", "--m", "8"]);
    assert_eq!(globals.get("--threads", 0usize), Ok(2));
    assert_eq!(globals.opt("--faults"), Some("sm=1"));
}
