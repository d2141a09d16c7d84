//! The command-line pieces both binaries share: flag parsing for every
//! `ks-bench` and `ksum` command, stdout, document writing and gate
//! reporting.
//!
//! Both binaries exit 0 on success (every gate held), 1 when a gate or
//! a run failed or a document could not be written, and 2 for a
//! malformed invocation (reported as a [`UsageError`]). They print
//! through [`out!`](crate::out) and [`outln!`](crate::outln), so a
//! closed stdout never changes that status.

use std::fmt;
use std::io::Write;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};

use serde::Serialize;

/// A malformed invocation: printed with the usage text, exit code 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

/// One command's flags, checked against the command's flag table.
#[derive(Debug, Default)]
pub struct Flags {
    given: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Parses `args`: each flag in `switches` takes no value, each in
    /// `valued` takes the argument after it. A flag in both lists
    /// takes a value only when one follows, so `--csv PATH` and a bare
    /// `--csv` can mean different things. Values never start with
    /// `--`.
    ///
    /// # Errors
    /// An unknown flag, a stray argument, or a valued flag with no
    /// value.
    pub fn parse(args: &[String], switches: &[&str], valued: &[&str]) -> Result<Self, UsageError> {
        let mut given = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let takes_value = valued.contains(&arg.as_str());
            let value = if takes_value {
                it.next_if(|v| !v.starts_with("--")).cloned()
            } else {
                None
            };
            if value.is_none() && !switches.contains(&arg.as_str()) {
                return Err(UsageError(if takes_value {
                    format!("missing value for {arg}")
                } else if arg.starts_with('-') {
                    format!("unknown flag {arg}")
                } else {
                    format!("unexpected argument {arg}")
                }));
            }
            given.push((arg.clone(), value));
        }
        Ok(Self { given })
    }

    /// Removes each flag in `valued`, with the value after it, from
    /// anywhere in `args`: the flags every command of a binary takes.
    /// Returns those flags and the arguments left, in order. Values
    /// never start with `--`.
    ///
    /// # Errors
    /// A flag in `valued` with no value.
    pub fn extract(args: &[String], valued: &[&str]) -> Result<(Self, Vec<String>), UsageError> {
        let mut given = Vec::new();
        let mut rest = Vec::with_capacity(args.len());
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            if valued.contains(&arg.as_str()) {
                let value = it
                    .next_if(|v| !v.starts_with("--"))
                    .ok_or_else(|| UsageError(format!("missing value for {arg}")))?;
                given.push((arg.clone(), Some(value.clone())));
            } else {
                rest.push(arg.clone());
            }
        }
        Ok((Self { given }, rest))
    }

    /// Whether `flag` was given, with or without a value.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| f == flag)
    }

    /// Which of `flags` was given last, for switches that override
    /// each other.
    #[must_use]
    pub fn last_of(&self, flags: &[&str]) -> Option<&str> {
        self.given
            .iter()
            .rev()
            .find_map(|(f, _)| flags.contains(&f.as_str()).then_some(f.as_str()))
    }

    /// The value given to `flag` (the last one when repeated).
    #[must_use]
    pub fn opt(&self, flag: &str) -> Option<&str> {
        self.given
            .iter()
            .rev()
            .find_map(|(f, v)| if f == flag { v.as_deref() } else { None })
    }

    /// `flag`'s value parsed as `T`, or `None` when it was not given.
    ///
    /// # Errors
    /// A value that does not parse as `T`.
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, UsageError> {
        self.opt(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| UsageError(format!("invalid value for {flag}: {v}")))
            })
            .transpose()
    }

    /// `flag`'s value parsed as `T`, or `default`.
    ///
    /// # Errors
    /// A value that does not parse as `T`.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> Result<T, UsageError> {
        Ok(self.parsed(flag)?.unwrap_or(default))
    }

    /// A count: `default` when `flag` was not given, otherwise a value
    /// of at least `min`.
    ///
    /// # Errors
    /// A value that is not a count, or one below `min`.
    pub fn size(&self, flag: &str, default: usize, min: usize) -> Result<usize, UsageError> {
        match self.parsed(flag)? {
            Some(n) if n < min => Err(UsageError(format!(
                "{flag} must be at least {min} (got {n})"
            ))),
            n => Ok(n.unwrap_or(default)),
        }
    }
}

/// Set by the first failed write to stdout.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes `args` to stdout, where `print!` would panic on a failed
/// write: once a write fails (a reader that exited early, as `| head`
/// does), this and every later call drops its output, and the command
/// keeps its own exit status. Called through [`out!`](crate::out) and
/// [`outln!`](crate::outln).
pub fn write_stdout(args: fmt::Arguments) {
    if !STDOUT_CLOSED.load(Ordering::Relaxed) && std::io::stdout().write_fmt(args).is_err() {
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
    }
}

/// `print!` through [`cli::write_stdout`](crate::cli::write_stdout):
/// a closed stdout drops the output instead of panicking.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`cli::write_stdout`](crate::cli::write_stdout):
/// a closed stdout drops the output instead of panicking.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::out!("\n")
    };
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes every document that has a path and logs each path to
/// stderr. Returns exit code 1 when any write failed (the others are
/// still attempted).
#[must_use]
pub fn write_all(docs: &[(Option<&str>, String)]) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for (path, doc) in docs {
        let Some(path) = path else { continue };
        match std::fs::write(path, doc) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}

/// Pretty-printed JSON of a document.
#[must_use]
pub fn to_json(doc: &impl Serialize) -> String {
    serde_json::to_string_pretty(doc).expect("documents serialise")
}

/// The pass/fail checks of one gate command.
#[derive(Debug, Default)]
pub struct Gates {
    failures: Vec<String>,
}

impl Gates {
    /// Records one gate; `label` says what failed. Returns `ok`.
    pub fn check(&mut self, ok: bool, label: impl Into<String>) -> bool {
        if !ok {
            self.failures.push(label.into());
        }
        ok
    }

    /// True while every recorded gate held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Writes `doc` to `json` when a path is given, then prints one
    /// `FAIL:` line per failed gate. Exit code 0 only when every gate
    /// held and the document was written.
    #[must_use]
    pub fn finish(self, doc: &impl Serialize, json: Option<&str>) -> ExitCode {
        let written = write_all(&[(json, to_json(doc))]);
        for label in &self.failures {
            eprintln!("FAIL: {label}");
        }
        if self.passed() {
            written
        } else {
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| (*a).to_string()).collect()
    }

    #[test]
    fn a_flag_in_both_lists_takes_a_value_only_when_one_follows() {
        let f = Flags::parse(
            &args(&["--csv", "--json", "out.json"]),
            &["--csv"],
            &["--csv", "--json"],
        )
        .expect("valid");
        assert!(f.has("--csv"));
        assert_eq!(f.opt("--csv"), None);
        assert_eq!(f.opt("--json"), Some("out.json"));
        let f = Flags::parse(&args(&["--csv", "t.csv"]), &["--csv"], &["--csv"]).expect("valid");
        assert_eq!(f.opt("--csv"), Some("t.csv"));
    }

    #[test]
    fn values_stray_arguments_and_short_flags_are_checked() {
        let parse = |a: &[&str]| Flags::parse(&args(a), &["--smoke"], &["--seed"]);
        for bad in [&["--seed", "--smoke"][..], &["stray"], &["--smoke", "-x"]] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        let f = parse(&["--seed", "-1"]).expect("a value may start with one dash");
        assert!(f.get("--seed", 0u64).is_err());
    }

    #[test]
    fn accessors_apply_defaults_and_minimums() {
        let f = Flags::parse(&args(&["--n", "3"]), &[], &["--n", "--m"]).expect("valid");
        assert_eq!(f.size("--n", 9, 1), Ok(3));
        assert_eq!(f.size("--m", 9, 1), Ok(9));
        assert!(f.size("--n", 9, 4).is_err());
        assert_eq!(f.get("--m", 2.5), Ok(2.5));
        assert_eq!(f.parsed::<u32>("--m"), Ok(None));
    }

    #[test]
    fn gates_fail_when_any_check_fails() {
        let mut g = Gates::default();
        assert!(g.check(true, "fine"));
        assert!(g.passed());
        assert!(!g.check(false, "broken"));
        assert!(!g.passed());
    }
}
