//! Command-line flags shared by the bench binaries.
//!
//! Every binary takes the same two shapes of argument: a bare flag
//! (`--smoke`) and a flag followed by one value (`--count 8`). A value flag
//! that is last, is followed by another flag, or does not parse as its type
//! is a usage error: the binary prints one usage line and exits 2 instead
//! of falling back to its default. So is any `--flag` the usage line does
//! not name: the usage line is the one list of a binary's flags.

use std::fmt::Display;
use std::str::FromStr;

/// A binary's argv (without the program name) and its usage line.
#[derive(Debug)]
pub struct Args {
    argv: Vec<String>,
    usage: &'static str,
}

impl Args {
    /// The process's own arguments. A `--flag` that `usage` does not name
    /// exits through [`fail`](Self::fail).
    #[must_use]
    pub fn parse(usage: &'static str) -> Self {
        let args = Args {
            argv: std::env::args().skip(1).collect(),
            usage,
        };
        if let Some(flag) = args.unknown_flag() {
            args.fail(&format!("unknown flag {flag}"));
        }
        args
    }

    /// The first `--flag` in argv that is not a `--`-prefixed token of the
    /// usage line.
    fn unknown_flag(&self) -> Option<&str> {
        let known: Vec<&str> = self
            .usage
            .split_whitespace()
            .map(|t| t.trim_matches(|c| matches!(c, '[' | ']' | '(' | ')' | '|')))
            .filter(|t| t.starts_with("--"))
            .collect();
        self.argv
            .iter()
            .map(String::as_str)
            .find(|a| a.starts_with("--") && !known.contains(a))
    }

    /// Whether the bare flag `name` is present.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.argv.iter().any(|a| a == name)
    }

    /// The value after `name`, parsed as `T`: `Ok(None)` when `name` is
    /// absent, an error naming the flag when `name` is last, is followed by
    /// another `--flag`, or its value does not parse as `T`.
    fn try_value<T>(&self, name: &str) -> Result<Option<T>, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        let Some(i) = self.argv.iter().position(|a| a == name) else {
            return Ok(None);
        };
        match self.argv.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                v.parse().map(Some).map_err(|e| format!("{name} {v}: {e}"))
            }
            _ => Err(format!("{name} takes a value")),
        }
    }

    /// The value after `name`, parsed as `T`, or `None` when `name` is
    /// absent. A missing or malformed value exits through
    /// [`fail`](Self::fail).
    #[must_use]
    pub fn value<T>(&self, name: &str) -> Option<T>
    where
        T: FromStr,
        T::Err: Display,
    {
        self.try_value(name).unwrap_or_else(|e| self.fail(&e))
    }

    /// Prints `problem` with the usage line on one line of stderr and exits
    /// with status 2.
    pub fn fail(&self, problem: &str) -> ! {
        eprintln!("{problem}; usage: {}", self.usage);
        std::process::exit(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        with_usage(argv, "t")
    }

    fn with_usage(argv: &[&str], usage: &'static str) -> Args {
        Args {
            argv: argv.iter().map(|a| (*a).to_owned()).collect(),
            usage,
        }
    }

    #[test]
    fn only_flags_the_usage_line_names_are_accepted() {
        const USAGE: &str =
            "t (--trace OUT.json | --bench-shards OUT.json [--commands N]) [--smoke]";
        for ok in [
            &["--trace", "x.json"][..],
            &["--bench-shards", "b.json", "--commands", "8", "--smoke"],
            &[],
        ] {
            assert_eq!(with_usage(ok, USAGE).unknown_flag(), None, "{ok:?}");
        }
        let a = with_usage(&["--smoke", "--trace", "x.json", "--shards", "4"], USAGE);
        assert_eq!(a.unknown_flag(), Some("--shards"));
        // Prefixes, `=` forms and the usage's own words are not flags.
        for bad in ["--trac", "--trace=x.json", "--OUT.json", "--t"] {
            assert_eq!(with_usage(&[bad], USAGE).unknown_flag(), Some(bad));
        }
        // Values are not checked: only `--`-prefixed arguments are flags.
        assert_eq!(
            with_usage(&["--commands", "-1", "N"], USAGE).unknown_flag(),
            None
        );
    }

    #[test]
    fn present_flags_and_values_are_read() {
        let a = args(&["--smoke", "--count", "8", "--out", "x.json"]);
        assert!(a.flag("--smoke"));
        assert_eq!(a.try_value::<usize>("--count"), Ok(Some(8)));
        assert_eq!(a.try_value::<String>("--out"), Ok(Some("x.json".into())));
    }

    #[test]
    fn absent_flags_and_values_read_as_none() {
        let a = args(&["--smoke"]);
        assert!(!a.flag("--faults"));
        assert_eq!(a.try_value::<usize>("--count"), Ok(None));
        assert!(!args(&[]).flag("--smoke"));
    }

    #[test]
    fn a_value_flag_without_its_value_is_an_error() {
        let trailing = args(&["--smoke", "--out"]);
        assert_eq!(
            trailing.try_value::<String>("--out"),
            Err("--out takes a value".into())
        );
        let followed = args(&["--out", "--smoke"]);
        assert_eq!(
            followed.try_value::<String>("--out"),
            Err("--out takes a value".into())
        );
        // The flag itself still reads as present.
        assert!(followed.flag("--smoke"));
    }

    #[test]
    fn a_malformed_value_is_an_error() {
        let a = args(&["--count", "x", "--shards", "-1"]);
        let count = a.try_value::<usize>("--count").unwrap_err();
        assert!(count.starts_with("--count x: "), "{count}");
        assert!(a.try_value::<usize>("--shards").is_err());
        assert_eq!(a.try_value::<i64>("--shards"), Ok(Some(-1)));
    }
}
