//! A small, dependency-free command-line argument parser.
//!
//! Supports `--key value` flags and positional arguments, with typed
//! accessors and an unknown-flag check. Deliberately tiny — the CLI's
//! needs do not justify an external parser crate (see DESIGN.md §2.12).

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command-line flags and positionals.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: BTreeMap<String, String>,
    positionals: Vec<String>,
}

/// Error produced while parsing or validating arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `--key value` pairs and positionals from raw arguments.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter();
        while let Some(token) = iter.next() {
            if let Some(key) = token.strip_prefix("--") {
                let value = iter
                    .next()
                    .ok_or_else(|| ArgError(format!("--{key} expects a value")))?;
                if args.flags.insert(key.to_owned(), value).is_some() {
                    return Err(ArgError(format!("--{key} given twice")));
                }
            } else {
                args.positionals.push(token);
            }
        }
        Ok(args)
    }

    /// Positional arguments in order.
    #[allow(dead_code)] // used by tests and future subcommands
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// A required string flag.
    pub fn required(&self, key: &str) -> Result<&str, ArgError> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| ArgError(format!("missing required flag --{key}")))
    }

    /// An optional string flag.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// A typed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ArgError(format!("--{key}: cannot parse {raw:?}"))),
        }
    }

    /// A required typed flag.
    #[allow(dead_code)] // used by tests and future subcommands
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError> {
        let raw = self.required(key)?;
        raw.parse()
            .map_err(|_| ArgError(format!("--{key}: cannot parse {raw:?}")))
    }

    /// Fails with `why(flag)` for the first of `flags` that was given:
    /// flags that conflict with the mode the others chose.
    pub fn reject(&self, flags: &[&str], why: impl FnOnce(&str) -> String) -> Result<(), ArgError> {
        match flags.iter().find(|f| self.flags.contains_key(**f)) {
            Some(f) => Err(ArgError(why(f))),
            None => Ok(()),
        }
    }

    /// Rejects flags outside `allowed` (typo protection).
    pub fn check_known(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for key in self.flags.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(ArgError(format!(
                    "unknown flag --{key} (expected one of: {})",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ArgError> {
        Args::parse(tokens.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = parse(&["gen", "--routes", "100", "fib", "--seed", "7"]).unwrap();
        assert_eq!(a.positionals(), ["gen", "fib"]);
        assert_eq!(a.get::<usize>("routes").unwrap(), 100);
        assert_eq!(a.get::<u64>("seed").unwrap(), 7);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&["--routes"]).is_err());
    }

    #[test]
    fn duplicate_flag_is_an_error() {
        assert!(parse(&["--a", "1", "--a", "2"]).is_err());
    }

    #[test]
    fn defaults_and_required() {
        let a = parse(&["--x", "5"]).unwrap();
        assert_eq!(a.get_or("x", 0usize).unwrap(), 5);
        assert_eq!(a.get_or("y", 9usize).unwrap(), 9);
        assert!(a.required("z").is_err());
        assert!(a.get::<usize>("missing").is_err());
    }

    #[test]
    fn bad_type_is_an_error() {
        let a = parse(&["--x", "abc"]).unwrap();
        assert!(a.get::<usize>("x").is_err());
        assert!(a.get_or("x", 1usize).is_err());
    }

    #[test]
    fn unknown_flag_detection() {
        let a = parse(&["--good", "1", "--bad", "2"]).unwrap();
        assert!(a.check_known(&["good"]).is_err());
        assert!(a.check_known(&["good", "bad"]).is_ok());
    }
}
