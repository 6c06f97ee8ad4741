//! A small dependency-free flag parser for the CLI.
//!
//! Supports `--key value`, `--key=value` and bare `--flag` switches, plus
//! one leading positional subcommand, an optional positional action
//! (`karl index info …`), and trailing operands (`karl index build
//! DATA OUT`). Unknown flags are an error (typos should not be silently
//! ignored on a tool that runs long jobs); commands that take no action
//! or operands reject them at dispatch.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line: a subcommand, an optional action, trailing
/// operands, and flags.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    /// The leading subcommand, if any.
    pub command: Option<String>,
    /// The second positional (e.g. `build` in `karl index build`), if any.
    pub action: Option<String>,
    /// Positional operands after the action (e.g. the `DATA OUT` paths of
    /// `karl index build DATA OUT`). Commands that take none reject them
    /// at dispatch.
    pub rest: Vec<String>,
    flags: BTreeMap<String, String>,
}

/// Flag-parsing errors.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// `--key` appeared with no value while one was required downstream.
    MissingValue(String),
    /// A positional argument appeared after the subcommand.
    UnexpectedPositional(String),
    /// A flag the command does not know.
    UnknownFlag(String),
    /// A value failed to parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// Raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A required flag is missing.
    Required(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(k) => write!(f, "flag --{k} needs a value"),
            ArgError::UnexpectedPositional(p) => write!(f, "unexpected argument {p:?}"),
            ArgError::UnknownFlag(k) => write!(f, "unknown flag --{k}"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "--{flag} {value:?}: expected {expected}"),
            ArgError::Required(k) => write!(f, "missing required flag --{k}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Parsed {
    /// Parses raw arguments (without the program name).
    pub fn parse(args: &[String]) -> Result<Self, ArgError> {
        let mut out = Parsed::default();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(stripped) = a.strip_prefix("--") {
                if let Some((k, v)) = stripped.split_once('=') {
                    out.flags.insert(k.to_string(), v.to_string());
                } else if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    out.flags.insert(stripped.to_string(), args[i + 1].clone());
                    i += 1;
                } else {
                    // bare switch
                    out.flags.insert(stripped.to_string(), String::new());
                }
            } else if out.command.is_none() {
                out.command = Some(a.clone());
            } else if out.action.is_none() {
                out.action = Some(a.clone());
            } else {
                out.rest.push(a.clone());
            }
            i += 1;
        }
        Ok(out)
    }

    /// Checks every provided flag against the allowed set.
    pub fn expect_flags(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for k in self.flags.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(ArgError::UnknownFlag(k.clone()));
            }
        }
        Ok(())
    }

    /// Raw string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Required string flag.
    pub fn required(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key).ok_or_else(|| ArgError::Required(key.into()))
    }

    /// Optional typed flag.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        expected: &'static str,
    ) -> Result<Option<T>, ArgError> {
        match self.get(key) {
            None => Ok(None),
            Some("") => Err(ArgError::MissingValue(key.into())),
            Some(v) => v.parse::<T>().map(Some).map_err(|_| ArgError::BadValue {
                flag: key.into(),
                value: v.into(),
                expected,
            }),
        }
    }

    /// Typed flag with a default.
    pub fn get_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        Ok(self.get_parsed(key, expected)?.unwrap_or(default))
    }

    /// Whether a bare switch was given.
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Parsed, ArgError> {
        Parsed::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn subcommand_and_flags() {
        let p = parse(&["kde", "--data", "x.csv", "--eps=0.2", "--fast"]).unwrap();
        assert_eq!(p.command.as_deref(), Some("kde"));
        assert_eq!(p.get("data"), Some("x.csv"));
        assert_eq!(p.get("eps"), Some("0.2"));
        assert!(p.has("fast"));
    }

    #[test]
    fn typed_accessors() {
        let p = parse(&["x", "--eps", "0.25"]).unwrap();
        assert_eq!(p.get_or("eps", 0.1, "a number").unwrap(), 0.25);
        assert_eq!(p.get_or("tau", 9.0, "a number").unwrap(), 9.0);
        assert!(matches!(
            p.get_parsed::<f64>("eps", "a number"),
            Ok(Some(_))
        ));
    }

    #[test]
    fn bad_value_is_an_error() {
        let p = parse(&["x", "--eps", "lots"]).unwrap();
        assert!(matches!(
            p.get_or("eps", 0.1, "a number"),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let p = parse(&["x", "--whoops", "1"]).unwrap();
        assert_eq!(
            p.expect_flags(&["data"]),
            Err(ArgError::UnknownFlag("whoops".into()))
        );
    }

    #[test]
    fn action_positional_is_captured_and_operands_collected() {
        let p = parse(&["index", "info", "--eps", "0.1"]).unwrap();
        assert_eq!(p.command.as_deref(), Some("index"));
        assert_eq!(p.action.as_deref(), Some("info"));
        assert!(p.rest.is_empty());
        // Operands after the action land in `rest` in order (dispatch
        // rejects them for commands that take none).
        let p = parse(&["index", "build", "data.csv", "out.idx", "--leaf", "80"]).unwrap();
        assert_eq!(p.action.as_deref(), Some("build"));
        assert_eq!(p.rest, vec!["data.csv".to_string(), "out.idx".to_string()]);
        assert_eq!(p.get("leaf"), Some("80"));
    }

    #[test]
    fn required_flag_missing() {
        let p = parse(&["kde"]).unwrap();
        assert!(matches!(p.required("data"), Err(ArgError::Required(_))));
    }
}
