//! The one flag parser behind every `vsched` subcommand.
//!
//! A subcommand declares its value flags (`--out <path>`) and switches
//! (`--quiet`) once, in [`Args::parse`], which splits the command line
//! into those and positionals and rejects any other `-`-prefixed token.
//! Typed getters then read the values, so a missing or malformed value
//! fails with a message naming its flag. A repeated flag keeps its last
//! value, except where [`Args::values`] reads every occurrence.

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

/// A command-line usage error, naming the flag or argument at fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// One subcommand's command line, split into declared flags and
/// positionals.
#[derive(Debug)]
pub struct Args {
    command: String,
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    positionals: VecDeque<String>,
}

impl Args {
    /// Splits `args`, the tokens after the subcommand `command` (named in
    /// messages, e.g. `trace run`), into the value flags and switches
    /// declared as whitespace-separated lists, and positionals. A value
    /// flag takes the next token, whatever it looks like.
    ///
    /// # Errors
    ///
    /// A value flag that ends the line, or an undeclared `-`-prefixed
    /// token.
    pub fn parse(
        command: &str,
        args: &[String],
        values: &'static str,
        switches: &'static str,
    ) -> Result<Self, UsageError> {
        let mut parsed = Args {
            command: command.to_string(),
            values: Vec::new(),
            switches: Vec::new(),
            positionals: VecDeque::new(),
        };
        let mut tokens = args.iter();
        while let Some(token) = tokens.next() {
            if let Some(flag) = values.split_whitespace().find(|f| f == token) {
                let value = tokens
                    .next()
                    .ok_or_else(|| UsageError(format!("`{flag}` requires a value")))?;
                parsed.values.push((flag, value.clone()));
            } else if let Some(flag) = switches.split_whitespace().find(|f| f == token) {
                parsed.switches.push(flag);
            } else if token.len() > 1 && token.starts_with('-') {
                return Err(UsageError(format!("unexpected argument `{token}`")));
            } else {
                parsed.positionals.push_back(token.clone());
            }
        }
        Ok(parsed)
    }

    /// The last value given for `flag`.
    #[must_use]
    pub fn value(&self, flag: &str) -> Option<String> {
        let mut given = self.values.iter().filter(|(f, _)| *f == flag);
        given.next_back().map(|(_, v)| v.clone())
    }

    /// Every value given for a repeatable `flag`, in command-line order.
    #[must_use]
    pub fn values(&self, flag: &str) -> Vec<String> {
        let given = self.values.iter().filter(|(f, _)| *f == flag);
        given.map(|(_, v)| v.clone()).collect()
    }

    /// Whether the switch `flag` was given.
    #[must_use]
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// `flag`'s value as a number; an error if it does not parse.
    pub fn number<T: FromStr>(&self, flag: &str) -> Result<Option<T>, UsageError> {
        self.checked(flag, "a number", |_| true)
    }

    /// `flag`'s value as a number of at least 1; an error otherwise.
    pub fn positive<T>(&self, flag: &str) -> Result<Option<T>, UsageError>
    where
        T: FromStr + PartialOrd + From<u8>,
    {
        self.checked(flag, "a positive number", |v| *v >= T::from(1))
    }

    /// `flag`'s value as a number of at least `min`; an error otherwise.
    pub fn at_least<T>(&self, flag: &str, min: T) -> Result<Option<T>, UsageError>
    where
        T: FromStr + PartialOrd + fmt::Display,
    {
        self.checked(flag, &format!("a number >= {min}"), |v| *v >= min)
    }

    /// `flag`'s value, which must be one of `choices`; an error otherwise.
    pub fn choice(
        &self,
        flag: &str,
        choices: &[&'static str],
    ) -> Result<Option<&'static str>, UsageError> {
        let Some(value) = self.value(flag) else {
            return Ok(None);
        };
        if let Some(&choice) = choices.iter().find(|c| **c == value) {
            return Ok(Some(choice));
        }
        let quoted: Vec<String> = choices.iter().map(|c| format!("`{c}`")).collect();
        let list = match quoted.split_last() {
            Some((last, rest)) if !rest.is_empty() => format!("{} or {last}", rest.join(", ")),
            _ => quoted.concat(),
        };
        Err(UsageError(format!("`{flag}` takes {list}")))
    }

    /// Takes the next positional argument, `what` (e.g. `a config
    /// file`); an error if none is left.
    pub fn positional(&mut self, what: &str) -> Result<String, UsageError> {
        let missing = || UsageError(format!("`vsched {}` needs {what}", self.command));
        self.positionals.pop_front().ok_or_else(missing)
    }

    /// Takes every remaining positional argument.
    pub fn rest(&mut self) -> Vec<String> {
        self.positionals.drain(..).collect()
    }

    /// Ends parsing; an error names the first positional nothing took.
    pub fn finish(self) -> Result<(), UsageError> {
        match self.positionals.front() {
            Some(extra) => Err(UsageError(format!("unexpected argument `{extra}`"))),
            None => Ok(()),
        }
    }

    fn checked<T: FromStr>(
        &self,
        flag: &str,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, UsageError> {
        let Some(text) = self.value(flag) else {
            return Ok(None);
        };
        match text.parse::<T>() {
            Ok(v) if ok(&v) => Ok(Some(v)),
            _ => Err(UsageError(format!("`{flag}` requires {what}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, UsageError> {
        let args: Vec<String> = tokens.iter().map(|t| (*t).to_string()).collect();
        Args::parse("demo", &args, "--out --jobs --agent", "--quiet")
    }

    #[test]
    fn declared_flags_switches_and_positionals_are_split() {
        let tokens = [
            "f", "--jobs", "4", "--quiet", "--agent", "a", "--agent", "b", "--out", "-x",
        ];
        let mut a = parse(&tokens).unwrap();
        assert_eq!(a.number::<usize>("--jobs").unwrap(), Some(4));
        assert_eq!(a.positive::<usize>("--jobs").unwrap(), Some(4));
        assert!(a.switch("--quiet"));
        assert_eq!(a.values("--agent"), ["a", "b"]);
        assert_eq!(a.value("--agent").as_deref(), Some("b"), "last one wins");
        // A value flag takes the next token even when it looks like a flag.
        assert_eq!(a.value("--out").as_deref(), Some("-x"));
        assert_eq!(a.positional("a file").unwrap(), "f");
        a.finish().unwrap();

        let a = parse(&[]).unwrap();
        assert_eq!(a.number::<u64>("--jobs").unwrap(), None);
        assert!(!a.switch("--quiet") && a.values("--agent").is_empty());
    }

    fn err<T: fmt::Debug>(result: Result<T, UsageError>) -> String {
        result.unwrap_err().0
    }

    #[test]
    fn every_usage_error_names_its_flag_or_argument() {
        assert_eq!(err(parse(&["--bogus"])), "unexpected argument `--bogus`");
        assert_eq!(err(parse(&["--jobs"])), "`--jobs` requires a value");
        let a = parse(&["--jobs", "x", "--out", "0"]).unwrap();
        assert_eq!(
            err(a.number::<usize>("--jobs")),
            "`--jobs` requires a number"
        );
        assert_eq!(
            err(a.positive::<u64>("--out")),
            "`--out` requires a positive number"
        );
        assert_eq!(
            err(a.at_least::<usize>("--out", 2)),
            "`--out` requires a number >= 2"
        );
        let a = parse(&["--out", "xml"]).unwrap();
        assert_eq!(
            err(a.choice("--out", &["text", "json"])),
            "`--out` takes `text` or `json`"
        );
        assert_eq!(
            err(a.choice("--out", &["broken"])),
            "`--out` takes `broken`"
        );
        assert_eq!(a.choice("--out", &["xml", "json"]).unwrap(), Some("xml"));

        let mut a = parse(&["one", "two"]).unwrap();
        assert_eq!(a.positional("a file").unwrap(), "one");
        assert_eq!(err(a.finish()), "unexpected argument `two`");
        assert_eq!(
            err(parse(&[]).unwrap().positional("a config file")),
            "`vsched demo` needs a config file"
        );
    }
}
