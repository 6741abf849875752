//! Tiny `--flag value` argument parser (no external dependencies).

use std::collections::BTreeMap;

/// Parsed flags plus positional arguments.
#[derive(Debug, Default)]
pub struct Args {
    flags: BTreeMap<String, Option<String>>,
    positional: Vec<String>,
    consumed: std::cell::RefCell<Vec<String>>,
    /// Flags read as switches ([`Args::switch`]), which take no value.
    switches: std::cell::RefCell<Vec<String>>,
    /// Whether the command read the positionals ([`Args::positional`]).
    positional_read: std::cell::Cell<bool>,
}

impl Args {
    /// Parses `--key value` pairs and bare positionals. A `--key`
    /// followed by another `--key` (or end of input) is a boolean
    /// flag.
    pub fn parse(argv: &[String]) -> Self {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(key) = a.strip_prefix("--") {
                let value = argv.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                if value.is_some() {
                    i += 1;
                }
                flags.insert(key.to_string(), value);
            } else {
                positional.push(a.clone());
            }
            i += 1;
        }
        Self {
            flags,
            positional,
            consumed: std::cell::RefCell::new(Vec::new()),
            switches: std::cell::RefCell::new(Vec::new()),
            positional_read: std::cell::Cell::new(false),
        }
    }

    /// A numeric flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the flag is present without a parseable
    /// value.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt_num(key)?.unwrap_or(default))
    }

    /// A numeric flag with no default (`None` when absent).
    ///
    /// # Errors
    ///
    /// Returns a message if the flag is present without a parseable
    /// value.
    pub fn opt_num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.string(key)?
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key}: cannot parse '{v}'"))
            })
            .transpose()
    }

    /// A string flag (`None` when absent).
    ///
    /// # Errors
    ///
    /// Returns a message if the flag is present without a value.
    pub fn string(&self, key: &str) -> Result<Option<String>, String> {
        self.consumed.borrow_mut().push(key.to_string());
        match self.flags.get(key) {
            None => Ok(None),
            Some(None) => Err(format!("--{key} needs a value")),
            Some(Some(v)) => Ok(Some(v.clone())),
        }
    }

    /// A boolean (presence) flag.
    pub fn switch(&self, key: &str) -> bool {
        self.consumed.borrow_mut().push(key.to_string());
        self.switches.borrow_mut().push(key.to_string());
        self.flags.contains_key(key)
    }

    /// Positional arguments; reading them marks them consumed.
    pub fn positional(&self) -> &[String] {
        self.positional_read.set(true);
        &self.positional
    }

    /// Errors if any flag was provided that no command consumed —
    /// catches typos like `--group` for `--groups` — or if a stray
    /// value would otherwise be dropped silently: positionals given to a
    /// command that never read them (`simulate --groups 10 42`), or a
    /// value after a switch (`simulate --raid6 42`).
    pub fn reject_unknown(&self) -> Result<(), String> {
        let consumed = self.consumed.borrow();
        for key in self.flags.keys() {
            if !consumed.iter().any(|c| c == key) {
                return Err(format!("unknown flag --{key}"));
            }
        }
        for key in self.switches.borrow().iter() {
            if let Some(Some(stray)) = self.flags.get(key) {
                return Err(format!(
                    "unexpected argument '{stray}' (--{key} takes no value)"
                ));
            }
        }
        match self.positional.first() {
            Some(stray) if !self.positional_read.get() => {
                Err(format!("unexpected argument '{stray}'"))
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        let v: Vec<String> = s.split_whitespace().map(String::from).collect();
        Args::parse(&v)
    }

    #[test]
    fn numbers_and_defaults() {
        let a = parse("--drives 12 --seed 7");
        assert_eq!(a.num("drives", 8usize).unwrap(), 12);
        assert_eq!(a.num("seed", 42u64).unwrap(), 7);
        assert_eq!(a.num("groups", 100usize).unwrap(), 100); // default
    }

    #[test]
    fn switches_and_positionals() {
        let a = parse("file.csv --raid6");
        assert!(a.switch("raid6"));
        assert!(!a.switch("raid5"));
        assert_eq!(a.positional(), &["file.csv".to_string()]);
    }

    #[test]
    fn missing_value_is_an_error() {
        let a = parse("--drives --raid6");
        assert!(a.num("drives", 8usize).is_err());
    }

    #[test]
    fn unparseable_value_is_an_error() {
        let a = parse("--drives eight");
        assert!(a.num("drives", 8usize).is_err());
    }

    #[test]
    fn unknown_flags_detected() {
        let a = parse("--groups 10 --typo 3");
        let _ = a.num("groups", 1usize);
        assert!(a.reject_unknown().is_err());
        let b = parse("--groups 10");
        let _ = b.num("groups", 1usize);
        assert!(b.reject_unknown().is_ok());
    }

    #[test]
    fn unread_positionals_detected() {
        let a = parse("--groups 10 42");
        let _ = a.num("groups", 1usize);
        assert_eq!(a.reject_unknown().unwrap_err(), "unexpected argument '42'");
        let b = parse("file.csv");
        assert_eq!(b.positional().len(), 1);
        assert!(b.reject_unknown().is_ok());
        let c = parse("--raid6 42");
        assert!(c.switch("raid6"));
        assert_eq!(
            c.reject_unknown().unwrap_err(),
            "unexpected argument '42' (--raid6 takes no value)"
        );
    }

    #[test]
    fn string_flags() {
        let a = parse("--scrub off");
        assert_eq!(a.string("scrub").unwrap().as_deref(), Some("off"));
        assert_eq!(a.string("other").unwrap(), None);
    }
}
