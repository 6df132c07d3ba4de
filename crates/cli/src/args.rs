//! Minimal, dependency-free argument parsing for the `chameleon` CLI.

use std::collections::HashMap;

/// Parsed invocation: a subcommand path, positional operands, and
/// `--key value` / `--flag` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Invocation {
    /// Subcommand words before the first operand (e.g. `["rules", "check"]`).
    pub command: Vec<String>,
    /// Positional operands.
    pub positional: Vec<String>,
    /// `--key value` options (flags map to `"true"`).
    pub options: HashMap<String, String>,
}

/// Option keys that take no value.
const FLAGS: &[&str] = &[
    "help",
    "manual-lazy",
    "throwable",
    "builtin",
    // serve transport (`chameleon serve`)
    "stdin",
];

/// Option keys that take a value. Anything not listed here or in [`FLAGS`]
/// is rejected: a mistyped `--option` would otherwise silently swallow the
/// next positional as its "value".
const VALUE_OPTIONS: &[&str] = &[
    "depth",
    "sample",
    "top",
    "eval-every",
    "shutoff-below",
    "emit",
    "format",
    "deny",
    "every",
    "out",
    "threads",
    // serve transport and adaptation knobs (`chameleon serve`, also
    // accepted by `chameleon online`)
    "socket",
    "confirm",
    "min-potential",
];

/// Parses raw arguments (without the binary name).
///
/// # Errors
///
/// Returns a message when an option key is unknown (listing the valid
/// ones), when a value-taking option has no value, or when the
/// subcommand does not read the option.
pub fn parse(args: &[String]) -> Result<Invocation, String> {
    let mut inv = Invocation::default();
    let mut keys: Vec<&str> = Vec::new();
    let mut i = 0;
    let mut seen_positional = false;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            keys.push(key);
            if FLAGS.contains(&key) {
                inv.options.insert(key.to_owned(), "true".to_owned());
            } else if VALUE_OPTIONS.contains(&key) {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("option --{key} requires a value"))?;
                inv.options.insert(key.to_owned(), value.clone());
                i += 1;
            } else {
                return Err(format!(
                    "unknown option --{key}; valid options: {}",
                    valid_options().join(", ")
                ));
            }
        } else if !seen_positional && inv.command.len() < 2 && is_command_word(a) {
            inv.command.push(a.clone());
        } else {
            seen_positional = true;
            inv.positional.push(a.clone());
        }
        i += 1;
    }
    if let Some(cmd) = SUBCOMMANDS.iter().find(|c| c.path == inv.command) {
        if let Some(key) = keys
            .into_iter()
            .find(|&k| k != "help" && !cmd.option_keys().any(|o| o == k))
        {
            return Err(format!(
                "option --{key} does not apply to `{}`",
                cmd.path.join(" ")
            ));
        }
    }
    Ok(inv)
}

/// All recognised option keys, `--`-prefixed, flags first.
fn valid_options() -> Vec<String> {
    FLAGS
        .iter()
        .chain(VALUE_OPTIONS)
        .map(|k| format!("--{k}"))
        .collect()
}

/// One `chameleon` subcommand: its command-word path and the operand /
/// option synopsis shown in `--help`.
pub struct Subcommand {
    /// Command words, e.g. `["rules", "check"]`.
    pub path: &'static [&'static str],
    /// Synopsis after the command words (empty when the command is bare).
    /// Every `--key` it names is an option the command reads, and no
    /// other option is accepted (`--help` aside).
    pub usage: &'static str,
}

impl Subcommand {
    /// The option keys the usage synopsis names, without their `--`.
    pub fn option_keys(&self) -> impl Iterator<Item = &'static str> {
        self.usage
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|w| w.strip_prefix("--"))
    }
}

/// Single source of truth for the subcommand surface. Command-word
/// recognition, the generated `--help` text, the options each command
/// accepts, and the dispatch-coverage test all derive from this table, so
/// a new subcommand cannot be added without appearing in the help output.
pub const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        path: &["list-workloads"],
        usage: "",
    },
    Subcommand {
        path: &["profile"],
        usage: "<workload> [--depth N] [--sample N] [--top K] [--throwable] \
                [--threads N] [--emit events,timeline,heapprof] [--every N] [--out DIR]",
    },
    Subcommand {
        path: &["optimize"],
        usage: "<workload> [--top K] [--manual-lazy] [--depth N] [--sample N] [--throwable]",
    },
    Subcommand {
        path: &["online"],
        usage: "<workload> [--eval-every N] [--shutoff-below B] [--confirm K] \
                [--min-potential B] [--depth N] [--sample N] [--throwable]",
    },
    Subcommand {
        path: &["serve"],
        usage: "(--stdin | --socket PATH) [--eval-every N] [--confirm K] \
                [--min-potential B] [--shutoff-below B] [--depth N] [--sample N] \
                [--throwable]",
    },
    Subcommand {
        path: &["rules", "check"],
        usage: "<file.rules>",
    },
    Subcommand {
        path: &["rules", "eval"],
        usage: "<file.rules> <workload> [--depth N] [--sample N] [--throwable]",
    },
    Subcommand {
        path: &["lint"],
        usage: "<file.rules | --builtin> [--format text|json] [--deny LEVEL]",
    },
    Subcommand {
        path: &["help"],
        usage: "",
    },
];

fn is_command_word(a: &str) -> bool {
    SUBCOMMANDS.iter().any(|s| s.path.contains(&a))
}

impl Invocation {
    /// Numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn num(&self, key: &str, default: u64) -> Result<u64, String> {
        Ok(self.opt_num(key)?.unwrap_or(default))
    }

    /// Numeric option without a default (`None` when absent).
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn opt_num(&self, key: &str) -> Result<Option<u64>, String> {
        self.options
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("option --{key} expects a number, got `{v}`"))
            })
            .transpose()
    }

    /// Numeric option that must be at least 1 (`--every`, `--threads`).
    /// Zero used to be accepted here and silently clamped deep inside the
    /// heap; now it is rejected at parse time with the valid range.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse or is zero.
    pub fn num_at_least_one(&self, key: &str, default: u64) -> Result<u64, String> {
        let v = self.num(key, default)?;
        if v == 0 {
            return Err(format!(
                "option --{key} must be at least 1 (valid range: 1..), got 0"
            ));
        }
        Ok(v)
    }

    /// Whether a boolean flag was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Invocation {
        let args: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
        parse(&args).expect("parses")
    }

    #[test]
    fn subcommands_and_positionals() {
        let inv = p("profile tvla");
        assert_eq!(inv.command, vec!["profile"]);
        assert_eq!(inv.positional, vec!["tvla"]);

        let inv = p("rules check my.rules");
        assert_eq!(inv.command, vec!["rules", "check"]);
        assert_eq!(inv.positional, vec!["my.rules"]);
    }

    #[test]
    fn options_and_flags() {
        let inv = p("profile tvla --depth 3 --top 5 --throwable");
        assert_eq!(inv.options["depth"], "3");
        assert_eq!(inv.num("depth", 2).unwrap(), 3);
        assert_eq!(inv.num("top", 4).unwrap(), 5);
        assert_eq!(inv.num("sample", 1).unwrap(), 1);
        assert!(inv.flag("throwable"));
        assert!(!inv.flag("manual-lazy"));
    }

    #[test]
    fn unknown_option_is_rejected_with_the_valid_list() {
        // `--dept 3` used to swallow `3` as its value and keep going; a
        // typo must fail loudly instead.
        let args: Vec<String> = ["profile", "tvla", "--dept", "3"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let err = parse(&args).expect_err("typo rejected");
        assert!(err.contains("unknown option --dept"), "{err}");
        assert!(err.contains("--depth"), "should list valid keys: {err}");
        assert!(err.contains("--emit"), "{err}");
    }

    #[test]
    fn missing_value_is_an_error() {
        let args = vec![
            "profile".to_owned(),
            "tvla".to_owned(),
            "--depth".to_owned(),
        ];
        assert!(parse(&args).is_err());
    }

    #[test]
    fn bad_number_is_an_error() {
        let inv = p("profile tvla --depth x");
        assert!(inv.num("depth", 2).is_err());
    }

    #[test]
    fn zero_every_and_zero_threads_are_rejected_with_the_range() {
        for (args, key) in [
            ("profile synthetic --every 0", "every"),
            ("profile synthetic --threads 0", "threads"),
        ] {
            let inv = p(args);
            let err = inv.num_at_least_one(key, 1).expect_err("zero rejected");
            assert!(err.contains(&format!("--{key}")), "{err}");
            assert!(err.contains("at least 1"), "{err}");
            assert!(err.contains("1.."), "must name the valid range: {err}");
        }
        // Non-zero values and defaults pass through unchanged.
        let inv = p("profile synthetic --threads 4");
        assert_eq!(inv.num_at_least_one("threads", 1).unwrap(), 4);
        assert_eq!(inv.num_at_least_one("every", 7).unwrap(), 7);
    }

    #[test]
    fn lint_command_and_options() {
        let inv = p("lint my.rules --format json --deny warn");
        assert_eq!(inv.command, vec!["lint"]);
        assert_eq!(inv.positional, vec!["my.rules"]);
        assert_eq!(inv.options["format"], "json");
        assert_eq!(inv.options["deny"], "warn");
        let inv = p("lint --builtin");
        assert_eq!(inv.command, vec!["lint"]);
        assert!(inv.flag("builtin"));
        assert!(inv.positional.is_empty());
    }

    #[test]
    fn profile_emit_options() {
        let inv = p("profile synthetic --emit events,heapprof --every 2 --out profdir");
        assert_eq!(inv.command, vec!["profile"]);
        assert_eq!(inv.positional, vec!["synthetic"]);
        assert_eq!(inv.options["emit"], "events,heapprof");
        assert_eq!(inv.num("every", 1).unwrap(), 2);
        assert_eq!(inv.options["out"], "profdir");
    }

    #[test]
    fn usage_synopses_and_option_tables_agree() {
        // Every option a synopsis names parses, and every parseable option
        // is read by some subcommand.
        for c in SUBCOMMANDS {
            for k in c.option_keys() {
                assert!(
                    FLAGS.contains(&k) || VALUE_OPTIONS.contains(&k),
                    "`{}` names unknown option --{k}",
                    c.path.join(" ")
                );
            }
        }
        for k in FLAGS.iter().chain(VALUE_OPTIONS).filter(|&&k| k != "help") {
            assert!(
                SUBCOMMANDS.iter().any(|c| c.option_keys().any(|o| o == *k)),
                "no subcommand reads --{k}"
            );
        }
    }

    #[test]
    fn command_words_after_positionals_are_positional() {
        let inv = p("rules eval custom.rules tvla");
        assert_eq!(inv.command, vec!["rules", "eval"]);
        assert_eq!(inv.positional, vec!["custom.rules", "tvla"]);
    }
}
