//! # chameleon-rules
//!
//! The implementation-selection rule language of Chameleon (PLDI 2009,
//! §3.3, Fig. 4) and its engine.
//!
//! Rules have the shape `srcType : cond -> implType(capacity)? "message"?`
//! where `cond` ranges over the profiled metrics of Table 1: `#op`
//! operation counts, `@op` deviations, trace data (`size`, `maxSize`,
//! `initialCapacity`, …) and heap data (`totLive`, `totUsed`, `maxLive`,
//! `potential`, …). The crate provides:
//!
//! * a lexer, recursive-descent [`parser`], and spanned [`diag`]nostics;
//! * a [`check`] pass (boolean conditions, bound parameters, known
//!   targets);
//! * a whole-ruleset static [`analyze`]r (shadowed rules, unsatisfiable
//!   conditions, kind-mismatched targets) over an [`interval`] abstract
//!   domain, surfaced as `chameleon lint` and [`engine::LintMode`];
//! * an [`eval`]uator over per-context metric environments;
//! * the [`builtin`] Table 2 rule set with named tuning parameters;
//! * the [`RuleEngine`], which applies the Definition 3.1 stability gate
//!   and the minimum-potential gate, and emits [`Suggestion`]s convertible
//!   into factory policy updates.
//!
//! # Examples
//!
//! ```
//! use chameleon_rules::{parse_rule, RuleEngine};
//!
//! // The paper's small-map rule, with a tuned threshold:
//! let rule = parse_rule(
//!     r#"HashMap : maxSize < 16 && maxSize > 0 -> ArrayMap(maxSize) "Space: small map""#,
//! ).unwrap();
//! assert_eq!(rule.to_string().split(" -> ").count(), 2);
//!
//! let mut engine = RuleEngine::builtin();
//! engine.set_param("SMALL", 12.0);
//! ```

#![forbid(unsafe_code)]

pub mod analyze;
pub mod ast;
pub mod builtin;
pub mod check;
pub mod diag;
pub mod engine;
pub mod eval;
pub mod interval;
pub mod kinds;
pub mod lexer;
pub mod parser;
pub mod suggest;
pub mod token;

pub use analyze::{analyze, analyze_source, LintReport};
pub use ast::{Action, Category, Rule, TypePat};
pub use builtin::{BUILTIN_RULES, DEFAULT_PARAMS};
pub use diag::{Diagnostic, Note, RuleError, Severity, Span};
pub use engine::{LintMode, RuleEngine};
pub use kinds::Kind;
pub use parser::{parse_rule, parse_rules};
pub use suggest::{PolicyUpdate, Suggestion};
