//! Recursive-descent JavaScript parser for the `jsdetect` suite.
//!
//! Plays the role Esprima plays in the paper: source text in, ESTree-style
//! AST out. See [`parse`], and [`parse_with_comments_budget`] for the
//! analysis front end's entry point, which also returns the comments and
//! the token statistics, so a script is lexed once.
//!
//! # Examples
//!
//! ```
//! use jsdetect_parser::parse;
//! use jsdetect_ast::{kind_stream, NodeKind};
//!
//! let prog = parse("function f(a) { return a * 2; }").unwrap();
//! assert!(kind_stream(&prog).contains(&NodeKind::FunctionDeclaration));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod parser;

pub use error::ParseError;
pub use parser::{parse, parse_with_budget, parse_with_comments_budget};
