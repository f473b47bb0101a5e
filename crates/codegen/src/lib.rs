//! JavaScript code generator (AST → source text) for the `jsdetect` suite.
//!
//! Two output styles are supported: readable pretty-printing with a
//! four-space indent ([`to_source`]) and compact whitespace-free output
//! ([`to_minified`]).
//! The compact mode is the layout engine underneath the *minification
//! simple* transformation technique; the transformation passes combine it
//! with identifier shortening and dead-code removal.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod gen;
mod writer;

pub use gen::{escape_string, format_number, to_minified, to_source};
