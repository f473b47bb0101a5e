//! The built-in rule set.
//!
//! One module per rule; `RULES` holds one of each, in
//! [`crate::RULE_NAMES`] order.

mod comma_sequence;
mod debugger;
mod decoder;
mod density;
mod flattening;
mod global_array;
mod self_defending;
mod unreachable;
mod unused;

pub use comma_sequence::CommaSequenceDensity;
pub use debugger::DebuggerInLoop;
pub use decoder::StringDecoderCall;
pub use density::NonAlphanumericDensity;
pub use flattening::FlatteningDispatcher;
pub use global_array::GlobalStringArray;
pub use self_defending::SelfDefendingToString;
pub use unreachable::UnreachableCode;
pub use unused::UnusedBinding;

use crate::{Rule, N_RULES};

/// All built-in rules, in [`crate::RULE_NAMES`] order.
pub(crate) static RULES: [&dyn Rule; N_RULES] = [
    &UnreachableCode,
    &UnusedBinding,
    &FlatteningDispatcher,
    &GlobalStringArray,
    &StringDecoderCall,
    &DebuggerInLoop,
    &SelfDefendingToString,
    &NonAlphanumericDensity,
    &CommaSequenceDensity,
];
