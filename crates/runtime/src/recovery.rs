//! ANTLR-style error recovery: the repair policy the parser consults
//! after a terminal match fails in recovery mode.
//!
//! [`repair_for`] only *chooses* among the three repair moves; the
//! parser executes them:
//!
//! * **single-token deletion** — the offending token is extraneous:
//!   consume it into an error node and match the expected token that
//!   follows it (`la(2)`).
//! * **single-token insertion** — the expected token is missing:
//!   synthesize it (no input consumed) when the current token is in the
//!   *expected set of the successor ATN state*, i.e. the parse can
//!   continue as if the token had been there.
//! * **sync-and-return** — neither local repair applies: consume tokens
//!   until one appears in the *resynchronization set* (the union of
//!   expected sets over the runtime rule-invocation stack's follow
//!   states, plus EOF), then return from the current rule.
//!
//! Recovery never engages during speculation — backtracking semantics
//! (Section 4.1) are unchanged — and the number of recorded errors is
//! capped by `max_errors`, after which the parser aborts like the strict
//! engine. All sets come from [`llstar_core::RecoverySets`], precomputed
//! from the same ATN that drives prediction.

use llstar_core::TokenSet;
use llstar_lexer::TokenType;

/// A repair move for a failed terminal match, chosen by [`repair_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Repair {
    /// Delete the offending token, then match the expected token.
    DeleteToken,
    /// Synthesize the expected token without consuming input.
    InsertToken,
    /// Consume until the resynchronization set, then return from the
    /// current rule.
    SyncAndReturn,
}

/// ANTLR's repair policy at a failed match of `expected`: single-token
/// deletion if `la2` (the token after the offender) matches, else
/// single-token insertion if `la1` is in `successor_expected` (the
/// expected set of the ATN state after the required token), else
/// sync-and-return. Generated parsers hard-code the same policy, which
/// keeps interpreted and generated diagnostics byte-identical.
pub(crate) fn repair_for(
    expected: TokenType,
    successor_expected: &TokenSet,
    la1: TokenType,
    la2: TokenType,
) -> Repair {
    if la2 == expected {
        Repair::DeleteToken
    } else if successor_expected.contains(la1) {
        Repair::InsertToken
    } else {
        Repair::SyncAndReturn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repairs_prefer_deletion_then_insertion() {
        let mut succ = TokenSet::new(8);
        succ.insert(TokenType(5));
        let t = TokenType;
        // la(2) matches: delete the offender.
        assert_eq!(repair_for(t(3), &succ, t(9), t(3)), Repair::DeleteToken);
        // la(1) viable after the missing token: insert.
        assert_eq!(repair_for(t(3), &succ, t(5), t(6)), Repair::InsertToken);
        // Neither: resynchronize.
        assert_eq!(repair_for(t(3), &succ, t(9), t(6)), Repair::SyncAndReturn);
    }
}
