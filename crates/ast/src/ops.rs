//! Operator enumerations shared by expressions.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Binary operators (`BinaryExpression.operator` in ESTree).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinaryOp {
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `===`
    EqEqEq,
    /// `!==`
    NotEqEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `>>>`
    UShr,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `**`
    Exp,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `&`
    BitAnd,
    /// `in`
    In,
    /// `instanceof`
    InstanceOf,
}

impl BinaryOp {
    /// Source text of the operator.
    pub fn as_str(self) -> &'static str {
        use BinaryOp::*;
        match self {
            EqEq => "==",
            NotEq => "!=",
            EqEqEq => "===",
            NotEqEq => "!==",
            Lt => "<",
            LtEq => "<=",
            Gt => ">",
            GtEq => ">=",
            Shl => "<<",
            Shr => ">>",
            UShr => ">>>",
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Mod => "%",
            Exp => "**",
            BitOr => "|",
            BitXor => "^",
            BitAnd => "&",
            In => "in",
            InstanceOf => "instanceof",
        }
    }

    /// Binding power used by the parser and printer; higher binds tighter.
    pub fn precedence(self) -> u8 {
        use BinaryOp::*;
        match self {
            BitOr => 6,
            BitXor => 7,
            BitAnd => 8,
            EqEq | NotEq | EqEqEq | NotEqEq => 9,
            Lt | LtEq | Gt | GtEq | In | InstanceOf => 10,
            Shl | Shr | UShr => 11,
            Add | Sub => 12,
            Mul | Div | Mod => 13,
            Exp => 14,
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Logical operators (`LogicalExpression.operator`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LogicalOp {
    /// `&&`
    And,
    /// `||`
    Or,
    /// `??`
    NullishCoalescing,
}

impl LogicalOp {
    /// Source text of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            LogicalOp::And => "&&",
            LogicalOp::Or => "||",
            LogicalOp::NullishCoalescing => "??",
        }
    }

    /// Binding power; `&&` binds tighter than `||`/`??`.
    pub fn precedence(self) -> u8 {
        match self {
            LogicalOp::And => 5,
            LogicalOp::Or | LogicalOp::NullishCoalescing => 4,
        }
    }
}

impl fmt::Display for LogicalOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Unary operators (`UnaryExpression.operator`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnaryOp {
    /// `-`
    Minus,
    /// `+`
    Plus,
    /// `!`
    Not,
    /// `~`
    BitNot,
    /// `typeof`
    TypeOf,
    /// `void`
    Void,
    /// `delete`
    Delete,
}

impl UnaryOp {
    /// Source text of the operator.
    pub fn as_str(self) -> &'static str {
        use UnaryOp::*;
        match self {
            Minus => "-",
            Plus => "+",
            Not => "!",
            BitNot => "~",
            TypeOf => "typeof",
            Void => "void",
            Delete => "delete",
        }
    }
}

impl fmt::Display for UnaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Update operators (`UpdateExpression.operator`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UpdateOp {
    /// `++`
    Increment,
    /// `--`
    Decrement,
}

impl UpdateOp {
    /// Source text of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            UpdateOp::Increment => "++",
            UpdateOp::Decrement => "--",
        }
    }
}

impl fmt::Display for UpdateOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Assignment operators (`AssignmentExpression.operator`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    AddAssign,
    /// `-=`
    SubAssign,
    /// `*=`
    MulAssign,
    /// `/=`
    DivAssign,
    /// `%=`
    ModAssign,
    /// `**=`
    ExpAssign,
    /// `<<=`
    ShlAssign,
    /// `>>=`
    ShrAssign,
    /// `>>>=`
    UShrAssign,
    /// `|=`
    BitOrAssign,
    /// `^=`
    BitXorAssign,
    /// `&=`
    BitAndAssign,
    /// `&&=`
    AndAssign,
    /// `||=`
    OrAssign,
    /// `??=`
    NullishAssign,
}

impl AssignOp {
    /// Source text of the operator.
    pub fn as_str(self) -> &'static str {
        use AssignOp::*;
        match self {
            Assign => "=",
            AddAssign => "+=",
            SubAssign => "-=",
            MulAssign => "*=",
            DivAssign => "/=",
            ModAssign => "%=",
            ExpAssign => "**=",
            ShlAssign => "<<=",
            ShrAssign => ">>=",
            UShrAssign => ">>>=",
            BitOrAssign => "|=",
            BitXorAssign => "^=",
            BitAndAssign => "&=",
            AndAssign => "&&=",
            OrAssign => "||=",
            NullishAssign => "??=",
        }
    }

    /// Returns `true` for the plain `=` operator.
    pub fn is_plain(self) -> bool {
        matches!(self, AssignOp::Assign)
    }
}

impl fmt::Display for AssignOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Variable declaration kinds (`VariableDeclaration.kind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VarKind {
    /// `var` — function-scoped, hoisted.
    Var,
    /// `let` — block-scoped.
    Let,
    /// `const` — block-scoped, immutable binding.
    Const,
}

impl VarKind {
    /// Source keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            VarKind::Var => "var",
            VarKind::Let => "let",
            VarKind::Const => "const",
        }
    }

    /// `true` for `let`/`const` (lexical, block-scoped declarations).
    pub fn is_lexical(self) -> bool {
        !matches!(self, VarKind::Var)
    }
}

impl fmt::Display for VarKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_op_strings_roundtrip_uniquely() {
        use BinaryOp::*;
        let all = [
            EqEq, NotEq, EqEqEq, NotEqEq, Lt, LtEq, Gt, GtEq, Shl, Shr, UShr, Add, Sub, Mul, Div,
            Mod, Exp, BitOr, BitXor, BitAnd, In, InstanceOf,
        ];
        let mut seen = std::collections::HashSet::new();
        for op in all {
            assert!(seen.insert(op.as_str()), "duplicate operator text {}", op);
        }
    }

    #[test]
    fn precedence_ordering_matches_spec() {
        assert!(BinaryOp::Mul.precedence() > BinaryOp::Add.precedence());
        assert!(BinaryOp::Add.precedence() > BinaryOp::Shl.precedence());
        assert!(BinaryOp::Shl.precedence() > BinaryOp::Lt.precedence());
        assert!(BinaryOp::Lt.precedence() > BinaryOp::EqEq.precedence());
        assert!(BinaryOp::EqEq.precedence() > BinaryOp::BitAnd.precedence());
        assert!(BinaryOp::BitAnd.precedence() > BinaryOp::BitXor.precedence());
        assert!(BinaryOp::BitXor.precedence() > BinaryOp::BitOr.precedence());
        assert!(LogicalOp::And.precedence() > LogicalOp::Or.precedence());
        assert!(BinaryOp::BitOr.precedence() > LogicalOp::And.precedence());
    }

    #[test]
    fn var_kind_lexical() {
        assert!(!VarKind::Var.is_lexical());
        assert!(VarKind::Let.is_lexical());
        assert!(VarKind::Const.is_lexical());
        assert_eq!(VarKind::Const.to_string(), "const");
    }

    #[test]
    fn assign_op_plain() {
        assert!(AssignOp::Assign.is_plain());
        assert!(!AssignOp::AddAssign.is_plain());
    }
}
