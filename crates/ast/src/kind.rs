//! ESTree node-kind vocabulary.
//!
//! [`NodeKind`] enumerates every syntactic unit the pipeline observes when
//! traversing an AST. The n-gram features of the paper are built over
//! streams of these kinds, and the control-flow construction classifies
//! kinds into statement-level and conditional categories (paper §III-A and
//! footnotes 2–4).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind (ESTree `type`) of an AST node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum NodeKind {
    Program,
    // Statements
    ExpressionStatement,
    BlockStatement,
    VariableDeclaration,
    VariableDeclarator,
    FunctionDeclaration,
    ClassDeclaration,
    IfStatement,
    ForStatement,
    ForInStatement,
    ForOfStatement,
    WhileStatement,
    DoWhileStatement,
    SwitchStatement,
    SwitchCase,
    TryStatement,
    CatchClause,
    ThrowStatement,
    ReturnStatement,
    BreakStatement,
    ContinueStatement,
    LabeledStatement,
    EmptyStatement,
    DebuggerStatement,
    WithStatement,
    // Expressions
    Identifier,
    Literal,
    ThisExpression,
    Super,
    ArrayExpression,
    ObjectExpression,
    Property,
    FunctionExpression,
    ArrowFunctionExpression,
    ClassExpression,
    ClassBody,
    MethodDefinition,
    PropertyDefinition,
    TemplateLiteral,
    TemplateElement,
    TaggedTemplateExpression,
    UnaryExpression,
    UpdateExpression,
    BinaryExpression,
    LogicalExpression,
    AssignmentExpression,
    ConditionalExpression,
    CallExpression,
    NewExpression,
    MemberExpression,
    SequenceExpression,
    SpreadElement,
    YieldExpression,
    AwaitExpression,
    MetaProperty,
    // Patterns
    ArrayPattern,
    ObjectPattern,
    AssignmentPattern,
    RestElement,
    // Modules and ES2020+ (appended to keep earlier ids stable)
    ImportDeclaration,
    ExportNamedDeclaration,
    ExportDefaultDeclaration,
    ExportAllDeclaration,
    ImportExpression,
    PrivateIdentifier,
}

impl NodeKind {
    /// Total number of distinct node kinds.
    pub const COUNT: usize = 65;

    /// All node kinds, in a fixed canonical order.
    pub const ALL: [NodeKind; Self::COUNT] = {
        use NodeKind::*;
        [
            Program,
            ExpressionStatement,
            BlockStatement,
            VariableDeclaration,
            VariableDeclarator,
            FunctionDeclaration,
            ClassDeclaration,
            IfStatement,
            ForStatement,
            ForInStatement,
            ForOfStatement,
            WhileStatement,
            DoWhileStatement,
            SwitchStatement,
            SwitchCase,
            TryStatement,
            CatchClause,
            ThrowStatement,
            ReturnStatement,
            BreakStatement,
            ContinueStatement,
            LabeledStatement,
            EmptyStatement,
            DebuggerStatement,
            WithStatement,
            Identifier,
            Literal,
            ThisExpression,
            Super,
            ArrayExpression,
            ObjectExpression,
            Property,
            FunctionExpression,
            ArrowFunctionExpression,
            ClassExpression,
            ClassBody,
            MethodDefinition,
            PropertyDefinition,
            TemplateLiteral,
            TemplateElement,
            TaggedTemplateExpression,
            UnaryExpression,
            UpdateExpression,
            BinaryExpression,
            LogicalExpression,
            AssignmentExpression,
            ConditionalExpression,
            CallExpression,
            NewExpression,
            MemberExpression,
            SequenceExpression,
            SpreadElement,
            YieldExpression,
            AwaitExpression,
            MetaProperty,
            ArrayPattern,
            ObjectPattern,
            AssignmentPattern,
            RestElement,
            ImportDeclaration,
            ExportNamedDeclaration,
            ExportDefaultDeclaration,
            ExportAllDeclaration,
            ImportExpression,
            PrivateIdentifier,
        ]
    };

    /// ESTree `type` string for this kind.
    pub fn as_str(self) -> &'static str {
        use NodeKind::*;
        match self {
            Program => "Program",
            ExpressionStatement => "ExpressionStatement",
            BlockStatement => "BlockStatement",
            VariableDeclaration => "VariableDeclaration",
            VariableDeclarator => "VariableDeclarator",
            FunctionDeclaration => "FunctionDeclaration",
            ClassDeclaration => "ClassDeclaration",
            IfStatement => "IfStatement",
            ForStatement => "ForStatement",
            ForInStatement => "ForInStatement",
            ForOfStatement => "ForOfStatement",
            WhileStatement => "WhileStatement",
            DoWhileStatement => "DoWhileStatement",
            SwitchStatement => "SwitchStatement",
            SwitchCase => "SwitchCase",
            TryStatement => "TryStatement",
            CatchClause => "CatchClause",
            ThrowStatement => "ThrowStatement",
            ReturnStatement => "ReturnStatement",
            BreakStatement => "BreakStatement",
            ContinueStatement => "ContinueStatement",
            LabeledStatement => "LabeledStatement",
            EmptyStatement => "EmptyStatement",
            DebuggerStatement => "DebuggerStatement",
            WithStatement => "WithStatement",
            Identifier => "Identifier",
            Literal => "Literal",
            ThisExpression => "ThisExpression",
            Super => "Super",
            ArrayExpression => "ArrayExpression",
            ObjectExpression => "ObjectExpression",
            Property => "Property",
            FunctionExpression => "FunctionExpression",
            ArrowFunctionExpression => "ArrowFunctionExpression",
            ClassExpression => "ClassExpression",
            ClassBody => "ClassBody",
            MethodDefinition => "MethodDefinition",
            PropertyDefinition => "PropertyDefinition",
            TemplateLiteral => "TemplateLiteral",
            TemplateElement => "TemplateElement",
            TaggedTemplateExpression => "TaggedTemplateExpression",
            UnaryExpression => "UnaryExpression",
            UpdateExpression => "UpdateExpression",
            BinaryExpression => "BinaryExpression",
            LogicalExpression => "LogicalExpression",
            AssignmentExpression => "AssignmentExpression",
            ConditionalExpression => "ConditionalExpression",
            CallExpression => "CallExpression",
            NewExpression => "NewExpression",
            MemberExpression => "MemberExpression",
            SequenceExpression => "SequenceExpression",
            SpreadElement => "SpreadElement",
            YieldExpression => "YieldExpression",
            AwaitExpression => "AwaitExpression",
            MetaProperty => "MetaProperty",
            ArrayPattern => "ArrayPattern",
            ObjectPattern => "ObjectPattern",
            AssignmentPattern => "AssignmentPattern",
            RestElement => "RestElement",
            ImportDeclaration => "ImportDeclaration",
            ExportNamedDeclaration => "ExportNamedDeclaration",
            ExportDefaultDeclaration => "ExportDefaultDeclaration",
            ExportAllDeclaration => "ExportAllDeclaration",
            ImportExpression => "ImportExpression",
            PrivateIdentifier => "PrivateIdentifier",
        }
    }

    /// Stable small integer id for this kind, usable as a feature index.
    pub fn id(self) -> u8 {
        self as u8
    }

    /// Whether this kind is a statement-level node (participates in
    /// control flow, paper §III-A).
    pub fn is_statement(self) -> bool {
        use NodeKind::*;
        matches!(
            self,
            ExpressionStatement
                | BlockStatement
                | VariableDeclaration
                | FunctionDeclaration
                | ClassDeclaration
                | IfStatement
                | ForStatement
                | ForInStatement
                | ForOfStatement
                | WhileStatement
                | DoWhileStatement
                | SwitchStatement
                | TryStatement
                | ThrowStatement
                | ReturnStatement
                | BreakStatement
                | ContinueStatement
                | LabeledStatement
                | EmptyStatement
                | DebuggerStatement
                | WithStatement
                | ImportDeclaration
                | ExportNamedDeclaration
                | ExportDefaultDeclaration
                | ExportAllDeclaration
        )
    }

    /// Conditional control-flow kinds used by the corpus pre-filter
    /// (paper footnote 2).
    pub fn is_conditional(self) -> bool {
        use NodeKind::*;
        matches!(
            self,
            DoWhileStatement
                | WhileStatement
                | ForStatement
                | ForOfStatement
                | ForInStatement
                | IfStatement
                | ConditionalExpression
                | TryStatement
                | SwitchStatement
        )
    }

    /// Function kinds used by the corpus pre-filter (paper footnote 3).
    pub fn is_function(self) -> bool {
        use NodeKind::*;
        matches!(self, ArrowFunctionExpression | FunctionExpression | FunctionDeclaration)
    }

    /// Call kinds used by the corpus pre-filter (paper footnote 4:
    /// `CallExpression` including `TaggedTemplateExpression`).
    pub fn is_call(self) -> bool {
        matches!(self, NodeKind::CallExpression | NodeKind::TaggedTemplateExpression)
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_strings_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in all_kinds() {
            assert!(seen.insert(k.as_str()), "duplicate kind string {}", k);
        }
    }

    fn all_kinds() -> Vec<NodeKind> {
        // Exercise every variant via the discriminant range.
        use NodeKind::*;
        vec![
            Program,
            ExpressionStatement,
            BlockStatement,
            VariableDeclaration,
            VariableDeclarator,
            FunctionDeclaration,
            ClassDeclaration,
            IfStatement,
            ForStatement,
            ForInStatement,
            ForOfStatement,
            WhileStatement,
            DoWhileStatement,
            SwitchStatement,
            SwitchCase,
            TryStatement,
            CatchClause,
            ThrowStatement,
            ReturnStatement,
            BreakStatement,
            ContinueStatement,
            LabeledStatement,
            EmptyStatement,
            DebuggerStatement,
            WithStatement,
            Identifier,
            Literal,
            ThisExpression,
            Super,
            ArrayExpression,
            ObjectExpression,
            Property,
            FunctionExpression,
            ArrowFunctionExpression,
            ClassExpression,
            ClassBody,
            MethodDefinition,
            PropertyDefinition,
            TemplateLiteral,
            TemplateElement,
            TaggedTemplateExpression,
            UnaryExpression,
            UpdateExpression,
            BinaryExpression,
            LogicalExpression,
            AssignmentExpression,
            ConditionalExpression,
            CallExpression,
            NewExpression,
            MemberExpression,
            SequenceExpression,
            SpreadElement,
            YieldExpression,
            AwaitExpression,
            MetaProperty,
            ArrayPattern,
            ObjectPattern,
            AssignmentPattern,
            RestElement,
            ImportDeclaration,
            ExportNamedDeclaration,
            ExportDefaultDeclaration,
            ExportAllDeclaration,
            ImportExpression,
            PrivateIdentifier,
        ]
    }

    #[test]
    fn statement_classification() {
        assert!(NodeKind::IfStatement.is_statement());
        assert!(NodeKind::ExpressionStatement.is_statement());
        assert!(!NodeKind::Identifier.is_statement());
        assert!(!NodeKind::ConditionalExpression.is_statement());
    }

    #[test]
    fn prefilter_categories_match_paper_footnotes() {
        // Footnote 2: conditional control-flow nodes.
        for k in [
            NodeKind::DoWhileStatement,
            NodeKind::WhileStatement,
            NodeKind::ForStatement,
            NodeKind::ForOfStatement,
            NodeKind::ForInStatement,
            NodeKind::IfStatement,
            NodeKind::ConditionalExpression,
            NodeKind::TryStatement,
            NodeKind::SwitchStatement,
        ] {
            assert!(k.is_conditional(), "{} must count as conditional", k);
        }
        // Footnote 3: function nodes.
        for k in [
            NodeKind::ArrowFunctionExpression,
            NodeKind::FunctionExpression,
            NodeKind::FunctionDeclaration,
        ] {
            assert!(k.is_function(), "{} must count as function", k);
        }
        // Footnote 4: CallExpression incl. tagged templates.
        assert!(NodeKind::CallExpression.is_call());
        assert!(NodeKind::TaggedTemplateExpression.is_call());
        assert!(!NodeKind::NewExpression.is_call());
    }

    #[test]
    fn all_const_is_complete_and_unique() {
        assert_eq!(NodeKind::ALL.len(), NodeKind::COUNT);
        let unique: std::collections::HashSet<_> = NodeKind::ALL.iter().collect();
        assert_eq!(unique.len(), NodeKind::COUNT);
        assert_eq!(NodeKind::ALL.len(), all_kinds().len());
    }

    #[test]
    fn ids_are_distinct_and_small() {
        let mut seen = std::collections::HashSet::new();
        for k in all_kinds() {
            assert!(seen.insert(k.id()));
            assert!((k.id() as usize) < 128);
        }
    }
}
