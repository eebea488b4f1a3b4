//! Abstract syntax tree for mini-C.

use crate::token::Span;
use std::fmt;

/// Integer width classes of mini-C (`char`/`short`/`int`/`long`).
///
/// Widths only influence the hardware cost models (area/weight per
/// bitwidth); interpretation is performed in full `i64` like a typical
/// 2000s DSP C compiler targeting 32-bit semantics with widening.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IntWidth {
    /// 8-bit (`char`).
    W8,
    /// 16-bit (`short`).
    W16,
    /// 32-bit (`int`).
    W32,
    /// 64-bit (`long`).
    W64,
}

impl IntWidth {
    /// The width in bits.
    pub fn bits(self) -> u16 {
        match self {
            IntWidth::W8 => 8,
            IntWidth::W16 => 16,
            IntWidth::W32 => 32,
            IntWidth::W64 => 64,
        }
    }
}

impl fmt::Display for IntWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.bits())
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl BinOp {
    /// Whether the result is boolean (0/1).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// The C spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-`.
    Neg,
    /// Bitwise complement `~`.
    BitNot,
    /// Logical not `!` (result 0/1).
    LogicalNot,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnOp::Neg => "-",
            UnOp::BitNot => "~",
            UnOp::LogicalNot => "!",
        })
    }
}

/// An expression node.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit {
        /// The literal value.
        value: i64,
        /// Source location.
        span: Span,
    },
    /// Scalar variable reference.
    Var {
        /// Variable name.
        name: String,
        /// Source location.
        span: Span,
    },
    /// Array element read `name[index]`.
    Index {
        /// Array name.
        name: String,
        /// Index expression.
        index: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// Short-circuit `&&` / `||`.
    Logical {
        /// `true` for `&&`, `false` for `||`.
        is_and: bool,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// Conditional expression `cond ? a : b`.
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value if the condition is non-zero.
        then_val: Box<Expr>,
        /// Value if the condition is zero.
        else_val: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// Function call.
    Call {
        /// Callee name.
        callee: String,
        /// Argument expressions.
        args: Vec<Expr>,
        /// Source location.
        span: Span,
    },
}

impl Expr {
    /// The source span of this expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::IntLit { span, .. }
            | Expr::Var { span, .. }
            | Expr::Index { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Logical { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Ternary { span, .. }
            | Expr::Call { span, .. } => *span,
        }
    }
}

/// An assignment target: a scalar variable or an array element.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Scalar variable.
    Var {
        /// Variable name.
        name: String,
        /// Source location.
        span: Span,
    },
    /// Array element.
    Index {
        /// Array name.
        name: String,
        /// Index expression.
        index: Expr,
        /// Source location.
        span: Span,
    },
}

impl LValue {
    /// The source span of this lvalue.
    pub fn span(&self) -> Span {
        match self {
            LValue::Var { span, .. } | LValue::Index { span, .. } => *span,
        }
    }
}

/// A statement node.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Scalar declaration `int x = init;` (init optional).
    Decl {
        /// Declared width.
        width: IntWidth,
        /// Variable name.
        name: String,
        /// Optional initialiser.
        init: Option<Expr>,
        /// Source location.
        span: Span,
    },
    /// Local array declaration `int a[N];`.
    ArrayDecl {
        /// Element width.
        width: IntWidth,
        /// Array name.
        name: String,
        /// Number of elements.
        len: usize,
        /// Source location.
        span: Span,
    },
    /// Assignment `lv = value;` (compound assignments are desugared by the
    /// parser into plain assignments).
    Assign {
        /// Target.
        target: LValue,
        /// Value expression.
        value: Expr,
        /// Source location.
        span: Span,
    },
    /// `if (cond) then_branch [else else_branch]`.
    If {
        /// Condition.
        cond: Expr,
        /// Taken when `cond != 0`.
        then_branch: Vec<Stmt>,
        /// Taken when `cond == 0`.
        else_branch: Vec<Stmt>,
        /// Source location.
        span: Span,
    },
    /// `while (cond) body`.
    While {
        /// Condition (tested before each iteration).
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source location.
        span: Span,
    },
    /// `do body while (cond);`.
    DoWhile {
        /// Loop body (executed at least once).
        body: Vec<Stmt>,
        /// Condition (tested after each iteration).
        cond: Expr,
        /// Source location.
        span: Span,
    },
    /// `for (init; cond; step) body`. All three headers optional.
    For {
        /// Initialiser statement.
        init: Option<Box<Stmt>>,
        /// Condition; `None` means always true.
        cond: Option<Expr>,
        /// Step statement.
        step: Option<Box<Stmt>>,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source location.
        span: Span,
    },
    /// `return [expr];`.
    Return {
        /// Returned value, if any.
        value: Option<Expr>,
        /// Source location.
        span: Span,
    },
    /// `break;`
    Break {
        /// Source location.
        span: Span,
    },
    /// `continue;`
    Continue {
        /// Source location.
        span: Span,
    },
    /// An expression evaluated for its side effects (a call).
    ExprStmt {
        /// The expression.
        expr: Expr,
        /// Source location.
        span: Span,
    },
    /// A braced block introducing a scope.
    Block {
        /// Statements in the block.
        body: Vec<Stmt>,
        /// Source location.
        span: Span,
    },
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    /// Function name.
    pub name: String,
    /// `None` for `void` functions.
    pub return_width: Option<IntWidth>,
    /// Scalar parameters `(width, name)`.
    pub params: Vec<(IntWidth, String)>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source location of the signature.
    pub span: Span,
}

/// A global array definition with optional initialiser list.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalArrayDef {
    /// Element width.
    pub width: IntWidth,
    /// Array name.
    pub name: String,
    /// Number of elements.
    pub len: usize,
    /// Initial values (zero-padded to `len`; empty means all zeros).
    pub init: Vec<i64>,
    /// Source location.
    pub span: Span,
}

/// A whole translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Global arrays, in declaration order.
    pub globals: Vec<GlobalArrayDef>,
    /// Functions, in declaration order.
    pub functions: Vec<FunctionDef>,
}

impl Program {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&FunctionDef> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Find a global array by name.
    pub fn global(&self, name: &str) -> Option<&GlobalArrayDef> {
        self.globals.iter().find(|g| g.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(IntWidth::W8.bits(), 8);
        assert_eq!(IntWidth::W64.bits(), 64);
        assert_eq!(IntWidth::W16.to_string(), "i16");
    }

    #[test]
    fn binop_properties() {
        assert!(BinOp::Lt.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert_eq!(BinOp::Shl.symbol(), "<<");
    }

    #[test]
    fn expr_span_access() {
        let e = Expr::IntLit {
            value: 1,
            span: Span::new(3, 4, 1, 4),
        };
        assert_eq!(e.span().start, 3);
    }
}
