//! Recursive-descent parser for mini-C.
//!
//! Grammar (EBNF sketch):
//!
//! ```text
//! program     := (global_array | function)*
//! global_array:= width ident '[' intlit ']' ('=' '{' intlit (',' intlit)* '}')? ';'
//! function    := (width | 'void') ident '(' params? ')' block
//! params      := width ident (',' width ident)*
//! block       := '{' stmt* '}'
//! stmt        := decl | assign | if | while | do-while | for | return
//!              | break | continue | exprstmt | block
//! ```
//!
//! Compound assignments (`+=`, `<<=`, …) and `++`/`--` are desugared into
//! plain assignments during parsing; short-circuit `&&`/`||` and `?:` are
//! kept structured for the lowering pass to expand into control flow.

use crate::ast::*;
use crate::token::{Keyword, Span, Token, TokenKind};
use crate::CompileError;

/// Parse a full translation unit.
///
/// # Errors
///
/// Returns the first [`CompileError`] encountered (no recovery — the flows
/// this frontend feeds want all-or-nothing input).
///
/// # Examples
///
/// ```
/// use amdrel_minic::{lexer::lex, parser::parse};
///
/// # fn main() -> Result<(), amdrel_minic::CompileError> {
/// let tokens = lex("int main() { return 1 + 2; }")?;
/// let program = parse(&tokens)?;
/// assert_eq!(program.functions.len(), 1);
/// assert_eq!(program.functions[0].name, "main");
/// # Ok(())
/// # }
/// ```
pub fn parse(tokens: &[Token]) -> Result<Program, CompileError> {
    Parser::new(tokens).program()
}

/// Deepest nesting the parser accepts. Every nested statement, every
/// expression (parenthesised, call argument, index, ternary arm),
/// every prefix operator and every operator of a binary chain counts
/// one level. The OFDM, JPEG and Sobel case studies reach six levels
/// and about nine operators per expression, far below 128.
/// It is also safe on a debug build's 2 MiB test-thread stack:
/// parentheses, the costliest shape, take about 7 KiB of debug stack
/// per level, so the limit uses roughly half of it, and the recursive
/// passes after parsing need less. Without a bound, 20,000 nested
/// parentheses overflow the stack and abort the process.
const MAX_NESTING: usize = 128;

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Current nesting level, bounded by [`MAX_NESTING`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(tokens: &'a [Token]) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    /// Go one nesting level deeper, failing at the current token once
    /// the nesting passes [`MAX_NESTING`].
    fn descend(&mut self) -> Result<(), CompileError> {
        if self.depth == MAX_NESTING {
            return Err(CompileError::new(
                format!("nesting deeper than {MAX_NESTING} levels"),
                self.span(),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    /// Run `parse` one nesting level deeper (see [`Parser::descend`]).
    fn nested<T>(
        &mut self,
        parse: fn(&mut Self) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        self.descend()?;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_at(&self, offset: usize) -> &TokenKind {
        &self.tokens[(self.pos + offset).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn bump(&mut self) -> &'a Token {
        let t = &self.tokens[self.pos.min(self.tokens.len() - 1)];
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Span, CompileError> {
        if self.peek() == kind {
            Ok(self.bump().span)
        } else {
            Err(CompileError::new(
                format!("expected {kind}, found {}", self.peek()),
                self.span(),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), CompileError> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                let span = self.bump().span;
                Ok((name, span))
            }
            other => Err(CompileError::new(
                format!("expected identifier, found {other}"),
                self.span(),
            )),
        }
    }

    fn width_keyword(&mut self) -> Option<IntWidth> {
        let w = match self.peek() {
            TokenKind::Keyword(Keyword::Char) => IntWidth::W8,
            TokenKind::Keyword(Keyword::Short) => IntWidth::W16,
            TokenKind::Keyword(Keyword::Int) => IntWidth::W32,
            TokenKind::Keyword(Keyword::Long) => IntWidth::W64,
            _ => return None,
        };
        self.bump();
        Some(w)
    }

    fn program(&mut self) -> Result<Program, CompileError> {
        let mut program = Program::default();
        while self.peek() != &TokenKind::Eof {
            // Lookahead: width ident '[' → global array; otherwise function.
            let is_void = matches!(self.peek(), TokenKind::Keyword(Keyword::Void));
            let is_width = matches!(
                self.peek(),
                TokenKind::Keyword(Keyword::Int | Keyword::Short | Keyword::Char | Keyword::Long)
            );
            if !is_void && !is_width {
                return Err(CompileError::new(
                    format!("expected type at top level, found {}", self.peek()),
                    self.span(),
                ));
            }
            if is_width && matches!(self.peek_at(2), TokenKind::LBracket) {
                program.globals.push(self.global_array()?);
            } else {
                program.functions.push(self.function()?);
            }
        }
        Ok(program)
    }

    fn global_array(&mut self) -> Result<GlobalArrayDef, CompileError> {
        let start = self.span();
        let width = self.width_keyword().expect("caller checked width keyword");
        let (name, _) = self.expect_ident()?;
        self.expect(&TokenKind::LBracket)?;
        let len = self.int_literal()? as usize;
        self.expect(&TokenKind::RBracket)?;
        let mut init = Vec::new();
        if self.eat(&TokenKind::Assign) {
            self.expect(&TokenKind::LBrace)?;
            if self.peek() != &TokenKind::RBrace {
                loop {
                    init.push(self.signed_int_literal()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RBrace)?;
            if init.len() > len {
                return Err(CompileError::new(
                    format!(
                        "array '{name}' initialiser has {} values but length is {len}",
                        init.len()
                    ),
                    start,
                ));
            }
        }
        let end = self.expect(&TokenKind::Semi)?;
        Ok(GlobalArrayDef {
            width,
            name,
            len,
            init,
            span: start.merge(end),
        })
    }

    fn int_literal(&mut self) -> Result<i64, CompileError> {
        match *self.peek() {
            TokenKind::IntLit(v) => {
                self.bump();
                Ok(v)
            }
            ref other => Err(CompileError::new(
                format!("expected integer literal, found {other}"),
                self.span(),
            )),
        }
    }

    fn signed_int_literal(&mut self) -> Result<i64, CompileError> {
        if self.eat(&TokenKind::Minus) {
            Ok(-self.int_literal()?)
        } else {
            self.int_literal()
        }
    }

    fn function(&mut self) -> Result<FunctionDef, CompileError> {
        let start = self.span();
        let return_width = if self.eat(&TokenKind::Keyword(Keyword::Void)) {
            None
        } else {
            Some(
                self.width_keyword()
                    .ok_or_else(|| CompileError::new("expected return type", self.span()))?,
            )
        };
        let (name, _) = self.expect_ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &TokenKind::RParen {
            // Allow `void` as an empty parameter list, C-style.
            if self.eat(&TokenKind::Keyword(Keyword::Void)) {
                // nothing
            } else {
                loop {
                    let w = self
                        .width_keyword()
                        .ok_or_else(|| CompileError::new("expected parameter type", self.span()))?;
                    let (pname, _) = self.expect_ident()?;
                    params.push((w, pname));
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        let body = self.block()?;
        Ok(FunctionDef {
            name,
            return_width,
            params,
            body,
            span: start,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.expect(&TokenKind::LBrace)?;
        let mut body = Vec::new();
        while self.peek() != &TokenKind::RBrace {
            if self.peek() == &TokenKind::Eof {
                return Err(CompileError::new("unterminated block", self.span()));
            }
            body.push(self.nested(Self::stmt)?);
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(body)
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::Keyword(Keyword::Int | Keyword::Short | Keyword::Char | Keyword::Long) => {
                self.decl()
            }
            TokenKind::Keyword(Keyword::If) => self.if_stmt(),
            TokenKind::Keyword(Keyword::While) => self.while_stmt(),
            TokenKind::Keyword(Keyword::Do) => self.do_while_stmt(),
            TokenKind::Keyword(Keyword::For) => self.for_stmt(),
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Return { value, span })
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Break { span })
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Continue { span })
            }
            TokenKind::LBrace => {
                let body = self.block()?;
                Ok(Stmt::Block { body, span })
            }
            _ => self.simple_stmt_semicolon(),
        }
    }

    fn decl(&mut self) -> Result<Stmt, CompileError> {
        let span = self.span();
        let width = self.width_keyword().expect("caller checked");
        let (name, _) = self.expect_ident()?;
        if self.eat(&TokenKind::LBracket) {
            let len = self.int_literal()? as usize;
            self.expect(&TokenKind::RBracket)?;
            self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::ArrayDecl {
                width,
                name,
                len,
                span,
            });
        }
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(&TokenKind::Semi)?;
        Ok(Stmt::Decl {
            width,
            name,
            init,
            span,
        })
    }

    fn if_stmt(&mut self) -> Result<Stmt, CompileError> {
        let span = self.span();
        self.bump(); // if
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let then_branch = self.stmt_as_block()?;
        let else_branch = if self.eat(&TokenKind::Keyword(Keyword::Else)) {
            self.stmt_as_block()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
            span,
        })
    }

    fn while_stmt(&mut self) -> Result<Stmt, CompileError> {
        let span = self.span();
        self.bump(); // while
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let body = self.stmt_as_block()?;
        Ok(Stmt::While { cond, body, span })
    }

    fn do_while_stmt(&mut self) -> Result<Stmt, CompileError> {
        let span = self.span();
        self.bump(); // do
        let body = self.stmt_as_block()?;
        self.expect(&TokenKind::Keyword(Keyword::While))?;
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::Semi)?;
        Ok(Stmt::DoWhile { body, cond, span })
    }

    fn for_stmt(&mut self) -> Result<Stmt, CompileError> {
        let span = self.span();
        self.bump(); // for
        self.expect(&TokenKind::LParen)?;
        let init = if self.peek() == &TokenKind::Semi {
            self.bump();
            None
        } else if matches!(
            self.peek(),
            TokenKind::Keyword(Keyword::Int | Keyword::Short | Keyword::Char | Keyword::Long)
        ) {
            Some(Box::new(self.decl()?))
        } else {
            let s = self.simple_stmt()?;
            self.expect(&TokenKind::Semi)?;
            Some(Box::new(s))
        };
        let cond = if self.peek() == &TokenKind::Semi {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(&TokenKind::Semi)?;
        let step = if self.peek() == &TokenKind::RParen {
            None
        } else {
            Some(Box::new(self.simple_stmt()?))
        };
        self.expect(&TokenKind::RParen)?;
        let body = self.stmt_as_block()?;
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
            span,
        })
    }

    fn stmt_as_block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        if self.peek() == &TokenKind::LBrace {
            self.block()
        } else {
            Ok(vec![self.nested(Self::stmt)?])
        }
    }

    fn simple_stmt_semicolon(&mut self) -> Result<Stmt, CompileError> {
        let s = self.simple_stmt()?;
        self.expect(&TokenKind::Semi)?;
        Ok(s)
    }

    /// An assignment / increment / call, without the trailing semicolon
    /// (shared between expression statements and `for` headers).
    fn simple_stmt(&mut self) -> Result<Stmt, CompileError> {
        let span = self.span();
        // lvalue-leading forms need lookahead: ident ('[' ... ']')? assign-op
        if let TokenKind::Ident(name) = self.peek().clone() {
            // Scan ahead to find what follows the lvalue.
            let after = if matches!(self.peek_at(1), TokenKind::LBracket) {
                // Find matching ']' by scanning with a depth counter.
                let mut depth = 0usize;
                let mut i = self.pos + 1;
                loop {
                    match &self.tokens[i.min(self.tokens.len() - 1)].kind {
                        TokenKind::LBracket => depth += 1,
                        TokenKind::RBracket => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        TokenKind::Eof => break,
                        _ => {}
                    }
                    i += 1;
                }
                self.tokens[(i + 1).min(self.tokens.len() - 1)].kind.clone()
            } else {
                self.peek_at(1).clone()
            };

            let compound = |op: BinOp| Some(op);
            let desugar_op = match after {
                TokenKind::Assign => None,
                TokenKind::PlusAssign => compound(BinOp::Add),
                TokenKind::MinusAssign => compound(BinOp::Sub),
                TokenKind::StarAssign => compound(BinOp::Mul),
                TokenKind::ShlAssign => compound(BinOp::Shl),
                TokenKind::ShrAssign => compound(BinOp::Shr),
                TokenKind::AmpAssign => compound(BinOp::And),
                TokenKind::PipeAssign => compound(BinOp::Or),
                TokenKind::CaretAssign => compound(BinOp::Xor),
                TokenKind::PlusPlus | TokenKind::MinusMinus => {
                    // i++ / i-- desugars to i = i ± 1.
                    let target = self.lvalue()?;
                    let is_inc = self.peek() == &TokenKind::PlusPlus;
                    self.bump();
                    let value = Expr::Binary {
                        op: if is_inc { BinOp::Add } else { BinOp::Sub },
                        lhs: Box::new(lvalue_to_expr(&target)),
                        rhs: Box::new(Expr::IntLit { value: 1, span }),
                        span,
                    };
                    return Ok(Stmt::Assign {
                        target,
                        value,
                        span,
                    });
                }
                _ => {
                    // Not an assignment — it must be a call expression.
                    let expr = self.expr()?;
                    if !matches!(expr, Expr::Call { .. }) {
                        return Err(CompileError::new(
                            format!("expression statement '{name}…' has no effect"),
                            span,
                        ));
                    }
                    return Ok(Stmt::ExprStmt { expr, span });
                }
            };

            let target = self.lvalue()?;
            self.bump(); // the (compound) assignment token
            let rhs = self.expr()?;
            let value = match desugar_op {
                None => rhs,
                Some(op) => Expr::Binary {
                    op,
                    lhs: Box::new(lvalue_to_expr(&target)),
                    rhs: Box::new(rhs),
                    span,
                },
            };
            return Ok(Stmt::Assign {
                target,
                value,
                span,
            });
        }
        // Anything else: a call expression statement.
        let expr = self.expr()?;
        if !matches!(expr, Expr::Call { .. }) {
            return Err(CompileError::new(
                "only calls may be used as expression statements",
                span,
            ));
        }
        Ok(Stmt::ExprStmt { expr, span })
    }

    fn lvalue(&mut self) -> Result<LValue, CompileError> {
        let (name, span) = self.expect_ident()?;
        if self.eat(&TokenKind::LBracket) {
            let index = self.expr()?;
            self.expect(&TokenKind::RBracket)?;
            Ok(LValue::Index { name, index, span })
        } else {
            Ok(LValue::Var { name, span })
        }
    }

    // ---- expressions: precedence climbing ------------------------------

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.nested(Self::ternary)
    }

    fn ternary(&mut self) -> Result<Expr, CompileError> {
        let cond = self.binary(0)?;
        if self.eat(&TokenKind::Question) {
            let span = cond.span();
            let then_val = self.expr()?;
            self.expect(&TokenKind::Colon)?;
            let else_val = self.nested(Self::ternary)?;
            Ok(Expr::Ternary {
                cond: Box::new(cond),
                then_val: Box::new(then_val),
                else_val: Box::new(else_val),
                span,
            })
        } else {
            Ok(cond)
        }
    }

    /// Binary operator precedence (C-like, low to high):
    /// `||` < `&&` < `|` < `^` < `&` < `==`/`!=` < relational < shifts
    /// < additive < multiplicative.
    fn binary(&mut self, min_prec: u8) -> Result<Expr, CompileError> {
        let mut lhs = self.unary()?;
        let depth = self.depth;
        loop {
            let (prec, kind) = match self.peek() {
                TokenKind::PipePipe => (1, BinKind::LogOr),
                TokenKind::AmpAmp => (2, BinKind::LogAnd),
                TokenKind::Pipe => (3, BinKind::Op(BinOp::Or)),
                TokenKind::Caret => (4, BinKind::Op(BinOp::Xor)),
                TokenKind::Amp => (5, BinKind::Op(BinOp::And)),
                TokenKind::EqEq => (6, BinKind::Op(BinOp::Eq)),
                TokenKind::Ne => (6, BinKind::Op(BinOp::Ne)),
                TokenKind::Lt => (7, BinKind::Op(BinOp::Lt)),
                TokenKind::Le => (7, BinKind::Op(BinOp::Le)),
                TokenKind::Gt => (7, BinKind::Op(BinOp::Gt)),
                TokenKind::Ge => (7, BinKind::Op(BinOp::Ge)),
                TokenKind::Shl => (8, BinKind::Op(BinOp::Shl)),
                TokenKind::Shr => (8, BinKind::Op(BinOp::Shr)),
                TokenKind::Plus => (9, BinKind::Op(BinOp::Add)),
                TokenKind::Minus => (9, BinKind::Op(BinOp::Sub)),
                TokenKind::Star => (10, BinKind::Op(BinOp::Mul)),
                TokenKind::Slash => (10, BinKind::Op(BinOp::Div)),
                TokenKind::Percent => (10, BinKind::Op(BinOp::Rem)),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            // The operator wraps the tree built so far in one more node.
            self.descend()?;
            let rhs = self.binary(prec + 1)?;
            let span = lhs.span().merge(rhs.span());
            lhs = match kind {
                BinKind::Op(op) => Expr::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    span,
                },
                BinKind::LogAnd => Expr::Logical {
                    is_and: true,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    span,
                },
                BinKind::LogOr => Expr::Logical {
                    is_and: false,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    span,
                },
            };
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, CompileError> {
        let span = self.span();
        let op = match self.peek() {
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Tilde => Some(UnOp::BitNot),
            TokenKind::Bang => Some(UnOp::LogicalNot),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.nested(Self::unary)?;
            return Ok(Expr::Unary {
                op,
                operand: Box::new(operand),
                span,
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, CompileError> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::IntLit(value) => {
                self.bump();
                Ok(Expr::IntLit { value, span })
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.eat(&TokenKind::LParen) {
                    let mut args = Vec::new();
                    if self.peek() != &TokenKind::RParen {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    Ok(Expr::Call {
                        callee: name,
                        args,
                        span,
                    })
                } else if self.eat(&TokenKind::LBracket) {
                    let index = self.expr()?;
                    self.expect(&TokenKind::RBracket)?;
                    Ok(Expr::Index {
                        name,
                        index: Box::new(index),
                        span,
                    })
                } else {
                    Ok(Expr::Var { name, span })
                }
            }
            other => Err(CompileError::new(
                format!("expected expression, found {other}"),
                span,
            )),
        }
    }
}

enum BinKind {
    Op(BinOp),
    LogAnd,
    LogOr,
}

fn lvalue_to_expr(lv: &LValue) -> Expr {
    match lv {
        LValue::Var { name, span } => Expr::Var {
            name: name.clone(),
            span: *span,
        },
        LValue::Index { name, index, span } => Expr::Index {
            name: name.clone(),
            index: Box::new(index.clone()),
            span: *span,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Program {
        parse(&lex(src).unwrap()).unwrap()
    }

    fn parse_err(src: &str) -> CompileError {
        parse(&lex(src).unwrap()).unwrap_err()
    }

    #[test]
    fn parse_function_and_params() {
        let p = parse_src("int add(int a, int b) { return a + b; }");
        let f = &p.functions[0];
        assert_eq!(f.name, "add");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.return_width, Some(IntWidth::W32));
    }

    #[test]
    fn parse_void_function() {
        let p = parse_src("void run(void) { }");
        assert_eq!(p.functions[0].return_width, None);
        assert!(p.functions[0].params.is_empty());
    }

    #[test]
    fn parse_global_array_with_init() {
        let p = parse_src("short tw[4] = {1, -2, 3, 4};\nint main() { return 0; }");
        let g = &p.globals[0];
        assert_eq!(g.name, "tw");
        assert_eq!(g.len, 4);
        assert_eq!(g.init, vec![1, -2, 3, 4]);
        assert_eq!(g.width, IntWidth::W16);
    }

    #[test]
    fn global_array_too_many_inits_errors() {
        let e = parse_err("int a[2] = {1,2,3};");
        assert!(e.to_string().contains("3 values"));
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse_src("int f() { return 1 + 2 * 3; }");
        let Stmt::Return { value: Some(e), .. } = &p.functions[0].body[0] else {
            panic!("expected return");
        };
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = e
        else {
            panic!("expected + at root, got {e:?}");
        };
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn precedence_shift_vs_relational() {
        // `a << b < c` parses as `(a << b) < c` (shift binds tighter here).
        let p = parse_src("int f(int a, int b, int c) { return a << b < c; }");
        let Stmt::Return { value: Some(e), .. } = &p.functions[0].body[0] else {
            panic!();
        };
        assert!(matches!(e, Expr::Binary { op: BinOp::Lt, .. }));
    }

    #[test]
    fn parse_for_loop_with_decl_and_increment() {
        let p =
            parse_src("int f() { int s = 0; for (int i = 0; i < 8; i++) { s += i; } return s; }");
        let Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } = &p.functions[0].body[1]
        else {
            panic!("expected for");
        };
        assert!(init.is_some() && cond.is_some() && step.is_some());
        assert_eq!(body.len(), 1);
        // i++ desugars into i = i + 1
        let Stmt::Assign { value, .. } = &**step.as_ref().unwrap() else {
            panic!("step should be assignment");
        };
        assert!(matches!(value, Expr::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn compound_assign_desugars() {
        let p = parse_src("int f(int x) { x <<= 2; return x; }");
        let Stmt::Assign { value, .. } = &p.functions[0].body[0] else {
            panic!();
        };
        assert!(matches!(value, Expr::Binary { op: BinOp::Shl, .. }));
    }

    #[test]
    fn array_element_compound_assign() {
        let p = parse_src("int a[8];\nint f(int i) { a[i+1] += 3; return a[0]; }");
        let Stmt::Assign { target, value, .. } = &p.functions[0].body[0] else {
            panic!();
        };
        assert!(matches!(target, LValue::Index { .. }));
        assert!(matches!(value, Expr::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn dangling_else_binds_inner() {
        let p =
            parse_src("int f(int a, int b) { if (a) if (b) return 1; else return 2; return 3; }");
        let Stmt::If {
            then_branch,
            else_branch,
            ..
        } = &p.functions[0].body[0]
        else {
            panic!();
        };
        assert!(else_branch.is_empty(), "outer if must have no else");
        let Stmt::If {
            else_branch: inner_else,
            ..
        } = &then_branch[0]
        else {
            panic!();
        };
        assert_eq!(inner_else.len(), 1);
    }

    #[test]
    fn ternary_and_logical() {
        let p = parse_src("int f(int a, int b) { return a && b ? a : b || 1; }");
        let Stmt::Return { value: Some(e), .. } = &p.functions[0].body[0] else {
            panic!();
        };
        assert!(matches!(e, Expr::Ternary { .. }));
    }

    #[test]
    fn do_while_parses() {
        let p = parse_src("int f() { int i = 0; do { i++; } while (i < 4); return i; }");
        assert!(matches!(p.functions[0].body[1], Stmt::DoWhile { .. }));
    }

    #[test]
    fn break_continue_parse() {
        let p = parse_src("int f() { while (1) { break; } for (;;) { continue; } return 0; }");
        let Stmt::While { body, .. } = &p.functions[0].body[0] else {
            panic!();
        };
        assert!(matches!(body[0], Stmt::Break { .. }));
    }

    #[test]
    fn call_statement_parses() {
        let p = parse_src("void g() {} void f() { g(); }");
        assert!(matches!(
            p.functions[1].body[0],
            Stmt::ExprStmt {
                expr: Expr::Call { .. },
                ..
            }
        ));
    }

    #[test]
    fn useless_expression_statement_rejected() {
        let e = parse_err("int f(int x) { x + 1; return x; }");
        assert!(e.to_string().contains("no effect") || e.to_string().contains("calls"));
    }

    #[test]
    fn local_array_decl() {
        let p = parse_src("int f() { int buf[16]; buf[0] = 1; return buf[0]; }");
        assert!(matches!(
            p.functions[0].body[0],
            Stmt::ArrayDecl { len: 16, .. }
        ));
    }

    #[test]
    fn error_reports_position() {
        let e = parse_err("int f() { return 1 + ; }");
        assert_eq!(e.span().line, 1);
        assert!(e.to_string().contains("expected expression"));
    }

    #[test]
    fn unclosed_paren_rejected() {
        let e = parse_err("int f() { return (1 + 2; }");
        assert!(e.to_string().contains("')'"), "{e}");
    }

    #[test]
    fn unclosed_block_rejected() {
        let e = parse_err("int f() { int x = 1;");
        assert!(e.to_string().contains("unterminated block"), "{e}");
    }

    #[test]
    fn missing_semicolon_rejected() {
        let e = parse_err("int f() { int x = 1 return x; }");
        assert!(e.to_string().contains("';'"), "{e}");
    }

    #[test]
    fn array_length_must_be_literal() {
        let e = parse_err("int f() { int n = 4; int a[n]; return 0; }");
        assert!(e.to_string().contains("integer literal"), "{e}");
    }

    #[test]
    fn top_level_junk_rejected() {
        let e = parse_err("banana int f() { return 0; }");
        assert!(e.to_string().contains("expected type at top level"), "{e}");
    }

    #[test]
    fn chained_assignment_not_supported() {
        // `a = b = 1` is not in the subset; the second `=` must error.
        assert!(
            parse(&lex("int f() { int a = 0; int b = 0; a = b = 1; return a; }").unwrap()).is_err()
        );
    }

    #[test]
    fn empty_for_headers_parse() {
        let p =
            parse_src("int f() { int i = 0; for (;;) { i++; if (i > 3) { break; } } return i; }");
        let Stmt::For {
            init, cond, step, ..
        } = &p.functions[0].body[1]
        else {
            panic!("expected for");
        };
        assert!(init.is_none() && cond.is_none() && step.is_none());
    }

    #[test]
    fn deeply_nested_expression_parses() {
        let inner = "1".to_string();
        let expr = (0..40).fold(inner, |acc, _| format!("({acc} + 1)"));
        let src = format!("int f() {{ return {expr}; }}");
        let p = parse_src(&src);
        assert_eq!(p.functions.len(), 1);
    }

    /// `main` nesting `levels` deep in each shape the parser bounds:
    /// the innermost return statement and its expression take two
    /// levels, and every paren, `if` block, prefix `-`, ternary else
    /// arm or chained `+`, `-` or `*` adds one.
    fn nested_programs(levels: usize) -> [String; 7] {
        let n = levels - 2;
        [
            format!(
                "int main() {{ return {}1{}; }}",
                "(".repeat(n),
                ")".repeat(n)
            ),
            format!(
                "int main() {{ {}return 1; {}return 0; }}",
                "if (1) { ".repeat(n),
                "} ".repeat(n)
            ),
            format!("int main() {{ return {}1; }}", "- ".repeat(n)),
            format!("int main() {{ return {}1; }}", "1 ? 1 : ".repeat(n)),
            format!("int main() {{ return 1{}; }}", " + 1".repeat(n)),
            format!("int main() {{ return 1{}; }}", " - 1".repeat(n)),
            format!("int main() {{ return 1{}; }}", " * 1".repeat(n)),
        ]
    }

    #[test]
    fn nesting_past_the_limit_is_a_positioned_error() {
        for src in nested_programs(MAX_NESTING + 1) {
            let e = parse_err(&src);
            assert!(
                e.to_string()
                    .ends_with(&format!("nesting deeper than {MAX_NESTING} levels")),
                "{e}"
            );
            assert_eq!(e.span().line, 1);
            assert!(e.span().col > 1, "points into the nesting: {e}");
        }
        // Parens fail at the operand inside the innermost one: the
        // expression that would open level `MAX_NESTING + 1`.
        let parens = &nested_programs(MAX_NESTING + 1)[0];
        let e = parse_err(parens);
        assert_eq!(&parens[e.span().start..e.span().end], "1");
        assert_eq!(
            e.span().start,
            "int main() { return ".len() + MAX_NESTING - 1
        );
    }

    #[test]
    fn nesting_at_the_limit_compiles_on_a_2_mib_stack() {
        // The default test-thread stack: the whole frontend (parse,
        // sema, lowering, inlining, CDFG) must fit at the limit even
        // in a debug build.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                for src in nested_programs(MAX_NESTING) {
                    if let Err(e) = crate::compile(&src, "main") {
                        panic!("{e}: {}", &src[..60]);
                    }
                }
            })
            .expect("spawn")
            .join()
            .expect("no stack overflow at the nesting limit");
    }

    #[test]
    fn unary_minus_binds_tighter_than_mul() {
        let p = parse_src("int f(int a) { return -a * 3; }");
        let Stmt::Return { value: Some(e), .. } = &p.functions[0].body[0] else {
            panic!();
        };
        // Parses as (-a) * 3: multiplication at the root.
        assert!(matches!(e, Expr::Binary { op: BinOp::Mul, .. }));
    }
}
