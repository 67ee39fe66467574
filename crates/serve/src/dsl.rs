//! The kernel expression DSL: parsing `d = (a & b) ^ ~c` programs.
//!
//! A *kernel program* is a sequence of assignment statements over named
//! bit-vectors, executed top to bottom. It is the textual form a query
//! planner or workload generator submits in a single
//! [`LogicalOp::Kernel`](crate::LogicalOp::Kernel) request, letting the
//! service compile the whole dataflow into one fused per-shard schedule
//! (see [`plan`](crate::plan)) instead of paying the admission ladder
//! per primitive.
//!
//! ## Grammar
//!
//! ```text
//! program   := statement*
//! statement := ident '=' expr        -- one per line, or ';'-separated
//! expr      := or
//! or        := xor ('|' xor)*        -- precedence low → high:
//! xor       := and ('^' and)*        --   |  then  ^  then  &  then
//! and       := unary ('&' unary)*    --   unary ~ / ! and parentheses
//! unary     := ('~' | '!') unary | '(' expr ')' | ident
//! ident     := [A-Za-z_][A-Za-z0-9_]*
//! ```
//!
//! `#` starts a comment running to end of line. Blank lines are
//! ignored. Assigning to a name introduces (or rebinds) it for
//! subsequent statements; names read before any assignment are the
//! program's *inputs* and must be bound to catalog vectors in the
//! request.
//!
//! ```
//! use felim_serve::dsl::Program;
//!
//! let p = Program::parse(
//!     "t = a & b          # temporary\n\
//!      d = t ^ ~c",
//! ).unwrap();
//! assert_eq!(p.statements.len(), 2);
//! assert_eq!(p.inputs(), vec!["a", "b", "c"]);
//! ```

use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// One expression node of a kernel statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A name: a request binding or an earlier statement's target.
    Name(String),
    /// Bitwise complement (`~x` or `!x`).
    Not(Box<Expr>),
    /// Bitwise conjunction (`a & b`).
    And(Box<Expr>, Box<Expr>),
    /// Bitwise disjunction (`a | b`).
    Or(Box<Expr>, Box<Expr>),
    /// Bitwise exclusive-or (`a ^ b`).
    Xor(Box<Expr>, Box<Expr>),
}

/// One `target = expr` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// The assigned name.
    pub target: String,
    /// The right-hand side.
    pub expr: Expr,
}

/// A parsed kernel program: statements in source order.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The statements, in execution order.
    pub statements: Vec<Statement>,
}

/// Kernel-program parse failure with the global byte position.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct KernelParseError {
    /// Byte offset into the program text.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for KernelParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel parse error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for KernelParseError {}

struct ExprParser<'a> {
    src: &'a str,
    /// Global byte offset of `src[0]` in the original program text, so
    /// error positions point into the program, not the statement.
    base: usize,
    pos: usize,
}

impl<'a> ExprParser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src.as_bytes()[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn err(&self, message: impl Into<String>) -> KernelParseError {
        KernelParseError {
            position: self.base + self.pos,
            message: message.into(),
        }
    }

    // or := xor ('|' xor)*
    fn parse_or(&mut self) -> Result<Expr, KernelParseError> {
        let mut left = self.parse_xor()?;
        while self.peek() == Some(b'|') {
            self.bump();
            let right = self.parse_xor()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    // xor := and ('^' and)*
    fn parse_xor(&mut self) -> Result<Expr, KernelParseError> {
        let mut left = self.parse_and()?;
        while self.peek() == Some(b'^') {
            self.bump();
            let right = self.parse_and()?;
            left = Expr::Xor(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    // and := unary ('&' unary)*
    fn parse_and(&mut self) -> Result<Expr, KernelParseError> {
        let mut left = self.parse_unary()?;
        while self.peek() == Some(b'&') {
            self.bump();
            let right = self.parse_unary()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, KernelParseError> {
        match self.peek() {
            Some(b'~') | Some(b'!') => {
                self.bump();
                Ok(Expr::Not(Box::new(self.parse_unary()?)))
            }
            Some(b'(') => {
                self.bump();
                let inner = self.parse_or()?;
                if self.bump() != Some(b')') {
                    return Err(self.err("expected `)`"));
                }
                Ok(inner)
            }
            Some(c) if c == b'_' || c.is_ascii_alphabetic() => Ok(Expr::Name(self.parse_ident())),
            Some(_) => {
                // `pos` sits on a char boundary (the parser only advances
                // over ASCII), so report the whole character, not a byte.
                let c: String = self.src[self.pos..].chars().take(1).collect();
                Err(self.err(format!("unexpected character `{c}`")))
            }
            None => Err(self.err("unexpected end of statement")),
        }
    }

    fn parse_ident(&mut self) -> String {
        self.skip_ws();
        let start = self.pos;
        while self
            .src
            .as_bytes()
            .get(self.pos)
            .is_some_and(|&c| c == b'_' || c.is_ascii_alphanumeric())
        {
            self.pos += 1;
        }
        self.src[start..self.pos].to_owned()
    }

    fn expect_end(&mut self) -> Result<(), KernelParseError> {
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(self.err("trailing input after expression"));
        }
        Ok(())
    }
}

impl Expr {
    /// Parses one expression — the right-hand side of a statement, with
    /// no target and no comments. Error positions are byte offsets into
    /// `input`.
    ///
    /// ```
    /// use felim_serve::dsl::{Expr, Program};
    ///
    /// let e = Expr::parse("(a & b) ^ ~c").unwrap();
    /// assert_eq!(e, Program::parse("d = (a & b) ^ ~c").unwrap().statements[0].expr);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`KernelParseError`] carrying the failing byte position.
    pub fn parse(input: &str) -> Result<Expr, KernelParseError> {
        let mut p = ExprParser {
            src: input,
            base: 0,
            pos: 0,
        };
        let expr = p.parse_or()?;
        p.expect_end()?;
        Ok(expr)
    }
}

impl Program {
    /// Parses a kernel program.
    ///
    /// # Errors
    ///
    /// Returns a [`KernelParseError`] carrying the failing byte
    /// position; an empty program (no statements after stripping
    /// comments and blank lines) is an error too.
    pub fn parse(input: &str) -> Result<Program, KernelParseError> {
        let mut statements = Vec::new();
        // Statements end at newlines or `;`; `#` comments run to end of
        // line. Splitting before expression parsing keeps the grammar
        // line-oriented: one statement per line (or `;`-chained).
        let bytes = input.as_bytes();
        let mut seg_start = 0usize;
        let mut i = 0usize;
        let mut in_comment = false;
        while i <= bytes.len() {
            let at_sep = i == bytes.len() || bytes[i] == b'\n' || (!in_comment && bytes[i] == b';');
            if i < bytes.len() && bytes[i] == b'#' {
                in_comment = true;
            }
            if at_sep {
                let raw = &input[seg_start..i];
                let seg = match raw.find('#') {
                    Some(h) => &raw[..h],
                    None => raw,
                };
                if !seg.trim().is_empty() {
                    statements.push(Self::parse_statement(seg, seg_start)?);
                }
                if i < bytes.len() && bytes[i] == b'\n' {
                    in_comment = false;
                }
                seg_start = i + 1;
            }
            i += 1;
        }
        if statements.is_empty() {
            return Err(KernelParseError {
                position: input.len(),
                message: "program has no statements".into(),
            });
        }
        Ok(Program { statements })
    }

    fn parse_statement(seg: &str, base: usize) -> Result<Statement, KernelParseError> {
        let mut p = ExprParser {
            src: seg,
            base,
            pos: 0,
        };
        let target = match p.peek() {
            Some(c) if c == b'_' || c.is_ascii_alphabetic() => p.parse_ident(),
            _ => return Err(p.err("expected statement target name")),
        };
        if p.bump() != Some(b'=') {
            return Err(p.err("expected `=` after target name"));
        }
        let expr = p.parse_or()?;
        p.expect_end()?;
        Ok(Statement { target, expr })
    }

    /// The program's input names — names read before any assignment to
    /// them — sorted and deduplicated. These are exactly the names a
    /// [`Kernel`](crate::LogicalOp::Kernel) request must bind.
    pub fn inputs(&self) -> Vec<String> {
        fn walk(e: &Expr, defined: &[String], out: &mut Vec<String>) {
            match e {
                Expr::Name(n) => {
                    if !defined.contains(n) && !out.contains(n) {
                        out.push(n.clone());
                    }
                }
                Expr::Not(x) => walk(x, defined, out),
                Expr::And(a, b) | Expr::Or(a, b) | Expr::Xor(a, b) => {
                    walk(a, defined, out);
                    walk(b, defined, out);
                }
            }
        }
        let mut defined: Vec<String> = Vec::new();
        let mut out = Vec::new();
        for s in &self.statements {
            walk(&s.expr, &defined, &mut out);
            if !defined.contains(&s.target) {
                defined.push(s.target.clone());
            }
        }
        out.sort();
        out
    }

    /// Names assigned by the program, in first-assignment order.
    pub fn targets(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in &self.statements {
            if !out.contains(&s.target) {
                out.push(s.target.clone());
            }
        }
        out
    }

    /// Host-side reference evaluation over plain `u64` lanes: runs the
    /// statements in order against `env` (name → word), returning the
    /// final environment. Missing inputs read as 0. This is the oracle
    /// the property tests compare the in-memory execution against, one
    /// word at a time.
    pub fn eval_words(&self, env: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
        fn walk(e: &Expr, env: &BTreeMap<String, u64>) -> u64 {
            match e {
                Expr::Name(n) => *env.get(n).unwrap_or(&0),
                Expr::Not(x) => !walk(x, env),
                Expr::And(a, b) => walk(a, env) & walk(b, env),
                Expr::Or(a, b) => walk(a, env) | walk(b, env),
                Expr::Xor(a, b) => walk(a, env) ^ walk(b, env),
            }
        }
        let mut env = env.clone();
        for s in &self.statements {
            let v = walk(&s.expr, &env);
            env.insert(s.target.clone(), v);
        }
        env
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_multi_statement_programs() {
        let p = Program::parse("t = a & b; d = t ^ ~c").unwrap();
        assert_eq!(p.statements.len(), 2);
        assert_eq!(p.inputs(), vec!["a", "b", "c"]);
        assert_eq!(p.targets(), vec!["t", "d"]);
    }

    #[test]
    fn newlines_comments_and_blank_lines() {
        let p = Program::parse(
            "# CRC feedback tap\n\
             fb = s7 ^ bit\n\
             \n\
             s1 = s1 ^ fb   # poly term x^1\n\
             s2 = s2 ^ fb ; s0 = fb\n",
        )
        .unwrap();
        assert_eq!(p.statements.len(), 4);
        assert_eq!(p.targets(), vec!["fb", "s1", "s2", "s0"]);
        assert_eq!(p.inputs(), vec!["bit", "s1", "s2", "s7"]);
    }

    #[test]
    fn precedence_matches_host_semantics() {
        // a | b & c  ==  a | (b & c);  ~a ^ b  ==  (~a) ^ b
        let p = Program::parse("d = a | b & c\ne = ~a ^ b").unwrap();
        let mut env = BTreeMap::new();
        env.insert("a".to_owned(), 0b0011u64);
        env.insert("b".to_owned(), 0b0101u64);
        env.insert("c".to_owned(), 0b1111u64);
        let out = p.eval_words(&env);
        assert_eq!(out["d"], 0b0011 | (0b0101 & 0b1111));
        assert_eq!(out["e"], !0b0011u64 ^ 0b0101);
    }

    #[test]
    fn rebinding_uses_latest_value() {
        let p = Program::parse("x = a ^ b\nx = x & a\nd = x").unwrap();
        let mut env = BTreeMap::new();
        env.insert("a".to_owned(), 0xF0u64);
        env.insert("b".to_owned(), 0x3Cu64);
        let out = p.eval_words(&env);
        assert_eq!(out["d"], (0xF0u64 ^ 0x3C) & 0xF0);
        // `x` rebinds, so the program's inputs are only a and b.
        assert_eq!(p.inputs(), vec!["a", "b"]);
    }

    #[test]
    fn bang_and_tilde_are_synonyms() {
        let a = Program::parse("d = !a").unwrap();
        let b = Program::parse("d = ~a").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parse_errors_carry_global_positions() {
        let e = Program::parse("d = a &").unwrap_err();
        assert!(e.message.contains("end of statement"));
        let e = Program::parse("d = (a | b").unwrap_err();
        assert!(e.message.contains(")"));
        let e = Program::parse("d a").unwrap_err();
        assert!(e.message.contains("`=`"));
        let e = Program::parse("= a").unwrap_err();
        assert!(e.message.contains("target"));
        let e = Program::parse("d = a b").unwrap_err();
        assert!(e.message.contains("trailing"));
        let e = Program::parse("d = 5").unwrap_err();
        assert!(e.message.contains("unexpected character"));
        let e = Program::parse("d = é").unwrap_err();
        assert!(e.message.contains("unexpected character `é`"), "{}", e.message);
        assert_eq!(e.position, 4);
        let e = Program::parse("# only a comment\n\n").unwrap_err();
        assert!(e.message.contains("no statements"));
        // Second-line errors point past the first line.
        let e = Program::parse("d = a\ne = a &").unwrap_err();
        assert!(e.position > 6, "position {} not global", e.position);
        assert!(e.to_string().contains("byte"));
    }

    #[test]
    fn semicolon_inside_comment_is_text() {
        let p = Program::parse("d = a # not a sep; really\ne = d").unwrap();
        assert_eq!(p.statements.len(), 2);
    }
}
