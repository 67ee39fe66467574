//! A tiny predicate compiler for bitmap analytics.
//!
//! Parses boolean predicate expressions over named bitmap columns —
//! `"(price & in_stock) | !discontinued"` — and compiles them to
//! row-level bulk-bitwise programs on any [`BulkBackend`]. This is the
//! software face of the bitmap-index-query workload: the strings a query
//! engine would generate, executed entirely in memory.
//!
//! The grammar is the kernel DSL's expression grammar
//! ([`felim_serve::dsl`]): precedence low→high `|`, `^`, `&`, unary `!`
//! or `~` (synonyms), parentheses, identifiers
//! (`[A-Za-z_][A-Za-z0-9_]*`). Parse errors are the DSL's
//! [`KernelParseError`]s.
//!
//! ```
//! use felim_workloads::query::Predicate;
//!
//! let p = Predicate::parse("(a & b) | !c").unwrap();
//! assert_eq!(p.columns(), vec!["a", "b", "c"]);
//! assert!(p.eval(&[("a", true), ("b", false), ("c", false)].into()));
//! ```

use felim_arch::{ArchError, BulkBackend, RowId};
use felim_serve::dsl::{Expr, KernelParseError, Program, Statement};
use std::collections::BTreeMap;

/// The predicate's statement target. `#` starts a DSL comment, so no
/// column name can spell it.
const RESULT: &str = "#result";

/// A parsed boolean predicate over named columns, held as a
/// one-statement kernel program whose target no column name can spell.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    program: Program,
}

impl Predicate {
    /// Parses a predicate expression.
    ///
    /// # Errors
    ///
    /// Returns a [`KernelParseError`] with the failing byte position.
    pub fn parse(input: &str) -> Result<Predicate, KernelParseError> {
        let expr = Expr::parse(input)?;
        Ok(Predicate {
            program: Program {
                statements: vec![Statement {
                    target: RESULT.to_owned(),
                    expr,
                }],
            },
        })
    }

    fn root(&self) -> &Expr {
        &self.program.statements[0].expr
    }

    /// The distinct column names, sorted.
    pub fn columns(&self) -> Vec<String> {
        self.program.inputs()
    }

    /// Scalar reference evaluation against a column→bool environment.
    /// Missing columns read as `false`.
    pub fn eval(&self, env: &BTreeMap<&str, bool>) -> bool {
        let words = env
            .iter()
            .map(|(&name, &bit)| (name.to_owned(), if bit { !0 } else { 0 }))
            .collect();
        self.program.eval_words(&words)[RESULT] != 0
    }

    /// Number of row-level logic operations the compiled program issues
    /// (one per internal node).
    pub fn op_count(&self) -> usize {
        fn walk(e: &Expr) -> usize {
            match e {
                Expr::Name(_) => 0,
                Expr::Not(x) => 1 + walk(x),
                Expr::And(a, b) | Expr::Or(a, b) | Expr::Xor(a, b) => 1 + walk(a) + walk(b),
            }
        }
        walk(self.root())
    }

    /// Compiles and executes the predicate over bitmap column rows.
    ///
    /// `columns` maps each column name to its row; `dst` receives the
    /// result bitmap. Intermediate results use rows allocated upward from
    /// `scratch_base` (the caller guarantees `op_count()` free rows
    /// there, disjoint from columns, dst and the backend's own scratch).
    ///
    /// # Panics
    ///
    /// Panics if a referenced column is missing from `columns`.
    ///
    /// # Errors
    ///
    /// Propagates backend faults.
    pub fn execute(
        &self,
        backend: &mut dyn BulkBackend,
        columns: &BTreeMap<String, RowId>,
        scratch_base: RowId,
        dst: RowId,
    ) -> Result<(), ArchError> {
        let mut next_scratch = scratch_base.0;
        let result = Self::compile(self.root(), backend, columns, &mut next_scratch, Some(dst))?;
        if result != dst {
            backend.copy(result, dst)?;
        }
        Ok(())
    }

    /// Recursively evaluates `e`, placing the result in `prefer` (if the
    /// node is an operation) or returning the column row directly.
    fn compile(
        e: &Expr,
        backend: &mut dyn BulkBackend,
        columns: &BTreeMap<String, RowId>,
        next_scratch: &mut u64,
        prefer: Option<RowId>,
    ) -> Result<RowId, ArchError> {
        fn take_scratch(next_scratch: &mut u64, prefer: Option<RowId>) -> RowId {
            prefer.unwrap_or_else(|| {
                let r = RowId(*next_scratch);
                *next_scratch += 1;
                r
            })
        }
        match e {
            Expr::Name(c) => Ok(*columns
                .get(c)
                .unwrap_or_else(|| panic!("missing bitmap column `{c}`"))),
            Expr::Not(x) => {
                let src = Self::compile(x, backend, columns, next_scratch, None)?;
                let out = take_scratch(next_scratch, prefer);
                backend.not(src, out)?;
                Ok(out)
            }
            Expr::And(a, b) | Expr::Or(a, b) | Expr::Xor(a, b) => {
                let ra = Self::compile(a, backend, columns, next_scratch, None)?;
                let rb = Self::compile(b, backend, columns, next_scratch, None)?;
                let out = take_scratch(next_scratch, prefer);
                match e {
                    Expr::And(..) => backend.and(ra, rb, out)?,
                    Expr::Or(..) => backend.or(ra, rb, out)?,
                    Expr::Xor(..) => backend.xor(ra, rb, out)?,
                    _ => unreachable!(),
                }
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{lane_bits, DataGen};
    use felim_arch::{DramBackend, FeramBackend, MemoryGeometry};

    #[test]
    fn parses_and_lists_columns() {
        let p = Predicate::parse("(alpha & beta_2) | !gamma ^ alpha").unwrap();
        assert_eq!(p.columns(), vec!["alpha", "beta_2", "gamma"]);
        assert_eq!(p.op_count(), 4);
    }

    #[test]
    fn precedence_is_or_xor_and_not() {
        // a | b & c  ==  a | (b & c)
        let p = Predicate::parse("a | b & c").unwrap();
        let env = |a, b, c| {
            let mut m = BTreeMap::new();
            m.insert("a", a);
            m.insert("b", b);
            m.insert("c", c);
            m
        };
        assert!(p.eval(&env(true, false, false)));
        assert!(!p.eval(&env(false, true, false)));
        assert!(p.eval(&env(false, true, true)));
        // !a ^ b  ==  (!a) ^ b
        let p = Predicate::parse("!a ^ b").unwrap();
        assert!(p.eval(&env(false, false, false)));
        assert!(!p.eval(&env(false, true, false)));
    }

    #[test]
    fn parse_errors_carry_positions() {
        let e = Predicate::parse("a & ").unwrap_err();
        assert!(e.message.contains("end of statement"));
        let e = Predicate::parse("(a | b").unwrap_err();
        assert!(e.message.contains(")"));
        let e = Predicate::parse("a b").unwrap_err();
        assert!(e.message.contains("trailing"));
        let e = Predicate::parse("a & 5").unwrap_err();
        assert!(e.message.contains("unexpected character"));
        assert!(e.to_string().contains("byte"));
        let e = Predicate::parse("a & é").unwrap_err();
        assert!(e.message.contains("unexpected character `é`"), "{}", e.message);
        assert_eq!(e.position, 4);
    }

    #[test]
    fn executes_bit_exactly_on_both_backends() {
        let expr = "(price & in_stock) | !(discontinued ^ price)";
        let p = Predicate::parse(expr).unwrap();
        for backend in [
            &mut FeramBackend::new(MemoryGeometry::tiny()) as &mut dyn BulkBackend,
            &mut DramBackend::new(MemoryGeometry::tiny()) as &mut dyn BulkBackend,
        ] {
            let words = backend.geometry().row_words();
            let mut gen = DataGen::new(33, words);
            let mut columns = BTreeMap::new();
            let mut data = BTreeMap::new();
            for (i, name) in p.columns().into_iter().enumerate() {
                let row = RowId(i as u64);
                let bits = gen.sparse_row(0.4);
                backend.install_row(row, &bits).unwrap();
                columns.insert(name.clone(), row);
                data.insert(name, bits);
            }
            let dst = RowId(10);
            p.execute(backend, &columns, RowId(20), dst).unwrap();

            let got = backend.read_row(dst).unwrap();
            for lane in 0..words * 64 {
                let env: BTreeMap<&str, bool> = data
                    .iter()
                    .map(|(k, v)| (k.as_str(), lane_bits(std::slice::from_ref(v), lane)[0]))
                    .collect();
                let expect = p.eval(&env);
                let bit = lane_bits(std::slice::from_ref(&got), lane)[0];
                assert_eq!(bit, expect, "lane {lane} of `{expr}`");
            }
        }
    }

    #[test]
    fn single_column_predicate_copies() {
        let p = Predicate::parse("only").unwrap();
        assert_eq!(p.op_count(), 0);
        let mut m = FeramBackend::new(MemoryGeometry::tiny());
        let words = m.geometry().row_words();
        m.install_row(RowId(0), &vec![0xABu64; words]).unwrap();
        let mut columns = BTreeMap::new();
        columns.insert("only".to_owned(), RowId(0));
        p.execute(&mut m, &columns, RowId(20), RowId(1)).unwrap();
        assert_eq!(m.read_row(RowId(1)).unwrap()[0], 0xAB);
    }

    #[test]
    #[should_panic(expected = "missing bitmap column")]
    fn missing_column_panics() {
        let p = Predicate::parse("ghost").unwrap();
        let mut m = FeramBackend::new(MemoryGeometry::tiny());
        let _ = p.execute(&mut m, &BTreeMap::new(), RowId(20), RowId(1));
    }
}
