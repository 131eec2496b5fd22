//! Interpreted expressions over tuple values.
//!
//! Every evaluation performs runtime type dispatch — the per-tuple
//! interpretation overhead that vectorization amortizes and compilation
//! eliminates (§4.2). Evaluation borrows column values and constants
//! from the row and the tree ([`Expr::eval_ref`]); only computed values
//! are built fresh.

use std::borrow::Cow;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A runtime-typed value. Strings are owned, so a row slot keeps its
/// string buffer between tuples: [`Clone::clone_from`] onto a `Str` slot
/// copies into the existing buffer instead of allocating a new one.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Val {
    I32(i32),
    I64(i64),
    I128(i128),
    Str(String),
    Byte(u8),
}

/// Hashes the payload alone. The values of one key column share a
/// variant, so the discriminant would add a word to hash per value and
/// tell no two keys apart; equal values still hash equally.
impl Hash for Val {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Val::I32(v) => state.write_i32(*v),
            Val::I64(v) => state.write_i64(*v),
            Val::I128(v) => state.write_i128(*v),
            Val::Str(s) => state.write(s.as_bytes()),
            Val::Byte(v) => state.write_u8(*v),
        }
    }
}

impl Clone for Val {
    fn clone(&self) -> Self {
        match self {
            Val::I32(v) => Val::I32(*v),
            Val::I64(v) => Val::I64(*v),
            Val::I128(v) => Val::I128(*v),
            Val::Str(s) => Val::Str(s.clone()),
            Val::Byte(v) => Val::Byte(*v),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Val::Str(dst), Val::Str(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

impl Val {
    pub fn as_i64(&self) -> i64 {
        match self {
            Val::I32(v) => *v as i64,
            Val::I64(v) => *v,
            Val::Byte(v) => *v as i64,
            other => panic!("expected numeric value, found {other:?}"),
        }
    }

    pub fn as_i128(&self) -> i128 {
        match self {
            Val::I128(v) => *v,
            other => other.as_i64() as i128,
        }
    }

    pub fn as_str(&self) -> &str {
        match self {
            Val::Str(s) => s,
            other => panic!("expected string value, found {other:?}"),
        }
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::I32(v) => write!(f, "{v}"),
            Val::I64(v) => write!(f, "{v}"),
            Val::I128(v) => write!(f, "{v}"),
            Val::Str(s) => write!(f, "{s}"),
            Val::Byte(b) => write!(f, "{}", *b as char),
        }
    }
}

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Arithmetic operators (fixed-point semantics are the plan's concern).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
}

/// An interpreted expression tree.
#[derive(Clone, Debug)]
pub enum Expr {
    /// Column of the input row by position.
    Col(usize),
    Const(Val),
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    And(Vec<Expr>),
    Or(Vec<Expr>),
    Arith(BinOp, Box<Expr>, Box<Expr>),
    /// SQL `LIKE '%needle%'`.
    Contains(Box<Expr>, String),
    /// SQL `LIKE 'prefix%'` (anchored at the start).
    StartsWith(Box<Expr>, String),
}

impl Expr {
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    pub fn lit_i64(v: i64) -> Expr {
        Expr::Const(Val::I64(v))
    }

    pub fn lit_i32(v: i32) -> Expr {
        Expr::Const(Val::I32(v))
    }

    pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
        Expr::Cmp(op, Box::new(a), Box::new(b))
    }

    pub fn arith(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Arith(op, Box::new(a), Box::new(b))
    }

    /// Evaluate against a row; full runtime dispatch per node.
    pub fn eval(&self, row: &[Val]) -> Val {
        self.eval_ref(row).into_owned()
    }

    /// Evaluate against a row without copying: a column or constant is
    /// returned borrowed from the row or the tree, strings are compared
    /// and searched in place, and only computed values are owned.
    pub fn eval_ref<'a>(&'a self, row: &'a [Val]) -> Cow<'a, Val> {
        let computed = match self {
            Expr::Col(i) => return Cow::Borrowed(&row[*i]),
            Expr::Const(v) => return Cow::Borrowed(v),
            Expr::Cmp(op, a, b) => {
                let (a, b) = (a.eval_ref(row), b.eval_ref(row));
                let r = match (&*a, &*b) {
                    (Val::Str(x), Val::Str(y)) => x.cmp(y),
                    _ => a.as_i128().cmp(&b.as_i128()),
                };
                let out = match op {
                    CmpOp::Eq => r.is_eq(),
                    CmpOp::Ne => r.is_ne(),
                    CmpOp::Lt => r.is_lt(),
                    CmpOp::Le => r.is_le(),
                    CmpOp::Gt => r.is_gt(),
                    CmpOp::Ge => r.is_ge(),
                };
                Val::I32(out as i32)
            }
            Expr::And(es) => Val::I32(es.iter().all(|e| e.eval_bool(row)) as i32),
            Expr::Or(es) => Val::I32(es.iter().any(|e| e.eval_bool(row)) as i32),
            Expr::Arith(op, a, b) => {
                let (a, b) = (a.eval_ref(row).as_i64(), b.eval_ref(row).as_i64());
                Val::I64(match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                })
            }
            Expr::Contains(e, needle) => Val::I32(e.eval_ref(row).as_str().contains(needle.as_str()) as i32),
            Expr::StartsWith(e, prefix) => {
                Val::I32(e.eval_ref(row).as_str().starts_with(prefix.as_str()) as i32)
            }
        };
        Cow::Owned(computed)
    }

    /// Evaluate as a predicate.
    pub fn eval_bool(&self, row: &[Val]) -> bool {
        self.eval_ref(row).as_i64() != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_comparison() {
        let row = vec![Val::I64(7), Val::I64(3)];
        let e = Expr::arith(BinOp::Mul, Expr::col(0), Expr::col(1));
        assert_eq!(e.eval(&row), Val::I64(21));
        let c = Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::col(1));
        assert!(c.eval_bool(&row));
        let c = Expr::cmp(CmpOp::Le, Expr::col(0), Expr::lit_i64(6));
        assert!(!c.eval_bool(&row));
    }

    #[test]
    fn boolean_connectives() {
        let row = vec![Val::I64(5)];
        let t = Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::lit_i64(5));
        let f = Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::lit_i64(6));
        assert!(Expr::And(vec![t.clone(), t.clone()]).eval_bool(&row));
        assert!(!Expr::And(vec![t.clone(), f.clone()]).eval_bool(&row));
        assert!(Expr::Or(vec![f.clone(), t.clone()]).eval_bool(&row));
        assert!(!Expr::Or(vec![f.clone(), f]).eval_bool(&row));
    }

    #[test]
    fn string_ops() {
        let row = vec![Val::Str("forest green linen".into())];
        assert!(Expr::Contains(Box::new(Expr::col(0)), "green".into()).eval_bool(&row));
        assert!(!Expr::Contains(Box::new(Expr::col(0)), "azure".into()).eval_bool(&row));
        assert!(Expr::StartsWith(Box::new(Expr::col(0)), "forest".into()).eval_bool(&row));
        assert!(!Expr::StartsWith(Box::new(Expr::col(0)), "green".into()).eval_bool(&row));
        let eq = Expr::cmp(
            CmpOp::Eq,
            Expr::col(0),
            Expr::Const(Val::Str("forest green linen".into())),
        );
        assert!(eq.eval_bool(&row));
    }

    #[test]
    fn columns_and_constants_evaluate_borrowed() {
        let row = vec![Val::Str("forest".into()), Val::I64(3)];
        assert!(matches!(Expr::col(0).eval_ref(&row), Cow::Borrowed(v) if std::ptr::eq(v, &row[0])));
        assert!(matches!(
            Expr::lit_i64(1).eval_ref(&row),
            Cow::Borrowed(Val::I64(1))
        ));
        let sum = Expr::arith(BinOp::Add, Expr::col(1), Expr::lit_i64(1));
        assert!(matches!(sum.eval_ref(&row), Cow::Owned(Val::I64(4))));
    }

    #[test]
    fn clone_from_reuses_string_buffer() {
        let mut slot = Val::Str(String::with_capacity(32));
        let buf = slot.as_str().as_ptr();
        slot.clone_from(&Val::Str("short".into()));
        assert_eq!(slot, Val::Str("short".into()));
        assert_eq!(slot.as_str().as_ptr(), buf);
        slot.clone_from(&Val::I32(7));
        assert_eq!(slot, Val::I32(7));
    }

    #[test]
    #[should_panic(expected = "expected numeric")]
    fn type_errors_are_loud() {
        Val::Str("x".into()).as_i64();
    }
}
