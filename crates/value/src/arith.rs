//! Integer arithmetic and comparisons on values.
//!
//! The paper keeps "arithmetic and comparison predicates" as built-ins whose
//! treatment is "outside the scope of this paper" (§2.1 Remark), but its own
//! examples use them (`Px + Py + Pz < 100` in `book_deal`, `+(C1,C2,C)` in
//! `tc`). We give them the standard evaluable-predicate semantics: arguments
//! must be bound to integers; division by zero and overflow make the binding
//! fail rather than panic (the candidate binding is simply not a U-fact).
//!
//! Each operator is implemented once: [`ArithOp::eval_i64`] is the checked
//! `i64` kernel and [`CmpOp::holds`] the comparison kernel. The id forms
//! ([`ArithOp::eval_ids`], [`CmpOp::eval_ids`]), the compiled executor's
//! native-integer path and `Term::to_value` all call them. Both are
//! `#[inline]`: the workspace builds without LTO, and the executor calls
//! them once per candidate row.

use std::cmp::Ordering;

use crate::intern::{self, Node, ValueId};

/// Binary arithmetic operators available in rule bodies.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ArithOp {
    /// Addition `+`.
    Add,
    /// Subtraction `-`.
    Sub,
    /// Multiplication `*`.
    Mul,
    /// Truncating integer division `/`.
    Div,
    /// Remainder `mod`.
    Mod,
}

impl ArithOp {
    /// The operator on native integers — the one checked-`i64` kernel;
    /// `None` when the result is undefined (division by zero, overflow).
    #[inline]
    pub fn eval_i64(self, x: i64, y: i64) -> Option<i64> {
        match self {
            ArithOp::Add => x.checked_add(y),
            ArithOp::Sub => x.checked_sub(y),
            ArithOp::Mul => x.checked_mul(y),
            ArithOp::Div => x.checked_div(y),
            ArithOp::Mod => x.checked_rem(y),
        }
    }

    /// [`ArithOp::eval_i64`] on interned ids — the evaluation hot path;
    /// touches no structural value. `None` if either is not an integer or
    /// the result is undefined.
    pub fn eval_ids(self, a: ValueId, b: ValueId) -> Option<ValueId> {
        let (Some(x), Some(y)) = (intern::int_of(a), intern::int_of(b)) else {
            return None;
        };
        self.eval_i64(x, y).map(intern::mk_int)
    }

    /// The name used in the concrete (functional) syntax, e.g. `+(C1,C2,C)`.
    pub fn name(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "mod",
        }
    }

    /// Parse an operator name.
    pub fn from_name(name: &str) -> Option<ArithOp> {
        Some(match name {
            "+" => ArithOp::Add,
            "-" => ArithOp::Sub,
            "*" => ArithOp::Mul,
            "/" => ArithOp::Div,
            "mod" => ArithOp::Mod,
            _ => return None,
        })
    }
}

/// Comparison operators available in rule bodies.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum CmpOp {
    /// `=` — true iff both arguments are (identical) elements of U (§2.2,
    /// restriction 4).
    Eq,
    /// `/=` — the complement of `=` on U.
    Ne,
    /// `<` on integers and strings.
    Lt,
    /// `<=` on integers and strings.
    Le,
    /// `>` on integers and strings.
    Gt,
    /// `>=` on integers and strings.
    Ge,
}

impl CmpOp {
    /// Does a left operand that compares `ord` to the right one satisfy
    /// the comparison? The one comparison kernel, for ids and native
    /// integers alike.
    #[inline]
    pub fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }

    /// Evaluate on two interned ground values.
    ///
    /// `=` and `/=` are defined on all of U, and hash-consing turns them
    /// into an id compare regardless of value depth; the ordered
    /// comparisons are defined on integers and strings (same-variant only)
    /// and return `None` — binding failure — otherwise.
    pub fn eval_ids(self, a: ValueId, b: ValueId) -> Option<bool> {
        match self {
            CmpOp::Eq => Some(a == b),
            CmpOp::Ne => Some(a != b),
            _ => {
                let ord = match (intern::int_of(a), intern::int_of(b)) {
                    (Some(x), Some(y)) => x.cmp(&y),
                    (None, None) => match (intern::node(a), intern::node(b)) {
                        (Some(Node::Str(x)), Some(Node::Str(y))) => x.cmp(y),
                        _ => return None,
                    },
                    _ => return None,
                };
                Some(self.holds(ord))
            }
        }
    }

    /// Concrete-syntax spelling.
    pub fn name(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "/=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Parse a comparison spelling.
    pub fn from_name(name: &str) -> Option<CmpOp> {
        Some(match name {
            "=" => CmpOp::Eq,
            "/=" | "!=" => CmpOp::Ne,
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn ar(op: ArithOp, a: &Value, b: &Value) -> Option<Value> {
        op.eval_ids(intern::id_of(a), intern::id_of(b))
            .map(intern::resolve)
    }

    fn cmp(op: CmpOp, a: &Value, b: &Value) -> Option<bool> {
        op.eval_ids(intern::id_of(a), intern::id_of(b))
    }

    #[test]
    fn arithmetic_evaluates() {
        assert_eq!(
            ar(ArithOp::Add, &Value::int(20), &Value::int(25)),
            Some(Value::int(45))
        );
        assert_eq!(
            ar(ArithOp::Mul, &Value::int(6), &Value::int(7)),
            Some(Value::int(42))
        );
        assert_eq!(
            ar(ArithOp::Mod, &Value::int(7), &Value::int(3)),
            Some(Value::int(1))
        );
        assert_eq!(ArithOp::Sub.eval_i64(3, 5), Some(-2));
    }

    #[test]
    fn arithmetic_fails_cleanly() {
        assert_eq!(ar(ArithOp::Div, &Value::int(1), &Value::int(0)), None);
        assert_eq!(ar(ArithOp::Mod, &Value::int(1), &Value::int(0)), None);
        assert_eq!(
            ar(ArithOp::Add, &Value::int(i64::MAX), &Value::int(1)),
            None
        );
        assert_eq!(ArithOp::Div.eval_i64(i64::MIN, -1), None);
        assert_eq!(ar(ArithOp::Add, &Value::atom("a"), &Value::int(1)), None);
    }

    #[test]
    fn equality_is_universal() {
        let s = Value::set(vec![Value::int(1)]);
        assert_eq!(cmp(CmpOp::Eq, &s, &s), Some(true));
        assert_eq!(cmp(CmpOp::Ne, &s, &Value::int(1)), Some(true));
        assert_eq!(cmp(CmpOp::Lt, &s, &s), None);
    }

    #[test]
    fn ordered_comparisons() {
        assert_eq!(
            cmp(CmpOp::Lt, &Value::int(95), &Value::int(100)),
            Some(true)
        );
        assert_eq!(cmp(CmpOp::Ge, &Value::int(5), &Value::int(5)), Some(true));
        assert_eq!(cmp(CmpOp::Gt, &Value::int(5), &Value::int(5)), Some(false));
        assert_eq!(
            cmp(CmpOp::Lt, &Value::str("a"), &Value::str("b")),
            Some(true)
        );
        // Mixed types: binding failure, not falsity.
        assert_eq!(cmp(CmpOp::Lt, &Value::int(1), &Value::atom("a")), None);
        // The native path's kernel is the same one.
        assert!(CmpOp::Le.holds(4.cmp(&5)) && !CmpOp::Ne.holds(5.cmp(&5)));
    }

    #[test]
    fn op_names_round_trip() {
        for op in [
            ArithOp::Add,
            ArithOp::Sub,
            ArithOp::Mul,
            ArithOp::Div,
            ArithOp::Mod,
        ] {
            assert_eq!(ArithOp::from_name(op.name()), Some(op));
        }
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(CmpOp::from_name(op.name()), Some(op));
        }
    }
}
