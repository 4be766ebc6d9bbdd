//! LDL1 / LDL1.5 terms.

use std::fmt;
use std::sync::OnceLock;

use ldl_value::arith::ArithOp;
use ldl_value::{SetValue, Symbol, Value};

/// A variable, identified by its (interned) name.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub Symbol);

impl Var {
    /// A variable named `name`.
    pub fn new(name: &str) -> Var {
        Var(Symbol::intern(name))
    }

    /// The variable's name.
    pub fn name(self) -> &'static str {
        self.0.as_str()
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Var {
        Var::new(s)
    }
}

/// The reserved functor for LDL1.5 tuple head terms `(t₁,…,tₙ)` (§4.2.1:
/// "the functor may be omitted in which case it is understood to be the
/// functor *tuple*"). Interned once: the parser asks for it on every atom
/// it reads, a point query's included.
pub fn tuple_functor() -> Symbol {
    static TUPLE: OnceLock<Symbol> = OnceLock::new();
    *TUPLE.get_or_init(|| Symbol::intern("tuple"))
}

/// A term.
///
/// `SetEnum` is the surface form of enumerated sets; the paper builds these
/// from `{}` and `scons`, and `Scons` is kept as its own node because
/// `scons(t, S)` is an *evaluating* built-in function (restriction (1) of
/// §2.2), not a free constructor. `Group` is the `<t>` construct — in LDL1
/// proper only `<X>` in rule heads; LDL1.5 allows richer shapes which the
/// transform crate compiles away.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A named variable.
    Var(Var),
    /// The anonymous variable `_` (each occurrence distinct).
    Anon,
    /// A ground constant (integer, string, atom, or pre-built value —
    /// including `{}`, the empty set).
    Const(Value),
    /// `f(t₁, …, tₙ)`, n ≥ 1, `f ≠ scons`.
    Compound(Symbol, Vec<Term>),
    /// An enumerated set `{t₁, …, tₙ}`.
    SetEnum(Vec<Term>),
    /// `scons(t, S)`: adds element `t` to set `S` when evaluated.
    Scons(Box<Term>, Box<Term>),
    /// A grouping term `<t>`.
    Group(Box<Term>),
    /// An arithmetic expression `l op r`, evaluable when ground.
    Arith(ArithOp, Box<Term>, Box<Term>),
}

impl Term {
    /// A named variable term.
    pub fn var(name: &str) -> Term {
        Term::Var(Var::new(name))
    }

    /// An atom constant term.
    pub fn atom(name: &str) -> Term {
        Term::Const(Value::atom(name))
    }

    /// An integer constant term.
    pub fn int(i: i64) -> Term {
        Term::Const(Value::Int(i))
    }

    /// The empty set constant `{}`.
    pub fn empty_set() -> Term {
        Term::Const(Value::Set(SetValue::empty()))
    }

    /// A compound term; nullary normalizes to an atom constant.
    pub fn compound(functor: impl Into<Symbol>, args: Vec<Term>) -> Term {
        let functor = functor.into();
        if args.is_empty() {
            Term::Const(Value::Atom(functor))
        } else {
            Term::Compound(functor, args)
        }
    }

    /// A grouping term `<t>`.
    pub fn group(inner: Term) -> Term {
        Term::Group(Box::new(inner))
    }

    /// The simple grouping term `<X>`.
    pub fn group_var(name: &str) -> Term {
        Term::group(Term::var(name))
    }

    /// Is this term ground (no variables, no grouping)?
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) | Term::Anon | Term::Group(_) => false,
            Term::Const(_) => true,
            Term::Compound(_, args) | Term::SetEnum(args) => args.iter().all(Term::is_ground),
            Term::Scons(h, t) => h.is_ground() && t.is_ground(),
            Term::Arith(_, l, r) => l.is_ground() && r.is_ground(),
        }
    }

    /// Would this term evaluate to a single ground value once every
    /// variable satisfying `bound` is bound? (False for `_`, `<…>`, or any
    /// unbound variable — used by sip/adornment bound-argument tests.)
    pub fn is_bound_under(&self, bound: &dyn Fn(Var) -> bool) -> bool {
        match self {
            Term::Var(v) => bound(*v),
            Term::Anon | Term::Group(_) => false,
            Term::Const(_) => true,
            Term::Compound(_, args) | Term::SetEnum(args) => {
                args.iter().all(|a| a.is_bound_under(bound))
            }
            Term::Scons(h, t) => h.is_bound_under(bound) && t.is_bound_under(bound),
            Term::Arith(_, l, r) => l.is_bound_under(bound) && r.is_bound_under(bound),
        }
    }

    /// Does this term contain a `<…>` occurrence at any depth?
    pub fn has_group(&self) -> bool {
        match self {
            Term::Group(_) => true,
            Term::Var(_) | Term::Anon | Term::Const(_) => false,
            Term::Compound(_, args) | Term::SetEnum(args) => args.iter().any(Term::has_group),
            Term::Scons(h, t) => h.has_group() || t.has_group(),
            Term::Arith(_, l, r) => l.has_group() || r.has_group(),
        }
    }

    /// Is this exactly the simple LDL1 grouping term `<X>`?
    pub fn as_simple_group(&self) -> Option<Var> {
        match self {
            Term::Group(inner) => match **inner {
                Term::Var(v) => Some(v),
                _ => None,
            },
            _ => None,
        }
    }

    /// Collect the named variables of this term, in first-occurrence order,
    /// *excluding* those inside `<…>`? No — including all; callers that need
    /// the §4.2 distinction use [`Term::vars_outside_group`].
    pub fn vars(&self, out: &mut Vec<Var>) {
        match self {
            Term::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Term::Anon | Term::Const(_) => {}
            Term::Compound(_, args) | Term::SetEnum(args) => {
                for a in args {
                    a.vars(out);
                }
            }
            Term::Scons(h, t) => {
                h.vars(out);
                t.vars(out);
            }
            Term::Group(inner) => inner.vars(out),
            Term::Arith(_, l, r) => {
                l.vars(out);
                r.vars(out);
            }
        }
    }

    /// Variables that occur somewhere *outside* every `<…>` (the `Z̄` of the
    /// grouping semantics in §2.2 and the `Z` of the §4.2 rewrite rules).
    pub fn vars_outside_group(&self, out: &mut Vec<Var>) {
        match self {
            Term::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Term::Anon | Term::Const(_) | Term::Group(_) => {}
            Term::Compound(_, args) | Term::SetEnum(args) => {
                for a in args {
                    a.vars_outside_group(out);
                }
            }
            Term::Scons(h, t) => {
                h.vars_outside_group(out);
                t.vars_outside_group(out);
            }
            Term::Arith(_, l, r) => {
                l.vars_outside_group(out);
                r.vars_outside_group(out);
            }
        }
    }

    /// Apply a variable renaming/substitution of terms for variables.
    pub fn substitute(&self, subst: &dyn Fn(Var) -> Option<Term>) -> Term {
        match self {
            Term::Var(v) => subst(*v).unwrap_or_else(|| self.clone()),
            Term::Anon | Term::Const(_) => self.clone(),
            Term::Compound(f, args) => {
                Term::Compound(*f, args.iter().map(|a| a.substitute(subst)).collect())
            }
            Term::SetEnum(args) => {
                Term::SetEnum(args.iter().map(|a| a.substitute(subst)).collect())
            }
            Term::Scons(h, t) => {
                Term::Scons(Box::new(h.substitute(subst)), Box::new(t.substitute(subst)))
            }
            Term::Group(inner) => Term::Group(Box::new(inner.substitute(subst))),
            Term::Arith(op, l, r) => Term::Arith(
                *op,
                Box::new(l.substitute(subst)),
                Box::new(r.substitute(subst)),
            ),
        }
    }

    /// If ground, evaluate to a [`Value`] (evaluating `scons`, enumerated
    /// sets, and arithmetic). `None` when not ground or when a built-in
    /// restriction fails (e.g. `scons` onto a non-set — "an object outside
    /// U", §2.2).
    pub fn to_value(&self) -> Option<Value> {
        match self {
            Term::Var(_) | Term::Anon | Term::Group(_) => None,
            Term::Const(v) => Some(v.clone()),
            Term::Compound(f, args) => {
                let vals: Option<Vec<Value>> = args.iter().map(Term::to_value).collect();
                Some(Value::compound(*f, vals?))
            }
            Term::SetEnum(args) => {
                let vals: Option<Vec<Value>> = args.iter().map(Term::to_value).collect();
                Some(Value::set(vals?))
            }
            Term::Scons(h, t) => {
                let head = h.to_value()?;
                match t.to_value()? {
                    Value::Set(s) => Some(Value::set(s.iter().cloned().chain([head]))),
                    _ => None,
                }
            }
            Term::Arith(op, l, r) => match (l.to_value()?, r.to_value()?) {
                (Value::Int(x), Value::Int(y)) => op.eval_i64(x, y).map(Value::Int),
                _ => None,
            },
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Anon => f.write_str("_"),
            Term::Const(v) => write!(f, "{v}"),
            Term::Compound(functor, args) => {
                // Lists print in their surface syntax.
                if functor.as_str() == "cons" && args.len() == 2 {
                    f.write_str("[")?;
                    let mut head = &args[0];
                    let mut tail = &args[1];
                    loop {
                        write!(f, "{head}")?;
                        match tail {
                            Term::Compound(f2, args2)
                                if f2.as_str() == "cons" && args2.len() == 2 =>
                            {
                                f.write_str(", ")?;
                                head = &args2[0];
                                tail = &args2[1];
                            }
                            Term::Const(Value::Atom(a)) if a.as_str() == "nil" => break,
                            other => {
                                write!(f, " | {other}")?;
                                break;
                            }
                        }
                    }
                    return f.write_str("]");
                }
                if *functor == tuple_functor() {
                    f.write_str("(")?;
                } else {
                    write!(f, "{functor}(")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            Term::SetEnum(args) => {
                f.write_str("{")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str("}")
            }
            Term::Scons(h, t) => write!(f, "scons({h}, {t})"),
            Term::Group(inner) => write!(f, "<{inner}>"),
            Term::Arith(op, l, r) => write!(f, "({l} {} {r})", op.name()),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_set_enum_evaluates() {
        let t = Term::SetEnum(vec![Term::int(2), Term::int(1), Term::int(2)]);
        assert_eq!(
            t.to_value(),
            Some(Value::set(vec![Value::int(1), Value::int(2)]))
        );
    }

    #[test]
    fn scons_evaluates_like_the_paper() {
        // §3.2 example: A = p(scons(a, X)), θ = {X/{a}} ⇒ Aθ = p({a}).
        let t = Term::Scons(
            Box::new(Term::atom("a")),
            Box::new(Term::SetEnum(vec![Term::atom("a")])),
        );
        assert_eq!(t.to_value(), Some(Value::set(vec![Value::atom("a")])));
    }

    #[test]
    fn scons_onto_non_set_is_outside_u() {
        let t = Term::Scons(Box::new(Term::int(1)), Box::new(Term::int(2)));
        assert_eq!(t.to_value(), None);
    }

    #[test]
    fn arith_term_evaluates() {
        let t = Term::Arith(
            ArithOp::Add,
            Box::new(Term::int(20)),
            Box::new(Term::Arith(
                ArithOp::Add,
                Box::new(Term::int(20)),
                Box::new(Term::int(5)),
            )),
        );
        assert_eq!(t.to_value(), Some(Value::int(45)));
    }

    #[test]
    fn vars_in_first_occurrence_order() {
        let t = Term::compound("f", vec![Term::var("Y"), Term::var("X"), Term::var("Y")]);
        let mut vs = Vec::new();
        t.vars(&mut vs);
        assert_eq!(vs, vec![Var::new("Y"), Var::new("X")]);
    }

    #[test]
    fn vars_outside_group_skips_grouped() {
        // (X, <h(Y, <Z>)>) — only X is outside every <...>.
        let t = Term::compound(
            "tuple",
            vec![
                Term::var("X"),
                Term::group(Term::compound(
                    "h",
                    vec![Term::var("Y"), Term::group_var("Z")],
                )),
            ],
        );
        let mut vs = Vec::new();
        t.vars_outside_group(&mut vs);
        assert_eq!(vs, vec![Var::new("X")]);
        let mut all = Vec::new();
        t.vars(&mut all);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn simple_group_recognition() {
        assert_eq!(Term::group_var("X").as_simple_group(), Some(Var::new("X")));
        assert_eq!(Term::group(Term::int(1)).as_simple_group(), None);
        assert_eq!(Term::var("X").as_simple_group(), None);
    }

    #[test]
    fn display_tuple_omits_functor() {
        let t = Term::compound("tuple", vec![Term::var("X"), Term::group_var("Y")]);
        assert_eq!(t.to_string(), "(X, <Y>)");
    }

    #[test]
    fn substitute_replaces_everywhere() {
        let t = Term::compound("f", vec![Term::var("X"), Term::group_var("X")]);
        let s = t.substitute(&|v| (v == Var::new("X")).then(|| Term::int(7)));
        assert_eq!(s.to_string(), "f(7, <7>)");
    }

    #[test]
    fn anon_is_not_ground() {
        assert!(!Term::Anon.is_ground());
        assert!(Term::empty_set().is_ground());
    }
}
