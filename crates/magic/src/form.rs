//! §6 rewrites compiled once per query form.
//!
//! The magic rewrite of a query is a function of its predicate and binding
//! pattern — its adornment — and not of its constants, which enter only the
//! seed. A [`MagicTable`] keeps one [`MagicForm`] per form of a compiled
//! program's queries, built by the first query of the form together with
//! its plan table; every later query of the form builds only its seed and
//! its adorned query atom. The table holds rewrites and their plans, never
//! a model: each query still evaluates its own cone over the EDB it is
//! given.

use std::sync::{Arc, Mutex, PoisonError};

use ldl_ast::literal::Atom;
use ldl_ast::term::Term;
use ldl_eval::{Compiled, EvalError};
use ldl_value::fxhash::FastMap;
use ldl_value::Symbol;

use crate::adorn::query_adornment;
use crate::eval::MagicForm;

/// A query's form: its predicate, its binding pattern, and the pattern of
/// its free arguments — each variable numbered by the position it first
/// occurs at, so `anc(X, X)` and `anc(X, Y)` are two forms. The rewrite
/// reads only the first two; the third keys the table by the query's whole
/// shape.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct FormKey {
    pred: Symbol,
    bound: Vec<bool>,
    shape: Vec<usize>,
}

impl FormKey {
    fn of(query: &Atom) -> FormKey {
        let first = |i: usize, t: &Term| match t {
            Term::Var(_) => query.args.iter().position(|u| u == t).unwrap_or(i),
            _ => i,
        };
        FormKey {
            pred: query.pred,
            bound: query_adornment(query).0,
            shape: query
                .args
                .iter()
                .enumerate()
                .map(|(i, t)| first(i, t))
                .collect(),
        }
    }
}

/// The rewrites of one compiled program's queries, one per query form,
/// each built by the form's first query. A program with new rules gets a
/// new table.
#[derive(Debug, Default)]
pub struct MagicTable {
    forms: Mutex<FastMap<FormKey, Arc<MagicForm>>>,
}

impl MagicTable {
    /// The rewrite of `query`'s form over `compiled`, built on the form's
    /// first query. A form with no executable sip fails each time it is
    /// asked for, and is not kept.
    pub fn form(&self, compiled: &Compiled, query: &Atom) -> Result<Arc<MagicForm>, EvalError> {
        let key = FormKey::of(query);
        let mut forms = self.forms.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(form) = forms.get(&key) {
            return Ok(form.clone());
        }
        let strat = compiled.stratification();
        let form = Arc::new(MagicForm::compile(compiled.program(), strat, query)?);
        forms.insert(key, form.clone());
        Ok(form)
    }
}
