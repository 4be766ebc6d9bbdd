//! The evaluation engine facade.

use std::fmt;

use ldl_ast::literal::Atom;
use ldl_ast::program::Program;
use ldl_ast::wf::{check_program, Dialect};
use ldl_storage::Database;
use ldl_stratify::Stratification;
use ldl_value::{intern, Fact, Value};

use crate::bindings::Bindings;
use crate::budget::Budget;
use crate::error::EvalError;
use crate::fixpoint;
use crate::stats::EvalStats;
use crate::unify::match_slice;

/// Evaluation configuration.
///
/// How a rule is evaluated is not configurable: the engine always iterates
/// semi-naively over indexed relations, plans joins from relation
/// statistics, and runs them as lowered register programs ([`crate::exec`]).
/// These options choose what is checked and the resource limits.
///
/// Not `Copy`: the [`Budget`] carries a shared [`CancelToken`](crate::CancelToken)
/// handle. Clone it where a copy was implied.
#[derive(Clone, Debug)]
pub struct EvalOptions {
    /// Check well-formedness before evaluating.
    pub check_wf: bool,
    /// Dialect for the well-formedness check. `Ldl15` additionally permits
    /// `<t>` patterns in rule bodies, which the matcher evaluates natively
    /// with the §4.1 uniform-structure semantics.
    pub dialect: Dialect,
    // Read by nothing; declared only because `benchmark/src/cold.rs` names it.
    #[doc(hidden)]
    pub parallelism: usize,
    // Read by nothing; declared only because `benchmark/src/cold.rs` names it.
    #[doc(hidden)]
    pub partitioned: bool,
    /// Resource limits and the cancellation token for every evaluation
    /// drive run under these options. Default: [`Budget::unlimited`].
    /// Checked cooperatively at round boundaries — a run either completes
    /// or fails with
    /// [`EvalError::ResourceExhausted`](crate::EvalError) and leaves the
    /// caller's state untouched.
    pub budget: Budget,
}

impl Default for EvalOptions {
    fn default() -> EvalOptions {
        EvalOptions {
            check_wf: true,
            dialect: Dialect::Ldl1,
            parallelism: 1,
            partitioned: false,
            budget: Budget::default(),
        }
    }
}

/// One answer to a query: the queried atom's variables bound to values.
///
/// Answers sort by their bindings (variable name, then the total order on
/// [`Value`]), which is also the order [`Evaluator::query`] returns them in.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct QueryAnswer {
    /// `(variable name, value)` pairs in first-occurrence order.
    pub bindings: Vec<(String, Value)>,
}

impl QueryAnswer {
    /// The value bound to `var`, if the query mentioned it.
    pub fn get(&self, var: &str) -> Option<&Value> {
        self.bindings
            .iter()
            .find(|(v, _)| v == var)
            .map(|(_, val)| val)
    }

    /// The `i`-th binding's value, in the query's first-occurrence variable
    /// order (e.g. `a.get_index(0)` for a single-variable query).
    pub fn get_index(&self, i: usize) -> Option<&Value> {
        self.bindings.get(i).map(|(_, val)| val)
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// A ground (variable-free) query answered `yes` has no bindings.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Iterate over `(variable, value)` pairs.
    pub fn iter(&self) -> std::slice::Iter<'_, (String, Value)> {
        self.bindings.iter()
    }
}

/// Prints Prolog-style: `X = 1, Y = f(2)`; an empty answer prints `yes`.
impl fmt::Display for QueryAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bindings.is_empty() {
            return f.write_str("yes");
        }
        for (i, (var, val)) in self.bindings.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{var} = {val}")?;
        }
        Ok(())
    }
}

impl IntoIterator for QueryAnswer {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        self.bindings.into_iter()
    }
}

impl<'a> IntoIterator for &'a QueryAnswer {
    type Item = &'a (String, Value);
    type IntoIter = std::slice::Iter<'a, (String, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        self.bindings.iter()
    }
}

/// Bottom-up evaluator for admissible LDL1 programs.
#[derive(Clone, Debug, Default)]
pub struct Evaluator {
    /// Evaluation configuration.
    pub options: EvalOptions,
}

impl Evaluator {
    /// Evaluator with default options.
    pub fn new() -> Evaluator {
        Evaluator::default()
    }

    /// Evaluator with explicit options.
    pub fn with_options(options: EvalOptions) -> Evaluator {
        Evaluator { options }
    }

    /// Compute the standard (minimal) model of `program` w.r.t. `edb`,
    /// using the canonical layering.
    pub fn evaluate(&self, program: &Program, edb: &Database) -> Result<Database, EvalError> {
        let strat = Stratification::canonical(program)?;
        self.evaluate_with(program, edb, &strat)
    }

    /// [`Evaluator::evaluate`], also returning the work counters.
    pub fn evaluate_stats(
        &self,
        program: &Program,
        edb: &Database,
    ) -> Result<(Database, EvalStats), EvalError> {
        let strat = Stratification::canonical(program)?;
        self.evaluate_with_stats(program, edb, &strat)
    }

    /// Compute the model using a caller-supplied layering (Theorem 2: the
    /// result is the same for every valid layering).
    pub fn evaluate_with(
        &self,
        program: &Program,
        edb: &Database,
        strat: &Stratification,
    ) -> Result<Database, EvalError> {
        self.evaluate_with_stats(program, edb, strat)
            .map(|(db, _)| db)
    }

    /// [`Evaluator::evaluate_with`], also returning the work counters.
    pub fn evaluate_with_stats(
        &self,
        program: &Program,
        edb: &Database,
        strat: &Stratification,
    ) -> Result<(Database, EvalStats), EvalError> {
        if self.options.check_wf {
            check_program(program, self.options.dialect).map_err(EvalError::from)?;
        }
        let mut stats = EvalStats::new();
        let db = fixpoint::evaluate(program, edb, strat, &self.options, &mut stats)?;
        stats.interner_values = intern::len() as u64;
        stats.record_arena(&db);
        Ok((db, stats))
    }

    /// Answer a query atom against an evaluated database: every fact of the
    /// query predicate matching the pattern, as variable bindings.
    ///
    /// A query on an unknown predicate, or with the wrong arity for a known
    /// one, matches nothing and returns no answers — the Datalog convention
    /// (absent facts are false). Use [`Database::relation`] to distinguish
    /// "empty relation" from "no such relation".
    pub fn query(&self, db: &Database, query: &Atom) -> Vec<QueryAnswer> {
        let mut out = Vec::new();
        let Some(rel) = db.relation(query.pred) else {
            return out;
        };
        if rel.arity() != query.arity() {
            return out;
        }
        let vars = query.vars();
        let mut b = Bindings::new();
        for tuple in rel.iter() {
            match_slice(&query.args, tuple, &mut b, &mut |b2| {
                let bindings = vars
                    .iter()
                    .map(|v| {
                        (
                            v.name().to_string(),
                            intern::resolve(b2.get(*v).expect("query var bound by match")),
                        )
                    })
                    .collect();
                out.push(QueryAnswer { bindings });
            });
        }
        out.sort();
        out.dedup();
        out
    }

    /// All facts of one predicate in the database, sorted for determinism.
    pub fn facts(&self, db: &Database, pred: &str) -> Vec<Fact> {
        let mut v = db.facts_of(pred.into());
        v.sort();
        v
    }
}
