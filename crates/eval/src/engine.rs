//! The evaluation engine facade.

use std::fmt;

use ldl_ast::literal::Atom;
use ldl_ast::program::Program;
use ldl_ast::term::{Term, Var};
use ldl_ast::wf::{check_program, Dialect};
use ldl_storage::{Database, IndexRef, Relation};
use ldl_stratify::Stratification;
use ldl_value::{intern, Fact, Value, ValueId};

use crate::bindings::Bindings;
use crate::budget::Budget;
use crate::compiled::{Compiled, PlanTable};
use crate::error::EvalError;
use crate::fixpoint;
use crate::stats::EvalStats;
use crate::unify::{eval_term, match_slice};

/// Evaluation configuration.
///
/// How a rule is evaluated is not configurable: the engine always iterates
/// semi-naively over indexed relations, plans joins by §6's sip rule, and
/// runs them as lowered register programs ([`crate::exec`]).
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
    /// with the §4.1 uniform-structure semantics; no macro runs first (the
    /// paper's `body_angle` macro is the tests' oracle for the matcher).
    pub dialect: Dialect,
    // Read by nothing; declared only because `benchmark/src/cold.rs` names it.
    #[doc(hidden)]
    pub parallelism: usize,
    // Read by nothing; declared only because `benchmark/src/cold.rs` names it.
    #[doc(hidden)]
    pub partitioned: bool,
    /// Resource limits and the cancellation token for every evaluation
    /// drive run under these options. Default: [`Budget::unlimited`].
    /// Checked only at round boundaries: a limit crossed or a token
    /// cancelled mid-round lets that round finish, and the check after it
    /// aborts. A run either completes or fails with
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

/// Why no tuple can match a query, before any row is read.
enum NoMatch {
    /// The database has no relation of that name.
    NoRelation,
    /// The relation's arity (carried) differs from the query's.
    Arity(usize),
    /// A ground argument fails to evaluate: the pattern denotes no `U`-fact.
    OutsideU,
}

/// How a query reads its relation: decided once by [`access_path`], run by
/// [`Evaluator::query`], described by [`Evaluator::explain_query`].
///
/// (The split into this struct, [`AccessPath::matches`] and the plain loop
/// in `query` is the measured one: two tidier spellings moved
/// `excl_ancestor` and `tc_chain` by code placement alone — EXPERIMENTS
/// P25.)
struct AccessPath<'a> {
    rel: &'a Relation,
    /// The pattern's ground columns, ascending (empty: nothing bound)…
    cols: Vec<usize>,
    /// …and the ids they evaluate to.
    key: Vec<ValueId>,
    /// The index to probe when the relation has one keyed inside `cols`:
    /// its columns, `key` projected onto them, and the handle.
    probe: Option<(Vec<usize>, Vec<ValueId>, IndexRef<'a>)>,
}

/// The answers binding `vars` to `rows` (`matches` rows of `vars.len()`
/// ids each), sorted and without repeats. Every answer names the same
/// variables in the same order, so answers sort by their values; and
/// [`intern::cmp_ids`] is exactly `Value::cmp`, and hash-consing makes two
/// ids equal exactly when their values are. So the rows are sorted and
/// deduplicated as ids, and each answer is built once, at the end. The
/// sort is the stable one: it takes the runs a relation's insertion order
/// leaves in the rows as they are, where the unstable sort read
/// `tc_chain`'s `far(X, Y)` 1.7× slower.
fn answers(vars: &[Var], rows: &[ValueId], matches: usize) -> Vec<QueryAnswer> {
    if vars.is_empty() {
        // A ground query: one empty answer, `yes`, if anything matched.
        return match matches {
            0 => Vec::new(),
            _ => vec![QueryAnswer {
                bindings: Vec::new(),
            }],
        };
    }
    let mut sorted: Vec<&[ValueId]> = rows.chunks_exact(vars.len()).collect();
    sorted.sort_by(|a, b| intern::cmp_id_slices(a, b));
    sorted.dedup();
    sorted
        .iter()
        .map(|row| QueryAnswer {
            bindings: vars
                .iter()
                .zip(*row)
                .map(|(v, &id)| (v.name().to_string(), intern::resolve(id)))
                .collect(),
        })
        .collect()
}

/// Evaluate `query`'s ground arguments once and pick the best index `db`
/// already has over their columns. Read-only, and it counts nothing: a
/// query is not an evaluation, and [`EvalStats`] belong to the operation
/// that did the work.
fn access_path<'a>(db: &'a Database, query: &Atom) -> Result<AccessPath<'a>, NoMatch> {
    let rel = db.relation(query.pred).ok_or(NoMatch::NoRelation)?;
    if rel.arity() != query.arity() {
        return Err(NoMatch::Arity(rel.arity()));
    }
    let cols: Vec<usize> = (0..query.args.len())
        .filter(|&c| query.args[c].is_ground())
        .collect();
    let b = Bindings::new();
    let key: Vec<ValueId> = cols
        .iter()
        .map(|&c| eval_term(&query.args[c], &b))
        .collect::<Option<_>>()
        .ok_or(NoMatch::OutsideU)?;
    let probe = rel.covering_index(&cols).map(|(idx_cols, idx)| {
        let projected = cols
            .iter()
            .zip(&key)
            .filter(|(c, _)| idx_cols.contains(c))
            .map(|(_, &k)| k)
            .collect();
        (idx_cols.to_vec(), projected, idx)
    });
    Ok(AccessPath {
        rel,
        cols,
        key,
        probe,
    })
}

impl AccessPath<'_> {
    /// The bound-argument arms of a query: the probed posting list, or the
    /// scan pre-filtered by id on the ground columns. Kept out of
    /// [`Evaluator::query`] so its nothing-bound loop stays the plain scan.
    fn matches(&self, args: &[Term], b: &mut Bindings, k: &mut dyn FnMut(&mut Bindings)) {
        match &self.probe {
            // Posting lists hold live positions only, and the probe only
            // narrows the candidates: `match_slice` decides each one.
            Some((_, key, idx)) => {
                for &pos in idx.probe(key) {
                    match_slice(args, self.rel.get(pos), b, k);
                }
            }
            None => {
                for tuple in self.rel.iter() {
                    if self
                        .cols
                        .iter()
                        .zip(&self.key)
                        .all(|(&c, &v)| tuple[c] == v)
                    {
                        match_slice(args, tuple, b, k);
                    }
                }
            }
        }
    }
}

/// `n` with a space between thousands (`55 000`).
fn spaced(n: usize) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, d) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(' ');
        }
        out.push(d);
    }
    out
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
        self.evaluate_stats(program, edb).map(|(db, _)| db)
    }

    /// [`Evaluator::evaluate`], also returning the work counters.
    pub fn evaluate_stats(
        &self,
        program: &Program,
        edb: &Database,
    ) -> Result<(Database, EvalStats), EvalError> {
        let compiled = Compiled::new(program.clone())?;
        self.check(program)?;
        self.evaluate_compiled(&compiled, edb)
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
        self.check(program)?;
        self.run(&PlanTable::new(program.clone()), strat, edb)
    }

    /// The model of a program compiled once ([`Compiled`]), with the work
    /// counters. Its well-formedness is not checked again: whoever compiled
    /// it checked it once.
    pub fn evaluate_compiled(
        &self,
        compiled: &Compiled,
        edb: &Database,
    ) -> Result<(Database, EvalStats), EvalError> {
        self.run(compiled.plans(), compiled.stratification(), edb)
    }

    /// Well-formedness, where the options ask for it.
    fn check(&self, program: &Program) -> Result<(), EvalError> {
        if self.options.check_wf {
            check_program(program, self.options.dialect)?;
        }
        Ok(())
    }

    fn run(
        &self,
        plans: &PlanTable,
        strat: &Stratification,
        edb: &Database,
    ) -> Result<(Database, EvalStats), EvalError> {
        let mut stats = EvalStats::new();
        let db = fixpoint::evaluate(plans, edb, strat, &self.options, &mut stats)?;
        stats.interner_values = intern::len() as u64;
        stats.record_arena(&db);
        Ok((db, stats))
    }

    /// Answer a query atom against an evaluated database: every fact of the
    /// query predicate matching the pattern, as variable bindings.
    ///
    /// The constants of the query restrict the work (§6): the pattern's
    /// ground arguments — constants, ground compounds and sets, ground
    /// arithmetic — are evaluated once, and if the relation *already has* an
    /// index keyed inside those columns ([`Relation::covering_index`]; every
    /// column bound is one probe of the duplicate filter) only the rows it
    /// posts are visited. With no such index the relation is scanned and
    /// rows are pre-filtered by id on the ground columns. Either way the
    /// pattern matcher runs on every surviving row — repeated variables, `_`,
    /// set patterns — so an index narrows the candidates and never decides a
    /// match. A ground argument that does not evaluate (`1 + overflow`,
    /// `scons` onto a non-set) matches no tuple. [`Evaluator::explain_query`]
    /// reports which of these a query takes.
    ///
    /// **A query never builds an index.** A build hashes every row — several
    /// times the price of the id-filtered scan it would replace, so it pays
    /// only for a missed shape that repeats — and `db` is immutable here
    /// (a published snapshot is shared between threads). The indexes a
    /// query finds are the ones rule evaluation and commit maintenance
    /// built for their own joins, which every clone of a model carries.
    ///
    /// A query on an unknown predicate, or with the wrong arity for a known
    /// one, matches nothing and returns no answers — the Datalog convention
    /// (absent facts are false). Use [`Database::relation`] to distinguish
    /// "empty relation" from "no such relation".
    pub fn query(&self, db: &Database, query: &Atom) -> Vec<QueryAnswer> {
        let Ok(path) = access_path(db, query) else {
            return Vec::new();
        };
        let vars = query.vars();
        // Each match's values as ids, one row of `vars.len()` after another.
        let (mut rows, mut matches) = (Vec::new(), 0);
        let mut b = Bindings::new();
        let mut emit = |b2: &mut Bindings| {
            rows.extend(
                vars.iter()
                    .map(|v| b2.get(*v).expect("query var bound by match")),
            );
            matches += 1;
        };
        if path.cols.is_empty() {
            for tuple in path.rel.iter() {
                match_slice(&query.args, tuple, &mut b, &mut emit);
            }
        } else {
            path.matches(&query.args, &mut b, &mut emit);
        }
        answers(&vars, &rows, matches)
    }

    /// One line saying how [`Evaluator::query`] reads `db` for this atom —
    /// `anc(0, Y): probe anc[0], 10 of 55 000 rows`, or `scan` with the row
    /// count, the ground columns it filters on and the indexes that exist
    /// when none covers them. Computed from the same access path the query
    /// runs, so it cannot drift from what a query does.
    pub fn explain_query(&self, db: &Database, query: &Atom) -> String {
        let line = match access_path(db, query) {
            Err(NoMatch::NoRelation) => format!("no relation {}", query.pred),
            Err(NoMatch::Arity(n)) => format!("no match, {} has arity {n}", query.pred),
            Err(NoMatch::OutsideU) => "no match, a ground argument does not evaluate".to_string(),
            Ok(path) => {
                let rows = spaced(path.rel.live_len());
                match &path.probe {
                    Some((cols, key, idx)) => format!(
                        "probe {}{cols:?}, {} of {rows} rows",
                        query.pred,
                        spaced(idx.probe(key).len())
                    ),
                    None if path.cols.is_empty() => format!("scan {}, {rows} rows", query.pred),
                    None => format!(
                        "scan {}, {rows} rows, filter on {:?} — no index covers {:?} (have: {})",
                        query.pred,
                        path.cols,
                        path.cols,
                        path.rel
                            .index_columns()
                            .iter()
                            .map(|c| format!("{c:?}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                }
            }
        };
        format!("{query}: {line}")
    }

    /// All facts of one predicate in the database, sorted for determinism.
    pub fn facts(&self, db: &Database, pred: &str) -> Vec<Fact> {
        let mut v = db.facts_of(pred.into());
        v.sort();
        v
    }
}
