//! The evaluation engine facade.

use std::fmt;
use std::sync::{LazyLock, PoisonError, RwLock};

use ldl_ast::literal::Atom;
use ldl_ast::program::Program;
use ldl_ast::term::{Term, Var};
use ldl_ast::wf::{check_program, Dialect};
use ldl_storage::{Database, Relation};
use ldl_stratify::Stratification;
use ldl_value::fxhash::{FastMap, FastSet};
use ldl_value::{intern, Fact, Symbol, Value, ValueId};

use crate::budget::Budget;
use crate::compiled::{Compiled, PlanTable};
use crate::error::EvalError;
use crate::exec::{run_ram, Out};
use crate::fixpoint;
use crate::plan::{HeadKind, RulePlan, Step};
use crate::ram::{self, eval_expr, Op, RamProgram};
use crate::stats::EvalStats;

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
/// [`Value`]), which is also the order [`query`] returns them in.
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

/// An argument of a query's shape: ground (`true`: the probed index is
/// keyed on it), a variable numbered by first occurrence, `_`, or any other
/// pattern with its variables renamed by those numbers.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Arg {
    Entry(bool),
    Var(usize),
    Anon,
    Pattern(Term),
}

/// What a query's plan depends on. Constants never enter it: `anc(1, Y)`
/// and `anc(2, Z)` share a plan.
type Shape = (Symbol, Vec<Arg>);

/// Every query shape's plan, process-wide: a plan reads no program and
/// holds only interned ids, so, like them, it lives as long as the process.
/// A read holds the lock for one probe.
static PLANS: LazyLock<RwLock<FastMap<Shape, &'static RamProgram>>> =
    LazyLock::new(Default::default);

/// A query ready to run on one database: its ground columns, its shape's
/// plan, the plan's registers with the ground values in its entry
/// registers, and its variables.
struct Read<'a> {
    rel: &'a Relation,
    ground: Vec<usize>,
    plan: &'static RamProgram,
    regs: Vec<ValueId>,
    vars: Vec<Var>,
}

impl<'a> Read<'a> {
    /// Pick the best index `db` already has over `query`'s ground columns,
    /// find the plan of that shape (planning it if no read has), and
    /// evaluate the ground arguments once, into its entry registers.
    /// Read-only, and it counts nothing: a query is not an evaluation, and
    /// [`EvalStats`] belong to the operation that did the work. `Err` says
    /// why no tuple can match.
    fn new(db: &'a Database, query: &Atom) -> Result<Read<'a>, String> {
        let pred = query.pred;
        let rel = db
            .relation(pred)
            .ok_or_else(|| format!("no relation {pred}"))?;
        if rel.arity() != query.arity() {
            return Err(format!("no match, {pred} has arity {}", rel.arity()));
        }
        let args = &query.args;
        let ground: Vec<usize> = (0..args.len()).filter(|&c| args[c].is_ground()).collect();
        let index = (rel.covering_index(&ground)).map_or(&[][..], |(cols, _)| cols);
        let vars = query.vars();
        let num = |v: Var| vars.iter().position(|&u| u == v).expect("a query variable");
        let shape = (args.iter().enumerate())
            .map(|(c, t)| match t {
                t if t.is_ground() => Arg::Entry(index.contains(&c)),
                Term::Var(v) => Arg::Var(num(*v)),
                Term::Anon => Arg::Anon,
                t => Arg::Pattern(t.substitute(&|v| Some(Term::var(&format!("v{}", num(v)))))),
            })
            .collect();
        let shape = (query.pred, shape);
        let found = PLANS
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&shape)
            .copied();
        let plan = found.unwrap_or_else(|| {
            let mut plans = PLANS.write().unwrap_or_else(PoisonError::into_inner);
            let compile = || &*Box::leak(Box::new(lower_query(query, &vars, &ground, index)));
            *plans.entry(shape).or_insert_with(compile)
        });
        let mut regs = vec![ValueId::FILLER; plan.nregs];
        for (r, &c) in regs.iter_mut().zip(&ground) {
            let e = ram::lower_expr(&args[c], &mut FastMap::default(), &FastSet::default());
            *r = eval_expr(&e, &[]).ok_or("no match, a ground argument does not evaluate")?;
        }
        Ok(Read {
            rel,
            ground,
            plan,
            regs,
            vars,
        })
    }
}

/// The plan of `query`'s shape, probing `index` (empty: a scan): the rule
/// `q'(vars) <- atom` with its `ground` arguments as entry variables. One
/// literal has one order, so its one scan step is built here, and a
/// relation named like a built-in (`member/2`) is read as a relation.
fn lower_query(query: &Atom, vars: &[Var], ground: &[usize], index: &[usize]) -> RamProgram {
    // `e0` names no query variable: those start upper-case or with `_`.
    let entry: Vec<Var> = (0..ground.len())
        .map(|i| Var::new(&format!("e{i}")))
        .collect();
    let mut args = query.args.clone();
    for (&c, &e) in ground.iter().zip(&entry) {
        args[c] = Term::Var(e);
    }
    let head = Atom::new(query.pred, vars.iter().map(|&v| Term::Var(v)).collect());
    let scan = Step::Scan {
        pred: query.pred,
        args,
        index_cols: index.to_vec(),
    };
    let plan = RulePlan::new(head, HeadKind::Simple, vec![scan], vec![0]);
    ram::lower(&plan, &entry)
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

/// `n` with a space between thousands (`55 000`).
fn spaced(n: usize) -> String {
    match n {
        0..1000 => n.to_string(),
        _ => format!("{} {:03}", spaced(n / 1000), n % 1000),
    }
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

    /// [`query`]: no option applies to a read, so a caller holding no
    /// `Evaluator` calls that directly.
    pub fn query(&self, db: &Database, query: &Atom) -> Vec<QueryAnswer> {
        self::query(db, query)
    }

    /// [`explain_query`].
    pub fn explain_query(&self, db: &Database, query: &Atom) -> String {
        self::explain_query(db, query)
    }

    /// [`facts`].
    pub fn facts(&self, db: &Database, pred: &str) -> Vec<Fact> {
        self::facts(db, pred)
    }
}

/// Answer a query atom against an evaluated database: every fact of the
/// query predicate matching the pattern, as variable bindings.
///
/// A query is a one-literal rule whose constants only seed it (§6), run on
/// the rule executor from a plan kept per *shape* — predicate, which
/// arguments are ground, the pattern of the rest, the index it probes — so
/// no query plans or lowers anything its shape has not. The ground
/// arguments are evaluated once per read into the plan's entry registers,
/// and one that does not evaluate (`1 + overflow`) matches nothing. The
/// plan probes the best index the relation *already has* inside the ground
/// columns ([`Relation::covering_index`]; all of them is one probe of the
/// duplicate filter), else scans and checks them by id; each row then runs
/// what a rule's scan of the literal runs. [`explain_query`] says which.
///
/// **A query never builds an index**: a build hashes every row, several
/// times the id-filtered scan it would replace, and `db` is immutable here
/// (a published snapshot is shared between threads). The indexes it finds
/// are those rule evaluation and maintenance built for their own joins.
///
/// An unknown predicate, or the wrong arity, matches nothing — the Datalog
/// convention (absent facts are false); [`Database::relation`] tells
/// "empty" from "no such relation".
pub fn query(db: &Database, query: &Atom) -> Vec<QueryAnswer> {
    let Ok(mut read) = Read::new(db, query) else {
        return Vec::new();
    };
    let mut out = Out::new(&read.plan.head, false);
    run_ram(read.plan, db, None, &mut read.regs, &mut out)
        .expect("a query's one scan runs no built-in");
    let buf = out.into_buf();
    answers(&read.vars, &buf.data, buf.count)
}

/// One line saying how [`query`] reads `db` for this atom —
/// `anc(0, Y): probe anc[0], 10 of 55 000 rows`, or `scan` with the row
/// count, the ground columns it filters on and the indexes that exist
/// when none covers them. Read from the plan the query runs, so it cannot
/// drift from what a query does.
pub fn explain_query(db: &Database, query: &Atom) -> String {
    let line = match Read::new(db, query) {
        Err(why) => why,
        Ok(read) => {
            let Op::Scan {
                index_cols, key, ..
            } = &read.plan.ops[0]
            else {
                unreachable!("a query plan starts with its scan")
            };
            let (rows, ground) = (spaced(read.rel.live_len()), &read.ground);
            if let Some(idx) = read
                .rel
                .index(index_cols)
                .filter(|_| !index_cols.is_empty())
            {
                let key: Option<Vec<ValueId>> =
                    key.iter().map(|e| eval_expr(e, &read.regs)).collect();
                let n = idx.probe(&key.expect("entry registers evaluate")).len();
                format!(
                    "probe {}{index_cols:?}, {} of {rows} rows",
                    query.pred,
                    spaced(n)
                )
            } else if ground.is_empty() {
                format!("scan {}, {rows} rows", query.pred)
            } else {
                let have: Vec<String> = (read.rel.index_columns().iter())
                    .map(|c| format!("{c:?}"))
                    .collect();
                format!(
                    "scan {}, {rows} rows, filter on {ground:?} — no index covers {ground:?} \
                     (have: {})",
                    query.pred,
                    have.join(", ")
                )
            }
        }
    };
    format!("{query}: {line}")
}

/// All facts of one predicate in the database, sorted for determinism.
pub fn facts(db: &Database, pred: &str) -> Vec<Fact> {
    let mut v = db.facts_of(pred.into());
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_parser::parse_atom;

    /// How many plans the table holds for `pred`. Each test reads a
    /// predicate no other test names, so the count is its own.
    fn plans_of(pred: &str) -> usize {
        let plans = PLANS.read().unwrap_or_else(PoisonError::into_inner);
        plans.keys().filter(|(p, _)| p.as_str() == pred).count()
    }

    fn ask(db: &Database, q: &str) -> Vec<QueryAnswer> {
        query(db, &parse_atom(q).unwrap())
    }

    /// 1 000 reads with distinct constants share one plan; a predicate the
    /// database lacks, or the wrong arity, is answered without planning.
    #[test]
    fn constants_never_enter_a_plan() {
        let mut db = Database::new();
        for i in 0..1000 {
            db.insert_tuple("shape_const", vec![Value::int(i), Value::int(i + 1)]);
        }
        for i in 0..1000 {
            let answers = ask(&db, &format!("shape_const({i}, Y)"));
            assert_eq!(answers[0].get("Y"), Some(&Value::int(i + 1)));
        }
        assert_eq!(plans_of("shape_const"), 1);
        assert!(ask(&db, "shape_const(1)").is_empty());
        assert!(ask(&db, "shape_none(1, Y)").is_empty());
        assert_eq!((plans_of("shape_const"), plans_of("shape_none")), (1, 0));
    }

    /// A repeated variable makes a shape of its own; renaming the
    /// variables does not.
    #[test]
    fn a_repeated_variable_is_a_shape_of_its_own() {
        let mut db = Database::new();
        for (x, y) in [(1, 1), (1, 2), (2, 2)] {
            db.insert_tuple("shape_rep", vec![Value::int(x), Value::int(y)]);
        }
        assert_eq!(ask(&db, "shape_rep(X, X)").len(), 2);
        assert_eq!(ask(&db, "shape_rep(X, Y)").len(), 3);
        assert_eq!(ask(&db, "shape_rep(A, B)").len(), 3);
        assert_eq!(plans_of("shape_rep"), 2);
    }

    /// A relation named like a built-in is read as the relation it is: the
    /// plan's one step is its scan, whatever the name.
    #[test]
    fn a_relation_named_like_a_built_in_answers_from_its_rows() {
        let mut db = Database::new();
        db.insert_tuple("member", vec![Value::int(1), Value::int(2)]);
        let answers = ask(&db, "member(X, Y)");
        assert_eq!(answers[0].to_string(), "X = 1, Y = 2");
        assert_eq!(ask(&db, "member(1, Y)").len(), 1);
    }

    /// The index is part of the shape: one built between two reads is
    /// probed by the later read.
    #[test]
    fn a_read_probes_an_index_added_since_the_last() {
        let mut db = Database::new();
        for i in 0..30 {
            db.insert_tuple("shape_idx", vec![Value::int(i % 3), Value::int(i)]);
        }
        let q = parse_atom("shape_idx(1, Y)").unwrap();
        let scanned = query(&db, &q);
        assert_eq!(scanned.len(), 10);
        let how = explain_query(&db, &q);
        assert!(
            how.ends_with(
                ": scan shape_idx, 30 rows, filter on [0] — no index covers [0] (have: [0, 1])"
            ),
            "{how}"
        );
        db.relation_mut("shape_idx".into(), 2).ensure_index(&[0]);
        assert_eq!(query(&db, &q), scanned);
        let how = explain_query(&db, &q);
        assert!(
            how.ends_with(": probe shape_idx[0], 10 of 30 rows"),
            "{how}"
        );
        assert_eq!(plans_of("shape_idx"), 2);
    }
}
