//! Human-readable join-plan explanations — the `:plan` REPL command and the
//! CLI `--explain` flag.
//!
//! For each rule the explanation shows the executable step order the
//! planner chose against the *current* database statistics, the index
//! columns each scan probes, the estimated output cardinality per step, and
//! where the plan's existential tail begins (steps that stop at the first
//! witness). Rules that fail to compile print their diagnostic inline
//! instead of a plan.

use std::fmt::Write;

use ldl_ast::program::Program;
use ldl_ast::term::Term;
use ldl_storage::Database;

use crate::plan::{RulePlan, Step};

/// Render the join plans of `program` (or of the rules defining `pred`
/// only) as compiled against `db`'s current relation statistics, each
/// followed by the register program it lowers to. The output is stable
/// line-oriented text meant for a terminal.
pub fn explain(program: &Program, db: &Database, pred: Option<&str>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "planner: cost-based (relation statistics)");
    let mut shown = 0usize;
    for rule in &program.rules {
        if pred.is_some_and(|p| rule.head.pred.as_str() != p) {
            continue;
        }
        shown += 1;
        let _ = writeln!(out, "{rule}");
        match RulePlan::compile(rule, Some(db), None) {
            Err(e) => {
                let _ = writeln!(out, "  ! {e}");
            }
            Ok(plan) => {
                for (i, step) in plan.steps.iter().enumerate() {
                    let _ = writeln!(out, "  {}. {}", i + 1, step_line(&plan, i, step));
                }
                if plan.steps.is_empty() {
                    let _ = writeln!(out, "  (no body: the head is a fact)");
                }
                if !plan.steps.is_empty() {
                    let _ = writeln!(out, "  compiled:");
                    for line in crate::ram::render(&plan.lowered()) {
                        let _ = writeln!(out, "    {line}");
                    }
                }
            }
        }
    }
    if shown == 0 {
        let _ = match pred {
            Some(p) => writeln!(out, "no rules define {p}"),
            None => writeln!(out, "no rules loaded"),
        };
    }
    out
}

/// One formatted plan step: kind, literal, index columns, estimate, and the
/// existential-tail marker.
fn step_line(plan: &RulePlan, i: usize, step: &Step) -> String {
    let mut line = match step {
        Step::Scan {
            pred,
            args,
            index_cols,
        } => {
            let mut s = format!("scan {}({})", pred, join_terms(args));
            if !index_cols.is_empty() {
                let _ = write!(s, " via index {index_cols:?}");
            }
            s
        }
        Step::NegScan {
            pred,
            args,
            index_cols,
        } => {
            let mut s = format!("check ~{}({})", pred, join_terms(args));
            if !index_cols.is_empty() {
                let _ = write!(s, " via index {index_cols:?}");
            }
            s
        }
        Step::BuiltinStep {
            builtin,
            args,
            negated,
        } => {
            let neg = if *negated { "~" } else { "" };
            format!("builtin {neg}{builtin:?}({})", join_terms(args))
        }
    };
    if let Some(&est) = plan.est_rows.get(i) {
        if est >= 0.0 {
            let _ = write!(line, "  est~{:.0} rows", est);
        }
    }
    if i >= plan.exist_from {
        line.push_str("  [first witness only]");
    }
    line
}

fn join_terms(args: &[Term]) -> String {
    args.iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_parser::parse_program;
    use ldl_value::Value;

    #[test]
    fn explain_shows_cost_order_and_existential_tail() {
        let program = parse_program("q(X) <- tag(C), big(X, C), small(X).").unwrap();
        let mut db = Database::new();
        for i in 0..400 {
            db.insert_tuple("big", vec![Value::int(i), Value::int(i % 4)]);
        }
        for i in 0..20 {
            db.insert_tuple("small", vec![Value::int(i)]);
        }
        db.insert_tuple("tag", vec![Value::int(0)]);
        let text = explain(&program, &db, None);
        assert!(text.contains("cost-based"), "{text}");
        let tag = text.find("scan tag").unwrap();
        let small = text.find("scan small").unwrap();
        let big = text.find("scan big").unwrap();
        assert!(tag < small && small < big, "{text}");
        assert!(text.contains("[first witness only]"), "{text}");
        assert!(text.contains("est~"), "{text}");

        let none = explain(&program, &db, Some("nosuch"));
        assert!(none.contains("no rules define nosuch"), "{none}");
    }

    #[test]
    fn explain_reports_unschedulable_rules_inline() {
        let program = parse_program("q(X) <- member(X, S), r(X).").unwrap();
        let db = Database::new();
        let text = explain(&program, &db, None);
        assert!(text.contains("!"), "{text}");
    }
}
