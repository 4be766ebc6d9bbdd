//! Human-readable join-plan explanations — the `:plan` REPL command and the
//! CLI `--explain` flag.
//!
//! For each rule the explanation shows the executable step order the
//! planner chose, the index columns each scan probes, and where the plan's
//! existential tail begins (steps that stop at the first witness). Plans
//! read no data, so nothing is evaluated to explain them. Rules that fail
//! to compile print their diagnostic inline instead of a plan.

use std::fmt::Write;

use ldl_ast::term::Term;

use crate::compiled::PlanTable;
use crate::plan::{RulePlan, Step};

/// Render the join plans of the program `plans` plans (or of the rules
/// defining `pred` only), each followed by the register program it lowers
/// to: the full plans its table holds, planned and lowered here if no
/// evaluation has yet. The output is stable line-oriented text meant for a
/// terminal.
pub fn explain(plans: &PlanTable, pred: Option<&str>) -> String {
    let mut out = String::new();
    let mut shown = 0usize;
    for (ri, rule) in plans.program().rules.iter().enumerate() {
        if pred.is_some_and(|p| rule.head.pred.as_str() != p) {
            continue;
        }
        shown += 1;
        let _ = writeln!(out, "{rule}");
        match plans.full_plan(ri) {
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
                    for line in crate::ram::render(&plan) {
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

/// One formatted plan step: kind, literal, index columns, and the
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

    /// Bound arguments first, ties in source order: `big(X, C)` has one
    /// bound argument after `tag(C)`, `small(X)` none, and `small` is then a
    /// fully bound check in the existential tail.
    #[test]
    fn explain_shows_cost_order_and_existential_tail() {
        let program =
            PlanTable::new(parse_program("q(X) <- tag(C), big(X, C), small(X).").unwrap());
        let text = explain(&program, None);
        let tag = text.find("scan tag").unwrap();
        let big = text.find("scan big(X, C) via index [1]").unwrap();
        let small = text.find("scan small").unwrap();
        assert!(tag < big && big < small, "{text}");
        assert!(text.contains("[first witness only]"), "{text}");
        assert!(
            !text.contains("est~") && !text.contains("cost-based"),
            "{text}"
        );

        let none = explain(&program, Some("nosuch"));
        assert!(none.contains("no rules define nosuch"), "{none}");
    }

    /// A set pattern is bound to a register by the scan and matched by the
    /// step after it; `~e(X, _)` probes `e` on its ground column and stops
    /// at the first row. Neither bridges a whole literal to the matcher.
    #[test]
    fn flattened_patterns_and_the_existential_probe_render() {
        let program = PlanTable::new(
            parse_program(
                "result(X, C) <- tc({X}, C).\n\
             leaf(X) <- node(X), ~e(X, _).",
            )
            .unwrap(),
        );
        let text = explain(&program, None);
        let compiled = |rule: &str| -> Vec<String> {
            let text = explain(&program, Some(rule));
            let at = text.find("compiled:\n").unwrap() + "compiled:\n".len();
            text[at..]
                .lines()
                .map(|l| l.trim_start().to_string())
                .collect()
        };
        assert_eq!(
            compiled("result"),
            [
                "0. scan tc [0→r0, 1→r1]",
                "1. match r0 = {X}",
                "emit [r2, r1]"
            ],
            "{text}"
        );
        assert_eq!(
            compiled("leaf"),
            [
                "0. scan node [0→r0]",
                "1. reject if found:",
                "2.   probe e via [0] key [r0] [0=r0]",
                "3.   found",
                "emit [r0]",
            ],
            "{text}"
        );
        assert!(
            !text.contains("(general match)") && !text.contains("(existential)"),
            "{text}"
        );
    }

    #[test]
    fn explain_reports_unschedulable_rules_inline() {
        let program = PlanTable::new(parse_program("q(X) <- member(X, S), r(X).").unwrap());
        let text = explain(&program, None);
        assert!(text.contains("!"), "{text}");
    }
}
