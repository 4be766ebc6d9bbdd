//! Test support for the supplementary magic rewrite: unfold it into the
//! form that copies each body prefix, which the paper's rules 1′–11′ are
//! written in.

use std::collections::HashMap;

use ldl_ast::literal::{Atom, Literal};
use ldl_ast::program::Program;
use ldl_ast::rule::Rule;

/// `program` with every supplementary literal replaced by the body of its
/// one rule, recursively, and the supplementary rules left out. The
/// replacement is textual: a supplementary rule names its variables as its
/// source rule does, and is emitted before every rule that reads it.
pub fn unfold(program: &Program) -> Program {
    let mut defs: HashMap<_, (Atom, Vec<Literal>)> = HashMap::new();
    let mut out = Program::new();
    for rule in &program.rules {
        let body: Vec<Literal> = rule
            .body
            .iter()
            .flat_map(|l| match defs.get(&l.atom.pred) {
                Some((head, body)) => {
                    assert!(l.positive && l.atom == *head, "{l} is not {head}");
                    body.clone()
                }
                None => vec![l.clone()],
            })
            .collect();
        if rule.head.pred.as_str().starts_with("sup'") {
            let old = defs.insert(rule.head.pred, (rule.head.clone(), body));
            assert!(old.is_none(), "two rules define {}", rule.head.pred);
        } else {
            out.push(Rule::new(rule.head.clone(), body));
        }
    }
    out
}
