//! Sideways information passing strategies (§6).
//!
//! A sip for a rule (given a set of bound head arguments) is, for our
//! purposes, a total order on the body literals together with, per literal,
//! the set of variables bound when it is reached. The paper's graph
//! formulation (conditions 1–3) admits many sips; we take the greedy one
//! the join planner executes — `ldl_eval::plan::sip_order`, the one
//! ordering function, started from the bound head variables — which
//! satisfies the paper's conditions by construction:
//!
//! * arc labels only use variables from bound head arguments or earlier
//!   *positive* literals (negated literals supply no bindings);
//! * a variable occurring in the head **only inside `<X>`** is never
//!   treated as bound — §6: restricting the body to the values inside a
//!   bound grouped argument would be unsound, because the grouped set is
//!   defined as *all* values satisfying the body.

use ldl_ast::rule::Rule;
use ldl_ast::term::Var;
use ldl_eval::plan::sip_order;
use ldl_value::fxhash::FastSet;

/// The sip-induced execution order for one rule.
#[derive(Clone, Debug)]
pub struct Sip {
    /// Body literal indices in sip order.
    pub order: Vec<usize>,
    /// For each entry of `order`: the variables bound *before* that literal
    /// executes.
    pub bound_before: Vec<FastSet<Var>>,
}

/// Variables of the head that receive bindings from the given bound
/// argument positions — grouped arguments never contribute.
pub fn head_bound_vars(rule: &Rule, bound_args: &[bool]) -> FastSet<Var> {
    let mut out = FastSet::default();
    for (i, t) in rule.head.args.iter().enumerate() {
        if !bound_args.get(i).copied().unwrap_or(false) {
            continue;
        }
        if t.has_group() {
            continue; // §6: bound grouped arguments pass nothing
        }
        let mut vs = Vec::new();
        t.vars(&mut vs);
        out.extend(vs);
    }
    out
}

/// Build the default sip for `rule` with the given bound head argument
/// positions: the planner's order ([`sip_order`]) run from the bound head
/// variables. Returns `None` when no executable order exists (the same
/// condition the planner reports as unschedulable).
pub fn default_sip(rule: &Rule, bound_args: &[bool]) -> Option<Sip> {
    let mut order = Vec::with_capacity(rule.body.len());
    let mut bound_before = Vec::with_capacity(rule.body.len());
    sip_order(
        rule,
        head_bound_vars(rule, bound_args),
        None,
        |li, bound| {
            order.push(li);
            bound_before.push(bound.clone());
        },
    )
    .ok()?;
    Some(Sip {
        order,
        bound_before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_parser::parse_rule;

    #[test]
    fn sip_orders_negation_after_bindings() {
        // §6 rule 5: young(X, <Y>) <- ~a(X, Z), sg(X, Y), with head X bound:
        // the paper's sip runs ¬a first (X bound suffices? a needs all vars
        // bound for negation — Z is free, so sg or nothing binds Z).
        // Written safely with `_`, ¬a(X, _) runs as soon as X is bound.
        let r = parse_rule("young(X, <Y>) <- ~a(X, _), sg(X, Y).").unwrap();
        let sip = default_sip(&r, &[true, false]).unwrap();
        // X bound from head ⇒ ¬a first (score 90 vs scan 11), then sg.
        assert_eq!(sip.order, vec![0, 1]);
        assert!(sip.bound_before[0].contains(&Var::new("X")));
    }

    #[test]
    fn grouped_head_arg_passes_nothing() {
        let r = parse_rule("p(X, <Y>) <- e(X, Y).").unwrap();
        // Even if the caller claims the second argument bound, Y gets no
        // binding.
        let vars = head_bound_vars(&r, &[true, true]);
        assert!(vars.contains(&Var::new("X")));
        assert!(!vars.contains(&Var::new("Y")));
    }

    #[test]
    fn unexecutable_sip_is_none() {
        let r = parse_rule("q(X) <- member(X, S).").unwrap();
        assert!(default_sip(&r, &[false]).is_none());
        assert!(default_sip(&r, &[true]).is_none()); // S still unbound
    }

    /// The sip is the planner's order: a fully bound relation literal is a
    /// containment check and runs before a generative built-in, as
    /// `RulePlan::compile` would run it.
    #[test]
    fn fully_bound_relation_literal_is_a_check() {
        let r = parse_rule("p(X, S) <- q(X), member(Y, S), r(Y).").unwrap();
        let sip = default_sip(&r, &[true, true]).unwrap();
        assert_eq!(sip.order, vec![0, 1, 2]);
    }

    #[test]
    fn bound_head_arg_drives_order() {
        let r = parse_rule("sg(X, Y) <- p(Z1, X), sg(Z1, Z2), p(Z2, Y).").unwrap();
        let sip = default_sip(&r, &[true, false]).unwrap();
        // p(Z1, X) has a bound arg; it goes first, as in the paper's sip
        // for rule 4: {sg_h, p} → Z1 sg.
        assert_eq!(sip.order[0], 0);
    }
}
