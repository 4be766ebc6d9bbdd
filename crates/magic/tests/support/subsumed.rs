//! Test support: which rules of a rewritten program another rule subsumes.

use ldl_ast::program::Program;

/// The pairs `(i, j)` of `program`'s rules where rule `j` subsumes rule
/// `i`: the same head atom, every body literal of `j` among `i`'s, and
/// neither head grouping. A rewrite that dropped its subsumed rules has
/// none.
pub fn subsumed_pairs(program: &Program) -> Vec<(usize, usize)> {
    let rules = &program.rules;
    let mut pairs = Vec::new();
    for (i, r2) in rules.iter().enumerate() {
        for (j, r1) in rules.iter().enumerate() {
            if i != j
                && r1.head == r2.head
                && !r1.is_grouping()
                && !r2.is_grouping()
                && r1.body.iter().all(|l| r2.body.contains(l))
            {
                pairs.push((i, j));
            }
        }
    }
    pairs
}
