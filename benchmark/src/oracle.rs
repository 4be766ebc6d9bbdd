//! Engine-independent expected answers. Nothing here calls into `ldl1`
//! beyond reading the values out of a [`QueryAnswer`]: a closed form for
//! the chain, breadth-first search for the random graphs, and the forest
//! mirror and price sum computed by the generators.

use std::collections::BTreeSet;

use ldl1::QueryAnswer;

/// An answer row as plain integers, in the query's variable order.
pub type Row = Vec<i64>;

/// Flatten engine answers to integer rows. `None` if any binding is not
/// an integer (no benchmark query can bind anything else).
pub fn rows(answers: &[QueryAnswer]) -> Option<Vec<Row>> {
    answers
        .iter()
        .map(|a| a.iter().map(|(_, v)| v.as_int()).collect())
        .collect()
}

/// Does the engine's answer equal `expected` as a set? The engine returns
/// answers sorted and deduplicated, so a repeated row is itself a fault.
pub fn same(answers: &[QueryAnswer], expected: &BTreeSet<Row>) -> bool {
    match rows(answers) {
        Some(got) => {
            got.len() == expected.len()
                && got.iter().collect::<BTreeSet<_>>().len() == got.len()
                && { got.iter().all(|r| expected.contains(r)) }
        }
        None => false,
    }
}

/// `far(X, Y)` over a chain of `n` edges with the given stride: the pairs
/// more than `far_min` apart. There are Σ_{d=t+1}^{n} (n + 1 − d) of them
/// (`t = far_min / stride`): one per start node per distance.
pub fn far_pairs(n: i64, stride: i64, far_min: i64) -> BTreeSet<Row> {
    let mut out = BTreeSet::new();
    for x in 0..=n {
        for y in x + 1..=n {
            if (y - x) * stride > far_min {
                out.insert(vec![x * stride, y * stride]);
            }
        }
    }
    let t = far_min / stride;
    let closed_form: i64 = (t + 1..=n).map(|d| n + 1 - d).sum();
    assert_eq!(
        out.len() as i64,
        closed_form,
        "far oracle disagrees with its closed form"
    );
    out
}

/// Nodes reachable from `from` by one or more edges.
pub fn reachable(n: i64, edges: &[(i64, i64)], from: i64) -> BTreeSet<i64> {
    let mut adj = vec![Vec::new(); n as usize];
    for &(a, b) in edges {
        adj[a as usize].push(b);
    }
    let mut seen = BTreeSet::new();
    let mut queue = vec![from];
    while let Some(x) = queue.pop() {
        for &y in &adj[x as usize] {
            if seen.insert(y) {
                queue.push(y);
            }
        }
    }
    seen
}

/// `|reachable(x)|` for every node `x`.
pub fn closure_sizes(n: i64, edges: &[(i64, i64)]) -> Vec<u64> {
    let mut adj = vec![Vec::new(); n as usize];
    for &(a, b) in edges {
        adj[a as usize].push(b as usize);
    }
    let mut stamp = vec![usize::MAX; n as usize];
    let mut queue = Vec::new();
    (0..n as usize)
        .map(|x| {
            let mut count = 0;
            queue.push(x);
            while let Some(y) = queue.pop() {
                for &z in &adj[y] {
                    if stamp[z] != x {
                        stamp[z] = x;
                        count += 1;
                        queue.push(z);
                    }
                }
            }
            count
        })
        .collect()
}

/// `anc(from, Y)`.
pub fn anc_from(n: i64, edges: &[(i64, i64)], from: i64) -> BTreeSet<Row> {
    reachable(n, edges, from)
        .into_iter()
        .map(|y| vec![y])
        .collect()
}

/// `excl(from, Y, Z)`: `Y` reachable from `from`, `Z` a node that is not.
pub fn excl_from(n: i64, edges: &[(i64, i64)], from: i64) -> BTreeSet<Row> {
    let reach = reachable(n, edges, from);
    let mut out = BTreeSet::new();
    for &y in &reach {
        for z in (0..n).filter(|z| !reach.contains(z)) {
            out.insert(vec![y, z]);
        }
    }
    out
}

/// A one-column answer from a sorted node list.
pub fn column(ys: &[i64]) -> BTreeSet<Row> {
    ys.iter().map(|&y| vec![y]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn far_closed_form_matches_the_issue() {
        // Σ_{d=281}^{450} (451 − d) = 170·171/2.
        assert_eq!(far_pairs(450, 10, 2800).len(), 14_535);
    }

    #[test]
    fn bfs_excludes_the_start_unless_on_a_cycle() {
        let edges = [(0, 1), (1, 2), (3, 0)];
        assert_eq!(reachable(4, &edges, 0), BTreeSet::from([1, 2]));
        let cyc = [(0, 1), (1, 0)];
        assert_eq!(reachable(2, &cyc, 0), BTreeSet::from([0, 1]));
        assert_eq!(excl_from(4, &edges, 0).len(), 2 * 2);
    }
}
