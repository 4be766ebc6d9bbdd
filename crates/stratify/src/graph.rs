//! The predicate dependency graph of §3.1.

use ldl_ast::literal::Literal;
use ldl_ast::program::{Builtin, Program};
use ldl_ast::rule::Rule;
use ldl_value::fxhash::{FastMap, FastSet};
use ldl_value::Symbol;

/// The kind of a dependency edge `p → q`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeKind {
    /// `p ≥ q`: `q` may be in the same layer as `p` or below.
    GreaterEq,
    /// `p > q`: `q` must be in a strictly lower layer (negation or grouping
    /// head).
    Greater,
}

/// The edge body literal `lit` of `rule` gives the rule's head, per §3.1;
/// `None` for a built-in, which is no node of the graph.
///
/// * Clause (2): a grouping head ⇒ `>`, whatever the polarity.
/// * Clause (3): a negated literal ⇒ `>`.
/// * §4.1: a relation literal with a `<t>` argument ⇒ `>`. The paper's
///   macro reads it through a grouping `collect` rule, so recursion through
///   it is recursion through grouping.
/// * Clause (1): otherwise `≥`.
pub fn edge_kind(rule: &Rule, lit: &Literal) -> Option<EdgeKind> {
    if Builtin::resolve(lit.atom.pred, lit.atom.arity()).is_some() {
        return None;
    }
    let greater = rule.head.has_group() || !lit.positive || lit.atom.has_group();
    Some(if greater {
        EdgeKind::Greater
    } else {
        EdgeKind::GreaterEq
    })
}

/// Dependency graph over the non-built-in predicate symbols of a program.
#[derive(Clone, Debug, Default)]
pub struct DepGraph {
    /// Adjacency: `p → [(q, kind)]`, deduplicated, strongest kind kept.
    adj: FastMap<Symbol, Vec<(Symbol, EdgeKind)>>,
    /// All nodes (including isolated EDB predicates).
    nodes: Vec<Symbol>,
}

impl DepGraph {
    /// Build the graph from a program, per the three clauses of §3.1.
    pub fn build(program: &Program) -> DepGraph {
        let mut g = DepGraph::default();
        let mut seen: FastSet<Symbol> = FastSet::default();
        let add_node = |g: &mut DepGraph, s: Symbol, seen: &mut FastSet<Symbol>| {
            if seen.insert(s) {
                g.nodes.push(s);
                g.adj.entry(s).or_default();
            }
        };
        for r in &program.rules {
            let p = r.head.pred;
            add_node(&mut g, p, &mut seen);
            for l in &r.body {
                if let Some(kind) = edge_kind(r, l) {
                    add_node(&mut g, l.atom.pred, &mut seen);
                    g.add_edge(p, l.atom.pred, kind);
                }
            }
        }
        g
    }

    fn add_edge(&mut self, p: Symbol, q: Symbol, kind: EdgeKind) {
        let out = self.adj.entry(p).or_default();
        if let Some(existing) = out.iter_mut().find(|(t, _)| *t == q) {
            // `>` subsumes `≥`.
            if kind == EdgeKind::Greater {
                existing.1 = EdgeKind::Greater;
            }
        } else {
            out.push((q, kind));
        }
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Symbol] {
        &self.nodes
    }

    /// The direct dependencies of `p`.
    pub fn deps_of(&self, p: Symbol) -> impl Iterator<Item = (Symbol, EdgeKind)> + '_ {
        self.adj.get(&p).into_iter().flatten().copied()
    }

    /// Iterate all edges.
    pub fn edges(&self) -> impl Iterator<Item = (Symbol, Symbol, EdgeKind)> + '_ {
        self.nodes
            .iter()
            .flat_map(move |&p| self.deps_of(p).map(move |(q, k)| (p, q, k)))
    }

    /// Strongly connected components (iterative Tarjan). Components are
    /// emitted dependency-first: if `p` depends on `q` in a different
    /// component, `q`'s component has a smaller index.
    pub fn sccs(&self) -> Sccs {
        // Iterative Tarjan to survive deep dependency chains.
        #[derive(Clone, Copy)]
        struct NodeState {
            index: u32,
            lowlink: u32,
            on_stack: bool,
            visited: bool,
        }
        let n = self.nodes.len();
        let id_of: FastMap<Symbol, usize> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i))
            .collect();
        let succ: Vec<Vec<usize>> = self
            .nodes
            .iter()
            .map(|&p| self.deps_of(p).map(|(q, _)| id_of[&q]).collect())
            .collect();

        let mut state = vec![
            NodeState {
                index: 0,
                lowlink: 0,
                on_stack: false,
                visited: false,
            };
            n
        ];
        let mut counter: u32 = 0;
        let mut stack: Vec<usize> = Vec::new();
        let mut components: Vec<Vec<Symbol>> = Vec::new();
        let mut comp_of: FastMap<Symbol, usize> = FastMap::default();

        for start in 0..n {
            if state[start].visited {
                continue;
            }
            // Call stack: (node, next-successor-position).
            let mut call: Vec<(usize, usize)> = vec![(start, 0)];
            while let Some(&mut (v, ref mut next)) = call.last_mut() {
                if *next == 0 {
                    state[v].visited = true;
                    state[v].index = counter;
                    state[v].lowlink = counter;
                    counter += 1;
                    stack.push(v);
                    state[v].on_stack = true;
                }
                if let Some(&w) = succ[v].get(*next) {
                    *next += 1;
                    if !state[w].visited {
                        call.push((w, 0));
                    } else if state[w].on_stack {
                        state[v].lowlink = state[v].lowlink.min(state[w].index);
                    }
                } else {
                    // Done with v.
                    if state[v].lowlink == state[v].index {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            state[w].on_stack = false;
                            comp.push(self.nodes[w]);
                            comp_of.insert(self.nodes[w], components.len());
                            if w == v {
                                break;
                            }
                        }
                        components.push(comp);
                    }
                    call.pop();
                    if let Some(&mut (parent, _)) = call.last_mut() {
                        state[parent].lowlink = state[parent].lowlink.min(state[v].lowlink);
                    }
                }
            }
        }
        Sccs {
            components,
            comp_of,
        }
    }

    /// A path `from → … → to` staying inside one SCC (both endpoints must be
    /// in the same component). Returns the node sequence starting at `from`'s
    /// successor... more precisely: the nodes visited from `from` up to and
    /// including `to`. `None` if unreachable within the component.
    pub fn path_within(&self, sccs: &Sccs, from: Symbol, to: Symbol) -> Option<Vec<Symbol>> {
        let comp = sccs.comp_of.get(&from)?;
        if sccs.comp_of.get(&to) != Some(comp) {
            return None;
        }
        let mut prev: FastMap<Symbol, Symbol> = FastMap::default();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(from);
        let mut found = from == to;
        while let Some(v) = queue.pop_front() {
            if found {
                break;
            }
            for (w, _) in self.deps_of(v) {
                if sccs.comp_of.get(&w) == Some(comp) && !prev.contains_key(&w) && w != from {
                    prev.insert(w, v);
                    if w == to {
                        found = true;
                        break;
                    }
                    queue.push_back(w);
                }
            }
        }
        if !found {
            return None;
        }
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            match prev.get(&cur) {
                Some(&p) => {
                    path.push(p);
                    cur = p;
                }
                None => break, // from == to case
            }
        }
        path.reverse();
        Some(path)
    }
}

/// The strongly connected components of a [`DepGraph`].
#[derive(Clone, Debug)]
pub struct Sccs {
    /// Components in dependency-first order.
    pub components: Vec<Vec<Symbol>>,
    /// Component index of each node.
    pub comp_of: FastMap<Symbol, usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_parser::parse_program;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn edges_from_clauses() {
        let p = parse_program(
            "a(X) <- b(X), ~c(X).\n\
             d(<X>) <- b(X), c(X).",
        )
        .unwrap();
        let g = DepGraph::build(&p);
        let edges: Vec<_> = g.edges().collect();
        assert!(edges.contains(&(sym("a"), sym("b"), EdgeKind::GreaterEq)));
        assert!(edges.contains(&(sym("a"), sym("c"), EdgeKind::Greater)));
        // Grouping head: `>` to every body predicate.
        assert!(edges.contains(&(sym("d"), sym("b"), EdgeKind::Greater)));
        assert!(edges.contains(&(sym("d"), sym("c"), EdgeKind::Greater)));
    }

    #[test]
    fn a_body_group_is_a_greater_edge() {
        // §4.1: `<t>` in a relation literal reads through grouping; in a
        // built-in literal it is no edge at all.
        let p = parse_program(
            "a(X) <- b(<X>), c(X).\n\
             d(X) <- b(S), member(<X>, S).",
        )
        .unwrap();
        let g = DepGraph::build(&p);
        let edges: Vec<_> = g.edges().collect();
        assert!(edges.contains(&(sym("a"), sym("b"), EdgeKind::Greater)));
        assert!(edges.contains(&(sym("a"), sym("c"), EdgeKind::GreaterEq)));
        assert!(edges.contains(&(sym("d"), sym("b"), EdgeKind::GreaterEq)));
        assert!(!g.nodes().contains(&sym("member")));
    }

    #[test]
    fn greater_subsumes_greater_eq() {
        let p = parse_program(
            "a(X) <- b(X).\n\
             a(X) <- c(X), ~b(X).",
        )
        .unwrap();
        let g = DepGraph::build(&p);
        let kinds: Vec<_> = g
            .edges()
            .filter(|(p, q, _)| *p == sym("a") && *q == sym("b"))
            .collect();
        assert_eq!(kinds.len(), 1);
        assert_eq!(kinds[0].2, EdgeKind::Greater);
    }

    #[test]
    fn scc_groups_mutual_recursion() {
        let p = parse_program(
            "a(X) <- b(X).\n\
             b(X) <- a(X).\n\
             c(X) <- a(X).",
        )
        .unwrap();
        let g = DepGraph::build(&p);
        let sccs = g.sccs();
        assert_eq!(sccs.comp_of[&sym("a")], sccs.comp_of[&sym("b")]);
        assert_ne!(sccs.comp_of[&sym("a")], sccs.comp_of[&sym("c")]);
        // Dependency-first: a/b before c.
        assert!(sccs.comp_of[&sym("a")] < sccs.comp_of[&sym("c")]);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // 10_000-deep dependency chain exercises the iterative Tarjan.
        let mut src = String::from("p0(1).\n");
        for i in 1..10_000 {
            src.push_str(&format!("p{i}(X) <- p{}(X).\n", i - 1));
        }
        let p = parse_program(&src).unwrap();
        let g = DepGraph::build(&p);
        let sccs = g.sccs();
        assert_eq!(sccs.components.len(), 10_000);
    }

    #[test]
    fn path_within_scc() {
        let p = parse_program(
            "a(X) <- b(X).\n\
             b(X) <- c(X).\n\
             c(X) <- a(X).",
        )
        .unwrap();
        let g = DepGraph::build(&p);
        let sccs = g.sccs();
        let path = g.path_within(&sccs, sym("b"), sym("a")).unwrap();
        assert_eq!(path.first(), Some(&sym("b")));
        assert_eq!(path.last(), Some(&sym("a")));
    }
}
