//! Pins what a parse allocates: per AST node, not per token. A name
//! borrows its text from the source until it is interned, an integer is
//! read from its digits in place, and the parser pulls tokens from the
//! lexer two at a time rather than from a token vector. The names are
//! interned by a warm-up parse first, so what is counted is the parse
//! itself.
//!
//! The counting allocator must be the process-global one, hence a test
//! binary of its own; it counts only the measuring thread's calls.

use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};

use ldl_parser::{parse_atom, parse_program};
use ldl_testkit::{CountingAlloc, Rng};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// One measurement at a time: the harness runs tests on parallel threads.
fn counting() -> MutexGuard<'static, ()> {
    static COUNTING: Mutex<()> = Mutex::new(());
    COUNTING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bound point query, as a snapshot read parses it, allocates its
/// argument vector (one allocation; a token vector and a `String` per name
/// made 8). The pin leaves room for one more.
#[test]
fn a_point_query_allocates_its_atom() {
    let _counting = counting();
    let q = "anc(5, Y)";
    parse_atom(q).unwrap();
    let (atom, allocs) = ALLOC.measure(|| parse_atom(q).unwrap());
    assert_eq!(atom.to_string(), "anc(5, Y)");
    assert!(allocs <= 2, "parse_atom({q:?}) allocated {allocs} times");
}

/// The exclusive-ancestor program over 80 nodes and 160 edges: 3 rules and
/// 240 facts, 2.9 KB — the shape of the `excl_ancestor` workload's source.
/// About one allocation per rule is left — its argument vector, a body
/// vector where it has one, the program's growth: 261 (a token vector and a
/// `String` per name made 1 205, five per rule).
#[test]
fn a_program_allocates_per_rule_not_per_token() {
    let _counting = counting();
    let mut src = String::from(
        "anc(X, Y) <- par(X, Y).\n\
         anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
         excl(X, Y, Z) <- anc(X, Y), node(Z), ~anc(X, Z).\n",
    );
    let mut rng = Rng::new(1987);
    for i in 0..80 {
        writeln!(src, "node({i}).").unwrap();
    }
    for _ in 0..160 {
        writeln!(src, "par({}, {}).", rng.index(80), rng.index(80)).unwrap();
    }
    parse_program(&src).unwrap();
    let (program, allocs) = ALLOC.measure(|| parse_program(&src).unwrap());
    assert_eq!(program.len(), 243);
    assert!(
        allocs <= 300,
        "parsing {} bytes, {} rules allocated {allocs} times",
        src.len(),
        program.len()
    );
}
