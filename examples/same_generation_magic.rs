//! The §6 running example: `young(X, <Y>) <- ¬a(X, Z), sg(X, Y)` with the
//! query `?- young(john, S)` — and a live comparison of plain bottom-up
//! evaluation against the magic-set pipeline on a growing forest of binary
//! trees.
//!
//! Run with: `cargo run --release --example same_generation_magic`

use std::time::Instant;

use ldl1::{Evaluator, MagicEvaluator, System};

const PROGRAM: &str = "a(X, Y)      <- p(X, Y).
                       a(X, Y)      <- a(X, Z), a(Z, Y).
                       sg(X, Y)     <- siblings(X, Y).
                       sg(X, Y)     <- p(Z1, X), sg(Z1, Z2), p(Z2, Y).
                       young(X, <Y>) <- ~a(X, _), sg(X, Y).";

/// A forest of `roots` complete binary trees of the given depth; root
/// children are mutual siblings.
fn forest(sys: &mut System, roots: usize, depth: u32) {
    let mut id = 0usize;
    for r in 0..roots {
        let root = format!("r{r}_0");
        let mut level = vec![root];
        for _ in 0..depth {
            let mut next = Vec::new();
            for node in &level {
                let (a, b) = (format!("n{id}"), format!("n{}", id + 1));
                id += 2;
                sys.insert("p", vec![ldl1::Value::atom(node), ldl1::Value::atom(&a)])
                    .unwrap();
                sys.insert("p", vec![ldl1::Value::atom(node), ldl1::Value::atom(&b)])
                    .unwrap();
                sys.insert(
                    "siblings",
                    vec![ldl1::Value::atom(&a), ldl1::Value::atom(&b)],
                )
                .unwrap();
                sys.insert(
                    "siblings",
                    vec![ldl1::Value::atom(&b), ldl1::Value::atom(&a)],
                )
                .unwrap();
                next.push(a);
                next.push(b);
            }
            level = next;
        }
    }
}

fn main() -> Result<(), ldl1::Error> {
    println!("§6 running example: ?- young(john, S)\n");

    // First, the paper's scenario in miniature.
    let mut sys = System::new();
    sys.load(PROGRAM)?;
    for (x, y) in [("gp", "f"), ("gp", "u"), ("f", "john"), ("u", "cousin")] {
        sys.fact(&format!("p({x}, {y})."))?;
    }
    sys.fact("siblings(f, u).")?;
    sys.fact("siblings(u, f).")?;
    for a in sys.query_magic("young(john, S)")? {
        println!("john is young; same generation: S = {}", a.bindings[0].1);
    }
    println!(
        "young(f, S) answers: {:?} (f has descendants — the query fails)",
        sys.query_magic("young(f, S)")?.len()
    );

    // Now scale: who wins, plain bottom-up or magic?
    println!(
        "\n{:>8} {:>12} {:>12} {:>8}",
        "leaves", "plain", "magic", "speedup"
    );
    let depths = [4, 5, 6];
    let mut faster = 0;
    for depth in depths {
        let mut sys = System::new();
        sys.load(PROGRAM)?;
        forest(&mut sys, 4, depth);
        // A first-level node: it has descendants, so the query fails.
        let query = ldl1::parser::parse_atom("young(n0, S)")?;

        // Plain: the whole model bottom-up, then the query read off it.
        // (`System::query` on this cold system would take the magic arm.)
        let t0 = Instant::now();
        let plain = Evaluator::new();
        let plain = plain.query(&plain.evaluate(sys.program(), sys.edb())?, &query);
        let t_plain = t0.elapsed();

        let t1 = Instant::now();
        let magic = MagicEvaluator::new().query(sys.program(), sys.edb(), &query)?;
        let t_magic = t1.elapsed();

        assert_eq!(plain, magic, "Theorem 4: answers must agree");
        faster += usize::from(t_magic < t_plain);
        println!(
            "{:>8} {:>12?} {:>12?} {:>7.1}x",
            4 * (1usize << depth),
            t_plain,
            t_magic,
            t_plain.as_secs_f64() / t_magic.as_secs_f64().max(1e-9),
        );
    }
    println!(
        "\nmagic was faster at {faster} of {} sizes (one run each; times vary between runs)",
        depths.len()
    );
    Ok(())
}
