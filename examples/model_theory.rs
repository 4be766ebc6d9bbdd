//! The §2.3 / §2.4 model-theory counterexamples, executed: why LDL1 needed
//! a non-standard notion of minimality.
//!
//! Run with: `cargo run --example model_theory`

use ldl1::value::order::strictly_smaller_model;
use ldl1::{check_model, Fact, FactSet, System, Value};

fn facts(list: &[Fact]) -> FactSet {
    list.iter().cloned().collect()
}

fn set(xs: &[i64]) -> Value {
    Value::set(xs.iter().map(|&i| Value::int(i)))
}

fn main() -> Result<(), ldl1::Error> {
    // 1. Intersection of models need not be a model.
    println!("== p(<X>) <- q(X): models are not intersection-closed ==");
    let p = ldl1::parser::parse_program("p(<X>) <- q(X).").unwrap();
    let a = facts(&[
        Fact::new("q", vec![Value::int(1)]),
        Fact::new("q", vec![Value::int(2)]),
        Fact::new("p", vec![set(&[1, 2])]),
    ]);
    let b = facts(&[
        Fact::new("q", vec![Value::int(2)]),
        Fact::new("q", vec![Value::int(3)]),
        Fact::new("p", vec![set(&[2, 3])]),
    ]);
    println!("  A is a model: {}", check_model(&p, &a).is_ok());
    println!("  B is a model: {}", check_model(&p, &b).is_ok());
    let inter: FactSet = a.intersection(&b).cloned().collect();
    println!(
        "  A ∩ B is a model: {} (p({{2}}) is missing)",
        check_model(&p, &inter).is_ok()
    );

    // 2. The Russell-style program has no model; the stratifier rejects it.
    println!("\n== p(<X>) <- p(X): no model, rejected as inadmissible ==");
    let mut sys = System::new();
    match sys.load("p(<X>) <- p(X). p(1).") {
        Err(e) => println!("  engine says: {e}"),
        Ok(()) => unreachable!("must be rejected"),
    }

    // 3. A positive program with two incomparable minimal models.
    println!("\n== two minimal models (also inadmissible, hence no standard model) ==");
    let prog = ldl1::parser::parse_program(
        "p(<X>) <- q(X).\n\
         q(Y) <- w(S, Y), p(S).\n\
         q(1). w({1}, 7).",
    )
    .unwrap();
    let m1 = facts(&[
        Fact::new("q", vec![Value::int(1)]),
        Fact::new("w", vec![set(&[1]), Value::int(7)]),
        Fact::new("q", vec![Value::int(7)]),
        Fact::new("p", vec![set(&[1, 7])]),
    ]);
    println!("  M1 is a model: {}", check_model(&prog, &m1).is_ok());

    // 4. §2.4: domination-based minimality.
    println!(
        "\n== §2.4 minimality: M2 = {{q(1), p({{1}})}} beats M1 = {{q(1), q(2), p({{1,2}})}} =="
    );
    let prog = ldl1::parser::parse_program(
        "q(1).\n\
         p(<X>) <- q(X).\n\
         q(2) <- p({1, 2}).",
    )
    .unwrap();
    let m1 = facts(&[
        Fact::new("q", vec![Value::int(1)]),
        Fact::new("q", vec![Value::int(2)]),
        Fact::new("p", vec![set(&[1, 2])]),
    ]);
    let m2 = facts(&[
        Fact::new("q", vec![Value::int(1)]),
        Fact::new("p", vec![set(&[1])]),
    ]);
    println!("  M1 model: {}", check_model(&prog, &m1).is_ok());
    println!("  M2 model: {}", check_model(&prog, &m2).is_ok());
    println!(
        "  (M2 − M1) ≤ (M1 − M2): {} — so M1 is not minimal",
        strictly_smaller_model(&m2, &m1)
    );

    // 5. This program is itself inadmissible (p > q ≥ p through the
    // grouping), so the engine refuses to pick a model — exactly the class
    // of programs §3 excludes.
    let mut sys = System::new();
    match sys.load("q(1). p(<X>) <- q(X). q(2) <- p({1, 2}).") {
        Err(e) => println!("\n  engine: {e}"),
        Ok(()) => unreachable!("must be rejected"),
    }
    Ok(())
}
