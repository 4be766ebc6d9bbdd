//! Property: pretty-printing any rule and reparsing it yields the same AST.
//!
//! The generator avoids the one deliberate print/parse asymmetry: a ground
//! `Term::Const(Value::Set(..))` prints as `{…}`, which reparses as the
//! equivalent `Term::SetEnum` — so sets are generated as `SetEnum` here
//! (semantically identical, structurally distinct).
//!
//! Integers span the whole `i64` range, `i64::MIN` included (its digits
//! exceed `i64::MAX`, so only unary minus can spell it), and strings carry
//! every escape the lexer decodes. A printed string reads back whatever it
//! holds: control characters, `U+007F` and other non-printables print as
//! `str`'s `Debug` escapes them, and the lexer decodes each of those.

use ldl_ast::literal::{Atom, Literal};
use ldl_ast::rule::Rule;
use ldl_ast::term::Term;
use ldl_parser::parse_rule;
use ldl_testkit::{cases, cases_shrink, Rng};
use ldl_value::arith::ArithOp;

/// An integer anywhere in `i64`, its edges and small values often.
fn rand_int(rng: &mut Rng) -> i64 {
    match rng.index(3) {
        0 => *rng.pick(&[i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX]),
        1 => rng.range(-9, 9),
        _ => rng.next_u64() as i64,
    }
}

/// A string of pieces that each need an escape, and some that do not.
fn rand_string(rng: &mut Rng) -> String {
    let pieces = ["s", " x", "\n", "\t", "\\", "\"", "é", "日本"];
    (0..rng.index(5)).map(|_| *rng.pick(&pieces)).collect()
}

fn rand_term(rng: &mut Rng, depth: u32) -> Term {
    if depth == 0 || rng.chance(1, 2) {
        match rng.index(6) {
            0 => Term::var(["X", "Y", "Zz"][rng.index(3)]),
            1 => Term::Anon,
            2 => Term::int(rand_int(rng)),
            3 => Term::atom(["a", "bee", "c1"][rng.index(3)]),
            4 => Term::empty_set(),
            _ => Term::Const(ldl_value::Value::str(&rand_string(rng))),
        }
    } else {
        match rng.index(4) {
            0 => {
                let f = *rng.pick(&["f", "g"]);
                let n = 1 + rng.index(2);
                Term::compound(f, (0..n).map(|_| rand_term(rng, depth - 1)).collect())
            }
            1 => {
                let n = 1 + rng.index(2);
                Term::SetEnum((0..n).map(|_| rand_term(rng, depth - 1)).collect())
            }
            2 => Term::Scons(
                Box::new(rand_term(rng, depth - 1)),
                Box::new(rand_term(rng, depth - 1)),
            ),
            _ => Term::Arith(
                ArithOp::Add,
                Box::new(rand_term(rng, depth - 1)),
                Box::new(rand_term(rng, depth - 1)),
            ),
        }
    }
}

fn rand_literal(rng: &mut Rng) -> Literal {
    let pred = *rng.pick(&["p", "q", "r"]);
    let args: Vec<Term> = (0..rng.index(3)).map(|_| rand_term(rng, 3)).collect();
    Literal {
        positive: rng.chance(1, 2),
        atom: Atom::new(pred, args),
    }
}

fn rand_rule(rng: &mut Rng) -> Rule {
    let mut head_args: Vec<Term> = (0..rng.index(3)).map(|_| rand_term(rng, 3)).collect();
    if rng.chance(1, 2) {
        head_args.push(Term::group_var("G"));
    }
    let body: Vec<Literal> = (0..rng.index(3)).map(|_| rand_literal(rng)).collect();
    // Facts with variables are well-formedness errors but must still
    // round-trip syntactically.
    Rule::new(Atom::new("h", head_args), body)
}

#[test]
fn rule_display_reparses() {
    cases(256, |rng| {
        let rule = rand_rule(rng);
        let text = rule.to_string();
        let reparsed =
            parse_rule(&text).unwrap_or_else(|e| panic!("failed to reparse {text:?}: {e}"));
        assert_eq!(&reparsed, &rule, "text was {text}");
    });
}

#[test]
fn term_display_reparses() {
    cases(256, |rng| {
        let t = rand_term(rng, 3);
        let text = t.to_string();
        let reparsed = ldl_parser::parse_term(&text)
            .unwrap_or_else(|e| panic!("failed to reparse {text:?}: {e}"));
        assert_eq!(&reparsed, &t, "text was {text}");
    });
}

/// One char `str`'s `Debug` escapes, or one it writes as itself: the C0
/// controls, `U+007F`, C1 controls, format and separator characters, a
/// combining mark (escaped where it begins a string), a private-use and an
/// unassigned code point, quotes and backslash, and plain text.
fn rand_char(rng: &mut Rng) -> char {
    const PICKS: [char; 16] = [
        '\u{7f}',
        '\u{85}',
        '\u{a0}',
        '\u{ad}',
        '\u{300}',
        '\u{200b}',
        '\u{2028}',
        '\u{feff}',
        '\u{e000}',
        '\u{10ffff}',
        '\'',
        '"',
        '\\',
        'a',
        'é',
        '日',
    ];
    match rng.index(3) {
        0 => char::from_u32(rng.index(0x20) as u32).expect("a C0 control"),
        1 => char::from_u32(0x80 + rng.index(0x20) as u32).expect("a C1 control"),
        _ => *rng.pick(&PICKS),
    }
}

#[test]
fn printed_strings_read_back() {
    cases_shrink(256, 16, |rng, size| {
        let s: String = (0..rng.index(size as usize + 1))
            .map(|_| rand_char(rng))
            .collect();
        let value = ldl_value::Value::str(&s);
        let text = value.to_string();
        let reparsed = ldl_parser::parse_term(&text)
            .unwrap_or_else(|e| panic!("failed to reparse {text}: {e}"));
        assert_eq!(reparsed, Term::Const(value), "text was {text}");
    });
}
