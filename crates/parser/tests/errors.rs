//! Parity: on malformed input the parser reports the same error, at the
//! same `line:col`, as the parser that lexed its whole input into a token
//! vector before parsing. The expected column was recorded from that
//! parser, through all four entry points (program, rule, term, query
//! atom). The corpus puts non-ASCII names and strings before an error, so a
//! column counted in bytes would show, and it holds an error at the end of
//! the input, which points at the last token. A lexing error anywhere wins
//! over a parse error before it, as it did when the whole input was lexed
//! first.

use ldl_parser::{parse_atom, parse_program, parse_rule, parse_term, ParseError};

fn show<T>(r: Result<T, ParseError>) -> String {
    r.map_or_else(
        |e| format!("{}: {}", e.pos, e.message),
        |_| "ok".to_string(),
    )
}

/// `(source, "program | rule | term | atom")`: what each entry point says,
/// `ok` or the error's `line:col: message`.
const CORPUS: &[(&str, &str)] = &[
    ("", "ok | 1:1: expected a term, found None | 1:1: expected a term, found None | 1:1: expected a term, found None"),
    ("\n\n   ", "ok | 1:1: expected a term, found None | 1:1: expected a term, found None | 1:1: expected a term, found None"),
    ("größe(X) <- ä(X) q(X).", "1:18: expected '.' ending a rule, found Some(Ident(\"q\")) | 1:18: expected '.' ending a rule, found Some(Ident(\"q\")) | 1:10: trailing input after term | 1:10: trailing input after query"),
    ("größe(X) <- ä(X), \"héllo wörld\" # q.", "1:33: unexpected character '#' | 1:33: unexpected character '#' | 1:33: unexpected character '#' | 1:33: unexpected character '#'"),
    ("p(\"日本語\") <- .\n  q(ü).", "2:3: expected a term, found Some(Dot) | 2:3: expected a term, found Some(Dot) | 1:10: trailing input after term | 1:10: trailing input after query"),
    ("Ärger(X) <- q(X).", "1:6: expected a predicate, found term Ärger | 1:6: expected a predicate, found term Ärger | 1:6: trailing input after term | 1:6: expected a predicate, found term Ärger"),
    ("p(X) <- q(\"naïve\", X), ~ .", "1:26: expected a term, found Some(Dot) | 1:26: expected a term, found Some(Dot) | 1:6: trailing input after term | 1:6: trailing input after query"),
    ("p(X) <- q(X) ← r(X).", "1:14: unexpected character '←' | 1:14: unexpected character '←' | 1:14: unexpected character '←' | 1:14: unexpected character '←'"),
    ("p(\"abc", "1:3: unterminated string literal | 1:3: unterminated string literal | 1:3: unterminated string literal | 1:3: unterminated string literal"),
    ("p(\"é\nx", "1:3: unterminated string literal | 1:3: unterminated string literal | 1:3: unterminated string literal | 1:3: unterminated string literal"),
    ("p(\"a\\q\").", "1:3: bad string escape Some('q') | 1:3: bad string escape Some('q') | 1:3: bad string escape Some('q') | 1:3: bad string escape Some('q')"),
    ("p(\"a\\", "1:3: bad string escape None | 1:3: bad string escape None | 1:3: bad string escape None | 1:3: bad string escape None"),
    ("p(X) <- X ! 3.", "1:11: expected '=' after '!' | 1:11: expected '=' after '!' | 1:11: expected '=' after '!' | 1:11: expected '=' after '!'"),
    ("p(X) <- X !", "1:11: expected '=' after '!' | 1:11: expected '=' after '!' | 1:11: expected '=' after '!' | 1:11: expected '=' after '!'"),
    ("p :: q.", "1:3: expected '-' after ':' | 1:3: expected '-' after ':' | 1:3: expected '-' after ':' | 1:3: expected '-' after ':'"),
    ("p : q", "1:3: expected '-' after ':' | 1:3: expected '-' after ':' | 1:3: expected '-' after ':' | 1:3: expected '-' after ':'"),
    ("? p(X)", "1:1: expected '-' after '?' | 1:1: expected '-' after '?' | 1:1: expected '-' after '?' | 1:1: expected '-' after '?'"),
    ("p(X) ? q", "1:6: expected '-' after '?' | 1:6: expected '-' after '?' | 1:6: expected '-' after '?' | 1:6: expected '-' after '?'"),
    ("p(f(X, ", "1:6: expected a term, found None | 1:6: expected a term, found None | 1:6: expected a term, found None | 1:6: expected a term, found None"),
    ("p({1, 2", "1:7: expected '}', found None | 1:7: expected '}', found None | 1:7: expected '}', found None | 1:7: expected '}', found None"),
    ("p(X) <- q(X), X <", "1:17: expected a term, found None | 1:17: expected a term, found None | 1:6: trailing input after term | 1:6: trailing input after query"),
    ("p(-", "1:3: expected integer after unary '-' | 1:3: expected integer after unary '-' | 1:3: expected integer after unary '-' | 1:3: expected integer after unary '-'"),
    ("p(<X", "1:4: expected '>' closing a grouping term, found None | 1:4: expected '>' closing a grouping term, found None | 1:4: expected '>' closing a grouping term, found None | 1:4: expected '>' closing a grouping term, found None"),
    ("[1, 2 |", "1:7: expected a term, found None | 1:7: expected a term, found None | 1:7: expected a term, found None | 1:7: expected a term, found None"),
    ("p(X) <- q(X", "1:11: expected ')', found None | 1:11: expected ')', found None | 1:6: trailing input after term | 1:6: trailing input after query"),
    ("p(X) <- . #", "1:11: unexpected character '#' | 1:11: unexpected character '#' | 1:11: unexpected character '#' | 1:11: unexpected character '#'"),
    ("p(X) <- q(X) ; r.", "1:14: unexpected character ';' | 1:14: unexpected character ';' | 1:14: unexpected character ';' | 1:14: unexpected character ';'"),
    ("p(99999999999999999999).", "1:3: integer out of range: 99999999999999999999 | 1:3: integer out of range: 99999999999999999999 | 1:3: integer out of range: 99999999999999999999 | 1:3: integer out of range: 99999999999999999999"),
    ("p(X) <- X = 3 - 9223372036854775809.", "1:17: integer out of range: 9223372036854775809 | 1:17: integer out of range: 9223372036854775809 | 1:17: integer out of range: 9223372036854775809 | 1:17: integer out of range: 9223372036854775809"),
    ("p(9223372036854775808).", "1:3: integer out of range: 9223372036854775808 | 1:3: integer out of range: 9223372036854775808 | 1:3: integer out of range: 9223372036854775808 | 1:3: integer out of range: 9223372036854775808"),
    ("3 - 9223372036854775808", "1:5: integer out of range: 9223372036854775808 | 1:5: integer out of range: 9223372036854775808 | 1:5: integer out of range: 9223372036854775808 | 1:5: integer out of range: 9223372036854775808"),
    ("p(X) <-\r\n\tq(X) r.", "2:7: expected '.' ending a rule, found Some(Ident(\"r\")) | 2:7: expected '.' ending a rule, found Some(Ident(\"r\")) | 1:6: trailing input after term | 1:6: trailing input after query"),
    ("p(X) q", "1:6: expected '.' ending a rule, found Some(Ident(\"q\")) | 1:6: expected '.' ending a rule, found Some(Ident(\"q\")) | 1:6: trailing input after term | 1:6: trailing input after query"),
    ("p(X). q(Y) <- r(Y) s", "1:20: expected '.' ending a rule, found Some(Ident(\"s\")) | 1:7: trailing input after rule | 1:5: trailing input after term | 1:7: trailing input after query"),
    ("p().", "1:4: empty argument list for p | 1:4: empty argument list for p | 1:4: empty argument list for p | 1:4: empty argument list for p"),
    ("scons(1)", "1:8: scons takes exactly 2 arguments | 1:8: scons takes exactly 2 arguments | 1:8: scons takes exactly 2 arguments | 1:8: scons takes exactly 2 arguments"),
    ("<(X, Y) <- p(X, Y).", "1:9: built-in predicate < cannot be a rule head | 1:9: built-in predicate < cannot be a rule head | 1:9: expected '>' closing a grouping term, found Some(Arrow) | 1:9: trailing input after query"),
    ("p((1, 2)) <- (1, 2).", "1:20: a tuple is not a predicate | 1:20: a tuple is not a predicate | 1:11: trailing input after term | 1:11: trailing input after query"),
    ("p(X) <- 3.", "1:10: expected a predicate, found term 3 | 1:10: expected a predicate, found term 3 | 1:6: trailing input after term | 1:6: trailing input after query"),
    ("?- q(X). r", "1:4: expected a term, found Some(Query) | 1:4: expected a term, found Some(Query) | 1:4: expected a term, found Some(Query) | 1:10: trailing input after query"),
    ("p(X) <- q(X) mod .", "1:18: expected a term, found Some(Dot) | 1:18: expected a term, found Some(Dot) | 1:6: trailing input after term | 1:6: trailing input after query"),
    ("f(X) + ", "1:6: expected a term, found None | 1:6: expected a term, found None | 1:6: expected a term, found None | 1:6: expected a term, found None"),
    ("p(X) <- +(1, 2, ", "1:15: expected a term, found None | 1:15: expected a term, found None | 1:6: trailing input after term | 1:6: trailing input after query"),
    ("% only a comment", "ok | 1:1: expected a term, found None | 1:1: expected a term, found None | 1:1: expected a term, found None"),
    ("p(X) <- q(X). % trailing\n r(é) <- .", "2:10: expected a term, found Some(Dot) | 2:2: trailing input after rule | 1:6: trailing input after term | 1:6: trailing input after query"),
];

#[test]
fn errors_are_unchanged() {
    for (src, want) in CORPUS {
        let got = [
            show(parse_program(src)),
            show(parse_rule(src)),
            show(parse_term(src)),
            show(parse_atom(src)),
        ];
        assert_eq!(got.join(" | "), *want, "source {src:?}");
    }
}
