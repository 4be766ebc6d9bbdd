//! Recursive-descent parser.

use ldl_ast::literal::{Atom, Literal};
use ldl_ast::program::Program;
use ldl_ast::rule::Rule;
use ldl_ast::term::{tuple_functor, Term, Var};
use ldl_value::arith::{ArithOp, CmpOp};
use ldl_value::Value;

use crate::error::{ParseError, Pos};
use crate::lexer::{Lexer, Spanned, Tok};

/// Maximum term/set nesting depth the recursive-descent parser accepts.
/// The parser recurses once per nesting level, so unbounded input like a
/// 100k-deep `scons` chain would overflow the stack; past this depth it
/// returns a parse error instead. Debug builds spend roughly 8 KiB of
/// stack per level (measured: depth 200 fits a 2 MiB thread, depth 300
/// does not), so the limit is set to keep worst-case recursion near 1 MiB
/// — safe on a default 2 MiB spawned thread — while still being far
/// deeper than any realistic program nests. Lists and argument lists are
/// parsed iteratively and do not count toward this limit.
const MAX_DEPTH: usize = 128;

/// `lexer`'s next token; `None` at the end of the input and, for good,
/// after a lexing error, which is kept in `err`.
fn pull<'a>(lexer: &mut Lexer<'a>, err: &mut Option<ParseError>) -> Option<Spanned<'a>> {
    if err.is_some() {
        return None;
    }
    match lexer.next()? {
        Ok(t) => Some(t),
        Err(e) => {
            *err = Some(e);
            None
        }
    }
}

/// A recursive-descent parser over a streaming lexer, with the two tokens
/// of lookahead that [`Parser::peek2`] needs.
struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The next two tokens; `None` past the end of the input, or past a
    /// lexing error.
    ahead: [Option<Spanned<'a>>; 2],
    /// Where the last consumed token starts: an error at the end of the
    /// input points there.
    last: Pos,
    /// The lexing error that stopped the lexer, if one did.
    lex_err: Option<ParseError>,
    /// Current term-nesting recursion depth (see [`MAX_DEPTH`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        let (mut lexer, mut lex_err) = (Lexer::new(src), None);
        let first = pull(&mut lexer, &mut lex_err);
        let second = pull(&mut lexer, &mut lex_err);
        Parser {
            lexer,
            ahead: [first, second],
            last: Pos { line: 1, col: 1 },
            lex_err,
            depth: 0,
        }
    }

    fn lex(&mut self) -> Option<Spanned<'a>> {
        pull(&mut self.lexer, &mut self.lex_err)
    }

    /// The outcome of a parse, unless the input does not lex: the first
    /// lexing error anywhere in it wins over any parse error, as if the
    /// whole input had been lexed first.
    fn finish<T>(&mut self, out: Result<T, ParseError>) -> Result<T, ParseError> {
        if out.is_err() {
            while self.lex().is_some() {}
        }
        match self.lex_err.take() {
            Some(e) => Err(e),
            None => out,
        }
    }

    fn pos(&self) -> Pos {
        self.ahead[0].as_ref().map_or(self.last, |s| s.pos)
    }

    fn peek(&self) -> Option<&Tok<'a>> {
        self.ahead[0].as_ref().map(|s| &s.tok)
    }

    fn peek2(&self) -> Option<&Tok<'a>> {
        self.ahead[1].as_ref().map(|s| &s.tok)
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.ahead[0].take()?;
        self.last = t.pos;
        let after = self.lex();
        self.ahead[0] = std::mem::replace(&mut self.ahead[1], after);
        Some(t.tok)
    }

    fn eat(&mut self, t: &Tok) -> bool {
        let hit = self.peek() == Some(t);
        if hit {
            self.next();
        }
        hit
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.pos(), message)
    }

    fn at_end(&self) -> bool {
        self.ahead[0].is_none()
    }

    /// `parsed`, if it took the whole input.
    fn done<T>(&self, parsed: T, what: &str) -> Result<T, ParseError> {
        if self.at_end() {
            Ok(parsed)
        } else {
            Err(self.err(format!("trailing input after {what}")))
        }
    }

    // ---- terms -------------------------------------------------------

    /// term := product (('+' | '-') product)*, and product := primary (('*'
    /// | '/' | 'mod') primary)*, both left-associative. One loop keeps the
    /// sum so far beside the product it is building, so a term with no
    /// operator — nearly every argument — comes straight from `primary`.
    fn term(&mut self) -> Result<Term, ParseError> {
        let arith = |op, lhs, rhs| Term::Arith(op, Box::new(lhs), Box::new(rhs));
        let mut sum: Option<(ArithOp, Term)> = None;
        let mut product = self.primary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => ArithOp::Add,
                Some(Tok::Minus) => ArithOp::Sub,
                Some(Tok::Star) => ArithOp::Mul,
                Some(Tok::Slash) => ArithOp::Div,
                Some(Tok::Mod) => ArithOp::Mod,
                _ => break,
            };
            self.next();
            let rhs = self.primary()?;
            if let ArithOp::Add | ArithOp::Sub = op {
                let lhs = match sum.take() {
                    Some((prev, lhs)) => arith(prev, lhs, product),
                    None => product,
                };
                sum = Some((op, lhs));
                product = rhs;
            } else {
                product = arith(op, product, rhs);
            }
        }
        Ok(match sum {
            Some((op, lhs)) => arith(op, lhs, product),
            None => product,
        })
    }

    fn primary(&mut self) -> Result<Term, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(format!(
                "term nesting deeper than {MAX_DEPTH} levels; deeper terms \
                 would overflow the parser stack"
            )));
        }
        self.depth += 1;
        let out = self.primary_inner();
        self.depth -= 1;
        out
    }

    fn primary_inner(&mut self) -> Result<Term, ParseError> {
        match self.next() {
            Some(Tok::Int(n)) => i64::try_from(n)
                .map(Term::int)
                .map_err(|_| ParseError::new(self.last, format!("integer out of range: {n}"))),
            Some(Tok::Minus) => match self.next() {
                // The magnitude is at most 2^63, so its negation fits.
                Some(Tok::Int(n)) => Ok(Term::int(0i64.wrapping_sub_unsigned(n))),
                _ => Err(self.err("expected integer after unary '-'")),
            },
            Some(Tok::Str(s)) => Ok(Term::Const(Value::str(&s))),
            Some(Tok::Var(v)) => Ok(Term::Var(Var::new(v))),
            Some(Tok::Anon) => Ok(Term::Anon),
            Some(Tok::Ident(name)) => {
                if self.eat(&Tok::LParen) {
                    let args = self.term_list(&Tok::RParen)?;
                    self.expect(&Tok::RParen, "')'")?;
                    if name == "scons" {
                        if args.len() != 2 {
                            return Err(self.err("scons takes exactly 2 arguments"));
                        }
                        let mut it = args.into_iter();
                        let h = it.next().expect("len checked");
                        let t = it.next().expect("len checked");
                        Ok(Term::Scons(Box::new(h), Box::new(t)))
                    } else if args.is_empty() {
                        Err(self.err(format!("empty argument list for {name}")))
                    } else {
                        Ok(Term::Compound(name.into(), args))
                    }
                } else {
                    Ok(Term::atom(name))
                }
            }
            Some(Tok::LBrace) => {
                if self.eat(&Tok::RBrace) {
                    return Ok(Term::empty_set());
                }
                let elems = self.term_list(&Tok::RBrace)?;
                self.expect(&Tok::RBrace, "'}'")?;
                Ok(Term::SetEnum(elems))
            }
            Some(Tok::LBracket) => {
                // Lists (§2.1 Remark: "LDL1 has lists … handled in the
                // usual manner"): `[a, b | T]` is sugar for
                // cons(a, cons(b, T)), `[]` for the atom nil.
                if self.eat(&Tok::RBracket) {
                    return Ok(Term::atom("nil"));
                }
                let mut elems = vec![self.term()?];
                while self.eat(&Tok::Comma) {
                    elems.push(self.term()?);
                }
                let tail = if self.eat(&Tok::Pipe) {
                    self.term()?
                } else {
                    Term::atom("nil")
                };
                self.expect(&Tok::RBracket, "']'")?;
                Ok(elems
                    .into_iter()
                    .rev()
                    .fold(tail, |acc, e| Term::Compound("cons".into(), vec![e, acc])))
            }
            Some(Tok::Lt) => {
                let inner = self.term()?;
                self.expect(&Tok::Gt, "'>' closing a grouping term")?;
                Ok(Term::Group(Box::new(inner)))
            }
            Some(Tok::LParen) => {
                let mut elems = vec![self.term()?];
                while self.eat(&Tok::Comma) {
                    elems.push(self.term()?);
                }
                self.expect(&Tok::RParen, "')'")?;
                if elems.len() == 1 {
                    // `(t)` is just parenthesization.
                    Ok(elems.pop().expect("len checked"))
                } else {
                    Ok(Term::Compound(tuple_functor(), elems))
                }
            }
            other => Err(self.err(format!("expected a term, found {other:?}"))),
        }
    }

    fn term_list(&mut self, terminator: &Tok) -> Result<Vec<Term>, ParseError> {
        let mut out = Vec::new();
        if self.peek() == Some(terminator) {
            return Ok(out);
        }
        out.push(self.term()?);
        while self.eat(&Tok::Comma) {
            out.push(self.term()?);
        }
        Ok(out)
    }

    // ---- literals ----------------------------------------------------

    fn comparison_op(&self) -> Option<CmpOp> {
        match self.peek() {
            Some(Tok::Eq) => Some(CmpOp::Eq),
            Some(Tok::Ne) => Some(CmpOp::Ne),
            Some(Tok::Lt) => Some(CmpOp::Lt),
            Some(Tok::Le) => Some(CmpOp::Le),
            Some(Tok::Gt) => Some(CmpOp::Gt),
            Some(Tok::Ge) => Some(CmpOp::Ge),
            _ => None,
        }
    }

    /// A functional built-in used as a predicate, e.g. `+(C1, C2, C)`.
    fn functional_builtin(&mut self) -> Result<Option<Atom>, ParseError> {
        let name = match (self.peek(), self.peek2()) {
            (Some(Tok::Plus), Some(Tok::LParen)) => "+",
            (Some(Tok::Minus), Some(Tok::LParen)) => "-",
            (Some(Tok::Star), Some(Tok::LParen)) => "*",
            (Some(Tok::Slash), Some(Tok::LParen)) => "/",
            (Some(Tok::Mod), Some(Tok::LParen)) => "mod",
            (Some(Tok::Eq), Some(Tok::LParen)) => "=",
            (Some(Tok::Ne), Some(Tok::LParen)) => "/=",
            (Some(Tok::Lt), Some(Tok::LParen)) => "<",
            (Some(Tok::Le), Some(Tok::LParen)) => "<=",
            (Some(Tok::Gt), Some(Tok::LParen)) => ">",
            (Some(Tok::Ge), Some(Tok::LParen)) => ">=",
            _ => return Ok(None),
        };
        self.next(); // op
        self.next(); // '('
        let args = self.term_list(&Tok::RParen)?;
        self.expect(&Tok::RParen, "')'")?;
        Ok(Some(Atom::new(name, args)))
    }

    fn atom_or_comparison(&mut self) -> Result<Atom, ParseError> {
        if let Some(atom) = self.functional_builtin()? {
            return Ok(atom);
        }
        let lhs = self.term()?;
        if let Some(op) = self.comparison_op() {
            self.next();
            let rhs = self.term()?;
            return Ok(Atom::new(op.name(), vec![lhs, rhs]));
        }
        term_to_atom(lhs).map_err(|m| self.err(m))
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        if self.eat(&Tok::Tilde) {
            Ok(Literal::neg(self.atom_or_comparison()?))
        } else {
            Ok(Literal::pos(self.atom_or_comparison()?))
        }
    }

    // ---- rules and programs ------------------------------------------

    fn rule(&mut self) -> Result<Rule, ParseError> {
        let head = self.atom_or_comparison()?;
        if CmpOp::from_name(head.pred.as_str()).is_some()
            || ArithOp::from_name(head.pred.as_str()).is_some()
        {
            return Err(self.err(format!(
                "built-in predicate {} cannot be a rule head",
                head.pred
            )));
        }
        let body = if self.eat(&Tok::Arrow) {
            let mut b = vec![self.literal()?];
            while self.eat(&Tok::Comma) {
                b.push(self.literal()?);
            }
            b
        } else {
            Vec::new()
        };
        self.expect(&Tok::Dot, "'.' ending a rule")?;
        Ok(Rule::new(head, body))
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut p = Program::new();
        while !self.at_end() {
            p.push(self.rule()?);
        }
        Ok(p)
    }
}

/// A parsed term that should have been a predicate application.
fn term_to_atom(t: Term) -> Result<Atom, String> {
    match t {
        Term::Compound(f, args) => {
            if f == tuple_functor() {
                Err("a tuple is not a predicate".into())
            } else {
                Ok(Atom::new(f, args))
            }
        }
        Term::Const(Value::Atom(s)) => Ok(Atom::new(s, vec![])),
        other => Err(format!("expected a predicate, found term {other}")),
    }
}

/// Parse a whole program.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut p = Parser::new(src);
    let out = p.program();
    p.finish(out)
}

/// Parse a single rule (must consume the whole input).
pub fn parse_rule(src: &str) -> Result<Rule, ParseError> {
    let mut p = Parser::new(src);
    let out = p.rule().and_then(|r| p.done(r, "rule"));
    p.finish(out)
}

/// Parse a single term (must consume the whole input).
pub fn parse_term(src: &str) -> Result<Term, ParseError> {
    let mut p = Parser::new(src);
    let out = p.term().and_then(|t| p.done(t, "term"));
    p.finish(out)
}

/// Parse a query atom: `?- young(john, S).` (the `?-` and `.` are optional).
pub fn parse_atom(src: &str) -> Result<Atom, ParseError> {
    let mut p = Parser::new(src);
    let _ = p.eat(&Tok::Query);
    let out = p.atom_or_comparison().and_then(|a| {
        let _ = p.eat(&Tok::Dot);
        p.done(a, "query")
    });
    p.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        // A 100k-deep scons chain, parsed on a thread with the default
        // (small) stack: the depth guard must reject the input long before
        // the recursion endangers the stack. Debug builds burn ~8 KiB of
        // stack per nesting level, so if the guard regressed this would
        // overflow well before reaching the bottom of the chain.
        let handle = std::thread::Builder::new()
            .stack_size(2 * 1024 * 1024)
            .spawn(|| {
                let depth = 100_000;
                let mut src = String::with_capacity(depth * 12 + 16);
                src.push_str("p(");
                for _ in 0..depth {
                    src.push_str("scons(a, ");
                }
                src.push_str("{}");
                for _ in 0..depth {
                    src.push(')');
                }
                src.push_str(").");
                parse_program(&src)
            })
            .unwrap();
        let err = handle.join().unwrap().unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");

        // Depth just below the limit still parses (the guard counts
        // nesting, not tokens).
        let mut ok = String::from("p(");
        for _ in 0..64 {
            ok.push_str("scons(a, ");
        }
        ok.push_str("{}");
        for _ in 0..64 {
            ok.push(')');
        }
        ok.push_str(").");
        parse_program(&ok).unwrap();
    }

    #[test]
    fn parse_ancestor_program() {
        let p = parse_program(
            "ancestor(X, Y) <- parent(X, Y).\n\
             ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).",
        )
        .unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(
            p.rules[1].to_string(),
            "ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y)."
        );
    }

    #[test]
    fn parse_negation() {
        let r = parse_rule("excl_ancestor(X, Y, Z) <- ancestor(X, Y), ~ancestor(X, Z).").unwrap();
        assert!(!r.body[1].positive);
        assert_eq!(r.body[1].atom.pred.as_str(), "ancestor");
    }

    #[test]
    fn parse_grouping_head() {
        let r = parse_rule("part(P, <Sub>) <- p(P, Sub).").unwrap();
        assert!(r.is_grouping());
        assert_eq!(r.to_string(), "part(P, <Sub>) <- p(P, Sub).");
    }

    #[test]
    fn parse_sets_and_facts() {
        let p = parse_program("r(1). h({1}). w({1, 2}, 7). e({}).").unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(
            p.rules[1].head.args[0].to_value(),
            Some(Value::set(vec![Value::int(1)]))
        );
        assert_eq!(p.rules[3].head.args[0], Term::empty_set());
    }

    #[test]
    fn parse_book_deal() {
        let r = parse_rule(
            "book_deal({X, Y, Z}) <- book(X, Px), book(Y, Py), book(Z, Pz), \
             Px + Py + Pz < 100.",
        )
        .unwrap();
        assert_eq!(r.body.len(), 4);
        let cmp = &r.body[3].atom;
        assert_eq!(cmp.pred.as_str(), "<");
        assert_eq!(cmp.args[0].to_string(), "((Px + Py) + Pz)");
    }

    #[test]
    fn parse_functional_arith_predicate() {
        let r =
            parse_rule("tc(S, C) <- partition(S, S1, S2), tc(S1, C1), tc(S2, C2), +(C1, C2, C).")
                .unwrap();
        assert_eq!(r.body[3].atom.pred.as_str(), "+");
        assert_eq!(r.body[3].atom.arity(), 3);
    }

    #[test]
    fn parse_scons() {
        let t = parse_term("scons(a, {b})").unwrap();
        assert!(matches!(t, Term::Scons(..)));
        assert_eq!(
            t.to_value(),
            Some(Value::set(vec![Value::atom("a"), Value::atom("b")]))
        );
        assert!(parse_term("scons(a)").is_err());
    }

    #[test]
    fn comparison_vs_grouping_disambiguation() {
        // `<` at term start is grouping; after a term it is comparison.
        let r = parse_rule("q(<X>) <- p(X).").unwrap();
        assert!(r.is_grouping());
        let r2 = parse_rule("q(X) <- p(X), X < 3.").unwrap();
        assert_eq!(r2.body[1].atom.pred.as_str(), "<");
    }

    #[test]
    fn parse_ldl15_head_terms() {
        // (T, <S>, <D>) from §4.2.1 — tuple head term with groupings.
        let r = parse_rule("out((T, <S>, <D>)) <- r(T, S, C, D).").unwrap();
        let h = &r.head.args[0];
        assert_eq!(h.to_string(), "(T, <S>, <D>)");
        // nested: (T, <h(S, <D>)>)
        let r2 = parse_rule("out((T, <h(S, <D>)>)) <- r(T, S, C, D).").unwrap();
        assert_eq!(r2.head.args[0].to_string(), "(T, <h(S, <D>)>)");
    }

    #[test]
    fn parse_query() {
        let a = parse_atom("?- young(john, S).").unwrap();
        assert_eq!(a.pred.as_str(), "young");
        assert_eq!(a.args[0], Term::atom("john"));
        assert_eq!(a.args[1], Term::var("S"));
        // Bare atom accepted too.
        assert_eq!(parse_atom("young(john, S)").unwrap().pred.as_str(), "young");
    }

    #[test]
    fn negative_integers() {
        let t = parse_term("-5").unwrap();
        assert_eq!(t, Term::int(-5));
        let t2 = parse_term("3 - 5").unwrap();
        assert_eq!(t2.to_value(), Some(Value::int(-2)));
        // `i64::MIN` is spelled as it prints; its magnitude alone is out of
        // range, so infix minus cannot take it.
        let min = parse_term("-9223372036854775808").unwrap();
        assert_eq!(min, Term::int(i64::MIN));
        assert_eq!(parse_term(&min.to_string()).unwrap(), min);
        let e = parse_term("3 - 9223372036854775808").unwrap_err();
        assert_eq!(e.message, "integer out of range: 9223372036854775808");
    }

    #[test]
    fn arith_precedence() {
        assert_eq!(
            parse_term("1 + 2 * 3").unwrap().to_value(),
            Some(Value::int(7))
        );
        assert_eq!(
            parse_term("(1 + 2) * 3").unwrap().to_value(),
            Some(Value::int(9))
        );
        assert_eq!(
            parse_term("7 mod 3 + 1").unwrap().to_value(),
            Some(Value::int(2))
        );
        // Both levels left-associative, products bound first.
        assert_eq!(
            parse_term("1 - 2 * 3 + 4 / 2 mod 3 - 5 * 6 * 7")
                .unwrap()
                .to_string(),
            "(((1 - (2 * 3)) + ((4 / 2) mod 3)) - ((5 * 6) * 7))"
        );
    }

    #[test]
    fn lists_are_cons_sugar() {
        assert_eq!(parse_term("[]").unwrap(), Term::atom("nil"));
        let t = parse_term("[1, 2]").unwrap();
        assert_eq!(t.to_string(), "[1, 2]");
        assert_eq!(
            t,
            Term::compound(
                "cons",
                vec![
                    Term::int(1),
                    Term::compound("cons", vec![Term::int(2), Term::atom("nil")])
                ]
            )
        );
        // Tail syntax.
        let ht = parse_term("[H | T]").unwrap();
        assert_eq!(
            ht,
            Term::compound("cons", vec![Term::var("H"), Term::var("T")])
        );
        // Lists of sets, sets of lists.
        let mix = parse_term("[{1}, {2, 3}]").unwrap();
        assert!(mix.to_value().is_some());
    }

    #[test]
    fn zero_arity_predicates() {
        let p = parse_program("halt. go <- halt.").unwrap();
        assert_eq!(p.rules[0].head.arity(), 0);
        assert_eq!(p.rules[1].body[0].atom.arity(), 0);
    }

    #[test]
    fn errors_have_positions() {
        let e = parse_program("p(X) <- q(X)").unwrap_err(); // missing dot
        assert!(e.to_string().contains("expected '.'"));
        assert!(parse_rule("<(X, Y) <- p(X, Y).").is_err()); // builtin head
        assert!(parse_program("p(X) <- .").is_err());
        assert!(parse_program("p().").is_err());
    }

    #[test]
    fn strings_and_anon() {
        let r = parse_rule("t(\"hello\", _) <- s(_).").unwrap();
        assert_eq!(r.head.args[0], Term::Const(Value::str("hello")));
        assert_eq!(r.head.args[1], Term::Anon);
    }

    #[test]
    fn round_trip_pretty_then_parse() {
        let srcs = [
            "ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).",
            "part(P, <Sub>) <- p(P, Sub).",
            "q(X) <- p(X), ~r(X).",
            "w({1, 2}, 7).",
        ];
        for s in srcs {
            let r = parse_rule(s).unwrap();
            let printed = r.to_string();
            let r2 = parse_rule(&printed).unwrap();
            assert_eq!(r, r2, "round-trip failed for {s}");
        }
    }
}
