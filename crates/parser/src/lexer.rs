//! Tokenizer for the LDL1 concrete syntax.
//!
//! The lexer hands out one token at a time and allocates only for a string
//! literal: a name borrows its text from the source, and an integer is read
//! from its digits in place.

use crate::error::{ParseError, Pos};

/// A lexical token. Names borrow from the source text.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Tok<'a> {
    /// Lower-case-initial identifier: atom / functor / predicate name.
    Ident(&'a str),
    /// Upper-case- or `_`-initial identifier: variable name.
    Var(&'a str),
    /// The bare anonymous variable `_`.
    Anon,
    /// Integer literal: the magnitude of a digit run, at most 2^63 so that
    /// unary minus can spell `i64::MIN`. The parser refuses 2^63 without it.
    Int(u64),
    /// Double-quoted string literal, escapes decoded.
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `|` (list tail separator)
    Pipe,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `/=` or `!=`
    Ne,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `<-` or `:-`
    Arrow,
    /// `~`
    Tilde,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `mod` (keyword)
    Mod,
    /// `?-` query prefix.
    Query,
}

/// A token together with its source position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Spanned<'a> {
    /// The token.
    pub tok: Tok<'a>,
    /// Its source position.
    pub pos: Pos,
}

/// Tokenize `src` completely.
pub fn lex(src: &str) -> Result<Vec<Spanned<'_>>, ParseError> {
    Lexer::new(src).collect()
}

/// A streaming tokenizer: each `next` lexes one token, `None` at the end of
/// the input. Positions are 1-based lines and columns, and a column counts
/// chars, not bytes.
pub(crate) struct Lexer<'a> {
    src: &'a str,
    /// Byte offset of the next unread char.
    at: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `src`.
    pub(crate) fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            at: 0,
            line: 1,
            col: 1,
        }
    }

    #[inline]
    fn peek(&self) -> Option<char> {
        let b = *self.src.as_bytes().get(self.at)?;
        if b.is_ascii() {
            Some(char::from(b))
        } else {
            self.src[self.at..].chars().next()
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.advance(c);
        Some(c)
    }

    /// Step over `c`, the char `peek` returned.
    #[inline]
    fn advance(&mut self, c: char) {
        self.at += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
    }

    /// Consume `c` if it is the next char.
    fn eat(&mut self, c: char) -> bool {
        let hit = self.peek() == Some(c);
        if hit {
            self.advance(c);
        }
        hit
    }

    /// Consume chars while `f` holds.
    fn skip_while(&mut self, f: impl Fn(char) -> bool) {
        while let Some(c) = self.peek().filter(|&c| f(c)) {
            self.advance(c);
        }
    }

    /// The rest of a string literal opened at `pos`, escapes decoded:
    /// every escape `str`'s `Debug` writes, so a printed string reads back.
    fn string(&mut self, pos: Pos) -> Result<Tok<'a>, ParseError> {
        let mut s = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(Tok::Str(s)),
                Some('\\') => s.push(match self.bump() {
                    Some('n') => '\n',
                    Some('t') => '\t',
                    Some('r') => '\r',
                    Some('0') => '\0',
                    Some('\\') => '\\',
                    Some('"') => '"',
                    Some('\'') => '\'',
                    Some('u') => self
                        .unicode_escape()
                        .map_err(|e| ParseError::new(pos, format!("bad unicode escape: {e}")))?,
                    other => {
                        return Err(ParseError::new(pos, format!("bad string escape {other:?}")))
                    }
                }),
                Some(c) => s.push(c),
                None => return Err(ParseError::new(pos, "unterminated string literal")),
            }
        }
    }

    /// The rest of a `\u{…}` escape after its `u`: one to six hex digits
    /// in braces naming a Unicode scalar value.
    fn unicode_escape(&mut self) -> Result<char, String> {
        match self.bump() {
            Some('{') => {}
            other => return Err(format!("expected '{{' after \\u, found {other:?}")),
        }
        let (mut value, mut digits) = (0u32, 0);
        loop {
            match self.bump() {
                Some('}') if digits > 0 => break,
                Some(c) if digits < 6 && c.is_ascii_hexdigit() => {
                    value = value * 16 + c.to_digit(16).expect("a hex digit");
                    digits += 1;
                }
                other => {
                    return Err(format!(
                        "expected 1 to 6 hex digits and '}}', found {other:?}"
                    ))
                }
            }
        }
        char::from_u32(value).ok_or_else(|| format!("U+{value:X} is not a Unicode scalar value"))
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Spanned<'a>, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        // Skip whitespace and comments.
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => self.advance(c),
                Some('%') => self.skip_while(|c| c != '\n'),
                _ => break,
            }
        }
        let (start, pos) = (
            self.at,
            Pos {
                line: self.line,
                col: self.col,
            },
        );
        let err = |message: String| Some(Err(ParseError::new(pos, message)));
        let c = self.peek()?;
        self.advance(c);
        let tok = match c {
            '(' => Tok::LParen,
            ')' => Tok::RParen,
            '{' => Tok::LBrace,
            '}' => Tok::RBrace,
            '[' => Tok::LBracket,
            ']' => Tok::RBracket,
            '|' => Tok::Pipe,
            ',' => Tok::Comma,
            '.' => Tok::Dot,
            '~' => Tok::Tilde,
            '+' => Tok::Plus,
            '*' => Tok::Star,
            '=' => Tok::Eq,
            // A `-` before digits is still a token of its own: the parser
            // tells unary minus from infix minus.
            '-' => Tok::Minus,
            '!' if self.eat('=') => Tok::Ne,
            '!' => return err("expected '=' after '!'".into()),
            '/' if self.eat('=') => Tok::Ne,
            '/' => Tok::Slash,
            ':' if self.eat('-') => Tok::Arrow,
            ':' => return err("expected '-' after ':'".into()),
            '?' if self.eat('-') => Tok::Query,
            '?' => return err("expected '-' after '?'".into()),
            '<' if self.eat('-') => Tok::Arrow,
            '<' if self.eat('=') => Tok::Le,
            '<' => Tok::Lt,
            '>' if self.eat('=') => Tok::Ge,
            '>' => Tok::Gt,
            '"' => match self.string(pos) {
                Ok(tok) => tok,
                Err(e) => return Some(Err(e)),
            },
            c if c.is_ascii_digit() => {
                self.skip_while(|c| c.is_ascii_digit());
                let digits = &self.src[start..self.at];
                match digits.parse::<u64>() {
                    Ok(n) if n <= 1 << 63 => Tok::Int(n),
                    _ => return err(format!("integer out of range: {digits}")),
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                self.skip_while(|c| c.is_alphanumeric() || c == '_');
                match &self.src[start..self.at] {
                    "_" => Tok::Anon,
                    "mod" => Tok::Mod,
                    id if id.starts_with(|c: char| c.is_uppercase() || c == '_') => Tok::Var(id),
                    id => Tok::Ident(id),
                }
            }
            other => return err(format!("unexpected character {other:?}")),
        };
        Some(Ok(Spanned { tok, pos }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn lex_rule() {
        assert_eq!(
            toks("a(X) <- p(X)."),
            vec![
                Tok::Ident("a"),
                Tok::LParen,
                Tok::Var("X"),
                Tok::RParen,
                Tok::Arrow,
                Tok::Ident("p"),
                Tok::LParen,
                Tok::Var("X"),
                Tok::RParen,
                Tok::Dot,
            ]
        );
    }

    #[test]
    fn lex_operators() {
        assert_eq!(
            toks("< <= > >= = /= != <- :- ?- ~ + - * / mod"),
            vec![
                Tok::Lt,
                Tok::Le,
                Tok::Gt,
                Tok::Ge,
                Tok::Eq,
                Tok::Ne,
                Tok::Ne,
                Tok::Arrow,
                Tok::Arrow,
                Tok::Query,
                Tok::Tilde,
                Tok::Plus,
                Tok::Minus,
                Tok::Star,
                Tok::Slash,
                Tok::Mod,
            ]
        );
    }

    #[test]
    fn lex_sets_groups_vars() {
        assert_eq!(
            toks("part(P, <Sub>) <- p(P, {1, 2})."),
            vec![
                Tok::Ident("part"),
                Tok::LParen,
                Tok::Var("P"),
                Tok::Comma,
                Tok::Lt,
                Tok::Var("Sub"),
                Tok::Gt,
                Tok::RParen,
                Tok::Arrow,
                Tok::Ident("p"),
                Tok::LParen,
                Tok::Var("P"),
                Tok::Comma,
                Tok::LBrace,
                Tok::Int(1),
                Tok::Comma,
                Tok::Int(2),
                Tok::RBrace,
                Tok::RParen,
                Tok::Dot,
            ]
        );
    }

    #[test]
    fn comments_and_whitespace_skipped() {
        assert_eq!(
            toks("% header\n  p(1). % trailing\n"),
            vec![
                Tok::Ident("p"),
                Tok::LParen,
                Tok::Int(1),
                Tok::RParen,
                Tok::Dot
            ]
        );
    }

    #[test]
    fn anon_and_underscore_vars() {
        assert_eq!(
            toks("_ _X Abc"),
            vec![Tok::Anon, Tok::Var("_X"), Tok::Var("Abc")]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(toks(r#""a\nb""#), vec![Tok::Str("a\nb".into())]);
        // Every escape `str`'s `Debug` writes reads back.
        assert_eq!(toks(r#""a\rb""#), vec![Tok::Str("a\rb".into())]);
        assert_eq!(
            toks(r#""\0\'\u{1b}\u{7f}\u{10FFFF}\u{e9}""#),
            vec![Tok::Str("\0'\u{1b}\u{7f}\u{10ffff}é".into())]
        );
        for bad in [
            r#""\u""#,
            r#""\u1b""#,
            r#""\u{}""#,
            r#""\u{1234567}""#,
            r#""\u{d800}""#,
        ] {
            let err = lex(bad).unwrap_err();
            assert!(
                err.message.starts_with("bad unicode escape: "),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn positions_reported() {
        let ts = lex("p(\n  X)").unwrap();
        assert_eq!(ts[2].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn errors() {
        assert!(lex("\"abc").is_err());
        assert!(lex("p :: q").is_err());
        assert!(lex("p # q").is_err());
    }
}
