//! Lexer for mini-C.

use crate::error::CompileError;

/// A lexical token kind.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    // literals and identifiers
    Ident(String),
    IntLit(i64),
    FltLit(f64),
    CharLit(u8),
    StrLit(String),
    // keywords
    KwInt,
    KwChar,
    KwDouble,
    KwVoid,
    KwIf,
    KwElse,
    KwWhile,
    KwDo,
    KwFor,
    KwReturn,
    KwBreak,
    KwContinue,
    // punctuation / operators
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Question,
    Colon,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    PlusPlus,
    MinusMinus,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Not,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Shl,
    Shr,
    Eof,
}

/// A token with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: u32,
}

/// Streaming lexer over mini-C source text.
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    /// Create a lexer over `source`.
    pub fn new(source: &'a str) -> Lexer<'a> {
        Lexer {
            src: source.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    /// Tokenize the whole input.
    ///
    /// # Errors
    ///
    /// Returns an error for unterminated literals/comments or stray
    /// characters.
    pub fn tokenize(mut self) -> Result<Vec<Token>, CompileError> {
        let mut out = Vec::new();
        loop {
            let t = self.next_token()?;
            let eof = t.kind == TokenKind::Eof;
            out.push(t);
            if eof {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        c
    }

    fn skip_trivia(&mut self) -> Result<(), CompileError> {
        loop {
            match self.peek() {
                // C's whitespace: space, tab, CR, LF, form feed, vertical tab
                b' ' | b'\t' | b'\r' | b'\n' | b'\x0c' | b'\x0b' => {
                    self.bump();
                }
                b'/' if self.peek2() == b'*' => {
                    let start = self.line;
                    self.bump();
                    self.bump();
                    loop {
                        if self.pos >= self.src.len() {
                            return Err(CompileError::new(start, "unterminated comment"));
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.bump();
                            self.bump();
                            break;
                        }
                        self.bump();
                    }
                }
                b'/' if self.peek2() == b'/' => {
                    while self.pos < self.src.len() && self.peek() != b'\n' {
                        self.bump();
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Token, CompileError> {
        self.skip_trivia()?;
        let line = self.line;
        let mk = |kind| Token { kind, line };
        if self.pos >= self.src.len() {
            return Ok(mk(TokenKind::Eof));
        }
        let c = self.peek();
        // identifiers / keywords
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = self.pos;
            while self.peek().is_ascii_alphanumeric() || self.peek() == b'_' {
                self.bump();
            }
            let word = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
            let kind = match word {
                "int" => TokenKind::KwInt,
                "char" => TokenKind::KwChar,
                "double" => TokenKind::KwDouble,
                "void" => TokenKind::KwVoid,
                "if" => TokenKind::KwIf,
                "else" => TokenKind::KwElse,
                "while" => TokenKind::KwWhile,
                "do" => TokenKind::KwDo,
                "for" => TokenKind::KwFor,
                "return" => TokenKind::KwReturn,
                "break" => TokenKind::KwBreak,
                "continue" => TokenKind::KwContinue,
                _ => TokenKind::Ident(word.to_string()),
            };
            return Ok(mk(kind));
        }
        // numbers
        if c.is_ascii_digit() {
            return self.lex_number().map(|kind| Token { kind, line });
        }
        // char literal
        if c == b'\'' {
            self.bump();
            let v = self.lex_char_escape(b'\'')?;
            if self.bump() != b'\'' {
                return Err(CompileError::new(line, "unterminated character literal"));
            }
            return Ok(mk(TokenKind::CharLit(v)));
        }
        // string literal
        if c == b'"' {
            self.bump();
            let mut s = String::new();
            loop {
                if self.pos >= self.src.len() {
                    return Err(CompileError::new(line, "unterminated string literal"));
                }
                if self.peek() == b'"' {
                    self.bump();
                    break;
                }
                let v = self.lex_char_escape(b'"')?;
                s.push(v as char);
            }
            return Ok(mk(TokenKind::StrLit(s)));
        }
        // operators
        self.bump();
        let two = |l: &mut Lexer<'a>, next: u8, yes: TokenKind, no: TokenKind| {
            if l.peek() == next {
                l.bump();
                yes
            } else {
                no
            }
        };
        let kind = match c {
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b';' => TokenKind::Semi,
            b',' => TokenKind::Comma,
            b'?' => TokenKind::Question,
            b':' => TokenKind::Colon,
            b'~' => TokenKind::Tilde,
            b'^' => TokenKind::Caret,
            b'+' => match self.peek() {
                b'+' => {
                    self.bump();
                    TokenKind::PlusPlus
                }
                b'=' => {
                    self.bump();
                    TokenKind::PlusAssign
                }
                _ => TokenKind::Plus,
            },
            b'-' => match self.peek() {
                b'-' => {
                    self.bump();
                    TokenKind::MinusMinus
                }
                b'=' => {
                    self.bump();
                    TokenKind::MinusAssign
                }
                _ => TokenKind::Minus,
            },
            b'*' => two(self, b'=', TokenKind::StarAssign, TokenKind::Star),
            b'/' => two(self, b'=', TokenKind::SlashAssign, TokenKind::Slash),
            b'%' => two(self, b'=', TokenKind::PercentAssign, TokenKind::Percent),
            b'=' => two(self, b'=', TokenKind::Eq, TokenKind::Assign),
            b'!' => two(self, b'=', TokenKind::Ne, TokenKind::Not),
            b'<' => match self.peek() {
                b'=' => {
                    self.bump();
                    TokenKind::Le
                }
                b'<' => {
                    self.bump();
                    TokenKind::Shl
                }
                _ => TokenKind::Lt,
            },
            b'>' => match self.peek() {
                b'=' => {
                    self.bump();
                    TokenKind::Ge
                }
                b'>' => {
                    self.bump();
                    TokenKind::Shr
                }
                _ => TokenKind::Gt,
            },
            b'&' => two(self, b'&', TokenKind::AndAnd, TokenKind::Amp),
            b'|' => two(self, b'|', TokenKind::OrOr, TokenKind::Pipe),
            other => {
                return Err(CompileError::new(
                    line,
                    format!("unexpected character {:?}", other as char),
                ))
            }
        };
        Ok(mk(kind))
    }

    fn lex_number(&mut self) -> Result<TokenKind, CompileError> {
        let start = self.pos;
        let line = self.line;
        // hex
        if self.peek() == b'0' && (self.peek2() == b'x' || self.peek2() == b'X') {
            self.bump();
            self.bump();
            let hs = self.pos;
            while self.peek().is_ascii_hexdigit() {
                self.bump();
            }
            let text = std::str::from_utf8(&self.src[hs..self.pos]).unwrap();
            let v = i64::from_str_radix(text, 16)
                .map_err(|_| CompileError::new(line, "invalid hex literal"))?;
            return Ok(TokenKind::IntLit(v));
        }
        while self.peek().is_ascii_digit() {
            self.bump();
        }
        let mut is_float = false;
        if self.peek() == b'.' && self.peek2().is_ascii_digit() {
            is_float = true;
            self.bump();
            while self.peek().is_ascii_digit() {
                self.bump();
            }
        }
        if self.peek() == b'e' || self.peek() == b'E' {
            let save = self.pos;
            self.bump();
            if self.peek() == b'+' || self.peek() == b'-' {
                self.bump();
            }
            if self.peek().is_ascii_digit() {
                is_float = true;
                while self.peek().is_ascii_digit() {
                    self.bump();
                }
            } else {
                self.pos = save;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(TokenKind::FltLit)
                .map_err(|_| CompileError::new(line, "invalid float literal"))
        } else {
            text.parse::<i64>()
                .map(TokenKind::IntLit)
                .map_err(|_| CompileError::new(line, "integer literal out of range"))
        }
    }

    fn lex_char_escape(&mut self, _quote: u8) -> Result<u8, CompileError> {
        let line = self.line;
        let c = self.bump();
        if c != b'\\' {
            return Ok(c);
        }
        let e = self.bump();
        Ok(match e {
            b'n' => b'\n',
            b't' => b'\t',
            b'r' => b'\r',
            b'0' => 0,
            b'\\' => b'\\',
            b'\'' => b'\'',
            b'"' => b'"',
            other => {
                return Err(CompileError::new(
                    line,
                    format!("unknown escape \\{}", other as char),
                ))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            kinds("int x while whilex"),
            vec![
                TokenKind::KwInt,
                TokenKind::Ident("x".into()),
                TokenKind::KwWhile,
                TokenKind::Ident("whilex".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("42 3.5 1e3 0x1f 7e"),
            vec![
                TokenKind::IntLit(42),
                TokenKind::FltLit(3.5),
                TokenKind::FltLit(1000.0),
                TokenKind::IntLit(31),
                TokenKind::IntLit(7),
                TokenKind::Ident("e".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("a += b++ << c <= d && e"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::PlusAssign,
                TokenKind::Ident("b".into()),
                TokenKind::PlusPlus,
                TokenKind::Shl,
                TokenKind::Ident("c".into()),
                TokenKind::Le,
                TokenKind::Ident("d".into()),
                TokenKind::AndAnd,
                TokenKind::Ident("e".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn char_and_string_literals() {
        assert_eq!(
            kinds(r#"'a' '\n' "hi\n""#),
            vec![
                TokenKind::CharLit(b'a'),
                TokenKind::CharLit(b'\n'),
                TokenKind::StrLit("hi\n".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_and_lines() {
        let toks = Lexer::new("a // one\n/* two\nlines */ b")
            .tokenize()
            .unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 3);
    }

    #[test]
    fn form_feed_and_vertical_tab_are_whitespace() {
        assert_eq!(
            kinds("return\x0c3\x0b;"),
            vec![
                TokenKind::KwReturn,
                TokenKind::IntLit(3),
                TokenKind::Semi,
                TokenKind::Eof
            ]
        );
        let toks = Lexer::new("a\x0c\nb").tokenize().unwrap();
        assert_eq!(toks[1].line, 2, "a form feed starts no line");
    }

    #[test]
    fn errors() {
        assert!(Lexer::new("\"unterminated").tokenize().is_err());
        assert!(Lexer::new("/* open").tokenize().is_err());
        assert!(Lexer::new("$").tokenize().is_err());
        assert!(Lexer::new("'ab").tokenize().is_err());
    }
}
