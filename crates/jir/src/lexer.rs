//! Hand-written lexer for jweb source.

use std::collections::HashMap;
use std::fmt;

use crate::ast::{Names, Sym};

/// A lexical token kind (with payload for literals and identifiers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword-free name, interned in the parse's [`Names`].
    Ident(Sym),
    /// Integer literal.
    Int(i64),
    /// String literal (unescaped).
    Str(String),
    // Keywords.
    /// `class`
    Class,
    /// `interface`
    Interface,
    /// `library`
    Library,
    /// `extends`
    Extends,
    /// `implements`
    Implements,
    /// `field`
    FieldKw,
    /// `method`
    MethodKw,
    /// `ctor`
    Ctor,
    /// `static`
    Static,
    /// `void`
    Void,
    /// `int`
    IntKw,
    /// `boolean`
    BooleanKw,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `for`
    For,
    /// `return`
    Return,
    /// `throw`
    Throw,
    /// `try`
    Try,
    /// `catch`
    Catch,
    /// `new`
    New,
    /// `null`
    Null,
    /// `true`
    True,
    /// `false`
    False,
    /// `this`
    This,
    // Punctuation / operators.
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Assign,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `!`
    Bang,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// End of input.
    Eof,
}

impl Tok {
    /// Describes the token for an error message, quoting an identifier's
    /// text from `names`.
    pub fn describe(&self, names: &Names) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{}`", names.text(*s)),
            Tok::Int(n) => format!("integer `{n}`"),
            Tok::Str(_) => "string literal".into(),
            Tok::Eof => "end of input".into(),
            other => format!("`{other:?}`"),
        }
    }
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Kind and payload.
    pub tok: Tok,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// A lexing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Explanation.
    pub msg: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes `src`, appending a trailing [`Tok::Eof`], and returns the
/// tokens with the table their identifiers index.
///
/// Each distinct identifier is allocated once. The interning map hashes
/// with std's SipHash because the text comes from clients.
///
/// # Errors
/// Returns a [`LexError`] on unterminated strings or unexpected characters.
/// Line comments (`// …`) and block comments (`/* … */`) are skipped.
pub fn lex(src: &str) -> Result<(Vec<Token>, Names), LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut names = Names::new();
    let mut syms: HashMap<&str, Sym> = Names::fixed().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! bump {
        () => {{
            if bytes[i] == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        let (tl, tc) = (line, col);
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => bump!(),
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    bump!();
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                bump!();
                bump!();
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(LexError {
                            msg: "unterminated block comment".into(),
                            line: tl,
                            col: tc,
                        });
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        bump!();
                        bump!();
                        break;
                    }
                    bump!();
                }
            }
            b'"' => {
                bump!();
                let mut s = String::new();
                // Start of the pending run of unescaped text. Runs are
                // copied as UTF-8 slices: a run ends on `"` or `\`, which
                // are ASCII and never inside a multi-byte character, and
                // restarts after a whole escaped character.
                let mut run = i;
                loop {
                    if i >= bytes.len() {
                        return Err(LexError {
                            msg: "unterminated string literal".into(),
                            line: tl,
                            col: tc,
                        });
                    }
                    match bytes[i] {
                        b'"' => {
                            s.push_str(&src[run..i]);
                            bump!();
                            break;
                        }
                        b'\\' if i + 1 < bytes.len() => {
                            s.push_str(&src[run..i]);
                            let esc = src[i + 1..].chars().next().expect("a character follows");
                            s.push(match esc {
                                'n' => '\n',
                                't' => '\t',
                                other => other,
                            });
                            bump!();
                            for _ in 0..esc.len_utf8() {
                                bump!();
                            }
                            run = i;
                        }
                        _ => bump!(),
                    }
                }
                out.push(Token { tok: Tok::Str(s), line: tl, col: tc });
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    bump!();
                }
                let text = &src[start..i];
                let n: i64 = text.parse().map_err(|_| LexError {
                    msg: format!("integer literal `{text}` out of range"),
                    line: tl,
                    col: tc,
                })?;
                out.push(Token { tok: Tok::Int(n), line: tl, col: tc });
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'$' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
                {
                    bump!();
                }
                let word = &src[start..i];
                let tok = match word {
                    "class" => Tok::Class,
                    "interface" => Tok::Interface,
                    "library" => Tok::Library,
                    "extends" => Tok::Extends,
                    "implements" => Tok::Implements,
                    "field" => Tok::FieldKw,
                    "method" => Tok::MethodKw,
                    "ctor" => Tok::Ctor,
                    "static" => Tok::Static,
                    "void" => Tok::Void,
                    "int" => Tok::IntKw,
                    "boolean" => Tok::BooleanKw,
                    "if" => Tok::If,
                    "else" => Tok::Else,
                    "while" => Tok::While,
                    "for" => Tok::For,
                    "return" => Tok::Return,
                    "throw" => Tok::Throw,
                    "try" => Tok::Try,
                    "catch" => Tok::Catch,
                    "new" => Tok::New,
                    "null" => Tok::Null,
                    "true" => Tok::True,
                    "false" => Tok::False,
                    "this" => Tok::This,
                    _ => Tok::Ident(*syms.entry(word).or_insert_with(|| names.push(word))),
                };
                out.push(Token { tok, line: tl, col: tc });
            }
            _ => {
                // Compare raw bytes: slicing `src` here could split a
                // multi-byte UTF-8 character and panic.
                let two = if i + 1 < bytes.len() { Some((bytes[i], bytes[i + 1])) } else { None };
                let tok = match two {
                    Some((b'=', b'=')) => Some(Tok::EqEq),
                    Some((b'!', b'=')) => Some(Tok::NotEq),
                    Some((b'&', b'&')) => Some(Tok::AndAnd),
                    Some((b'|', b'|')) => Some(Tok::OrOr),
                    _ => None,
                };
                if let Some(t) = tok {
                    bump!();
                    bump!();
                    out.push(Token { tok: t, line: tl, col: tc });
                    continue;
                }
                let t = match c {
                    b'{' => Tok::LBrace,
                    b'}' => Tok::RBrace,
                    b'(' => Tok::LParen,
                    b')' => Tok::RParen,
                    b'[' => Tok::LBracket,
                    b']' => Tok::RBracket,
                    b';' => Tok::Semi,
                    b',' => Tok::Comma,
                    b'.' => Tok::Dot,
                    b'=' => Tok::Assign,
                    b'!' => Tok::Bang,
                    b'<' => Tok::Lt,
                    b'>' => Tok::Gt,
                    b'+' => Tok::Plus,
                    b'-' => Tok::Minus,
                    b'*' => Tok::Star,
                    _ => {
                        // `i` sits on a character boundary: every token
                        // and literal before it ends on one.
                        let ch = src[i..].chars().next().expect("a character at `i`");
                        return Err(LexError {
                            msg: format!("unexpected character `{ch}`"),
                            line: tl,
                            col: tc,
                        });
                    }
                };
                bump!();
                out.push(Token { tok: t, line: tl, col: tc });
            }
        }
    }
    out.push(Token { tok: Tok::Eof, line, col });
    Ok((out, names))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().0.into_iter().map(|t| t.tok).collect()
    }

    /// The tokens as error messages describe them, identifiers quoted
    /// from the name table.
    fn described(src: &str) -> Vec<String> {
        let (tokens, names) = lex(src).unwrap();
        tokens.iter().map(|t| t.tok.describe(&names)).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            described("class Foo extends Bar"),
            ["`Class`", "identifier `Foo`", "`Extends`", "identifier `Bar`", "end of input"]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(toks(r#""a\nb\"c""#), vec![Tok::Str("a\nb\"c".into()), Tok::Eof]);
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            described("a == b != c && d || !e"),
            [
                "identifier `a`",
                "`EqEq`",
                "identifier `b`",
                "`NotEq`",
                "identifier `c`",
                "`AndAnd`",
                "identifier `d`",
                "`OrOr`",
                "`Bang`",
                "identifier `e`",
                "end of input"
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            described("a // comment\n /* block\n comment */ b"),
            ["identifier `a`", "identifier `b`", "end of input"]
        );
    }

    #[test]
    fn line_numbers_tracked() {
        let (ts, _) = lex("a\nb").unwrap();
        assert_eq!(ts[0].line, 1);
        assert_eq!(ts[1].line, 2);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"abc").is_err());
    }

    #[test]
    fn accented_string_literal_keeps_its_characters() {
        assert_eq!(toks("\"café\""), vec![Tok::Str("café".into()), Tok::Eof]);
    }

    #[test]
    fn cjk_string_literal_keeps_its_character() {
        assert_eq!(toks("\"中\""), vec![Tok::Str("中".into()), Tok::Eof]);
    }

    #[test]
    fn escapes_mix_with_non_ascii_text() {
        assert_eq!(toks(r#""a\"é""#), vec![Tok::Str("a\"é".into()), Tok::Eof]);
        assert_eq!(toks(r#""\é\n中""#), vec![Tok::Str("é\n中".into()), Tok::Eof]);
    }

    #[test]
    fn stray_non_ascii_character_is_named_whole() {
        let err = lex("a é").unwrap_err();
        assert_eq!(err.msg, "unexpected character `é`");
        assert_eq!((err.line, err.col), (1, 3));
    }

    #[test]
    fn dollar_identifiers() {
        assert_eq!(described("$map$k 7"), ["identifier `$map$k`", "integer `7`", "end of input"]);
    }

    #[test]
    fn each_distinct_name_is_interned_once() {
        let (tokens, names) = lex("a b a String").unwrap();
        let syms: Vec<Sym> = tokens
            .iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(syms[0], syms[2]);
        assert_ne!(syms[0], syms[1]);
        assert_eq!(syms[3], Sym::STRING, "fixed names keep their symbols");
        assert_eq!(names.len(), 6 + 2);
        assert_eq!(names.text(syms[1]), "b");
    }
}
