//! Shared streaming lexer and parse cursor for the LEF and DEF grammars.
//!
//! Both formats are whitespace-separated token streams with `#` line
//! comments, `;` statement terminators and parenthesised points.  The
//! [`Cursor`] scans the source bytes on demand, one token ahead of the
//! parser, so ingestion is a single linear pass that builds no token list:
//!
//! * `(`, `)` and `;` are standalone tokens even when glued to a word;
//! * a `#` ends the line's tokens at its first occurrence, even inside a
//!   token;
//! * separators are exactly [`char::is_whitespace`] — a byte table decides
//!   ASCII, and a non-ASCII byte decodes its character;
//! * lines end at `\n`, like [`str::lines`] (a `\r` is whitespace).
//!
//! Every token records its 1-based line and 1-based byte column within the
//! line, so parse errors point at real source positions.  The cursor's
//! success paths allocate nothing; error text is built only when an error
//! is returned.

use crate::ParseError;
use tpl_geom::Dbu;

/// The largest coordinate/distance magnitude the subset accepts, in
/// database units (±2^40 ≈ 1.1 × 10^12, i.e. a die around a kilometre at
/// 1000 units per micron).  Anything a real design could need fits with
/// orders of magnitude to spare, and bounding every parsed number here
/// means downstream arithmetic — placement translation, wire line caps,
/// pitch maths — can never overflow an `i64`, so pathological inputs fail
/// as positioned parse errors instead of panicking or wrapping.
pub const COORD_LIMIT: Dbu = 1 << 40;

/// One token with its source position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token text (never empty).
    pub text: &'a str,
    /// 1-based source line.
    pub line: usize,
    /// 1-based byte column of the token's first character within its line.
    pub col: usize,
}

/// Byte classes of the scanner.
const WORD: u8 = 0;
const SPACE: u8 = 1;
const NEWLINE: u8 = 2;
const PUNCT: u8 = 3;
const COMMENT: u8 = 4;
/// A byte of a multi-byte character: decode it to classify.
const WIDE: u8 = 5;

/// The class of every byte value; ASCII whitespace is exactly the ASCII
/// part of [`char::is_whitespace`] (which, unlike
/// [`u8::is_ascii_whitespace`], includes the vertical tab).
static CLASS: [u8; 256] = {
    let mut table = [WIDE; 256];
    let mut b = 0;
    while b < 0x80 {
        table[b] = WORD;
        b += 1;
    }
    table[b' ' as usize] = SPACE;
    table[b'\t' as usize] = SPACE;
    table[b'\r' as usize] = SPACE;
    table[0x0b] = SPACE;
    table[0x0c] = SPACE;
    table[b'\n' as usize] = NEWLINE;
    table[b'(' as usize] = PUNCT;
    table[b')' as usize] = PUNCT;
    table[b';' as usize] = PUNCT;
    table[b'#' as usize] = COMMENT;
    table
};

/// A streaming cursor over a source's tokens with positioned error helpers.
pub struct Cursor<'a> {
    src: &'a str,
    /// Byte offset where the next scan starts.
    pos: usize,
    /// 1-based line of `pos`.
    line: usize,
    /// Byte offset of the start of `pos`'s line.
    line_start: usize,
    /// The next token, scanned one ahead so [`Cursor::peek`] is free.
    ahead: Option<Token<'a>>,
}

impl<'a> Cursor<'a> {
    /// Positions a cursor at the first token of a source.
    pub fn new(src: &'a str) -> Self {
        let mut c = Cursor {
            src,
            pos: 0,
            line: 1,
            line_start: 0,
            ahead: None,
        };
        c.ahead = c.scan();
        c
    }

    /// The next token without consuming it.
    pub fn peek(&self) -> Option<Token<'a>> {
        self.ahead
    }

    /// Consumes and returns the next token, `None` at end of file.
    fn bump(&mut self) -> Option<Token<'a>> {
        let t = self.ahead?;
        self.ahead = self.scan();
        Some(t)
    }

    /// Scans the token that starts at or after `pos`.
    fn scan(&mut self) -> Option<Token<'a>> {
        let bytes = self.src.as_bytes();
        let mut i = self.pos;
        while let Some(&b) = bytes.get(i) {
            match CLASS[usize::from(b)] {
                SPACE => i += 1,
                NEWLINE => {
                    i += 1;
                    self.line += 1;
                    self.line_start = i;
                }
                COMMENT => {
                    i = bytes[i..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(bytes.len(), |k| i + k);
                }
                PUNCT => return Some(self.token(i, i + 1)),
                WIDE => {
                    let ch = self.char_at(i);
                    if !ch.is_whitespace() {
                        return Some(self.scan_word(i));
                    }
                    i += ch.len_utf8();
                }
                _ => return Some(self.scan_word(i)),
            }
        }
        self.pos = i;
        None
    }

    /// Scans the word token that starts at `start`.
    fn scan_word(&mut self, start: usize) -> Token<'a> {
        let bytes = self.src.as_bytes();
        let mut i = start;
        while let Some(&b) = bytes.get(i) {
            match CLASS[usize::from(b)] {
                WORD => i += 1,
                WIDE => {
                    let ch = self.char_at(i);
                    if ch.is_whitespace() {
                        break;
                    }
                    i += ch.len_utf8();
                }
                _ => break,
            }
        }
        self.token(start, i)
    }

    /// The character at byte offset `i`, which is always a char boundary:
    /// the scanner steps over ASCII bytes and whole characters only.
    fn char_at(&self, i: usize) -> char {
        self.src[i..]
            .chars()
            .next()
            .expect("scanner stops inside the source")
    }

    /// The token `src[start..end]` on the current line; the scan resumes at
    /// `end`.
    fn token(&mut self, start: usize, end: usize) -> Token<'a> {
        self.pos = end;
        Token {
            text: &self.src[start..end],
            line: self.line,
            col: start - self.line_start + 1,
        }
    }

    /// Consumes and returns the next token, or errors at end of file.
    pub fn next(&mut self, expected: &str) -> Result<Token<'a>, ParseError> {
        self.bump().ok_or_else(|| self.eof(expected))
    }

    /// Consumes the next token, requiring its exact text.
    pub fn expect(&mut self, text: &str) -> Result<(), ParseError> {
        match self.bump() {
            Some(t) if t.text == text => Ok(()),
            Some(t) => Err(err_at(t, format!("expected `{text}`, found `{}`", t.text))),
            None => Err(self.eof(&format!("`{text}`"))),
        }
    }

    /// `true` when the next token matches, consuming it.
    pub fn eat(&mut self, text: &str) -> bool {
        let hit = self.ahead.is_some_and(|t| t.text == text);
        if hit {
            self.bump();
        }
        hit
    }

    /// Consumes a token as an identifier-like word.
    pub fn word(&mut self, what: &str) -> Result<Token<'a>, ParseError> {
        let t = self.next(what)?;
        if matches!(t.text, "(" | ")" | ";") {
            return Err(err_at(t, format!("expected {what}, found `{}`", t.text)));
        }
        Ok(t)
    }

    /// Consumes a token as a signed integer (DEF database units), bounded
    /// by [`COORD_LIMIT`] so no accepted value can overflow later maths.
    pub fn int(&mut self, what: &str) -> Result<Dbu, ParseError> {
        let t = self.word(what)?;
        let value = t
            .text
            .parse::<Dbu>()
            .map_err(|_| err_at(t, format!("expected {what} (integer), found `{}`", t.text)))?;
        if value.checked_abs().is_none_or(|v| v > COORD_LIMIT) {
            return Err(err_at(
                t,
                format!(
                    "{what} `{}` is out of range (at most ±2^40 database units)",
                    t.text
                ),
            ));
        }
        Ok(value)
    }

    /// Consumes a token as an exact decimal micron value, scaled to database
    /// units (see [`parse_microns`]).
    pub fn microns(&mut self, what: &str, dbu_per_micron: Dbu) -> Result<Dbu, ParseError> {
        let t = self.word(what)?;
        parse_microns(t.text, dbu_per_micron).map_err(|m| err_at(t, m))
    }

    /// Consumes tokens up to and including the next `;`.
    pub fn skip_statement(&mut self) -> Result<(), ParseError> {
        loop {
            let t = self.next("`;`")?;
            if t.text == ";" {
                return Ok(());
            }
        }
    }

    /// An end-of-file error located at the last source line, counted only
    /// now that the error is being built.
    pub fn eof(&self, expected: &str) -> ParseError {
        ParseError::new(
            self.src.lines().count().max(1),
            1,
            format!("unexpected end of file, expected {expected}"),
        )
    }
}

/// Positions an error at a token.
pub fn err_at(token: Token<'_>, message: impl Into<String>) -> ParseError {
    ParseError::new(token.line, token.col, message)
}

/// Parses a decimal micron value into database units **exactly**.
///
/// LEF distances are decimal microns; multiplying by a float `dbu_per_micron`
/// would round. Instead the integer and fractional digits are scaled by
/// digit-shifting, which is exact whenever `dbu_per_micron` is a power of ten
/// (the only case this subset supports). A fraction finer than one database
/// unit is rejected rather than silently rounded.
pub fn parse_microns(text: &str, dbu_per_micron: Dbu) -> Result<Dbu, String> {
    let digits = decimal_digits(dbu_per_micron)
        .ok_or_else(|| format!("DATABASE MICRONS {dbu_per_micron} is not a power of ten"))?;
    let (sign, body) = match text.strip_prefix('-') {
        Some(rest) => (-1, rest),
        None => (1, text),
    };
    let (int_part, frac_part) = match body.split_once('.') {
        Some((i, f)) => (i, f),
        None => (body, ""),
    };
    if (int_part.is_empty() && frac_part.is_empty())
        || !int_part.bytes().all(|b| b.is_ascii_digit())
        || !frac_part.bytes().all(|b| b.is_ascii_digit())
    {
        return Err(format!("expected a decimal number, found `{text}`"));
    }
    if frac_part.len() > digits && frac_part[digits..].bytes().any(|b| b != b'0') {
        return Err(format!(
            "`{text}` is finer than one database unit (1/{dbu_per_micron} micron)"
        ));
    }
    let int_value: Dbu = if int_part.is_empty() {
        0
    } else {
        int_part
            .parse()
            .map_err(|_| format!("number `{text}` is out of range"))?
    };
    let mut frac_value: Dbu = 0;
    for (i, b) in frac_part.bytes().take(digits).enumerate() {
        let place = Dbu::pow(10, (digits - 1 - i) as u32);
        frac_value += Dbu::from(b - b'0') * place;
    }
    int_value
        .checked_mul(dbu_per_micron)
        .and_then(|v| v.checked_add(frac_value))
        .filter(|v| *v <= COORD_LIMIT)
        .map(|v| sign * v)
        .ok_or_else(|| format!("number `{text}` is out of range"))
}

/// Formats a database-unit distance as an exact decimal micron string, the
/// inverse of [`parse_microns`].
pub fn format_microns(value: Dbu, dbu_per_micron: Dbu) -> String {
    let digits =
        decimal_digits(dbu_per_micron).expect("writer technologies use power-of-ten units");
    let sign = if value < 0 { "-" } else { "" };
    let magnitude = value.abs();
    let int_part = magnitude / dbu_per_micron;
    let frac_part = magnitude % dbu_per_micron;
    if frac_part == 0 {
        return format!("{sign}{int_part}");
    }
    let mut frac = format!("{frac_part:0width$}", width = digits);
    while frac.ends_with('0') {
        frac.pop();
    }
    format!("{sign}{int_part}.{frac}")
}

/// `Some(k)` when `value == 10^k`, else `None`.
fn decimal_digits(value: Dbu) -> Option<usize> {
    let mut v = value;
    let mut digits = 0;
    while v > 1 {
        if v % 10 != 0 {
            return None;
        }
        v /= 10;
        digits += 1;
    }
    (v == 1).then_some(digits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The char-by-char tokenizer the streaming cursor replaced, kept as its
    /// oracle: `lines()`, cut each line at its first `#`, split on
    /// `char::is_whitespace` and on `(`, `)`, `;`.
    fn tokenize(src: &str) -> Vec<Token<'_>> {
        let mut tokens = Vec::new();
        for (lineno, raw) in src.lines().enumerate() {
            let line = match raw.find('#') {
                Some(i) => &raw[..i],
                None => raw,
            };
            let mut start: Option<usize> = None;
            for (i, ch) in line.char_indices() {
                let is_punct = matches!(ch, '(' | ')' | ';');
                if ch.is_whitespace() || is_punct {
                    if let Some(s) = start.take() {
                        tokens.push(Token {
                            text: &line[s..i],
                            line: lineno + 1,
                            col: s + 1,
                        });
                    }
                    if is_punct {
                        tokens.push(Token {
                            text: &line[i..i + ch.len_utf8()],
                            line: lineno + 1,
                            col: i + 1,
                        });
                    }
                } else if start.is_none() {
                    start = Some(i);
                }
            }
            if let Some(s) = start {
                tokens.push(Token {
                    text: &line[s..],
                    line: lineno + 1,
                    col: s + 1,
                });
            }
        }
        tokens
    }

    /// Every token the streaming cursor yields, in order.
    fn stream(src: &str) -> Vec<Token<'_>> {
        let mut c = Cursor::new(src);
        let mut tokens = Vec::new();
        while let Some(t) = c.peek() {
            assert_eq!(c.next("a token"), Ok(t), "peek and next agree");
            tokens.push(t);
        }
        assert!(c.next("a token").is_err(), "the stream stays at its end");
        tokens
    }

    #[test]
    fn tokenizer_splits_punctuation_and_tracks_positions() {
        let toks = stream("DIEAREA ( 0 0 ) ( 800 800 ) ;\nEND DESIGN # trailing\n");
        let texts: Vec<&str> = toks.iter().map(|t| t.text).collect();
        assert_eq!(
            texts,
            vec!["DIEAREA", "(", "0", "0", ")", "(", "800", "800", ")", ";", "END", "DESIGN"]
        );
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[10].line, toks[10].col), (2, 1));
    }

    #[test]
    fn tokenizer_handles_glued_semicolons() {
        let toks = stream("PITCH 0.02;END");
        let texts: Vec<&str> = toks.iter().map(|t| t.text).collect();
        assert_eq!(texts, vec!["PITCH", "0.02", ";", "END"]);
    }

    #[test]
    fn ascii_classes_are_char_is_whitespace() {
        for b in 0u8..0x80 {
            let ch = char::from(b);
            let class = CLASS[usize::from(b)];
            assert_eq!(
                matches!(class, SPACE | NEWLINE),
                ch.is_whitespace(),
                "byte {b:#04x}"
            );
            assert_eq!(class == NEWLINE, b == b'\n', "byte {b:#04x}");
        }
        assert!(CLASS[0x80..].iter().all(|&c| c == WIDE));
    }

    #[test]
    fn cursor_matches_the_char_tokenizer_on_the_golden_corpus() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/lefdef");
        let mut files = 0;
        for entry in std::fs::read_dir(&dir).expect("the golden corpus is present") {
            let path = entry.unwrap().path();
            let src = std::fs::read_to_string(&path).unwrap();
            assert_eq!(stream(&src), tokenize(&src), "{}", path.display());
            files += 1;
        }
        assert!(
            files >= 6,
            "found {files} corpus files in {}",
            dir.display()
        );
    }

    #[test]
    fn cursor_matches_the_char_tokenizer_on_edge_cases() {
        for src in [
            "",
            "\n\n",
            "a",
            "ab#cd ;\nef",
            "#only a comment",
            "x\r\ny\r\n",
            "x\ry",
            "a\u{a0}b\u{3000}c\u{85}d",
            "\u{a0}\u{3000}lead",
            "é(ü);ß#ñ\nz",
            "a\x0bb\x0cc",
            "(((;)))",
        ] {
            assert_eq!(stream(src), tokenize(src), "{src:?}");
        }
    }

    /// Source fragments the random sources are drawn from: words, glued
    /// punctuation, comments (also inside a token), ASCII and non-ASCII
    /// whitespace, non-ASCII letters and every line-ending form.
    const FRAGMENTS: [&str; 26] = [
        "LAYER", "M1", "0.02", "-4", "é", "名前", "x#y", "#", "# note", "(", ")", ";", "a;b", "(1",
        "2)", " ", "  ", "\t", "\x0b", "\x0c", "\u{a0}", "\u{3000}", "\u{85}", "\n", "\r\n", "\r",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// On any source built from the fragments — blank lines, CRLF,
        /// no final newline included — the streaming cursor yields the
        /// oracle's `(text, line, col)` sequence.
        #[test]
        fn cursor_matches_the_char_tokenizer_on_random_sources(
            picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..64)
        ) {
            let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
            prop_assert_eq!(stream(&src), tokenize(&src));
        }
    }

    #[test]
    fn allocation_free_helpers_keep_their_error_text() {
        let mut c = Cursor::new("LAYER ;\nM1");
        assert_eq!(c.expect("LAYER"), Ok(()));
        let err = c.word("a layer name").unwrap_err();
        assert_eq!((err.line, err.col), (1, 7));
        assert_eq!(err.message, "expected a layer name, found `;`");
        let err = c.expect("END").unwrap_err();
        assert_eq!((err.line, err.col), (2, 1));
        assert_eq!(err.message, "expected `END`, found `M1`");
        let err = c.expect(";").unwrap_err();
        assert_eq!((err.line, err.col), (2, 1));
        assert_eq!(err.message, "unexpected end of file, expected `;`");
        assert!(!c.eat(";"));
    }

    #[test]
    fn cursor_reports_eof_with_last_line() {
        let mut c = Cursor::new("LAYER M1\nTYPE ROUTING");
        while c.peek().is_some() {
            c.next("token").unwrap();
        }
        let err = c.next("`;`").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("end of file"));
    }

    #[test]
    fn microns_parse_exactly() {
        assert_eq!(parse_microns("0.008", 1000), Ok(8));
        assert_eq!(parse_microns("4.5", 1000), Ok(4500));
        assert_eq!(parse_microns("45", 1000), Ok(45000));
        assert_eq!(parse_microns("-0.01", 1000), Ok(-10));
        assert_eq!(parse_microns(".25", 100), Ok(25));
        assert_eq!(parse_microns("0.0080", 1000), Ok(8));
    }

    #[test]
    fn microns_reject_bad_and_too_fine_values() {
        assert!(parse_microns("0.0005", 1000).unwrap_err().contains("finer"));
        assert!(parse_microns("abc", 1000).is_err());
        assert!(parse_microns("1.2.3", 1000).is_err());
        assert!(parse_microns("", 1000).is_err());
        assert!(parse_microns("1", 1024)
            .unwrap_err()
            .contains("power of ten"));
    }

    #[test]
    fn microns_format_round_trips() {
        for v in [0, 8, 45, 4500, -10, 123456, 1000] {
            let s = format_microns(v, 1000);
            assert_eq!(parse_microns(&s, 1000), Ok(v), "value {v} via `{s}`");
        }
        assert_eq!(format_microns(8, 1000), "0.008");
        assert_eq!(format_microns(45, 1000), "0.045");
        assert_eq!(format_microns(2000, 1000), "2");
    }
}
