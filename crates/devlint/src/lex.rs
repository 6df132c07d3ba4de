//! A minimal Rust token scanner.
//!
//! Just enough lexing to make the lint rules sound: comments and string
//! literals must never be mistaken for code (a `thread::spawn` inside a
//! doc comment is fine), lifetimes must not be parsed as char literals,
//! and `#[cfg(test)]` items must be excluded wholesale. The scanner is
//! byte-offset-faithful so findings render with correct line/column
//! positions through `rules::diag`.

/// Kind of one scanned token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character (multi-char operators arrive as
    /// consecutive puncts; the rules match `::` as two `:` tokens).
    Punct(char),
    /// String/char/numeric literal (contents irrelevant to the rules).
    Literal,
    /// Lifetime (`'a`) — distinct from a char literal.
    Lifetime,
}

/// One token with its byte position.
#[derive(Debug, Clone)]
pub struct Tok {
    /// What it is.
    pub kind: TokKind,
    /// Identifier text (empty for puncts and literals).
    pub text: String,
    /// Byte offset of the first character.
    pub off: usize,
    /// Byte length.
    pub len: usize,
}

/// One comment (line or block) with its position; rules look for
/// justification markers (`relaxed:`, `hashmap-iter-ok:`)
/// in these.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Full comment text including the `//` / `/*` sigils.
    pub text: String,
    /// Byte offset where the comment starts.
    pub off: usize,
}

/// Scan result: tokens, comments, line table and `#[cfg(test)]` ranges.
#[derive(Debug)]
pub struct Lexed {
    /// All code tokens, in order.
    pub toks: Vec<Tok>,
    /// All comments, in order.
    pub comments: Vec<Comment>,
    /// Byte offset of each line start (index 0 = line 1).
    pub line_starts: Vec<usize>,
    /// Byte ranges covered by `#[cfg(test)]` items (attribute through
    /// closing brace or semicolon); rules skip tokens inside these.
    pub excluded: Vec<(usize, usize)>,
}

impl Lexed {
    /// 1-based line number of a byte offset.
    pub fn line_of(&self, off: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= off)
    }

    /// Whether the token at index `i` is live (outside every
    /// `#[cfg(test)]` range).
    pub fn active(&self, i: usize) -> bool {
        let off = self.toks[i].off;
        !self.excluded.iter().any(|&(s, e)| s <= off && off < e)
    }

    /// Identifier text at index `i`, if it is an ident.
    pub fn ident(&self, i: usize) -> Option<&str> {
        let t = self.toks.get(i)?;
        (t.kind == TokKind::Ident).then_some(t.text.as_str())
    }

    /// Whether token `i` is the punct `ch`.
    pub fn punct(&self, i: usize, ch: char) -> bool {
        matches!(self.toks.get(i), Some(t) if t.kind == TokKind::Punct(ch))
    }

    /// Whether tokens at `i` spell `a :: b`.
    pub fn path2(&self, i: usize, a: &str, b: &str) -> bool {
        self.ident(i) == Some(a)
            && self.punct(i + 1, ':')
            && self.punct(i + 2, ':')
            && self.ident(i + 3) == Some(b)
    }

    /// Whether any comment containing `marker` sits on a line in
    /// `[line - back, line]`.
    pub fn comment_near(&self, marker: &str, line: usize, back: usize) -> bool {
        self.comments.iter().any(|c| {
            let cl = self.line_of(c.off);
            cl <= line && cl + back >= line && c.text.contains(marker)
        })
    }
}

/// Scans `src` into tokens and comments, then marks `#[cfg(test)]`
/// exclusion ranges.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    let mut line_starts = vec![0usize];
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            line_starts.push(i + 1);
        }
    }

    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = src[i..].find('\n').map_or(src.len(), |n| i + n);
                comments.push(Comment {
                    text: src[i..end].to_string(),
                    off: i,
                });
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                comments.push(Comment {
                    text: src[start..i].to_string(),
                    off: start,
                });
            }
            b'"' => i = scan_string(bytes, i, &mut toks),
            b'r' | b'b' if raw_or_byte_string(bytes, i) => {
                i = scan_prefixed_string(bytes, i, &mut toks);
            }
            b'\'' => i = scan_quote(src, bytes, i, &mut toks),
            _ if b == b'_' || b.is_ascii_alphabetic() => {
                let start = i;
                while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: src[start..i].to_string(),
                    off: start,
                    len: i - start,
                });
            }
            _ if b.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    off: start,
                    len: i - start,
                });
            }
            _ if b.is_ascii_whitespace() => i += 1,
            _ => {
                toks.push(Tok {
                    kind: TokKind::Punct(b as char),
                    text: String::new(),
                    off: i,
                    len: 1,
                });
                i += 1;
            }
        }
    }

    let mut lx = Lexed {
        toks,
        comments,
        line_starts,
        excluded: Vec::new(),
    };
    lx.excluded = cfg_test_ranges(&lx, src.len());
    lx
}

/// True when `r`/`b` at `i` starts a raw/byte string rather than an
/// identifier: `r"`, `r#`, `b"`, `b'`, `br`.
fn raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    match bytes[i] {
        b'r' => matches!(bytes.get(i + 1), Some(b'"') | Some(b'#')),
        b'b' => match bytes.get(i + 1) {
            Some(b'"') | Some(b'\'') => true,
            Some(b'r') => matches!(bytes.get(i + 2), Some(b'"') | Some(b'#')),
            _ => false,
        },
        _ => false,
    }
}

/// Scans a plain `"…"` string starting at `i`; returns the index past it.
fn scan_string(bytes: &[u8], start: usize, toks: &mut Vec<Tok>) -> usize {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => {
                i += 1;
                break;
            }
            _ => i += 1,
        }
    }
    toks.push(Tok {
        kind: TokKind::Literal,
        text: String::new(),
        off: start,
        len: i - start,
    });
    i
}

/// Scans `r"…"`, `r#"…"#`, `b"…"`, `b'…'`, `br#"…"#` starting at `i`.
fn scan_prefixed_string(bytes: &[u8], start: usize, toks: &mut Vec<Tok>) -> usize {
    let mut i = start;
    let mut raw = false;
    while i < bytes.len() && (bytes[i] == b'r' || bytes[i] == b'b') {
        raw |= bytes[i] == b'r';
        i += 1;
    }
    if bytes.get(i) == Some(&b'\'') {
        // Byte char literal `b'x'`.
        i += 1;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'\'' => {
                    i += 1;
                    break;
                }
                _ => i += 1,
            }
        }
    } else if raw {
        let mut hashes = 0usize;
        while bytes.get(i) == Some(&b'#') {
            hashes += 1;
            i += 1;
        }
        i += 1; // opening quote
        let closer: Vec<u8> = std::iter::once(b'"')
            .chain(std::iter::repeat_n(b'#', hashes))
            .collect();
        while i < bytes.len() {
            if bytes[i..].starts_with(&closer) {
                i += closer.len();
                break;
            }
            i += 1;
        }
    } else {
        return scan_string(bytes, i, toks).max(start + 1);
    }
    toks.push(Tok {
        kind: TokKind::Literal,
        text: String::new(),
        off: start,
        len: i - start,
    });
    i
}

/// Disambiguates `'` at `i`: lifetime (`'a` not followed by a closing
/// quote) vs char literal (`'x'`, `'\n'`).
fn scan_quote(src: &str, bytes: &[u8], start: usize, toks: &mut Vec<Tok>) -> usize {
    let next = bytes.get(start + 1).copied();
    let is_lifetime = matches!(next, Some(c) if c == b'_' || c.is_ascii_alphabetic())
        && bytes.get(start + 2) != Some(&b'\'');
    if is_lifetime {
        let mut i = start + 1;
        while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
            i += 1;
        }
        toks.push(Tok {
            kind: TokKind::Lifetime,
            text: src[start + 1..i].to_string(),
            off: start,
            len: i - start,
        });
        return i;
    }
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'\'' => {
                i += 1;
                break;
            }
            _ => i += 1,
        }
    }
    toks.push(Tok {
        kind: TokKind::Literal,
        text: String::new(),
        off: start,
        len: i - start,
    });
    i
}

/// Finds every `#[cfg(test)]` attribute and the byte range of the item it
/// gates: through the matching close brace of the item's body, or through
/// the terminating semicolon for brace-less items.
fn cfg_test_ranges(lx: &Lexed, src_len: usize) -> Vec<(usize, usize)> {
    let toks = &lx.toks;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let is_attr = lx.punct(i, '#')
            && lx.punct(i + 1, '[')
            && lx.ident(i + 2) == Some("cfg")
            && lx.punct(i + 3, '(')
            && lx.ident(i + 4) == Some("test")
            && lx.punct(i + 5, ')')
            && lx.punct(i + 6, ']');
        if !is_attr {
            i += 1;
            continue;
        }
        let start = toks[i].off;
        let mut j = i + 7;
        let mut end = src_len;
        // Walk to the item body: the first `{` opens it (then match
        // braces); a `;` first means a brace-less item (use, extern fn).
        let mut depth = 0usize;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        end = toks[j].off + 1;
                        break;
                    }
                }
                TokKind::Punct(';') if depth == 0 => {
                    end = toks[j].off + 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        out.push((start, end));
        i = j + 1;
    }
    out
}
