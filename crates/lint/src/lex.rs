//! A line-oriented Rust tokenizer, just deep enough for the analyzer.
//!
//! The rules in [`crate::rules`] are conventions over *source text* —
//! "`unsafe` must be preceded by a `// SAFETY:` comment" — so full
//! parsing is unnecessary, but naive substring matching is wrong: the
//! word `unsafe` inside a string literal or a doc comment must not
//! count as an unsafe site. This lexer splits every line into its
//! **code** text (string/char literal contents blanked, comments
//! removed) and its **comment** text (line, block and doc comments),
//! tracking multi-line constructs (block comments, plain and raw
//! strings) across lines. It also marks the lines that belong to
//! `#[cfg(test)]`-gated items, which the audit rules exempt and
//! `dbep-lint lines` does not count.
//!
//! Handled: nested block comments, escapes in string/char literals,
//! raw strings (`r"…"`, `r#"…"#`, any hash depth, plus `b`/`br`
//! prefixes), and the `'a` lifetime vs `'a'` char-literal ambiguity.

/// One source line, split into code and comment channels.
#[derive(Debug, Default, Clone)]
pub struct Line {
    /// Source text with comments removed and literal contents blanked.
    /// Quotes are kept, so `"unsafe"` lexes to `""`.
    pub code: String,
    /// Concatenated comment text of the line (line, block and doc).
    pub comment: String,
    /// Contents of the string literals that *close* on this line, in
    /// order (a multi-line literal is attributed to its closing line).
    /// The code channel blanks them; rules that validate literal text
    /// (metric names/help) read this channel instead.
    pub literals: Vec<String>,
}

/// A lexed source file.
#[derive(Debug)]
pub struct FileScan {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub lines: Vec<Line>,
    /// `in_test[i]` — line `i` is inside a `#[cfg(test)]`-gated item.
    pub in_test: Vec<bool>,
}

impl FileScan {
    /// 1-based numbers of the lines `dbep-lint lines` counts: a
    /// non-blank code channel, outside every `#[cfg(test)]` item.
    pub fn code_lines(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.lines.len())
            .filter(|&i| !self.in_test[i] && !self.lines[i].code.trim().is_empty())
            .map(|i| i + 1)
    }
}

enum Mode {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

/// Lex `src` into per-line code/comment channels.
pub fn lex(path: &str, src: &str) -> FileScan {
    let chars: Vec<char> = src.chars().collect();
    let mut lines: Vec<Line> = Vec::new();
    let mut cur = Line::default();
    // In-flight string literal content; survives line breaks so a
    // multi-line literal lands on the line its closing quote is on.
    let mut lit = String::new();
    let mut mode = Mode::Code;
    let mut i = 0usize;
    let n = chars.len();
    let at = |i: usize| chars.get(i).copied().unwrap_or('\0');
    while i < n {
        let c = chars[i];
        if c == '\n' {
            if matches!(mode, Mode::LineComment) {
                mode = Mode::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                if c == '/' && at(i + 1) == '/' {
                    mode = Mode::LineComment;
                    i += 2;
                } else if c == '/' && at(i + 1) == '*' {
                    mode = Mode::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    lit.clear();
                    mode = Mode::Str;
                    i += 1;
                } else if (c == 'r' || c == 'b') && !prev_is_ident(&cur.code) {
                    // Possible raw/byte string prefix: r" r#" b" br" br#".
                    let mut j = i + 1;
                    if c == 'b' && at(j) == 'r' {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while at(j) == '#' {
                        hashes += 1;
                        j += 1;
                    }
                    let is_raw = (c == 'r' || at(i + 1) == 'r' || hashes == 0) && at(j) == '"';
                    if is_raw
                        && at(j) == '"'
                        && (hashes > 0 || c != 'b' || at(i + 1) == '"' || at(i + 1) == 'r')
                    {
                        cur.code.push('"');
                        lit.clear();
                        mode = if c == 'b' && at(i + 1) != 'r' && hashes == 0 {
                            Mode::Str // b"…" : plain byte string, escapes apply
                        } else {
                            Mode::RawStr(hashes)
                        };
                        i = j + 1;
                    } else {
                        cur.code.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal vs lifetime.
                    if at(i + 1) == '\\' {
                        // Escaped char literal: consume to the closing quote.
                        cur.code.push('\'');
                        let mut j = i + 2;
                        if at(j) != '\0' {
                            j += 1; // the escaped char (covers \' and \\)
                        }
                        while j < n && at(j) != '\'' && at(j) != '\n' {
                            j += 1;
                        }
                        cur.code.push('\'');
                        i = (j + 1).min(n);
                    } else if at(i + 2) == '\'' && at(i + 1) != '\'' {
                        // 'x' — a simple char literal.
                        cur.code.push('\'');
                        cur.code.push('\'');
                        i += 3;
                    } else {
                        // A lifetime: keep the quote, idents follow as code.
                        cur.code.push('\'');
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            Mode::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            Mode::BlockComment(d) => {
                if c == '/' && at(i + 1) == '*' {
                    mode = Mode::BlockComment(d + 1);
                    cur.comment.push_str("/*");
                    i += 2;
                } else if c == '*' && at(i + 1) == '/' {
                    mode = if d == 1 {
                        Mode::Code
                    } else {
                        Mode::BlockComment(d - 1)
                    };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' && at(i + 1) == '\n' {
                    // A line continuation: the newline still ends a line.
                    lit.push(c);
                    i += 1;
                } else if c == '\\' {
                    // Keep the escape verbatim (incl. \" and \\).
                    lit.push(c);
                    lit.push(at(i + 1));
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    cur.literals.push(std::mem::take(&mut lit));
                    mode = Mode::Code;
                    i += 1;
                } else {
                    lit.push(c);
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && at(j) == '#' {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        cur.code.push('"');
                        cur.literals.push(std::mem::take(&mut lit));
                        mode = Mode::Code;
                        i = j;
                    } else {
                        lit.push('"');
                        i += 1;
                    }
                } else {
                    lit.push(c);
                    i += 1;
                }
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    let in_test = test_regions(&lines);
    FileScan {
        path: path.to_string(),
        lines,
        in_test,
    }
}

/// `true` for a character that can continue an identifier.
pub fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// `true` if `code` ends in an identifier character.
pub fn prev_is_ident(code: &str) -> bool {
    code.chars().next_back().is_some_and(is_ident)
}

/// An open `#[cfg(test)]`-gated item in [`test_regions`].
#[derive(Default)]
struct Gated {
    /// Brace depth the item sits at.
    depth: i32,
    /// `(`/`[` nesting inside the item.
    nest: i32,
    /// Generic `<..>` nesting inside the item.
    angle: i32,
    /// A `where` clause is open: its `,` separates bounds.
    bounds: bool,
    /// The item's own brace block has opened.
    block: bool,
}

/// Mark lines inside `#[cfg(test)]`-gated items, from the attribute to
/// the item's end, tracked over the code channel. An item with its own
/// brace block (a `mod`, `fn`, `impl` or `thread_local! { .. }`) ends at
/// the `}` that closes that block. One without (a `use`, a `const`, a
/// struct field, a statement) ends at its `;` or `,` outside `(`/`[`
/// and generic `<..>`, or at the `}` that closes the block enclosing
/// it. A `,` inside a `where` clause does not end a `fn` or `impl`.
fn test_regions(lines: &[Line]) -> Vec<bool> {
    const ATTR: &str = "#[cfg(test)]";
    let mut out = vec![false; lines.len()];
    let mut depth: i32 = 0;
    let mut item: Option<Gated> = None;
    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        // A line with no code belongs to the item it sits in.
        let mut marked = item.is_some() && code.trim().is_empty();
        for (i, c) in code.char_indices() {
            if item.is_none() && code[i..].starts_with(ATTR) {
                item = Some(Gated {
                    depth,
                    ..Gated::default()
                });
            }
            let Some(g) = item.as_mut() else {
                depth += i32::from(c == '{') - i32::from(c == '}');
                continue;
            };
            let prev = code[..i].chars().next_back().unwrap_or(' ');
            let mut ends = false;
            match c {
                '{' => {
                    g.block |= g.nest == 0 && g.angle == 0 && depth == g.depth;
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if depth < g.depth {
                        item = None; // the enclosing block closed, not the item's
                        continue;
                    }
                    ends = g.block && depth == g.depth;
                }
                '(' | '[' => g.nest += 1,
                ')' | ']' => g.nest -= 1,
                // `Vec<`, `impl<`, `::<` open a generic list; `a < b` does not.
                '<' if is_ident(prev) || prev == ':' => g.angle += 1,
                '>' if g.angle > 0 && prev != '-' && prev != '=' => g.angle -= 1,
                ';' | ',' => {
                    ends = !g.block
                        && g.nest == 0
                        && g.angle == 0
                        && depth == g.depth
                        && (c == ';' || !g.bounds);
                }
                'w' if word_positions(code, "where").contains(&i) => g.bounds = true,
                _ => {}
            }
            marked |= !c.is_whitespace();
            if ends {
                item = None;
            }
        }
        out[idx] = marked;
    }
    out
}

/// Word-boundary occurrences of `word` in `code`; returns column indices.
pub fn word_positions(code: &str, word: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let w = word.as_bytes();
    let mut out = Vec::new();
    if w.is_empty() || bytes.len() < w.len() {
        return out;
    }
    for start in 0..=bytes.len() - w.len() {
        if &bytes[start..start + w.len()] == w {
            let before_ok = start == 0 || !is_ident(bytes[start - 1] as char);
            let after = start + w.len();
            let after_ok = after == bytes.len() || !is_ident(bytes[after] as char);
            if before_ok && after_ok {
                out.push(start);
            }
        }
    }
    out
}

/// `true` if `code` contains `word` at a word boundary.
pub fn has_word(code: &str, word: &str) -> bool {
    !word_positions(code, word).is_empty()
}

/// All identifier-shaped words in a code string.
pub fn words(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !is_ident(c))
        .filter(|w| !w.is_empty() && !w.chars().next().unwrap().is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> Vec<String> {
        lex("t.rs", src).lines.iter().map(|l| l.code.clone()).collect()
    }

    #[test]
    fn strings_are_blanked() {
        let c = code_of("let s = \"unsafe { Ordering::Relaxed }\";\n");
        assert_eq!(c[0], "let s = \"\";");
    }

    #[test]
    fn raw_strings_and_hashes() {
        let c = code_of("let s = r#\"has \"quotes\" and unsafe\"#; let x = 1;\n");
        assert_eq!(c[0], "let s = \"\"; let x = 1;");
        let c = code_of("let s = r\"plain raw unsafe\"; foo();\n");
        assert_eq!(c[0], "let s = \"\"; foo();");
        let c = code_of("let b = b\"bytes unsafe\"; bar();\n");
        assert_eq!(c[0], "let b = \"\"; bar();");
    }

    #[test]
    fn multiline_string_spans_lines() {
        let c = code_of("let s = \"line one\nunsafe two\";\nlet t = 3;\n");
        assert_eq!(c[0], "let s = \"");
        assert_eq!(c[1], "\";");
        assert_eq!(c[2], "let t = 3;");
    }

    #[test]
    fn string_line_continuations_keep_line_numbers() {
        let c = code_of("let s = \"a \\\n     b \\\n     c\";\nlet t = 3;\n");
        assert_eq!(c, vec!["let s = \"", "", "\";", "let t = 3;"]);
    }

    #[test]
    fn literal_contents_are_captured() {
        let scan = lex("t.rs", "c(\"a_name\", \"Help text.\");\nr#\"raw one\"#;\n");
        assert_eq!(scan.lines[0].literals, vec!["a_name", "Help text."]);
        assert_eq!(scan.lines[1].literals, vec!["raw one"]);
        // A multi-line literal closes on — and is attributed to — line 1.
        let scan = lex("t.rs", "let s = \"first\nsecond\"; t(\"x\");\n");
        assert!(scan.lines[0].literals.is_empty());
        assert_eq!(scan.lines[1].literals, vec!["firstsecond", "x"]);
    }

    #[test]
    fn line_and_block_comments() {
        let scan = lex(
            "t.rs",
            "let x = 1; // SAFETY: fine\n/* block\nunsafe */ let y = 2;\n",
        );
        assert_eq!(scan.lines[0].code, "let x = 1; ");
        assert!(scan.lines[0].comment.contains("SAFETY:"));
        assert!(scan.lines[1].comment.contains("block"));
        assert_eq!(scan.lines[2].code, " let y = 2;");
    }

    #[test]
    fn nested_block_comments() {
        let c = code_of("a(); /* outer /* inner */ still comment */ b();\n");
        assert_eq!(c[0], "a();  b();");
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let c = code_of("let c = 'u'; fn f<'a>(x: &'a str) {} let e = '\\n';\n");
        assert_eq!(c[0], "let c = ''; fn f<'a>(x: &'a str) {} let e = '';");
    }

    #[test]
    fn doc_comments_are_comments() {
        let scan = lex(
            "t.rs",
            "/// # Safety\n/// callers must check\npub unsafe fn f() {}\n",
        );
        assert!(scan.lines[0].comment.contains("# Safety"));
        assert_eq!(scan.lines[0].code, "");
        assert!(has_word(&scan.lines[2].code, "unsafe"));
    }

    #[test]
    fn cfg_test_regions() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let scan = lex("t.rs", src);
        assert_eq!(scan.in_test, vec![false, true, true, true, true, false]);
    }

    /// `in_test` of `src`, line by line.
    fn gated(src: &str) -> Vec<bool> {
        lex("t.rs", src).in_test
    }

    #[test]
    fn cfg_test_use_ends_at_its_semicolon() {
        let src = "#[cfg(test)]\nuse std::fmt;\n\npub fn f() {\n    g();\n}\n";
        assert_eq!(gated(src), vec![true, true, false, false, false, false]);
    }

    #[test]
    fn cfg_test_const_with_array_type_ends_at_its_semicolon() {
        let src = "#[cfg(test)]\nconst X: [u8; 2] = [1, 2];\nfn f() {\n    g();\n}\n";
        assert_eq!(gated(src), vec![true, true, false, false, false]);
    }

    #[test]
    fn cfg_test_struct_field_ends_at_its_comma() {
        let src =
            "struct S {\n    #[cfg(test)]\n    x: Vec<(u8, u8)>,\n    y: u8,\n}\nfn f() {\n    g();\n}\n";
        assert_eq!(
            gated(src),
            vec![false, true, true, false, false, false, false, false]
        );
        // The last field, without a comma, ends at the struct's `}`.
        let src = "struct S {\n    #[cfg(test)]\n    x: u8\n}\nfn f() {\n    g();\n}\n";
        assert_eq!(gated(src), vec![false, true, true, false, false, false, false]);
    }

    #[test]
    fn cfg_test_statement_ends_at_its_semicolon() {
        let src = "fn g() {\n    #[cfg(test)]\n    let x = 1;\n    run();\n}\nfn f() {\n    h();\n}\n";
        assert_eq!(
            gated(src),
            vec![false, true, true, false, false, false, false, false]
        );
        // A comparison is not a generic list.
        let src = "fn g() {\n    #[cfg(test)]\n    check(a > b, c < d);\n}\nfn f() {\n    h();\n}\n";
        assert_eq!(gated(src), vec![false, true, true, false, false, false, false]);
        // A closure body inside the statement's parentheses is not its block.
        let src = "fn g() {\n    #[cfg(test)]\n    HOOK.with(|h| {\n        h();\n    });\n    run();\n}\nfn f() {\n    g();\n}\n";
        assert_eq!(
            gated(src),
            vec![false, true, true, true, true, false, false, false, false, false]
        );
    }

    #[test]
    fn cfg_test_generic_fn_with_where_clause_is_one_item() {
        let src = "#[cfg(test)]\nfn t<A, B>(a: A)\nwhere\n    A: Clone,\n    B: Copy,\n{\n    a.clone();\n}\nfn f() {}\n";
        assert_eq!(
            gated(src),
            vec![true, true, true, true, true, true, true, true, false]
        );
    }

    #[test]
    fn word_boundaries() {
        assert!(has_word("unsafe {", "unsafe"));
        assert!(!has_word("unsafely()", "unsafe"));
        assert!(!has_word("an_unsafe_thing", "unsafe"));
        assert_eq!(word_positions("unsafe unsafe", "unsafe"), vec![0, 7]);
    }
}
