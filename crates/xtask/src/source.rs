//! Lexical model of a Rust source file.
//!
//! The lints work on a per-line "code view" of each file: comment and
//! string-literal *contents* are blanked out (so `panic!` inside a doc
//! comment or an error message never fires a lint), block comments and
//! raw strings are tracked across lines, and `#[cfg(test)]` module
//! bodies are marked so test-only code is exempt from the library
//! lints. `lint:allow(...)` directives are parsed out of the raw
//! comment text before it is discarded.

use std::cell::RefCell;

use crate::{Finding, Lint};

/// A `lint:allow(<name>) — justification` directive found in a comment.
#[derive(Clone, Debug)]
pub struct AllowDirective {
    /// The lint name as written (may be unknown — the `allow` lint
    /// reports that).
    pub lint_name: String,
    /// Whether a non-trivial justification follows the directive.
    pub justified: bool,
}

/// One line of a parsed source file.
#[derive(Debug)]
pub struct Line {
    /// The original line text (used for doc-comment adjacency checks).
    pub raw: String,
    /// The line with comments removed and string contents blanked.
    pub code: String,
    /// True if the line carries no code (blank, or comment only).
    pub comment_only: bool,
    /// True if the line sits inside a `#[cfg(test)]` module body.
    pub in_test: bool,
    /// Directives written on this line.
    pub allows: Vec<AllowDirective>,
    /// Contents of the string literals that *close* on this line, in
    /// source order. The code view blanks them; token-level passes that
    /// need literal text (the `t2` counter-registry check) read it from
    /// here. Raw strings spanning multiple lines contribute only their
    /// final-line fragment.
    pub strings: Vec<String>,
}

/// A source file after lexical analysis, addressed by 0-based line
/// index internally and reported 1-based.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// The analysed lines.
    pub lines: Vec<Line>,
    /// `(line, lint)` pairs of directives that suppressed (or converted)
    /// at least one finding this run — the complement feeds the
    /// stale-allow audit. Interior mutability because every lint holds
    /// the file by shared reference.
    used_allows: RefCell<Vec<(usize, Lint)>>,
}

/// Minimum length of the justification text after `lint:allow(<name>)`
/// for the directive to count as justified.
pub const MIN_JUSTIFICATION: usize = 10;

#[derive(Clone, Copy, PartialEq)]
enum LexState {
    Normal,
    /// Inside `/* ... */`, tracking nesting depth.
    Block(u32),
    /// Inside a raw string, tracking the number of `#`s that close it.
    Raw(u32),
}

impl SourceFile {
    /// Lexically analyse `text`.
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        let mut lines = Vec::new();
        let mut state = LexState::Normal;
        for raw in text.lines() {
            let (code, next_state, comment_text, strings) = strip_line(raw, state);
            state = next_state;
            let allows = parse_allows(&comment_text);
            let comment_only = code.trim().is_empty();
            lines.push(Line {
                raw: raw.to_string(),
                code,
                comment_only,
                in_test: false,
                allows,
                strings,
            });
        }
        let mut file = SourceFile {
            rel_path: rel_path.to_string(),
            lines,
            used_allows: RefCell::new(Vec::new()),
        };
        file.mark_test_regions();
        file
    }

    /// Mark lines inside `#[cfg(test)] mod ... { ... }` bodies.
    fn mark_test_regions(&mut self) {
        let mut depth: i64 = 0;
        let mut pending_cfg = false;
        let mut awaiting_brace = false;
        let mut test_entry: Option<i64> = None;
        for line in &mut self.lines {
            let code = line.code.clone();
            let trimmed = code.trim();
            if trimmed.contains("#[cfg(test)]") {
                pending_cfg = true;
            }
            if pending_cfg && !awaiting_brace && has_word(trimmed, "mod") {
                awaiting_brace = true;
            } else if pending_cfg
                && !awaiting_brace
                && !trimmed.is_empty()
                && !trimmed.starts_with('#')
            {
                // The cfg(test) applied to a non-module item (fn, use…);
                // only module bodies define an exempt region.
                pending_cfg = false;
            }
            let mut touched_test = test_entry.is_some();
            for ch in code.chars() {
                match ch {
                    '{' => {
                        if awaiting_brace && test_entry.is_none() {
                            test_entry = Some(depth);
                            awaiting_brace = false;
                            pending_cfg = false;
                            touched_test = true;
                        }
                        depth += 1;
                    }
                    '}' => {
                        depth -= 1;
                        if test_entry == Some(depth) {
                            test_entry = None;
                        }
                    }
                    _ => {}
                }
            }
            line.in_test = touched_test || test_entry.is_some();
        }
    }

    /// Look up an allow for `lint` covering 0-based line `idx`: on the
    /// line itself, or on the run of comment-only lines directly above.
    /// Returns the directive's `justified` flag if found.
    pub fn allowed(&self, lint: Lint, idx: usize) -> Option<bool> {
        let matches_lint =
            |d: &AllowDirective| Lint::from_name(&d.lint_name) == Some(lint);
        if let Some(d) = self.lines[idx].allows.iter().find(|d| matches_lint(d)) {
            self.used_allows.borrow_mut().push((idx, lint));
            return Some(d.justified);
        }
        let mut i = idx;
        while i > 0 {
            i -= 1;
            let line = &self.lines[i];
            if !line.comment_only || line.raw.trim().is_empty() {
                break;
            }
            if let Some(d) = line.allows.iter().find(|d| matches_lint(d)) {
                self.used_allows.borrow_mut().push((i, lint));
                return Some(d.justified);
            }
        }
        None
    }

    /// Findings for stale directives: a well-formed `lint:allow(<name>)`
    /// that suppressed nothing this run — its line (and the line below,
    /// for comment-run directives) no longer triggers `<name>`, so the
    /// directive is dead weight and must be removed. Call this only
    /// after **every** lint (per-file and cross-file) has run, or live
    /// directives will be misreported as stale.
    pub fn stale_allow_findings(&self) -> Vec<Finding> {
        let used = self.used_allows.borrow();
        let mut out = Vec::new();
        for (idx, line) in self.lines.iter().enumerate() {
            for d in &line.allows {
                let Some(lint) = Lint::from_name(&d.lint_name) else {
                    continue; // unknown names are directive_findings' job
                };
                if !used.iter().any(|&(i, l)| i == idx && l == lint) {
                    out.push(Finding {
                        lint: Lint::Allow,
                        file: self.rel_path.clone(),
                        line: idx + 1,
                        message: format!(
                            "stale lint:allow({}): no {} finding fires here any more; \
                             remove the directive",
                            lint.name(),
                            lint.name()
                        ),
                    });
                }
            }
        }
        out
    }

    /// Findings for malformed directives anywhere in the file: unknown
    /// lint names. (Missing justifications are reported at the site the
    /// allow suppresses, by `apply_allow`.)
    pub fn directive_findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        for (idx, line) in self.lines.iter().enumerate() {
            for d in &line.allows {
                if Lint::from_name(&d.lint_name).is_none() {
                    out.push(Finding {
                        lint: Lint::Allow,
                        file: self.rel_path.clone(),
                        line: idx + 1,
                        message: format!(
                            "lint:allow({}) names an unknown lint \
                             (known: h1 p1 f1 v1 d1 r1 a1 n1 o1 v2 b1 t2)",
                            d.lint_name
                        ),
                    });
                }
            }
        }
        out
    }

    /// Suppression protocol shared by all source lints: if `idx` is
    /// covered by a justified allow for `lint`, the finding is dropped;
    /// if the allow lacks a justification the finding is converted into
    /// an `allow` finding; otherwise the original finding is returned.
    pub fn apply_allow(&self, finding: Finding) -> Option<Finding> {
        match self.allowed(finding.lint, finding.line - 1) {
            Some(true) => None,
            Some(false) => Some(Finding {
                lint: Lint::Allow,
                file: finding.file,
                line: finding.line,
                message: format!(
                    "lint:allow({}) requires a justification, e.g. \
                     `// lint:allow({}) — <why this site cannot fire>`",
                    finding.lint.name(),
                    finding.lint.name()
                ),
            }),
            None => Some(finding),
        }
    }
}

/// True if `text` contains `word` delimited by non-identifier chars.
fn has_word(text: &str, word: &str) -> bool {
    let bytes = text.as_bytes();
    let mut start = 0;
    while let Some(pos) = text[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Strip one line given the carry-over lexer state. Returns the code
/// view (string contents blanked), the state after the line, the
/// concatenated comment text (for directive parsing), and the contents
/// of the string literals that close on this line.
fn strip_line(raw: &str, mut state: LexState) -> (String, LexState, String, Vec<String>) {
    let chars: Vec<char> = raw.chars().collect();
    let mut code = String::with_capacity(raw.len());
    let mut comments = String::new();
    let mut strings = Vec::new();
    let mut literal = String::new();
    let mut i = 0;
    while i < chars.len() {
        match state {
            LexState::Block(depth) => {
                if chars[i] == '*' && i + 1 < chars.len() && chars[i + 1] == '/' {
                    state = if depth == 1 { LexState::Normal } else { LexState::Block(depth - 1) };
                    i += 2;
                } else if chars[i] == '/' && i + 1 < chars.len() && chars[i + 1] == '*' {
                    state = LexState::Block(depth + 1);
                    i += 2;
                } else {
                    comments.push(chars[i]);
                    i += 1;
                }
            }
            LexState::Raw(hashes) => {
                if chars[i] == '"' && closes_raw(&chars, i + 1, hashes) {
                    code.push('"');
                    i += 1 + hashes as usize;
                    for _ in 0..hashes {
                        code.push('#');
                    }
                    strings.push(std::mem::take(&mut literal));
                    state = LexState::Normal;
                } else {
                    literal.push(chars[i]);
                    code.push(' ');
                    i += 1;
                }
            }
            LexState::Normal => {
                let c = chars[i];
                if c == '/' && i + 1 < chars.len() && chars[i + 1] == '/' {
                    comments.push_str(&raw[byte_offset(raw, i)..]);
                    break;
                }
                if c == '/' && i + 1 < chars.len() && chars[i + 1] == '*' {
                    state = LexState::Block(1);
                    code.push(' ');
                    i += 2;
                    continue;
                }
                if let Some((hashes, consumed)) = raw_string_start(&chars, i) {
                    code.push('r');
                    for _ in 0..hashes {
                        code.push('#');
                    }
                    code.push('"');
                    i += consumed;
                    state = LexState::Raw(hashes);
                    continue;
                }
                if c == '"' || (c == 'b' && i + 1 < chars.len() && chars[i + 1] == '"') {
                    if c == 'b' {
                        code.push('b');
                        i += 1;
                    }
                    code.push('"');
                    i += 1;
                    while i < chars.len() {
                        if chars[i] == '\\' {
                            // Escapes are kept verbatim in the capture:
                            // counter names and schema keys never use
                            // them, and byte-fidelity is not required.
                            literal.push(chars[i]);
                            if i + 1 < chars.len() {
                                literal.push(chars[i + 1]);
                            }
                            code.push(' ');
                            code.push(' ');
                            i += 2;
                        } else if chars[i] == '"' {
                            code.push('"');
                            i += 1;
                            break;
                        } else {
                            literal.push(chars[i]);
                            code.push(' ');
                            i += 1;
                        }
                    }
                    strings.push(std::mem::take(&mut literal));
                    continue;
                }
                if c == '\'' {
                    if let Some(consumed) = char_literal_len(&chars, i) {
                        code.push('\'');
                        for _ in 1..consumed - 1 {
                            code.push(' ');
                        }
                        code.push('\'');
                        i += consumed;
                        continue;
                    }
                    // A lifetime: keep it verbatim.
                    code.push('\'');
                    i += 1;
                    continue;
                }
                code.push(c);
                i += 1;
            }
        }
    }
    (code, state, comments, strings)
}

/// Byte offset of the `idx`-th char of `raw`.
fn byte_offset(raw: &str, idx: usize) -> usize {
    raw.char_indices().nth(idx).map(|(b, _)| b).unwrap_or(raw.len())
}

/// If a raw string literal starts at `i` (`r"`, `r#"`, `br##"`, …),
/// return (hash count, chars consumed through the opening quote).
fn raw_string_start(chars: &[char], i: usize) -> Option<(u32, usize)> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((hashes, j + 1 - i))
    } else {
        None
    }
}

/// True if `hashes` `#`s follow position `i` (closing a raw string).
fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (0..hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// If a char literal starts at `i`, return its total length in chars;
/// `None` for lifetimes like `'a` or `'static`.
fn char_literal_len(chars: &[char], i: usize) -> Option<usize> {
    if chars.get(i) != Some(&'\'') {
        return None;
    }
    if chars.get(i + 1) == Some(&'\\') {
        // Escaped char: scan to the closing quote.
        let mut j = i + 2;
        while j < chars.len() && j < i + 12 {
            if chars[j] == '\'' {
                return Some(j + 1 - i);
            }
            j += 1;
        }
        return None;
    }
    if chars.get(i + 2) == Some(&'\'') {
        return Some(3);
    }
    None
}

/// Extract every `lint:allow(<name>)` directive from comment text.
fn parse_allows(comment: &str) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("lint:allow(") {
        let after = &rest[pos + "lint:allow(".len()..];
        let Some(close) = after.find(')') else { break };
        let lint_name = after[..close].trim().to_string();
        let tail = after[close + 1..]
            .trim_start_matches([' ', '\t', ':', '-', '—', '–', '.'])
            .trim();
        out.push(AllowDirective { lint_name, justified: tail.len() >= MIN_JUSTIFICATION });
        rest = &after[close + 1..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_comments_and_strings() {
        let f = SourceFile::parse("x.rs", "let s = \"panic! (not real)\"; // unwrap()\n");
        assert!(!f.lines[0].code.contains("panic!"));
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("let s ="));
    }

    #[test]
    fn strips_block_comments_across_lines() {
        let f = SourceFile::parse("x.rs", "a /* panic!\nstill panic!() */ b\n");
        assert!(!f.lines[0].code.contains("panic"));
        assert!(!f.lines[1].code.contains("panic"));
        assert!(f.lines[1].code.contains('b'));
    }

    #[test]
    fn raw_strings_and_char_literals() {
        let f = SourceFile::parse("x.rs", "let r = r#\"unwrap()\"#; let c = '\"'; let l: &'a str = x;\n");
        let code = &f.lines[0].code;
        assert!(!code.contains("unwrap"));
        assert!(code.contains("&'a str"));
    }

    #[test]
    fn marks_cfg_test_modules() {
        let text = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let f = SourceFile::parse("x.rs", text);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[3].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn cfg_test_on_fn_does_not_open_region() {
        let text = "#[cfg(test)]\nfn helper() {}\nfn live() {}\n";
        let f = SourceFile::parse("x.rs", text);
        assert!(!f.lines[2].in_test);
    }

    #[test]
    fn allow_same_line_and_above() {
        let text = "// lint:allow(p1) — index bounded by construction\nlet x = v[0][1][2];\nlet y = w.unwrap(); // lint:allow(p1) — checked is_some above\nlet z = q.unwrap(); // lint:allow(p1)\n";
        let f = SourceFile::parse("x.rs", text);
        assert_eq!(f.allowed(Lint::P1, 1), Some(true));
        assert_eq!(f.allowed(Lint::P1, 2), Some(true));
        assert_eq!(f.allowed(Lint::P1, 3), Some(false), "missing justification");
        assert_eq!(f.allowed(Lint::F1, 1), None, "allow is per-lint");
    }

    #[test]
    fn blank_line_breaks_allow_adjacency() {
        let text = "// lint:allow(p1) — some justification here\n\nlet y = w.unwrap();\n";
        let f = SourceFile::parse("x.rs", text);
        assert_eq!(f.allowed(Lint::P1, 2), None);
    }

    #[test]
    fn string_contents_are_captured() {
        let f = SourceFile::parse(
            "x.rs",
            "t.count(\"serve.requests\", 1); let r = r#\"raw.name\"#;\n",
        );
        assert_eq!(f.lines[0].strings, vec!["serve.requests", "raw.name"]);
    }

    #[test]
    fn multiline_raw_string_captures_final_fragment() {
        let f = SourceFile::parse("x.rs", "let r = r#\"head\ntail\"#;\n");
        assert!(f.lines[0].strings.is_empty());
        assert_eq!(f.lines[1].strings, vec!["tail"]);
    }

    #[test]
    fn stale_allow_detected_and_used_allow_is_not() {
        let text = "let y = w.unwrap(); // lint:allow(p1) — checked above ok\n\
                    let z = 1 + 1; // lint:allow(f1) — nothing fires here\n";
        let f = SourceFile::parse("x.rs", text);
        assert_eq!(f.allowed(Lint::P1, 0), Some(true));
        let stale = f.stale_allow_findings();
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].line, 2);
        assert!(stale[0].message.contains("stale lint:allow(f1)"));
    }

    #[test]
    fn unknown_lint_reported() {
        let f = SourceFile::parse("x.rs", "// lint:allow(q7) — whatever reason text\n");
        let findings = f.directive_findings();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, Lint::Allow);
    }
}
