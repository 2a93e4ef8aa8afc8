//! The source-level lints: p1 panic-freedom, f1 float-equality,
//! v1 validator coverage, d1 docs, r1 panic isolation, a1 memo-key
//! cloning in rectpack.
//!
//! All of them work on the blanked "code view" produced by
//! [`crate::source::SourceFile`], so comments and string contents never
//! fire a lint, and `#[cfg(test)]` module bodies are exempt.

use crate::source::SourceFile;
use crate::{Finding, Lint};

/// Crates whose library code must be panic-free (p1).
const P1_CRATES: [&str; 7] = ["core", "algs", "lp", "dsa", "knapsack", "rectpack", "ufpp"];

/// Panicking constructs denied by p1. `.unwrap_or*(` variants do not
/// match because the needle requires the closing paren.
const P1_NEEDLES: [&str; 6] =
    [".unwrap()", ".expect(", "panic!", "unreachable!", "todo!(", "unimplemented!("];

/// A line with at least this many direct index expressions is flagged
/// as "indexing-heavy" (each `[` is a potential bounds panic; chains of
/// them are where the SAP kernels historically went out of bounds).
const INDEX_HEAVY_THRESHOLD: usize = 3;

/// Identifier fragments that mark a memo-key value in the rectangle
/// solver (a1): constraint sets, memo keys and floor constraints are
/// hash-consed through the `ConstraintPool` arena, so cloning one in
/// library code reintroduces the per-visit allocations the interner
/// removed.
const A1_MARKERS: [&str; 4] = ["cons", "key", "memo", "floor"];

/// Run every applicable source lint over one file.
pub fn lint_source(src: &SourceFile) -> Vec<Finding> {
    let mut findings = src.directive_findings();
    if in_crates_src(&src.rel_path, &P1_CRATES) {
        findings.extend(lint_p1(src));
    }
    if is_f1_scope(&src.rel_path) {
        findings.extend(lint_f1(src));
    }
    if src.rel_path.starts_with("crates/algs/src/") {
        findings.extend(lint_v1(src));
        findings.extend(lint_r1(src));
    }
    if src.rel_path.starts_with("crates/rectpack/src/") {
        findings.extend(lint_a1(src));
    }
    if src.rel_path.starts_with("crates/core/src/") || src.rel_path.starts_with("crates/algs/src/")
    {
        findings.extend(lint_d1(src));
    }
    findings
}

fn in_crates_src(rel: &str, names: &[&str]) -> bool {
    names.iter().any(|n| rel.starts_with(&format!("crates/{n}/src/")))
}

fn is_f1_scope(rel: &str) -> bool {
    rel == "crates/core/src/classify.rs" || rel.starts_with("crates/lp/src/")
}

// ---------------------------------------------------------------- p1

fn lint_p1(src: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for needle in P1_NEEDLES {
            if line.code.contains(needle) {
                push(src, &mut out, Lint::P1, idx, format!(
                    "`{needle}` can panic in library code; return SapError / handle the \
                     None case, or justify with lint:allow(p1)"
                ));
            }
        }
        let idx_ops = count_index_ops(&line.code);
        if idx_ops >= INDEX_HEAVY_THRESHOLD {
            push(src, &mut out, Lint::P1, idx, format!(
                "indexing-heavy line ({idx_ops} `[` expressions, each a potential bounds \
                 panic); prefer iterators/.get(), or justify with lint:allow(p1)"
            ));
        }
    }
    out
}

/// Count direct index expressions: `[` immediately preceded by an
/// identifier character, `)` or `]` (so array types, attributes and
/// `vec![`-style macros don't count).
fn count_index_ops(code: &str) -> usize {
    let bytes = code.as_bytes();
    let mut n = 0;
    for i in 1..bytes.len() {
        if bytes[i] == b'['
            && (bytes[i - 1].is_ascii_alphanumeric() || matches!(bytes[i - 1], b'_' | b')' | b']'))
        {
            n += 1;
        }
    }
    n
}

// ---------------------------------------------------------------- f1

fn lint_f1(src: &SourceFile) -> Vec<Finding> {
    let floats = collect_float_idents(src);
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let chars: Vec<char> = line.code.chars().collect();
        for (pos, op) in eq_operators(&chars) {
            let lhs = grab_left(&chars, pos);
            let rhs = grab_right(&chars, pos + 2);
            if is_floaty(&lhs, &floats) || is_floaty(&rhs, &floats) {
                push(src, &mut out, Lint::F1, idx, format!(
                    "float comparison `{lhs} {op} {rhs}`; compare with a tolerance \
                     (|a - b| <= EPS) instead of exact equality"
                ));
            }
        }
    }
    out
}

/// Identifiers annotated `: f64` / `: f32` anywhere in the file
/// (bindings, parameters, struct fields).
fn collect_float_idents(src: &SourceFile) -> Vec<String> {
    let mut idents = Vec::new();
    for line in &src.lines {
        let code = &line.code;
        for ty in ["f64", "f32"] {
            let mut start = 0;
            while let Some(p) = code[start..].find(ty) {
                let at = start + p;
                start = at + ty.len();
                let before = code[..at].trim_end();
                let Some(rest) = before.strip_suffix(':') else { continue };
                let ident: String = rest
                    .chars()
                    .rev()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect::<String>()
                    .chars()
                    .rev()
                    .collect();
                if !ident.is_empty() && !ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                    idents.push(ident);
                }
            }
        }
    }
    idents.sort();
    idents.dedup();
    idents
}

/// Positions of `==` / `!=` operators in a code line.
fn eq_operators(chars: &[char]) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < chars.len() {
        let prev = if i > 0 { chars[i - 1] } else { ' ' };
        let next2 = chars.get(i + 2).copied().unwrap_or(' ');
        if chars[i] == '=' && chars[i + 1] == '=' {
            if !matches!(prev, '=' | '!' | '<' | '>' | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^')
                && next2 != '='
            {
                out.push((i, "=="));
            }
            i += 2;
            continue;
        }
        if chars[i] == '!' && chars[i + 1] == '=' && next2 != '=' {
            out.push((i, "!="));
            i += 2;
            continue;
        }
        i += 1;
    }
    out
}

/// Extract the expression text ending just before `op_pos`.
fn grab_left(chars: &[char], op_pos: usize) -> String {
    let mut i = op_pos as i64 - 1;
    while i >= 0 && chars[i as usize] == ' ' {
        i -= 1;
    }
    let end = i;
    loop {
        if i < 0 {
            break;
        }
        let c = chars[i as usize];
        if c == ')' || c == ']' {
            let open = if c == ')' { '(' } else { '[' };
            let mut depth = 0;
            while i >= 0 {
                let d = chars[i as usize];
                if d == c {
                    depth += 1;
                } else if d == open {
                    depth -= 1;
                    if depth == 0 {
                        i -= 1;
                        break;
                    }
                }
                i -= 1;
            }
            continue;
        }
        if c.is_ascii_alphanumeric() || c == '_' {
            while i >= 0
                && (chars[i as usize].is_ascii_alphanumeric() || chars[i as usize] == '_')
            {
                i -= 1;
            }
            if i >= 0 && (chars[i as usize] == '.' || (i >= 1 && chars[i as usize] == ':')) {
                if chars[i as usize] == '.' {
                    i -= 1;
                    continue;
                }
                if chars[(i - 1) as usize] == ':' {
                    i -= 2;
                    continue;
                }
            }
            break;
        }
        if c == '.' {
            i -= 1;
            continue;
        }
        break;
    }
    chars[(i + 1).max(0) as usize..=end.max(0) as usize].iter().collect::<String>()
}

/// Extract the expression text starting at `start` (after the op).
fn grab_right(chars: &[char], mut start: usize) -> String {
    while start < chars.len() && chars[start] == ' ' {
        start += 1;
    }
    let begin = start;
    let mut i = start;
    if i < chars.len() && (chars[i] == '-' || chars[i] == '!') {
        i += 1;
    }
    loop {
        if i >= chars.len() {
            break;
        }
        let c = chars[i];
        if c.is_ascii_alphanumeric() || c == '_' {
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            continue;
        }
        if c == '.' && i + 1 < chars.len() && chars[i + 1] != '.' {
            i += 1;
            continue;
        }
        if c == ':' && i + 1 < chars.len() && chars[i + 1] == ':' {
            i += 2;
            continue;
        }
        if c == '(' || c == '[' {
            let close = if c == '(' { ')' } else { ']' };
            let mut depth = 0;
            while i < chars.len() {
                if chars[i] == c {
                    depth += 1;
                } else if chars[i] == close {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
            }
            continue;
        }
        break;
    }
    chars[begin..i.min(chars.len())].iter().collect::<String>()
}

/// Is an operand float-valued, as far as token-level analysis can tell?
fn is_floaty(operand: &str, float_idents: &[String]) -> bool {
    if operand.contains("f64") || operand.contains("f32") {
        return true;
    }
    if has_float_literal(operand) {
        return true;
    }
    // The final path segment (`self.eps`, `params.tol`) or the operand
    // itself matches a known `: f64` identifier.
    let last = operand.rsplit(['.', ':']).next().unwrap_or(operand);
    let base = last.trim_end_matches(|c| c == '(' || c == ')');
    float_idents.iter().any(|id| id == base || id == operand)
}

/// A digit immediately followed by `.` (but not `..`): `1.0`, `0.5e-3`.
fn has_float_literal(s: &str) -> bool {
    let chars: Vec<char> = s.chars().collect();
    for i in 0..chars.len().saturating_sub(1) {
        if chars[i].is_ascii_digit()
            && chars[i + 1] == '.'
            && chars.get(i + 2).copied() != Some('.')
        {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------- r1

/// Driver code in `sap-algs` must not re-raise captured panics: arms run
/// behind `sap_core::run_isolated` / `join3_isolated` and failures become
/// `SolveReport` entries. A `resume_unwind` call site defeats that
/// isolation and turns an injected fault into a process abort.
fn lint_r1(src: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if line.code.contains("resume_unwind") {
            push(src, &mut out, Lint::R1, idx, String::from(
                "`resume_unwind` re-raises a captured panic in driver code; route the \
                 failure into the SolveReport (run_isolated / ArmOutcome::Panicked), or \
                 justify with lint:allow(r1)",
            ));
        }
    }
    out
}

// ---------------------------------------------------------------- v1

fn lint_v1(src: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in public_items(src) {
        if f.item_kind != "fn" || !f.ret.contains("Solution") {
            continue;
        }
        let body_ok = (f.body_start..f.body_end.min(src.lines.len())).any(|i| {
            let code = &src.lines[i].code;
            code.contains("debug_assert") && code.contains("validate")
        });
        if !body_ok {
            push(src, &mut out, Lint::V1, f.line, format!(
                "pub fn `{}` returns a Solution but never checks it: add \
                 `debug_assert!(sol.validate(instance).is_ok());` before returning",
                f.name
            ));
        }
    }
    out
}

// ---------------------------------------------------------------- d1

fn lint_d1(src: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in public_items(src) {
        if !has_doc_above(src, f.line) {
            push(src, &mut out, Lint::D1, f.line, format!(
                "missing doc comment on pub {} `{}`",
                f.item_kind, f.name
            ));
        }
    }
    out
}

/// Walk upward over attribute lines; the nearest other line must be a
/// `///` doc comment (or `#[doc…]` attribute).
fn has_doc_above(src: &SourceFile, idx: usize) -> bool {
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let trimmed = src.lines[i].raw.trim();
        if trimmed.starts_with("#[doc") {
            return true;
        }
        if trimmed.starts_with("#[") || trimmed.starts_with("#![") {
            continue;
        }
        return trimmed.starts_with("///");
    }
    false
}

// ------------------------------------------------- item extraction

/// A `pub fn` / `pub struct` item found in non-test code.
struct PubItem {
    /// 0-based line of the `pub` keyword.
    line: usize,
    /// "fn" or "struct".
    item_kind: &'static str,
    name: String,
    /// Return type text ("" for structs / no-return fns).
    ret: String,
    /// 0-based body line range (only meaningful for fns with bodies).
    body_start: usize,
    body_end: usize,
}

/// Extract `pub fn` / `pub struct` items (plain `pub` only — `pub(crate)`
/// is not public API) outside test modules.
fn public_items(src: &SourceFile) -> Vec<PubItem> {
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let trimmed = line.code.trim();
        let Some((kind, name)) = pub_item_header(trimmed) else { continue };
        if kind == "struct" {
            out.push(PubItem {
                line: idx,
                item_kind: "struct",
                name,
                ret: String::new(),
                body_start: idx,
                body_end: idx,
            });
            continue;
        }
        // Collect the signature until its opening `{` (or `;`).
        let mut sig = String::new();
        let mut open_line = idx;
        let mut found_open = false;
        for (j, l) in src.lines.iter().enumerate().skip(idx).take(24) {
            sig.push_str(l.code.trim());
            sig.push(' ');
            if l.code.contains('{') {
                open_line = j;
                found_open = true;
                break;
            }
            if l.code.contains(';') {
                break;
            }
        }
        let ret = return_type(&sig);
        let body_end = if found_open { body_close(src, open_line) } else { idx };
        out.push(PubItem {
            line: idx,
            item_kind: "fn",
            name,
            ret,
            body_start: open_line,
            body_end,
        });
    }
    out
}

/// If a trimmed code line begins a `pub fn` / `pub struct` item, return
/// its kind and name.
fn pub_item_header(trimmed: &str) -> Option<(&'static str, String)> {
    let mut tokens = trimmed.split_whitespace();
    if tokens.next()? != "pub" {
        return None;
    }
    for tok in tokens.by_ref() {
        match tok {
            "const" | "unsafe" | "async" | "extern" | "\"C\"" => continue,
            "fn" => {
                let name = tokens.next()?;
                let name: String = name
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                return Some(("fn", name));
            }
            "struct" => {
                let name = tokens.next()?;
                let name: String = name
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                return Some(("struct", name));
            }
            _ => return None,
        }
    }
    None
}

/// The text between `->` and the body `{` / `where` clause.
fn return_type(sig: &str) -> String {
    let Some(arrow) = sig.find("->") else { return String::new() };
    let after = &sig[arrow + 2..];
    let mut end = after.len();
    if let Some(p) = after.find('{') {
        end = end.min(p);
    }
    if let Some(p) = after.find(" where ") {
        end = end.min(p);
    }
    after[..end].trim().to_string()
}

/// 0-based line index just past the fn body opened on `open_line`.
fn body_close(src: &SourceFile, open_line: usize) -> usize {
    let mut depth = 0i64;
    let mut started = false;
    for (j, l) in src.lines.iter().enumerate().skip(open_line) {
        for c in l.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    started = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if started && depth <= 0 {
            return j + 1;
        }
    }
    src.lines.len()
}

/// Push `finding` through the allow filter.
// ---------------------------------------------------------------- a1

fn lint_a1(src: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for needle in [".to_vec()", ".clone()"] {
            let mut start = 0;
            while let Some(p) = line.code[start..].find(needle) {
                let at = start + p;
                start = at + needle.len();
                let recv = receiver_before(&line.code, at);
                let lower = recv.to_ascii_lowercase();
                if A1_MARKERS.iter().any(|m| lower.contains(m)) {
                    push(src, &mut out, Lint::A1, idx, format!(
                        "`{recv}{needle}` copies a memo-key value on the rectangle \
                         solver's hot path; intern it through the ConstraintPool arena \
                         or reuse the scratch buffers, or justify with lint:allow(a1)"
                    ));
                }
            }
        }
    }
    out
}

/// The dotted identifier chain ending just before byte `at`
/// (e.g. `self.parent_cons` for `self.parent_cons.to_vec()`).
fn receiver_before(code: &str, at: usize) -> String {
    let bytes = code.as_bytes();
    let mut i = at;
    while i > 0 {
        let c = bytes[i - 1];
        if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' {
            i -= 1;
        } else {
            break;
        }
    }
    code.get(i..at).unwrap_or("").to_string()
}

fn push(src: &SourceFile, out: &mut Vec<Finding>, lint: Lint, idx: usize, message: String) {
    let finding = Finding { lint, file: src.rel_path.clone(), line: idx + 1, message };
    if let Some(f) = src.apply_allow(finding) {
        out.push(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(rel: &str, text: &str) -> SourceFile {
        SourceFile::parse(rel, text)
    }

    #[test]
    fn p1_flags_and_allows() {
        let text = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\nfn g(v: &[u32]) -> u32 {\n    v[0] + v[1] + v[2]\n}\nfn h(x: Option<u32>) -> u32 {\n    // lint:allow(p1) — caller guarantees Some by construction\n    x.unwrap()\n}\n";
        let f = lint_p1(&parse("crates/core/src/x.rs", text));
        assert_eq!(f.len(), 2);
        assert!(f[0].message.contains(".unwrap()"));
        assert!(f[1].message.contains("indexing-heavy"));
    }

    #[test]
    fn p1_ignores_tests_and_unwrap_or() {
        let text = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}\n#[cfg(test)]\nmod tests {\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        assert!(lint_p1(&parse("crates/core/src/x.rs", text)).is_empty());
    }

    #[test]
    fn p1_out_of_scope_crate() {
        let src = parse("crates/gen/src/x.rs", "fn f() { panic!(\"x\") }\n");
        assert!(lint_source(&src).is_empty());
    }

    #[test]
    fn f1_flags_float_eq() {
        let text = "fn f(eps: f64, x: f64) -> bool {\n    x == 0.0 || eps != x\n}\nfn g(n: usize) -> bool {\n    n == 3\n}\n";
        let f = lint_f1(&parse("crates/lp/src/lib.rs", text));
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("tolerance"));
    }

    #[test]
    fn f1_tracks_annotated_idents() {
        let text = "struct P { tol: f64 }\nfn f(p: &P, q: &P) -> bool {\n    p.tol == q.tol\n}\n";
        let f = lint_f1(&parse("crates/core/src/classify.rs", text));
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn f1_ignores_ranges_and_ints() {
        let text = "fn f(n: usize) -> usize {\n    if n == 1 { (0..2).len() } else { 0 }\n}\n";
        assert!(lint_f1(&parse("crates/lp/src/lib.rs", text)).is_empty());
    }

    #[test]
    fn r1_flags_resume_unwind_in_algs_only() {
        let text = "fn f(p: Box<dyn std::any::Any + Send>) {\n    std::panic::resume_unwind(p)\n}\nfn g(p: Box<dyn std::any::Any + Send>) {\n    // lint:allow(r1) — deliberate re-raise at the process boundary\n    std::panic::resume_unwind(p)\n}\n#[cfg(test)]\nmod tests {\n    fn t(p: Box<dyn std::any::Any + Send>) { std::panic::resume_unwind(p) }\n}\n";
        let f = lint_r1(&parse("crates/algs/src/driver.rs", text));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("resume_unwind"));
        // Same text in sap-core (the isolation primitives themselves) is
        // out of scope.
        let core = parse("crates/core/src/parallel.rs", text);
        assert!(lint_source(&core).iter().all(|f| f.lint != Lint::R1));
    }

    #[test]
    fn v1_requires_validator() {
        let text = "pub fn solve(inst: &Instance) -> SapSolution {\n    let sol = inner(inst);\n    sol\n}\npub fn checked(inst: &Instance) -> SapSolution {\n    let sol = inner(inst);\n    debug_assert!(sol.validate(inst).is_ok());\n    sol\n}\npub fn count(inst: &Instance) -> usize {\n    inst.n()\n}\n";
        let f = lint_v1(&parse("crates/algs/src/x.rs", text));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("solve"));
    }

    #[test]
    fn d1_requires_docs() {
        let text = "/// Documented.\npub fn a() {}\n\npub fn b() {}\n\n/// Documented struct.\n#[derive(Clone)]\npub struct S;\n\npub struct T;\npub(crate) fn internal() {}\n";
        let f = lint_d1(&parse("crates/core/src/x.rs", text));
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains('b'));
        assert!(f[1].message.contains('T'));
    }
}
