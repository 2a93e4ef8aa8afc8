//! Whole-program lints over the token stream and call graph.
//!
//! * **n1** — hash-order iteration (`HashMap`/`HashSet` iterate/drain)
//!   in code reachable from an output constructor, plus wall-clock
//!   reads outside the timing opt-in paths.
//! * **o1** — unchecked `+` / `*` / `<<` on capacity/weight-typed
//!   `u64`s in the solver cores.
//! * **v2** — call-graph proof that every pub `sap-algs` path returning
//!   a `Solution` reaches a validator call.
//! * **b1** — every loop in a fallible `try_*` core reaches a
//!   `Budget::checkpoint` in its body or callees.
//! * **t2** — every incremented telemetry counter name is asserted by
//!   the root test suite or documented.
//!
//! All passes work on the blanked code view and are deliberately
//! over-approximate: a missing call-graph edge makes a *positive* proof
//! (v2, b1) fail loudly rather than pass silently, and the n1
//! entry-point set errs toward including too many constructors.

use std::collections::BTreeSet;
use std::path::Path;

use crate::callgraph::{call_names, Graph};
use crate::source::SourceFile;
use crate::tokens::{self, TokKind, Token};
use crate::{Finding, Lint};

/// Crates whose library code the semantic lints cover (the solver
/// cores; `gen` and `bench` produce no canonical output bytes).
const SOLVER_CRATES: [&str; 7] =
    ["core", "algs", "lp", "dsa", "knapsack", "rectpack", "ufpp"];

/// Return-type fragments that mark a fn as an output constructor for
/// n1: anything producing a `Solution`, a `SolveReport`, or exported
/// text/JSON is on the byte-identical contract.
const N1_ENTRY_RETURNS: [&str; 4] = ["Solution", "SolveReport", "Json", "String"];

/// Method needles that iterate (or drain) a hash container in an
/// order-dependent way. Membership tests (`get`, `contains_key`,
/// `insert`) are order-free and deliberately absent.
const HASH_ITER_METHODS: [&str; 8] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".retain(",
];

/// Identifier fragments that mark a `u64` as capacity/weight-typed for
/// o1 (compared lowercase).
const O1_MARKERS: [&str; 5] = ["cap", "demand", "weight", "height", "bottleneck"];

/// Accessor needles whose result is a capacity/weight-typed `u64`.
const O1_ACCESSORS: [&str; 5] =
    [".demand(", ".weight(", ".capacity(", ".bottleneck(", ".height("];

/// Run the n1/o1/v2/b1 passes over the workspace sources.
pub fn lint_semantic(files: &[SourceFile]) -> Vec<Finding> {
    let graph = Graph::build(files);
    let toks: Vec<Vec<Token>> = files.iter().map(tokens::tokenize).collect();
    let mut out = Vec::new();
    out.extend(lint_n1(files, &graph));
    out.extend(lint_o1(files, &toks));
    out.extend(lint_v2(files, &graph));
    out.extend(lint_b1(files, &graph, &toks));
    out
}

fn in_crates_src(rel: &str, names: &[&str]) -> bool {
    names.iter().any(|n| rel.starts_with(&format!("crates/{n}/src/")))
}

/// n1/t2 cover the solver crates plus the root binary (`sap serve`'s
/// NDJSON responses are an output surface too).
fn n1_scope(rel: &str) -> bool {
    in_crates_src(rel, &SOLVER_CRATES) || rel.starts_with("src/")
}

/// Push `finding` through the owning file's allow filter.
fn push(src: &SourceFile, out: &mut Vec<Finding>, lint: Lint, idx: usize, message: String) {
    let finding = Finding { lint, file: src.rel_path.clone(), line: idx + 1, message };
    if let Some(f) = src.apply_allow(finding) {
        out.push(f);
    }
}

// ---------------------------------------------------------------- n1

fn lint_n1(files: &[SourceFile], graph: &Graph) -> Vec<Finding> {
    // Output constructors: every non-test fn whose return type mentions
    // a Solution/report/export type, anywhere in the workspace.
    let entries: Vec<usize> = (0..graph.nodes.len())
        .filter(|&i| {
            let n = &graph.nodes[i];
            !n.item.in_test && N1_ENTRY_RETURNS.iter().any(|t| n.item.ret.contains(t))
        })
        .collect();
    let reachable = graph.reachable_from(&entries);

    let mut out = Vec::new();
    for (fi, src) in files.iter().enumerate() {
        if !n1_scope(&src.rel_path) {
            continue;
        }
        let hashed = hash_idents(src);
        for (idx, line) in src.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let on_output_path = || {
                graph.enclosing(fi, idx).is_some_and(|f| reachable[f])
            };
            for m in HASH_ITER_METHODS {
                let mut start = 0;
                while let Some(p) = line.code[start..].find(m) {
                    let at = start + p;
                    start = at + m.len();
                    let recv = receiver_base_multiline(src, idx, at);
                    if hashed.contains(&recv) && on_output_path() {
                        push(src, &mut out, Lint::N1, idx, format!(
                            "`{recv}{m}` iterates a hash container on a path reachable \
                             from an output constructor; std's randomized hasher breaks \
                             byte-identical output — use BTreeMap/BTreeSet (or sort \
                             first), or justify with lint:allow(n1)"
                        ));
                    }
                }
            }
            if let Some(ident) = for_loop_subject(&line.code) {
                if hashed.contains(&ident) && on_output_path() {
                    push(src, &mut out, Lint::N1, idx, format!(
                        "`for … in {ident}` iterates a hash container on a path \
                         reachable from an output constructor; std's randomized hasher \
                         breaks byte-identical output — use BTreeMap/BTreeSet (or sort \
                         first), or justify with lint:allow(n1)"
                    ));
                }
            }
            for clock in ["Instant::now(", "SystemTime::now("] {
                if line.code.contains(clock) {
                    let exempt = graph.enclosing(fi, idx).is_some_and(|f| {
                        graph.nodes[f].item.name.contains("with_timings")
                    });
                    if !exempt {
                        push(src, &mut out, Lint::N1, idx, format!(
                            "`{clock}…)` reads the wall clock outside a with_timings \
                             path; output derived from it cannot be byte-identical \
                             across runs — gate it behind the timings opt-in, or \
                             justify with lint:allow(n1)"
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Identifiers (bindings, params, struct fields) whose type is a std
/// hash container, collected file-wide.
fn hash_idents(src: &SourceFile) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in &src.lines {
        let code = &line.code;
        for ty in ["HashMap<", "HashSet<", "HashMap::", "HashSet::"] {
            let mut start = 0;
            while let Some(p) = code[start..].find(ty) {
                let at = start + p;
                start = at + ty.len();
                // `name: HashMap<…>` / `name: &mut HashMap<…>`
                // (annotation / field) or `let name = HashMap::new()`
                // (constructor binding).
                let mut before = code[..at].trim_end();
                while let Some(r) = before.strip_suffix('&') {
                    before = r.trim_end();
                }
                if let Some(r) = before.strip_suffix("mut") {
                    before = r.trim_end();
                    while let Some(r) = before.strip_suffix('&') {
                        before = r.trim_end();
                    }
                }
                let ident = if let Some(rest) = before.strip_suffix(':') {
                    ident_suffix(rest)
                } else if let Some(rest) = before.strip_suffix('=') {
                    ident_suffix(rest)
                } else {
                    String::new()
                };
                if !ident.is_empty() {
                    out.insert(ident);
                }
            }
        }
    }
    out
}

/// The trailing identifier of `text` (empty if it ends otherwise).
fn ident_suffix(text: &str) -> String {
    let trimmed = text.trim_end();
    let ident: String = trimmed
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        String::new()
    } else {
        ident
    }
}

/// The base name of the dotted receiver ending at byte `at`
/// (`self.slots` → `slots`).
fn receiver_base(code: &str, at: usize) -> String {
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
    code.get(i..at)
        .unwrap_or("")
        .rsplit('.')
        .next()
        .unwrap_or("")
        .to_string()
}

/// [`receiver_base`] across rustfmt'd continuation chains: when the
/// needle starts a line (`self\n.slots\n.iter()`), the receiver lives
/// at the end of a previous line — walk up a few lines and take the
/// trailing dotted-chain base instead.
fn receiver_base_multiline(src: &SourceFile, idx: usize, at: usize) -> String {
    let direct = receiver_base(&src.lines[idx].code, at);
    if !direct.is_empty() || !src.lines[idx].code[..at].trim().is_empty() {
        return direct;
    }
    let mut j = idx;
    while j > 0 && j + 4 > idx {
        j -= 1;
        let prev = src.lines[j].code.trim_end();
        if !prev.is_empty() {
            return receiver_base(prev, prev.len());
        }
    }
    String::new()
}

/// If a line holds a `for … in <subject>` header, the subject's base
/// identifier (`&mut prev` → `prev`).
fn for_loop_subject(code: &str) -> Option<String> {
    if !has_word(code, "for") {
        return None;
    }
    let in_pos = code.find(" in ")?;
    let subject = code[in_pos + 4..].trim_start();
    let subject = subject.strip_prefix('&').unwrap_or(subject).trim_start();
    let subject = subject.strip_prefix("mut ").unwrap_or(subject).trim_start();
    let ident: String = subject
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    // Only a bare identifier subject counts: `&prev`, `prev`. Anything
    // dotted (`m.keys()`) is handled by the method needles above.
    let rest = &subject[ident.len()..];
    if ident.is_empty() || rest.starts_with('.') || rest.starts_with(':') {
        None
    } else {
        Some(ident)
    }
}

/// True if `text` contains `word` delimited by non-identifier chars.
fn has_word(text: &str, word: &str) -> bool {
    let bytes = text.as_bytes();
    let mut start = 0;
    while let Some(pos) = text[start..].find(word) {
        let at = start + pos;
        let before_ok =
            at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        let end = at + word.len();
        let after_ok =
            end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

// ---------------------------------------------------------------- o1

fn lint_o1(files: &[SourceFile], toks: &[Vec<Token>]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fi, src) in files.iter().enumerate() {
        if !in_crates_src(&src.rel_path, &SOLVER_CRATES) {
            continue;
        }
        let tracked = tracked_u64_idents(src);
        if tracked.is_empty() {
            continue;
        }
        let mut seen = BTreeSet::new();
        for w in toks[fi].windows(3) {
            let (a, op, b) = (&w[0], &w[1], &w[2]);
            if src.lines.get(op.line).is_some_and(|l| l.in_test) {
                continue;
            }
            if op.kind != TokKind::Punct {
                continue;
            }
            let is_binary_op = matches!(op.text.as_str(), "+" | "*" | "<<");
            let is_assign_op = matches!(op.text.as_str(), "+=" | "*=" | "<<=");
            if !is_binary_op && !is_assign_op {
                continue;
            }
            let lhs_tracked = a.kind == TokKind::Ident && tracked.contains(&a.text);
            // The RHS rule needs binary context on the left so `*cap`
            // (deref) and `&cap` never match.
            let rhs_tracked = is_binary_op
                && b.kind == TokKind::Ident
                && tracked.contains(&b.text)
                && (matches!(a.kind, TokKind::Ident | TokKind::Number)
                    || a.text == ")"
                    || a.text == "]");
            if (lhs_tracked || rhs_tracked) && seen.insert((op.line, a.text.clone(), b.text.clone()))
            {
                push(src, &mut out, Lint::O1, op.line, format!(
                    "unchecked `{} {} {}` on a capacity/weight-typed u64 in a solver \
                     core; use checked_/saturating_ arithmetic, or justify the bound \
                     with lint:allow(o1)",
                    a.text, op.text, b.text
                ));
            }
        }
    }
    out
}

/// Identifiers the o1 pass treats as capacity/weight-typed `u64`s:
/// `: u64` annotations whose name carries a marker fragment, plus
/// bindings initialised from the unit accessors.
fn tracked_u64_idents(src: &SourceFile) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in &src.lines {
        let code = &line.code;
        let mut start = 0;
        while let Some(p) = code[start..].find(": u64") {
            let at = start + p;
            start = at + ": u64".len();
            let ident = ident_suffix(&code[..at]);
            let lower = ident.to_ascii_lowercase();
            if O1_MARKERS.iter().any(|m| lower.contains(m)) {
                out.insert(ident);
            }
        }
        if O1_ACCESSORS.iter().any(|a| code.contains(a)) {
            let trimmed = code.trim_start();
            if let Some(rest) = trimmed.strip_prefix("let ") {
                let rest = rest.strip_prefix("mut ").unwrap_or(rest);
                let ident: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                // Only direct bindings (`let d = t.demand(e);`) count —
                // a pattern or tuple would need real type inference.
                if !ident.is_empty() && rest[ident.len()..].trim_start().starts_with('=') {
                    out.insert(ident);
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------- v2

fn lint_v2(files: &[SourceFile], graph: &Graph) -> Vec<Finding> {
    // A node "has a validator call" if any of its direct callees' bare
    // names mention `validate`; the backward closure then marks every
    // fn from which such a call is reachable.
    let marks: Vec<bool> = graph
        .nodes
        .iter()
        .map(|n| n.calls.iter().any(|c| c.contains("validate")))
        .collect();
    let proven = graph.can_reach(&marks);

    let mut out = Vec::new();
    for (fi, src) in files.iter().enumerate() {
        if !src.rel_path.starts_with("crates/algs/src/") {
            continue;
        }
        for &i in graph.fns_of_file(fi) {
            let n = &graph.nodes[i];
            if n.item.in_test || !n.item.is_pub_plain || !n.item.ret.contains("Solution") {
                continue;
            }
            if !proven[i] {
                push(src, &mut out, Lint::V2, n.item.header_line, format!(
                    "pub fn `{}` returns a Solution but no validator call is reachable \
                     from it in the call graph; route the result through \
                     `validate`/`debug_validate` (directly or in a callee), or justify \
                     with lint:allow(v2)",
                    n.item.name
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------- b1

fn lint_b1(files: &[SourceFile], graph: &Graph, toks: &[Vec<Token>]) -> Vec<Finding> {
    // Which fns contain a checkpoint call directly?
    let marks: Vec<bool> = graph
        .nodes
        .iter()
        .map(|n| {
            let src = &files[n.file];
            (n.item.header_line..n.item.end_line.min(src.lines.len()))
                .any(|i| src.lines[i].code.contains(".checkpoint("))
        })
        .collect();
    let reaches = graph.can_reach(&marks);

    let mut out = Vec::new();
    for (fi, src) in files.iter().enumerate() {
        if !in_crates_src(&src.rel_path, &SOLVER_CRATES) {
            continue;
        }
        for &i in graph.fns_of_file(fi) {
            let n = &graph.nodes[i];
            if n.item.in_test || !n.item.name.starts_with("try_") {
                continue;
            }
            for loop_line in loop_headers(src, n.item.open_line, n.item.end_line) {
                if skip_fixed_trip_loop(&header_text(src, loop_line)) {
                    continue;
                }
                let Some((open, close)) = loop_body_span(src, loop_line) else {
                    continue;
                };
                let direct = (open..=close.min(src.lines.len().saturating_sub(1)))
                    .any(|j| src.lines[j].code.contains(".checkpoint("));
                let via_callee = call_names(&toks[fi], open, close + 1)
                    .iter()
                    .any(|name| graph.named(name).iter().any(|&k| reaches[k]));
                if !direct && !via_callee {
                    push(src, &mut out, Lint::B1, loop_line, format!(
                        "loop in fallible `{}` has no Budget::checkpoint in its body or \
                         callees; an unbudgeted loop cannot be preempted or metered — \
                         checkpoint each iteration, or justify with \
                         lint:allow(b1)",
                        n.item.name
                    ));
                }
            }
        }
    }
    out
}

/// 0-based lines inside `[open, end)` that start a `for`/`while`/`loop`.
fn loop_headers(src: &SourceFile, open: usize, end: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for idx in open..end.min(src.lines.len()) {
        let code = &src.lines[idx].code;
        if has_word(code, "for") || has_word(code, "while") || has_word(code, "loop") {
            out.push(idx);
        }
    }
    out
}

/// The loop header joined through its opening `{`: rustfmt breaks long
/// headers (`for (a, b) in\n    [(…)]\n{`), so the subject may start on
/// a later line than the keyword.
fn header_text(src: &SourceFile, loop_line: usize) -> String {
    let mut text = String::new();
    for l in src.lines.iter().skip(loop_line).take(8) {
        text.push_str(l.code.trim());
        text.push(' ');
        if l.code.contains('{') {
            break;
        }
    }
    text
}

/// Loops whose trip count is a literal (`for x in [a, b]`, `for i in
/// 0..4`) cannot scale with the instance and are skipped.
fn skip_fixed_trip_loop(code: &str) -> bool {
    let Some(in_pos) = code.find(" in ") else { return false };
    let subject = code[in_pos + 4..].trim_start();
    if subject.starts_with('[') {
        return true;
    }
    let head = subject.split('{').next().unwrap_or(subject).trim();
    if let Some((lo, hi)) = head.split_once("..") {
        let hi = hi.trim_start_matches('=').trim();
        let numeric = |s: &str| {
            !s.is_empty() && s.chars().all(|c| c.is_ascii_digit() || c == '_')
        };
        return numeric(lo.trim()) && numeric(hi);
    }
    false
}

/// The 0-based line span `[open, close]` of the loop body opened by the
/// header on `loop_line` (the first `{` at or after the keyword).
fn loop_body_span(src: &SourceFile, loop_line: usize) -> Option<(usize, usize)> {
    let mut open = None;
    'scan: for (j, l) in src.lines.iter().enumerate().skip(loop_line).take(16) {
        if l.code.contains('{') {
            open = Some(j);
            break 'scan;
        }
    }
    let open = open?;
    let mut depth = 0i64;
    let mut started = false;
    for (j, l) in src.lines.iter().enumerate().skip(open) {
        let from = if j == open {
            l.code.find('{').unwrap_or(0)
        } else {
            0
        };
        for c in l.code[from..].chars() {
            match c {
                '{' => {
                    depth += 1;
                    started = true;
                }
                '}' => {
                    depth -= 1;
                    if started && depth == 0 {
                        return Some((open, j));
                    }
                }
                _ => {}
            }
        }
    }
    Some((open, src.lines.len().saturating_sub(1)))
}

// ---------------------------------------------------------------- t2

/// Needles that increment a string-keyed telemetry slot. The quote is
/// part of the needle: dynamic keys (`tele.count(name, n)`) carry no
/// literal to check.
const T2_NEEDLES: [&str; 4] = [".count(\"", ".count_ops(\"", ".gauge_max(\"", ".observe(\""];

/// Documents that, together with the root `tests/*.rs` suite, form the
/// registry a counter name must appear in.
const T2_DOCS: [&str; 3] = ["DESIGN.md", "README.md", "EXPERIMENTS.md"];

/// Cross-reference every counter name incremented in the solver crates
/// against the root test suite and the exported docs.
pub fn lint_t2(root: &Path, files: &[SourceFile]) -> Vec<Finding> {
    let mut corpus = String::new();
    for doc in T2_DOCS {
        if let Ok(text) = std::fs::read_to_string(root.join(doc)) {
            corpus.push_str(&text);
        }
    }
    let tests_dir = root.join("tests");
    if let Ok(entries) = std::fs::read_dir(&tests_dir) {
        let mut paths: Vec<_> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .collect();
        paths.sort();
        for p in paths {
            if let Ok(text) = std::fs::read_to_string(&p) {
                corpus.push_str(&text);
            }
        }
    }

    let mut out = Vec::new();
    for src in files {
        if !n1_scope(&src.rel_path) {
            continue;
        }
        for (idx, line) in src.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for needle in T2_NEEDLES {
                let mut start = 0;
                while let Some(p) = line.code[start..].find(needle) {
                    let at = start + p;
                    start = at + needle.len();
                    // Which string literal on the line is this? The
                    // needle ends at its opening quote, so count the
                    // quotes before it: 2 per completed literal.
                    let quote_pos = at + needle.len() - 1;
                    let nth = line.code[..quote_pos].matches('"').count() / 2;
                    let Some(name) = line.strings.get(nth) else { continue };
                    if name.is_empty() || corpus.contains(name.as_str()) {
                        continue;
                    }
                    push(src, &mut out, Lint::T2, idx, format!(
                        "counter \"{name}\" is incremented here but never asserted in \
                         tests/ or mentioned in {}; dead or typo'd counters drift \
                         silently — assert it, document it, or justify with \
                         lint:allow(t2)",
                        T2_DOCS.join("/")
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(rel: &str, text: &str) -> SourceFile {
        SourceFile::parse(rel, text)
    }

    #[test]
    fn n1_flags_reachable_hash_iteration_only() {
        let text = "\
use std::collections::HashMap;
pub fn export(m: &HashMap<u32, u32>) -> String {
    walk(m)
}
fn walk(m: &HashMap<u32, u32>) -> String {
    let mut s = String::new();
    for (k, v) in m.iter() {
        s.push_str(&format2(*k, *v));
    }
    s
}
fn private_scratch(m: &HashMap<u32, u32>) -> usize {
    m.iter().count()
}
fn format2(k: u32, v: u32) -> u64 {
    u64::from(k + v)
}
";
        let files = vec![parse("crates/core/src/x.rs", text)];
        let f: Vec<Finding> = lint_semantic(&files)
            .into_iter()
            .filter(|f| f.lint == Lint::N1)
            .collect();
        // `walk` is reachable from `export` (returns String) — flagged.
        // `private_scratch` is reachable from nothing — clean.
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 7);
        assert!(f[0].message.contains("m.iter()"));
    }

    #[test]
    fn n1_for_loop_and_allow() {
        let text = "\
use std::collections::HashMap;
pub fn best(prev: HashMap<u64, u64>) -> SolveReport {
    let mut best = 0;
    // lint:allow(n1) — max is unique by construction, order-free
    for (k, _) in &prev {
        best = best.max(*k);
    }
    report(best)
}
";
        let files = vec![parse("crates/algs/src/x.rs", text)];
        assert!(lint_semantic(&files).iter().all(|f| f.lint != Lint::N1));
        // Without the allow the same site fires.
        let bare = text.replace(
            "    // lint:allow(n1) — max is unique by construction, order-free\n",
            "",
        );
        let files = vec![parse("crates/algs/src/x.rs", &bare)];
        let f: Vec<Finding> =
            lint_semantic(&files).into_iter().filter(|f| f.lint == Lint::N1).collect();
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn n1_sees_receivers_across_continuation_lines() {
        let text = "\
use std::collections::HashMap;
pub struct C {
    slots: HashMap<u64, u64>,
}
impl C {
    pub fn evict(&self) -> String {
        let victim = self
            .slots
            .iter()
            .min_by_key(|(_, v)| **v);
        format2(victim)
    }
}
";
        let files = vec![parse("crates/core/src/x.rs", text)];
        let f: Vec<Finding> =
            lint_semantic(&files).into_iter().filter(|f| f.lint == Lint::N1).collect();
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 9, "fires on the `.iter()` continuation line");
        assert!(f[0].message.contains("slots"));
    }

    #[test]
    fn n1_wall_clock_outside_timing_paths() {
        let text = "\
pub fn stamp() -> String {
    let t = std::time::Instant::now();
    format2(t)
}
pub fn with_timings_probe() -> u64 {
    let _ = std::time::Instant::now();
    0
}
";
        let files = vec![parse("crates/core/src/x.rs", text)];
        let f: Vec<Finding> =
            lint_semantic(&files).into_iter().filter(|f| f.lint == Lint::N1).collect();
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn o1_flags_unchecked_arithmetic_on_tracked_idents() {
        let text = "\
fn pack(cap: u64, w: u64) -> u64 {
    let demand = t.demand(e);
    let a = cap + w;
    let b = w * demand;
    let c = cap.checked_add(w);
    let d = n + 1;
    a + b
}
";
        let files = vec![parse("crates/knapsack/src/x.rs", text)];
        let f: Vec<Finding> =
            lint_semantic(&files).into_iter().filter(|f| f.lint == Lint::O1).collect();
        // `cap + w` (line 3) and `w * demand` (line 4); the checked_add
        // and the untracked `n + 1` stay clean.
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert_eq!(f[1].line, 4);
    }

    #[test]
    fn o1_ignores_deref_and_out_of_scope() {
        let text = "\
fn f(cap: &u64) -> u64 {
    *cap
}
fn g(cap: u64) -> u64 {
    &cap;
    cap
}
";
        let scoped = parse("crates/lp/src/x.rs", text);
        assert!(lint_semantic(&[scoped]).iter().all(|f| f.lint != Lint::O1));
        let text2 = "fn h(cap: u64, w: u64) -> u64 { cap + w }\n";
        let out_of_scope = parse("crates/gen/src/x.rs", text2);
        assert!(lint_semantic(&[out_of_scope]).iter().all(|f| f.lint != Lint::O1));
    }

    #[test]
    fn v2_proves_through_callees() {
        let text = "\
pub fn solve_direct(inst: &Instance) -> Solution {
    let sol = inner(inst);
    debug_assert!(sol.validate(inst).is_ok());
    sol
}
pub fn solve_via_helper(inst: &Instance) -> Solution {
    checked_inner(inst)
}
fn checked_inner(inst: &Instance) -> Solution {
    let sol = inner(inst);
    debug_assert!(sol.validate(inst).is_ok());
    sol
}
pub fn solve_unchecked(inst: &Instance) -> Solution {
    inner(inst)
}
fn inner(_inst: &Instance) -> Solution {
    Solution::empty()
}
";
        let files = vec![parse("crates/algs/src/x.rs", text)];
        let f: Vec<Finding> =
            lint_semantic(&files).into_iter().filter(|f| f.lint == Lint::V2).collect();
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("solve_unchecked"));
    }

    #[test]
    fn b1_checkpoint_in_body_or_callee() {
        let text = "\
pub fn try_direct(b: &Budget, n: usize) -> SapResult<u64> {
    let mut acc = 0;
    for i in 0..n {
        b.checkpoint(CheckpointClass::DpRow, 1)?;
        acc += step(i);
    }
    Ok(acc)
}
pub fn try_via_callee(b: &Budget, n: usize) -> SapResult<u64> {
    let mut acc = 0;
    for i in 0..n {
        acc += metered_step(b, i)?;
    }
    Ok(acc)
}
fn metered_step(b: &Budget, i: usize) -> SapResult<u64> {
    b.checkpoint(CheckpointClass::DpRow, 1)?;
    Ok(i as u64)
}
pub fn try_unmetered(n: usize) -> SapResult<u64> {
    let mut acc = 0;
    while acc < n {
        acc += 1;
    }
    Ok(acc as u64)
}
pub fn try_fixed(b: &Budget) -> SapResult<u64> {
    let mut acc = 0;
    for i in 0..4 {
        acc += i;
    }
    for arm in [1, 2] {
        acc += arm;
    }
    for (name, child) in
        [(1, b), (2, b)]
    {
        acc += name + split(child);
    }
    Ok(acc)
}
fn step(i: usize) -> u64 {
    i as u64
}
fn split(_b: &Budget) -> u64 {
    0
}
";
        let files = vec![parse("crates/algs/src/x.rs", text)];
        let f: Vec<Finding> =
            lint_semantic(&files).into_iter().filter(|f| f.lint == Lint::B1).collect();
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("try_unmetered"));
    }

    #[test]
    fn t2_checks_counter_names_against_the_corpus() {
        let dir = std::env::temp_dir().join(format!(
            "xtask-t2-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(dir.join("tests")).unwrap();
        std::fs::write(
            dir.join("tests/telemetry.rs"),
            "fn t() { assert_counter(\"dp.states\", 1); }\n",
        )
        .unwrap();
        std::fs::write(dir.join("DESIGN.md"), "documents the `strata` counter\n").unwrap();
        let text = "\
fn record(t: &Telemetry) {
    t.count(\"dp.states\", 1);
    t.count(\"strata\", 2);
    t.gauge_max(\"dp.sates\", 3);
    t.count(name, 4);
}
";
        let files = vec![parse("crates/algs/src/x.rs", text)];
        let f = lint_t2(&dir, &files);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("dp.sates"), "the typo'd gauge is the finding");
    }
}
