//! Fixture-based self-tests: every lint must fire on the known-bad
//! snippets and stay quiet on the known-clean ones.

use std::path::PathBuf;

use xtask::source::SourceFile;
use xtask::{manifest, rust_lints, semantic, Lint};

fn fixture(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn lints_of(findings: &[xtask::Finding]) -> Vec<Lint> {
    findings.iter().map(|f| f.lint).collect()
}

#[test]
fn bad_core_lib_fires_p1_and_d1() {
    let src = SourceFile::parse(
        "crates/core/src/lib.rs",
        &fixture("bad-workspace/crates/core/src/lib.rs"),
    );
    let findings = rust_lints::lint_source(&src);
    let lints = lints_of(&findings);
    assert_eq!(lints.iter().filter(|&&l| l == Lint::P1).count(), 3, "{findings:?}");
    assert_eq!(lints.iter().filter(|&&l| l == Lint::D1).count(), 2, "{findings:?}");
    assert!(
        findings.iter().any(|f| f.lint == Lint::P1 && f.message.contains("indexing-heavy")),
        "{findings:?}"
    );
    assert!(
        !findings.iter().any(|f| f.line > 21),
        "nothing may fire inside the #[cfg(test)] module: {findings:?}"
    );
}

#[test]
fn bad_classify_fires_f1() {
    let src = SourceFile::parse(
        "crates/core/src/classify.rs",
        &fixture("bad-workspace/crates/core/src/classify.rs"),
    );
    let findings = rust_lints::lint_source(&src);
    assert_eq!(lints_of(&findings), [Lint::F1, Lint::F1], "{findings:?}");
}

#[test]
fn bad_algs_fires_v1_and_allow_hygiene() {
    let src = SourceFile::parse(
        "crates/algs/src/lib.rs",
        &fixture("bad-workspace/crates/algs/src/lib.rs"),
    );
    let findings = rust_lints::lint_source(&src);
    let v1: Vec<_> = findings.iter().filter(|f| f.lint == Lint::V1).collect();
    assert_eq!(v1.len(), 1, "{findings:?}");
    assert!(v1[0].message.contains("solve_unchecked"));
    let allow: Vec<_> = findings.iter().filter(|f| f.lint == Lint::Allow).collect();
    assert_eq!(allow.len(), 2, "{findings:?}");
    assert!(allow.iter().any(|f| f.message.contains("justification")));
    assert!(allow.iter().any(|f| f.message.contains("unknown lint")));
    assert!(
        !findings.iter().any(|f| f.lint == Lint::P1),
        "the unjustified allow converts the p1 finding: {findings:?}"
    );
}

#[test]
fn bad_rectpack_fires_a1() {
    let src = SourceFile::parse(
        "crates/rectpack/src/hotpath.rs",
        &fixture("bad-workspace/crates/rectpack/src/hotpath.rs"),
    );
    let findings = rust_lints::lint_source(&src);
    let a1: Vec<_> = findings.iter().filter(|f| f.lint == Lint::A1).collect();
    assert_eq!(a1.len(), 3, "{findings:?}");
    assert!(a1.iter().any(|f| f.message.contains("parent_cons.to_vec()")));
    assert!(a1.iter().any(|f| f.message.contains("floor_cons.clone()")));
    assert!(
        findings.iter().all(|f| f.lint != Lint::Allow),
        "the justified allow must not be reported: {findings:?}"
    );
    // The same text outside crates/rectpack/src/ is out of a1's scope.
    let other = SourceFile::parse(
        "crates/gen/src/hotpath.rs",
        &fixture("bad-workspace/crates/rectpack/src/hotpath.rs"),
    );
    assert!(rust_lints::lint_source(&other).iter().all(|f| f.lint != Lint::A1));
}

#[test]
fn bad_manifest_fires_h1() {
    let findings = manifest::lint_manifest(
        "crates/core/Cargo.toml",
        &fixture("bad-workspace/crates/core/Cargo.toml"),
    );
    assert_eq!(lints_of(&findings), [Lint::H1, Lint::H1], "{findings:?}");
    assert!(findings[0].message.contains("rand"));
    assert!(findings[1].message.contains("rayon"));
}

#[test]
fn bad_semantic_fires_n1_o1_v2_b1() {
    let text = fixture("bad-workspace/crates/algs/src/semantic.rs");
    let files = vec![SourceFile::parse("crates/algs/src/semantic.rs", &text)];
    let findings = semantic::lint_semantic(&files);
    let lints = lints_of(&findings);
    for lint in [Lint::N1, Lint::O1, Lint::V2, Lint::B1] {
        assert!(lints.contains(&lint), "missing {}: {findings:?}", lint.name());
    }
    assert!(
        findings.iter().any(|f| f.lint == Lint::N1 && f.message.contains("seen.iter()")),
        "{findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.lint == Lint::O1 && f.message.contains("cap + weight")),
        "{findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.lint == Lint::V2 && f.message.contains("solve_unvalidated")),
        "{findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.lint == Lint::B1 && f.message.contains("try_scan")),
        "{findings:?}"
    );
    // The same text outside the solver crates is out of scope.
    let other = vec![SourceFile::parse("crates/gen/src/semantic.rs", &text)];
    assert!(semantic::lint_semantic(&other).is_empty());
}

#[test]
fn bad_semantic_fires_t2_without_a_registry() {
    // The bad workspace ships no docs and no root tests, so the typo'd
    // counter name cannot be registered anywhere.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/bad-workspace");
    let text = fixture("bad-workspace/crates/algs/src/semantic.rs");
    let files = vec![SourceFile::parse("crates/algs/src/semantic.rs", &text)];
    let findings = semantic::lint_t2(&root, &files);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings[0].message.contains("typo.counter"), "{findings:?}");
    // The ops-plane needle (`.count_ops("…")`) is covered too: an
    // unregistered obs.* name must fail the lint like any other.
    assert!(findings[1].message.contains("obs.typo.ops"), "{findings:?}");
}

#[test]
fn bad_semantic_reports_the_stale_allow() {
    let text = fixture("bad-workspace/crates/algs/src/semantic.rs");
    let src = SourceFile::parse("crates/algs/src/semantic.rs", &text);
    // Run the lints first so every *used* directive is marked.
    let mut findings = rust_lints::lint_source(&src);
    findings.extend(semantic::lint_semantic(std::slice::from_ref(&src)));
    let stale = src.stale_allow_findings();
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert!(stale[0].message.contains("stale lint:allow(f1)"), "{stale:?}");
}

#[test]
fn clean_semantic_passes() {
    let text = fixture("clean/semantic.rs");
    let files = vec![SourceFile::parse("crates/algs/src/semantic.rs", &text)];
    let findings = semantic::lint_semantic(&files);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn clean_snippet_passes_every_scope() {
    let text = fixture("clean/snippet.rs");
    for rel in ["crates/algs/src/snippet.rs", "crates/lp/src/snippet.rs"] {
        let findings = rust_lints::lint_source(&SourceFile::parse(rel, &text));
        assert!(findings.is_empty(), "{rel}: {findings:?}");
    }
}

#[test]
fn clean_manifest_passes() {
    let findings = manifest::lint_manifest("Cargo.toml", &fixture("clean/Cargo.toml"));
    assert!(findings.is_empty(), "{findings:?}");
}
