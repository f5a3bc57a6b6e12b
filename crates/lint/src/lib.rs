//! `ckpt-lint` — workspace determinism & safety lint.
//!
//! The simulation study is pinned by golden results that must stay
//! byte-identical at any executor worker count. Nothing in rustc or
//! clippy statically prevents the classic determinism killers —
//! hash-order iteration feeding result rows,
//! wall-clock reads inside sim paths, naked transcendentals bypassing
//! the `KernelTable` — so this crate does: a small comment/string-aware
//! Rust lexer plus per-rule token scanners, run as
//! `cargo run --release -p ckpt-lint` and wired into `scripts/check.sh`
//! as the fourth gate.
//!
//! Since the per-file scanners cannot see a helper one crate over
//! laundering nondeterminism into the hot path, the linter also builds a
//! workspace symbol/call-site index ([`index`]) and a call graph
//! ([`graph`]), and runs three workspace rules on top:
//! `transitive-nondeterminism` (taint reachability from the `[taint]`
//! roots), `stale-pragma` (every allow-entry must suppress something),
//! and `registry-exhaustive` (the `[registry]` enum stays fully
//! registered, [`registry`]).
//!
//! * Rules and their contracts live in [`rules`]; scoping and severity
//!   in the checked-in `lint.toml` ([`config`]).
//! * Deliberate exceptions carry `// lint: allow(rule)` line pragmas
//!   with a justification ([`context`]).
//! * Output is rustc-style `path:line:col` text or `--json`
//!   ([`diagnostics`]); any deny-level finding exits nonzero.
#![warn(missing_docs)]

pub mod config;
pub mod context;
pub mod diagnostics;
pub mod graph;
pub mod index;
pub mod lexer;
pub mod registry;
pub mod rules;
pub mod walk;

use config::{is_test_path, rule_applies_to, Config, Severity};
use context::FileCtx;
use diagnostics::{Finding, PragmaSite, Report};
use std::fs;
use std::io;
use std::path::Path;

/// Findings (post-filtering) plus the pragma-suppression count for one
/// source file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Surviving findings, sorted by (line, col, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by pragmas.
    pub suppressed: usize,
}

/// Run every per-file rule on one prepared context. Returns surviving
/// findings plus the `(pragma index, rule)` pairs that suppressed one —
/// the raw material for both suppression counting and `stale-pragma`.
fn lint_one_file(
    rel: &str,
    ctx: &FileCtx<'_>,
    config: &Config,
) -> (Vec<Finding>, Vec<(usize, String)>) {
    let mut findings = Vec::new();
    let mut used = Vec::new();
    for rule in rules::ALL_RULES {
        let rc = config.rule(rule);
        if rc.severity == Severity::Allow || !rule_applies_to(rc, rel) {
            continue;
        }
        if rc.skip_tests && is_test_path(rel) {
            continue;
        }
        for found in rules::scan(rule, ctx, rc) {
            if rc.skip_tests && ctx.in_test_region(found.line) {
                continue;
            }
            match ctx.suppressing_pragma(rule, found.line) {
                Some(pi) => used.push((pi, (*rule).to_string())),
                None => findings.push(Finding::new(
                    (*rule).to_string(),
                    rc.severity,
                    rel.to_string(),
                    found.line,
                    found.col,
                    found.message,
                    ctx.snippet(found.line),
                )),
            }
        }
    }
    (findings, used)
}

/// Lint one file's source under `config`. `rel_path` decides rule
/// scoping, so fixture tests can place a snippet anywhere in the
/// (virtual) workspace. Workspace rules (taint, stale-pragma, registry)
/// need the cross-file view and run only in [`lint_files`].
pub fn lint_source(rel_path: &str, source: &str, config: &Config) -> FileOutcome {
    let lexed = lexer::lex(source);
    let ctx = FileCtx::build(rel_path, source, &lexed);
    let (mut findings, used) = lint_one_file(rel_path, &ctx, config);
    findings.sort_by(|a, b| {
        (a.line, a.col, a.rule.as_str()).cmp(&(b.line, b.col, b.rule.as_str()))
    });
    FileOutcome { findings, suppressed: used.len() }
}

/// Render one taint chain into displayable step strings.
fn render_chain(chain: &[graph::ChainStep]) -> Vec<String> {
    chain
        .iter()
        .map(|s| {
            if s.call_site.is_empty() {
                format!("{} ({})", s.qualified, s.def_site)
            } else {
                format!("{} ({}) called at {}", s.qualified, s.def_site, s.call_site)
            }
        })
        .collect()
}

/// Lint a whole (virtual) workspace: every per-file rule on every file,
/// then the workspace passes — taint reachability, registry
/// exhaustiveness, stale-pragma. `files` are `(relative path, source)`
/// pairs; `golden` the `[registry]` golden JSON documents.
pub fn lint_files(files: &[(String, String)], golden: &[(String, String)], config: &Config) -> Report {
    let lexed: Vec<lexer::Lexed> = files.iter().map(|(_, src)| lexer::lex(src)).collect();
    let ctxs: Vec<FileCtx<'_>> = files
        .iter()
        .zip(&lexed)
        .map(|((rel, src), l)| FileCtx::build(rel, src, l))
        .collect();

    let mut report = Report { files_scanned: files.len(), ..Report::default() };
    for rule in rules::ALL_RULES {
        report.rule_counts.entry((*rule).to_string()).or_default();
    }
    // (pragma index, rule) pairs that suppressed something, per file.
    let mut used: Vec<Vec<(usize, String)>> = vec![Vec::new(); files.len()];

    // Per-file rules.
    for (fi, ((rel, _), ctx)) in files.iter().zip(&ctxs).enumerate() {
        let (findings, file_used) = lint_one_file(rel, ctx, config);
        for f in findings {
            report.push_finding(f);
        }
        for (pi, rule) in file_used {
            report.count_suppressed(&rule);
            used[fi].push((pi, rule));
        }
    }

    // Workspace taint pass.
    let taint_rc = config.rule("transitive-nondeterminism");
    if taint_rc.severity != Severity::Allow && !config.taint.roots.is_empty() {
        let refs: Vec<index::IndexedFile<'_>> = files
            .iter()
            .zip(&lexed)
            .zip(&ctxs)
            .map(|(((rel, _), l), ctx)| (rel.clone(), l, ctx.test_regions.clone()))
            .collect();
        let mut idx = index::Index::build(&refs);
        let g = graph::Graph::build(&mut idx);
        for tf in g.taint(&idx, &ctxs, &config.taint) {
            let rel = &files[tf.file].0;
            if !rule_applies_to(taint_rc, rel) || (taint_rc.skip_tests && is_test_path(rel)) {
                continue;
            }
            let ctx = &ctxs[tf.file];
            if taint_rc.skip_tests && ctx.in_test_region(tf.line) {
                continue;
            }
            match ctx.suppressing_pragma("transitive-nondeterminism", tf.line) {
                Some(pi) => {
                    report.count_suppressed("transitive-nondeterminism");
                    used[tf.file].push((pi, "transitive-nondeterminism".to_string()));
                }
                None => {
                    let mut f = Finding::new(
                        "transitive-nondeterminism".to_string(),
                        taint_rc.severity,
                        rel.clone(),
                        tf.line,
                        tf.col,
                        tf.message,
                        ctx.snippet(tf.line),
                    );
                    f.chain = render_chain(&tf.chain);
                    report.push_finding(f);
                }
            }
        }
        report.index_stats = Some(idx.stats);
    }

    // Registry exhaustiveness.
    let reg_rc = config.rule("registry-exhaustive");
    if reg_rc.severity != Severity::Allow && config.registry.enabled() {
        let refs: Vec<(String, &lexer::Lexed)> =
            files.iter().zip(&lexed).map(|((rel, _), l)| (rel.clone(), l)).collect();
        for rf in registry::check(&refs, golden, &config.registry) {
            if !rule_applies_to(reg_rc, &rf.path) {
                continue;
            }
            let fi = files.iter().position(|(rel, _)| rel == &rf.path);
            match fi.and_then(|i| {
                ctxs[i].suppressing_pragma("registry-exhaustive", rf.line).map(|pi| (i, pi))
            }) {
                Some((i, pi)) => {
                    report.count_suppressed("registry-exhaustive");
                    used[i].push((pi, "registry-exhaustive".to_string()));
                }
                None => {
                    let snippet =
                        fi.map(|i| ctxs[i].snippet(rf.line)).unwrap_or_default();
                    report.push_finding(Finding::new(
                        "registry-exhaustive".to_string(),
                        reg_rc.severity,
                        rf.path,
                        rf.line,
                        rf.col,
                        rf.message,
                        snippet,
                    ));
                }
            }
        }
    }

    // Stale pragmas: every allow-entry that suppressed nothing above.
    // `stale-pragma` entries themselves are exempt (they suppress this
    // very pass), as are unknown rule names (the `unknown-pragma` rule
    // already flags those) and rules disabled in the config (a disabled
    // rule cannot suppress anything — churn, not rot).
    let stale_rc = config.rule("stale-pragma");
    if stale_rc.severity != Severity::Allow {
        for (fi, ((rel, _), ctx)) in files.iter().zip(&ctxs).enumerate() {
            if !rule_applies_to(stale_rc, rel) || (stale_rc.skip_tests && is_test_path(rel)) {
                continue;
            }
            for (pi, pragma) in ctx.pragmas.iter().enumerate() {
                for rule in &pragma.rules {
                    if rule == "stale-pragma"
                        || !rules::ALL_RULES.contains(&rule.as_str())
                        || config.rule(rule).severity == Severity::Allow
                    {
                        continue;
                    }
                    if used[fi].iter().any(|(p, r)| *p == pi && r == rule) {
                        continue;
                    }
                    match ctx.suppressing_pragma("stale-pragma", pragma.line) {
                        Some(_) => report.count_suppressed("stale-pragma"),
                        None => report.push_finding(Finding::new(
                            "stale-pragma".to_string(),
                            stale_rc.severity,
                            rel.clone(),
                            pragma.line,
                            1,
                            format!(
                                "pragma allows `{rule}` but suppresses no finding here; \
                                 delete the entry to keep the audited-site inventory honest"
                            ),
                            ctx.snippet(pragma.line),
                        )),
                    }
                }
            }
        }
    }

    // Inventory: every pragma site, and the [taint] sanction lists.
    for ((rel, _), ctx) in files.iter().zip(&ctxs) {
        for pragma in &ctx.pragmas {
            report.pragma_sites.push(PragmaSite {
                path: rel.clone(),
                line: pragma.line,
                rules: pragma.rules.clone(),
            });
        }
    }
    report.sanctioned_fns = config.taint.sanctioned.clone();
    report.sanctioned_paths = config.taint.sanctioned_paths.clone();

    report.findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule.as_str())
            .cmp(&(b.path.as_str(), b.line, b.col, b.rule.as_str()))
    });
    report
}

/// Lint every `.rs` file of the workspace at `root` under `config`,
/// reading the `[registry]` golden files alongside.
pub fn run_workspace(root: &Path, config: &Config) -> io::Result<Report> {
    let mut files = Vec::new();
    for (rel, abs) in walk::workspace_files(root, config)? {
        files.push((rel, fs::read_to_string(&abs)?));
    }
    let mut golden = Vec::new();
    let golden_dir = root.join(&config.registry.golden_dir);
    if config.registry.enabled() && golden_dir.is_dir() {
        let mut entries: Vec<_> = fs::read_dir(&golden_dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        entries.sort();
        for p in entries {
            golden.push((p.file_name().unwrap_or_default().to_string_lossy().into_owned(),
                fs::read_to_string(&p)?));
        }
    }
    // Files were walked in sorted order and findings are sorted by the
    // driver, so the report is deterministic.
    Ok(lint_files(&files, &golden, config))
}

/// Load `root/lint.toml` when present, else the built-in defaults.
pub fn load_config(root: &Path) -> Result<Config, config::ConfigError> {
    let path = root.join("lint.toml");
    match fs::read_to_string(&path) {
        Ok(text) => Config::from_toml(&text),
        Err(_) => Ok(Config::default_config()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_applies_scope_tests_and_pragmas() {
        let cfg = Config::default_config();
        // float-eq skips test regions…
        let src = "fn live() { if x == 0.0 { } }\n#[cfg(test)]\nmod t { fn f() { if y == 0.0 { } } }\n";
        let out = lint_source("crates/dist/src/x.rs", src, &cfg);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].line, 1);
        // …and whole tests/ trees.
        assert!(lint_source("crates/dist/tests/x.rs", src, &cfg).findings.is_empty());
        // Pragmas count as suppressed, not found.
        let sup = "fn live() { if x == 0.0 { } } // lint: allow(float-eq)\n";
        let out = lint_source("crates/dist/src/x.rs", sup, &cfg);
        assert!(out.findings.is_empty());
        assert_eq!(out.suppressed, 1);
    }

    #[test]
    fn rule_scoping_follows_paths() {
        let cfg = Config::default_config();
        let src = "use std::time::Instant;\n";
        assert_eq!(lint_source("crates/sim/src/engine.rs", src, &cfg).findings.len(), 1);
        // exp's perf layer is outside the rule's paths.
        assert!(lint_source("crates/exp/src/perf.rs", src, &cfg).findings.is_empty());
    }

    #[test]
    fn severity_allow_disables_a_rule() {
        let mut cfg = Config::default_config();
        cfg.rules.get_mut("float-eq").map(|r| r.severity = Severity::Allow);
        let out = lint_source("crates/dist/src/x.rs", "fn f() { if x == 0.0 { } }\n", &cfg);
        assert!(out.findings.is_empty());
    }

    fn ws_config(roots: &[&str]) -> Config {
        let mut cfg = Config::default_config();
        cfg.taint.roots = roots.iter().map(|s| s.to_string()).collect();
        cfg.taint.sanctioned.clear();
        cfg.taint.sanctioned_paths.clear();
        cfg.registry.enum_spec.clear(); // disable registry unless a test opts in
        cfg
    }

    #[test]
    fn workspace_driver_denies_laundered_clock_with_chain() {
        let files = vec![
            (
                "crates/exp/src/exec.rs".to_string(),
                "use ckpt_helpers::stamp;\npub fn execute() { let t = stamp(); }\n".to_string(),
            ),
            (
                "crates/helpers/src/lib.rs".to_string(),
                "pub fn stamp() -> u64 { ckpt_obs::clock::now_micros() }\n".to_string(),
            ),
        ];
        let cfg = ws_config(&["ckpt_exp::exec::execute"]);
        let report = lint_files(&files, &[], &cfg);
        let taint: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == "transitive-nondeterminism")
            .collect();
        assert_eq!(taint.len(), 1, "{:?}", report.findings);
        assert_eq!(taint[0].path, "crates/helpers/src/lib.rs");
        assert_eq!(taint[0].chain.len(), 2);
        assert!(taint[0].chain[0].starts_with("ckpt_exp::exec::execute"));
        assert!(taint[0].chain[1].contains("called at crates/exp/src/exec.rs:2"));
        assert!(report.index_stats.is_some());
    }

    #[test]
    fn stale_pragma_fires_and_live_pragmas_do_not() {
        let files = vec![(
            "crates/dist/src/x.rs".to_string(),
            "fn live() { if x == 0.0 { } } // lint: allow(float-eq)\n// lint: allow(float-eq) — nothing underneath compares floats\nfn quiet() { let y = 1; }\n".to_string(),
        )];
        let cfg = ws_config(&[]);
        let report = lint_files(&files, &[], &cfg);
        let stale: Vec<_> =
            report.findings.iter().filter(|f| f.rule == "stale-pragma").collect();
        assert_eq!(stale.len(), 1, "{:?}", report.findings);
        assert_eq!(stale[0].line, 2);
        // The live pragma suppressed one float-eq finding.
        assert_eq!(report.rule_counts["float-eq"], (0, 1));
    }

    #[test]
    fn stale_pragma_respects_its_own_suppression_and_unknown_rules() {
        let files = vec![(
            "crates/dist/src/x.rs".to_string(),
            // Unknown rule: unknown-pragma's findings, not stale-pragma's.
            "// lint: allow(flaot-eq)\nlet a = 1;\n// lint: allow(float-eq, stale-pragma) — intentionally idle\nlet b = 2;\n".to_string(),
        )];
        let cfg = ws_config(&[]);
        let report = lint_files(&files, &[], &cfg);
        assert!(report.findings.iter().any(|f| f.rule == "unknown-pragma"));
        assert!(
            !report.findings.iter().any(|f| f.rule == "stale-pragma"),
            "{:?}",
            report.findings
        );
        assert!(report.rule_counts["stale-pragma"].1 >= 1, "idle entry counted as suppressed");
    }
}
