//! The rule scanners.
//!
//! Each rule protects one concrete invariant of the golden-result
//! bit-identity contract (byte-identical study output at any executor
//! worker count) or of the workspace's safety discipline. Scanners are
//! lexical — they work on the token stream of one file, never across
//! files — so each rule documents exactly what it can and cannot see.

use crate::config::{RuleConfig, Severity};
use crate::context::FileCtx;
use crate::lexer::{matching_brace, TokenKind};

/// One raw finding, before path/test/pragma filtering.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable defect statement.
    pub message: String,
}

/// Every registered rule, in reporting order. The last three are
/// workspace rules: they run on the cross-file index/graph in
/// [`crate::lint_files`], not in the per-file [`scan`] dispatcher.
pub const ALL_RULES: &[&str] = &[
    "nondeterministic-iteration",
    "unsafe-needs-safety-comment",
    "wall-clock-in-sim",
    "naked-transcendental-in-hot-path",
    "float-eq",
    "panicking-index-in-kernel",
    "shared-mutable-in-exec",
    "todo-fixme-gate",
    "unknown-pragma",
    "transitive-nondeterminism",
    "stale-pragma",
    "registry-exhaustive",
];

/// The subset of [`ALL_RULES`] that runs on the workspace index/graph
/// instead of a single file's token stream.
pub const WORKSPACE_RULES: &[&str] =
    &["transitive-nondeterminism", "stale-pragma", "registry-exhaustive"];

/// Baked-in default scoping per rule; `lint.toml` overrides.
pub fn default_rule_config(rule: &str) -> RuleConfig {
    let mut rc = RuleConfig::default();
    match rule {
        "nondeterministic-iteration" => {
            // Crates whose state feeds RunStats / reduce rows.
            rc.paths = vec![
                "crates/sim/src".into(),
                "crates/policies/src".into(),
                "crates/exp/src".into(),
                "crates/platform/src".into(),
                "crates/traces/src".into(),
                "crates/core/src".into(),
                "src".into(),
            ];
            rc.skip_tests = true;
        }
        "wall-clock-in-sim" => {
            rc.paths = vec![
                "crates/sim/src".into(),
                "crates/policies/src".into(),
                "crates/dist/src".into(),
                "crates/obs/src".into(),
                // The study checkpointer: its interval trigger reads the
                // sanctioned obs clock through one pragma'd site; any
                // other clock read there is a determinism bug.
                "crates/exp/src/checkpoint.rs".into(),
            ];
            // The observability crate's single sanctioned clock site.
            rc.allow_paths = vec!["crates/obs/src/clock.rs".into()];
        }
        "naked-transcendental-in-hot-path" => {
            rc.paths = vec![
                "crates/policies/src/dp_next_failure.rs".into(),
                "crates/policies/src/dp_makespan.rs".into(),
                "crates/math/src/simd.rs".into(),
                "crates/dist/src/kernel.rs".into(),
            ];
            rc.skip_tests = true;
        }
        "float-eq" => {
            rc.skip_tests = true;
        }
        "panicking-index-in-kernel" => {
            rc.paths = vec!["crates/policies/src/dp_next_failure.rs".into()];
            rc.functions = vec!["solve_with_rows".into(), "compute_row".into()];
        }
        "shared-mutable-in-exec" => {
            // The executor layer: every cross-worker mutation must flow
            // through the claim cursor + task-ID-ordered commit.
            rc.paths = vec![
                "crates/exp/src/exec.rs".into(),
                "crates/exp/src/steal.rs".into(),
            ];
            rc.skip_tests = true;
        }
        "transitive-nondeterminism" => {
            // Scoping is by sink site; the [taint] section owns roots and
            // sanctioned sinks. Test fns never enter the index.
            rc.skip_tests = true;
        }
        _ => {}
    }
    debug_assert!(ALL_RULES.contains(&rule), "unregistered rule `{rule}`");
    rc
}

/// One-line contract statement per rule (for `--list-rules` and docs).
pub fn rule_summary(rule: &str) -> &'static str {
    match rule {
        "nondeterministic-iteration" => {
            "iterating a HashMap/HashSet yields hash-order (seeded per process); \
             result-feeding crates must use BTreeMap or sort explicitly"
        }
        "unsafe-needs-safety-comment" => {
            "every `unsafe` block/fn/impl must carry a `// SAFETY:` audit comment \
             within the preceding 3 lines"
        }
        "wall-clock-in-sim" => {
            "`Instant`/`SystemTime` in simulation crates — and `now_micros` calls \
             outside crates/obs — leak wall-clock into reproducible paths; timing \
             belongs in ckpt-exp's perf layer, clock reads in ckpt-obs's clock"
        }
        "naked-transcendental-in-hot-path" => {
            "`powf`/`exp`/`ln` in the DP decision loops bypass the KernelTable \
             fast path; route through tabulated kernels or pragma the audited site"
        }
        "float-eq" => {
            "`==`/`!=` against a float constant is an exact-bits assumption; \
             pragma deliberate sentinel checks, otherwise compare with a tolerance"
        }
        "panicking-index-in-kernel" => {
            "audited kernel functions use panicking `[]` indexing; each function \
             needs a pragma re-affirming the bounds audit after any edit"
        }
        "shared-mutable-in-exec" => {
            "locks/atomics/interior-mutability cells in the executor layer \
             outside the sanctioned claim-cursor + ordered-commit path are new \
             coordination channels; audit and pragma each site"
        }
        "todo-fixme-gate" => "TODO/FIXME/XXX/HACK markers must not land on main",
        "unknown-pragma" => "a `// lint: allow(...)` pragma names an unregistered rule",
        "transitive-nondeterminism" => {
            "no call path from a [taint] determinism root (in-memory execute, \
             wave drain, sim hot loop, checkpoint writer) may reach an unsanctioned \
             nondeterminism sink (wall-clock read, entropy RNG, hash-order \
             iteration) — the full chain is reported"
        }
        "stale-pragma" => {
            "a `// lint: allow(...)` entry that suppresses no finding is dead \
             audit trail; delete it so the sanctioned-site inventory stays honest"
        }
        "registry-exhaustive" => {
            "every [registry] enum variant must carry a label-table arm and \
             (unless listed internal) appear in the builder/parser fns and in a \
             golden result row — new policies cannot half-register"
        }
        _ => "unregistered rule",
    }
}

/// Run one rule's scanner over a file.
pub fn scan(rule: &str, ctx: &FileCtx<'_>, rc: &RuleConfig) -> Vec<RawFinding> {
    match rule {
        "nondeterministic-iteration" => nondeterministic_iteration(ctx),
        "unsafe-needs-safety-comment" => unsafe_needs_safety_comment(ctx),
        "wall-clock-in-sim" => wall_clock_in_sim(ctx),
        "naked-transcendental-in-hot-path" => naked_transcendental(ctx),
        "float-eq" => float_eq(ctx),
        "panicking-index-in-kernel" => panicking_index_in_kernel(ctx, rc),
        "shared-mutable-in-exec" => shared_mutable_in_exec(ctx),
        "todo-fixme-gate" => todo_fixme_gate(ctx),
        "unknown-pragma" => unknown_pragma(ctx),
        _ => Vec::new(),
    }
}

/// Severity used when a config file is absent (all rules deny).
pub const DEFAULT_SEVERITY: Severity = Severity::Deny;

fn raw(line: u32, col: u32, message: String) -> RawFinding {
    RawFinding { line, col, message }
}

fn ident_at(ctx: &FileCtx<'_>, i: usize, text: &str) -> bool {
    ctx.tokens.get(i).is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

fn punct_at(ctx: &FileCtx<'_>, i: usize, text: &str) -> bool {
    ctx.tokens.get(i).is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

// ---------------------------------------------------------------- rule 1

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Names bound to HashMap/HashSet in this file (let bindings with type
/// or `::new()` initialiser, struct fields, fn params — including
/// wrapped forms like `Mutex<HashMap<…>>`).
fn hash_bound_names(ctx: &FileCtx<'_>) -> Vec<String> {
    let t = ctx.tokens;
    let mut names = Vec::new();
    for i in 0..t.len() {
        if !(t[i].kind == TokenKind::Ident && HASH_TYPES.contains(&t[i].text.as_str())) {
            continue;
        }
        // Walk left: over path qualifiers, wrapper generics, and
        // reference/mut sigils, to the `:` or `=` that names the binding.
        let mut j = i;
        let name = loop {
            while j >= 2 && punct_at(ctx, j - 1, "::") && t[j - 2].kind == TokenKind::Ident {
                j -= 2;
            }
            while j >= 1
                && (punct_at(ctx, j - 1, "&")
                    || ident_at(ctx, j - 1, "mut")
                    || ident_at(ctx, j - 1, "dyn")
                    || t[j - 1].kind == TokenKind::Lifetime)
            {
                j -= 1;
            }
            if j < 2 {
                break None;
            }
            if punct_at(ctx, j - 1, "<") && t[j - 2].kind == TokenKind::Ident {
                // Inside a wrapper generic (`Mutex<HashMap<…>>`): restart
                // the walk from the wrapper type.
                j -= 2;
                continue;
            }
            if (punct_at(ctx, j - 1, ":") || punct_at(ctx, j - 1, "="))
                && t[j - 2].kind == TokenKind::Ident
            {
                break Some(t[j - 2].text.clone());
            }
            break None;
        };
        if let Some(n) = name {
            if !names.contains(&n) {
                names.push(n);
            }
        }
    }
    names
}

/// Iterating a hash container: hash order differs between processes
/// (`RandomState` is seeded) and so between any two study runs.
pub(crate) fn nondeterministic_iteration(ctx: &FileCtx<'_>) -> Vec<RawFinding> {
    let t = ctx.tokens;
    let names = hash_bound_names(ctx);
    if names.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..t.len() {
        if t[i].kind != TokenKind::Ident {
            continue;
        }
        // Direct iteration methods: `name.iter()`, `name.drain()`, ….
        if names.iter().any(|n| n == &t[i].text)
            && punct_at(ctx, i + 1, ".")
            && t.get(i + 2).is_some_and(|m| {
                m.kind == TokenKind::Ident && ITER_METHODS.contains(&m.text.as_str())
            })
            && (punct_at(ctx, i + 3, "(") || punct_at(ctx, i + 3, "::"))
        {
            let m = &t[i + 2];
            out.push(raw(
                m.line,
                m.col,
                format!(
                    "`{}.{}()` iterates a hash container in seeded hash order; \
                     use BTreeMap/BTreeSet or collect-and-sort before feeding results",
                    t[i].text, m.text
                ),
            ));
        }
        // `for x in [&mut] name {`.
        if ident_at(ctx, i, "for") {
            let mut j = i + 1;
            let mut depth = 0i64;
            while j < t.len() && j < i + 40 {
                match t[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "in" if depth == 0 && t[j].kind == TokenKind::Ident => break,
                    "{" | ";" => {
                        j = t.len();
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            let mut k = j + 1;
            while k < t.len() && (punct_at(ctx, k, "&") || ident_at(ctx, k, "mut")) {
                k += 1;
            }
            if k < t.len()
                && t[k].kind == TokenKind::Ident
                && names.iter().any(|n| n == &t[k].text)
                && punct_at(ctx, k + 1, "{")
            {
                out.push(raw(
                    t[k].line,
                    t[k].col,
                    format!(
                        "`for … in {}` iterates a hash container in seeded hash order; \
                         use BTreeMap/BTreeSet or sort keys first",
                        t[k].text
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------- rule 2

/// `unsafe` without a `// SAFETY:` comment in the 3 lines above it (or
/// on the same line).
fn unsafe_needs_safety_comment(ctx: &FileCtx<'_>) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for tok in ctx.tokens.iter().filter(|t| t.kind == TokenKind::Ident && t.text == "unsafe") {
        let line = tok.line;
        let audited = ctx.comments.iter().any(|c| {
            c.start_line <= line
                && c.end_line + 3 >= line
                && (c.text.contains("SAFETY:") || c.text.contains("Safety:"))
        });
        if !audited {
            out.push(raw(
                line,
                tok.col,
                "`unsafe` without a `// SAFETY:` comment within the preceding 3 lines"
                    .to_string(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------- rule 3

/// Wall-clock types anywhere in the simulation crates. Even an unused
/// import is flagged: timing belongs in ckpt-exp's perf layer, which
/// wraps the deterministic pipeline from outside.
///
/// Outside `crates/obs/` the rule also flags calls of the sanctioned
/// clock itself (`now_micros`): consumers like the study checkpointer's
/// interval trigger are in scope precisely so every such call site is
/// either pragma'd with a justification or a finding — the clock may
/// gate *when* durable state is written, never *what* is written.
fn wall_clock_in_sim(ctx: &FileCtx<'_>) -> Vec<RawFinding> {
    let in_obs = ctx.path.starts_with("crates/obs/");
    ctx.tokens
        .iter()
        .filter(|t| {
            t.kind == TokenKind::Ident
                && (t.text == "Instant"
                    || t.text == "SystemTime"
                    || (!in_obs && t.text == "now_micros"))
        })
        .map(|t| {
            let message = if t.text == "now_micros" {
                "`now_micros` outside crates/obs: the sanctioned clock may only \
                 gate checkpoint timing through a pragma'd site, never feed values \
                 into reproducible paths"
                    .to_string()
            } else {
                format!(
                    "`{}` in a simulation crate: wall-clock reads cannot appear in \
                     reproducible sim paths (move timing to ckpt-exp's perf layer)",
                    t.text
                )
            };
            raw(t.line, t.col, message)
        })
        .collect()
}

// ---------------------------------------------------------------- rule 4

const TRANSCENDENTALS: &[&str] =
    &["powf", "exp", "exp2", "exp_m1", "ln", "ln_1p", "log", "log2", "log10"];

/// Naked transcendental method calls in the DP hot-path files. The
/// KernelTable exists precisely so per-grid-point `powf`/`exp` never
/// runs in a decision loop; audited log-domain conversions carry a
/// pragma.
fn naked_transcendental(ctx: &FileCtx<'_>) -> Vec<RawFinding> {
    let t = ctx.tokens;
    let mut out = Vec::new();
    for (i, tok) in t.iter().enumerate().skip(1) {
        if punct_at(ctx, i - 1, ".")
            && tok.kind == TokenKind::Ident
            && TRANSCENDENTALS.contains(&tok.text.as_str())
            && punct_at(ctx, i + 1, "(")
        {
            out.push(raw(
                tok.line,
                tok.col,
                format!(
                    "naked `.{}()` in a DP hot-path file; route through the \
                     KernelTable-backed helpers (or pragma an audited log-domain site)",
                    tok.text
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------- rule 5

/// `==`/`!=` with a float literal or `f64::CONST` operand. Identifier-
/// vs-identifier float compares are invisible to a lexical pass; the
/// literal form is where every workspace sentinel check lives.
fn float_eq(ctx: &FileCtx<'_>) -> Vec<RawFinding> {
    let t = ctx.tokens;
    let mut out = Vec::new();
    for i in 0..t.len() {
        if !(t[i].kind == TokenKind::Punct && (t[i].text == "==" || t[i].text == "!=")) {
            continue;
        }
        let prev_float = i >= 1 && t[i - 1].kind == TokenKind::Float;
        let next_float = t.get(i + 1).is_some_and(|n| n.kind == TokenKind::Float)
            || (t.get(i + 1).is_some_and(|n| n.kind == TokenKind::Punct && n.text == "-")
                && t.get(i + 2).is_some_and(|n| n.kind == TokenKind::Float));
        let next_f64_const = ident_at(ctx, i + 1, "f64") && punct_at(ctx, i + 2, "::");
        let prev_f64_const = i >= 3
            && t[i - 1].kind == TokenKind::Ident
            && punct_at(ctx, i - 2, "::")
            && ident_at(ctx, i - 3, "f64");
        if prev_float || next_float || next_f64_const || prev_f64_const {
            out.push(raw(
                t[i].line,
                t[i].col,
                format!(
                    "`{}` against a float constant assumes exact bits; compare with a \
                     tolerance, or pragma a deliberate sentinel check",
                    t[i].text
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------- rule 6

/// One finding per audited kernel function that contains panicking `[]`
/// index/slice expressions. The pragma above the `fn` re-affirms the
/// bounds audit; any edit that drops the pragma re-raises the finding.
fn panicking_index_in_kernel(ctx: &FileCtx<'_>, rc: &RuleConfig) -> Vec<RawFinding> {
    let t = ctx.tokens;
    let mut out = Vec::new();
    for i in 0..t.len().saturating_sub(1) {
        if !(ident_at(ctx, i, "fn")
            && t[i + 1].kind == TokenKind::Ident
            && rc.functions.iter().any(|f| f == &t[i + 1].text))
        {
            continue;
        }
        let Some(open) = (i + 2..t.len()).find(|&k| t[k].text == "{") else { continue };
        let Some(close) = matching_brace(t, open) else { continue };
        let mut sites = 0usize;
        let mut last_line = 0u32;
        for k in open + 1..close {
            let postfix = punct_at(ctx, k, "[")
                && (t[k - 1].kind == TokenKind::Ident
                    || t[k - 1].text == "]"
                    || t[k - 1].text == ")");
            if postfix && t[k].line != last_line {
                sites += 1;
                last_line = t[k].line;
            }
        }
        if sites > 0 {
            out.push(raw(
                t[i + 1].line,
                t[i + 1].col,
                format!(
                    "audited kernel fn `{}` holds {sites} line(s) of panicking `[]` \
                     indexing; re-audit bounds and pragma the fn to acknowledge",
                    t[i + 1].text
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------- rule 7

const MARKERS: &[&str] = &["TODO", "FIXME", "XXX", "HACK"];

/// Work markers in comments: fine on a branch, not on main — a marker
/// in a determinism-critical path is an unfinished audit.
fn todo_fixme_gate(ctx: &FileCtx<'_>) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for c in ctx.comments {
        for marker in MARKERS {
            let mut search = c.text.as_str();
            let mut found = false;
            while let Some(pos) = search.find(marker) {
                let before_ok = pos == 0
                    || !search.as_bytes()[pos - 1].is_ascii_alphanumeric();
                let after = pos + marker.len();
                let after_ok = after >= search.len()
                    || !search.as_bytes()[after].is_ascii_alphanumeric();
                if before_ok && after_ok {
                    found = true;
                    break;
                }
                search = &search[after..];
            }
            if found {
                out.push(raw(
                    c.start_line,
                    1,
                    format!("`{marker}` marker in a committed comment"),
                ));
                break;
            }
        }
    }
    out
}

// ---------------------------------------------------------------- rule 8

/// Pragmas naming unregistered rules: a typo here would silently keep a
/// real finding alive (or suppress nothing), so it is its own finding.
fn unknown_pragma(ctx: &FileCtx<'_>) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for p in &ctx.pragmas {
        for r in &p.rules {
            if !ALL_RULES.contains(&r.as_str()) {
                out.push(raw(
                    p.line,
                    1,
                    format!("pragma allows unknown rule `{r}` (registered rules: see --list-rules)"),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------- rule 9

/// Interior-mutability and synchronization types that create a shared
/// mutable coordination channel between workers. `Atomic*` is matched
/// by prefix below so new widths (`AtomicU8`, `AtomicI64`, …) don't
/// slip through.
const SHARED_MUTABLE_TYPES: &[&str] = &[
    "Mutex", "RwLock", "Condvar", "RefCell", "Cell", "UnsafeCell", "OnceCell", "OnceLock",
    "LazyLock",
];

/// The executor's bit-identity contract rests on *all* cross-worker
/// mutation flowing through the wave's claim cursor and the
/// task-ID-ordered commit. Any other lock, atomic, `static mut`, or
/// interior-mutability cell in `exec.rs`/`steal.rs` is either a new
/// coordination channel (audit it, then pragma the site) or a latent
/// scheduling-dependent-results bug. `use` statements are skipped —
/// the finding anchors where the state is *created*, not imported.
fn shared_mutable_in_exec(ctx: &FileCtx<'_>) -> Vec<RawFinding> {
    let t = ctx.tokens;
    let mut out = Vec::new();
    let mut in_use = false;
    for (i, tok) in t.iter().enumerate() {
        if tok.kind == TokenKind::Ident && tok.text == "use" {
            in_use = true;
        }
        if in_use {
            if punct_at(ctx, i, ";") {
                in_use = false;
            }
            continue;
        }
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let name = tok.text.as_str();
        if SHARED_MUTABLE_TYPES.contains(&name)
            || (name.len() > "Atomic".len() && name.starts_with("Atomic"))
        {
            out.push(raw(
                tok.line,
                tok.col,
                format!(
                    "`{name}` is shared mutable state in the executor layer; route \
                     coordination through the wave's claim cursor and ordered commit, \
                     or audit the site and pragma it"
                ),
            ));
        } else if name == "static" && ident_at(ctx, i + 1, "mut") {
            out.push(raw(
                tok.line,
                tok.col,
                "`static mut` is unsynchronized shared state in the executor layer; \
                 use the wave's claim cursor, or audit the site and pragma it"
                    .into(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::context::FileCtx;
    use crate::lexer::lex;

    fn scan_src(rule: &str, src: &str) -> Vec<RawFinding> {
        let lexed = lex(src);
        let ctx = FileCtx::build("x.rs", src, &lexed);
        let cfg = Config::default_config();
        scan(rule, &ctx, cfg.rule(rule))
    }

    #[test]
    fn hash_iteration_flagged_keyed_lookup_not() {
        let src = "let mut m: HashMap<u32, f64> = HashMap::new();\nfor (k, v) in m.iter() { }\n";
        assert_eq!(scan_src("nondeterministic-iteration", src).len(), 1);
        let keyed = "let mut m: HashMap<u32, f64> = HashMap::new();\nm.insert(1, 2.0);\nlet x = m.get(&1);\n";
        assert!(scan_src("nondeterministic-iteration", keyed).is_empty());
        let wrapped = "struct S { map: Mutex<HashMap<K, V>> }\nfn f(s: &S) { for k in map { } }\n";
        assert_eq!(scan_src("nondeterministic-iteration", wrapped).len(), 1);
    }

    #[test]
    fn unsafe_without_safety_comment() {
        assert_eq!(scan_src("unsafe-needs-safety-comment", "let x = unsafe { p.read() };").len(), 1);
        let ok = "// SAFETY: p is valid for reads, checked above.\nlet x = unsafe { p.read() };";
        assert!(scan_src("unsafe-needs-safety-comment", ok).is_empty());
    }

    #[test]
    fn float_eq_literal_and_const_forms() {
        assert_eq!(scan_src("float-eq", "if x == 0.0 { }").len(), 1);
        assert_eq!(scan_src("float-eq", "if ls == f64::NEG_INFINITY { }").len(), 1);
        assert_eq!(scan_src("float-eq", "if 1e-9 != y { }").len(), 1);
        assert!(scan_src("float-eq", "if a == b { }").is_empty());
        assert!(scan_src("float-eq", "if n == 0 { }").is_empty());
    }

    #[test]
    fn kernel_index_one_finding_per_fn() {
        let src = "fn solve_with_rows() {\n    let a = tri[i];\n    let b = egrid[j];\n}\nfn other() { let c = v[0]; }\n";
        let hits = scan_src("panicking-index-in-kernel", src);
        assert_eq!(hits.len(), 1, "only configured fns audited");
        assert!(hits[0].message.contains("2 line(s)"));
    }

    #[test]
    fn shared_mutable_state_flagged_imports_not() {
        // Creation sites fire: statics, locals, struct fields, prefix-matched atomics.
        assert_eq!(
            scan_src("shared-mutable-in-exec", "static N: AtomicUsize = AtomicUsize::new(0);")
                .len(),
            2
        );
        assert_eq!(
            scan_src("shared-mutable-in-exec", "let state = parking_lot::Mutex::new(ws);").len(),
            1
        );
        assert_eq!(scan_src("shared-mutable-in-exec", "struct S { hits: AtomicU8 }").len(), 1);
        assert_eq!(scan_src("shared-mutable-in-exec", "static mut SCRATCH: [f64; 8];").len(), 1);
        // Imports are not creation sites; plain code is clean; the bare
        // ident `Atomic` (no width suffix) is not a sync type.
        assert!(scan_src(
            "shared-mutable-in-exec",
            "use std::sync::atomic::{AtomicUsize, Ordering};\nuse parking_lot::Mutex;\n"
        )
        .is_empty());
        assert!(scan_src("shared-mutable-in-exec", "let x = buckets[w].push(out);").is_empty());
        assert!(scan_src("shared-mutable-in-exec", "let a = Atomic::default();").is_empty());
    }

    #[test]
    fn todo_marker_word_boundaries() {
        assert_eq!(scan_src("todo-fixme-gate", "// TODO: finish\nlet x = 1;").len(), 1);
        assert!(scan_src("todo-fixme-gate", "// method TODOS are fine as a word? no: TODOS\n").is_empty());
        assert!(scan_src("todo-fixme-gate", "// hackathon notes\n").is_empty());
    }

    #[test]
    fn unknown_pragma_rule_flagged() {
        assert_eq!(scan_src("unknown-pragma", "// lint: allow(flaot-eq)\nlet x = 1;").len(), 1);
        assert!(scan_src("unknown-pragma", "// lint: allow(float-eq)\nlet x = 1;").is_empty());
    }

    #[test]
    fn wall_clock_and_transcendental_tokens() {
        assert_eq!(scan_src("wall-clock-in-sim", "use std::time::Instant;").len(), 1);
        assert_eq!(scan_src("naked-transcendental-in-hot-path", "let p = s.powf(k);").len(), 1);
        assert!(scan_src("naked-transcendental-in-hot-path", "let p = kernel.psuc(x, t);").is_empty());
    }

    #[test]
    fn sanctioned_clock_flagged_outside_obs_only() {
        // `scan_src` lexes under the path "x.rs" — outside crates/obs,
        // so a call of the sanctioned clock is a finding (the study
        // checkpointer's one consumer site carries a pragma instead).
        let src = "let t = ckpt_obs::clock::now_micros();";
        assert_eq!(scan_src("wall-clock-in-sim", src).len(), 1);
        // The same tokens inside the obs crate are the clock's own
        // implementation/consumers and are not findings.
        let lexed = lex(src);
        let ctx = FileCtx::build("crates/obs/src/recorder.rs", src, &lexed);
        let cfg = Config::default_config();
        assert!(scan("wall-clock-in-sim", &ctx, cfg.rule("wall-clock-in-sim")).is_empty());
    }
}
