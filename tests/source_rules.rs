//! The source rules rustc and clippy cannot express, as plain-text scans
//! over the workspace: no work markers, audited hot-path libm calls, and
//! no declared dependency that nothing uses. Every other determinism
//! rule lives in the root `Cargo.toml` lint table and `clippy.toml`,
//! enforced by `cargo clippy --workspace -- -D warnings`; DESIGN.md
//! "Determinism rules" maps each rule to the probe that proves it fires.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, skipping build output, the vendored
/// stand-ins and hidden directories.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .expect("readable directory")
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if path.is_dir() {
            if !(name.starts_with('.') || name == "target" || name == "vendor") {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The text of a line before its first `//`.
fn code(line: &str) -> &str {
    line.find("//").map_or(line, |i| &line[..i])
}

/// The text of a line after its first `//`, if it has a comment.
fn comment(line: &str) -> Option<&str> {
    line.find("//").map(|i| &line[i + 2..])
}

/// Work markers never land on main: in a determinism-critical path one
/// is an unfinished audit.
const MARKERS: [&str; 4] = ["TODO", "FIXME", "XXX", "HACK"];

#[test]
fn no_work_markers_in_comments() {
    let mut files = Vec::new();
    rust_files(root(), &mut files);
    let this_file = root().join(file!());
    assert!(files.contains(&this_file), "the walk must reach this file: {files:?}");
    let mut found = Vec::new();
    for path in &files {
        for (i, line) in read(path).lines().enumerate() {
            let Some(text) = comment(line) else { continue };
            if text.split(|c: char| !c.is_ascii_alphanumeric()).any(|w| MARKERS.contains(&w)) {
                found.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(found.is_empty(), "work markers in committed comments:\n{}", found.join("\n"));
}

/// The DP decision loops, the SIMD batch kernels and the `KernelTable`
/// builder: per-grid-point libm calls there bypass the tabulated
/// kernels, which makes row builds slow and their bits fragile under
/// re-association, and one call in a lane body keeps the SIMD kernels
/// scalar. Each file keeps this many audited calls outside its test
/// module, each with its justification in a comment at the call.
const HOT_PATH: [(&str, usize); 4] = [
    ("crates/policies/src/dp_next_failure.rs", 4),
    ("crates/policies/src/dp_makespan.rs", 3),
    ("crates/math/src/simd.rs", 0),
    ("crates/dist/src/kernel.rs", 3),
];

/// The libm calls the audit counts: the transcendentals, and the
/// rounding functions, which are calls too on the x86-64 baseline (no
/// SSE4.1 `roundsd`).
const TRANSCENDENTALS: [&str; 13] = [
    "powf", "exp", "exp2", "exp_m1", "ln", "ln_1p", "log", "log2", "log10", "round", "floor",
    "ceil", "trunc",
];

/// The text of `src` before its test module: the first `#[cfg(test)]`
/// whose next non-attribute line starts with `mod `. A `#[cfg(test)]`
/// item above the module (a helper `fn`, an `impl`) does not end the
/// audited body.
fn before_test_module(src: &str) -> &str {
    let mut offset = 0;
    let mut pending = None;
    for line in src.split_inclusive('\n') {
        let text = line.trim();
        if text == "#[cfg(test)]" {
            pending = pending.or(Some(offset));
        } else if !text.starts_with("#[") {
            if let Some(at) = pending.filter(|_| text.starts_with("mod ")) {
                return &src[..at];
            }
            pending = None;
        }
        offset += line.len();
    }
    src
}

/// `(line number, function)` of every libm call in the code of `body`.
fn libm_sites(body: &str) -> Vec<(usize, &'static str)> {
    let mut sites = Vec::new();
    for (i, line) in body.lines().enumerate() {
        for f in TRANSCENDENTALS {
            for _ in code(line).matches(&format!(".{f}(")) {
                sites.push((i + 1, f));
            }
        }
    }
    sites
}

#[test]
fn hot_path_transcendentals_are_the_audited_ones() {
    for (file, audited) in HOT_PATH {
        let src = read(&root().join(file));
        let sites: Vec<String> = libm_sites(before_test_module(&src))
            .into_iter()
            .map(|(line, f)| format!("{file}:{line}: .{f}()"))
            .collect();
        assert_eq!(
            sites.len(),
            audited,
            "libm calls in a hot-path file changed; route new ones through the tabulated \
             kernels, or audit the site, justify it in a comment and update HOT_PATH:\n{}",
            sites.join("\n")
        );
    }
}

#[test]
fn a_test_item_above_the_test_module_stays_audited() {
    let src = "fn kept() {}\n\
               #[cfg(test)]\n\
               fn helper() {}\n\
               fn hot(x: f64) -> f64 { x.powf(2.0) }\n\
               #[cfg(test)]\n\
               #[allow(dead_code)]\n\
               mod tests {\n\
               fn t() -> f64 { 2f64.ln() }\n\
               }\n";
    let body = before_test_module(src);
    assert!(body.ends_with("x.powf(2.0) }\n"), "cut at the module's attributes: {body:?}");
    assert_eq!(libm_sites(body), [(4, "powf")]);
    let untested = "fn f(x: f64) -> f64 { x.exp() }\n";
    assert_eq!(before_test_module(untested), untested, "no test module: the whole file");
}

/// The dependency names a manifest declares under `section`
/// (`[dependencies]` or `[dev-dependencies]`), as Rust identifiers.
fn declared(manifest: &str, section: &str) -> Vec<String> {
    let mut inside = false;
    let mut names = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == section;
        } else if let Some((name, _)) = line.split_once('=').filter(|_| inside) {
            names.push(name.trim().replace('-', "_"));
        }
    }
    names
}

/// Whether `ident` occurs as a whole word in the code (not the comments)
/// of `files`.
fn names_crate(files: &[PathBuf], ident: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    files.iter().any(|f| {
        read(f).lines().map(code).any(|line| {
            line.match_indices(ident).any(|(i, _)| {
                !line[..i].ends_with(is_ident) && !line[i + ident.len()..].starts_with(is_ident)
            })
        })
    })
}

/// A dependency stays only if something uses it: every library
/// dependency is named by its package's `src/`, every dev-dependency by
/// its `src/`, `tests/` or `examples/`.
#[test]
fn every_declared_dependency_is_used() {
    let mut packages = vec![root().to_path_buf()];
    let mut crates: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("readable crates directory")
        .map(|e| e.expect("directory entry").path())
        .collect();
    crates.sort();
    packages.extend(crates);
    let mut unused = Vec::new();
    for package in &packages {
        let manifest = read(&package.join("Cargo.toml"));
        let files_under = |dirs: &[&str]| {
            let mut files = Vec::new();
            for dir in dirs.iter().map(|d| package.join(d)).filter(|d| d.is_dir()) {
                rust_files(&dir, &mut files);
            }
            files
        };
        let lib = files_under(&["src"]);
        let all = files_under(&["src", "tests", "examples"]);
        for (section, files) in [("[dependencies]", &lib), ("[dev-dependencies]", &all)] {
            for name in declared(&manifest, section) {
                if !names_crate(files, &name) {
                    let package = package.strip_prefix(root()).unwrap_or(package);
                    unused.push(format!("{}/Cargo.toml: {section} {name}", package.display()));
                }
            }
        }
    }
    assert!(
        packages.len() > 2 && unused.is_empty(),
        "declared but unused dependencies (drop them from the manifest):\n{}",
        unused.join("\n")
    );
}
