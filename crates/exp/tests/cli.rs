//! The `ckpt-exp` binary's argument handling, driven as a process.

use std::process::Command;

fn ckpt_exp(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ckpt-exp")).args(args).output().expect("spawn ckpt-exp")
}

#[test]
fn run_help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = ckpt_exp(&["run", flag]);
        assert_eq!(out.status.code(), Some(0), "run {flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: ckpt-exp run"), "run {flag} printed {stdout:?}");
        assert!(stdout.contains("--study-root"));
    }
}

#[test]
fn run_with_an_unknown_flag_exits_two_with_usage() {
    let out = ckpt_exp(&["run", "--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown `run` argument --no-such-flag"), "{stderr}");
    assert!(stderr.contains("usage: ckpt-exp run"), "{stderr}");
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    for args in [&[][..], &["help"], &["--help"], &["-h"]] {
        let out = ckpt_exp(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: ckpt-exp"), "{args:?} printed {stdout:?}");
        for name in ckpt_exp::catalog::names() {
            assert!(stdout.contains(&format!("\n  {name} ")), "{name} missing from {stdout}");
        }
    }
}

#[test]
fn bad_invocations_exit_two_with_usage_on_stderr() {
    for (args, error) in [
        (&["no-such-exp"][..], "unknown study `no-such-exp`; known: fig1, table2,"),
        (&["ext-energy"], "unknown study `ext-energy`"),
        (&["report"], "unknown study `report`"),
        (&["all"], "unknown study `all`"),
        (&["run", "--study", "nope"], "unknown study `nope`; known: fig1, table2,"),
        (&["fig1", "extra"], "unexpected argument extra"),
        (&["fig1", "--bogus"], "unknown argument --bogus"),
        (&["fig1", "--traces"], "--traces needs a value"),
        (&["fig1", "--traces", "many"], "--traces needs a number, got `many`"),
        (&["matrix", "--model", "bogus"], "unknown parallelism model bogus"),
        (&["study", "ls", "--bogus"], "unknown `study` argument --bogus"),
        (&["study"], "`study` needs an action"),
        (&["run", "--traces"], "--traces needs a value"),
        (&["run", "--study", "bench", "--traces", "0"], "--traces N needs N ≥ 1, got `0`"),
        (&["table2", "--traces", "0"], "--traces N needs N ≥ 1, got `0`"),
        (&["run", "--checkpoint-secs", "nan"], "--checkpoint-secs S needs a finite S ≥ 0, got `nan`"),
        (&["run", "--checkpoint-secs", "-5"], "--checkpoint-secs S needs a finite S ≥ 0, got `-5`"),
        (&["run", "--checkpoint-secs", "inf"], "--checkpoint-secs S needs a finite S ≥ 0, got `inf`"),
    ] {
        let out = ckpt_exp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(error), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: ckpt-exp"), "{args:?}: {stderr}");
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ckpt-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn zero_traces_run_creates_no_study_store() {
    let root = scratch_dir("zero-traces-store");
    let root_arg = root.to_str().expect("utf-8 temp dir");
    let out = ckpt_exp(&["run", "--study", "bench", "--id", "z", "--traces", "0", "--study-root", root_arg]);
    assert_eq!(out.status.code(), Some(2));
    assert!(!root.exists(), "a refused run must not create {}", root.display());
}

#[test]
fn zero_traces_experiment_writes_no_output() {
    let out_dir = scratch_dir("zero-traces-out");
    let out_arg = out_dir.to_str().expect("utf-8 temp dir");
    let out = ckpt_exp(&["table2", "--traces", "0", "--out", out_arg]);
    assert_eq!(out.status.code(), Some(2));
    assert!(!out_dir.join("table2.md").exists(), "a refused experiment must not write a table");
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn zero_and_positive_checkpoint_secs_are_accepted() {
    for secs in ["0", "2.5", "1e3"] {
        // `--help` after the flag stops before any store is touched, so
        // exit 0 shows the value itself was accepted.
        let out = ckpt_exp(&["run", "--checkpoint-secs", secs, "--help"]);
        assert_eq!(out.status.code(), Some(0), "--checkpoint-secs {secs}");
        assert!(out.stderr.is_empty(), "--checkpoint-secs {secs}: {}", String::from_utf8_lossy(&out.stderr));
    }
}

#[test]
fn unusable_out_exits_two_before_any_cell_runs() {
    let dir = scratch_dir("out-is-a-file");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let file = dir.join("taken");
    std::fs::write(&file, "not a directory").expect("scratch file");
    let file_arg = file.to_str().expect("utf-8 temp dir");
    for args in [&["table2", "--traces", "1", "--out", file_arg][..], &["fig1", "--out", "/proc/nope"]] {
        let out = ckpt_exp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run before the check");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("--out {}: ", args[args.len() - 1])), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: ckpt-exp"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    assert_eq!(std::fs::read_to_string(&file).expect("file kept"), "not a directory");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `run --study NAME` renders, next to `aggregate/`, the bytes the
/// in-memory `ckpt-exp NAME --out` writes.
#[test]
fn store_runs_render_what_the_in_memory_runs_write() {
    for name in ["table2", "fig8", "fig98", "matrix"] {
        let dir = scratch_dir(&format!("parity-{name}"));
        let (mem, root) = (dir.join("mem"), dir.join("store"));
        let (mem_arg, root_arg) = (mem.to_str().expect("utf-8"), root.to_str().expect("utf-8"));
        let out = ckpt_exp(&[name, "--traces", "2", "--out", mem_arg]);
        assert_eq!(out.status.code(), Some(0), "{name}: {}", String::from_utf8_lossy(&out.stderr));
        let out = ckpt_exp(&["run", "--study", name, "--traces", "2", "--id", "p", "--study-root", root_arg]);
        assert_eq!(out.status.code(), Some(0), "run {name}: {}", String::from_utf8_lossy(&out.stderr));
        let files: Vec<_> = std::fs::read_dir(&mem).expect("output").map(|e| e.expect("entry").file_name()).collect();
        assert!(!files.is_empty(), "{name} rendered nothing");
        for file in files {
            let memory = std::fs::read(mem.join(&file)).expect("in-memory file");
            let stored = std::fs::read(root.join("p").join(&file)).expect("rendered next to aggregate/");
            assert!(memory == stored, "{name}: {file:?} differs between the two paths");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A resume whose `manifest.json` is truncated or garbage exits 2 with
/// the store error on stderr, before any cell runs or any store file
/// changes.
#[test]
fn damaged_manifest_resume_exits_two_and_runs_nothing() {
    let root = scratch_dir("damaged-manifest");
    let root_arg = root.to_str().expect("utf-8 temp dir");
    let run = |extra: &[&str]| {
        let mut args = vec!["run", "--study", "bench", "--traces", "1", "--study-root", root_arg];
        args.extend_from_slice(extra);
        ckpt_exp(&args)
    };
    let out = run(&["--id", "d"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let dir = root.join("d");
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest");
    let status = std::fs::read_to_string(dir.join("status")).expect("status");
    let snapshot = std::fs::read(dir.join("ckpt-000000.json")).expect("final snapshot");
    for damaged in [&manifest[..manifest.len() / 2], "garbage"] {
        std::fs::write(dir.join("manifest.json"), damaged).expect("damage the manifest");
        let out = run(&["--resume", "d"]);
        assert_eq!(out.status.code(), Some(2), "{damaged:?}");
        assert!(out.stdout.is_empty(), "no cell may commit: {}", String::from_utf8_lossy(&out.stdout));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("checkpoint store: ") && stderr.contains("manifest.json"), "{stderr}");
        assert_eq!(std::fs::read_to_string(dir.join("status")).expect("status"), status);
        assert_eq!(std::fs::read(dir.join("ckpt-000000.json")).expect("snapshot"), snapshot);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn study_with_an_unknown_action_exits_two_with_usage() {
    let out = ckpt_exp(&["study", "frob"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown `study` action frob"), "{stderr}");
    assert!(stderr.contains("usage: ckpt-exp"), "{stderr}");
}

#[test]
fn study_ls_of_an_empty_root_says_so() {
    let root = scratch_dir("ls-empty");
    let root_arg = root.to_str().expect("utf-8 temp dir");
    let out = ckpt_exp(&["study", "ls", "--study-root", root_arg]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout), format!("no studies under {root_arg}\n"));
}

/// `study ls` prints the manifest's item count next to the final
/// status, and the status counts the same items.
#[test]
fn study_ls_lists_a_finished_run_with_its_item_count() {
    let root = scratch_dir("ls-done");
    let root_arg = root.to_str().expect("utf-8 temp dir");
    let out = ckpt_exp(&["run", "--study", "bench", "--traces", "1", "--id", "d", "--study-root", root_arg]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let out = ckpt_exp(&["study", "ls", "--study-root", root_arg]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let row: Vec<&str> = stdout.lines().nth(1).expect("one study row").split_whitespace().collect();
    assert_eq!(row[0], "d", "{stdout}");
    let items: u64 = row[1].parse().expect("an item count");
    assert!(items > 0, "{stdout}");
    assert_eq!(row[4..], ["done", &format!("{items}/{items}")], "{stdout}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn study_gc_prunes_then_purges() {
    let root = scratch_dir("gc");
    let root_arg = root.to_str().expect("utf-8 temp dir");
    let out = ckpt_exp(&[
        "run", "--study", "bench", "--traces", "1", "--id", "g", "--checkpoint-items", "1",
        "--study-root", root_arg,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let snapshots = || {
        std::fs::read_dir(root.join("g"))
            .expect("study dir")
            .filter(|e| e.as_ref().expect("entry").file_name().to_string_lossy().starts_with("ckpt-"))
            .count()
    };
    assert!(snapshots() > 1, "one snapshot per item should leave several");
    let gc = |extra: &[&str]| {
        let mut args = vec!["study", "gc", "--study-root", root_arg];
        args.extend_from_slice(extra);
        let out = ckpt_exp(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert!(gc(&["--max-checkpoints", "1"]).starts_with("g: pruned "));
    assert_eq!(snapshots(), 1);
    assert_eq!(gc(&["--max-checkpoints", "1"]), "nothing to do\n");
    assert_eq!(gc(&["--purge", "g"]), "purged g\n");
    assert!(!root.join("g").exists());
    let _ = std::fs::remove_dir_all(&root);
}
