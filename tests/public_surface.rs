//! Every `pub fn` in `crates/*/src` has a caller in some other `.rs` file
//! under `crates`, `src`, `tests`, `examples` or `benchmark/src`. A public
//! function that only its own file (and its own unit tests) names is
//! surface nobody uses — delete it, make it private, or give it an entry
//! in [`ALLOWED`] with a one-line reason.
//!
//! The check is textual, comments included, and tells two kinds apart:
//!
//! * a **module function** — `pub fn name` at column 0 of `m.rs` or
//!   `m/mod.rs` (for `lib.rs`, `m` is the crate name) — counts as called
//!   only where another file writes `m::name`, or imports `name` in a
//!   `use` that names `m`. A bare `name` elsewhere is somebody else's
//!   `name`: every pipeline module has its own `run`.
//! * a **method** (an indented `pub fn`) counts as called wherever its
//!   name appears as a whole identifier.
//!
//! This file is left out of the search, so an allow-list entry does not
//! count as a caller.
//!
//! Configuration arrives typed, through `Config` or `Obs`: no shipped line
//! of `crates/*/src` reads an environment variable at run time.

use std::fs;
use std::path::{Path, PathBuf};

/// `(file, function, reason)`: public functions kept without an outside
/// caller.
const ALLOWED: &[(&str, &str, &str)] = &[(
    "crates/core/src/routing.rs",
    "corrupt_row",
    "the row witness behind `RouteTable::verify`, kept public for row-level repair",
)];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// True if `name` occurs in `text` as a whole identifier.
fn names(text: &str, name: &str) -> bool {
    text.match_indices(name).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + name.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

/// `(name, at_column_0)` for every `pub fn` declared in `text`, one per
/// line that starts (after indentation) with `pub fn`.
fn public_fns(text: &str) -> Vec<(&str, bool)> {
    text.lines()
        .filter_map(|line| {
            let rest = line.trim_start().strip_prefix("pub fn ")?;
            let name = rest.split(|c: char| !is_ident(c)).next().unwrap_or("");
            Some((name, !line.starts_with(char::is_whitespace)))
        })
        .collect()
}

/// The path a module function of the file at `rel` (under `root`) is
/// called through: the file stem, the directory of a `mod.rs`, and the
/// crate name (its package name with `-` as `_`) for a `lib.rs`.
fn module_of(root: &Path, rel: &Path) -> String {
    let stem = rel.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let parent = rel.parent().expect("a file has a directory");
    match stem {
        "mod" => parent
            .file_name()
            .and_then(|s| s.to_str())
            .unwrap_or("")
            .to_string(),
        "lib" => {
            let manifest = root.join(parent).join("../Cargo.toml");
            let manifest = fs::read_to_string(&manifest).expect("a crate has a manifest");
            let package = manifest
                .lines()
                .find_map(|line| line.strip_prefix("name = "))
                .expect("the manifest names its package");
            package.trim_matches('"').replace('-', "_")
        }
        stem => stem.to_string(),
    }
}

/// The `use` declarations of `text`, each from its `use` to its `;`.
fn use_items(text: &str) -> impl Iterator<Item = &str> {
    text.match_indices("use ").filter_map(|(at, _)| {
        let line_start = text[..at].rfind('\n').map_or(0, |i| i + 1);
        let head = text[line_start..at].trim_start();
        let is_item = matches!(head, "" | "pub " | "pub(crate) ");
        let end = at + text[at..].find(';')?;
        is_item.then(|| &text[at..end])
    })
}

/// True if `text` calls the module function `name` of module `module`:
/// it writes `module::name`, or a `use` of it names both.
fn calls_through(text: &str, module: &str, name: &str) -> bool {
    names(text, &format!("{module}::{name}"))
        || use_items(text).any(|item| names(item, module) && names(item, name))
}

/// `(file, function)` for every `pub fn` of `crates/*/src` under `root`
/// that no other searched file calls, in path order.
fn uncalled(root: &Path) -> Vec<(String, String)> {
    let mut searched = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut searched);
    }
    searched.sort();
    let me = root.join(file!());
    let texts: Vec<(PathBuf, String)> = searched
        .into_iter()
        .filter(|p| *p != me)
        .map(|p| {
            let text = fs::read_to_string(&p).expect("readable source file");
            (p, text)
        })
        .collect();
    let mut found = Vec::new();
    for (path, text) in &texts {
        let rel = path.strip_prefix(root).expect("under the root");
        let mut parts = rel.components();
        let in_crate_src = parts.next().is_some_and(|c| c.as_os_str() == "crates")
            && parts.nth(1).is_some_and(|c| c.as_os_str() == "src");
        if !in_crate_src {
            continue;
        }
        let module = module_of(root, rel);
        for (name, top_level) in public_fns(text) {
            let called = texts.iter().any(|(other, t)| {
                other != path
                    && if top_level {
                        calls_through(t, &module, name)
                    } else {
                        names(t, name)
                    }
            });
            if !called {
                found.push((rel.display().to_string(), name.to_string()));
            }
        }
    }
    found
}

#[test]
fn every_public_function_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let found = uncalled(root);
    let unexplained: Vec<String> = found
        .iter()
        .filter(|(file, name)| !ALLOWED.iter().any(|&(f, n, _)| f == file && n == name))
        .map(|(file, name)| format!("{file}: pub fn {name}"))
        .collect();
    assert!(
        unexplained.is_empty(),
        "public functions nothing else calls (delete them, make them private, \
         or allow-list them with a reason):\n{}",
        unexplained.join("\n")
    );
    // An entry whose function is gone or has found a caller is stale.
    for &(file, name, reason) in ALLOWED {
        assert!(!reason.is_empty(), "{file}: {name} needs a reason");
        assert!(
            found.iter().any(|(f, n)| f == file && n == name),
            "stale allow-list entry {file}: {name}"
        );
    }
}

/// The shipped lines of a source file: all of them but its in-source
/// test modules, each running from a column-0 `#[cfg(test)]` to the next
/// column-0 `}` (how `scripts/verify.sh` counts shipped lines).
fn shipped_lines(text: &str) -> Vec<&str> {
    let mut in_test = false;
    let mut shipped = Vec::new();
    for line in text.lines() {
        if line == "#[cfg(test)]" {
            in_test = true;
        } else if in_test {
            in_test = line != "}";
        } else {
            shipped.push(line);
        }
    }
    shipped
}

#[test]
fn no_shipped_line_reads_the_environment() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_files(&root.join("crates"), &mut sources);
    sources.sort();
    let mut found = Vec::new();
    for path in &sources {
        let rel = path.strip_prefix(root).expect("under the root");
        if rel
            .components()
            .nth(2)
            .is_none_or(|c| c.as_os_str() != "src")
        {
            continue;
        }
        let text = fs::read_to_string(path).expect("readable source file");
        for line in shipped_lines(&text) {
            if line.contains("env::var") {
                found.push(format!("{}: {}", rel.display(), line.trim()));
            }
        }
    }
    assert!(
        found.is_empty(),
        "shipped code reads the environment (pass it through Config or Obs):\n{}",
        found.join("\n")
    );
}

#[test]
fn the_scan_sees_identifiers_and_declarations() {
    assert!(names("let x = foo(1);", "foo"));
    assert!(!names("let x = foo_bar(1);", "foo"));
    assert!(!names("let x = barfoo(1);", "foo"));
    assert_eq!(
        public_fns("pub fn a(x: u32) {}\n    pub fn b<T>() {}\npub(crate) fn c() {}\n"),
        [("a", true), ("b", false)]
    );
    // A module function is called through its module, by path or by a
    // `use` naming both; a bare name or another module's path is not it.
    assert!(calls_through("let r = bfs::run(&g, 0);", "bfs", "run"));
    assert!(calls_through(
        "use dapsp_core::bfs::{run, BfsResult};\nrun(&g, 0);",
        "bfs",
        "run"
    ));
    assert!(calls_through(
        "pub use bfs::{\n    apsp,\n    run,\n};",
        "bfs",
        "run"
    ));
    assert!(!calls_through("fn run() {}\nrun();", "bfs", "run"));
    assert!(!calls_through("let r = ssp::run(&g, &s);", "bfs", "run"));
    assert!(!calls_through("let r = bfs::run_on(&t, 0);", "bfs", "run"));
    assert!(!calls_through("use crate::bfs;\n// run", "bfs", "run"));
    assert!(!calls_through("fn reuse bfs() { run(); }", "bfs", "run"));
    // Shipped lines stop at a test module and resume after it.
    assert_eq!(
        shipped_lines("fn a() {}\n#[cfg(test)]\nmod tests {\n    x\n}\nfn b() {}\n"),
        ["fn a() {}", "fn b() {}"]
    );
}
