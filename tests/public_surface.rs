//! Every `pub fn` in `crates/*/src` has a caller: its name appears in some
//! other `.rs` file under `crates`, `src`, `tests`, `examples` or
//! `benchmark/src`. A public function that only its own file (and its own
//! unit tests) names is surface nobody uses — delete it, make it private,
//! or give it an entry in [`ALLOWED`] with a one-line reason.
//!
//! The check is textual: a name counts as used wherever it appears as a
//! whole identifier, comments included. This file is left out of the
//! search, so an allow-list entry does not count as a caller.

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

/// The names of the `pub fn`s declared in `text`, one per line that
/// starts (after indentation) with `pub fn`.
fn public_fns(text: &str) -> Vec<&str> {
    text.lines()
        .filter_map(|line| line.trim_start().strip_prefix("pub fn "))
        .map(|rest| rest.split(|c: char| !is_ident(c)).next().unwrap_or(""))
        .collect()
}

/// `(file, function)` for every `pub fn` of `crates/*/src` under `root`
/// that no other searched file names, in path order.
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
        for name in public_fns(text) {
            let called = texts
                .iter()
                .any(|(other, t)| other != path && names(t, name));
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
        "public functions nothing else names (delete them, make them private, \
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

#[test]
fn the_scan_sees_identifiers_and_declarations() {
    assert!(names("let x = foo(1);", "foo"));
    assert!(!names("let x = foo_bar(1);", "foo"));
    assert!(!names("let x = barfoo(1);", "foo"));
    assert_eq!(
        public_fns("pub fn a(x: u32) {}\n    pub fn b<T>() {}\npub(crate) fn c() {}\n"),
        ["a", "b"]
    );
}
