//! Golden test of `artifacts/table1.txt`: one test per section re-runs that
//! section's experiment (its shape assertions included) and compares the
//! output with the text the artifact pins under the section's header.

use dapsp_bench::{header, FOOTER, SECTIONS};

const ARTIFACT: &str = include_str!("../../../artifacts/table1.txt");
const REGENERATE: &str =
    "cargo run --release -p dapsp-bench --bin dapsp-paper > artifacts/table1.txt";

/// The body the artifact holds under `name`'s header: everything up to the
/// next header, or up to the footer for the last section.
fn pinned(name: &str) -> &'static str {
    let header = header(name);
    let start = ARTIFACT.find(&header).unwrap_or_else(|| {
        panic!("artifacts/table1.txt has no section `{name}`; regenerate it with `{REGENERATE}`")
    }) + header.len();
    let rest = &ARTIFACT[start..];
    let end = rest.find("\n===== ").or_else(|| rest.rfind(FOOTER));
    &rest[..end.unwrap_or(rest.len())]
}

fn check(name: &str) {
    let &(_, section) = SECTIONS
        .iter()
        .find(|s| s.0 == name)
        .expect("a known section");
    let mut fresh = String::new();
    section(&mut fresh);
    let pinned = pinned(name);
    if fresh != pinned {
        let want: Vec<&str> = pinned.split('\n').collect();
        let got: Vec<&str> = fresh.split('\n').collect();
        let line = (0..)
            .find(|&i| want.get(i) != got.get(i))
            .expect("texts differ");
        panic!(
            "section `{name}` of artifacts/table1.txt differs from the code at its line {}:\n  \
             pinned: {:?}\n  fresh:  {:?}\nIf the change is intended, regenerate with `{REGENERATE}`",
            line + 1,
            want.get(line),
            got.get(line),
        );
    }
}

macro_rules! pinned_sections {
    ($($name:ident),* $(,)?) => {
        $(#[test] fn $name() { check(stringify!($name)); })*
        const PINNED: &[&str] = &[$(stringify!($name)),*];
    };
}

pinned_sections!(
    table1_apsp,
    table1_ssp,
    table1_exact_apps,
    table1_girth,
    table1_lower_bounds,
    table1_approx_diameter,
    table1_approx_girth,
    table1_two_vs_four,
    table1_cor1_crossover,
    table1_bits,
    ablation_ssp_variants,
    ablation_pebble_wait,
    table1_summary,
    figure_wave_pipeline,
);

#[test]
fn artifact_holds_every_section_in_order() {
    let names: Vec<&str> = SECTIONS.iter().map(|s| s.0).collect();
    assert_eq!(PINNED, names, "every section needs its own test");
    let headers: Vec<&str> = ARTIFACT
        .lines()
        .filter_map(|l| l.strip_prefix("===== ")?.strip_suffix(" ====="))
        .collect();
    assert_eq!(headers, names, "regenerate with `{REGENERATE}`");
    assert!(ARTIFACT.starts_with(&header(names[0])) && ARTIFACT.ends_with(FOOTER));
}
