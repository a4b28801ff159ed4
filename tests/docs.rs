//! The prose every reader starts from stays short and true.
//!
//! `README.md` and each `crates/*/DESIGN.md` describe the system that
//! exists, once and in the present tense; what changed when is
//! `CHANGES.md`'s. These checks keep them so: the README has a length
//! budget, no document narrates by change number, every relative link
//! resolves, and every command the README shows names an example file
//! or an `ab_scenario` subcommand that exists.

use std::path::{Path, PathBuf};

/// Most lines the README may have.
const README_MAX_LINES: usize = 400;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `README.md` and every `crates/*/DESIGN.md`, in a stable order.
fn documents() -> Vec<PathBuf> {
    let mut designs: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("readable dir entry").path().join("DESIGN.md"))
        .filter(|path| path.is_file())
        .collect();
    designs.sort();
    assert!(!designs.is_empty(), "no crates/*/DESIGN.md found");
    let mut docs = vec![root().join("README.md")];
    docs.extend(designs);
    docs
}

fn shown(path: &Path) -> String {
    path.strip_prefix(root())
        .unwrap_or(path)
        .display()
        .to_string()
}

/// Every word that follows `marker` in `text`: a letter, then a run of
/// `[A-Za-z0-9_-]`. A marker followed by anything else (a flag, a
/// placeholder) is skipped.
fn words_after<'a>(text: &'a str, marker: &str) -> Vec<&'a str> {
    text.match_indices(marker)
        .filter_map(|(at, _)| {
            let rest = &text[at + marker.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
                .unwrap_or(rest.len());
            rest.starts_with(|c: char| c.is_ascii_alphabetic())
                .then(|| &rest[..end])
        })
        .collect()
}

#[test]
fn readme_fits_its_line_budget() {
    let lines = read(&root().join("README.md")).lines().count();
    assert!(
        lines <= README_MAX_LINES,
        "README.md is {lines} lines; at most {README_MAX_LINES}. History belongs in CHANGES.md, \
         a mechanism's explanation in the DESIGN note or rustdoc that owns it"
    );
}

#[test]
fn documents_do_not_narrate_by_change_number() {
    let mut found = Vec::new();
    for doc in documents() {
        let text = read(&doc);
        let hits: Vec<usize> = text
            .lines()
            .enumerate()
            .filter(|(_, line)| {
                line.match_indices("PR ")
                    .any(|(at, _)| line[at + 3..].starts_with(|c: char| c.is_ascii_digit()))
            })
            .map(|(n, _)| n + 1)
            .collect();
        if !hits.is_empty() {
            found.push(format!(
                "{}: {} lines, first at l. {}",
                shown(&doc),
                hits.len(),
                hits[0]
            ));
        }
    }
    assert!(
        found.is_empty(),
        "lines matching `PR [0-9]` (say what exists; history is CHANGES.md's):\n  {}",
        found.join("\n  ")
    );
}

#[test]
fn relative_links_resolve() {
    let mut broken = Vec::new();
    for doc in documents() {
        let text = read(&doc);
        let dir = doc.parent().expect("a document has a directory");
        for (at, _) in text.match_indices("](") {
            let rest = &text[at + 2..];
            let Some(end) = rest.find(')') else { continue };
            let target = rest[..end].split('#').next().unwrap_or("");
            if target.is_empty() || target.contains("://") || target.starts_with("mailto:") {
                continue;
            }
            if !dir.join(target).exists() {
                broken.push(format!("{} → {target}", shown(&doc)));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "links to nothing:\n  {}",
        broken.join("\n  ")
    );
}

#[test]
fn readme_examples_exist() {
    let readme = read(&root().join("README.md"));
    let named = words_after(&readme, "--example ");
    assert!(
        !named.is_empty(),
        "README.md shows no `cargo run --example`"
    );
    let missing: Vec<&str> = named
        .into_iter()
        .filter(|name| !root().join("examples").join(format!("{name}.rs")).is_file())
        .collect();
    assert!(
        missing.is_empty(),
        "README.md runs examples that are not in examples/: {missing:?}"
    );
}

#[test]
fn readme_ab_scenario_subcommands_exist() {
    let bin = read(&root().join("crates/scenario/src/bin/ab_scenario.rs"));
    let usage_at = bin.find("fn usage()").expect("ab_scenario has a usage()");
    let usage_end = usage_at + bin[usage_at..].find("\n}").expect("usage() ends");
    let listed = words_after(&bin[usage_at..usage_end], "ab_scenario ");
    assert!(
        listed.len() >= 5,
        "usage() lists too few subcommands: {listed:?}"
    );

    let readme = read(&root().join("README.md"));
    let mut shown_cmds = words_after(&readme, "ab_scenario ");
    shown_cmds.extend(words_after(&readme, "ab_scenario -- "));
    assert!(
        !shown_cmds.is_empty(),
        "README.md shows no `ab_scenario` command"
    );
    let unknown: Vec<&str> = shown_cmds
        .into_iter()
        .filter(|cmd| !listed.contains(cmd))
        .collect();
    assert!(
        unknown.is_empty(),
        "README.md shows `ab_scenario` subcommands its usage does not list: {unknown:?} \
         (listed: {listed:?})"
    );
}
