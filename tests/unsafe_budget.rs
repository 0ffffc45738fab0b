//! The workspace's `unsafe` budget. Every crate under `crates/*/src`, the
//! root library (`src/lib.rs`) and each binary under `src/bin` either
//! carries `#![forbid(unsafe_code)]` at its root or has exactly the
//! number of `unsafe` sites this file commits to. A site is an `unsafe`
//! block, `unsafe fn` or `unsafe impl` outside comments. A new site, or a
//! crate that loses its last one without taking the `forbid`, fails here
//! until the table below says so.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The crates allowed `unsafe`, with their site counts.
const BUDGET: &[(&str, usize)] = &[("nn", 17), ("telemetry", 6)];

const FORBID: &str = "#![forbid(unsafe_code)]";

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `unsafe` sites in `source`, with `//` comments stripped.
fn sites(source: &str) -> usize {
    source
        .lines()
        .map(|line| line.split("//").next().unwrap())
        .map(|code| {
            code.match_indices("unsafe")
                .filter(|&(at, _)| {
                    let before = code[..at].chars().next_back();
                    let after = code[at + "unsafe".len()..].trim_start();
                    !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
                        && ["{", "fn ", "impl"].iter().any(|t| after.starts_with(t))
                })
                .count()
        })
        .sum()
}

/// Crate name -> (root file, every file of the crate). A binary under
/// `src/bin` is its own crate; `src/lib.rs` is the rest of `src`.
fn crates(root: &Path) -> BTreeMap<String, (PathBuf, Vec<PathBuf>)> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = entry.unwrap().path().join("src");
        let name = src.parent().unwrap().file_name().unwrap().to_string_lossy();
        let mut files = Vec::new();
        rust_files(&src, &mut files);
        out.insert(name.into_owned(), (src.join("lib.rs"), files));
    }
    let mut bins = Vec::new();
    rust_files(&root.join("src/bin"), &mut bins);
    for bin in bins {
        let name = format!("bin/{}", bin.file_stem().unwrap().to_string_lossy());
        out.insert(name, (bin.clone(), vec![bin]));
    }
    let lib = root.join("src/lib.rs");
    out.insert("sketchql-suite".into(), (lib.clone(), vec![lib]));
    out
}

#[test]
fn unsafe_stays_inside_its_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut counted = BTreeMap::new();
    for (name, (lib, files)) in crates(root) {
        let count: usize = files
            .iter()
            .map(|f| sites(&std::fs::read_to_string(f).unwrap()))
            .sum();
        let forbids = std::fs::read_to_string(&lib)
            .unwrap()
            .lines()
            .any(|l| l.trim() == FORBID);
        if count == 0 {
            assert!(
                forbids,
                "{name} has no `unsafe`, so {} must say {FORBID}",
                lib.display()
            );
        } else {
            counted.insert(name, count);
        }
    }
    let budget: BTreeMap<String, usize> = BUDGET
        .iter()
        .map(|&(name, n)| (name.to_string(), n))
        .collect();
    assert_eq!(
        counted, budget,
        "`unsafe` sites per crate moved; update BUDGET with the reason"
    );
}

#[test]
fn site_counter_reads_code_not_comments() {
    let source = "// unsafe { in a comment }\n\
                  unsafe impl Send for X {}\n\
                  let y = unsafe { f() }; // unsafe {\n\
                  unsafe fn g() {}\n\
                  #![forbid(unsafe_code)]\n\
                  let not_unsafe_ = 1;\n";
    assert_eq!(sites(source), 3);
}
