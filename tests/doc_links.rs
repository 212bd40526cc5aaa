//! Docs gate: every intra-repo markdown link in the top-level docs must
//! resolve — the file must exist, and a `#fragment` must match a heading
//! in the target file (GitHub slugification). External links are skipped;
//! checking them would make the test network-flaky. Rust sources are held
//! to the weaker rule their prose can meet: a markdown file they mention
//! by name must be in the repo. Commands are held to the same bar: a
//! harness binary or a `repro` figure a document names must exist.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

const DOCS: &[&str] = &["README.md", "ARCHITECTURE.md", "ROADMAP.md", "CHANGES.md"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Extract `(target, line)` pairs from `[text](target)` markdown links,
/// skipping fenced code blocks (link syntax inside ``` fences is code,
/// not a link).
fn links(md: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for (lineno, line) in md.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
                let start = i + 2;
                if let Some(rel_end) = line[start..].find(')') {
                    out.push((line[start..start + rel_end].to_string(), lineno + 1));
                    i = start + rel_end;
                }
            }
            i += 1;
        }
    }
    out
}

/// GitHub's heading-to-anchor slug: lowercase, spaces to hyphens, strip
/// everything that is not alphanumeric, hyphen, or underscore.
fn slug(heading: &str) -> String {
    heading
        .trim()
        .chars()
        .filter_map(|c| {
            if c.is_alphanumeric() || c == '_' || c == '-' {
                Some(c.to_ascii_lowercase())
            } else if c == ' ' {
                Some('-')
            } else {
                None
            }
        })
        .collect()
}

/// All heading anchors a markdown file defines.
fn anchors(md: &str) -> HashSet<String> {
    let mut out = HashSet::new();
    let mut in_fence = false;
    for line in md.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if !in_fence && line.starts_with('#') {
            out.insert(slug(line.trim_start_matches('#')));
        }
    }
    out
}

#[test]
fn intra_repo_links_resolve() {
    let root = repo_root();
    let mut failures = Vec::new();
    for doc in DOCS {
        let path = root.join(doc);
        let Ok(md) = std::fs::read_to_string(&path) else {
            failures.push(format!("{doc}: missing (listed in the docs gate)"));
            continue;
        };
        for (target, line) in links(&md) {
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
            {
                continue;
            }
            let (file_part, frag) = match target.split_once('#') {
                Some((f, a)) => (f, Some(a)),
                None => (target.as_str(), None),
            };
            // `#section` alone points into the current document.
            let target_path = if file_part.is_empty() {
                path.clone()
            } else {
                root.join(file_part)
            };
            if !target_path.exists() {
                failures.push(format!(
                    "{doc}:{line}: broken link `{target}` (no such file)"
                ));
                continue;
            }
            if let Some(frag) = frag {
                if target_path.extension().is_some_and(|e| e == "md") {
                    let tmd = std::fs::read_to_string(&target_path).unwrap_or_default();
                    if !anchors(&tmd).contains(frag) {
                        failures.push(format!(
                            "{doc}:{line}: broken anchor `{target}` (no heading slugs to `#{frag}` \
                             in {})",
                            Path::new(file_part.trim_start_matches("./"))
                                .display()
                        ));
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "broken intra-repo doc links:\n{}",
        failures.join("\n")
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Doc comments, comments and printed strings alike: a token ending in
/// the markdown extension (path characters included, resolved from the
/// root) must be a file that exists.
#[test]
fn markdown_files_named_in_rust_sources_exist() {
    let root = repo_root();
    let mut sources = Vec::new();
    for dir in ["crates", "src", "examples", "tests"] {
        rust_sources(&root.join(dir), &mut sources);
    }
    assert!(sources.len() > 50, "the scan found {}", sources.len());
    let is_path = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    let mut failures = Vec::new();
    for path in sources {
        let text = std::fs::read_to_string(&path).expect("readable source");
        for (lineno, line) in text.lines().enumerate() {
            for (end, _) in line.match_indices(".md") {
                if line[end + 3..].starts_with(|c: char| c.is_ascii_alphanumeric()) {
                    continue; // `.mdx`, `.md5`, ...
                }
                let start = line[..end].rfind(|c| !is_path(c)).map_or(0, |i| i + 1);
                let name = &line[start..end + 3];
                // A bare `.md` is prose about the extension (this file).
                if name != ".md" && !root.join(name).is_file() {
                    let file = path.strip_prefix(&root).unwrap_or(&path).display();
                    failures.push(format!(
                        "{file}:{}: `{name}` is not in the repo",
                        lineno + 1
                    ));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "Rust sources name markdown files that do not exist:\n{}",
        failures.join("\n")
    );
}

/// `--bin <name>` must be a file under `crates/bench/src/bin/`, and the
/// words after `repro` (the cargo command line, or a code span that
/// starts with it) must be rows of the figure table — every one of which
/// README's "Running experiments" index and the verify skill's figure
/// paragraph name in turn. `benchmark/README.md` is out of scope: it is
/// the benchmark's own record and names retired binaries historically.
#[test]
fn bench_binaries_and_figures_named_in_docs_exist() {
    let root = repo_root();
    let table = std::fs::read_to_string(root.join("crates/bench/src/figures.rs")).expect("table");
    let figures: HashSet<&str> = table
        .lines()
        .filter_map(|l| l.trim().strip_prefix("name: \"")?.strip_suffix("\","))
        .collect();
    assert!(figures.len() >= 14, "the scan found {figures:?}");
    let takes_value = ["--seed", "--time-scale", "--part", "--transport"];
    let mut failures = Vec::new();
    // (document, whether it carries a complete figure index)
    for (doc, index) in [
        ("README.md", true),
        (".claude/skills/verify/SKILL.md", true),
        ("ARCHITECTURE.md", false),
        (".github/workflows/ci.yml", false),
    ] {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        for missing in figures.iter().filter(|f| index && !text.contains(**f)) {
            failures.push(format!("{doc}: the figure index omits `{missing}`"));
        }
        for (lineno, line) in text.lines().enumerate() {
            let mut fail = |what: String| failures.push(format!("{doc}:{}: {what}", lineno + 1));
            let words: Vec<&str> = line
                .split(|c: char| c.is_whitespace() || c == '`')
                .collect();
            for pair in words.windows(2).filter(|w| w[0] == "--bin") {
                if !root
                    .join(format!("crates/bench/src/bin/{}.rs", pair[1]))
                    .is_file()
                {
                    fail(format!("no binary `{}` in crates/bench/src/bin", pair[1]));
                }
            }
            // The arguments of each `repro` invocation on this line.
            let mut invocations: Vec<&str> = line.split("--bin repro --").skip(1).collect();
            invocations.extend(
                (line.split('`').skip(1).step_by(2)).filter_map(|span| span.strip_prefix("repro ")),
            );
            for argv in invocations {
                let argv = argv.split(['#', '`']).next().unwrap_or(argv);
                let mut words = argv.split_whitespace();
                while let Some(word) = words.next() {
                    if takes_value.contains(&word) {
                        words.next();
                    } else if word.starts_with(|c: char| c.is_ascii_lowercase()) {
                        if word != "all" && !figures.contains(word) {
                            fail(format!("`repro {word}` is not a row of the figure table"));
                        }
                    } else if !word.starts_with("--") {
                        break; // `<figure>...`, `|`, prose punctuation
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "documents name harnesses that do not exist:\n{}",
        failures.join("\n")
    );
}

/// The gate itself must be looking at real files: the two documents the
/// issue names must exist and must link to each other.
#[test]
fn architecture_doc_is_linked_from_readme() {
    let root = repo_root();
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    assert!(
        links(&readme).iter().any(|(t, _)| t == "ARCHITECTURE.md"),
        "README.md must link ARCHITECTURE.md"
    );
    let arch = std::fs::read_to_string(root.join("ARCHITECTURE.md")).expect("ARCHITECTURE.md");
    assert!(
        links(&arch).iter().any(|(t, _)| t.starts_with("README.md")),
        "ARCHITECTURE.md must link back to README.md"
    );
}
