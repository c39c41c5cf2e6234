//! Provenance of the committed benchmark results: every `"code_version"`
//! in every `BENCH_*.json` at the repository root must equal the stage
//! graph's [`CODE_VERSION`], so numbers measured on older code cannot sit
//! in the repository looking current. Re-run the owning bench to refresh
//! a stale section.

use spec_analysis::stage::CODE_VERSION;

/// Every string value of a `"code_version"` key in `doc`, at any depth.
fn code_versions(doc: &str) -> Vec<&str> {
    let needle = "\"code_version\"";
    doc.match_indices(needle)
        .filter_map(|(at, _)| {
            let rest = doc[at + needle.len()..].trim_start().strip_prefix(':')?;
            let value = rest.trim_start().strip_prefix('"')?;
            value.split('"').next()
        })
        .collect()
}

#[test]
fn every_bench_file_is_measured_at_the_current_code_version() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files: Vec<_> = std::fs::read_dir(&root)
        .expect("repository root is listable")
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    assert!(
        !files.is_empty(),
        "no BENCH_*.json under {}",
        root.display()
    );
    for path in files {
        let doc = std::fs::read_to_string(&path).expect("BENCH file readable");
        let versions = code_versions(&doc);
        assert!(
            !versions.is_empty(),
            "{} records no code_version",
            path.display()
        );
        for version in versions {
            assert_eq!(
                version,
                CODE_VERSION,
                "{} holds numbers measured at {version}; re-run its bench",
                path.display()
            );
        }
    }
}

#[test]
fn code_versions_are_found_at_any_depth() {
    let doc =
        "{\"code_version\": \"a\", \"s\": {\"code_version\" : \"b\"}, \"n\": \"code_version\"}";
    assert_eq!(code_versions(doc), vec!["a", "b"]);
}
