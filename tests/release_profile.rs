//! The release profile that makes the packet path one program is in force,
//! and the workspace's lints reach every member.
//!
//! `lto = "fat"` and `codegen-units = 1` live in `.cargo/config.toml`, not
//! in a `[profile.release]` table of `Cargo.toml`, because the repository
//! is two workspaces — the root one and `benchmark/` (`qbench`, with its
//! own empty `[workspace]`) — and a manifest's profile reaches only its own
//! workspace. `.cargo/config.toml` is the one file both builds read: cargo
//! discovers it from the *working directory* upward (not from
//! `--manifest-path`), and `benchmark/run.sh`, CI and the tier-1 commands
//! all invoke cargo from the repository root. Moving or dropping the file
//! costs `fig4_fabric` ≈ 8 % with every test still green — so this test is
//! what fails instead (DESIGN.md, "The release build is one program").

/// The `key = value` settings of the `[name]` table of the TOML file at
/// `path`: its header to the next table header.
fn table(path: &str, name: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let header = format!("[{name}]");
    text.lines()
        .map(str::trim)
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter_map(|line| line.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

fn setting<'a>(table: &'a [(String, String)], key: &str) -> Option<&'a str> {
    table
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

#[test]
fn release_builds_are_whole_program() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/.cargo/config.toml");
    let table = table(path, "profile.release");
    assert!(!table.is_empty(), "{path} has no [profile.release] table");
    assert_eq!(setting(&table, "lto"), Some("\"fat\""), "{table:?}");
    assert_eq!(setting(&table, "codegen-units"), Some("1"), "{table:?}");
}

/// The workspace forbids `unsafe` code, and no member can opt out: `forbid`
/// admits no `#[allow(unsafe_code)]` inside a crate, but a crate whose
/// manifest leaves out `[lints] workspace = true` never sees the lint at
/// all. So every manifest of the workspace — the root package and every
/// `crates/*` member — must carry that table.
#[test]
fn every_member_forbids_unsafe_code() {
    let root = env!("CARGO_MANIFEST_DIR");
    let manifest = format!("{root}/Cargo.toml");
    let lints = table(&manifest, "workspace.lints.rust");
    assert_eq!(
        setting(&lints, "unsafe_code"),
        Some("\"forbid\""),
        "{manifest}: {lints:?}"
    );

    let crates = std::fs::read_dir(format!("{root}/crates")).expect("the crates/ directory");
    let mut members = vec![manifest];
    for entry in crates {
        let path = entry.unwrap().path().join("Cargo.toml");
        if path.exists() {
            members.push(path.to_str().unwrap().to_string());
        }
    }
    assert!(
        members.len() > 10,
        "only {} manifests: {members:?}",
        members.len()
    );
    for manifest in &members {
        let table = table(manifest, "lints");
        assert_eq!(
            setting(&table, "workspace"),
            Some("true"),
            "{manifest}: [lints] {table:?}"
        );
    }
}
