//! The release profile that makes the packet path one program is in force.
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

#[test]
fn release_builds_are_whole_program() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/.cargo/config.toml");
    let config = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    // The `[profile.release]` table: its header to the next table header.
    let table: Vec<&str> = config
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .collect();
    assert!(!table.is_empty(), "{path} has no [profile.release] table");
    let setting = |key: &str| {
        table
            .iter()
            .filter_map(|line| line.split_once('='))
            .find(|(k, _)| k.trim() == key)
            .map(|(_, v)| v.trim())
    };
    assert_eq!(setting("lto"), Some("\"fat\""), "{table:?}");
    assert_eq!(setting("codegen-units"), Some("1"), "{table:?}");
}
