//! Guards the crate's founding constraints: pathrep-obs must stay
//! dependency-free (std plus the vendored `parking_lot`/`serde` shims
//! only) and fully documented, so it can never pull the offline build
//! toward crates.io or grow an undocumented surface.

use std::collections::BTreeSet;
use std::path::Path;

/// Returns the dependency names listed under `[section]` in `manifest`.
fn section_deps(manifest: &str, section: &str) -> BTreeSet<String> {
    let mut deps = BTreeSet::new();
    let mut in_section = false;
    for line in manifest.lines() {
        let line = line.trim();
        if let Some(header) = line.strip_prefix('[') {
            in_section = header.trim_end_matches(']') == section;
            continue;
        }
        if in_section && !line.is_empty() && !line.starts_with('#') {
            if let Some((key, _)) = line.split_once('=') {
                // `serde.workspace = true` and `serde = { … }` both name
                // the dependency in the first dotted segment.
                let name = key.trim().split('.').next().unwrap_or_default();
                deps.insert(name.to_owned());
            }
        }
    }
    deps
}

#[test]
fn dependencies_stay_within_the_vendored_set() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(manifest_dir.join("Cargo.toml"))
        .expect("crate manifest is readable");

    let allowed: BTreeSet<String> =
        ["parking_lot", "serde"].map(str::to_owned).into();
    let deps = section_deps(&manifest, "dependencies");
    let drift: Vec<_> = deps.difference(&allowed).collect();
    assert!(
        drift.is_empty(),
        "pathrep-obs gained non-vendored dependencies: {drift:?} \
         (allowed: {allowed:?})"
    );

    let allowed_dev: BTreeSet<String> = BTreeSet::new();
    let dev_deps = section_deps(&manifest, "dev-dependencies");
    let dev_drift: Vec<_> = dev_deps.difference(&allowed_dev).collect();
    assert!(
        dev_drift.is_empty(),
        "pathrep-obs gained non-vendored dev-dependencies: {dev_drift:?}"
    );

    // Every dependency must resolve through workspace path shims, never a
    // version requirement that would reach for crates.io.
    for name in deps.iter().chain(dev_deps.iter()) {
        let line = manifest
            .lines()
            .map(str::trim)
            .find(|l| {
                l.split_once('=').is_some_and(|(k, _)| {
                    k.trim().split('.').next() == Some(name.as_str())
                })
            })
            .expect("dependency line exists");
        assert!(
            line.contains("workspace = true") || line.contains("path"),
            "`{line}` must inherit the vendored workspace entry"
        );
    }
}

/// Every source module — including the export backends added after the
/// crate's founding (`flight.rs`, `prom.rs`) — must only `use` std and the
/// vendored shims, never a crates-io crate root. This catches drift that
/// never reaches Cargo.toml, e.g. a `serde_json::` call that would only
/// fail once someone adds the dependency.
#[test]
fn source_modules_stay_on_the_vendored_set() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let allowed_roots = [
        "std", "core", "alloc", "crate", "self", "super",
        // The vendored shims.
        "parking_lot", "serde",
    ];
    let mut checked = 0;
    for entry in std::fs::read_dir(&src).expect("src/ is readable") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        checked += 1;
        let text = std::fs::read_to_string(&path).expect("module is readable");
        for (lineno, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            let Some(rest) = trimmed.strip_prefix("use ") else {
                continue;
            };
            let root: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            assert!(
                allowed_roots.contains(&root.as_str()),
                "{}:{}: `use {root}…` reaches outside the vendored set \
                 (allowed roots: {allowed_roots:?})",
                path.display(),
                lineno + 1,
            );
        }
    }
    // The crate is lib.rs + config/flight/hdr/http/json/ledger/prom/
    // registry/selftime/snapshot/span/trace/work.
    assert!(
        checked >= 9,
        "expected at least 9 source modules, scanned {checked} — \
         did the export backends move?"
    );
}

/// Every `PATHREP_OBS*` environment variable the crate recognizes must be
/// (a) registered in `config::ALL_ENV_VARS` and (b) documented in the
/// repository README, so new export knobs cannot ship silently.
#[test]
fn env_vars_are_registered_and_documented() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut seen = BTreeSet::new();
    for entry in std::fs::read_dir(&src).expect("src/ is readable") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("module is readable");
        let bytes = text.as_bytes();
        let mut i = 0;
        while let Some(off) = text[i..].find("PATHREP_OBS") {
            let start = i + off;
            let mut end = start;
            while end < bytes.len()
                && (bytes[end].is_ascii_uppercase() || bytes[end] == b'_')
            {
                end += 1;
            }
            seen.insert(text[start..end].trim_end_matches('_').to_owned());
            i = end;
        }
    }
    assert!(
        seen.contains("PATHREP_OBS_LEDGER"),
        "ledger env var disappeared from the sources"
    );

    let registered: BTreeSet<String> = pathrep_obs::config::ALL_ENV_VARS
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let unregistered: Vec<_> = seen.difference(&registered).collect();
    assert!(
        unregistered.is_empty(),
        "env vars referenced in sources but missing from config::ALL_ENV_VARS: \
         {unregistered:?}"
    );

    let readme_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/obs sits two levels below the repo root")
        .join("README.md");
    let readme = std::fs::read_to_string(&readme_path).expect("README.md is readable");
    for var in pathrep_obs::config::ALL_ENV_VARS {
        assert!(
            readme.contains(var),
            "`{var}` is recognized by pathrep-obs but undocumented in README.md"
        );
    }
}

#[test]
fn public_surface_denies_missing_docs() {
    let lib = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("src/lib.rs"),
    )
    .expect("lib.rs is readable");
    assert!(
        lib.contains("#![deny(missing_docs)]"),
        "crates/obs/src/lib.rs must keep `#![deny(missing_docs)]`"
    );
}
