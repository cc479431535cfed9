//! The gates that replaced the retired `uprov-lint` passes, one test per
//! pass it named (docs/ARCHITECTURE.md, "Static analysis & enforced
//! invariants").
//!
//! The panic-free zones, the reasoned escape hatch, the unsafe allowlist
//! and the rustdoc rule are compiler lints, and a lint binds only where it
//! is declared: deleting a declaration silences it without any error. The
//! `*_pass_*` and `config_*` tests pin the declarations. The fsync
//! ordering is the `Synced` type-state in `durable.rs`; its tests drive
//! the write path through a storage that records every mutating call.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::{fs, io};

use uprov_engine::UpdateLog;
use uprov_storage::{DurableEngine, DurableError, MemStorage, Storage, SNAPSHOT_BLOB, WAL_BLOB};

/// Files whose whole non-test body is a panic-free zone.
const MODULE_ZONES: [&str; 5] = [
    "crates/core/src/pool.rs",
    "crates/service/src/proto.rs",
    "crates/storage/src/codec.rs",
    "crates/storage/src/durable.rs",
    "crates/storage/src/wal.rs",
];
/// The snapshot decoder's zone is per function: `encode` may index the
/// vectors it sized itself.
const SNAPSHOT: &str = "crates/storage/src/snapshot.rs";
const DECODE_FNS: [&str; 4] = ["decode", "decode_payload", "decode_tail", "multicore"];
const PANIC_LINTS: [&str; 8] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::indexing_slicing",
    "clippy::string_slice",
];
const ZONE_HEAD: &str = "#![cfg_attr(not(test),deny(";

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A workspace file with all whitespace removed, so the checks do not
/// depend on how rustfmt breaks an attribute across lines.
fn squashed(path: &str) -> String {
    let text = fs::read_to_string(root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"));
    text.chars().filter(|c| !c.is_whitespace()).collect()
}

/// The comma-separated list that follows the first `head` in `text`.
fn list_after(text: &str, head: &str) -> Option<BTreeSet<String>> {
    let start = text.find(head)? + head.len();
    let end = start + text[start..].find(')')?;
    let items = text[start..end].split(',').filter(|s| !s.is_empty());
    Some(items.map(str::to_owned).collect())
}

fn panic_lints() -> BTreeSet<String> {
    PANIC_LINTS.iter().map(|l| l.to_string()).collect()
}

/// Workspace-relative paths of the `.rs` files under `dir`.
fn rust_sources(dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.strip_prefix(root()).unwrap().display().to_string());
        }
    }
}

#[test]
fn config_zone_paths_exist_on_disk() {
    let gate_files = [
        "Cargo.toml",
        "crates/core/Cargo.toml",
        "crates/core/src/lib.rs",
    ];
    for path in MODULE_ZONES.iter().chain(&[SNAPSHOT]).chain(&gate_files) {
        assert!(root().join(path).is_file(), "{path} is missing");
    }
}

#[test]
fn check_file_applies_the_zone_map() {
    let mut files = Vec::new();
    for krate in fs::read_dir(root().join("crates")).unwrap() {
        rust_sources(&krate.unwrap().path().join("src"), &mut files);
    }
    let zoned: BTreeSet<String> = files
        .into_iter()
        .filter(|f| f != SNAPSHOT && squashed(f).contains("deny(clippy::unwrap_used"))
        .collect();
    assert_eq!(zoned, MODULE_ZONES.map(str::to_owned).into(), "zone map");
    for path in MODULE_ZONES {
        let text = squashed(path);
        let lints = list_after(&text, ZONE_HEAD).or_else(|| list_after(&text, "#![deny("));
        assert_eq!(lints, Some(panic_lints()), "{path}");
    }
}

#[test]
fn panic_pass_exempts_test_items() {
    for path in MODULE_ZONES {
        assert!(
            squashed(path).contains(ZONE_HEAD),
            "{path}: gate `#[cfg(test)]` code out"
        );
    }
}

#[test]
fn check_file_scopes_snapshot_zone_to_decode() {
    let text = squashed(SNAPSHOT);
    assert!(
        !text.contains("#![cfg_attr(not(test),deny(clippy"),
        "module-wide zone"
    );
    for name in DECODE_FNS {
        let at = text
            .find(&format!("fn{name}("))
            .unwrap_or_else(|| panic!("fn {name}"));
        let attr = text[..at].rfind("#[deny(").unwrap();
        let lints = list_after(&text[attr..], "#[deny(");
        assert_eq!(lints, Some(panic_lints()), "fn {name}");
        let between = &text[attr + text[attr..].find(")]").unwrap() + 2..at];
        assert!(matches!(between, "" | "pub"), "fn {name}: `{between}`");
    }
}

#[test]
fn panic_pass_honors_reasoned_allow_and_rejects_bare_allow() {
    let workspace = squashed("Cargo.toml");
    let core = squashed("crates/core/Cargo.toml");
    for lint in [
        "allow_attributes=\"deny\"",
        "allow_attributes_without_reason=\"deny\"",
    ] {
        assert!(workspace.contains(lint) && core.contains(lint), "{lint}");
    }
    for krate in fs::read_dir(root().join("crates")).unwrap() {
        let manifest = krate.unwrap().path().join("Cargo.toml");
        let text = squashed(manifest.strip_prefix(root()).unwrap().to_str().unwrap());
        let is_core = manifest.starts_with(root().join("crates/core"));
        let inherits = text.contains("[lints]workspace=true");
        assert_eq!(inherits, !is_core, "{manifest:?}");
    }
}

#[test]
fn unsafe_pass_denies_outside_allowlist() {
    assert!(squashed("Cargo.toml").contains("[workspace.lints.rust]unsafe_code=\"forbid\""));
    assert!(squashed("crates/core/Cargo.toml").contains("[lints.rust]unsafe_code=\"deny\""));
    let core = squashed("crates/core/src/lib.rs");
    let sites: Vec<_> = core.match_indices("#[expect(unsafe_code").collect();
    assert_eq!(sites.len(), 1, "one allowlisted module");
    let (_, item) = core[sites[0].0..].split_once(")]").unwrap();
    assert!(
        item.starts_with("pubmodpool;"),
        "the allowlisted module is `pool`"
    );
}

#[test]
fn unsafe_pass_requires_safety_comment_in_allowlisted_files() {
    let core = squashed("crates/core/Cargo.toml");
    assert!(core.contains("undocumented_unsafe_blocks=\"deny\""));
}

#[test]
fn api_pass_requires_rustdoc_on_public_items() {
    for krate in ["engine", "service", "storage"] {
        let lib = squashed(&format!("crates/{krate}/src/lib.rs"));
        assert!(lib.contains("#![deny(missing_docs)]"), "{krate}");
    }
}

/// A [`MemStorage`] that records every mutating call and can lose its
/// next fsync after the appended bytes landed.
#[derive(Debug, Clone, Default)]
struct Recorder {
    inner: MemStorage,
    ops: Vec<String>,
    fail_next_sync: bool,
}

impl Storage for Recorder {
    fn read(&self, blob: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(blob)
    }
    fn write_atomic(&mut self, blob: &str, bytes: &[u8]) -> io::Result<()> {
        self.ops.push(format!("write_atomic {blob}"));
        self.inner.write_atomic(blob, bytes)
    }
    fn append(&mut self, blob: &str, bytes: &[u8]) -> io::Result<()> {
        self.ops.push(format!("append {blob}"));
        self.inner.append(blob, bytes)
    }
    fn sync(&mut self, blob: &str) -> io::Result<()> {
        self.ops.push(format!("sync {blob}"));
        if std::mem::take(&mut self.fail_next_sync) {
            return Err(io::Error::other("injected fsync failure"));
        }
        self.inner.sync(blob)
    }
    fn truncate(&mut self, blob: &str, len: u64) -> io::Result<()> {
        self.ops.push(format!("truncate {blob} {len}"));
        self.inner.truncate(blob, len)
    }
    fn len(&self, blob: &str) -> io::Result<Option<u64>> {
        self.inner.len(blob)
    }
}

type Db = DurableEngine<Recorder>;

fn log(text: &str) -> UpdateLog {
    text.parse().expect("valid log text")
}

fn batch() -> [UpdateLog; 2] {
    [
        log("begin t2\ndelete b\ncommit\n"),
        log("begin t3\ninsert c\ncommit\n"),
    ]
}

/// An engine over a clean one-record WAL.
fn based() -> Db {
    let (mut db, _) = Db::open(Recorder::default()).unwrap();
    db.append(&log("base a\nbegin t1\ninsert b\ncommit\n"))
        .unwrap();
    db
}

/// [`based`], reopened with its next fsync armed to fail.
fn armed() -> Db {
    let mut storage = based().into_storage();
    storage.fail_next_sync = true;
    Db::open(storage).unwrap().0
}

type WritePath = fn(&mut Db, &[UpdateLog]) -> Result<(), DurableError>;

/// Both write paths: one `append` per log, and one `append_many` group
/// commit.
fn write_paths() -> [(&'static str, WritePath); 2] {
    [
        ("append", |db, logs| {
            logs.iter().try_for_each(|l| db.append(l).map(drop))
        }),
        ("append_many", |db, logs| db.append_many(logs).map(drop)),
    ]
}

#[test]
fn fsync_pass_accepts_the_durable_before_visible_shape() {
    let (append, sync) = (format!("append {WAL_BLOB}"), format!("sync {WAL_BLOB}"));
    for (path, write) in write_paths() {
        let (mut db, _) = Db::open(Recorder::default()).unwrap();
        write(
            &mut db,
            &[log("base b\n"), log("begin t\ndelete b\ncommit\n")],
        )
        .unwrap();
        let barriers = if path == "append" { 2 } else { 1 };
        let want = vec![[append.as_str(), sync.as_str()]; barriers].concat();
        assert_eq!(db.storage().ops, want, "{path}");
        // The disk at this instant recovers exactly what is visible.
        let (recovered, _) = Db::open(db.storage().clone()).unwrap();
        assert_eq!(recovered.seq(), 2, "{path}");
        assert_eq!(recovered.state().to_snapshot(), db.state().to_snapshot());
    }
}

#[test]
fn fsync_pass_flags_state_apply_before_the_barrier() {
    for (path, write) in write_paths() {
        let mut db = armed();
        let before = db.state().to_snapshot();
        let err = write(&mut db, &batch()).expect_err("lost fsync");
        assert!(matches!(err, DurableError::Io(_)), "{path}: {err:?}");
        assert_eq!(db.state().to_snapshot(), before, "{path}: state unchanged");
        assert_eq!(db.seq(), 1, "{path}: seq unchanged");
    }
}

#[test]
fn fsync_pass_flags_visible_mutation_before_the_barrier() {
    for (path, write) in write_paths() {
        let mut db = armed();
        let clean_len = db.storage().inner.blob(WAL_BLOB).unwrap().len();
        write(&mut db, &batch()).expect_err("lost fsync");
        let mark = db.storage().ops.len();
        write(&mut db, &batch()).expect("retry");
        // The known-good WAL length did not move past the failed barrier.
        assert_eq!(
            db.storage().ops[mark],
            format!("truncate {WAL_BLOB} {clean_len}")
        );
        let mut never_failed = based();
        write(&mut never_failed, &batch()).unwrap();
        let wal = |db: &Db| db.storage().inner.blob(WAL_BLOB).unwrap().to_vec();
        assert_eq!(wal(&db), wal(&never_failed), "{path}: repaired WAL");
        assert_eq!(db.seq(), 3, "{path}");
    }
}

#[test]
fn fsync_pass_treats_write_atomic_as_a_barrier_and_reads_as_harmless() {
    let mut db = based();
    let mark = db.storage().ops.len();
    db.certify();
    let (engine, state) = db.query();
    engine.abort_symbolic(state, "t1").unwrap();
    assert_eq!(db.storage().ops.len(), mark, "queries touch no storage");
    db.snapshot().unwrap();
    let want = [
        format!("write_atomic {SNAPSHOT_BLOB}"),
        format!("write_atomic {WAL_BLOB}"),
    ];
    assert_eq!(db.storage().ops[mark..], want, "no separate fsync");
    // The reset WAL is published: the next append needs no repair.
    db.append(&batch()[0]).unwrap();
    assert_eq!(db.storage().ops[mark + 2], format!("append {WAL_BLOB}"));
    let (recovered, _) = Db::open(db.storage().clone()).unwrap();
    assert_eq!(recovered.state().to_snapshot(), db.state().to_snapshot());
    assert_eq!(recovered.seq(), 2);
}
