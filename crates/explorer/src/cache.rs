//! The content-addressed on-disk point cache: one append-only pack per
//! build.
//!
//! Layout: `<root>/points-<code16>.pack`, where `code16` is the
//! leading 16 hex chars of the build's `CODE_VERSION` fingerprint. Each
//! stored point is one line,
//!
//! ```text
//! <descriptor-hash> <check16> <record>\n
//! ```
//!
//! where `<record>` is the point module's flat record: the schema, the
//! full code version, the descriptor hash and the eight metrics,
//! space-separated in that fixed order. `<check16>` is a 64-bit
//! checksum of the record bytes in 16 lowercase hex digits, and a
//! reader accepts only those exact digits. The
//! full code version is embedded in — and checked against — the record
//! body, so a truncated-prefix collision cannot serve a stale result.
//!
//! A [`store`](PointCache::store) is one `write_all` of one line on an
//! `O_APPEND` handle. A [`load`](PointCache::load) answers from an
//! in-memory `hash → byte ranges` index, read from the pack on a
//! handle's first use and kept current by its stores; the newest line
//! for a hash that validates wins. The index only locates lines: every
//! load re-checks the checksum and then the whole record (schema, code
//! version, descriptor hash, exact field count, every metric). `load`
//! and `store` hash the descriptor they are given; the
//! explorer, which hashes each descriptor once per run, hands that hash
//! to the probe and the store instead.
//!
//! Robustness policy: *any* defect in a line (torn, flipped bytes,
//! wrong schema, wrong code version, hash mismatch) is a miss, never an
//! error — the point simply re-runs and a fresh line is appended. Only
//! a failure to *write* a fresh line surfaces, since it would silently
//! forfeit the warm-run guarantee. Nothing is ever fsynced: a crash
//! can lose or tear the last lines, and a torn line fails its checksum,
//! so it is a miss and never loaded as data. A handle that finds the
//! pack ending in a torn line starts its first append with a newline,
//! so the torn bytes never absorb the next record. A pack has one
//! writer at a time (one `repro explore`); clones of a handle share its
//! index. A code version is one word: with a space in it, no record
//! would have the right field count, and every load would miss.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use crate::descriptor::PointDescriptor;
use crate::point::PointOutcome;

/// The compiled-in source fingerprint (see `build.rs`).
pub const CODE_VERSION: &str = env!("CODE_VERSION");

/// Length of `<check16> ` in front of each record.
const CHECK_PREFIX: usize = 17;

/// Handle on a cache directory for one code version.
#[derive(Debug, Clone)]
pub struct PointCache {
    root: PathBuf,
    code_version: String,
    /// The pack's file and index, opened on first use; shared by clones.
    pack: Arc<Mutex<Option<Pack>>>,
}

/// An opened pack: the file and where each hash's lines sit in it.
#[derive(Debug)]
struct Pack {
    /// The pack file, if it exists: read-only until the first store,
    /// then opened for read + append.
    file: Option<File>,
    writable: bool,
    /// Byte ranges of `<check16> <record>` per descriptor hash, oldest
    /// line first.
    index: HashMap<String, Vec<Range<u64>>>,
    /// The pack may end in a line without its newline.
    torn: bool,
}

impl Pack {
    /// Indexes the pack at `path`; a missing or unreadable pack is an
    /// empty index (every load misses).
    fn open(path: &Path) -> Pack {
        let mut pack = Pack {
            file: None,
            writable: false,
            index: HashMap::new(),
            torn: false,
        };
        let Ok(file) = File::open(path) else {
            return pack;
        };
        let mut reader = BufReader::with_capacity(1 << 16, &file);
        let mut line = Vec::new();
        let mut offset = 0u64;
        loop {
            line.clear();
            let n = match reader.read_until(b'\n', &mut line) {
                Ok(0) => break,
                Ok(n) => n,
                Err(_) => {
                    // Unknown tail: a spare newline before the next
                    // append is harmless, a missing one is not.
                    pack.torn = true;
                    break;
                }
            };
            let start = offset;
            offset += n as u64;
            if line.last() != Some(&b'\n') {
                pack.torn = true;
                break;
            }
            let Some(space) = line.iter().position(|&b| b == b' ') else {
                continue;
            };
            if let Ok(hash) = std::str::from_utf8(&line[..space]) {
                let body = start + space as u64 + 1..offset - 1;
                pack.index.entry(hash.to_string()).or_default().push(body);
            }
        }
        pack.file = Some(file);
        pack
    }

    /// The append handle, opening (and creating) the pack on first use.
    fn writer(&mut self, root: &Path, path: &Path) -> io::Result<&File> {
        if !self.writable {
            fs::create_dir_all(root)?;
            let file = OpenOptions::new()
                .read(true)
                .append(true)
                .create(true)
                .open(path)?;
            self.file = Some(file);
            self.writable = true;
        }
        self.file
            .as_ref()
            .ok_or_else(|| io::Error::other("point cache pack is not open"))
    }

    /// Reads the bytes of one indexed line body.
    fn read(&self, range: &Range<u64>) -> Option<Vec<u8>> {
        let mut file = self.file.as_ref()?;
        let len = usize::try_from(range.end - range.start).ok()?;
        let mut buf = vec![0; len];
        file.seek(SeekFrom::Start(range.start)).ok()?;
        file.read_exact(&mut buf).ok()?;
        Some(buf)
    }
}

/// 64-bit checksum of a record: each 8-byte little-endian word (the
/// tail zero-padded) is xored in and mixed by an odd multiply and an
/// xor-shift, starting from the length. Every step is a bijection of
/// the state, so changing any one word always changes the sum. It
/// guards against torn writes and flipped bytes, not adversaries.
fn checksum(record: &[u8]) -> u64 {
    fn mix(x: u64) -> u64 {
        let x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^ (x >> 32)
    }
    let mut h = mix(record.len() as u64);
    let mut words = record.chunks_exact(8);
    for word in &mut words {
        let mut w = [0u8; 8];
        w.copy_from_slice(word);
        h = mix(h ^ u64::from_le_bytes(w));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut w = [0u8; 8];
        w[..rest.len()].copy_from_slice(rest);
        h = mix(h ^ u64::from_le_bytes(w));
    }
    h
}

/// The `<check16> ` a line carries in front of `record`: its
/// [`checksum`] in 16 lowercase hex digits and a space.
fn check_prefix(record: &[u8]) -> [u8; CHECK_PREFIX] {
    let mut prefix = [b' '; CHECK_PREFIX];
    // Sixteen digits fit in front of the space, so this cannot fail.
    let _ = write!(&mut prefix[..], "{:016x}", checksum(record));
    prefix
}

/// Decodes one `<check16> <record>` line body for `expect`, whose hash
/// is `hash`, or `None` if the check field is not byte for byte the one
/// [`check_prefix`] writes for the record, or the record's own
/// validation fails.
fn decode_line(
    body: &[u8],
    expect: &PointDescriptor,
    hash: &str,
    code_version: &str,
) -> Option<PointOutcome> {
    let (check, record) = body.split_at_checked(CHECK_PREFIX)?;
    if check != check_prefix(record) {
        return None;
    }
    PointOutcome::from_record(record, expect, hash, code_version)
}

impl PointCache {
    /// Opens (without creating) a cache rooted at `root`, keyed for
    /// this build's [`CODE_VERSION`].
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self::with_code_version(root, CODE_VERSION)
    }

    /// Opens a cache keyed for an explicit code version (tests use this
    /// to exercise version-miss behavior).
    pub fn with_code_version(root: impl Into<PathBuf>, code_version: &str) -> Self {
        PointCache {
            root: root.into(),
            code_version: code_version.to_string(),
            pack: Arc::default(),
        }
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The code version records are keyed on.
    pub fn code_version(&self) -> &str {
        &self.code_version
    }

    /// On-disk path of this code version's pack.
    fn pack_path(&self) -> PathBuf {
        let code16 = self.code_version.get(..16).unwrap_or(&self.code_version);
        self.root.join(format!("points-{code16}.pack"))
    }

    /// Runs `f` on the pack, indexing it first if this is the handle's
    /// first use. A panic elsewhere cannot leave the index pointing at
    /// bytes that are not there, so a poisoned lock is still usable.
    fn with_pack<T>(&self, f: impl FnOnce(&mut Pack) -> T) -> T {
        let mut guard = self.pack.lock().unwrap_or_else(PoisonError::into_inner);
        f(guard.get_or_insert_with(|| Pack::open(&self.pack_path())))
    }

    /// Loads a point's cached outcome, or `None` on any miss (absent,
    /// unreadable, corrupt, wrong code version).
    pub fn load(&self, d: &PointDescriptor) -> Option<PointOutcome> {
        self.load_hashed(d, &d.hash())
    }

    /// [`load`](Self::load) for a descriptor whose
    /// [`hash`](PointDescriptor::hash) the caller already holds.
    pub(crate) fn load_hashed(&self, d: &PointDescriptor, hash: &str) -> Option<PointOutcome> {
        self.with_pack(|pack| {
            pack.index
                .get(hash)?
                .iter()
                .rev()
                .find_map(|range| decode_line(&pack.read(range)?, d, hash, &self.code_version))
        })
    }

    /// Appends a point's line to the pack (creating the root and the
    /// pack as needed) with one `write_all`, and indexes it.
    pub fn store(&self, outcome: &PointOutcome) -> io::Result<()> {
        self.store_hashed(outcome, &outcome.descriptor.hash())
    }

    /// [`store`](Self::store) for an outcome whose descriptor's
    /// [`hash`](PointDescriptor::hash) the caller already holds.
    pub(crate) fn store_hashed(&self, outcome: &PointOutcome, hash: &str) -> io::Result<()> {
        let record = outcome.to_record(hash, &self.code_version);
        let mut line = Vec::with_capacity(1 + hash.len() + 1 + CHECK_PREFIX + record.len() + 1);
        self.with_pack(|pack| {
            if pack.torn {
                line.push(b'\n');
            }
            line.extend_from_slice(hash.as_bytes());
            line.push(b' ');
            line.extend_from_slice(&check_prefix(&record));
            line.extend_from_slice(&record);
            line.push(b'\n');
            // Until the write is known whole, the tail may be torn.
            pack.torn = true;
            let mut file = pack.writer(&self.root, &self.pack_path())?;
            file.write_all(&line)?;
            let end = file.stream_position()?;
            pack.torn = false;
            let start = end - 1 - (CHECK_PREFIX + record.len()) as u64;
            pack.index
                .entry(hash.to_string())
                .or_default()
                .push(start..end - 1);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{run_point, RECORD_SCHEMA};
    use crate::space::{grid, GridResolution, SweepScale};
    use testkit::{check_with, gen, Config};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("explorer-cache-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A pack line filed under `hash`, with a correct checksum over
    /// whatever `record` is.
    fn checked_line(hash: &str, record: &str) -> String {
        format!("{hash} {:016x} {record}\n", checksum(record.as_bytes()))
    }

    fn points(n: usize) -> Vec<PointOutcome> {
        let scale = SweepScale {
            requests: 300,
            ..SweepScale::default()
        };
        grid(GridResolution::Coarse, scale)
            .iter()
            .take(n)
            .map(|d| run_point(d).expect("replay succeeds"))
            .collect()
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = tmpdir("roundtrip");
        let cache = PointCache::with_code_version(&dir, "cv-1");
        let out = points(1).remove(0);
        assert!(cache.load(&out.descriptor).is_none(), "cold cache misses");
        cache.store(&out).expect("store succeeds");
        assert_eq!(cache.load(&out.descriptor), Some(out.clone()));
        // A fresh handle indexes the pack from disk.
        let reopened = PointCache::with_code_version(&dir, "cv-1");
        assert_eq!(reopened.load(&out.descriptor), Some(out));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_code_version_misses() {
        let dir = tmpdir("version");
        let out = points(1).remove(0);
        let d = out.descriptor;
        PointCache::with_code_version(&dir, "cv-1")
            .store(&out)
            .expect("store succeeds");
        assert!(PointCache::with_code_version(&dir, "cv-2")
            .load(&d)
            .is_none());
        // Versions sharing a 16-char prefix share a pack, but the
        // embedded full-version check still distinguishes them.
        let long = "0123456789abcdef-a";
        PointCache::with_code_version(&dir, long)
            .store(&out)
            .expect("store succeeds");
        let sibling = PointCache::with_code_version(&dir, "0123456789abcdef-b");
        assert_eq!(
            sibling.pack_path(),
            PointCache::with_code_version(&dir, long).pack_path()
        );
        assert!(sibling.load(&d).is_none());
        assert_eq!(
            PointCache::with_code_version(&dir, long).load(&d),
            Some(out)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_is_a_miss() {
        let dir = tmpdir("corrupt");
        let cache = PointCache::with_code_version(&dir, "cv-1");
        let out = points(1).remove(0);
        let d = out.descriptor;
        cache.store(&out).expect("store succeeds");
        let path = cache.pack_path();
        let good = fs::read(&path).expect("pack written");

        // The pack replaced by garbage.
        fs::write(&path, "garbage\n").expect("clobber");
        assert!(PointCache::with_code_version(&dir, "cv-1")
            .load(&d)
            .is_none());

        // A well-formed record whose value changed: the record still
        // parses, so only the checksum catches it. The line's fields are
        // the hash, the checksum and the record's; `mean_ms` is the
        // record's ninth.
        let text = String::from_utf8(good.clone()).expect("utf8 pack");
        let mut fields: Vec<String> = text.trim_end().split(' ').map(str::to_string).collect();
        assert_eq!(fields[10], out.mean_ms.to_string());
        fields[10] = (out.mean_ms + 1.0).to_string();
        fs::write(&path, fields.join(" ") + "\n").expect("clobber");
        assert!(PointCache::with_code_version(&dir, "cv-1")
            .load(&d)
            .is_none());

        // A line whose checksum is right but whose record is not.
        let record = String::from_utf8(out.to_record(&d.hash(), "cv-1"))
            .expect("record is ASCII")
            .replace(RECORD_SCHEMA, "v0");
        fs::write(&path, checked_line(&d.hash(), &record)).expect("clobber");
        assert!(PointCache::with_code_version(&dir, "cv-1")
            .load(&d)
            .is_none());

        // Restored bytes load again.
        fs::write(&path, good).expect("restore");
        assert_eq!(
            PointCache::with_code_version(&dir, "cv-1").load(&d),
            Some(out)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// The check field loads only as the writer prints it: uppercase
    /// digits, a sign, fifteen digits or one non-hex digit is a miss,
    /// though the rest of the line is intact and a lenient hex parser
    /// could read some of them as the right sum.
    #[test]
    fn check_field_accepts_only_what_the_writer_prints() {
        let dir = tmpdir("check16");
        let out = points(1).remove(0);
        let d = out.descriptor;
        let hash = d.hash();
        let cache = PointCache::with_code_version(&dir, "cv-1");
        cache.store(&out).expect("store succeeds");
        let path = cache.pack_path();
        let record = String::from_utf8(out.to_record(&hash, "cv-1")).expect("record is ASCII");
        let check = format!("{:016x}", checksum(record.as_bytes()));
        let loads = |check: &str| {
            fs::write(&path, format!("{hash} {check} {record}\n")).expect("clobber");
            PointCache::with_code_version(&dir, "cv-1").load(&d)
        };
        assert_ne!(check.to_uppercase(), check, "the sum has a letter digit");
        let mut non_hex = check.clone();
        non_hex.replace_range(7..8, "g");
        for bad in [
            check.to_uppercase(),
            format!("+{check}"),
            format!("+{}", &check[1..]),
            check[1..].to_string(),
            non_hex,
        ] {
            assert_eq!(loads(&bad), None, "check field {bad:?}");
        }
        assert_eq!(loads(&check), Some(out));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A record with a field too many or too few is a miss even when
    /// its checksum is right, wherever the field went.
    #[test]
    fn wrong_field_count_under_a_good_checksum_is_a_miss() {
        let dir = tmpdir("fields");
        let out = points(1).remove(0);
        let d = out.descriptor;
        let hash = d.hash();
        let cache = PointCache::with_code_version(&dir, "cv-1");
        cache.store(&out).expect("store succeeds");
        let path = cache.pack_path();
        let record = String::from_utf8(out.to_record(&hash, "cv-1")).expect("record is ASCII");
        let fields: Vec<&str> = record.split(' ').collect();
        for i in 0..=fields.len() {
            let mut more = fields.clone();
            more.insert(i, "0");
            let mut edits = vec![more];
            if i < fields.len() {
                let mut fewer = fields.clone();
                fewer.remove(i);
                edits.push(fewer);
            }
            for edited in edits {
                fs::write(&path, checked_line(&hash, &edited.join(" "))).expect("clobber");
                assert!(
                    PointCache::with_code_version(&dir, "cv-1")
                        .load(&d)
                        .is_none(),
                    "{} fields, edit at {i}",
                    edited.len()
                );
            }
        }
        // The unedited fields under the same framing load.
        fs::write(&path, checked_line(&hash, &record)).expect("restore");
        assert_eq!(
            PointCache::with_code_version(&dir, "cv-1").load(&d),
            Some(out)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A record stored for one descriptor never loads for another: not
    /// through the index, and not when its line is filed under the
    /// other's hash with a correct checksum.
    #[test]
    fn a_record_never_loads_for_another_descriptor() {
        let dir = tmpdir("other");
        let outs = points(2);
        let (a, b) = (&outs[0], &outs[1]);
        let cache = PointCache::with_code_version(&dir, "cv-1");
        cache.store(a).expect("store succeeds");
        assert!(cache.load(&b.descriptor).is_none());
        let record =
            String::from_utf8(a.to_record(&a.descriptor.hash(), "cv-1")).expect("record is ASCII");
        fs::write(
            cache.pack_path(),
            checked_line(&b.descriptor.hash(), &record),
        )
        .expect("refile");
        let reopened = PointCache::with_code_version(&dir, "cv-1");
        assert!(reopened.load(&b.descriptor).is_none());
        assert!(reopened.load(&a.descriptor).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_valid_line_wins() {
        let dir = tmpdir("newest");
        let cache = PointCache::with_code_version(&dir, "cv-1");
        let old = points(1).remove(0);
        let new = PointOutcome {
            cache_hits: old.cache_hits + 1,
            ..old.clone()
        };
        cache.store(&old).expect("store succeeds");
        cache.store(&new).expect("store succeeds");
        assert_eq!(cache.load(&old.descriptor), Some(new.clone()));
        let reopened = PointCache::with_code_version(&dir, "cv-1");
        assert_eq!(reopened.load(&old.descriptor), Some(new));
        // Tear the newest line: the older one is served again.
        let path = cache.pack_path();
        let bytes = fs::read(&path).expect("pack written");
        fs::write(&path, &bytes[..bytes.len() - 10]).expect("tear");
        let reopened = PointCache::with_code_version(&dir, "cv-1");
        assert_eq!(reopened.load(&old.descriptor), Some(old));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_after_torn_tail_loads_back() {
        let dir = tmpdir("torn");
        let outs = points(2);
        let cache = PointCache::with_code_version(&dir, "cv-1");
        cache.store(&outs[0]).expect("store succeeds");
        let path = cache.pack_path();
        let bytes = fs::read(&path).expect("pack written");
        fs::write(&path, &bytes[..bytes.len() / 2]).expect("tear");
        let cache = PointCache::with_code_version(&dir, "cv-1");
        assert!(
            cache.load(&outs[0].descriptor).is_none(),
            "torn line misses"
        );
        cache.store(&outs[1]).expect("store succeeds");
        assert_eq!(cache.load(&outs[1].descriptor), Some(outs[1].clone()));
        let reopened = PointCache::with_code_version(&dir, "cv-1");
        assert!(reopened.load(&outs[0].descriptor).is_none());
        assert_eq!(reopened.load(&outs[1].descriptor), Some(outs[1].clone()));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Truncating the pack at random offsets, flipping random bytes and
    /// appending garbage never makes a load return anything but the
    /// stored outcome or a miss, and a store afterwards loads back.
    #[test]
    fn damaged_pack_loads_exactly_or_misses() {
        let outs = points(3);
        let dir = tmpdir("damage");
        let pristine = {
            let cache = PointCache::with_code_version(&dir, "cv-1");
            for out in &outs {
                cache.store(out).expect("store succeeds");
            }
            fs::read(cache.pack_path()).expect("pack written")
        };
        let len = pristine.len() as u64;
        let config = Config {
            cases: 256,
            ..Config::default()
        };
        check_with(config, "damaged_pack_loads_exactly_or_misses", |t| {
            let cut = t.draw(&gen::bool_any());
            let cut_at = t.draw(&gen::u64_in(0..=len - 1));
            // Overwritten bytes come from the record's own alphabet as
            // often as not: a digit changed into another digit is the
            // damage a parser cannot see.
            let alphabet = b"0123456789abcdef.-e \n".to_vec();
            let byte = gen::bool_any().and_then(move |plausible| {
                if plausible {
                    gen::one_of(alphabet.clone())
                } else {
                    gen::u32_in(0..=255).map(|b| b as u8)
                }
            });
            let flips = t.draw(&gen::vec_of(
                gen::u64_in(0..=len - 1).map(|p| p as usize),
                0..=4,
            ));
            let flip_to = t.draw(&gen::vec_of(byte, 4..=4));
            let garbage = t.draw(&gen::vec_of(
                gen::one_of(b"0123456789abcdef.-e \n".to_vec()),
                0..=96,
            ));

            let mut bytes = pristine.clone();
            for (&pos, &to) in flips.iter().zip(&flip_to) {
                bytes[pos] = to;
            }
            if cut {
                bytes.truncate(cut_at as usize);
            }
            bytes.extend_from_slice(&garbage);
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("test dir");
            let cache = PointCache::with_code_version(&dir, "cv-1");
            fs::write(cache.pack_path(), &bytes).expect("damaged pack");

            for out in &outs {
                if let Some(got) = cache.load(&out.descriptor) {
                    assert_eq!(&got, out, "a load returned other data");
                }
            }
            cache.store(&outs[0]).expect("store succeeds");
            assert_eq!(cache.load(&outs[0].descriptor).as_ref(), Some(&outs[0]));
            let reopened = PointCache::with_code_version(&dir, "cv-1");
            assert_eq!(reopened.load(&outs[0].descriptor).as_ref(), Some(&outs[0]));
            for out in &outs[1..] {
                if let Some(got) = reopened.load(&out.descriptor) {
                    assert_eq!(&got, out, "a load returned other data");
                }
            }
        });
        let _ = fs::remove_dir_all(&dir);
    }
}
