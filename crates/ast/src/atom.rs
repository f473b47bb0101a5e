//! Interned string atoms.
//!
//! An [`Atom`] is a `Copy` `u32` handle to a deduplicated, immortal string.
//! The front end interns every identifier, string literal, and raw literal
//! text once; tokens and AST nodes then carry 4-byte handles instead of
//! per-node `String`s, so cloning a subtree (normalize snapshots, transform
//! output) and comparing names (scope resolution, lint facts) are
//! allocation-free.
//!
//! # Lifetime model
//!
//! Atoms resolve against a single process-global [`Interner`]. The table is
//! append-only: a string, once interned, lives for the remainder of the
//! process (`Box::leak`), which is what makes `Atom::as_str` return
//! `&'static str` with no per-parse lifetime threading through the parser,
//! codegen, lint, flow, features, and normalize layers (the AST is shared
//! across worker threads and replayed out of the verdict cache, so a
//! per-parse interner would have to ride along every one of those paths).
//! Growth is bounded by the number of *unique* strings seen; per-script
//! token budgets (`jsdetect-guard`) bound how much a single hostile input
//! can add. [`Interner::stats`] exposes occupancy for telemetry.
//!
//! # Concurrency
//!
//! Interning takes one sharded mutex (32 shards, hashed by content);
//! resolution is lock-free (two `OnceLock` loads). Atom ids are assigned
//! with an atomic counter, so ids are *not* stable across processes or
//! runs — anything persisted must serialize the resolved string, which is
//! exactly what the serde impls do.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Entries per id-table chunk (chunks are allocated on demand).
const CHUNK: usize = 1 << 12;
/// Default capacity: ~4.2M unique strings.
const DEFAULT_CAP: u32 = 1 << 22;
/// Shard count for the str→id maps (power of two).
const N_SHARDS: usize = 32;

/// A `Copy` handle to an interned string in the process-global
/// [`Interner`].
///
/// Equality and hashing use the `u32` id (valid because interning
/// deduplicates); ordering compares the resolved strings so sorts by name
/// behave exactly as they did with `String` fields.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Atom(u32);

impl Atom {
    /// Interns `s` in the global interner (no-op if already present).
    ///
    /// # Panics
    ///
    /// Panics if the global interner is full (≈4.2M unique strings); the
    /// guarded pipeline's panic fence converts this into a quarantined
    /// outcome rather than a crash.
    pub fn new(s: &str) -> Atom {
        global().intern(s)
    }

    /// The interned empty string (id 0; pre-interned at startup).
    pub fn empty() -> Atom {
        let a = Atom::new("");
        debug_assert_eq!(a.0, 0);
        a
    }

    /// Resolves the atom's text.
    pub fn as_str(self) -> &'static str {
        global().resolve(self)
    }

    /// The raw id. Ids are process-local: never persist them.
    pub fn id(self) -> u32 {
        self.0
    }
}

impl Deref for Atom {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Atom {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Default for Atom {
    fn default() -> Self {
        Atom::empty()
    }
}

impl PartialOrd for Atom {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Atom {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl std::fmt::Debug for Atom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl std::fmt::Display for Atom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Atom {
    fn from(s: &str) -> Atom {
        Atom::new(s)
    }
}

impl From<&String> for Atom {
    fn from(s: &String) -> Atom {
        Atom::new(s)
    }
}

impl From<String> for Atom {
    fn from(s: String) -> Atom {
        Atom::new(&s)
    }
}

impl From<Atom> for String {
    fn from(a: Atom) -> String {
        a.as_str().to_string()
    }
}

impl PartialEq<str> for Atom {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Atom {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Atom {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Atom> for str {
    fn eq(&self, other: &Atom) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Atom> for &str {
    fn eq(&self, other: &Atom) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Atom> for String {
    fn eq(&self, other: &Atom) -> bool {
        self.as_str() == other.as_str()
    }
}

impl serde::Serialize for Atom {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
    }
}

impl serde::Deserialize for Atom {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Str(s) => Ok(Atom::new(s)),
            _ => Err(serde::DeError::expected("string", v)),
        }
    }
}

/// Panic message [`Interner::intern`] (and thus [`Atom::new`]) dies with
/// when the capacity cap is hit. Panic fences match on this substring to
/// reclassify a residual interner panic as a typed resource rejection.
pub const INTERNER_EXHAUSTED_MSG: &str = "interner capacity exhausted";

/// Occupancy statistics for an [`Interner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternerStats {
    /// Number of distinct interned strings.
    pub count: u32,
    /// Total bytes of interned string data.
    pub bytes: usize,
    /// Maximum number of atoms this interner can hold.
    pub capacity: u32,
}

impl InternerStats {
    /// Whether at least `reserve` more atoms fit before the cap.
    pub fn has_headroom(&self, reserve: u32) -> bool {
        self.count.saturating_add(reserve) <= self.capacity
    }

    /// Occupancy as a fraction of capacity (0.0 when the cap is zero).
    pub fn occupancy(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            f64::from(self.count) / f64::from(self.capacity)
        }
    }
}

/// An append-only, deduplicating string table.
///
/// All methods take `&self`; the structure is internally synchronized so
/// one interner can serve every worker thread. Resolution never takes a
/// lock. Standalone instances exist for unit-testing the machinery (and
/// for capacity-limit tests); production code goes through the global
/// instance via [`Atom`].
pub struct Interner {
    shards: Box<[Mutex<Shard>]>,
    /// id → str, in `CHUNK`-sized lazily allocated chunks. `OnceLock` gives
    /// release/acquire publication, so resolution is two atomic loads.
    chunks: Box<[OnceLock<Chunk>]>,
    next: AtomicU32,
    cap: u32,
    bytes: AtomicUsize,
}

/// One dedup shard: interned str → id under this shard's lock.
type Shard = HashMap<&'static str, u32, BuildHasherDefault<FastHasher>>;
/// One lazily allocated block of the id → str table.
type Chunk = Box<[OnceLock<&'static str>]>;

impl std::fmt::Debug for Interner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("Interner")
            .field("count", &s.count)
            .field("bytes", &s.bytes)
            .field("capacity", &s.capacity)
            .finish()
    }
}

impl Default for Interner {
    fn default() -> Self {
        Interner::with_capacity_limit(DEFAULT_CAP)
    }
}

impl Interner {
    /// Creates an interner holding at most `cap` distinct strings. The
    /// empty string is pre-interned as id 0.
    pub fn with_capacity_limit(cap: u32) -> Self {
        let n_chunks = (cap as usize).div_ceil(CHUNK);
        let interner = Interner {
            shards: (0..N_SHARDS).map(|_| Mutex::new(HashMap::default())).collect(),
            chunks: (0..n_chunks).map(|_| OnceLock::new()).collect(),
            next: AtomicU32::new(0),
            cap,
            bytes: AtomicUsize::new(0),
        };
        if cap > 0 {
            let empty = interner.intern("");
            debug_assert_eq!(empty.0, 0);
        }
        interner
    }

    /// Interns `s`, panicking when the capacity limit is reached.
    pub fn intern(&self, s: &str) -> Atom {
        self.try_intern(s).expect(INTERNER_EXHAUSTED_MSG)
    }

    /// Interns `s`, returning `None` when the capacity limit is reached.
    /// Strings already interned always succeed.
    pub fn try_intern(&self, s: &str) -> Option<Atom> {
        let shard = &self.shards[(fast_hash(s.as_bytes()) as usize) & (N_SHARDS - 1)];
        let mut map = shard.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = map.get(s) {
            return Some(Atom(id));
        }
        // Ids are handed out globally; the id-overflow guard re-checks under
        // the shard lock so a full interner keeps failing cleanly instead of
        // wrapping after u32::MAX failed attempts.
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        if id >= self.cap {
            self.next.store(self.cap, Ordering::Relaxed);
            return None;
        }
        let stored: &'static str = Box::leak(s.to_owned().into_boxed_str());
        self.slot(id).set(stored).unwrap_or_else(|_| unreachable!("atom id {} assigned twice", id));
        self.bytes.fetch_add(stored.len(), Ordering::Relaxed);
        map.insert(stored, id);
        Some(Atom(id))
    }

    /// Resolves an atom previously produced by *this* interner.
    pub fn resolve(&self, atom: Atom) -> &'static str {
        self.chunks[atom.0 as usize / CHUNK]
            .get()
            .and_then(|chunk| chunk[atom.0 as usize % CHUNK].get())
            .unwrap_or_else(|| panic!("atom {} not interned here", atom.0))
    }

    /// Occupancy statistics.
    pub fn stats(&self) -> InternerStats {
        InternerStats {
            count: self.next.load(Ordering::Relaxed).min(self.cap),
            bytes: self.bytes.load(Ordering::Relaxed),
            capacity: self.cap,
        }
    }

    fn slot(&self, id: u32) -> &OnceLock<&'static str> {
        let chunk = self.chunks[id as usize / CHUNK].get_or_init(|| {
            (0..CHUNK).map(|_| OnceLock::new()).collect::<Vec<_>>().into_boxed_slice()
        });
        &chunk[id as usize % CHUNK]
    }
}

/// The process-global interner every [`Atom`] resolves against.
pub fn global() -> &'static Interner {
    static GLOBAL: OnceLock<Interner> = OnceLock::new();
    GLOBAL.get_or_init(Interner::default)
}

/// FxHash-style multiply-rotate hasher: strings are short and hashed on
/// every intern, so SipHash's per-byte cost shows up in lex throughput.
#[derive(Default)]
struct FastHasher {
    h: u64,
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.h = fast_hash_fold(self.h, bytes);
    }

    fn finish(&self) -> u64 {
        self.h
    }
}

fn fast_hash(bytes: &[u8]) -> u64 {
    fast_hash_fold(0, bytes)
}

fn fast_hash_fold(seed: u64, bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = seed;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let v = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(5) ^ v).wrapping_mul(K);
    }
    let mut tail = 0u64;
    for (i, &b) in chunks.remainder().iter().enumerate() {
        tail |= (b as u64) << (8 * i);
    }
    // Fold in the length so `"a"` and `"a\0"` diverge even when the tail
    // bytes coincide.
    h = (h.rotate_left(5) ^ tail).wrapping_mul(K);
    (h.rotate_left(5) ^ (bytes.len() as u64)).wrapping_mul(K)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_same_id() {
        let i = Interner::default();
        let a = i.intern("hello");
        let b = i.intern("hello");
        let c = i.intern("world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.resolve(a), "hello");
        assert_eq!(i.resolve(c), "world");
    }

    #[test]
    fn empty_string_is_id_zero() {
        let i = Interner::default();
        assert_eq!(i.intern("").id(), 0);
        assert_eq!(Atom::empty().id(), 0);
        assert!(Atom::empty().is_empty());
    }

    #[test]
    fn capacity_guard_fails_cleanly() {
        // cap 3 = "" + two more; the fourth unique string must not wrap.
        let i = Interner::with_capacity_limit(3);
        let a = i.try_intern("a").unwrap();
        let b = i.try_intern("b").unwrap();
        assert_eq!(i.try_intern("c"), None);
        assert_eq!(i.try_intern("d"), None);
        // Existing strings still intern (dedup path precedes allocation).
        assert_eq!(i.try_intern("a"), Some(a));
        assert_eq!(i.try_intern("b"), Some(b));
        assert_eq!(i.stats().count, 3);
    }

    #[test]
    #[should_panic(expected = "capacity exhausted")]
    fn intern_panics_at_capacity() {
        let i = Interner::with_capacity_limit(1);
        i.intern("overflow");
    }

    #[test]
    fn headroom_and_occupancy_drive_admission_control() {
        // The serve daemon refuses work (`resource` reject) when the
        // global interner cannot guarantee `reserve` more atoms — these
        // are the exact helpers its admission path calls.
        let i = Interner::with_capacity_limit(10);
        i.intern("a"); // count: "" + "a" = 2
        let s = i.stats();
        assert!(s.has_headroom(8), "2 + 8 fits a cap of 10");
        assert!(!s.has_headroom(9), "2 + 9 overflows a cap of 10");
        assert!((s.occupancy() - 0.2).abs() < 1e-9);
        assert!(
            InternerStats { count: u32::MAX - 1, bytes: 0, capacity: u32::MAX }.has_headroom(1),
            "reserve arithmetic must not overflow"
        );
    }

    #[test]
    fn stats_track_bytes() {
        let i = Interner::with_capacity_limit(100);
        i.intern("abcd");
        i.intern("ef");
        i.intern("abcd");
        let s = i.stats();
        assert_eq!(s.count, 3); // "" + 2
        assert_eq!(s.bytes, 6);
        assert_eq!(s.capacity, 100);
    }

    #[test]
    fn atom_str_interop() {
        let a = Atom::new("foo");
        assert_eq!(a, "foo");
        assert_eq!("foo", a);
        assert_eq!(a, String::from("foo"));
        assert_eq!(a.len(), 3);
        assert!(a.starts_with("fo"));
        assert_eq!(format!("{}", a), "foo");
        assert_eq!(format!("{:?}", a), "\"foo\"");
    }

    #[test]
    fn atom_orders_by_string_not_id() {
        // Intern in reverse-lexicographic order so ids disagree with names.
        let z = Atom::new("zed-order-test");
        let a = Atom::new("abc-order-test");
        assert!(a < z);
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, vec![a, z]);
    }

    #[test]
    fn serde_roundtrip_by_string() {
        let a = Atom::new("serde-atom");
        let v = serde::Serialize::to_value(&a);
        assert_eq!(v, serde::Value::Str("serde-atom".into()));
        let back: Atom = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn concurrent_interning_deduplicates() {
        let i = Interner::default();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let i = &i;
                    s.spawn(move || {
                        (0..200)
                            .map(|k| i.intern(&format!("name{}", (k + t) % 50)).id() as u64)
                            .sum::<u64>()
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        // 50 distinct names + "".
        assert_eq!(i.stats().count, 51);
    }

    #[test]
    fn chunk_boundary_resolution() {
        let i = Interner::default();
        let mut atoms = Vec::new();
        for k in 0..(CHUNK + 10) {
            atoms.push((k, i.intern(&format!("k{}", k))));
        }
        for (k, a) in atoms {
            assert_eq!(i.resolve(a), format!("k{}", k));
        }
    }
}
