//! # camelot-store — a content-addressed certificate cache
//!
//! The paper's economics (§1) hinge on preparing a proof *once* and
//! serving it to arbitrarily many verifiers: verification costs a few
//! evaluations of `P`, preparation costs the distributed encoding
//! rounds. This crate is the piece that makes repeat queries free of
//! rounds: a cache keyed by the *content* of the request — problem
//! family, canonical input, and prime schedule — holding the prepared
//! [`Certificate`]s.
//!
//! Keys are produced by [`cert_key`] (a deterministic 128-bit FNV-1a
//! over length-prefixed byte sections, so concatenation ambiguities
//! cannot alias two requests). Storage is an in-memory LRU of bounded
//! capacity, optionally mirrored to a directory of `<key>.cert` files
//! in the existing `camelot-certificate v1` wire format, so a restarted
//! daemon can serve yesterday's certificates with zero rounds too.
//! Cached certificates are *not* trusted on the way out: the service
//! re-verifies them through `Engine::redeem` (spot checks), so a
//! corrupted cache entry can cause a miss or a rejection, never a wrong
//! answer.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_macros
    )
)]
#![deny(clippy::let_underscore_must_use)]

use camelot_core::Certificate;
use std::collections::HashMap;
use std::path::PathBuf;

/// A 128-bit content address for one prepared certificate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CertKey(pub u128);

impl CertKey {
    /// The key as 32 lowercase hex digits — the on-disk file stem.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// Hashes length-prefixed byte sections into a [`CertKey`]: the content
/// address of a request. Callers pass one section per identity
/// component — problem family tag, canonical input encoding, prime
/// schedule, engine parameters that change the certificate — and the
/// length prefixes guarantee `["ab", "c"]` and `["a", "bc"]` differ.
#[must_use]
pub fn cert_key(parts: &[&[u8]]) -> CertKey {
    let mut hash = FNV_OFFSET;
    let mut absorb = |byte: u8| {
        hash ^= u128::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    };
    for part in parts {
        for byte in (part.len() as u64).to_le_bytes() {
            absorb(byte);
        }
        for &byte in *part {
            absorb(byte);
        }
    }
    CertKey(hash)
}

/// Failures of the persistent layer (the in-memory cache cannot fail).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem trouble creating the directory or writing an entry.
    Io {
        /// What failed, including the underlying error.
        reason: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { reason } => write!(f, "certificate store I/O: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Cache effectiveness counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served (from memory or disk).
    pub hits: usize,
    /// Lookups that found nothing.
    pub misses: usize,
    /// Certificates inserted via [`CertStore::put`].
    pub insertions: usize,
    /// In-memory entries displaced by the LRU bound.
    pub evictions: usize,
}

/// A bounded content-addressed certificate cache: in-memory LRU, with
/// optional directory-backed persistence ([`CertStore::with_dir`]).
#[derive(Debug)]
pub struct CertStore {
    capacity: usize,
    dir: Option<PathBuf>,
    /// Key → (last-use tick, certificate). The tick orders evictions.
    entries: HashMap<u128, (u64, Certificate)>,
    tick: u64,
    stats: StoreStats,
}

impl CertStore {
    /// A purely in-memory store holding at most `capacity` certificates
    /// (at least one entry is always kept).
    #[must_use]
    pub fn in_memory(capacity: usize) -> Self {
        CertStore {
            capacity: capacity.max(1),
            dir: None,
            entries: HashMap::new(),
            tick: 0,
            stats: StoreStats::default(),
        }
    }

    /// A store that additionally mirrors every certificate to
    /// `dir/<key>.cert` (v1 wire format) and falls back to that
    /// directory on in-memory misses — certificates survive both LRU
    /// eviction and daemon restarts.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn with_dir(capacity: usize, dir: PathBuf) -> Result<Self, StoreError> {
        std::fs::create_dir_all(&dir)
            .map_err(|e| StoreError::Io { reason: format!("creating {}: {e}", dir.display()) })?;
        let mut store = CertStore::in_memory(capacity);
        store.dir = Some(dir);
        Ok(store)
    }

    /// Looks the key up: the in-memory tier first (refreshing its LRU
    /// position), then the directory tier. A directory hit is promoted
    /// back into memory. An unreadable or corrupt on-disk entry counts
    /// as a miss — the service then simply re-prepares.
    pub fn get(&mut self, key: &CertKey) -> Option<Certificate> {
        self.tick += 1;
        if let Some((last_use, certificate)) = self.entries.get_mut(&key.0) {
            *last_use = self.tick;
            self.stats.hits += 1;
            return Some(certificate.clone());
        }
        let from_disk = self
            .dir
            .as_ref()
            .and_then(|dir| std::fs::read_to_string(dir.join(format!("{}.cert", key.hex()))).ok())
            .and_then(|text| Certificate::from_wire(&text).ok());
        match from_disk {
            Some(certificate) => {
                self.stats.hits += 1;
                self.insert_in_memory(key, certificate.clone());
                Some(certificate)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores a prepared certificate under its content address, in
    /// memory (evicting the least recently used entry when full) and,
    /// when configured, on disk.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the on-disk mirror cannot be written;
    /// the in-memory entry is kept regardless.
    pub fn put(&mut self, key: &CertKey, certificate: &Certificate) -> Result<(), StoreError> {
        self.tick += 1;
        self.stats.insertions += 1;
        self.insert_in_memory(key, certificate.clone());
        if let Some(dir) = &self.dir {
            let path = dir.join(format!("{}.cert", key.hex()));
            std::fs::write(&path, certificate.to_wire()).map_err(|e| StoreError::Io {
                reason: format!("writing {}: {e}", path.display()),
            })?;
        }
        Ok(())
    }

    /// Inserts into the in-memory tier, evicting the least recently
    /// used entry if the bound would be exceeded.
    fn insert_in_memory(&mut self, key: &CertKey, certificate: Certificate) {
        if !self.entries.contains_key(&key.0) && self.entries.len() >= self.capacity {
            let oldest =
                self.entries.iter().min_by_key(|(_, (last_use, _))| *last_use).map(|(k, _)| *k);
            if let Some(oldest) = oldest {
                self.entries.remove(&oldest);
                self.stats.evictions += 1;
            }
        }
        self.entries.insert(key.0, (self.tick, certificate));
    }

    /// Number of certificates currently held in memory.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// Cache effectiveness counters so far.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_core::PrimeProof;

    fn cert(tag: u64) -> Certificate {
        Certificate {
            proofs: vec![PrimeProof { modulus: 1_048_583, coefficients: vec![tag, 5] }],
            code_length: 8,
            degree_bound: 1,
            identified_faulty_nodes: vec![],
            crashed_nodes: vec![2],
        }
    }

    #[test]
    fn key_is_deterministic_and_prefix_safe() {
        let a = cert_key(&[b"triangles", b"abc", b"smallest"]);
        let b = cert_key(&[b"triangles", b"abc", b"smallest"]);
        assert_eq!(a, b);
        assert_eq!(a.hex().len(), 32);
        // Length prefixes: moving a byte across a section boundary must
        // change the key.
        assert_ne!(cert_key(&[b"ab", b"c"]), cert_key(&[b"a", b"bc"]));
        assert_ne!(cert_key(&[b"abc"]), cert_key(&[b"abc", b""]));
    }

    #[test]
    fn memory_hits_and_misses_are_counted() {
        let mut store = CertStore::in_memory(4);
        let key = cert_key(&[b"k1"]);
        assert!(store.get(&key).is_none());
        store.put(&key, &cert(7)).unwrap();
        assert_eq!(store.get(&key).unwrap(), cert(7));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(store.entries(), 1);
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let mut store = CertStore::in_memory(2);
        let (k1, k2, k3) = (cert_key(&[b"1"]), cert_key(&[b"2"]), cert_key(&[b"3"]));
        store.put(&k1, &cert(1)).unwrap();
        store.put(&k2, &cert(2)).unwrap();
        // Touch k1 so k2 becomes the eviction victim.
        assert!(store.get(&k1).is_some());
        store.put(&k3, &cert(3)).unwrap();
        assert_eq!(store.entries(), 2);
        assert_eq!(store.stats().evictions, 1);
        assert!(store.get(&k1).is_some());
        assert!(store.get(&k3).is_some());
        assert!(store.get(&k2).is_none(), "k2 was least recently used");
    }

    #[test]
    fn directory_tier_survives_eviction_and_restart() {
        let dir = std::env::temp_dir().join(format!("camelot-store-test-{}", std::process::id()));
        let _cleanup = std::fs::remove_dir_all(&dir);
        let (k1, k2) = (cert_key(&[b"x"]), cert_key(&[b"y"]));
        {
            let mut store = CertStore::with_dir(1, dir.clone()).unwrap();
            store.put(&k1, &cert(1)).unwrap();
            store.put(&k2, &cert(2)).unwrap(); // evicts k1 from memory
            assert_eq!(store.entries(), 1);
            // …but k1 is still served, from disk, bit-identically.
            assert_eq!(store.get(&k1).unwrap().to_wire(), cert(1).to_wire());
        }
        // A fresh store over the same directory serves both.
        let mut reopened = CertStore::with_dir(4, dir.clone()).unwrap();
        assert_eq!(reopened.get(&k1).unwrap(), cert(1));
        assert_eq!(reopened.get(&k2).unwrap(), cert(2));
        let stats = reopened.stats();
        assert_eq!((stats.hits, stats.misses), (2, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_disk_entry_is_a_miss_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("camelot-store-bad-{}", std::process::id()));
        let _cleanup = std::fs::remove_dir_all(&dir);
        let mut store = CertStore::with_dir(2, dir.clone()).unwrap();
        let key = cert_key(&[b"corrupt"]);
        std::fs::write(dir.join(format!("{}.cert", key.hex())), "not a certificate").unwrap();
        assert!(store.get(&key).is_none());
        assert_eq!(store.stats().misses, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
