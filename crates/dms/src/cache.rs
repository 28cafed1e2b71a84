//! The two-tiered data cache of the DMS (paper §4.2): a primary cache in
//! main memory and an optional secondary cache on a local hard drive.
//! When the primary cache is full, selected blocks are moved down to the
//! secondary cache rather than dropped.
//!
//! The cache handles opaque payloads — "the DMS handles raw data without
//! any information about its type or structure" (§4); size accounting and
//! (for the disk tier) serialization are delegated to the payload type
//! via [`CachePayload`] and [`DiskCodec`].
//!
//! A codec may keep part of a payload in memory rather than write it:
//! [`DiskCodec::encode`] returns that part, the disk tier holds it in the
//! item's entry, and [`DiskCodec::decode`] takes it back. For a data item
//! ([`BlockDataCodec`]) that part is the block's geometry, which every
//! step's item shares, so a spill file holds the velocity alone and a
//! promotion reattaches the very geometry the demotion had.

use crate::name::ItemId;
use crate::policy::ReplacementPolicy;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, Write};
use std::path::PathBuf;
use std::sync::Arc;
use vira_grid::block::CurvilinearBlock;
use vira_grid::field::BlockData;
use vira_obs::json::{self, Json};

/// Anything the cache can hold: must report its own size.
pub trait CachePayload: Send + Sync {
    /// In-memory footprint in bytes, used for capacity accounting.
    fn payload_bytes(&self) -> usize;
}

/// A data item charges the memory tier for its velocity field alone: the
/// geometry is one object per block that every step's item shares
/// ([`BlockData::memory_bytes`]). The disk tier charges the file it
/// writes, which [`BlockDataCodec`] makes the velocity field too: the
/// entry keeps the geometry in memory instead.
impl CachePayload for BlockData {
    fn payload_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

/// Serializer for the disk tier. Application-layer types supply their own
/// encoding (the DMS itself is format-agnostic). The cache hands a codec
/// the spill file itself, unbuffered: move the payload in large slabs.
pub trait DiskCodec<P>: Send + Sync {
    /// The part of a payload that stays in memory while the rest is on
    /// disk; `()` when the file holds all of it.
    type Kept: Send + Sync;

    /// Writes `payload` and returns what the file does not hold.
    fn encode(&self, payload: &P, w: &mut dyn Write) -> io::Result<Self::Kept>;

    /// Reads a payload back, given what [`encode`](Self::encode) kept.
    fn decode(&self, kept: &Self::Kept, r: &mut dyn Read) -> io::Result<P>;
}

/// Codec for raw CFD data items: the file holds the field-only layout of
/// `vira_grid::io` (header and velocity), and the entry keeps the item's
/// geometry.
pub struct BlockDataCodec;

impl DiskCodec<BlockData> for BlockDataCodec {
    type Kept = Arc<CurvilinearBlock>;

    fn encode(&self, item: &BlockData, mut w: &mut dyn Write) -> io::Result<Arc<CurvilinearBlock>> {
        vira_grid::io::write_block_field(&mut w, item).map_err(invalid_data)?;
        Ok(Arc::clone(&item.grid))
    }

    fn decode(&self, grid: &Arc<CurvilinearBlock>, mut r: &mut dyn Read) -> io::Result<BlockData> {
        vira_grid::io::read_block_field(&mut r, grid).map_err(invalid_data)
    }
}

fn invalid_data(e: vira_grid::io::FormatError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Which tier served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Memory,
    Disk,
}

/// Bits in a [`ResidencyDigest`] bitmap (16 × 64-bit words = 128 bytes).
pub const DIGEST_BITS: usize = 1024;
const DIGEST_WORDS: usize = DIGEST_BITS / 64;

/// A compact fingerprint of a cache's resident item set, piggybacked on
/// worker → scheduler frames so placement can prefer warm caches.
///
/// Each resident [`ItemId`] sets bit `id % DIGEST_BITS`; membership
/// queries may therefore over-count (hash collisions) but never
/// under-count — a positive locality score always reflects at least a
/// plausible cached block. An *empty* word vector means "no information"
/// (a proxy that has not reported one), which is distinct from an
/// all-zero digest of a known-empty cache.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResidencyDigest {
    words: Vec<u64>,
}

impl ResidencyDigest {
    /// An all-zero digest of a known-empty cache.
    pub fn empty() -> Self {
        ResidencyDigest {
            words: vec![0; DIGEST_WORDS],
        }
    }

    pub fn from_items<I: IntoIterator<Item = ItemId>>(items: I) -> Self {
        let mut d = Self::empty();
        for id in items {
            d.insert(id);
        }
        d
    }

    fn slot(id: ItemId) -> (usize, u64) {
        let bit = (id.0 % DIGEST_BITS as u64) as usize;
        (bit / 64, 1u64 << (bit % 64))
    }

    /// True when the digest carries no information.
    pub fn is_unknown(&self) -> bool {
        self.words.is_empty()
    }

    pub fn insert(&mut self, id: ItemId) {
        if self.words.len() != DIGEST_WORDS {
            self.words = vec![0; DIGEST_WORDS];
        }
        let (w, mask) = Self::slot(id);
        self.words[w] |= mask;
    }

    pub fn contains(&self, id: ItemId) -> bool {
        let (w, mask) = Self::slot(id);
        self.words.get(w).is_some_and(|word| word & mask != 0)
    }

    /// How many of `items` the digest claims resident. An upper bound:
    /// collisions can inflate it, so use it for *ranking*, not truth.
    pub fn overlap(&self, items: &[ItemId]) -> usize {
        items.iter().filter(|&&id| self.contains(id)).count()
    }

    /// Number of set bits — a collision-folded lower bound on the
    /// distinct resident blocks, good enough for a telemetry gauge.
    pub fn set_bits(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// The digest inside a JSON wire header: `{"words":[…]}`.
    pub fn to_json(&self) -> Json {
        Json::obj([("words", Json::arr(self.words.iter().copied()))])
    }

    /// Inverse of [`Self::to_json`].
    pub fn from_json(j: &Json) -> Result<ResidencyDigest, String> {
        let words = j.req("words", |w| json::list(w, json::u64))?;
        Ok(ResidencyDigest { words })
    }

    /// Little-endian word dump for binary messages such as PONG.
    /// Unknown digests encode as empty.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 8);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Inverse of [`to_bytes`](Self::to_bytes): `None` for any length
    /// but the two it writes, 0 and `DIGEST_BITS / 8`.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if !bytes.is_empty() && bytes.len() != DIGEST_WORDS * 8 {
            return None;
        }
        let words = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect();
        Some(ResidencyDigest { words })
    }
}

/// The primary (main-memory) cache tier.
pub struct MemoryCache<P: CachePayload> {
    map: HashMap<ItemId, Arc<P>>,
    policy: Box<dyn ReplacementPolicy>,
    capacity_bytes: usize,
    used_bytes: usize,
}

impl<P: CachePayload> MemoryCache<P> {
    pub fn new(capacity_bytes: usize, policy: Box<dyn ReplacementPolicy>) -> Self {
        MemoryCache {
            map: HashMap::new(),
            policy,
            capacity_bytes,
            used_bytes: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    pub fn contains(&self, id: ItemId) -> bool {
        self.map.contains_key(&id)
    }

    /// Resident item ids (arbitrary order).
    pub fn resident(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.map.keys().copied()
    }

    /// Looks up an item, updating recency/frequency metadata on hit.
    pub fn get(&mut self, id: ItemId) -> Option<Arc<P>> {
        let hit = self.map.get(&id).cloned();
        if hit.is_some() {
            self.policy.on_access(id);
        }
        hit
    }

    /// Inserts an item, evicting as needed. Returns the evicted items so
    /// the caller can demote them to the secondary tier.
    ///
    /// The new item is always admitted, even if it alone exceeds capacity
    /// (the computation needs it regardless); eviction then empties the
    /// rest of the cache.
    pub fn insert(&mut self, id: ItemId, payload: Arc<P>) -> Vec<(ItemId, Arc<P>)> {
        if self.map.contains_key(&id) {
            // Refresh metadata only; payloads are immutable.
            self.policy.on_access(id);
            return Vec::new();
        }
        let size = payload.payload_bytes();
        let mut evicted = Vec::new();
        while self.used_bytes + size > self.capacity_bytes && !self.map.is_empty() {
            let victim = self
                .policy
                .evict_candidate()
                .expect("non-empty cache must yield a victim");
            let v = self.remove(victim).expect("victim must be resident");
            evicted.push((victim, v));
        }
        self.map.insert(id, payload);
        self.used_bytes += size;
        self.policy.on_insert(id);
        evicted
    }

    /// Removes an item without treating it as an eviction decision.
    pub fn remove(&mut self, id: ItemId) -> Option<Arc<P>> {
        let p = self.map.remove(&id)?;
        self.used_bytes -= p.payload_bytes();
        self.policy.on_remove(id);
        Some(p)
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        let ids: Vec<_> = self.map.keys().copied().collect();
        for id in ids {
            self.remove(id);
        }
    }
}

/// Spill files whose item has left the tier and that wait to be
/// overwritten, at most; beyond it a vacated file is deleted.
const IDLE_FILES: usize = 4;

/// The secondary (local-disk) cache tier: spilled items are serialized to
/// files in a spill directory, and whatever the codec keeps of them stays
/// in their entries.
///
/// A promotion vacates one file and the demotion it causes fills one, so
/// the tier overwrites the file it just vacated instead of deleting it
/// and creating the next: in place there is no directory or inode update
/// and no page-cache page to free and allocate again, which on a
/// journaling file system was most of an L2 hit and the part whose cost
/// swung from run to run. The vacated files (up to [`IDLE_FILES`]) sit on
/// disk beside the `capacity_bytes` of live ones.
pub struct DiskCache<P: CachePayload, C: DiskCodec<P>> {
    dir: PathBuf,
    codec: C,
    map: HashMap<ItemId, Spilled<C::Kept>>,
    /// Vacated spill files with their lengths.
    idle: Vec<(PathBuf, usize)>,
    files_created: u64,
    policy: Box<dyn ReplacementPolicy>,
    capacity_bytes: usize,
    used_bytes: usize,
}

/// One spilled item: its file, the bytes written there, and what the
/// codec kept in memory.
struct Spilled<K> {
    path: PathBuf,
    size: usize,
    kept: K,
}

impl<P: CachePayload, C: DiskCodec<P>> DiskCache<P, C> {
    /// Creates the spill directory if needed.
    pub fn new(
        dir: PathBuf,
        capacity_bytes: usize,
        policy: Box<dyn ReplacementPolicy>,
        codec: C,
    ) -> io::Result<Self> {
        fs::create_dir_all(&dir)?;
        Ok(DiskCache {
            dir,
            codec,
            map: HashMap::new(),
            idle: Vec::new(),
            files_created: 0,
            policy,
            capacity_bytes,
            used_bytes: 0,
        })
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    pub fn contains(&self, id: ItemId) -> bool {
        self.map.contains_key(&id)
    }

    /// Resident (spilled) item ids, arbitrary order.
    pub fn resident(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.map.keys().copied()
    }

    /// A file to spill into and its current length: a vacated one, or a
    /// new name.
    fn vacant_file(&mut self) -> (PathBuf, usize) {
        self.idle.pop().unwrap_or_else(|| {
            self.files_created += 1;
            let name = format!("spill_{}.vbk", self.files_created);
            (self.dir.join(name), 0)
        })
    }

    /// Writes an item to the spill area, evicting (deleting) old spill
    /// files as needed. Items larger than the whole tier are refused.
    /// Returns the ids of items evicted to make room.
    pub fn insert(&mut self, id: ItemId, payload: &P) -> io::Result<Vec<ItemId>> {
        if self.map.contains_key(&id) {
            self.policy.on_access(id);
            return Ok(Vec::new());
        }
        let (path, old_len) = self.vacant_file();
        // Not truncated on open: the payload overwrites what is there.
        let mut open = OpenOptions::new();
        open.write(true).create(true).truncate(false);
        let written = open.open(&path).and_then(|mut f| {
            let kept = self.codec.encode(payload, &mut f)?;
            // Where the codec stopped writing is the file's size.
            let size = f.stream_position()?;
            if size < old_len as u64 {
                f.set_len(size)?;
            }
            Ok((size, kept))
        });
        let (size, kept) = match written {
            Ok((size, kept)) => (size as usize, kept),
            Err(e) => {
                // Nothing in the map would ever delete a partial file.
                let _ = fs::remove_file(&path);
                return Err(e);
            }
        };
        if size > self.capacity_bytes {
            fs::remove_file(&path)?;
            return Err(io::Error::new(
                io::ErrorKind::OutOfMemory,
                "item exceeds disk-cache capacity",
            ));
        }
        let mut evicted = Vec::new();
        while self.used_bytes + size > self.capacity_bytes && !self.map.is_empty() {
            let victim = self
                .policy
                .evict_candidate()
                .expect("non-empty cache must yield a victim");
            self.remove(victim)?;
            evicted.push(victim);
        }
        self.map.insert(id, Spilled { path, size, kept });
        self.used_bytes += size;
        self.policy.on_insert(id);
        Ok(evicted)
    }

    /// Reads an item back from the spill area. An entry whose file no
    /// longer opens or decodes is evicted and reported as a miss (the
    /// source can always reload it), never as a lasting error.
    pub fn get(&mut self, id: ItemId) -> io::Result<Option<P>> {
        let Some(entry) = self.map.get(&id) else {
            return Ok(None);
        };
        let read = File::open(&entry.path).and_then(|mut f| self.codec.decode(&entry.kept, &mut f));
        match read {
            Ok(p) => {
                self.policy.on_access(id);
                Ok(Some(p))
            }
            Err(e) => {
                let fields = [("item", id.0.into()), ("error", e.to_string().into())];
                vira_obs::warn("dms", "spill file unreadable, entry evicted", &fields);
                // Not to be overwritten in place: its length is unknown.
                if let Some((path, _)) = self.forget(id) {
                    let _ = fs::remove_file(path);
                }
                Ok(None)
            }
        }
    }

    /// Drops the entry of `id`; its file and length are the caller's to
    /// dispose of.
    fn forget(&mut self, id: ItemId) -> Option<(PathBuf, usize)> {
        let Spilled { path, size, .. } = self.map.remove(&id)?;
        self.used_bytes -= size;
        self.policy.on_remove(id);
        Some((path, size))
    }

    /// Removes an item; its spill file is kept for the next spill to
    /// overwrite, or deleted when enough are waiting already.
    pub fn remove(&mut self, id: ItemId) -> io::Result<()> {
        if let Some(file) = self.forget(id) {
            if self.idle.len() < IDLE_FILES {
                self.idle.push(file);
            } else {
                let _ = fs::remove_file(file.0);
            }
        }
        Ok(())
    }

    /// Removes all spill files.
    pub fn clear(&mut self) -> io::Result<()> {
        let ids: Vec<_> = self.map.keys().copied().collect();
        for id in ids {
            self.remove(id)?;
        }
        for (path, _) in self.idle.drain(..) {
            let _ = fs::remove_file(path);
        }
        Ok(())
    }
}

impl<P: CachePayload, C: DiskCodec<P>> Drop for DiskCache<P, C> {
    fn drop(&mut self) {
        let _ = self.clear();
        let _ = fs::remove_dir(&self.dir); // only removed if now empty
    }
}

/// The combined two-tier cache used by a data proxy.
pub struct TieredCache<P: CachePayload, C: DiskCodec<P>> {
    l1: MemoryCache<P>,
    l2: Option<DiskCache<P, C>>,
    /// Items that have left both tiers since the last
    /// [`drain_dropped`](Self::drain_dropped) call.
    dropped_log: Vec<ItemId>,
}

impl<P: CachePayload, C: DiskCodec<P>> TieredCache<P, C> {
    pub fn new(l1: MemoryCache<P>, l2: Option<DiskCache<P, C>>) -> Self {
        TieredCache {
            l1,
            l2,
            dropped_log: Vec::new(),
        }
    }

    /// Ids that have been fully dropped (from both tiers) since the last
    /// call; the proxy reports these to the data server so the peer
    /// directory stays accurate.
    pub fn drain_dropped(&mut self) -> Vec<ItemId> {
        std::mem::take(&mut self.dropped_log)
    }

    pub fn l1(&self) -> &MemoryCache<P> {
        &self.l1
    }

    pub fn l2(&self) -> Option<&DiskCache<P, C>> {
        self.l2.as_ref()
    }

    /// Fingerprint of everything resident in either tier — disk hits
    /// are promoted on access, so both tiers count as "warm" for
    /// locality-aware placement.
    pub fn residency_digest(&self) -> ResidencyDigest {
        let mut d = ResidencyDigest::from_items(self.l1.resident());
        if let Some(l2) = self.l2.as_ref() {
            for id in l2.resident() {
                d.insert(id);
            }
        }
        d
    }

    /// Which tier currently holds `id`, if any.
    pub fn locate(&self, id: ItemId) -> Option<Tier> {
        if self.l1.contains(id) {
            Some(Tier::Memory)
        } else if self.l2.as_ref().is_some_and(|l2| l2.contains(id)) {
            Some(Tier::Disk)
        } else {
            None
        }
    }

    /// Looks an item up in both tiers. A disk hit is promoted back into
    /// memory (which may demote something else).
    pub fn get(&mut self, id: ItemId) -> io::Result<Option<(Arc<P>, Tier)>> {
        if let Some(p) = self.l1.get(id) {
            return Ok(Some((p, Tier::Memory)));
        }
        if let Some(l2) = self.l2.as_mut() {
            if let Some(p) = l2.get(id)? {
                let p = Arc::new(p);
                self.insert(id, p.clone())?;
                return Ok(Some((p, Tier::Disk)));
            }
        }
        Ok(None)
    }

    /// Inserts into L1, demoting L1 evictions into L2 when present.
    /// Items that leave the cache entirely are recorded in the dropped
    /// log (see [`drain_dropped`](Self::drain_dropped)) — also when a
    /// spill fails: `id` is then resident, every victim that reached
    /// neither tier is in the log, and the first error is returned.
    pub fn insert(&mut self, id: ItemId, payload: Arc<P>) -> io::Result<()> {
        // The memory copy supersedes a spilled one (a promotion, or a
        // re-insert while demoted): an item lives in one tier at a time.
        if let Some(l2) = self.l2.as_mut() {
            l2.remove(id)?;
        }
        let demoted = self.l1.insert(id, payload);
        let mut first_err = None;
        if let Some(l2) = self.l2.as_mut() {
            for (vid, v) in demoted {
                match l2.insert(vid, &v) {
                    Ok(evicted) => self.dropped_log.extend(evicted),
                    Err(e) => {
                        self.dropped_log.push(vid);
                        // An item too large for the disk tier is just
                        // dropped — it can always be reloaded from its
                        // source.
                        if e.kind() != io::ErrorKind::OutOfMemory {
                            first_err.get_or_insert(e);
                        }
                    }
                }
            }
        } else {
            self.dropped_log
                .extend(demoted.into_iter().map(|(vid, _)| vid));
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Evicts an item from both tiers.
    pub fn remove(&mut self, id: ItemId) -> io::Result<()> {
        self.l1.remove(id);
        if let Some(l2) = self.l2.as_mut() {
            l2.remove(id)?;
        }
        Ok(())
    }

    pub fn clear(&mut self) -> io::Result<()> {
        self.l1.clear();
        if let Some(l2) = self.l2.as_mut() {
            l2.clear()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FbrPolicy, LruPolicy};

    /// A trivially sized payload for cache tests.
    #[derive(Debug, Clone, PartialEq)]
    struct Blob(Vec<u8>);

    impl CachePayload for Blob {
        fn payload_bytes(&self) -> usize {
            self.0.len()
        }
    }

    struct BlobCodec;

    impl DiskCodec<Blob> for BlobCodec {
        type Kept = ();

        fn encode(&self, p: &Blob, w: &mut dyn Write) -> io::Result<()> {
            w.write_all(&p.0)
        }

        fn decode(&self, _: &(), r: &mut dyn Read) -> io::Result<Blob> {
            let mut v = Vec::new();
            r.read_to_end(&mut v)?;
            Ok(Blob(v))
        }
    }

    fn blob(n: usize) -> Arc<Blob> {
        Arc::new(Blob(vec![0xAB; n]))
    }

    fn spill_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vira_dms_cache_{tag}_{}", std::process::id()))
    }

    #[test]
    fn memory_cache_hit_and_miss() {
        let mut c = MemoryCache::new(100, Box::new(LruPolicy::new()));
        assert!(c.get(ItemId(1)).is_none());
        c.insert(ItemId(1), blob(10));
        assert!(c.get(ItemId(1)).is_some());
        assert_eq!(c.used_bytes(), 10);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn memory_cache_evicts_at_capacity() {
        let mut c = MemoryCache::new(25, Box::new(LruPolicy::new()));
        c.insert(ItemId(1), blob(10));
        c.insert(ItemId(2), blob(10));
        let evicted = c.insert(ItemId(3), blob(10));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, ItemId(1), "LRU victim");
        assert!(c.used_bytes() <= 25);
        assert!(!c.contains(ItemId(1)));
    }

    #[test]
    fn oversized_item_is_admitted_alone() {
        let mut c = MemoryCache::new(10, Box::new(LruPolicy::new()));
        c.insert(ItemId(1), blob(5));
        let evicted = c.insert(ItemId(2), blob(50));
        assert_eq!(evicted.len(), 1);
        assert!(c.contains(ItemId(2)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinsert_does_not_double_count() {
        let mut c = MemoryCache::new(100, Box::new(LruPolicy::new()));
        c.insert(ItemId(1), blob(10));
        c.insert(ItemId(1), blob(10));
        assert_eq!(c.used_bytes(), 10);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_releases_bytes() {
        let mut c = MemoryCache::new(100, Box::new(FbrPolicy::new()));
        c.insert(ItemId(1), blob(30));
        assert!(c.remove(ItemId(1)).is_some());
        assert_eq!(c.used_bytes(), 0);
        assert!(c.remove(ItemId(1)).is_none());
    }

    #[test]
    fn disk_cache_roundtrip() {
        let dir = spill_dir("roundtrip");
        let mut c =
            DiskCache::new(dir.clone(), 1000, Box::new(LruPolicy::new()), BlobCodec).unwrap();
        c.insert(ItemId(1), &Blob(vec![1, 2, 3])).unwrap();
        assert_eq!(c.get(ItemId(1)).unwrap().unwrap(), Blob(vec![1, 2, 3]));
        assert_eq!(c.get(ItemId(2)).unwrap(), None);
        assert_eq!(c.len(), 1);
        assert!(c.used_bytes() > 0);
        drop(c);
        assert!(!dir.exists(), "spill dir cleaned up on drop");
    }

    #[test]
    fn disk_cache_evicts_files() {
        let dir = spill_dir("evict");
        let mut c = DiskCache::new(dir, 8, Box::new(LruPolicy::new()), BlobCodec).unwrap();
        c.insert(ItemId(1), &Blob(vec![0; 4])).unwrap();
        c.insert(ItemId(2), &Blob(vec![0; 4])).unwrap();
        c.insert(ItemId(3), &Blob(vec![0; 4])).unwrap();
        assert!(c.used_bytes() <= 8);
        assert!(!c.contains(ItemId(1)));
        // Too-large items are refused.
        assert!(c.insert(ItemId(9), &Blob(vec![0; 64])).is_err());
    }

    fn files_in(dir: &std::path::Path) -> usize {
        fs::read_dir(dir).unwrap().count()
    }

    #[test]
    fn vacated_spill_files_are_overwritten_not_recreated() {
        let dir = spill_dir("reuse");
        let mut c =
            DiskCache::new(dir.clone(), 1000, Box::new(LruPolicy::new()), BlobCodec).unwrap();
        c.insert(ItemId(1), &Blob(vec![1; 40])).unwrap();
        c.insert(ItemId(2), &Blob(vec![2; 40])).unwrap();
        // Promote-then-demote churn, with payloads shorter and longer
        // than what the file held before.
        for n in 3..40u64 {
            c.remove(ItemId(n - 2)).unwrap();
            let blob = Blob(vec![n as u8; 10 + (n as usize * 7) % 50]);
            c.insert(ItemId(n), &blob).unwrap();
            assert_eq!(c.get(ItemId(n)).unwrap().unwrap(), blob, "no stale tail");
            assert_eq!(files_in(&dir), 2, "the vacated file was reused");
        }
        assert_eq!(c.used_bytes(), 10 + (38 * 7) % 50 + 10 + (39 * 7) % 50);
        // No more than IDLE_FILES vacated files wait on disk.
        for n in 40..50u64 {
            c.insert(ItemId(n), &Blob(vec![0; 8])).unwrap();
        }
        for n in 38..50u64 {
            c.remove(ItemId(n)).unwrap();
        }
        assert!(c.is_empty());
        assert_eq!(files_in(&dir), IDLE_FILES);
        c.clear().unwrap();
        assert_eq!(files_in(&dir), 0, "clear deletes the vacated files too");
        drop(c);
        assert!(!dir.exists());
    }

    /// Writes half the payload, then fails — a full disk, say.
    struct FailingCodec;

    impl DiskCodec<Blob> for FailingCodec {
        type Kept = ();

        fn encode(&self, p: &Blob, w: &mut dyn Write) -> io::Result<()> {
            w.write_all(&p.0[..p.0.len() / 2])?;
            Err(io::Error::other("no space left"))
        }

        fn decode(&self, _: &(), _: &mut dyn Read) -> io::Result<Blob> {
            unreachable!("nothing is ever stored")
        }
    }

    #[test]
    fn failed_spill_leaves_no_file_behind() {
        let dir = spill_dir("failed_spill");
        let mut c =
            DiskCache::new(dir.clone(), 1000, Box::new(LruPolicy::new()), FailingCodec).unwrap();
        assert!(c.insert(ItemId(1), &Blob(vec![7; 10])).is_err());
        assert!(!c.contains(ItemId(1)));
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            0,
            "partial file removed"
        );
    }

    /// Overwrites the little-endian word at `at` of the file at `path`.
    fn patch_word(path: &std::path::Path, at: usize, word: u32) {
        let mut bytes = fs::read(path).unwrap();
        bytes[at..at + 4].copy_from_slice(&word.to_le_bytes());
        fs::write(path, bytes).unwrap();
    }

    #[test]
    fn unreadable_spill_file_is_evicted_and_reported_as_a_miss() {
        use vira_grid::block::BlockStepId;
        let ds = vira_grid::synth::test_cube(4, 2);
        let item = |step| Arc::new(ds.generate(BlockStepId::new(0, step)));
        let first = item(0);
        // Each turns the spill file of item 1 into something that is not
        // its field. The header's block id is the word at offset 8, its
        // ni the one at 16.
        type Damage<'a> = (&'a str, &'a dyn Fn(&std::path::Path));
        let damages: [Damage; 5] = [
            ("deleted", &|f| fs::remove_file(f).unwrap()),
            ("a v1 item file", &|f| {
                vira_grid::io::write_block_data(&mut File::create(f).unwrap(), &first).unwrap()
            }),
            ("another block", &|f| patch_word(f, 8, 7)),
            ("other dims", &|f| patch_word(f, 16, 2)),
            ("a truncated velocity slab", &|f| {
                let len = fs::metadata(f).unwrap().len();
                OpenOptions::new()
                    .write(true)
                    .open(f)
                    .unwrap()
                    .set_len(len - 1)
                    .unwrap()
            }),
        ];
        for (n, (damage, apply)) in damages.into_iter().enumerate() {
            let dir = spill_dir(&format!("unreadable_{n}"));
            let l1 = MemoryCache::new(first.payload_bytes() + 1, Box::new(LruPolicy::new()));
            let l2 = DiskCache::new(
                dir.clone(),
                1 << 20,
                Box::new(LruPolicy::new()),
                BlockDataCodec,
            );
            let mut c = TieredCache::new(l1, Some(l2.unwrap()));
            c.insert(ItemId(1), item(0)).unwrap();
            c.insert(ItemId(2), item(1)).unwrap(); // demotes 1 to disk
            assert_eq!(c.locate(ItemId(1)), Some(Tier::Disk));
            let file = dir.join("spill_1.vbk");
            apply(&file);
            assert!(
                c.get(ItemId(1)).unwrap().is_none(),
                "{damage}: a miss, not an error"
            );
            assert_eq!(c.locate(ItemId(1)), None, "{damage}: the entry is gone");
            assert_eq!(c.l2().unwrap().used_bytes(), 0, "{damage}");
            assert!(
                !file.exists(),
                "{damage}: the file is deleted, not kept for reuse"
            );
            // The item can be cached again like any other.
            c.insert(ItemId(1), item(0)).unwrap();
            assert_eq!(c.locate(ItemId(1)), Some(Tier::Memory), "{damage}");
        }
    }

    #[test]
    fn residency_digest_wire_shape_is_pinned() {
        let mut d = ResidencyDigest::empty();
        d.insert(ItemId(0));
        d.insert(ItemId(63));
        d.insert(ItemId(64));
        let zeros = ",0".repeat(DIGEST_WORDS - 2);
        // Bit 63 makes the first word exceed what an f64 holds exactly.
        let text = format!(r#"{{"words":[9223372036854775809,1{zeros}]}}"#);
        assert_eq!(d.to_json().to_string(), text);
        assert_eq!(
            ResidencyDigest::from_json(&json::parse(&text).unwrap()),
            Ok(d.clone())
        );
        assert_eq!(ResidencyDigest::from_json(&d.to_json()), Ok(d));
        // The unknown digest is written as an empty list, never omitted.
        let unknown = ResidencyDigest::default();
        assert_eq!(unknown.to_json().to_string(), r#"{"words":[]}"#);
        assert_eq!(ResidencyDigest::from_json(&unknown.to_json()), Ok(unknown));
        assert!(ResidencyDigest::from_json(&json::parse("{}").unwrap()).is_err());
        assert!(ResidencyDigest::from_json(&json::parse(r#"{"words":[1.5]}"#).unwrap()).is_err());
    }

    #[test]
    fn failed_spill_logs_every_victim_as_dropped() {
        let dir = spill_dir("spill_fails");
        let l1 = MemoryCache::new(100, Box::new(LruPolicy::new()));
        let l2 = DiskCache::new(dir.clone(), 1000, Box::new(LruPolicy::new()), BlobCodec).unwrap();
        let mut c = TieredCache::new(l1, Some(l2));
        c.insert(ItemId(1), blob(40)).unwrap();
        c.insert(ItemId(2), blob(40)).unwrap();
        // With the spill directory gone, every demotion fails.
        fs::remove_dir_all(&dir).unwrap();
        // Item 3 pushes both residents out of the memory tier.
        let err = c.insert(ItemId(3), blob(90)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let mut dropped = c.drain_dropped();
        dropped.sort();
        assert_eq!(
            dropped,
            vec![ItemId(1), ItemId(2)],
            "both victims, not only the first"
        );
        for id in [1, 2, 3].map(ItemId) {
            assert_eq!(
                c.locate(id).is_none(),
                dropped.contains(&id),
                "{id:?}: the log and the tiers must agree"
            );
        }
        assert_eq!(c.locate(ItemId(3)), Some(Tier::Memory));
        assert!(c.drain_dropped().is_empty(), "reported once");
    }

    #[test]
    fn tiered_demotes_and_promotes() {
        let l1 = MemoryCache::new(20, Box::new(LruPolicy::new()));
        let l2 = DiskCache::new(
            spill_dir("tiered"),
            1000,
            Box::new(LruPolicy::new()),
            BlobCodec,
        )
        .unwrap();
        let mut c = TieredCache::new(l1, Some(l2));
        c.insert(ItemId(1), blob(10)).unwrap();
        c.insert(ItemId(2), blob(10)).unwrap();
        // Third insert demotes id 1 to disk.
        c.insert(ItemId(3), blob(10)).unwrap();
        assert_eq!(c.locate(ItemId(1)), Some(Tier::Disk));
        assert_eq!(c.locate(ItemId(3)), Some(Tier::Memory));
        // Disk hit is promoted back to memory.
        let (p, tier) = c.get(ItemId(1)).unwrap().unwrap();
        assert_eq!(tier, Tier::Disk);
        assert_eq!(p.payload_bytes(), 10);
        assert_eq!(c.locate(ItemId(1)), Some(Tier::Memory));
    }

    #[test]
    fn tiered_without_l2_drops_evictions() {
        let l1 = MemoryCache::new(15, Box::new(LruPolicy::new()));
        let mut c: TieredCache<Blob, BlobCodec> = TieredCache::new(l1, None);
        c.insert(ItemId(1), blob(10)).unwrap();
        c.insert(ItemId(2), blob(10)).unwrap();
        assert_eq!(c.locate(ItemId(1)), None);
        assert_eq!(c.get(ItemId(1)).unwrap(), None);
        assert_eq!(c.drain_dropped(), vec![ItemId(1)]);
        assert!(c.drain_dropped().is_empty(), "log drains once");
    }

    #[test]
    fn tiered_with_l2_logs_drops_only_when_both_tiers_evict() {
        let l1 = MemoryCache::new(10, Box::new(LruPolicy::new()));
        let l2 = DiskCache::new(
            spill_dir("droplog"),
            25,
            Box::new(LruPolicy::new()),
            BlobCodec,
        )
        .unwrap();
        let mut c = TieredCache::new(l1, Some(l2));
        // Each blob encodes to 10 bytes: L1 holds 1, L2 holds 2.
        for n in 1..=3 {
            c.insert(ItemId(n), blob(10)).unwrap();
        }
        // 1 and 2 were demoted to disk; nothing fully dropped yet.
        assert!(c.drain_dropped().is_empty());
        c.insert(ItemId(4), blob(10)).unwrap();
        // Demoting 3 evicts 1 from the disk tier entirely.
        assert_eq!(c.drain_dropped(), vec![ItemId(1)]);
    }

    /// Invariant: no item may ever be resident in both tiers at once
    /// (a duplicate would double-count capacity and could serve stale
    /// bytes after a promote).
    fn assert_no_cross_tier_duplicates(c: &TieredCache<Blob, BlobCodec>, universe: &[ItemId]) {
        for &id in universe {
            let in_l1 = c.l1().contains(id);
            let in_l2 = c.l2().is_some_and(|l2| l2.contains(id));
            assert!(
                !(in_l1 && in_l2),
                "item {id:?} resident in both tiers at once"
            );
        }
    }

    #[test]
    fn promote_demote_churn_never_duplicates_across_tiers() {
        let l1 = MemoryCache::new(20, Box::new(LruPolicy::new()));
        let l2 = DiskCache::new(
            spill_dir("churn"),
            1000,
            Box::new(LruPolicy::new()),
            BlobCodec,
        )
        .unwrap();
        let mut c = TieredCache::new(l1, Some(l2));
        let universe: Vec<ItemId> = (1..=6u64).map(ItemId).collect();
        // Deterministic churn: inserts force demotions, gets force
        // promotions (which in turn demote something else) — the
        // duplicate window would open exactly at these transitions.
        for round in 0..4u64 {
            for &id in &universe {
                c.insert(id, blob(10)).unwrap();
                assert_no_cross_tier_duplicates(&c, &universe);
            }
            for &id in &universe {
                if id.0 % (round + 2) == 0 {
                    let _ = c.get(id).unwrap();
                    assert_no_cross_tier_duplicates(&c, &universe);
                }
            }
        }
        // After the churn every resident item is still locatable in
        // exactly one tier.
        for &id in &universe {
            match c.locate(id) {
                Some(Tier::Memory) => assert!(c.l1().contains(id)),
                Some(Tier::Disk) => {
                    assert!(!c.l1().contains(id));
                    assert!(c.l2().unwrap().contains(id));
                }
                None => {
                    assert!(!c.l1().contains(id));
                    assert!(!c.l2().unwrap().contains(id));
                }
            }
        }
    }

    #[test]
    fn forced_promotion_failure_path_keeps_single_residency() {
        // Mirrors the DMS fallback flow: a peer pulls an item out of
        // our disk tier (TieredCache::get promotes it) while inserts
        // keep demoting — at no interleaving point may both tiers hold
        // the same item.
        let l1 = MemoryCache::new(10, Box::new(LruPolicy::new()));
        let l2 = DiskCache::new(
            spill_dir("fallback"),
            25,
            Box::new(LruPolicy::new()),
            BlobCodec,
        )
        .unwrap();
        let mut c = TieredCache::new(l1, Some(l2));
        let universe: Vec<ItemId> = (1..=4u64).map(ItemId).collect();
        c.insert(ItemId(1), blob(10)).unwrap();
        c.insert(ItemId(2), blob(10)).unwrap(); // demotes 1
        assert_eq!(c.locate(ItemId(1)), Some(Tier::Disk));
        // Promote 1 (demotes 2), then immediately re-promote 2: each
        // promote removes the disk copy before reinserting into L1.
        let (_, t) = c.get(ItemId(1)).unwrap().unwrap();
        assert_eq!(t, Tier::Disk);
        assert_no_cross_tier_duplicates(&c, &universe);
        let (_, t) = c.get(ItemId(2)).unwrap().unwrap();
        assert_eq!(t, Tier::Disk);
        assert_no_cross_tier_duplicates(&c, &universe);
        // L2-evicted items land in the dropped log exactly once, never
        // twice (double-reporting would desync the peer directory).
        c.insert(ItemId(3), blob(10)).unwrap();
        c.insert(ItemId(4), blob(10)).unwrap();
        let mut dropped = c.drain_dropped();
        dropped.sort_by_key(|i| i.0);
        let mut dedup = dropped.clone();
        dedup.dedup();
        assert_eq!(dropped, dedup, "dropped log reported an item twice");
        assert_no_cross_tier_duplicates(&c, &universe);
    }

    #[test]
    fn residency_digest_membership_and_roundtrip() {
        let mut d = ResidencyDigest::default();
        assert!(d.is_unknown(), "the default carries no information");
        assert!(!d.contains(ItemId(5)), "unknown digest claims nothing");
        d.insert(ItemId(5));
        d.insert(ItemId(5 + DIGEST_BITS as u64)); // collides with 5
        d.insert(ItemId(77));
        assert!(!d.is_unknown());
        assert!(d.contains(ItemId(5)));
        assert!(
            d.contains(ItemId(5 + DIGEST_BITS as u64)),
            "collision over-counts"
        );
        assert!(!d.contains(ItemId(6)));
        assert_eq!(d.overlap(&[ItemId(5), ItemId(6), ItemId(77)]), 2);
        let bytes = d.to_bytes();
        assert_eq!(bytes.len(), DIGEST_BITS / 8);
        assert_eq!(ResidencyDigest::from_bytes(&bytes), Some(d));
        assert_eq!(
            ResidencyDigest::from_bytes(&bytes[..7]),
            None,
            "torn payload"
        );
        assert_eq!(
            ResidencyDigest::from_bytes(&bytes[..8]),
            None,
            "one word short of 16"
        );
        assert_eq!(
            ResidencyDigest::from_bytes(&[]),
            Some(ResidencyDigest::default()),
            "empty bytes decode to the unknown digest"
        );
    }

    #[test]
    fn tiered_digest_covers_both_tiers() {
        let l1 = MemoryCache::new(10, Box::new(LruPolicy::new()));
        let l2 = DiskCache::new(
            spill_dir("digest"),
            1000,
            Box::new(LruPolicy::new()),
            BlobCodec,
        )
        .unwrap();
        let mut c = TieredCache::new(l1, Some(l2));
        c.insert(ItemId(1), blob(10)).unwrap();
        c.insert(ItemId(2), blob(10)).unwrap(); // demotes 1 to disk
        assert_eq!(c.locate(ItemId(1)), Some(Tier::Disk));
        let d = c.residency_digest();
        assert!(d.contains(ItemId(1)), "disk tier counts as warm");
        assert!(d.contains(ItemId(2)));
        assert!(!d.contains(ItemId(3)));
    }

    #[test]
    fn tiered_remove_and_clear() {
        let l1 = MemoryCache::new(100, Box::new(LruPolicy::new()));
        let l2 = DiskCache::new(
            spill_dir("clear"),
            1000,
            Box::new(LruPolicy::new()),
            BlobCodec,
        )
        .unwrap();
        let mut c = TieredCache::new(l1, Some(l2));
        c.insert(ItemId(1), blob(10)).unwrap();
        c.insert(ItemId(2), blob(10)).unwrap();
        c.remove(ItemId(1)).unwrap();
        assert_eq!(c.locate(ItemId(1)), None);
        c.clear().unwrap();
        assert_eq!(c.locate(ItemId(2)), None);
        assert!(c.l1().is_empty());
    }
}
