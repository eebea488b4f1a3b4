//! A shared, thread-safe cache of fabric mappings.
//!
//! The experiment grids of Tables 2/3 sweep one application across
//! `A_FPGA × datapath` configurations, but the fine-grain mapping depends
//! only on the FPGA characterisation and the coarse-grain mapping only on
//! the (datapath, scheduler) pair. A [`MappingCache`] memoises both by
//! those keys (plus a ~128-bit structural fingerprint of the CDFG, so one
//! cache can serve several applications), turning an `A × D × C` sweep over
//! `A` areas, `D` datapaths and `C` constraints into `A + D` mapping
//! computations instead of `A · D · C` of each.
//!
//! Mappings are handed out as [`Arc`]s: repeated lookups of the same
//! configuration return pointer-equal clones with no copying. All methods
//! take `&self` and the cache is `Sync`, so
//! [`run_grid_parallel_jobs`](crate::run_grid_parallel_jobs) shares one
//! cache across its worker threads; a miss is computed while the map lock
//! is held, so each configuration is mapped exactly once even under
//! concurrent lookups.

use crate::CoreError;
use amdrel_cdfg::Cdfg;
use amdrel_coarsegrain::{CdfgCoarseGrainMapping, CgcDatapath, SchedulerConfig};
use amdrel_finegrain::{CdfgFineGrainMapping, FpgaConfigKey, FpgaDevice};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Hit/miss counters of a [`MappingCache`].
///
/// A "miss" is a mapping actually computed, so `fine_misses` /
/// `coarse_misses` count the real mapping work performed through the
/// cache — the quantity the grid runner promises to keep at `A + D`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Fine-grain lookups served from the cache.
    pub fine_hits: u64,
    /// Fine-grain mappings computed (one per distinct FPGA config × CDFG).
    pub fine_misses: u64,
    /// Coarse-grain lookups served from the cache.
    pub coarse_hits: u64,
    /// Coarse-grain mappings computed (one per distinct datapath/scheduler
    /// config × CDFG).
    pub coarse_misses: u64,
    /// Mappings currently resident (fine + coarse map entries). Grows
    /// monotonically — the cache never evicts — so this equals the
    /// distinct configurations mapped so far.
    pub entries: u64,
}

impl CacheStats {
    /// Total lookups served without mapping work.
    pub fn hits(&self) -> u64 {
        self.fine_hits + self.coarse_hits
    }

    /// Total mappings computed.
    pub fn misses(&self) -> u64 {
        self.fine_misses + self.coarse_misses
    }
}

type FineKey = (CdfgFingerprint, FpgaConfigKey);
type CoarseKey = (CdfgFingerprint, CgcDatapath, SchedulerConfig);

/// Memoises [`CdfgFineGrainMapping`]s by FPGA configuration and
/// [`CdfgCoarseGrainMapping`]s by (datapath, scheduler) configuration.
///
/// # Examples
///
/// ```
/// use amdrel_core::{MappingCache, Platform};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), amdrel_core::CoreError> {
/// let program = amdrel_minic::compile(
///     "int x[8]; int main() { int s = 0; for (int i = 0; i < 8; i++) { s += x[i]; } return s; }",
///     "main",
/// ).expect("compiles");
/// let platform = Platform::paper(1500, 2);
/// let cache = MappingCache::new();
/// let a = cache.fine(&program.cdfg, &platform.fpga)?;
/// let b = cache.fine(&program.cdfg, &platform.fpga)?;
/// assert!(Arc::ptr_eq(&a, &b)); // second lookup is a pointer-equal hit
/// assert_eq!(cache.stats().fine_misses, 1);
/// assert_eq!(cache.stats().fine_hits, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct MappingCache {
    fine: Mutex<HashMap<FineKey, Arc<CdfgFineGrainMapping>>>,
    coarse: Mutex<HashMap<CoarseKey, Arc<CdfgCoarseGrainMapping>>>,
    fine_hits: AtomicU64,
    fine_misses: AtomicU64,
    coarse_hits: AtomicU64,
    coarse_misses: AtomicU64,
}

impl MappingCache {
    /// An empty cache.
    pub fn new() -> Self {
        MappingCache::default()
    }

    /// The structural fingerprint of `cdfg` used in the cache keys —
    /// O(nodes + edges) to compute. Callers performing several lookups
    /// for one CDFG (the engine does two per run) can compute it once and
    /// use [`Self::fine_keyed`] / [`Self::coarse_keyed`] instead of
    /// re-hashing per lookup.
    pub fn fingerprint(cdfg: &Cdfg) -> CdfgFingerprint {
        fingerprint(cdfg)
    }

    /// The fine-grain mapping of `cdfg` on `device`, computed on first
    /// use and shared thereafter.
    ///
    /// # Errors
    ///
    /// Propagates the mapping failure of a cache miss.
    pub fn fine(
        &self,
        cdfg: &Cdfg,
        device: &FpgaDevice,
    ) -> Result<Arc<CdfgFineGrainMapping>, CoreError> {
        self.fine_keyed(fingerprint(cdfg), cdfg, device)
    }

    /// [`Self::fine`] with the CDFG fingerprint precomputed by
    /// [`Self::fingerprint`]. `fp` must belong to `cdfg`.
    ///
    /// # Errors
    ///
    /// Propagates the mapping failure of a cache miss.
    pub fn fine_keyed(
        &self,
        fp: CdfgFingerprint,
        cdfg: &Cdfg,
        device: &FpgaDevice,
    ) -> Result<Arc<CdfgFineGrainMapping>, CoreError> {
        let key = (fp, device.config_key());
        let mut map = self.fine.lock().expect("mapping cache lock poisoned");
        match map.entry(key) {
            Entry::Occupied(e) => {
                self.fine_hits.fetch_add(1, Ordering::Relaxed);
                Ok(Arc::clone(e.get()))
            }
            Entry::Vacant(v) => {
                self.fine_misses.fetch_add(1, Ordering::Relaxed);
                let mapping = Arc::new(CdfgFineGrainMapping::map(cdfg, device)?);
                Ok(Arc::clone(v.insert(mapping)))
            }
        }
    }

    /// The coarse-grain mapping of `cdfg` on `datapath` under `scheduler`,
    /// computed on first use and shared thereafter.
    ///
    /// # Errors
    ///
    /// Propagates the mapping failure of a cache miss.
    pub fn coarse(
        &self,
        cdfg: &Cdfg,
        datapath: &CgcDatapath,
        scheduler: &SchedulerConfig,
    ) -> Result<Arc<CdfgCoarseGrainMapping>, CoreError> {
        self.coarse_keyed(fingerprint(cdfg), cdfg, datapath, scheduler)
    }

    /// [`Self::coarse`] with the CDFG fingerprint precomputed by
    /// [`Self::fingerprint`]. `fp` must belong to `cdfg`.
    ///
    /// # Errors
    ///
    /// Propagates the mapping failure of a cache miss.
    pub fn coarse_keyed(
        &self,
        fp: CdfgFingerprint,
        cdfg: &Cdfg,
        datapath: &CgcDatapath,
        scheduler: &SchedulerConfig,
    ) -> Result<Arc<CdfgCoarseGrainMapping>, CoreError> {
        let key = (fp, datapath.clone(), *scheduler);
        let mut map = self.coarse.lock().expect("mapping cache lock poisoned");
        match map.entry(key) {
            Entry::Occupied(e) => {
                self.coarse_hits.fetch_add(1, Ordering::Relaxed);
                Ok(Arc::clone(e.get()))
            }
            Entry::Vacant(v) => {
                self.coarse_misses.fetch_add(1, Ordering::Relaxed);
                let mapping = Arc::new(CdfgCoarseGrainMapping::map(cdfg, datapath, scheduler)?);
                Ok(Arc::clone(v.insert(mapping)))
            }
        }
    }

    /// A snapshot of the hit/miss counters and resident entry count.
    pub fn stats(&self) -> CacheStats {
        let fine_entries = self.fine.lock().expect("mapping cache lock poisoned").len();
        let coarse_entries = self
            .coarse
            .lock()
            .expect("mapping cache lock poisoned")
            .len();
        CacheStats {
            fine_hits: self.fine_hits.load(Ordering::Relaxed),
            fine_misses: self.fine_misses.load(Ordering::Relaxed),
            coarse_hits: self.coarse_hits.load(Ordering::Relaxed),
            coarse_misses: self.coarse_misses.load(Ordering::Relaxed),
            entries: (fine_entries + coarse_entries) as u64,
        }
    }
}

/// An opaque structural fingerprint of a CDFG (see
/// [`MappingCache::fingerprint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CdfgFingerprint((u64, u64));

/// Feeds every write to two differently-salted [`DefaultHasher`]s, giving
/// an effectively 128-bit structural hash — collisions between different
/// CDFGs sharing one cache are then out of practical reach (the cache is
/// not designed against adversarially crafted inputs).
struct PairHasher {
    a: DefaultHasher,
    b: DefaultHasher,
}

impl PairHasher {
    fn new() -> Self {
        let a = DefaultHasher::new();
        let mut b = DefaultHasher::new();
        0xA5A5_5A5A_D1FF_E4E4u64.hash(&mut b);
        PairHasher { a, b }
    }

    fn finish_pair(&self) -> (u64, u64) {
        (self.a.finish(), self.b.finish())
    }
}

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.a.write(bytes);
        self.b.write(bytes);
    }

    fn finish(&self) -> u64 {
        self.a.finish()
    }
}

/// A structural fingerprint of a CDFG: name, control edges, and every
/// block's label, interface widths and DFG (node kinds, bitwidths, data
/// edges). Everything the fabric mappers read is covered, so equal
/// fingerprints mean equal mappings for a given configuration.
fn fingerprint(cdfg: &Cdfg) -> CdfgFingerprint {
    // DefaultHasher::new() is keyed with fixed constants, so the
    // fingerprint is stable within (and across) processes.
    let mut h = PairHasher::new();
    cdfg.name().hash(&mut h);
    cdfg.len().hash(&mut h);
    for (id, bb) in cdfg.iter() {
        bb.label.hash(&mut h);
        bb.live_in.hash(&mut h);
        bb.live_out.hash(&mut h);
        cdfg.succs(id).hash(&mut h);
        bb.dfg.len().hash(&mut h);
        for (nid, node) in bb.dfg.iter() {
            node.kind.hash(&mut h);
            node.bitwidth.hash(&mut h);
            bb.dfg.preds(nid).hash(&mut h);
        }
    }
    CdfgFingerprint(h.finish_pair())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Platform;
    use amdrel_cdfg::{BasicBlock, Dfg, OpKind};

    fn toy_cdfg(name: &str, muls: usize) -> Cdfg {
        let mut cdfg = Cdfg::new(name);
        let mut dfg = Dfg::new("b0");
        let mut prev = dfg.add_op(OpKind::LiveIn, 32);
        for _ in 0..muls {
            let m = dfg.add_op(OpKind::Mul, 32);
            dfg.add_edge(prev, m).unwrap();
            prev = m;
        }
        cdfg.add_block(BasicBlock::from_dfg("b0", dfg));
        cdfg
    }

    #[test]
    fn repeated_fine_lookups_are_pointer_equal() {
        let cdfg = toy_cdfg("app", 3);
        let platform = Platform::paper(1500, 2);
        let cache = MappingCache::new();
        let a = cache.fine(&cdfg, &platform.fpga).unwrap();
        let b = cache.fine(&cdfg, &platform.fpga).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.fine_misses, stats.fine_hits), (1, 1));
    }

    #[test]
    fn repeated_coarse_lookups_are_pointer_equal() {
        let cdfg = toy_cdfg("app", 3);
        let platform = Platform::paper(1500, 2);
        let cache = MappingCache::new();
        let a = cache
            .coarse(&cdfg, &platform.datapath, &platform.scheduler)
            .unwrap();
        let b = cache
            .coarse(&cdfg, &platform.datapath, &platform.scheduler)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.coarse_misses, stats.coarse_hits), (1, 1));
    }

    #[test]
    fn distinct_configs_miss_separately() {
        let cdfg = toy_cdfg("app", 3);
        let cache = MappingCache::new();
        let small = Platform::paper(1500, 2);
        let large = Platform::paper(5000, 3);
        let a = cache.fine(&cdfg, &small.fpga).unwrap();
        let b = cache.fine(&cdfg, &large.fpga).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        let c = cache
            .coarse(&cdfg, &small.datapath, &small.scheduler)
            .unwrap();
        let d = cache
            .coarse(&cdfg, &large.datapath, &large.scheduler)
            .unwrap();
        assert!(!Arc::ptr_eq(&c, &d));
        let stats = cache.stats();
        assert_eq!(stats.misses(), 4);
        assert_eq!(stats.hits(), 0);
        assert_eq!(stats.entries, 4, "every miss leaves a resident mapping");
    }

    #[test]
    fn distinct_cdfgs_do_not_collide() {
        let cache = MappingCache::new();
        let platform = Platform::paper(1500, 2);
        let a = cache.fine(&toy_cdfg("app", 2), &platform.fpga).unwrap();
        let b = cache.fine(&toy_cdfg("app", 9), &platform.fpga).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().fine_misses, 2);
    }

    #[test]
    fn cache_is_send_and_sync() {
        fn assert_traits<T: Send + Sync>() {}
        assert_traits::<MappingCache>();
    }
}
