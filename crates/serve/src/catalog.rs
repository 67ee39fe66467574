//! The named-bit-vector catalog: striped allocation of logical vectors
//! across the shard pool.
//!
//! A vector of `L` rows is *striped*: vector row `i` lives on shard
//! `i mod S` at the next free local row of that shard. Striping makes
//! every shard carry `≈ L / S` rows of every vector, so one logical op
//! decomposes into `S` same-shard batches of equal size — the shape the
//! pool executes concurrently. Because every vector stripes with the
//! same phase (row 0 on shard 0), row `i` of *all* equal-length vectors
//! is co-resident on shard `i mod S`, and a row-wise logic op never
//! needs cross-shard operand movement.

use crate::ServeError;
use felim_arch::geometry::RowId;
use felim_arch::shard::ShardId;
use serde::Serialize;
use std::collections::HashMap;

/// Placement of one named vector.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VectorPlacement {
    /// Rows in the vector.
    pub rows: u64,
    /// For each shard, the first local row of this vector's run there.
    pub shard_base: Vec<u64>,
}

impl VectorPlacement {
    /// Rows of this vector resident on `shard` (stripe arithmetic).
    pub fn rows_on_shard(&self, shard: ShardId, shards: u32) -> u64 {
        let s = u64::from(shard.0);
        let stride = u64::from(shards);
        if s >= self.rows {
            0
        } else {
            (self.rows - s).div_ceil(stride)
        }
    }

    /// The shard and local row holding vector row `i`.
    pub fn locate(&self, i: u64, shards: u32) -> (ShardId, RowId) {
        let shard = (i % u64::from(shards)) as u32;
        let k = i / u64::from(shards);
        (ShardId(shard), RowId(self.shard_base[shard as usize] + k))
    }
}

/// Dense id of a catalog vector: its index in creation order. Vectors
/// are never deleted, so an id names the same vector for the catalog's
/// whole lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct VectorId(usize);

impl VectorId {
    /// The id as a dense index (creation order, from 0).
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// The service's name → placement registry plus the per-shard bump
/// allocator over each shard's usable data rows.
#[derive(Debug, Clone)]
pub struct Catalog {
    shards: u32,
    /// Local data rows available per shard (below the backends' reserved
    /// compute/scratch/spare region).
    data_rows_per_shard: u64,
    next_free: Vec<u64>,
    /// Placements in creation order, indexed by [`VectorId`].
    placements: Vec<VectorPlacement>,
    /// Name → id.
    ids: HashMap<String, VectorId>,
}

impl Catalog {
    /// An empty catalog over `shards` shards with `data_rows_per_shard`
    /// allocatable local rows each.
    pub fn new(shards: u32, data_rows_per_shard: u64) -> Self {
        Self {
            shards,
            data_rows_per_shard,
            next_free: vec![0; shards as usize],
            placements: Vec::new(),
            ids: HashMap::new(),
        }
    }

    /// Registers a new `rows`-row vector under `name`, allocating its
    /// striped placement.
    ///
    /// # Errors
    ///
    /// [`ServeError::VectorExists`] for duplicate names,
    /// [`ServeError::CapacityExhausted`] when any shard's data region
    /// cannot hold its stripe, and [`ServeError::EmptyVector`] for
    /// zero-row vectors.
    pub fn create(&mut self, name: &str, rows: u64) -> Result<&VectorPlacement, ServeError> {
        if rows == 0 {
            return Err(ServeError::EmptyVector {
                vector: name.to_owned(),
            });
        }
        if self.ids.contains_key(name) {
            return Err(ServeError::VectorExists {
                vector: name.to_owned(),
            });
        }
        // Stripe sizes first, so a failed allocation changes nothing.
        let stripe = |s: u64| (rows.saturating_sub(s)).div_ceil(u64::from(self.shards));
        for s in 0..u64::from(self.shards) {
            if self.next_free[s as usize] + stripe(s) > self.data_rows_per_shard {
                return Err(ServeError::CapacityExhausted {
                    shard: ShardId(s as u32),
                    requested_rows: stripe(s),
                    free_rows: self.data_rows_per_shard - self.next_free[s as usize],
                });
            }
        }
        let shard_base = self.next_free.clone();
        for s in 0..u64::from(self.shards) {
            self.next_free[s as usize] += stripe(s);
        }
        let id = VectorId(self.placements.len());
        self.ids.insert(name.to_owned(), id);
        self.placements.push(VectorPlacement { rows, shard_base });
        Ok(self.placement(id))
    }

    /// Looks up a vector's placement.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownVector`] when no such name is registered.
    pub fn get(&self, name: &str) -> Result<&VectorPlacement, ServeError> {
        self.resolve(name).map(|id| self.placement(id))
    }

    /// Looks up a vector's id.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownVector`] when no such name is registered.
    pub(crate) fn resolve(&self, name: &str) -> Result<VectorId, ServeError> {
        self.ids
            .get(name)
            .copied()
            .ok_or_else(|| ServeError::UnknownVector {
                vector: name.to_owned(),
            })
    }

    /// The placement of the vector with id `id` (an id this catalog
    /// handed out).
    pub(crate) fn placement(&self, id: VectorId) -> &VectorPlacement {
        &self.placements[id.0]
    }

    /// Number of registered vectors.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// Is the catalog empty?
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Local rows still allocatable on the fullest shard's complement —
    /// i.e. the largest equal stripe every shard can still take.
    pub fn free_stripe_rows(&self) -> u64 {
        self.next_free
            .iter()
            .map(|&used| self.data_rows_per_shard - used)
            .min()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striping_balances_rows_across_shards() {
        let mut c = Catalog::new(4, 100);
        let p = c.create("v", 10).unwrap().clone();
        assert_eq!(p.rows_on_shard(ShardId(0), 4), 3); // rows 0,4,8
        assert_eq!(p.rows_on_shard(ShardId(1), 4), 3); // rows 1,5,9
        assert_eq!(p.rows_on_shard(ShardId(2), 4), 2); // rows 2,6
        assert_eq!(p.rows_on_shard(ShardId(3), 4), 2); // rows 3,7
        let total: u64 = (0..4).map(|s| p.rows_on_shard(ShardId(s), 4)).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn equal_length_vectors_colocate_rows() {
        let mut c = Catalog::new(3, 100);
        let a = c.create("a", 7).unwrap().clone();
        let b = c.create("b", 7).unwrap().clone();
        for i in 0..7 {
            let (sa, _) = a.locate(i, 3);
            let (sb, _) = b.locate(i, 3);
            assert_eq!(sa, sb, "row {i} must co-locate");
        }
    }

    #[test]
    fn locate_and_bases_are_consistent() {
        let mut c = Catalog::new(2, 100);
        c.create("x", 5).unwrap();
        let y = c.create("y", 4).unwrap().clone();
        // x used 3 rows on shard 0 (rows 0,2,4) and 2 on shard 1 (1,3).
        assert_eq!(y.shard_base, vec![3, 2]);
        assert_eq!(y.locate(0, 2), (ShardId(0), RowId(3)));
        assert_eq!(y.locate(1, 2), (ShardId(1), RowId(2)));
        assert_eq!(y.locate(2, 2), (ShardId(0), RowId(4)));
    }

    #[test]
    fn errors_are_typed_and_atomic() {
        let mut c = Catalog::new(2, 4);
        assert!(matches!(
            c.create("z", 0),
            Err(ServeError::EmptyVector { .. })
        ));
        c.create("a", 8).unwrap(); // fills both shards exactly
        let before = c.free_stripe_rows();
        assert!(matches!(
            c.create("b", 1),
            Err(ServeError::CapacityExhausted { .. })
        ));
        assert_eq!(c.free_stripe_rows(), before, "failed alloc must not leak");
        assert!(matches!(
            c.create("a", 2),
            Err(ServeError::VectorExists { .. })
        ));
        assert!(matches!(c.get("nope"), Err(ServeError::UnknownVector { .. })));
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }
}
