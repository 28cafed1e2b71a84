//! Block adjacency for multi-block datasets.
//!
//! Neighbour relations are needed in two places: pathline continuation
//! (when a particle leaves a block, only adjacent blocks are candidates)
//! and the "more sophisticated" sequential-prefetch ordering the paper
//! mentions in §4.2 (topology-aware block sequences).
//!
//! Everything here is time-independent, since geometry is static: a
//! block's grid is the same in every `(block, step)` item. That is what
//! lets the topology also own the per-block cell locators.

use crate::block::{BlockId, CurvilinearBlock};
use crate::locator::BlockLocator;
use crate::math::{Aabb, Vec3};
use std::sync::OnceLock;

/// Spatial adjacency between the blocks of one dataset, and the static
/// point-location structures over them.
#[derive(Debug)]
pub struct BlockTopology {
    /// `neighbors[b]` lists the ids of blocks whose (slightly inflated)
    /// bounding boxes intersect block `b`'s, excluding `b` itself.
    neighbors: Vec<Vec<BlockId>>,
    /// The inflated bounding boxes used for point→block candidate lookup.
    bboxes: Vec<Aabb>,
    /// One cell locator per block, built by whoever first needs it and
    /// shared by every trace and thread holding this topology.
    locators: Vec<OnceLock<BlockLocator>>,
}

impl BlockTopology {
    /// Computes adjacency from per-block bounding boxes. `eps` inflates the
    /// boxes before the intersection test so that blocks sharing only an
    /// interface plane still register as neighbours.
    pub fn from_bboxes(bboxes: Vec<Aabb>, eps: f64) -> Self {
        let inflated: Vec<Aabb> = bboxes.iter().map(|b| b.inflate(eps)).collect();
        let mut neighbors = vec![Vec::new(); bboxes.len()];
        for a in 0..inflated.len() {
            for b in (a + 1)..inflated.len() {
                if inflated[a].intersects(&inflated[b]) {
                    neighbors[a].push(b as BlockId);
                    neighbors[b].push(a as BlockId);
                }
            }
        }
        BlockTopology {
            locators: inflated.iter().map(|_| OnceLock::new()).collect(),
            neighbors,
            bboxes: inflated,
        }
    }

    pub fn n_blocks(&self) -> usize {
        self.neighbors.len()
    }

    /// Neighbours of block `b` (ascending id order for ids > b is not
    /// guaranteed; the full list is sorted).
    pub fn neighbors(&self, b: BlockId) -> &[BlockId] {
        &self.neighbors[b as usize]
    }

    /// Inflated bounding box of a block.
    pub fn bbox(&self, b: BlockId) -> &Aabb {
        &self.bboxes[b as usize]
    }

    /// Blocks whose inflated bounding boxes contain `p`, in ascending id
    /// order. Candidates for point location.
    pub fn candidates_for_point(&self, p: Vec3) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.bboxes.len() as BlockId).filter(move |&b| self.bboxes[b as usize].contains(p))
    }

    /// Like [`candidates_for_point`](Self::candidates_for_point) but tries
    /// `hint` first and then its neighbours, and scans globally only when
    /// none of those contains `p` — the common case during particle
    /// tracing.
    pub fn candidates_near(&self, p: Vec3, hint: BlockId) -> impl Iterator<Item = BlockId> + '_ {
        let mut near = std::iter::once(hint)
            .chain(self.neighbors(hint).iter().copied())
            .filter(move |&b| self.bboxes[b as usize].contains(p))
            .peekable();
        let global = near.peek().is_none().then(|| self.candidates_for_point(p));
        near.chain(global.into_iter().flatten())
    }

    /// The cell locator of block `b`, built from `grid` on first use.
    /// `grid` may come from any step's item of that block; one whose
    /// dims or bounding box differ from what the locator was built from
    /// breaks the static-geometry contract and is refused in debug
    /// builds.
    pub fn locator(&self, b: BlockId, grid: &CurvilinearBlock) -> &BlockLocator {
        let locator = self.locators[b as usize].get_or_init(|| BlockLocator::build(grid));
        debug_assert!(
            locator.matches(grid),
            "block {b}: grid geometry differs from the one its locator was built from"
        );
        locator
    }

    /// How many blocks have their locator built.
    pub fn locators_built(&self) -> usize {
        self.locators.iter().filter(|l| l.get().is_some()).count()
    }

    /// A topology-aware sequential ordering of blocks: breadth-first from
    /// block 0, falling back to unvisited lowest-id seeds for disconnected
    /// components. This is the "more sophisticated approach" to defining the
    /// next-block relation suggested in §4.2.
    pub fn bfs_order(&self) -> Vec<BlockId> {
        let n = self.n_blocks();
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut queue = std::collections::VecDeque::new();
        for seed in 0..n {
            if visited[seed] {
                continue;
            }
            visited[seed] = true;
            queue.push_back(seed as BlockId);
            while let Some(b) = queue.pop_front() {
                order.push(b);
                for &nb in self.neighbors(b) {
                    if !visited[nb as usize] {
                        visited[nb as usize] = true;
                        queue.push_back(nb);
                    }
                }
            }
        }
        order
    }
}

/// Builds the topology of a synthetic dataset from its block geometries.
pub fn topology_of(ds: &crate::synth::SyntheticDataset, eps: f64) -> BlockTopology {
    BlockTopology::from_bboxes(ds.blocks().iter().map(|b| *b.bbox()).collect(), eps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_of_boxes(n: usize) -> Vec<Aabb> {
        // n unit cubes side by side along x, touching at faces.
        (0..n)
            .map(|i| {
                Aabb::new(
                    Vec3::new(i as f64, 0.0, 0.0),
                    Vec3::new(i as f64 + 1.0, 1.0, 1.0),
                )
            })
            .collect()
    }

    #[test]
    fn face_adjacent_boxes_are_neighbors() {
        let topo = BlockTopology::from_bboxes(row_of_boxes(4), 1e-9);
        assert_eq!(topo.neighbors(0), &[1]);
        assert_eq!(topo.neighbors(1), &[0, 2]);
        assert_eq!(topo.neighbors(3), &[2]);
    }

    #[test]
    fn distant_boxes_are_not_neighbors() {
        let boxes = vec![
            Aabb::new(Vec3::ZERO, Vec3::splat(1.0)),
            Aabb::new(Vec3::splat(5.0), Vec3::splat(6.0)),
        ];
        let topo = BlockTopology::from_bboxes(boxes, 1e-9);
        assert!(topo.neighbors(0).is_empty());
        assert!(topo.neighbors(1).is_empty());
    }

    #[test]
    fn candidates_for_point() {
        let topo = BlockTopology::from_bboxes(row_of_boxes(3), 1e-9);
        let candidates = |p| topo.candidates_for_point(p).collect::<Vec<_>>();
        assert_eq!(candidates(Vec3::new(0.5, 0.5, 0.5)), vec![0]);
        // A point on the shared face belongs to both.
        assert_eq!(candidates(Vec3::new(1.0, 0.5, 0.5)), vec![0, 1]);
        assert!(candidates(Vec3::new(10.0, 0.0, 0.0)).is_empty());
    }

    #[test]
    fn candidates_near_prefers_hint() {
        let topo = BlockTopology::from_bboxes(row_of_boxes(3), 1e-9);
        let near = |p, hint| topo.candidates_near(p, hint).collect::<Vec<_>>();
        assert_eq!(
            near(Vec3::new(1.0, 0.5, 0.5), 1),
            vec![1, 0],
            "hint block first"
        );
        // Neither the hint nor its neighbour holds the point: global scan.
        assert_eq!(near(Vec3::new(2.5, 0.5, 0.5), 0), vec![2]);
        assert!(near(Vec3::new(10.0, 0.0, 0.0), 0).is_empty());
    }

    #[test]
    fn racing_threads_share_one_locator_per_block() {
        let ds = crate::synth::engine(5);
        let topo = topology_of(&ds, 1e-9);
        let grid = ds.block_geometry(3);
        let barrier = std::sync::Barrier::new(2);
        let racer = || {
            barrier.wait();
            topo.locator(3, grid) as *const BlockLocator as usize
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(racer);
            (racer(), other.join().expect("racer panicked"))
        });
        assert_eq!(a, b, "both threads hold the same locator");
        assert_eq!(topo.locators_built(), 1);
        // A later step's item of the same block finds it built.
        assert_eq!(
            topo.locator(3, &grid.clone()) as *const BlockLocator as usize,
            a
        );
        assert_eq!(topo.locators_built(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "grid geometry differs")]
    fn a_grid_that_is_not_the_blocks_geometry_is_refused() {
        let ds = crate::synth::engine(5);
        let topo = topology_of(&ds, 1e-9);
        topo.locator(3, ds.block_geometry(3));
        // Block 4's grid has the same dims but another bounding box.
        topo.locator(3, ds.block_geometry(4));
    }

    #[test]
    fn bfs_order_visits_every_block_once() {
        let topo = BlockTopology::from_bboxes(row_of_boxes(5), 1e-9);
        let order = topo.bfs_order();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        assert_eq!(order[0], 0);
    }

    #[test]
    fn engine_topology_is_a_ring() {
        let ds = crate::synth::engine(4);
        let topo = topology_of(&ds, 1e-9);
        // Every sector of the cylinder touches its two azimuthal
        // neighbours; curved sectors' AABBs may also clip diagonal ones,
        // but each block has at least 2 neighbours and the graph is
        // connected.
        for b in 0..23 {
            assert!(topo.neighbors(b).len() >= 2, "block {b} under-connected");
        }
        assert_eq!(topo.bfs_order().len(), 23);
    }
}
