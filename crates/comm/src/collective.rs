//! Work groups: dynamic subsets of the world that the scheduler
//! assembles per job (§3), so they carry an explicit rank list instead
//! of assuming the full world.

use crate::transport::Rank;

/// An ordered set of ranks forming a work group. The lowest rank is the
/// group's root (the paper's "master worker").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    ranks: Vec<Rank>,
}

impl Group {
    /// Builds a group; ranks are sorted and deduplicated.
    pub fn new(mut ranks: Vec<Rank>) -> Self {
        assert!(!ranks.is_empty(), "a group needs at least one rank");
        ranks.sort_unstable();
        ranks.dedup();
        Group { ranks }
    }

    pub fn ranks(&self) -> &[Rank] {
        &self.ranks
    }

    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    pub fn is_empty(&self) -> bool {
        false // constructor guarantees at least one rank
    }

    /// The master worker of this group.
    pub fn root(&self) -> Rank {
        self.ranks[0]
    }

    pub fn contains(&self, r: Rank) -> bool {
        self.ranks.binary_search(&r).is_ok()
    }

    /// Position of `r` within the group (its group-local index).
    pub fn index_of(&self, r: Rank) -> Option<usize> {
        self.ranks.binary_search(&r).ok()
    }

    /// Splits `n_items` work items into contiguous chunks, one per group
    /// member, balanced to within one item. Returns the `(start, len)` of
    /// the chunk owned by group-local index `idx`.
    pub fn chunk_of(&self, n_items: usize, idx: usize) -> (usize, usize) {
        let g = self.len();
        assert!(idx < g);
        let base = n_items / g;
        let rem = n_items % g;
        let len = base + usize::from(idx < rem);
        let start = idx * base + idx.min(rem);
        (start, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_root_and_index() {
        let g = Group::new(vec![5, 2, 9, 2]);
        assert_eq!(g.ranks(), &[2, 5, 9]);
        assert_eq!(g.root(), 2);
        assert_eq!(g.index_of(5), Some(1));
        assert_eq!(g.index_of(3), None);
        assert!(!g.is_empty());
    }

    #[test]
    fn chunking_is_balanced_and_complete() {
        let g = Group::new(vec![0, 1, 2]);
        let chunks: Vec<_> = (0..3).map(|i| g.chunk_of(10, i)).collect();
        assert_eq!(chunks, vec![(0, 4), (4, 3), (7, 3)]);
        // Chunks tile [0, 10).
        let total: usize = chunks.iter().map(|&(_, l)| l).sum();
        assert_eq!(total, 10);
        // Zero items → all empty.
        assert_eq!(g.chunk_of(0, 1), (0, 0));
    }
}
