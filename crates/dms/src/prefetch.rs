//! System prefetchers of the DMS (paper §4.2).
//!
//! Three families are implemented:
//!
//! * **Sequential** prefetching with one-block-lookahead (OBL) or
//!   prefetch-on-miss, driven by an explicit [`SequenceOrder`] since
//!   "neighbouring relations in 3-dimensional CFD data sets are not
//!   obvious" — the default order is the file order, a topology-aware
//!   (BFS) order can be supplied instead.
//! * **Markov** prefetching of configurable order `n`: learns the
//!   successor relation between requested items over time and predicts
//!   the most likely next item from the last `n` requests.
//! * The paper's **hybrid**: a Markov prefetcher that falls back to OBL
//!   whenever it has no successor information (covering the learning
//!   phase, during which a pure Markov prefetcher issues no useful
//!   prefetches).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use vira_grid::block::{BlockId, BlockStepId};
use vira_grid::synth::DatasetSpec;

/// The explicit "next block" relation used by sequential prefetchers.
///
/// Items are ordered step-major; within a step, blocks follow a
/// permutation (file order by default, or e.g. a topology BFS order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceOrder {
    n_blocks: u32,
    n_steps: u32,
    /// `order[pos]` = block id at position `pos` within a step.
    order: Vec<BlockId>,
    /// Inverse permutation: `pos_of[block] = pos`.
    pos_of: Vec<u32>,
}

impl SequenceOrder {
    /// File order: blocks by ascending id within each step.
    pub fn file_order(spec: &DatasetSpec) -> Self {
        Self::with_block_order(spec, (0..spec.n_blocks).collect())
    }

    /// Custom within-step block permutation (e.g. topology BFS order).
    pub fn with_block_order(spec: &DatasetSpec, order: Vec<BlockId>) -> Self {
        assert_eq!(
            order.len(),
            spec.n_blocks as usize,
            "order must be a permutation"
        );
        let mut pos_of = vec![u32::MAX; spec.n_blocks as usize];
        for (pos, &b) in order.iter().enumerate() {
            assert!(
                (b as usize) < pos_of.len() && pos_of[b as usize] == u32::MAX,
                "order must be a permutation of block ids"
            );
            pos_of[b as usize] = pos as u32;
        }
        SequenceOrder {
            n_blocks: spec.n_blocks,
            n_steps: spec.n_steps,
            order,
            pos_of,
        }
    }

    /// The item following `id` in the global sequence, or `None` at the
    /// end of the dataset.
    pub fn next(&self, id: BlockStepId) -> Option<BlockStepId> {
        if id.block >= self.n_blocks || id.step >= self.n_steps {
            return None;
        }
        let pos = self.pos_of[id.block as usize];
        if pos + 1 < self.n_blocks {
            Some(BlockStepId::new(self.order[(pos + 1) as usize], id.step))
        } else if id.step + 1 < self.n_steps {
            Some(BlockStepId::new(self.order[0], id.step + 1))
        } else {
            None
        }
    }
}

/// A prefetcher observes the demand-request stream and suggests items to
/// load ahead of time.
pub trait Prefetcher: Send {
    fn name(&self) -> &'static str;

    /// Observes a demand request (`was_hit` = served from cache) and
    /// returns the items worth prefetching now.
    fn advise(&mut self, requested: BlockStepId, was_hit: bool) -> Vec<BlockStepId>;

    /// Clears learned state (e.g. between experiments).
    fn reset(&mut self);
}

/// Prefetching disabled.
#[derive(Debug, Default)]
pub struct NoPrefetch;

impl Prefetcher for NoPrefetch {
    fn name(&self) -> &'static str {
        "none"
    }

    fn advise(&mut self, _requested: BlockStepId, _was_hit: bool) -> Vec<BlockStepId> {
        Vec::new()
    }

    fn reset(&mut self) {}
}

/// One-block-lookahead: always prefetch the successor of the requested
/// item.
pub struct OblPrefetch {
    order: Arc<SequenceOrder>,
}

impl OblPrefetch {
    pub fn new(order: Arc<SequenceOrder>) -> Self {
        OblPrefetch { order }
    }
}

impl Prefetcher for OblPrefetch {
    fn name(&self) -> &'static str {
        "obl"
    }

    fn advise(&mut self, requested: BlockStepId, _was_hit: bool) -> Vec<BlockStepId> {
        self.order.next(requested).into_iter().collect()
    }

    fn reset(&mut self) {}
}

/// Prefetch-on-miss: the successor is prefetched only when the triggering
/// request missed the cache.
pub struct PrefetchOnMiss {
    order: Arc<SequenceOrder>,
}

impl PrefetchOnMiss {
    pub fn new(order: Arc<SequenceOrder>) -> Self {
        PrefetchOnMiss { order }
    }
}

impl Prefetcher for PrefetchOnMiss {
    fn name(&self) -> &'static str {
        "prefetch-on-miss"
    }

    fn advise(&mut self, requested: BlockStepId, was_hit: bool) -> Vec<BlockStepId> {
        if was_hit {
            Vec::new()
        } else {
            self.order.next(requested).into_iter().collect()
        }
    }

    fn reset(&mut self) {}
}

/// Markov prefetcher of order `n`: monitors the request sequence, builds
/// a probability graph over (history → successor) transitions, and
/// predicts the most likely next item. With `fallback` set, an OBL
/// suggestion covers histories with no recorded successor (the paper's
/// variation that avoids the unproductive learning phase).
pub struct MarkovPrefetch {
    order_n: usize,
    history: VecDeque<BlockStepId>,
    transitions: HashMap<Vec<BlockStepId>, HashMap<BlockStepId, u32>>,
    fallback: Option<Arc<SequenceOrder>>,
}

impl MarkovPrefetch {
    /// First-order Markov prefetcher without fallback.
    pub fn first_order() -> Self {
        MarkovPrefetch::new(1, None)
    }

    /// The paper's hybrid: first-order Markov with OBL fallback.
    pub fn with_obl_fallback(order: Arc<SequenceOrder>) -> Self {
        MarkovPrefetch::new(1, Some(order))
    }

    pub fn new(order_n: usize, fallback: Option<Arc<SequenceOrder>>) -> Self {
        assert!(order_n >= 1, "markov order must be at least 1");
        MarkovPrefetch {
            order_n,
            history: VecDeque::new(),
            transitions: HashMap::new(),
            fallback,
        }
    }

    /// Number of learned history keys.
    pub fn learned_states(&self) -> usize {
        self.transitions.len()
    }

    /// The current prediction for a given history, if any.
    fn predict(&self, key: &[BlockStepId]) -> Option<BlockStepId> {
        let succ = self.transitions.get(key)?;
        succ.iter()
            // Deterministic argmax: highest count, ties by smallest id.
            .max_by_key(|&(id, &c)| (c, std::cmp::Reverse(*id)))
            .map(|(&id, _)| id)
    }
}

impl Prefetcher for MarkovPrefetch {
    fn name(&self) -> &'static str {
        if self.fallback.is_some() {
            "markov+obl"
        } else {
            "markov"
        }
    }

    fn advise(&mut self, requested: BlockStepId, _was_hit: bool) -> Vec<BlockStepId> {
        // Learn: the full current history (up to order n) led to
        // `requested`.
        if self.history.len() == self.order_n {
            let key: Vec<_> = self.history.iter().copied().collect();
            *self
                .transitions
                .entry(key)
                .or_default()
                .entry(requested)
                .or_insert(0) += 1;
        }
        self.history.push_back(requested);
        if self.history.len() > self.order_n {
            self.history.pop_front();
        }
        // Predict from the updated history.
        if self.history.len() == self.order_n {
            let key: Vec<_> = self.history.iter().copied().collect();
            if let Some(p) = self.predict(&key) {
                return vec![p];
            }
        }
        // Unknown state: fall back to OBL when configured.
        if let Some(order) = &self.fallback {
            return order.next(requested).into_iter().collect();
        }
        Vec::new()
    }

    fn reset(&mut self) {
        self.history.clear();
        self.transitions.clear();
    }
}

/// Builds a prefetcher by configuration name; used by experiments.
pub fn prefetcher_by_name(name: &str, order: Arc<SequenceOrder>) -> Option<Box<dyn Prefetcher>> {
    match name {
        "none" => Some(Box::new(NoPrefetch)),
        "obl" => Some(Box::new(OblPrefetch::new(order))),
        "prefetch-on-miss" => Some(Box::new(PrefetchOnMiss::new(order))),
        "markov" => Some(Box::new(MarkovPrefetch::first_order())),
        "markov2" => Some(Box::new(MarkovPrefetch::new(2, None))),
        "markov+obl" => Some(Box::new(MarkovPrefetch::with_obl_fallback(order))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vira_grid::block::BlockDims;

    fn spec(n_blocks: u32, n_steps: u32) -> DatasetSpec {
        DatasetSpec {
            name: "t".into(),
            n_blocks,
            n_steps,
            block_dims: BlockDims::new(2, 2, 2),
            nominal_disk_bytes: 1 << 20,
            dt: 0.1,
        }
    }

    fn bs(b: u32, s: u32) -> BlockStepId {
        BlockStepId::new(b, s)
    }

    #[test]
    fn file_order_next_walks_blocks_then_steps() {
        let o = SequenceOrder::file_order(&spec(3, 2));
        assert_eq!(o.next(bs(0, 0)), Some(bs(1, 0)));
        assert_eq!(o.next(bs(2, 0)), Some(bs(0, 1)));
        assert_eq!(o.next(bs(2, 1)), None);
        assert_eq!(o.next(bs(9, 0)), None);
    }

    #[test]
    fn custom_order_is_respected() {
        let o = SequenceOrder::with_block_order(&spec(3, 1), vec![2, 0, 1]);
        assert_eq!(o.next(bs(2, 0)), Some(bs(0, 0)));
        assert_eq!(o.next(bs(0, 0)), Some(bs(1, 0)));
        assert_eq!(o.next(bs(1, 0)), None);
    }

    #[test]
    #[should_panic]
    fn non_permutation_order_panics() {
        let _ = SequenceOrder::with_block_order(&spec(3, 1), vec![0, 0, 1]);
    }

    #[test]
    fn obl_always_suggests_successor() {
        let o = Arc::new(SequenceOrder::file_order(&spec(4, 1)));
        let mut p = OblPrefetch::new(o);
        assert_eq!(p.advise(bs(1, 0), true), vec![bs(2, 0)]);
        assert_eq!(p.advise(bs(1, 0), false), vec![bs(2, 0)]);
        assert_eq!(p.advise(bs(3, 0), false), vec![]);
    }

    #[test]
    fn prefetch_on_miss_is_quiet_on_hits() {
        let o = Arc::new(SequenceOrder::file_order(&spec(4, 1)));
        let mut p = PrefetchOnMiss::new(o);
        assert_eq!(p.advise(bs(0, 0), true), vec![]);
        assert_eq!(p.advise(bs(0, 0), false), vec![bs(1, 0)]);
    }

    #[test]
    fn markov_learns_repeated_sequence() {
        let mut p = MarkovPrefetch::first_order();
        let trace = [bs(0, 0), bs(5, 0), bs(2, 0)];
        // Learning pass: no predictions available yet.
        for &t in &trace {
            p.advise(t, false);
        }
        assert_eq!(p.learned_states(), 2);
        // Second pass predicts the learned successors.
        assert_eq!(p.advise(trace[0], true), vec![trace[1]]);
        assert_eq!(p.advise(trace[1], true), vec![trace[2]]);
    }

    #[test]
    fn markov_prediction_tracks_majority() {
        let mut p = MarkovPrefetch::first_order();
        // 0 → 1 twice, 0 → 2 once.
        for succ in [1, 1, 2] {
            p.advise(bs(0, 0), false);
            p.advise(bs(succ, 0), false);
        }
        assert_eq!(p.advise(bs(0, 0), true), vec![bs(1, 0)]);
    }

    #[test]
    fn markov_without_fallback_is_silent_when_unseen() {
        let mut p = MarkovPrefetch::first_order();
        assert_eq!(p.advise(bs(7, 0), false), vec![]);
    }

    #[test]
    fn hybrid_falls_back_to_obl_during_learning() {
        let o = Arc::new(SequenceOrder::file_order(&spec(4, 1)));
        let mut p = MarkovPrefetch::with_obl_fallback(o);
        // Nothing learned yet → OBL suggestion.
        assert_eq!(p.advise(bs(0, 0), false), vec![bs(1, 0)]);
        // Teach a non-sequential transition; it then dominates OBL.
        p.advise(bs(3, 0), false);
        assert_eq!(p.advise(bs(0, 0), false), vec![bs(3, 0)]);
    }

    #[test]
    fn second_order_markov_uses_two_item_history() {
        let mut p = MarkovPrefetch::new(2, None);
        // Sequence a b c, a b c — after (a, b) comes c.
        let (a, b, c) = (bs(0, 0), bs(1, 0), bs(2, 0));
        for _ in 0..2 {
            p.advise(a, false);
            p.advise(b, false);
            p.advise(c, false);
        }
        // Replay "a b" — prediction is c.
        p.advise(a, true);
        assert_eq!(p.advise(b, true), vec![c]);
    }

    #[test]
    fn reset_clears_learning() {
        let mut p = MarkovPrefetch::first_order();
        p.advise(bs(0, 0), false);
        p.advise(bs(1, 0), false);
        assert!(p.learned_states() > 0);
        p.reset();
        assert_eq!(p.learned_states(), 0);
        assert_eq!(p.advise(bs(0, 0), true), vec![]);
    }

    #[test]
    fn factory_builds_all_kinds() {
        let o = Arc::new(SequenceOrder::file_order(&spec(2, 1)));
        for n in ["none", "obl", "prefetch-on-miss", "markov", "markov+obl"] {
            assert_eq!(prefetcher_by_name(n, o.clone()).unwrap().name(), n);
        }
        assert!(prefetcher_by_name("psychic", o).is_none());
    }
}
