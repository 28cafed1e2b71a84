//! The DMS naming service.
//!
//! Paper §4: *"A data item is fully named by a source file, a data type
//! and format as well as an optional parameter list"* — simply using file
//! names would be inadequate because distinct items may derive from the
//! same file. The central data-manager server contains a **name server**
//! handling unambiguous identifiers; proxies include a **name resolver**
//! that translates names to identifiers and vice versa.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};
use vira_grid::block::BlockStepId;

/// Opaque, globally unique identifier assigned by the name server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ItemId(pub u64);

/// Fully qualified name of a data item.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ItemName {
    /// Source of the raw data (a file, a part of a file, or a combination
    /// of files — here: the dataset identifier).
    pub source: String,
    /// Logical data type, e.g. `"block-step"` or `"lambda2-field"`.
    pub data_type: String,
    /// Concrete format, e.g. `"vira-v1"`.
    pub format: String,
    /// Optional parameter list; kept sorted so equal parameter sets
    /// produce equal names.
    pub params: Vec<(String, String)>,
}

impl ItemName {
    pub fn new(
        source: impl Into<String>,
        data_type: impl Into<String>,
        format: impl Into<String>,
        mut params: Vec<(String, String)>,
    ) -> Self {
        params.sort();
        ItemName {
            source: source.into(),
            data_type: data_type.into(),
            format: format.into(),
            params,
        }
    }

    /// Canonical name of a raw `(block, step)` item of a dataset.
    pub fn block_step(dataset: &str, id: BlockStepId) -> Self {
        ItemName::new(
            dataset,
            "block-step",
            "vira-v1",
            vec![
                ("block".into(), id.block.to_string()),
                ("step".into(), id.step.to_string()),
            ],
        )
    }

    /// Name of a derived item (e.g. a λ₂ scalar field computed from a
    /// block), distinguished from the raw data by type and parameters.
    pub fn derived(
        dataset: &str,
        data_type: &str,
        id: BlockStepId,
        extra: Vec<(String, String)>,
    ) -> Self {
        let mut params = vec![
            ("block".into(), id.block.to_string()),
            ("step".into(), id.step.to_string()),
        ];
        params.extend(extra);
        ItemName::new(dataset, data_type, "vira-v1", params)
    }

    /// Parses the `(block, step)` address back out of the parameter list,
    /// if present.
    pub fn block_step_id(&self) -> Option<BlockStepId> {
        let mut block = None;
        let mut step = None;
        for (k, v) in &self.params {
            match k.as_str() {
                "block" => block = v.parse().ok(),
                "step" => step = v.parse().ok(),
                _ => {}
            }
        }
        Some(BlockStepId::new(block?, step?))
    }
}

impl fmt::Display for ItemName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.source, self.data_type, self.format)?;
        for (k, v) in &self.params {
            write!(f, ";{k}={v}")?;
        }
        Ok(())
    }
}

/// The central name server: assigns stable [`ItemId`]s to names.
/// Thread-safe; shared between the data server and all proxies.
#[derive(Debug, Default)]
pub struct NameServer {
    inner: RwLock<NameServerInner>,
}

#[derive(Debug, Default)]
struct NameServerInner {
    by_name: HashMap<ItemName, ItemId>,
    by_id: HashMap<ItemId, ItemName>,
    next: u64,
}

impl NameServer {
    pub fn new() -> Arc<NameServer> {
        Arc::new(NameServer::default())
    }

    /// Returns the id for `name`, assigning a fresh one on first use.
    pub fn register(&self, name: &ItemName) -> ItemId {
        if let Some(&id) = self.inner.read().unwrap().by_name.get(name) {
            return id;
        }
        let mut g = self.inner.write().unwrap();
        // Re-check under the write lock (another thread may have won).
        if let Some(&id) = g.by_name.get(name) {
            return id;
        }
        let id = ItemId(g.next);
        g.next += 1;
        g.by_name.insert(name.clone(), id);
        g.by_id.insert(id, name.clone());
        id
    }

    /// Looks up an already-registered name without assigning.
    pub fn lookup(&self, name: &ItemName) -> Option<ItemId> {
        self.inner.read().unwrap().by_name.get(name).copied()
    }

    /// Reverse lookup.
    pub fn resolve(&self, id: ItemId) -> Option<ItemName> {
        self.inner.read().unwrap().by_id.get(&id).cloned()
    }

    pub fn len(&self) -> usize {
        self.inner.read().unwrap().by_name.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Proxy-side resolver: a local cache over the central [`NameServer`].
/// Proxies ask for block-step items only, so the cache is keyed by
/// dataset, then by block-step: a hit borrows the dataset name and builds
/// no [`ItemName`].
#[derive(Debug)]
pub struct NameResolver {
    server: Arc<NameServer>,
    local: RwLock<HashMap<String, HashMap<BlockStepId, ItemId>>>,
}

impl NameResolver {
    pub fn new(server: Arc<NameServer>) -> Self {
        NameResolver {
            server,
            local: RwLock::new(HashMap::new()),
        }
    }

    /// Id of [`ItemName::block_step`]`(dataset, id)`, consulting the local
    /// cache before the server; the name is built on a miss only.
    pub fn block_step_id(&self, dataset: &str, id: BlockStepId) -> ItemId {
        let local = self.local.read().unwrap();
        if let Some(&item) = local.get(dataset).and_then(|steps| steps.get(&id)) {
            return item;
        }
        drop(local);
        let item = self.server.register(&ItemName::block_step(dataset, id));
        let mut local = self.local.write().unwrap();
        local
            .entry(dataset.to_owned())
            .or_default()
            .insert(id, item);
        item
    }

    /// Id → name (server round trip; ids are not cached locally since
    /// reverse lookups are rare).
    pub fn to_name(&self, id: ItemId) -> Option<ItemName> {
        self.server.resolve(id)
    }

    /// Number of locally cached translations.
    pub fn cached(&self) -> usize {
        self.local.read().unwrap().values().map(HashMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_id() {
        let ns = NameServer::new();
        let n1 = ItemName::block_step("Engine", BlockStepId::new(3, 5));
        let n2 = ItemName::block_step("Engine", BlockStepId::new(3, 5));
        assert_eq!(ns.register(&n1), ns.register(&n2));
        assert_eq!(ns.len(), 1);
    }

    #[test]
    fn different_params_different_ids() {
        let ns = NameServer::new();
        let a = ns.register(&ItemName::block_step("Engine", BlockStepId::new(0, 0)));
        let b = ns.register(&ItemName::block_step("Engine", BlockStepId::new(0, 1)));
        let c = ns.register(&ItemName::block_step("Propfan", BlockStepId::new(0, 0)));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(ns.len(), 3);
    }

    #[test]
    fn derived_items_do_not_collide_with_raw() {
        let ns = NameServer::new();
        let id = BlockStepId::new(1, 2);
        let raw = ns.register(&ItemName::block_step("Engine", id));
        let derived = ns.register(&ItemName::derived(
            "Engine",
            "lambda2-field",
            id,
            vec![("threshold".into(), "-0.01".into())],
        ));
        assert_ne!(raw, derived);
    }

    #[test]
    fn param_order_does_not_matter() {
        let a = ItemName::new(
            "s",
            "t",
            "f",
            vec![("x".into(), "1".into()), ("a".into(), "2".into())],
        );
        let b = ItemName::new(
            "s",
            "t",
            "f",
            vec![("a".into(), "2".into()), ("x".into(), "1".into())],
        );
        assert_eq!(a, b);
    }

    #[test]
    fn reverse_lookup() {
        let ns = NameServer::new();
        let name = ItemName::block_step("Engine", BlockStepId::new(7, 9));
        let id = ns.register(&name);
        assert_eq!(ns.resolve(id).unwrap(), name);
        assert_eq!(ns.resolve(ItemId(999)), None);
        assert_eq!(name.block_step_id(), Some(BlockStepId::new(7, 9)));
    }

    #[test]
    fn lookup_does_not_register() {
        let ns = NameServer::new();
        let name = ItemName::block_step("Engine", BlockStepId::new(0, 0));
        assert_eq!(ns.lookup(&name), None);
        assert!(ns.is_empty());
        let id = ns.register(&name);
        assert_eq!(ns.lookup(&name), Some(id));
    }

    #[test]
    fn resolver_caches_translations() {
        let ns = NameServer::new();
        let r = NameResolver::new(ns.clone());
        let id1 = r.block_step_id("Engine", BlockStepId::new(2, 2));
        let id2 = r.block_step_id("Engine", BlockStepId::new(2, 2));
        assert_eq!(id1, id2);
        let name = ItemName::block_step("Engine", BlockStepId::new(2, 2));
        assert_eq!(r.cached(), 1);
        assert_eq!(r.to_name(id1).unwrap(), name);
    }

    #[test]
    fn block_step_lookup_matches_the_built_name() {
        let ns = NameServer::new();
        let r = NameResolver::new(ns.clone());
        for (b, s) in [(0, 0), (7, 10), (143, 49), (u32::MAX, 1_000_000_007)] {
            let id = BlockStepId::new(b, s);
            for dataset in ["Propfan", "Engine"] {
                // First use registers the built name, later ones find it.
                let item = r.block_step_id(dataset, id);
                assert_eq!(r.block_step_id(dataset, id), item);
                assert_eq!(ns.lookup(&ItemName::block_step(dataset, id)), Some(item));
            }
            assert_ne!(
                r.block_step_id("Propfan", id),
                r.block_step_id("Engine", id)
            );
        }
        assert_eq!(r.cached(), 8);
    }

    #[test]
    fn resolvers_on_different_nodes_agree() {
        let ns = NameServer::new();
        let r1 = NameResolver::new(ns.clone());
        let r2 = NameResolver::new(ns.clone());
        let id = BlockStepId::new(100, 3);
        assert_eq!(
            r1.block_step_id("Propfan", id),
            r2.block_step_id("Propfan", id)
        );
    }

    #[test]
    fn display_format_is_stable() {
        let name = ItemName::block_step("Engine", BlockStepId::new(1, 2));
        assert_eq!(name.to_string(), "Engine:block-step:vira-v1;block=1;step=2");
    }

    #[test]
    fn concurrent_registration_yields_one_id() {
        let ns = NameServer::new();
        let name = ItemName::block_step("Engine", BlockStepId::new(0, 0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let ns = ns.clone();
            let name = name.clone();
            handles.push(std::thread::spawn(move || ns.register(&name)));
        }
        let ids: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(ns.len(), 1);
    }
}
