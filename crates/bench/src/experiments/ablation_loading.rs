//! E14 — the §4.3 loading-strategy study: modeled cost of the four
//! loading strategies, the benefit of adaptive selection under a
//! file-server failure, and why collective I/O without a parallel file
//! system is "of limited use".

use crate::config::BenchConfig;
use crate::result::{ExperimentResult, Row};
use std::sync::Arc;
use vira_dms::proxy::{DataProxy, ProxyConfig};
use vira_dms::server::{DataServer, ServerConfig};
use vira_grid::block::BlockStepId;
use vira_grid::synth;
use vira_storage::costmodel::{CostCategory, Meter, SimClock};
use vira_storage::source::CachedSynthSource;

fn proxy_cfg() -> ProxyConfig {
    ProxyConfig {
        l1_capacity_bytes: 1 << 30,
        l1_policy: "lru".into(),
        l2: None,
        prefetcher: "none".into(),
    }
}

pub fn run(cfg: &BenchConfig) -> ExperimentResult {
    let mut e = ExperimentResult::new(
        "e14-loading",
        "Loading strategies: modeled per-item read time and adaptive selection",
        "§4.3",
    );
    let ds = Arc::new(synth::engine(cfg.engine_res));
    let n_items = 8u32; // one step's worth of probes

    // --- Per-strategy per-item read cost (accounting only, no sleeps).
    // File server (no replica, no peers).
    {
        let server = DataServer::new(SimClock::instant(), ServerConfig::default());
        server.register_dataset(Arc::new(CachedSynthSource::new(ds.clone())), false);
        let proxy = DataProxy::new(0, server.clone(), proxy_cfg());
        let m = Meter::new();
        for b in 0..n_items {
            proxy.request("Engine", BlockStepId::new(b, 0), &m).unwrap();
        }
        e.push(Row::new(
            "file server",
            "per-item read",
            m.total(CostCategory::Read) / n_items as f64,
            "modeled s",
        ));
    }
    // Local replica.
    {
        let server = DataServer::new(SimClock::instant(), ServerConfig::default());
        server.register_dataset(Arc::new(CachedSynthSource::new(ds.clone())), true);
        let proxy = DataProxy::new(0, server.clone(), proxy_cfg());
        let m = Meter::new();
        for b in 0..n_items {
            proxy.request("Engine", BlockStepId::new(b, 0), &m).unwrap();
        }
        e.push(Row::new(
            "local replica",
            "per-item read",
            m.total(CostCategory::Read) / n_items as f64,
            "modeled s",
        ));
    }
    // Peer transfer: node 0 warms, node 1 pulls everything from node 0.
    {
        let server = DataServer::new(SimClock::instant(), ServerConfig::default());
        server.register_dataset(Arc::new(CachedSynthSource::new(ds.clone())), false);
        let p0 = DataProxy::new(0, server.clone(), proxy_cfg());
        let p1 = DataProxy::new(1, server.clone(), proxy_cfg());
        let m0 = Meter::new();
        for b in 0..n_items {
            p0.request("Engine", BlockStepId::new(b, 0), &m0).unwrap();
        }
        let m1 = Meter::new();
        for b in 0..n_items {
            p1.request("Engine", BlockStepId::new(b, 0), &m1).unwrap();
        }
        e.push(Row::new(
            "peer transfer",
            "per-item read",
            m1.total(CostCategory::Read) / n_items as f64,
            "modeled s",
        ));
    }
    // Collective I/O, with and without a parallel file system (4
    // participants).
    for (label, parallel_fs) in [
        ("collective (no parallel FS)", false),
        ("collective (parallel FS)", true),
    ] {
        let server = DataServer::new(SimClock::instant(), ServerConfig { parallel_fs });
        server.register_dataset(Arc::new(CachedSynthSource::new(ds.clone())), false);
        let m = Meter::new();
        for b in 0..n_items {
            server
                .collective_read("Engine", BlockStepId::new(b, 0), 4, &m)
                .unwrap();
        }
        e.push(Row::new(
            label,
            "per-item read",
            m.total(CostCategory::Read) / n_items as f64,
            "modeled s",
        ));
    }

    // --- Adaptive selection under a file-server failure.
    {
        let server = DataServer::new(SimClock::instant(), ServerConfig::default());
        server.register_dataset(Arc::new(CachedSynthSource::new(ds.clone())), false);
        let p0 = DataProxy::new(0, server.clone(), proxy_cfg());
        let p1 = DataProxy::new(1, server.clone(), proxy_cfg());
        let m = Meter::new();
        // Node 0 caches the first half before the server "fails".
        for b in 0..n_items / 2 {
            p0.request("Engine", BlockStepId::new(b, 0), &m).unwrap();
        }
        server.report_fileserver_failure();
        // Node 1 can still obtain the cached half through peers.
        let mut served = 0;
        let mut failed = 0;
        for b in 0..n_items {
            match p1.request("Engine", BlockStepId::new(b, 0), &m) {
                Ok(_) => served += 1,
                Err(_) => failed += 1,
            }
        }
        e.push(Row::new(
            "adaptive (server down)",
            "items served via peers",
            served as f64,
            "items",
        ));
        e.push(Row::new(
            "adaptive (server down)",
            "items unavailable",
            failed as f64,
            "items",
        ));
    }

    e.note(
        "Fitness-based selection picks the fastest available path per load; \
         after a file-server failure the cooperative cache keeps previously \
         loaded items reachable (§4.3).",
    );
    e.note(
        "Collective I/O without a parallel file system serializes the \
         participants' transfers — 'more expensive than the benefit of \
         collective file access'.",
    );
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_ordering_matches_tiers() {
        let _guard = crate::timing_lock();
        let e = run(&BenchConfig::quick());
        let get = |s: &str| {
            e.rows
                .iter()
                .find(|r| r.series == s && r.x == "per-item read")
                .unwrap()
                .value
        };
        assert!(get("peer transfer") < get("local replica"));
        assert!(get("local replica") < get("file server"));
        assert!(get("collective (no parallel FS)") > get("file server"));
        assert!(get("collective (parallel FS)") < get("collective (no parallel FS)"));
    }

    #[test]
    fn adaptive_selection_survives_fileserver_failure() {
        let _guard = crate::timing_lock();
        let e = run(&BenchConfig::quick());
        let served = e
            .rows
            .iter()
            .find(|r| r.x == "items served via peers")
            .unwrap()
            .value;
        assert!(served >= 4.0, "peer half must remain reachable: {served}");
    }
}
