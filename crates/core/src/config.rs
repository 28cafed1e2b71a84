//! Framework configuration.

use std::time::Duration;
use vira_dms::proxy::ProxyConfig;
use vira_dms::server::ServerConfig;

/// Retry/requeue tuning for the scheduler and the master workers.
///
/// The defaults are deliberately generous: on a healthy transport no
/// timeout ever fires, so fault-free runs behave exactly as before.
/// The chaos tests shrink these aggressively to drive recovery within
/// test time.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// How long the scheduler waits for a job's `JOB_DONE` before the
    /// first command retransmission.
    pub dispatch_timeout: Duration,
    /// Multiplier applied to the timeout after every retransmission.
    pub backoff_factor: f64,
    /// Retransmissions before the scheduler suspects a dead rank and
    /// probes the group.
    pub max_retransmits: u32,
    /// How long a probed rank has to answer `PING` with `PONG`.
    pub probe_timeout: Duration,
    /// Master-side backstop for a gather that never completes (lost
    /// partials are normally recovered by command retransmission).
    pub gather_timeout: Duration,
    /// Total dispatch attempts (first + requeues) before the job is
    /// failed back to the client.
    pub max_attempts: u32,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            dispatch_timeout: Duration::from_secs(5),
            backoff_factor: 2.0,
            max_retransmits: 4,
            probe_timeout: Duration::from_millis(200),
            gather_timeout: Duration::from_secs(60),
            max_attempts: 4,
        }
    }
}

/// Intra-worker extraction parallelism (paper §6.2's "loop level"
/// below the block level).
///
/// Workers always *load* blocks serially — DMS traffic, cost metering
/// and cache accounting are order-sensitive — and extract `threads`
/// loaded items side by side on a scoped thread pool
/// ([`vira_extract::scoped_map`]). Results are merged in item order, so
/// the produced payload is byte-identical at any thread count.
#[derive(Debug, Clone)]
pub struct ExtractConfig {
    /// Extraction threads per worker rank (default 1: no pool).
    pub threads: usize,
}

impl Default for ExtractConfig {
    fn default() -> Self {
        // EXTRACT_THREADS is the ops-facing override (used by the
        // chaos-matrix CI leg); anything unparsable or zero falls back
        // to one thread.
        let threads = std::env::var("EXTRACT_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or(1);
        ExtractConfig { threads }
    }
}

/// Admission control and backpressure for the scheduler's job queue.
///
/// With admission off (the default) the queue is unbounded and every
/// valid submit is accepted — the historical behaviour. Turning it on
/// bounds the global queue and applies per-session quotas; a submit
/// that would exceed a bound is *shed* with a structured `Busy`
/// rejection carrying a `retry_after_ms` hint instead of growing the
/// queue without limit. Shedding early keeps admitted jobs' tail
/// latency bounded under overload — the load plane's core invariant.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Master switch; off restores unbounded queueing.
    pub enabled: bool,
    /// Bound on the number of queued (not yet dispatched) jobs across
    /// all sessions. Submits beyond it are shed (`sched_shed_total`).
    pub max_queue_depth: usize,
    /// Per-session bound on queued jobs. Submits beyond it are
    /// rejected with a quota `Busy` (`sched_quota_rejections_total`).
    pub max_session_queued: usize,
    /// Per-session bound on jobs concurrently running on workers.
    /// Counted together with that session's queued jobs at admission.
    pub max_session_running: usize,
    /// Base retry hint returned on a `Busy` rejection; the scheduler
    /// scales it with queue fullness so clients back off harder the
    /// deeper the overload.
    pub retry_after_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            enabled: false,
            max_queue_depth: 1024,
            max_session_queued: 64,
            max_session_running: 8,
            retry_after_ms: 50,
        }
    }
}

/// Live-telemetry plane tuning: heartbeat-shipped metric deltas, the
/// scheduler's in-memory time-series store, SLO burn-rate evaluation
/// and the periodic `telemetry.json` snapshot that `vira top` reads.
///
/// Telemetry always runs but writes nothing unless `out_dir` is set
/// (the `vira run --trace-out` directory); the delta harvest and SLO
/// engine run either way, so alerts land in the event log.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// How often the scheduler fans out a telemetry heartbeat PING
    /// (each pong carries that rank's pending metric delta home).
    pub heartbeat_interval: Duration,
    /// How often SLOs are evaluated and `telemetry.json` rewritten.
    pub write_interval: Duration,
    /// Where `telemetry.json` goes; `None` disables snapshot writing.
    pub out_dir: Option<std::path::PathBuf>,
    /// `job_latency_p99` SLO threshold: a job is good when its total
    /// runtime stays at or below this (rounded up to the enclosing
    /// log2 histogram bucket).
    pub job_latency_slo_ns: u64,
    /// `ttfg_p99` SLO threshold on submit-to-first-geometry latency.
    pub ttfg_slo_ns: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            heartbeat_interval: Duration::from_millis(250),
            write_interval: Duration::from_millis(1000),
            out_dir: None,
            job_latency_slo_ns: 30_000_000_000,
            ttfg_slo_ns: 10_000_000_000,
        }
    }
}

/// Configuration of one Viracocha back-end instance.
#[derive(Debug, Clone)]
pub struct ViracochaConfig {
    /// Number of worker processes (the scheduler is separate).
    pub n_workers: usize,
    /// Time dilation: wall seconds slept per modeled second. `0.0`
    /// disables sleeping (pure accounting — the unit-test mode).
    pub dilation: f64,
    /// Per-node data-proxy configuration (caches, prefetcher).
    pub proxy: ProxyConfig,
    /// Data-server configuration: whether a parallel file system backs
    /// collective I/O.
    pub server: ServerConfig,
    /// Retry/requeue behaviour under message loss and dead ranks.
    pub resilience: ResilienceConfig,
    /// Admission control / backpressure (bounded queue, session quotas).
    pub admission: AdmissionConfig,
    /// Intra-worker parallel block extraction.
    pub extract: ExtractConfig,
    /// Live telemetry plane (heartbeat deltas, tsdb, SLOs, `vira top`).
    pub telemetry: TelemetryConfig,
}

impl Default for ViracochaConfig {
    fn default() -> Self {
        ViracochaConfig {
            n_workers: 4,
            dilation: 0.0,
            proxy: ProxyConfig::default(),
            server: ServerConfig::default(),
            resilience: ResilienceConfig::default(),
            admission: AdmissionConfig::default(),
            extract: ExtractConfig::default(),
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl ViracochaConfig {
    /// Convenience: a config for fast deterministic tests — no dilation,
    /// generous memory cache, no prefetching.
    pub fn for_tests(n_workers: usize) -> Self {
        ViracochaConfig {
            n_workers,
            dilation: 0.0,
            proxy: ProxyConfig {
                prefetcher: "none".into(),
                ..ProxyConfig::default()
            },
            ..ViracochaConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ViracochaConfig::default();
        assert!(c.n_workers >= 1);
        assert_eq!(c.dilation, 0.0);
    }

    #[test]
    fn test_config_disables_prefetching() {
        let c = ViracochaConfig::for_tests(2);
        assert_eq!(c.n_workers, 2);
        assert_eq!(c.proxy.prefetcher, "none");
    }

    #[test]
    fn extract_defaults_to_the_serial_path() {
        // Don't consult the env here — tests must be hermetic.
        let e = ExtractConfig { threads: 1 };
        assert_eq!(e.threads, 1);
        let c = ViracochaConfig {
            extract: e,
            ..ViracochaConfig::default()
        };
        assert!(c.extract.threads >= 1);
    }

    #[test]
    fn extract_threads_env_parsing_rules() {
        // Mirror of the Default impl's parse chain, exercised directly
        // so the test never mutates process-global env state.
        let parse = |v: &str| {
            v.trim()
                .parse::<usize>()
                .ok()
                .filter(|&t| t >= 1)
                .unwrap_or(1)
        };
        assert_eq!(parse("4"), 4);
        assert_eq!(parse(" 8 "), 8);
        assert_eq!(parse("0"), 1);
        assert_eq!(parse("banana"), 1);
        assert_eq!(parse(""), 1);
    }

    #[test]
    fn admission_defaults_to_unbounded_queueing() {
        let a = AdmissionConfig::default();
        assert!(!a.enabled, "admission must be opt-in for compatibility");
        assert!(a.max_queue_depth >= 1);
        assert!(a.max_session_queued >= 1);
        assert!(a.max_session_running >= 1);
        assert!(a.retry_after_ms > 0, "busy rejections must carry a hint");
        let c = ViracochaConfig::default();
        assert!(!c.admission.enabled);
    }

    #[test]
    fn telemetry_defaults_are_quiet_but_enabled() {
        let t = TelemetryConfig::default();
        assert!(t.out_dir.is_none(), "no snapshot files unless a dir is set");
        assert!(t.heartbeat_interval <= t.write_interval);
        assert!(t.job_latency_slo_ns > 0 && t.ttfg_slo_ns > 0);
    }

    #[test]
    fn resilience_defaults_never_trip_on_a_healthy_run() {
        // Sub-second jobs must stay far away from the first timeout.
        let r = ResilienceConfig::default();
        assert!(r.dispatch_timeout >= Duration::from_secs(1));
        assert!(r.gather_timeout >= r.dispatch_timeout);
        assert!(r.backoff_factor >= 1.0);
        assert!(r.max_attempts >= 1);
    }
}
