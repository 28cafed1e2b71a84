//! Worker processes (layer 2, paper §3).
//!
//! Each worker owns its data proxy (per-node caches persist **across**
//! jobs — the whole point of the DMS) and loops on scheduler commands:
//! execute the command, then either forward this worker's partial result
//! to the group's master worker, or — as the master — collect all
//! partials, merge them into one package, and hand the merged result to
//! the scheduler for delivery to the visualization client.

use crate::command::{
    charge_uplink, nominal_geometry_scale, CancelSet, CommandRegistry, GeometrySink, JobCtx,
};
use crate::config::ViracochaConfig;
use crate::wire;
use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;
use vira_comm::collective::Group;
use vira_comm::link::EventSender;
use vira_comm::transport::{tags, CommError, LocalEndpoint, Rank, Tag, Transport};
use vira_dms::proxy::{DataProxy, ProxyConfig};
use vira_dms::server::DataServer;
use vira_dms::stats::DmsStatsSnapshot;
use vira_extract::mesh::payload_triangle_count;
use vira_storage::costmodel::{self, CostCategory, Meter, SharedChannel, SimClock};
use vira_vista::protocol::{decode_polylines, JobId, JobReport, PayloadKind};

/// How many answered (job, attempt) keys a worker remembers. Only the
/// newest keeps its response frame: the scheduler retransmits a COMMAND
/// only while its job runs, and a rank is freed only when its group's
/// job ends, so the latest answer is the only one it can be asked for
/// again. The older keys catch a retransmitted COMMAND that a lossy
/// link delivered after the next job's: it is dropped, since re-running
/// it would re-stream a finished job's packets and leave a re-run
/// master waiting in gather.
const ANSWERED_KEYS: usize = 16;

/// Everything a worker thread needs at startup.
pub struct WorkerSetup<T: Transport = LocalEndpoint> {
    pub transport: T,
    pub server: Arc<DataServer>,
    pub clock: Arc<SimClock>,
    pub registry: Arc<CommandRegistry>,
    pub config: ViracochaConfig,
    pub events: EventSender,
    pub cancels: CancelSet,
    /// The back-end's single serialized client uplink.
    pub uplink: Arc<SharedChannel>,
}

/// How one `run_job` invocation ended.
enum JobExit {
    /// The response frame was sent; kept for duplicate-command replay.
    Sent { dest: Rank, tag: Tag, frame: Bytes },
    /// A different command arrived mid-gather and takes over (the
    /// scheduler requeued this job, or dispatched a new one to us).
    Superseded(Box<wire::CommandMsg>),
    /// Shutdown (or a torn-down world) arrived mid-gather.
    Shutdown,
}

/// Crash hook for the multi-process harness: aborts this process at a
/// named point when `VIRA_TEST_ABORT` selects it. The variable is only
/// ever set on one spawned `vira worker` child by `tests/multiproc.rs`,
/// to pin down mid-job connection loss (e.g. between PARTIAL and DONE);
/// it is inert in-process because the whole back-end would die with it.
fn test_abort_point(point: &str) {
    if std::env::var("VIRA_TEST_ABORT").as_deref() == Ok(point) {
        eprintln!("[vira-test] aborting at point '{point}'");
        std::process::abort();
    }
}

/// Builds this node's proxy configuration (unique spill dir per rank).
fn proxy_config_for(rank: usize, base: &ProxyConfig) -> ProxyConfig {
    let mut cfg = base.clone();
    if let Some(l2) = cfg.l2.as_mut() {
        l2.spill_dir = l2.spill_dir.join(format!("node{rank}"));
    }
    cfg
}

/// The worker main loop. Returns when the scheduler sends `SHUTDOWN`.
///
/// The response frame held for replay counts in the `worker_replay_bytes`
/// gauge until the loop ends, so in one process the gauge is the sum over
/// its worker threads.
pub fn worker_main<T: Transport>(setup: WorkerSetup<T>) {
    let WorkerSetup {
        transport,
        server,
        clock,
        registry,
        config,
        events,
        cancels,
        uplink,
    } = setup;
    let rank = transport.rank();
    let proxy = DataProxy::new(rank, server.clone(), proxy_config_for(rank, &config.proxy));
    // Derived-field memoization (λ₂ fields across threshold tweaks);
    // sized like the primary data cache.
    let derived = crate::derived::DerivedFieldCache::new(
        server.names().clone(),
        config.proxy.l1_capacity_bytes,
    );
    // Recently answered (job, attempt) keys, oldest first, and the
    // newest one's response, replayed when the scheduler retransmits a
    // command whose answer was lost.
    let mut answered: VecDeque<(JobId, u32)> = VecDeque::new();
    let mut last_response: Option<(Rank, Tag, Bytes)> = None;
    let held = |r: &Option<(Rank, Tag, Bytes)>| r.as_ref().map_or(0, |(_, _, f)| f.len() as i64);
    let replay_bytes = vira_obs::gauge("worker_replay_bytes");
    // A command that superseded an abandoned gather, to run next.
    let mut pending: Option<Box<wire::CommandMsg>> = None;

    loop {
        let cmd_msg = match pending.take() {
            Some(c) => *c,
            None => {
                let msg = match transport.recv() {
                    Ok(m) => m,
                    Err(_) => break, // world torn down
                };
                match msg.tag {
                    tags::SHUTDOWN => break,
                    tags::PING => {
                        if let Some(pong) = answer_ping(&msg.payload, &proxy, rank) {
                            let _ = transport.send(msg.from, tags::PONG, pong);
                        }
                        continue;
                    }
                    tags::COMMAND => {
                        let Some(c) = wire::decode_command(msg.payload) else {
                            continue;
                        };
                        c
                    }
                    tags::CANCEL => {
                        // A cancel notice arriving between jobs is stale
                        // by ordering: the per-peer FIFO guarantees the
                        // job's COMMAND preceded it, so the job already
                        // finished here. Inserting the id now would
                        // poison the rank-local cancel set forever.
                        // (Mid-job delivery is handled by the socket
                        // reader's frame tap / the shared in-process
                        // set, not this loop.)
                        continue;
                    }
                    _ => {
                        // Unexpected traffic (stale partials after
                        // errors or abandoned attempts): drop.
                        continue;
                    }
                }
            }
        };
        let key = (cmd_msg.job, cmd_msg.attempt);
        if answered.back() == Some(&key) {
            // Duplicate command: our response got lost, resend it.
            if let Some((dest, tag, frame)) = &last_response {
                let _ = transport.send(*dest, *tag, frame.clone());
            }
            continue;
        }
        if answered.contains(&key) {
            continue; // a stale duplicate, overtaken by a newer command
        }
        match run_job(
            &transport, &proxy, &derived, &server, &clock, &registry, &config, &events, &cancels,
            &uplink, &answered, cmd_msg,
        ) {
            JobExit::Sent { dest, tag, frame } => {
                if answered.len() >= ANSWERED_KEYS {
                    answered.pop_front();
                }
                answered.push_back(key);
                replay_bytes.add(frame.len() as i64 - held(&last_response));
                last_response = Some((dest, tag, frame));
            }
            JobExit::Superseded(c) => pending = Some(c),
            JobExit::Shutdown => break,
        }
    }
    replay_bytes.add(-held(&last_response));
}

#[allow(clippy::too_many_arguments)]
fn run_job<T: Transport>(
    transport: &T,
    proxy: &DataProxy,
    derived: &crate::derived::DerivedFieldCache,
    server: &Arc<DataServer>,
    clock: &Arc<SimClock>,
    registry: &Arc<CommandRegistry>,
    config: &ViracochaConfig,
    events: &EventSender,
    cancels: &CancelSet,
    uplink: &Arc<SharedChannel>,
    answered: &VecDeque<(JobId, u32)>,
    msg: wire::CommandMsg,
) -> JobExit {
    let rank = transport.rank();
    let group = Group::new(msg.group.clone());
    let meter = Meter::new();
    let dms_before = proxy.stats().snapshot();
    // Adopt the scheduler's trace context for the duration of the job:
    // every span opened on this thread (worker.job, extract.block,
    // dms.request, …) links back to the submitting client's trace.
    let _trace = vira_obs::install_ctx(vira_obs::TraceCtx {
        trace_id: msg.trace_id,
        parent_span_id: msg.parent_span_id,
    });
    let mut job_span = vira_obs::span("worker.job", "worker")
        .arg("job", msg.job)
        .arg_with("command", || vira_obs::intern(&msg.command))
        .arg("rank", rank);
    // Responses carry the worker.job span as parent so the scheduler's
    // flight recorder can bind cross-rank edges even when only the wire
    // frames survive. When tracing is disabled this passes the incoming
    // context through unchanged.
    let reply_ctx = job_span.ctx_for_children();

    // Per-job context and execution.
    let (mut sink, error) = match (
        registry.get(&msg.command),
        server.dataset_spec(&msg.dataset),
    ) {
        (Some(cmd), Some(spec)) => {
            let mut ctx = JobCtx {
                job: msg.job,
                dataset: msg.dataset.clone(),
                spec,
                params: msg.params.clone(),
                group: group.clone(),
                rank,
                proxy,
                derived,
                server: server.clone(),
                meter: meter.clone(),
                clock: clock.clone(),
                extract_threads: config.extract.threads,
                events: events.clone(),
                cancels: cancels.clone(),
                uplink: uplink.clone(),
                streams: cmd.streams(),
                sink: GeometrySink::default(),
            };
            match cmd.execute(&mut ctx) {
                Ok(()) => (ctx.sink, None),
                Err(e) => (GeometrySink::default(), Some(e.to_string())),
            }
        }
        (None, _) => (
            GeometrySink::default(),
            Some(format!("unknown command '{}'", msg.command)),
        ),
        (_, None) => (
            GeometrySink::default(),
            Some(format!("dataset '{}' not registered", msg.dataset)),
        ),
    };

    // DMS counters attributable to this job on this node.
    let dms = proxy.stats().snapshot().delta(&dms_before);
    job_span.set_arg("items", sink.n_items);

    // The modeled seconds to send the payload `sink` holds.
    let send_s = |sink: &GeometrySink| {
        let scale = match (sink.kind, server.dataset_spec(&msg.dataset)) {
            (PayloadKind::Triangles, Some(spec)) => nominal_geometry_scale(&spec),
            _ => 1.0,
        };
        let n = scaled_send_items(sink.n_items as usize, scale);
        costmodel::SEND_LATENCY_S + n as f64 * costmodel::SEND_S_PER_TRIANGLE
    };
    if rank != group.root() {
        // Ship the partial to the master worker; modeled cost of the
        // transfer is part of the job's Send share.
        meter.charge(clock, CostCategory::Send, send_s(&sink));
        let share = own_result(&msg, reply_ctx, &sink, &meter, dms, proxy, error);
        let frame = send_result(
            transport,
            group.root(),
            tags::PARTIAL_RESULT,
            share,
            &sink.into_payload(),
        );
        test_abort_point("after-partial");
        return JobExit::Sent {
            dest: group.root(),
            tag: tags::PARTIAL_RESULT,
            frame,
        };
    }

    let merge_started = Instant::now();
    let merge_span = vira_obs::span("worker.merge", "worker")
        .arg("job", msg.job)
        .arg("partials", group.len().saturating_sub(1));

    // Master worker: gather the other members' partials, keyed by
    // sender rank so retransmitted duplicates collapse, then merge in
    // canonical rank order (root's own share first) — the merged
    // payload is byte-identical no matter how lossy the transport was.
    let mut partials: BTreeMap<Rank, (wire::ResultHeader, Bytes)> = BTreeMap::new();
    let expected = group.len() - 1;
    let deadline = merge_started + config.resilience.gather_timeout;
    let mut first_error = error;
    while partials.len() < expected {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            first_error.get_or_insert_with(|| {
                format!(
                    "gather timed out with {}/{expected} partials",
                    partials.len()
                )
            });
            break;
        }
        let m = match transport.recv_timeout(left) {
            Ok(m) => m,
            Err(CommError::Timeout) => continue, // deadline check above
            Err(_) => return JobExit::Shutdown,  // world torn down
        };
        match m.tag {
            tags::PARTIAL_RESULT => {
                let Some((share, payload)) = wire::decode_result(tags::PARTIAL_RESULT, m.payload)
                else {
                    continue; // corrupt frame; retransmission recovers
                };
                if share.job != msg.job || share.attempt != msg.attempt {
                    continue; // stale partial from an abandoned attempt
                }
                if group.contains(m.from) && m.from != rank {
                    partials.entry(m.from).or_insert((share, payload));
                }
            }
            tags::PING => {
                if let Some(pong) = answer_ping(&m.payload, proxy, rank) {
                    let _ = transport.send(m.from, tags::PONG, pong);
                }
            }
            tags::COMMAND => {
                let Some(c) = wire::decode_command(m.payload) else {
                    continue;
                };
                if (c.job, c.attempt) == (msg.job, msg.attempt)
                    || answered.contains(&(c.job, c.attempt))
                {
                    continue; // a retransmit of this job, or a stale one
                }
                // The scheduler moved on (requeue or new dispatch):
                // abandon this gather and serve the new command.
                return JobExit::Superseded(Box::new(c));
            }
            // The client cancelled the very job this master is
            // gathering: trip the rank-local set so cancellation checks
            // during the remaining gather/merge fire. Notices for other
            // (already finished) jobs are stale and dropped.
            tags::CANCEL if wire::decode_cancel(&m.payload) == Some(msg.job) => {
                cancels.write().unwrap().insert(msg.job);
            }
            tags::SHUTDOWN => return JobExit::Shutdown,
            _ => {}
        }
    }

    // The group's result starts as the master's own share and absorbs
    // each partial's accounting, residency and metric delta in rank
    // order. A partial's payload has the merged package's layout, so
    // once its count is checked against its body, the body is appended
    // to the master's own payload verbatim (everything past the count
    // prefix), with no decode → re-encode round-trip.
    let mut done = own_result(&msg, reply_ctx, &sink, &meter, dms, proxy, first_error);
    for (share, payload) in partials.into_values() {
        done.report.absorb(&share.report);
        done.residency.extend(share.residency);
        done.obs_deltas.extend(share.obs_deltas);
        if let Some(e) = share.error {
            done.error.get_or_insert(e);
        }
        let checked = match share.kind {
            PayloadKind::Triangles => payload_triangle_count(&payload),
            PayloadKind::Polylines => decode_polylines(payload.clone()).ok().map(|l| l.len()),
            PayloadKind::None => None,
        };
        if let Some(n) = checked {
            if let Err(e) = sink.append(share.kind, n, |buf| buf.extend_from_slice(&payload[4..])) {
                done.error.get_or_insert(e.to_string());
            }
        }
    }
    (done.kind, done.n_items) = (sink.kind, sink.n_items);

    // The master transmits the merged package over the client uplink;
    // charge its send cost (including queueing behind streamed packets).
    done.report.send_s += charge_uplink(&meter, clock, uplink, send_s(&sink));

    drop(merge_span);
    done.report.merge_s = clock.wall_to_modeled(merge_started.elapsed());
    test_abort_point("before-done");
    let frame = send_result(transport, 0, tags::JOB_DONE, done, &sink.into_payload());
    JobExit::Sent {
        dest: 0,
        tag: tags::JOB_DONE,
        frame,
    }
}

/// Sends a PARTIAL or DONE of `header` and `payload` to `dest` and
/// returns the frame to hold for replay. A result no frame can carry is
/// answered with the same header, the error and no payload instead, so
/// the job still ends: failed, with the reason.
fn send_result<T: Transport>(
    transport: &T,
    dest: Rank,
    tag: Tag,
    mut header: wire::ResultHeader,
    payload: &[u8],
) -> Bytes {
    let frame = wire::encode_result(tag, &header, payload);
    let Err(CommError::TooLarge { limit, .. }) = transport.send(dest, tag, frame.clone()) else {
        return frame;
    };
    header.error.get_or_insert_with(|| {
        let bound = match limit {
            l if l.is_multiple_of(1 << 20) => format!("{} MiB", l >> 20),
            l => format!("{l}-byte"),
        };
        format!(
            "result of {} bytes exceeds the {bound} frame bound",
            payload.len()
        )
    });
    let frame = wire::encode_result(tag, &header, &[]);
    let _ = transport.send(dest, tag, frame.clone());
    frame
}

/// This rank's share of a job's result: a non-master sends it as its
/// PARTIAL, the master folds the others' partials into it. The header
/// describes `sink`'s payload, and the report holds what the sink
/// counted, the seconds `meter` has charged so far and the job's `dms`
/// window; the scheduler's fields stay zero. The residency digest and
/// the pending metric delta are this rank's own.
fn own_result(
    msg: &wire::CommandMsg,
    ctx: vira_obs::TraceCtx,
    sink: &GeometrySink,
    meter: &Meter,
    dms: DmsStatsSnapshot,
    proxy: &DataProxy,
    error: Option<String>,
) -> wire::ResultHeader {
    let rank = proxy.node();
    let delta = take_encoded_delta(rank);
    wire::ResultHeader {
        job: msg.job,
        attempt: msg.attempt,
        kind: sink.kind,
        n_items: sink.n_items,
        report: JobReport {
            read_s: meter.total(CostCategory::Read),
            compute_s: meter.total(CostCategory::Compute),
            send_s: meter.total(CostCategory::Send),
            demand_requests: dms.demand_requests,
            cache_hits: dms.l1_hits + dms.l2_hits,
            cache_misses: dms.misses,
            prefetch_issued: dms.prefetch_issued,
            prefetch_hits: dms.prefetch_hits,
            ..sink.counts
        },
        residency: vec![(rank, proxy.residency_digest())],
        obs_deltas: if delta.is_empty() {
            Vec::new()
        } else {
            vec![(rank, delta)]
        },
        trace_id: ctx.trace_id,
        parent_span_id: ctx.parent_span_id,
        error,
    }
}

/// Applies the nominal-size send scale to an item count without the
/// float-truncation bug the two former inline sites shared: `3 items ×
/// scale 1.0` could come back as 2 when the product landed at
/// 2.9999999999. Rounds to nearest and never shrinks below the real
/// item count (the scale is ≥ 1.0 by construction).
fn scaled_send_items(n_items: usize, scale: f64) -> usize {
    if n_items == 0 {
        return 0;
    }
    ((n_items as f64 * scale).round() as usize).max(n_items)
}

/// Encodes this rank's pending metric delta for the wire, or the empty
/// string when nothing interesting changed since the last cut.
fn take_encoded_delta(rank: usize) -> String {
    vira_obs::take_delta(rank as u64)
        .map(|d| vira_obs::ship::encode(&d))
        .unwrap_or_default()
}

/// Answers a PING with its nonce, this node's clock (for the
/// flight recorder's clock-offset estimate) and cache-residency digest
/// (so the scheduler refreshes its placement map for free), plus the
/// pending metric delta when the ping is a telemetry heartbeat. A
/// damaged ping gets no answer; the prober pings again.
fn answer_ping(frame: &[u8], proxy: &DataProxy, rank: usize) -> Option<Bytes> {
    let ping = wire::decode_ping(frame)?;
    Some(wire::encode_pong(&wire::Pong {
        nonce: ping.nonce,
        clock_ns: vira_obs::now_ns(),
        residency: proxy.residency_digest(),
        delta: if ping.want_delta {
            take_encoded_delta(rank)
        } else {
            String::new()
        },
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vira_dms::stats::DmsStatsSnapshot;

    #[test]
    fn job_window_uses_snapshot_delta() {
        // The per-job DMS window is `after.delta(&before)` — kept here as
        // a wire-level sanity check that worker accounting stays
        // elementwise and saturating.
        let a = DmsStatsSnapshot {
            demand_requests: 10,
            l1_hits: 4,
            ..DmsStatsSnapshot::default()
        };
        let b = DmsStatsSnapshot {
            demand_requests: 25,
            l1_hits: 5,
            misses: 3,
            ..a
        };
        let d = b.delta(&a);
        assert_eq!(d.demand_requests, 15);
        assert_eq!(d.l1_hits, 1);
        assert_eq!(d.misses, 3);
    }

    #[test]
    fn scaled_send_items_is_integer_safe() {
        // Zero stays zero (no latency-only phantom item).
        assert_eq!(scaled_send_items(0, 1.0), 0);
        assert_eq!(scaled_send_items(0, 7.5), 0);
        // An exact 1.0 scale is the identity — the old float-trunc
        // expression could return n-1 when the product representation
        // landed just below the integer.
        for n in [1usize, 3, 7, 1_000_000] {
            assert_eq!(scaled_send_items(n, 1.0), n);
        }
        // A product epsilon-under the integer rounds up, not down.
        assert_eq!(scaled_send_items(3, 1.0 - f64::EPSILON), 3);
        // Genuine up-scaling rounds to nearest…
        assert_eq!(scaled_send_items(10, 1.26), 13);
        assert_eq!(scaled_send_items(10, 1.24), 12);
        // …and is clamped to never report fewer than the real items.
        assert!(scaled_send_items(123_456, 1.0) >= 123_456);
    }

    #[test]
    fn pong_payload_prefixes_the_nonce_and_appends_digest_and_clock() {
        let server = DataServer::new(SimClock::instant(), Default::default());
        let proxy = DataProxy::new(1, server, ProxyConfig::default());
        let ping = wire::encode_ping(&wire::Ping {
            nonce: 42,
            want_delta: false,
        });
        let before = vira_obs::now_ns();
        let frame = answer_ping(&ping, &proxy, 1).expect("an intact ping is answered");
        assert_eq!(&frame[..8], &42u64.to_le_bytes(), "the nonce leads");
        let pong = wire::decode_pong(&frame).unwrap();
        assert_eq!(pong.nonce, 42);
        assert_eq!(pong.residency, proxy.residency_digest());
        assert!(pong.clock_ns >= before && pong.clock_ns <= vira_obs::now_ns());
        assert!(pong.delta.is_empty(), "a liveness probe carries no delta");
        // A damaged ping gets no answer; the prober pings again.
        let mut damaged = ping.to_vec();
        damaged[0] ^= 1;
        assert!(answer_ping(&damaged, &proxy, 1).is_none());
    }

    #[test]
    fn a_duplicate_command_replays_the_latest_answer_and_drops_a_stale_one() {
        use std::time::Duration;
        use vira_comm::transport::LocalWorld;

        let mut world = LocalWorld::create(2);
        let worker_end = world.pop().unwrap();
        let sched = world.pop().unwrap();
        let server = DataServer::new(SimClock::instant(), Default::default());
        server.register_dataset(
            Arc::new(vira_storage::source::SynthSource::new(Arc::new(
                vira_grid::synth::test_cube(4, 2),
            ))),
            false,
        );
        let (_client, link) = vira_comm::link::client_server_link();
        let setup = WorkerSetup {
            transport: worker_end,
            server,
            clock: SimClock::instant(),
            registry: Arc::new(crate::commands::default_registry()),
            config: ViracochaConfig::for_tests(1),
            events: link.event_sender(),
            cancels: Default::default(),
            uplink: SharedChannel::new(),
        };
        // Job ids no other test uses: the span count below reads the
        // process-wide trace rings.
        let (old_job, new_job) = (0x5EED_0001, 0x5EED_0002);
        let command = |job| {
            wire::encode_command(&wire::CommandMsg {
                job,
                command: "IsoDataMan".into(),
                dataset: "TestCube".into(),
                params: vira_vista::protocol::CommandParams::new()
                    .set("iso", 0.15)
                    .set("n_steps", 1),
                group: vec![1],
                attempt: 0,
                trace_id: 0,
                parent_span_id: 0,
            })
        };
        let next = || sched.recv_timeout(Duration::from_secs(30)).unwrap();
        vira_obs::set_enabled(true);
        let worker = std::thread::spawn(move || worker_main(setup));

        sched.send(1, tags::COMMAND, command(old_job)).unwrap();
        assert_eq!(next().tag, tags::JOB_DONE);
        sched.send(1, tags::COMMAND, command(new_job)).unwrap();
        let done = next();
        assert_eq!(done.tag, tags::JOB_DONE);
        // A retransmit of the latest job is answered with its frame.
        sched.send(1, tags::COMMAND, command(new_job)).unwrap();
        let replay = next();
        assert_eq!(replay.tag, tags::JOB_DONE);
        assert_eq!(&replay.payload[..], &done.payload[..]);
        // The held DONE counts in the replay gauge (which other tests'
        // workers in this process add to as well).
        let held = vira_obs::gauge("worker_replay_bytes").get();
        assert!(held >= done.payload.len() as i64, "{held} bytes held");
        // A retransmit of the older job, delivered late, gets no answer:
        // the pong is the next frame back.
        sched.send(1, tags::COMMAND, command(old_job)).unwrap();
        let ping = wire::encode_ping(&wire::Ping {
            nonce: 9,
            want_delta: false,
        });
        sched.send(1, tags::PING, ping).unwrap();
        assert_eq!(next().tag, tags::PONG);
        sched.send(1, tags::SHUTDOWN, Bytes::new()).unwrap();
        worker.join().unwrap();
        vira_obs::set_enabled(false);

        let dump = vira_obs::drain();
        let runs = |job: JobId| {
            dump.threads
                .iter()
                .flat_map(|t| t.spans.iter())
                .filter(|s| s.name == "worker.job")
                .filter(|s| {
                    s.args()
                        .any(|(k, v)| k == "job" && v == vira_obs::ArgValue::U64(job))
                })
                .count()
        };
        assert_eq!(runs(new_job), 1, "the replayed job ran once");
        assert_eq!(runs(old_job), 1, "the stale duplicate was not re-run");
    }

    /// A worker's endpoint on a link that refuses payloads above 4 KiB,
    /// as a socket refuses those above its 64 MiB frame bound.
    struct SmallFrames(vira_comm::transport::LocalEndpoint);

    const SMALL_FRAME: usize = 4 << 10;

    impl Transport for SmallFrames {
        fn rank(&self) -> Rank {
            self.0.rank()
        }

        fn world_size(&self) -> usize {
            self.0.world_size()
        }

        fn send(&self, to: Rank, tag: Tag, payload: Bytes) -> Result<(), CommError> {
            if payload.len() > SMALL_FRAME {
                return Err(CommError::TooLarge {
                    bytes: payload.len(),
                    limit: SMALL_FRAME,
                });
            }
            self.0.send(to, tag, payload)
        }

        fn recv(&self) -> Result<vira_comm::transport::Message, CommError> {
            self.0.recv()
        }

        fn try_recv(&self) -> Result<Option<vira_comm::transport::Message>, CommError> {
            self.0.try_recv()
        }

        fn recv_timeout(
            &self,
            timeout: std::time::Duration,
        ) -> Result<vira_comm::transport::Message, CommError> {
            self.0.recv_timeout(timeout)
        }
    }

    #[test]
    fn a_result_no_frame_carries_ends_its_job_with_the_reason() {
        use std::time::Duration;
        use vira_comm::transport::LocalWorld;

        let mut world = LocalWorld::create(2);
        let worker_end = SmallFrames(world.pop().unwrap());
        let sched = world.pop().unwrap();
        let server = DataServer::new(SimClock::instant(), Default::default());
        server.register_dataset(
            Arc::new(vira_storage::source::SynthSource::new(Arc::new(
                vira_grid::synth::test_cube(12, 1),
            ))),
            false,
        );
        let (_client, link) = vira_comm::link::client_server_link();
        let setup = WorkerSetup {
            transport: worker_end,
            server,
            clock: SimClock::instant(),
            registry: Arc::new(crate::commands::default_registry()),
            config: ViracochaConfig::for_tests(1),
            events: link.event_sender(),
            cancels: Default::default(),
            uplink: SharedChannel::new(),
        };
        let command = wire::encode_command(&wire::CommandMsg {
            job: 0x5EED_0003,
            command: "IsoDataMan".into(),
            dataset: "TestCube".into(),
            params: vira_vista::protocol::CommandParams::new()
                .set("iso", 0.15)
                .set("n_steps", 1),
            group: vec![1],
            attempt: 0,
            trace_id: 0,
            parent_span_id: 0,
        });
        let next = || sched.recv_timeout(Duration::from_secs(30)).unwrap();
        let worker = std::thread::spawn(move || worker_main(setup));

        sched.send(1, tags::COMMAND, command.clone()).unwrap();
        let done = next();
        assert_eq!(done.tag, tags::JOB_DONE);
        let (header, payload) = wire::decode_result(tags::JOB_DONE, done.payload.clone()).unwrap();
        let error = header.error.expect("the DONE carries the reason");
        let bytes: usize = error
            .strip_prefix("result of ")
            .and_then(|e| e.strip_suffix(" bytes exceeds the 4096-byte frame bound"))
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unexpected error {error:?}"));
        assert!(bytes > SMALL_FRAME, "{bytes} bytes");
        assert!(payload.is_empty());
        assert!(header.n_items > 0, "the header still counts the result");
        // The answer is held for replay like any other.
        sched.send(1, tags::COMMAND, command).unwrap();
        assert_eq!(&next().payload[..], &done.payload[..]);
        sched.send(1, tags::SHUTDOWN, Bytes::new()).unwrap();
        worker.join().unwrap();
    }

    #[test]
    fn proxy_config_spill_dirs_are_per_rank() {
        let base = ProxyConfig {
            l2: Some(vira_dms::proxy::L2Config {
                capacity_bytes: 1,
                policy: "lru".into(),
                spill_dir: std::path::PathBuf::from("/tmp/spill"),
            }),
            ..ProxyConfig::default()
        };
        let a = proxy_config_for(1, &base);
        let b = proxy_config_for(2, &base);
        assert_ne!(a.l2.unwrap().spill_dir, b.l2.unwrap().spill_dir);
    }
}
