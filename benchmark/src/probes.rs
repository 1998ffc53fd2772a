//! Batched probes of single layers, taken from outside through public
//! calls only, at the sizes the workload in hand gives them — and the
//! machine's own ceilings (scalar op rate, stream bandwidth per cache
//! level) each `_ns` is read against, after the CARM tool.
//!
//! Every probe times batches of at least 1000 calls (one `Instant` pair
//! per batch) and reports the median batch as ns per call.

use std::hint::black_box;
use std::time::Instant;

use notebookos_cluster::{Cluster, HostMutation, ResourceRequest};
use notebookos_core::{
    client_request, Designation, ElectionModel, LeastLoaded, PlacementContext, PlacementPolicy,
    PlacementService, ProvisioningBackend, GATEWAY_KEY,
};
use notebookos_datastore::{BackendKind, DataStore};
use notebookos_des::{SimRng, SimTime};
use notebookos_jupyter::{wire, Json, JupyterMessage, KernelRoute, ReplyStatus, Router};
use notebookos_metrics::{Cdf, Timeline};
use notebookos_raft::{Entry, EntryPayload, RaftLog};

use crate::inputs::{self, size};
use crate::report::Outcome;
use crate::stats::median;

/// Calls per timed batch.
const BATCH: usize = 1000;

/// Times `batches` batches of `BATCH` calls of `call` (given the call's
/// running index) and returns `(median ns per call, calls made)`.
fn per_call_ns(batches: usize, mut call: impl FnMut(usize)) -> (f64, u64) {
    let mut per_call = Vec::with_capacity(batches);
    for b in 0..batches {
        let t = Instant::now();
        for i in 0..BATCH {
            call(b * BATCH + i);
        }
        per_call.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    (median(&per_call), (batches * BATCH) as u64)
}

/// Times `rounds` single calls of `call` on a fixture `build` makes fresh
/// each round, for operations whose cost is one big call (a sort, a
/// merge); returns `(median ns, rounds)`.
fn per_round_ns<F>(
    rounds: usize,
    mut build: impl FnMut() -> F,
    mut call: impl FnMut(&mut F),
) -> (f64, u64) {
    let mut ns = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut fixture = build();
        let t = Instant::now();
        call(&mut fixture);
        ns.push(t.elapsed().as_nanos() as f64);
        black_box(&fixture);
    }
    (median(&ns), rounds as u64)
}

fn set(outcome: &mut Outcome, name: &str, (value, samples): (f64, u64)) {
    outcome.set(name, value, samples);
}

fn batches(smoke: bool) -> usize {
    if smoke {
        2
    } else {
        15
    }
}

// ----------------------------------------------------------------------
// Machine ceilings
// ----------------------------------------------------------------------

/// Bytes per ns (= GB/s) summing a `u64` buffer of `bytes`, best of a few
/// sweeps each long enough to time.
fn stream_gbps(bytes: usize) -> f64 {
    let words = vec![1u64; bytes / 8];
    let sweeps = ((64 << 20) / bytes).max(2);
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t = Instant::now();
        let mut sum = 0u64;
        for _ in 0..sweeps {
            sum = sum.wrapping_add(black_box(&words).iter().copied().fold(0, u64::wrapping_add));
        }
        black_box(sum);
        let ns = t.elapsed().as_nanos() as f64;
        best = best.max((bytes * sweeps) as f64 / ns);
    }
    best
}

/// Measures the ceilings once per invocation: the rate of a dependent
/// chain of integer multiply-xor steps, and read bandwidth from buffers
/// sized for L1 (16 KiB), L2 (512 KiB) and DRAM (128 MiB).
pub fn machine(outcome: &mut Outcome) {
    const STEPS: u64 = 50_000_000;
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..STEPS {
        x = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    black_box(x);
    // Three dependent ops (shift, xor, multiply) per step.
    let ops_per_ns = 3.0 * STEPS as f64 / t.elapsed().as_nanos() as f64;
    outcome.set("machine.scalar_ops_per_ns", ops_per_ns, STEPS);
    outcome.set("machine.stream_gbps_l1", stream_gbps(16 << 10), 3);
    outcome.set("machine.stream_gbps_l2", stream_gbps(512 << 10), 3);
    outcome.set("machine.stream_gbps_dram", stream_gbps(128 << 20), 3);
}

// ----------------------------------------------------------------------
// The layers under `Platform`
// ----------------------------------------------------------------------

/// The sizes a simulator workload gives the layers under it.
#[derive(Debug, Clone, Copy)]
pub struct SimSizes {
    /// Hosts in the fleet.
    pub hosts: usize,
    /// Sessions (= data-store keys).
    pub sessions: usize,
    /// Cell executions per pass (= samples per CDF).
    pub executions: usize,
}

/// A fleet of `hosts` servers loaded through `apply_batch` the way a
/// running platform loads it: a few one-GPU subscriptions per host and a
/// commitment on every third.
pub fn loaded_cluster(hosts: usize) -> Cluster {
    let mut cluster = Cluster::with_hosts(hosts, inputs::host_shape());
    let request = ResourceRequest::one_gpu();
    let mutations = (0..hosts as u64).flat_map(|host| {
        let subs = (0..host % 5).map(move |_| HostMutation::Subscribe { host, request });
        let commit = (host % 3 == 0).then_some(HostMutation::Commit {
            host,
            owner: 1_000_000 + host,
            request,
        });
        subs.chain(commit)
    });
    cluster.apply_batch(mutations);
    cluster
}

/// `core.policy.*` and `cluster.*` on a loaded fleet of `hosts`.
pub fn cluster_layers(hosts: usize, smoke: bool, outcome: &mut Outcome) {
    let n = batches(smoke);
    let mut cluster = loaded_cluster(hosts);
    let request = ResourceRequest::one_gpu();
    let mut policy = LeastLoaded::default();
    let mut ranked = Vec::new();
    let r = per_call_ns(n, |_| {
        let ctx = PlacementContext {
            cluster: &cluster,
            request: &request,
            replication_factor: 3,
        };
        black_box(policy.rank_top_into(&ctx, 3, &mut ranked));
    });
    set(outcome, "core.policy.rank_top3_ns", r);
    let r = per_call_ns(n, |_| {
        black_box(cluster.best_commit_host(&request));
    });
    set(outcome, "cluster.best_commit_ns", r);
    let cap = cluster.sr_limit(3).max(1.0);
    let r = per_call_ns(n, |_| {
        black_box(cluster.viable_counts(&request, 3, cap));
    });
    set(outcome, "cluster.viable_counts_ns", r);
    let hosts = hosts as u64;
    let mut devices = Vec::new();
    let r = per_call_ns(n, |i| {
        let host = i as u64 % hosts;
        black_box(cluster.try_commit(host, 7, &request, &mut devices));
        black_box(cluster.release(host, 7));
    });
    set(outcome, "cluster.commit_release_ns", r);
    let r = per_call_ns(n, |i| {
        let host = i as u64 % hosts;
        black_box(cluster.subscribe(host, &request));
        black_box(cluster.unsubscribe(host, &request));
    });
    set(outcome, "cluster.subscribe_unsubscribe_ns", r);
    let r = per_call_ns(n, |_| {
        let id = cluster.add_host(inputs::host_shape());
        black_box(cluster.remove_host(id));
    });
    set(outcome, "cluster.add_remove_host_ns", r);
}

/// Every layer `Platform` sits on, at the workload's sizes.
pub fn sim_layers(sizes: &SimSizes, smoke: bool, outcome: &mut Outcome) {
    cluster_layers(sizes.hosts, smoke, outcome);
    let n = batches(smoke);

    let keys: Vec<String> = (0..sizes.sessions)
        .map(|i| format!("kernel-{i}/state"))
        .collect();
    let mut store = DataStore::new(BackendKind::S3);
    let mut rng = SimRng::seed(1);
    let r = per_call_ns(n, |i| {
        black_box(store.write_keyed(&keys[i % keys.len()], 64 << 20, &mut rng));
    });
    set(outcome, "datastore.write_keyed_ns", r);
    for key in &keys {
        store.write_keyed(key, 64 << 20, &mut rng);
    }
    let r = per_call_ns(n, |i| {
        black_box(store.read_keyed(&keys[i % keys.len()], &mut rng).ok());
    });
    set(outcome, "datastore.read_keyed_ns", r);

    let election = ElectionModel::new();
    let r = per_call_ns(n, |_| {
        black_box(election.designation_latency(Designation::Elected, &mut rng));
    });
    set(outcome, "core.election.designation_ns", r);

    // One CDF per figure collects one sample per execution, is sorted by
    // its first query, and is merged with its peers in sweeps.
    let samples = sizes.executions.max(BATCH);
    let rounds = if smoke { 2 } else { 5 };
    let draws: Vec<f64> = (0..samples).map(|_| rng.next_f64() * 1e3).collect();
    let filled = || {
        let mut cdf = Cdf::new("probe");
        for &v in &draws {
            cdf.record(v);
        }
        cdf
    };
    let (ns, rounds_run) = per_round_ns(
        rounds,
        || Cdf::new("probe"),
        |cdf| {
            for &v in &draws {
                cdf.record(v);
            }
        },
    );
    outcome.set(
        "metrics.cdf_record_ns",
        ns / samples as f64,
        rounds_run * samples as u64,
    );
    let r = per_round_ns(rounds, filled, |cdf| {
        black_box(cdf.percentile(99.0));
    });
    set(outcome, "metrics.cdf_percentile_ns", r);
    let r = per_round_ns(
        rounds,
        || {
            let (mut a, mut b) = (filled(), filled());
            a.percentile(50.0);
            b.percentile(50.0);
            (a, b)
        },
        |(a, b)| a.merge(b),
    );
    set(outcome, "metrics.cdf_merge_ns", r);
    let (ns, rounds_run) = per_round_ns(
        rounds,
        || Timeline::new("probe"),
        |timeline| {
            for i in 0..samples {
                timeline.set(i as f64, (i % 7) as f64);
            }
        },
    );
    outcome.set(
        "metrics.timeline_set_ns",
        ns / samples as f64,
        rounds_run * samples as u64,
    );
}

// ----------------------------------------------------------------------
// The layers under `LiveGateway`
// ----------------------------------------------------------------------

fn probe_request(cell: &str, i: usize) -> JupyterMessage {
    client_request(
        format!("m{i}"),
        "s0",
        "kernel-s0",
        cell,
        SimTime::from_micros(size::SERVE_STEP_US),
        SimTime::ZERO,
    )
}

/// `jupyter.*` on the workload's own request and merged reply,
/// `cluster.*` at the gateway's fleet size, and the placement owner's
/// launch round trip.
pub fn serve_layers(cell: &str, smoke: bool, outcome: &mut Outcome) {
    let n = batches(smoke);
    let request = probe_request(cell, 0);
    let reply = request.execute_reply("r0", ReplyStatus::Ok, 1, true, 0);

    let frames = wire::encode(&[], &request, GATEWAY_KEY);
    let reply_frames = wire::encode(&[], &reply, GATEWAY_KEY);
    let wire_bytes: usize = frames.iter().chain(&reply_frames).map(|f| f.len()).sum();
    outcome.set("jupyter.wire.bytes_per_msg", wire_bytes as f64 / 2.0, 2);
    // A round trip encodes and decodes one request and one reply; the
    // probe alternates them and reports the mean of the pair per call.
    let r = per_call_ns(n, |i| {
        let message = if i % 2 == 0 { &request } else { &reply };
        black_box(wire::encode(&[], message, GATEWAY_KEY));
    });
    set(outcome, "jupyter.wire.encode_ns", r);
    let r = per_call_ns(n, |i| {
        let frames = if i % 2 == 0 { &frames } else { &reply_frames };
        black_box(wire::decode(frames, GATEWAY_KEY).is_ok());
    });
    set(outcome, "jupyter.wire.decode_ns", r);
    let r = per_call_ns(n, |_| {
        black_box(request.content.encode());
    });
    set(outcome, "jupyter.json.encode_ns", r);
    let content = request.content.encode();
    let r = per_call_ns(n, |_| {
        black_box(Json::parse(&content).is_ok());
    });
    set(outcome, "jupyter.json.parse_ns", r);

    // A router with the workload's 512 routes; each batch routes 1000
    // distinct requests, builds their three replies, and merges them.
    let sessions = inputs::scaled(size::SERVE_SESSIONS, smoke, 8);
    let mut router = Router::new();
    for s in 0..sessions {
        router.register(
            format!("kernel-s{s}"),
            KernelRoute {
                replicas: vec![0, 1, 2],
            },
        );
    }
    let requests: Vec<JupyterMessage> = (0..BATCH).map(|i| probe_request(cell, i)).collect();
    let (mut route, mut build, mut accept) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..n {
        let t = Instant::now();
        for request in &requests {
            black_box(router.route_execute(request, Some(0)).is_ok());
        }
        route.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
        let t = Instant::now();
        let replies: Vec<JupyterMessage> = requests
            .iter()
            .flat_map(|request| {
                (0..3).map(move |replica| {
                    request.execute_reply("r", ReplyStatus::Ok, 1, replica == 0, 0)
                })
            })
            .collect();
        build.push(t.elapsed().as_nanos() as f64 / (3 * BATCH) as f64);
        let t = Instant::now();
        for reply in replies {
            black_box(router.accept_reply(reply).is_ok());
        }
        accept.push(t.elapsed().as_nanos() as f64 / (3 * BATCH) as f64);
    }
    let calls = (n * BATCH) as u64;
    outcome.set("jupyter.router.route_execute_ns", median(&route), calls);
    outcome.set(
        "jupyter.message.execute_reply_ns",
        median(&build),
        3 * calls,
    );
    outcome.set("jupyter.router.accept_reply_ns", median(&accept), 3 * calls);

    cluster_layers(inputs::scaled(size::SERVE_HOSTS, smoke, 8), smoke, outcome);

    // Owner thread + this caller = 2 threads. Recorded so the sharded
    // engine of ROADMAP item 2 starts with a number; no end-to-end metric
    // of this benchmark moves with it.
    let service = PlacementService::spawn(size::SERVE_HOSTS, inputs::host_shape(), 3);
    let mut client = service.client();
    let r = per_call_ns(n.min(3), |_| {
        black_box(client.launch("kernel-probe", inputs::serve_spec()).is_ok());
        client.shutdown("kernel-probe");
    });
    set(outcome, "core.placement_service.launch_roundtrip_ns", r);
    drop(client);
    service.join();
}

// ----------------------------------------------------------------------
// The layers under `RaftNode`
// ----------------------------------------------------------------------

/// `raft.log.*` on a log as long as one pass makes it.
pub fn raft_layers(commands: &[Vec<u8>], smoke: bool, outcome: &mut Outcome) {
    let n = batches(smoke);
    let rounds = if smoke { 2 } else { 5 };
    let (ns, rounds_run) = per_round_ns(rounds, RaftLog::<Vec<u8>>::new, |log| {
        for command in commands {
            log.append(1, EntryPayload::Command(command.clone()));
        }
    });
    outcome.set(
        "raft.log.append_ns",
        ns / commands.len() as f64,
        rounds_run * commands.len() as u64,
    );
    let mut log = RaftLog::new();
    for command in commands {
        log.append(1, EntryPayload::Command(command.clone()));
    }
    // What the closed loop asks of the log: the window of outstanding
    // entries, sliced for an append and merged again by a follower that
    // already holds them (the resend case).
    let window = size::RAFT_OUTSTANDING as u64;
    let last = log.last_index();
    let r = per_call_ns(n, |i| {
        let from = 1 + i as u64 % (last - window);
        black_box(log.slice(from, from + window - 1, 64));
    });
    set(outcome, "raft.log.slice_ns", r);
    let resend: Vec<Entry<Vec<u8>>> = log.slice(last - window + 1, last, 64);
    let r = per_call_ns(n, |_| {
        black_box(log.merge(&resend));
    });
    set(outcome, "raft.log.merge_ns", r);
}
