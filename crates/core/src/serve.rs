//! Live service mode: the Jupyter-facing gateway serving wall-clock wire
//! traffic.
//!
//! Everything below runs the *same* control plane the simulator models —
//! [`GatewayProvisioner`] kernel creation (Fig. 4), [`Router`] fan-out and
//! reply aggregation (Fig. 3/5), [`SessionManager`] bookkeeping — but fed
//! by real, signed Jupyter wire messages arriving over a
//! [`notebookos_jupyter::WireEndpoint`] instead of by trace
//! events. A driver (the `serve` bin's load generator, or a test) owns the
//! scheduler: it pumps the gateway, learns which executions were accepted
//! and how long their cells run, and calls back at each completion
//! deadline. Because all timing flows through the driver's
//! [`Scheduler`](notebookos_des::Scheduler), the identical serving loop
//! runs under virtual time in tests and under the real-time scheduler in
//! the bin.
//!
//! One [`LiveGateway`] owns its provisioner and the whole fleet, as the
//! paper's one Global Scheduler behind the Jupyter Server does (§3.1).
//!
//! Execution itself is simulated: the client embeds its cell's running
//! time in request metadata under [`DURATION_KEY`], standing in for the
//! actual user code a production kernel would run. The wire protocol, the
//! fan-out to R replicas, and the one-merged-reply-per-request contract
//! are all real.

use std::collections::HashMap;

use notebookos_cluster::{Cluster, ResourceBundle};
use notebookos_des::SimTime;
use notebookos_jupyter::{
    wire_pair, Bytes, ConnectionInfo, Header, Json, JupyterMessage, KernelResourceSpec,
    KernelRoute, MsgIdGen, MsgType, ProvisionError, ReplyStatus, Router, SessionManager,
    WireEndpoint,
};

use crate::gateway::{request_of, GatewayProvisioner};
use crate::policy::LeastLoaded;

/// Metadata key carrying the simulated cell running time (µs) in an
/// `execute_request` — the load generator's stand-in for user code.
pub const DURATION_KEY: &str = "duration_us";

/// The signing key shared by the gateway and its clients (the key
/// [`GatewayProvisioner`] hands out in [`ConnectionInfo`]).
pub const GATEWAY_KEY: &[u8] = b"notebookos-gateway";

/// One execution the gateway accepted off the wire. The driver schedules
/// the completion callback [`LiveGateway::finish_execution`] after
/// `duration`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcceptedExecution {
    /// The request's message id (the completion-callback handle).
    pub msg_id: String,
    /// The submitting session.
    pub session_id: String,
    /// The kernel that executes the cell.
    pub kernel_id: String,
    /// Simulated cell running time from the request metadata.
    pub duration: SimTime,
    /// Wire copies fanned out to replicas (1 `execute_request` +
    /// R−1 `yield_request`s).
    pub fan_out: usize,
}

/// Cumulative wire/serving counters, reported by the `serve` bin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Well-formed `execute_request`s accepted and fanned out.
    pub accepted: u64,
    /// Messages dropped: bad signature, wrong type, missing duration
    /// metadata, unknown session, a destination that is not the session's
    /// own kernel, or a message id that is still in flight.
    pub rejected: u64,
    /// Merged `execute_reply`s returned to clients.
    pub replies: u64,
    /// Total replica copies produced by fan-out.
    pub fan_out_copies: u64,
}

/// A fanned-out execution awaiting its completion deadline: what the
/// replies are built from (the request's header — they name it as parent)
/// and routed by, not the request itself.
#[derive(Debug)]
struct PendingExecution {
    header: Header,
    identities: Vec<Bytes>,
    designated: u32,
    execution_count: u64,
    replicas: usize,
}

/// The live gateway: Fig. 4's control plane plus Fig. 3/5's data plane,
/// behind one wire endpoint. It owns its [`GatewayProvisioner`] and the
/// fleet under it outright — one Global Scheduler, as in §3.1.
///
/// Time never advances inside the gateway — every method takes `now` from
/// the driver, so the same instance serves virtual-time tests and
/// wall-clock traffic unchanged.
#[derive(Debug)]
pub struct LiveGateway {
    provisioner: GatewayProvisioner<LeastLoaded>,
    router: Router,
    sessions: SessionManager,
    reply_ids: MsgIdGen,
    endpoint: WireEndpoint,
    replication_factor: u32,
    pending: HashMap<String, PendingExecution>,
    stats: GatewayStats,
}

impl LiveGateway {
    /// Creates a gateway over a fresh cluster of `hosts` servers of the
    /// given shape, returning the client's end of the wire.
    pub fn new(
        hosts: usize,
        shape: ResourceBundle,
        replication_factor: u32,
    ) -> (LiveGateway, WireEndpoint) {
        let cluster = Cluster::with_hosts(hosts, shape);
        let (server, client) = wire_pair(GATEWAY_KEY);
        (
            LiveGateway {
                provisioner: GatewayProvisioner::new(
                    cluster,
                    LeastLoaded::default(),
                    replication_factor,
                ),
                router: Router::new(),
                sessions: SessionManager::new(),
                reply_ids: MsgIdGen::new("gw-reply"),
                endpoint: server,
                replication_factor,
                pending: HashMap::new(),
                stats: GatewayStats::default(),
            },
            client,
        )
    }

    /// Starts a session: launches its distributed kernel through the
    /// Fig. 4 control plane and registers the replica route.
    ///
    /// # Errors
    ///
    /// Propagates the provisioner's placement shortfall when fewer than R
    /// viable hosts exist.
    pub fn start_session(
        &mut self,
        session_id: &str,
        spec: KernelResourceSpec,
        now: SimTime,
    ) -> Result<ConnectionInfo, ProvisionError> {
        let kernel_id = format!("kernel-{session_id}");
        let (info, replica_hosts) = self.provisioner.launch(&kernel_id, spec)?;
        self.router.register(
            &kernel_id,
            KernelRoute {
                // `HostId` doubles as the Local Scheduler id (one per
                // GPU server).
                replicas: replica_hosts,
            },
        );
        self.sessions
            .create(session_id, &kernel_id, now.as_micros());
        Ok(info)
    }

    /// Ends a session: deregisters the route and releases the kernel's
    /// subscriptions. Unknown sessions are a no-op (`false`).
    pub fn end_session(&mut self, session_id: &str) -> bool {
        let Some(session) = self.sessions.remove(session_id) else {
            return false;
        };
        self.router.deregister(&session.kernel_id);
        // Always `Ok`: a session exists only once its kernel launched
        // (`start_session`), and only here is it shut down.
        let shut_down = self.provisioner.shutdown(&session.kernel_id);
        debug_assert!(shut_down.is_ok(), "session kernels are live");
        true
    }

    /// Drains the wire and fans out every well-formed `execute_request`
    /// (Fig. 3 steps 2–3), returning the accepted executions so the driver
    /// can schedule their completion deadlines. Refused traffic — bad
    /// signatures, non-request types, missing [`DURATION_KEY`], unknown
    /// sessions, another session's kernel, a `msg_id` still in flight — is
    /// counted in [`GatewayStats::rejected`] and changes nothing else.
    pub fn pump(&mut self, now: SimTime) -> Vec<AcceptedExecution> {
        let mut accepted = Vec::new();
        while let Some(decoded) = self.endpoint.try_recv() {
            let Ok((identities, message)) = decoded else {
                self.stats.rejected += 1;
                continue;
            };
            match self.accept(identities, message, now) {
                Some(execution) => {
                    self.stats.accepted += 1;
                    self.stats.fan_out_copies += execution.fan_out as u64;
                    accepted.push(execution);
                }
                None => self.stats.rejected += 1,
            }
        }
        accepted
    }

    /// Validates first, mutates after: a refused request leaves the session
    /// record, the rotation, the router and `pending` as they were.
    fn accept(
        &mut self,
        identities: Vec<Bytes>,
        message: JupyterMessage,
        now: SimTime,
    ) -> Option<AcceptedExecution> {
        if message.header.msg_type != MsgType::ExecuteRequest {
            return None;
        }
        let duration =
            SimTime::from_micros(message.metadata.get(DURATION_KEY).and_then(Json::as_u64)?);
        let session = self.sessions.get_mut(&message.header.session)?;
        let kernel_id = message.destination()?;
        if kernel_id != session.kernel_id {
            return None;
        }
        // Rotate the designated executor across replicas — the live
        // stand-in for the §3.2.2 election the DES models in detail.
        let designated = (session.execution_count % u64::from(self.replication_factor)) as u32;
        // The last check and the first change: the router tracks the fan-in
        // only if the route exists and the `msg_id` is not already in flight.
        let fan_out = self
            .router
            .route_execute(&message, Some(designated))
            .ok()?
            .len();
        let kernel_id = kernel_id.to_string();
        let execution_count = session.record_execution(now.as_micros());
        let header = message.header;
        let accepted = AcceptedExecution {
            msg_id: header.msg_id.clone(),
            session_id: header.session.clone(),
            kernel_id,
            duration,
            fan_out,
        };
        self.pending.insert(
            header.msg_id.clone(),
            PendingExecution {
                header,
                identities,
                designated,
                execution_count,
                replicas: fan_out,
            },
        );
        Some(accepted)
    }

    /// Completes an accepted execution (Fig. 5 step 8): every replica
    /// answers, the router merges, and the merged reply goes back over the
    /// wire. Only the designated executor's `execute_reply` is built; the
    /// R−1 followers' `ok` replies are counted, not built, since the
    /// executor's outranks them and they would be dropped on arrival
    /// ([`Router::accept_followers`]). Each replica still uses up its reply
    /// id, so the merged reply is named as if all R had been built. Returns
    /// `false` for an unknown or already-completed `msg_id`.
    pub fn finish_execution(&mut self, msg_id: &str, now: SimTime) -> bool {
        let Some(pending) = self.pending.remove(msg_id) else {
            return false;
        };
        let followers = pending.replicas - 1;
        let designated = u64::from(pending.designated);
        self.reply_ids.skip(designated);
        let reply = pending.header.execute_reply(
            self.reply_ids.next_id(),
            ReplyStatus::Ok,
            pending.execution_count,
            true,
            now.as_micros(),
        );
        self.reply_ids.skip(followers as u64 - designated);
        if self.router.accept_followers(msg_id, followers).is_err() {
            return false;
        }
        let Ok(Some(merged)) = self.router.accept_reply(reply) else {
            return false;
        };
        self.stats.replies += 1;
        self.endpoint.send(&pending.identities, &merged)
    }

    /// How many hosts could currently take a kernel of `spec` — the
    /// capacity gauge the `serve` bin samples. Served from the placement
    /// index's per-class counts ([`Cluster::viable_count`]), never a fleet
    /// scan.
    pub fn viable_count(&self, spec: KernelResourceSpec) -> usize {
        self.provisioner.cluster().viable_count(&request_of(spec))
    }

    /// Live session count.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Executions fanned out but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Cumulative serving counters.
    pub fn stats(&self) -> GatewayStats {
        self.stats
    }
}

/// Builds a client-side `execute_request` for the live gateway: code plus
/// the [`DURATION_KEY`] metadata the driver uses to schedule completion.
pub fn client_request(
    msg_id: impl Into<String>,
    session_id: &str,
    kernel_id: &str,
    code: impl Into<String>,
    duration: SimTime,
    now: SimTime,
) -> JupyterMessage {
    let mut message = JupyterMessage::execute_request(msg_id, session_id, code, now.as_micros())
        .with_destination(kernel_id);
    message.metadata = message.metadata.with(DURATION_KEY, duration.as_micros());
    message
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PlacementContext;
    use notebookos_cluster::ResourceRequest;

    fn spec() -> KernelResourceSpec {
        KernelResourceSpec {
            millicpus: 4000,
            memory_mb: 16_384,
            gpus: 1,
            vram_gb: 16,
        }
    }

    fn gateway() -> (LiveGateway, WireEndpoint) {
        LiveGateway::new(4, ResourceBundle::p3_16xlarge(), 3)
    }

    #[test]
    fn full_execute_round_trip_over_the_wire() {
        let (mut gw, mut client) = gateway();
        gw.start_session("s1", spec(), SimTime::ZERO)
            .expect("starts");
        assert_eq!(gw.session_count(), 1);
        assert_eq!(gw.provisioner.kernel_count(), 1);

        let req = client_request(
            "m1",
            "s1",
            "kernel-s1",
            "model.fit()",
            SimTime::from_secs(2),
            SimTime::from_secs(1),
        );
        assert!(client.send(&[], &req));
        let accepted = gw.pump(SimTime::from_secs(1));
        assert_eq!(accepted.len(), 1);
        assert_eq!(accepted[0].msg_id, "m1");
        assert_eq!(accepted[0].duration, SimTime::from_secs(2));
        assert_eq!(accepted[0].fan_out, 3, "one copy per replica");
        assert_eq!(gw.in_flight(), 1);

        assert!(gw.finish_execution("m1", SimTime::from_secs(3)));
        assert_eq!(gw.in_flight(), 0);
        let (_, reply) = client.try_recv().expect("reply pending").expect("verifies");
        assert!(reply.is_ok_reply());
        assert_eq!(reply.parent.as_ref().unwrap().msg_id, "m1");
        assert_eq!(gw.stats().replies, 1);
        // Completing twice is a no-op.
        assert!(!gw.finish_execution("m1", SimTime::from_secs(4)));
    }

    #[test]
    fn executor_designation_rotates_across_executions() {
        let (mut gw, mut client) = gateway();
        gw.start_session("s1", spec(), SimTime::ZERO)
            .expect("starts");
        for i in 0..4 {
            let req = client_request(
                format!("m{i}"),
                "s1",
                "kernel-s1",
                "x",
                SimTime::from_millis(1),
                SimTime::from_secs(i),
            );
            client.send(&[], &req);
        }
        gw.pump(SimTime::from_secs(4));
        for i in 0..4 {
            assert!(gw.finish_execution(&format!("m{i}"), SimTime::from_secs(5)));
        }
        // The four merged replies came from executors 0, 1, 2, 0.
        let (replies, rejected) = client.drain();
        assert_eq!(rejected, 0);
        assert_eq!(replies.len(), 4);
    }

    #[test]
    fn malformed_traffic_is_rejected_not_fatal() {
        let (mut gw, mut client) = gateway();
        gw.start_session("s1", spec(), SimTime::ZERO)
            .expect("starts");
        // No duration metadata.
        let bare =
            JupyterMessage::execute_request("m1", "s1", "x", 0).with_destination("kernel-s1");
        client.send(&[], &bare);
        // Unknown session.
        client.send(
            &[],
            &client_request(
                "m2",
                "ghost",
                "kernel-s1",
                "x",
                SimTime::from_secs(1),
                SimTime::ZERO,
            ),
        );
        // Unknown kernel.
        client.send(
            &[],
            &client_request(
                "m3",
                "s1",
                "kernel-ghost",
                "x",
                SimTime::from_secs(1),
                SimTime::ZERO,
            ),
        );
        assert!(gw.pump(SimTime::ZERO).is_empty());
        assert_eq!(gw.stats().rejected, 3);
        assert_eq!(gw.stats().accepted, 0);
    }

    #[test]
    fn end_session_releases_kernel_resources() {
        let (mut gw, _client) = gateway();
        gw.start_session("s1", spec(), SimTime::ZERO)
            .expect("starts");
        let before = gw.viable_count(spec());
        assert!(gw.end_session("s1"));
        assert!(!gw.end_session("s1"), "second end is a no-op");
        assert_eq!(gw.session_count(), 0);
        assert_eq!(gw.provisioner.kernel_count(), 0);
        assert!(gw.viable_count(spec()) >= before);
    }

    #[test]
    fn a_session_ended_under_a_queued_request_is_refused_and_can_start_again() {
        let (mut gw, mut client) = gateway();
        gw.start_session("s1", spec(), SimTime::ZERO).unwrap();
        let at = SimTime::from_secs;
        client.send(&[], &request_to("m1", "s1", "kernel-s1", at(1)));
        assert!(gw.end_session("s1"));
        assert!(!gw.end_session("s1"));
        assert!(gw.pump(at(1)).is_empty(), "its session is gone");
        assert_eq!((gw.stats().rejected, gw.in_flight()), (1, 0));
        // The same id starts again on a fresh kernel and counts from 1.
        gw.start_session("s1", spec(), at(2)).unwrap();
        assert_eq!(gw.provisioner.kernel_count(), 1);
        let again = request_to("m1", "s1", "kernel-s1", at(3));
        assert_eq!(complete(&mut gw, &mut client, &again, at(3)), (1, 0));
    }

    #[test]
    fn viable_count_gauge_matches_materialized_screen() {
        let (mut gw, _client) = gateway();
        for i in 0..6 {
            gw.start_session(&format!("s{i}"), spec(), SimTime::ZERO)
                .expect("starts");
        }
        let request = ResourceRequest::new(4000, 16_384, 1, 16);
        let ctx = PlacementContext {
            cluster: gw.provisioner.cluster(),
            request: &request,
            replication_factor: 3,
        };
        let mut v = notebookos_cluster::Viability::default();
        ctx.viable_into(&mut v);
        assert_eq!(gw.viable_count(spec()), v.len());
    }

    #[test]
    fn shortfall_propagates_to_caller() {
        // 2 hosts cannot place R = 3 replicas.
        let (mut gw, _client) = LiveGateway::new(2, ResourceBundle::p3_16xlarge(), 3);
        assert!(matches!(
            gw.start_session("s1", spec(), SimTime::ZERO),
            Err(ProvisionError::InsufficientResources(_))
        ));
        assert_eq!(gw.session_count(), 0);
    }

    #[test]
    fn a_duplicate_start_is_its_own_error_and_changes_nothing() {
        let (mut gw, _client) = gateway();
        gw.start_session("s1", spec(), SimTime::ZERO).unwrap();
        // Sessions, kernels, routes, subscriptions and counters alike.
        let before = format!("{gw:?}");
        assert_eq!(
            gw.start_session("s1", spec(), SimTime::from_secs(1)),
            Err(ProvisionError::DuplicateKernel("kernel-s1".into()))
        );
        assert_eq!(format!("{gw:?}"), before);
    }

    fn request_to(msg_id: &str, session: &str, kernel: &str, at: SimTime) -> JupyterMessage {
        client_request(msg_id, session, kernel, "x", SimTime::from_millis(1), at)
    }

    /// Runs one request to completion and reads, off the merged reply, the
    /// session's execution count and which replica was designated: replica
    /// `r` of the gateway's `k`-th completion answers as `gw-reply-{3k+r+1}`
    /// and the merged reply is the designated replica's.
    fn complete(
        gw: &mut LiveGateway,
        client: &mut WireEndpoint,
        request: &JupyterMessage,
        now: SimTime,
    ) -> (u64, u64) {
        client.send(&[], request);
        assert_eq!(gw.pump(now).len(), 1, "accepted");
        assert!(gw.finish_execution(&request.header.msg_id, now));
        let (_, reply) = client.try_recv().expect("reply").expect("verifies");
        let count = reply.content.get("execution_count").unwrap().as_u64();
        let ordinal: u64 = reply.header.msg_id["gw-reply-".len()..].parse().unwrap();
        (count.unwrap(), (ordinal - 1) % 3)
    }

    /// `finish_execution` as it was before the followers were counted:
    /// every replica's `execute_reply` built and handed to
    /// `Router::accept_reply`. The reference the one-reply path is held to.
    fn finish_execution_building_every_reply(
        gw: &mut LiveGateway,
        msg_id: &str,
        now: SimTime,
    ) -> bool {
        let Some(pending) = gw.pending.remove(msg_id) else {
            return false;
        };
        let mut merged = None;
        for replica in 0..pending.replicas as u32 {
            let reply = pending.header.execute_reply(
                gw.reply_ids.next_id(),
                ReplyStatus::Ok,
                pending.execution_count,
                replica == pending.designated,
                now.as_micros(),
            );
            match gw.router.accept_reply(reply) {
                Ok(Some(m)) => merged = Some(m),
                Ok(None) => {}
                Err(_) => return false,
            }
        }
        let Some(merged) = merged else {
            return false;
        };
        gw.stats.replies += 1;
        gw.endpoint.send(&pending.identities, &merged)
    }

    #[test]
    fn one_built_reply_merges_to_the_bytes_that_r_built_replies_did() {
        let identity = [Bytes::from_static(b"client-7")];
        for replicas in [1u32, 3, 5] {
            let (mut built, mut built_client) =
                LiveGateway::new(5, ResourceBundle::p3_16xlarge(), replicas);
            let (mut counted, mut counted_client) =
                LiveGateway::new(5, ResourceBundle::p3_16xlarge(), replicas);
            for gw in [&mut built, &mut counted] {
                for session in ["s0", "s1"] {
                    gw.start_session(session, spec(), SimTime::ZERO).unwrap();
                }
            }
            // Two sessions in turn, each executing R + 1 times: every
            // replica is designated, and execution counts run 1..=R + 1.
            for i in 0..2 * (u64::from(replicas) + 1) {
                let session = format!("s{}", i % 2);
                let request = request_to(
                    &format!("m{i}"),
                    &session,
                    &format!("kernel-{session}"),
                    SimTime::from_secs(i),
                );
                let done = SimTime::from_secs(i + 1);
                built_client.send(&identity, &request);
                counted_client.send(&identity, &request);
                assert_eq!((built.pump(done).len(), counted.pump(done).len()), (1, 1));
                let id = &request.header.msg_id;
                assert!(finish_execution_building_every_reply(&mut built, id, done));
                assert!(counted.finish_execution(id, done));
                let (ids, reply) = built_client.try_recv().unwrap().unwrap();
                let want = notebookos_jupyter::wire::encode(&ids, &reply, GATEWAY_KEY);
                let (ids, reply) = counted_client.try_recv().unwrap().unwrap();
                let got = notebookos_jupyter::wire::encode(&ids, &reply, GATEWAY_KEY);
                assert_eq!(got, want, "R = {replicas}, execution {i}");
                assert_eq!(
                    counted.reply_ids.clone().next_id(),
                    built.reply_ids.clone().next_id(),
                    "the reply-id counter, R = {replicas}, execution {i}"
                );
                assert_eq!(counted.stats(), built.stats());
            }
            assert_eq!(counted.in_flight(), 0);
        }
    }

    #[test]
    fn a_request_for_an_unknown_kernel_does_not_count_as_an_execution() {
        let (mut gw, mut client) = gateway();
        gw.start_session("s1", spec(), SimTime::ZERO).unwrap();
        client.send(
            &[],
            &request_to("m1", "s1", "kernel-ghost", SimTime::from_secs(9)),
        );
        assert!(gw.pump(SimTime::from_secs(9)).is_empty());
        assert_eq!((gw.stats().rejected, gw.in_flight()), (1, 0));
        let session = gw.sessions.get("s1").unwrap();
        assert_eq!((session.execution_count, session.last_activity_us), (0, 0));
    }

    #[test]
    fn a_session_cannot_execute_on_another_sessions_kernel() {
        let (mut gw, mut client) = gateway();
        gw.start_session("s1", spec(), SimTime::ZERO).unwrap();
        gw.start_session("s2", spec(), SimTime::ZERO).unwrap();
        client.send(&[], &request_to("m1", "s1", "kernel-s2", SimTime::ZERO));
        assert!(gw.pump(SimTime::ZERO).is_empty());
        let stats = gw.stats();
        assert_eq!(
            (stats.accepted, stats.rejected, stats.fan_out_copies),
            (0, 1, 0)
        );
        assert_eq!(gw.in_flight(), 0, "nothing parked against s2's kernel");
        for id in ["s1", "s2"] {
            assert_eq!(gw.sessions.get(id).unwrap().execution_count, 0);
        }
    }

    #[test]
    fn a_msg_id_still_in_flight_is_refused_and_the_first_request_completes() {
        let (mut gw, mut client) = gateway();
        gw.start_session("s1", spec(), SimTime::ZERO).unwrap();
        gw.start_session("s2", spec(), SimTime::ZERO).unwrap();
        client.send(&[], &request_to("m1", "s1", "kernel-s1", SimTime::ZERO));
        client.send(&[], &request_to("m1", "s2", "kernel-s2", SimTime::ZERO));
        client.send(&[], &request_to("m1", "s1", "kernel-s1", SimTime::ZERO));
        let accepted = gw.pump(SimTime::ZERO);
        assert_eq!(accepted.len(), 1);
        assert_eq!(accepted[0].session_id, "s1");
        assert_eq!((gw.stats().accepted, gw.stats().rejected), (1, 2));
        assert!(gw.finish_execution("m1", SimTime::from_secs(1)));
        let (_, reply) = client.try_recv().expect("reply").expect("verifies");
        assert_eq!(reply.parent.unwrap().session, "s1", "the first request's");
        assert_eq!((gw.stats().replies, gw.in_flight()), (1, 0));
        // Answered, the id may be used again — and s2 never executed.
        let again = request_to("m1", "s2", "kernel-s2", SimTime::from_secs(2));
        assert_eq!(
            complete(&mut gw, &mut client, &again, SimTime::from_secs(2)).0,
            1
        );
        assert_eq!((gw.stats().accepted, gw.stats().replies), (2, 2));
    }

    #[test]
    fn refused_requests_leave_the_count_and_the_rotation_where_they_were() {
        let (mut gw, mut client) = gateway();
        gw.start_session("s1", spec(), SimTime::ZERO).unwrap();
        gw.start_session("s2", spec(), SimTime::ZERO).unwrap();
        let at = SimTime::from_secs;
        let first = request_to("m1", "s1", "kernel-s1", at(1));
        assert_eq!(complete(&mut gw, &mut client, &first, at(1)), (1, 0));

        // One of each refusal, the duplicate against a request in flight.
        client.send(&[], &request_to("held", "s2", "kernel-s2", at(2)));
        assert_eq!(gw.pump(at(2)).len(), 1);
        let mut no_duration = request_to("m2", "s1", "kernel-s1", at(3));
        no_duration.metadata = Json::object().with("kernel_id", "kernel-s1");
        for refused in [
            request_to("m2", "s1", "kernel-ghost", at(3)),
            request_to("m2", "s1", "kernel-s2", at(3)),
            request_to("held", "s1", "kernel-s1", at(3)),
            request_to("m2", "ghost", "kernel-s1", at(3)),
            no_duration,
        ] {
            client.send(&[], &refused);
        }
        assert!(gw.pump(at(3)).is_empty());
        assert_eq!(gw.stats().rejected, 5);
        assert!(gw.finish_execution("held", at(3)));
        client.drain();

        // s1's second execution is its second, on the second replica.
        let second = request_to("m2", "s1", "kernel-s1", at(4));
        assert_eq!(complete(&mut gw, &mut client, &second, at(4)), (2, 1));
        let session = gw.sessions.get("s1").unwrap();
        assert_eq!(
            (session.execution_count, session.last_activity_us),
            (2, at(4).as_micros())
        );
    }
}
