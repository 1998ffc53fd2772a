//! Live service mode: the Jupyter-facing gateway serving wall-clock wire
//! traffic.
//!
//! Everything below runs the *same* control plane the simulator models —
//! [`GatewayProvisioner`] kernel placement (Fig. 4), fan-out and reply
//! aggregation (Fig. 3/5), [`SessionManager`] bookkeeping — but fed by
//! real, signed Jupyter wire messages arriving over a
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
//!
//! # One slot per live session
//!
//! A live session is one [`SessionIdx`](notebookos_jupyter::SessionIdx), handed out by `start_session` from
//! the [`SessionManager`]'s free-list slab. Its slot holds:
//!
//! * the session record: its id (one `Rc<str>`, shared with the id index),
//!   its execution count and its last activity;
//! * its kernel's route, which is also the placement record: the R replica
//!   hosts, at `R · idx` in one flat column;
//! * its kernel's resources, in a second column, for `end_session` to
//!   release.
//!
//! The kernel's id is not stored: it is `kernel-{session}`
//! ([`kernel_id_of`]), checked against a request's destination without
//! being built. The pump resolves a request's session with one lookup and
//! reads everything else from the slot. A request in flight is keyed once,
//! by its `msg_id`, in one [`InFlight`] table whose fan-in holds what the
//! reply is built from. Strings are built only where a frame is: the reply
//! header's session and message id when the reply is encoded, the kernel id
//! in the [`ConnectionInfo`] a start returns.

use std::rc::Rc;

use notebookos_cluster::{Cluster, HostId, ResourceBundle};
use notebookos_des::SimTime;
use notebookos_jupyter::message::DESTINATION_KEY;
use notebookos_jupyter::{
    kernel_id_of, wire_pair, Bytes, ConnectionInfo, Header, HeaderRef, InFlight, JupyterMessage,
    KernelResourceSpec, MsgIdGen, MsgType, ProvisionError, ReplyStatus, SessionManager,
    WireEndpoint,
};

use crate::gateway::{connection_info, request_of, GatewayProvisioner};
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

/// A fanned-out execution awaiting its completion deadline, kept with its
/// fan-in: what the reply is built from and routed by.
#[derive(Debug)]
struct PendingExecution {
    /// The request's header with its message id and session left empty:
    /// the in-flight table's key is the one, `session` the other.
    parent: Header,
    /// The requesting session's id, shared with its slot: a reply still
    /// names it after the session ends and its slot is taken again.
    session: Rc<str>,
    identities: Vec<Bytes>,
    designated: u32,
    execution_count: u64,
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
    /// The session slab: one slot per live session (module docs).
    sessions: SessionManager,
    /// Each slot's kernel route and placement record: its R replica hosts
    /// at `R · idx`.
    replicas: Vec<HostId>,
    /// Each slot's kernel resources.
    specs: Vec<KernelResourceSpec>,
    in_flight: InFlight<PendingExecution>,
    reply_ids: MsgIdGen,
    endpoint: WireEndpoint,
    replication_factor: u32,
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
                sessions: SessionManager::new(),
                replicas: Vec::new(),
                specs: Vec::new(),
                in_flight: InFlight::default(),
                reply_ids: MsgIdGen::new("gw-reply"),
                endpoint: server,
                replication_factor,
                stats: GatewayStats::default(),
            },
            client,
        )
    }

    /// Starts a session: places its distributed kernel through the Fig. 4
    /// control plane and records the route in the session's slot.
    ///
    /// # Errors
    ///
    /// Returns [`ProvisionError::DuplicateKernel`] for a session that is
    /// already live, and propagates the provisioner's placement shortfall
    /// when fewer than R viable hosts exist; nothing changes in either
    /// case.
    pub fn start_session(
        &mut self,
        session_id: &str,
        spec: KernelResourceSpec,
        now: SimTime,
    ) -> Result<ConnectionInfo, ProvisionError> {
        if self.sessions.find(session_id).is_some() {
            return Err(ProvisionError::DuplicateKernel(kernel_id_of(session_id)));
        }
        let hosts = self.provisioner.place(spec)?;
        let idx = self.sessions.create(session_id, now.as_micros());
        // A slot the slab never handed out before is the next index, and
        // extends the columns; a reused one overwrites its old entries.
        let r = self.replication_factor as usize;
        if idx.index() == self.specs.len() {
            self.replicas.extend_from_slice(hosts);
            self.specs.push(spec);
        } else {
            self.replicas[idx.index() * r..][..r].copy_from_slice(hosts);
            self.specs[idx.index()] = spec;
        }
        Ok(connection_info(kernel_id_of(session_id), hosts))
    }

    /// Ends a session: frees its slot and releases its kernel's
    /// subscriptions. Unknown sessions are a no-op (`false`).
    pub fn end_session(&mut self, session_id: &str) -> bool {
        let Some((idx, _)) = self.sessions.remove(session_id) else {
            return false;
        };
        let r = self.replication_factor as usize;
        let route = &self.replicas[idx.index() * r..][..r];
        self.provisioner.release(route, self.specs[idx.index()]);
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
        while let Some(frames) = self.endpoint.recv_frames() {
            match self.accept(&frames, now) {
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

    /// Reads one request in place ([`WireEndpoint::read`]): its session,
    /// destination and duration are looked up as slices of its frames, and
    /// only an accepted request's message id is owned, once for the caller
    /// and once as its in-flight key. Validates first, mutates after: a
    /// refused request leaves the session's slot, the rotation and the
    /// in-flight table as they were.
    fn accept(&mut self, frames: &[Bytes], now: SimTime) -> Option<AcceptedExecution> {
        let (mut destination, mut duration_us) = (None, None);
        let request = self
            .endpoint
            .read(
                frames,
                |key, value| match key {
                    DESTINATION_KEY => destination = value.str(),
                    DURATION_KEY => duration_us = value.u64(),
                    _ => {}
                },
                |_, _| {},
            )
            .ok()?;
        if request.header.msg_type != MsgType::ExecuteRequest {
            return None;
        }
        let duration = SimTime::from_micros(duration_us?);
        let idx = self.sessions.find(&request.header.session)?;
        let session = self.sessions.slot(idx);
        if !session.runs(&destination?) {
            return None;
        }
        // Rotate the designated executor across replicas — the live
        // stand-in for the §3.2.2 election the DES models in detail.
        let designated = (session.execution_count % u64::from(self.replication_factor)) as u32;
        let fan_out = self.replication_factor as usize;
        let pending = PendingExecution {
            session: Rc::clone(&session.id),
            execution_count: session.execution_count + 1,
            identities: request.identities.to_vec(),
            designated,
            parent: HeaderRef {
                msg_id: "".into(),
                session: "".into(),
                ..request.header
            }
            .into_owned(),
        };
        let msg_id = request.header.msg_id;
        // The last check and the first change: the fan-in starts only if
        // the `msg_id` is not already in flight.
        self.in_flight.begin(&msg_id, fan_out, pending).ok()?;
        self.sessions
            .slot_mut(idx)
            .record_execution(now.as_micros());
        Some(AcceptedExecution {
            msg_id: msg_id.into_owned(),
            duration,
            fan_out,
        })
    }

    /// Completes an accepted execution (Fig. 5 step 8): every replica
    /// answers, the fan-in merges, and the merged reply goes back over the
    /// wire. Only the designated executor's `execute_reply` is built; the
    /// R−1 followers' `ok` replies are counted, not built, since the
    /// executor's outranks them and they would be dropped on arrival
    /// ([`notebookos_jupyter::FanIn::accept_followers`]). Each replica
    /// still uses up its reply id, so the merged reply is named as if all R
    /// had been built. Returns `false` for an unknown or already-completed
    /// `msg_id`.
    pub fn finish_execution(&mut self, msg_id: &str, now: SimTime) -> bool {
        let Some((msg_id, mut fan_in, pending)) = self.in_flight.take(msg_id) else {
            return false;
        };
        let followers = self.replication_factor as usize - 1;
        let designated = u64::from(pending.designated);
        self.reply_ids.skip(designated);
        let parent = Header {
            msg_id,
            session: pending.session.to_string(),
            ..pending.parent
        };
        let reply = parent.into_execute_reply(
            self.reply_ids.next_id(),
            ReplyStatus::Ok,
            pending.execution_count,
            true,
            now.as_micros(),
        );
        self.reply_ids.skip(followers as u64 - designated);
        if !fan_in.accept_followers(followers) {
            return false;
        }
        let Some(merged) = fan_in.accept(reply) else {
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
        self.in_flight.len()
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
    use notebookos_jupyter::json::MAX_DEPTH;
    use notebookos_jupyter::Json;

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
        assert_eq!(gw.provisioner.cluster().total_subscribed_gpus(), 3);

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
        assert_eq!(gw.provisioner.cluster().total_subscribed_gpus(), 0);
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
        assert_eq!(gw.provisioner.cluster().total_subscribed_gpus(), 3);
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
    /// every replica's `execute_reply` built and handed to the fan-in. The
    /// reference the one-reply path is held to.
    fn finish_execution_building_every_reply(
        gw: &mut LiveGateway,
        msg_id: &str,
        now: SimTime,
    ) -> bool {
        let Some((msg_id, mut fan_in, pending)) = gw.in_flight.take(msg_id) else {
            return false;
        };
        let parent = Header {
            msg_id,
            session: pending.session.to_string(),
            ..pending.parent
        };
        let mut merged = None;
        for replica in 0..gw.replication_factor {
            let reply = parent.execute_reply(
                gw.reply_ids.next_id(),
                ReplyStatus::Ok,
                pending.execution_count,
                replica == pending.designated,
                now.as_micros(),
            );
            merged = fan_in.accept(reply);
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

    /// `pump` as it was before requests were read in place: each one
    /// decoded to an owned message by [`WireEndpoint::try_recv`] and checked
    /// on that message. The reference the in-place read is held to.
    fn pump_decoding_owned(gw: &mut LiveGateway, now: SimTime) -> Vec<AcceptedExecution> {
        let mut accepted = Vec::new();
        while let Some(decoded) = gw.endpoint.try_recv() {
            let execution = decoded
                .ok()
                .and_then(|(identities, message)| accept_owned(gw, identities, message, now));
            match execution {
                Some(execution) => {
                    gw.stats.accepted += 1;
                    gw.stats.fan_out_copies += execution.fan_out as u64;
                    accepted.push(execution);
                }
                None => gw.stats.rejected += 1,
            }
        }
        accepted
    }

    fn accept_owned(
        gw: &mut LiveGateway,
        identities: Vec<Bytes>,
        message: JupyterMessage,
        now: SimTime,
    ) -> Option<AcceptedExecution> {
        if message.header.msg_type != MsgType::ExecuteRequest {
            return None;
        }
        let duration =
            SimTime::from_micros(message.metadata.get(DURATION_KEY).and_then(Json::as_u64)?);
        let idx = gw.sessions.find(&message.header.session)?;
        let session = gw.sessions.slot(idx);
        if message.destination()? != kernel_id_of(&session.id) {
            return None;
        }
        let designated = (session.execution_count % u64::from(gw.replication_factor)) as u32;
        let fan_out = gw.replication_factor as usize;
        let msg_id = message.header.msg_id.clone();
        let pending = PendingExecution {
            session: Rc::clone(&session.id),
            execution_count: session.execution_count + 1,
            identities,
            designated,
            parent: Header {
                msg_id: String::new(),
                session: String::new(),
                ..message.header
            },
        };
        gw.in_flight.begin(&msg_id, fan_out, pending).ok()?;
        gw.sessions.slot_mut(idx).record_execution(now.as_micros());
        Some(AcceptedExecution {
            msg_id,
            duration,
            fan_out,
        })
    }

    /// Frames carrying `body` as it is, signed with `key` by the wire's
    /// keyed FNV-1a (`notebookos_jupyter::wire` module docs), written out
    /// here to sign text the codec would never write.
    fn signed(identities: &[&'static [u8]], body: [&[u8]; 4], key: &[u8]) -> Vec<Bytes> {
        let mut lanes = [0xcbf2_9ce4_8422_2325u64, 0x6c62_272e_07bb_0142];
        for (lane_byte, lane) in (0u8..).zip(&mut lanes) {
            let bytes = key
                .iter()
                .chain([&lane_byte])
                .chain(body.iter().copied().flatten());
            for &b in bytes {
                *lane = (*lane ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        let mut frames: Vec<Bytes> = identities.iter().map(|i| Bytes::from_static(i)).collect();
        frames.push(Bytes::from_static(notebookos_jupyter::wire::DELIMITER));
        frames.push(Bytes::from(format!("{:016x}{:016x}", lanes[0], lanes[1])));
        frames.extend(body.iter().map(|part| Bytes::copy_from_slice(part)));
        frames
    }

    /// A header frame as another writer might spell it.
    fn header_text(msg_id: &str, msg_type: &str, session: &str) -> String {
        format!(
            r#"{{"date": 5, "msg_id": "{msg_id}", "msg_type": "{msg_type}", "session": "{session}", "username": "notebookos", "version": "5.4"}}"#
        )
    }

    /// Requests well-formed and not, one frame list each: every refusal
    /// `pump` knows, reached through metadata, headers and frames the
    /// client's codec never writes — keys and values spelled with escapes,
    /// keys given twice, durations that are not a `u64`, frames that fail
    /// the signature, UTF-8 or JSON.
    fn mixed_traffic() -> Vec<Vec<Bytes>> {
        const CONTENT: &str = r#"{"code": "x = \"\u00e9\"\n", "silent": false}"#;
        let request = |id: &str, session: &str, metadata: &str| {
            let header = header_text(id, "execute_request", session);
            signed(
                &[],
                [
                    header.as_bytes(),
                    b"{}",
                    metadata.as_bytes(),
                    CONTENT.as_bytes(),
                ],
                GATEWAY_KEY,
            )
        };
        let to_s0 = r#"{"kernel_id": "kernel-s0", "duration_us": 10}"#;
        let mut traffic = vec![
            request("a1", "s0", to_s0),
            // Escapes in the header, in metadata keys, in metadata values.
            request(
                r"a\u0032",
                r"s\u0031",
                r#"{"kernel_id": "kernel-s1", "duration_us": 7}"#,
            ),
            request(
                "a3",
                "s2",
                r#"{"kernel\u005fid": "kernel-s2", "duration\u005fus": 7}"#,
            ),
            request(
                "a4",
                "s0",
                r#"{"kernel_id": "kernel\u002ds0", "duration_us": 1e3}"#,
            ),
            // The later of two duplicates wins, whichever is valid.
            request(
                "a5",
                "s1",
                r#"{"kernel_id": "kernel-s0", "kernel_id": "kernel-s1", "duration_us": 1}"#,
            ),
            request(
                "r1",
                "s1",
                r#"{"kernel_id": "kernel-s1", "kernel_id": "kernel-s0", "duration_us": 1}"#,
            ),
            request(
                "a6",
                "s2",
                r#"{"kernel_id": "kernel-s2", "duration_us": 1.5, "duration_us": 3}"#,
            ),
            request(
                "r2",
                "s2",
                r#"{"kernel_id": "kernel-s2", "duration_us": 3, "duration_us": "3"}"#,
            ),
            // Durations that are not a `u64`, and the last `f64` that is.
            request(
                "r3",
                "s0",
                r#"{"kernel_id": "kernel-s0", "duration_us": 1.5}"#,
            ),
            request(
                "r4",
                "s0",
                r#"{"kernel_id": "kernel-s0", "duration_us": -1}"#,
            ),
            request(
                "r5",
                "s0",
                r#"{"kernel_id": "kernel-s0", "duration_us": 18446744073709551616}"#,
            ),
            request(
                "a7",
                "s0",
                r#"{"kernel_id": "kernel-s0", "duration_us": 18446744073709549568}"#,
            ),
            request("r6", "s0", r#"{"kernel_id": "kernel-s0"}"#),
            request("r7", "s0", r#"{"duration_us": 2}"#),
            request("r8", "s0", r#"{"kernel_id": 7, "duration_us": 2}"#),
            request(
                "r9",
                "s0",
                r#"[{"kernel_id": "kernel-s0", "duration_us": 2}]"#,
            ),
            // Unknown session, another session's kernel, an unknown kernel.
            request("r10", "ghost", to_s0),
            request("r11", "s1", to_s0),
            request(
                "r12",
                "s0",
                r#"{"kernel_id": "kernel-ghost", "duration_us": 2}"#,
            ),
            // A message id still in flight.
            request("a1", "s0", to_s0),
            // Members nobody reads, a nested `kernel_id` among them.
            request(
                "a8",
                "s1",
                r#"{"x": {"kernel_id": "kernel-s0"}, "gpu_device_ids": [0, 1], "kernel_id": "kernel-s1", "duration_us": 4}"#,
            ),
        ];
        // Not an `execute_request`, or no header at all.
        for (id, msg_type) in [
            ("r13", "execute_reply"),
            ("r14", "status"),
            ("r15", "bogus"),
        ] {
            let header = header_text(id, msg_type, "s0");
            traffic.push(signed(
                &[],
                [header.as_bytes(), b"{}", to_s0.as_bytes(), b"{}"],
                GATEWAY_KEY,
            ));
        }
        traffic.push(signed(
            &[],
            [b"{}", b"{}", to_s0.as_bytes(), b"{}"],
            GATEWAY_KEY,
        ));
        // Another user and version, a parent, an identity: accepted, and
        // carried into the reply.
        let odd = r#"{"version": "5.3", "msg_type": "execute_request", "session": "s2", "username": "al\u0069ce", "msg_id": "a9", "extra": [1, {"date": "no"}], "date": 12}"#;
        let parent = header_text("p1", "execute_reply", "s2");
        traffic.push(signed(
            &[b"client-7"],
            [
                odd.as_bytes(),
                parent.as_bytes(),
                to_s0.replace("s0", "s2").as_bytes(),
                CONTENT.as_bytes(),
            ],
            GATEWAY_KEY,
        ));
        // Bad signature, bad UTF-8, bad JSON in each frame, too deep.
        let good = header_text("r16", "execute_request", "s0");
        let body = [good.as_bytes(), b"{}", to_s0.as_bytes(), CONTENT.as_bytes()];
        traffic.push(signed(&[], body, b"other-key"));
        for frame in 0..4 {
            for bad in [&b"{\"k\": \"\xff\"}"[..], b"{\"k\": tru", b"{} x"] {
                let mut broken = body;
                broken[frame] = bad;
                traffic.push(signed(&[], broken, GATEWAY_KEY));
            }
        }
        let deep = format!(
            r#"{{"x": {}{}}}"#,
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        );
        traffic.push(signed(
            &[],
            [body[0], body[1], body[2], deep.as_bytes()],
            GATEWAY_KEY,
        ));
        // No delimiter; one frame short.
        let mut cut = signed(&[], body, GATEWAY_KEY);
        cut.pop();
        traffic.push(cut);
        traffic.push(signed(&[], body, GATEWAY_KEY).split_off(1));
        traffic
    }

    #[test]
    fn the_read_in_place_accepts_and_refuses_what_the_owned_decode_did() {
        let traffic = mixed_traffic();
        // Pumped after every request, after every few, and once at the end.
        for batch in [1, 3, 7, traffic.len()] {
            let (mut in_place, mut in_place_client) = gateway();
            let (mut owned, mut owned_client) = gateway();
            for gw in [&mut in_place, &mut owned] {
                for session in ["s0", "s1", "s2"] {
                    gw.start_session(session, spec(), SimTime::ZERO).unwrap();
                }
            }
            let mut accepted = Vec::new();
            for (i, chunk) in traffic.chunks(batch).enumerate() {
                let now = SimTime::from_secs(i as u64);
                for frames in chunk {
                    assert!(in_place_client.send_frames(frames.clone()));
                    assert!(owned_client.send_frames(frames.clone()));
                }
                let got = in_place.pump(now);
                assert_eq!(
                    got,
                    pump_decoding_owned(&mut owned, now),
                    "batch {batch}, chunk {i}"
                );
                accepted.extend(got);
            }
            let ids: Vec<&str> = accepted.iter().map(|a| a.msg_id.as_str()).collect();
            assert_eq!(
                ids,
                ["a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9"],
                "batch {batch}"
            );
            assert_eq!(in_place.stats(), owned.stats());
            assert_eq!(in_place.stats().rejected, traffic.len() as u64 - 9);
            assert_eq!(in_place.endpoint.received(), owned.endpoint.received());
            for session in ["s0", "s1", "s2"] {
                let state = |gw: &LiveGateway| {
                    let s = gw.sessions.get(session).unwrap();
                    (s.execution_count, s.last_activity_us)
                };
                assert_eq!(state(&in_place), state(&owned), "{session}");
            }
            // The replies name the requests as their parents, byte for byte.
            let done = SimTime::from_secs(99);
            for execution in &accepted {
                assert!(in_place.finish_execution(&execution.msg_id, done));
                assert!(owned.finish_execution(&execution.msg_id, done));
            }
            let replies = |client: &mut WireEndpoint| {
                let (replies, rejected) = client.drain();
                assert_eq!(rejected, 0);
                replies
                    .iter()
                    .map(|(ids, reply)| notebookos_jupyter::wire::encode(ids, reply, GATEWAY_KEY))
                    .collect::<Vec<_>>()
            };
            assert_eq!(replies(&mut in_place_client), replies(&mut owned_client));
            assert_eq!(in_place.stats(), owned.stats());
            assert_eq!((in_place.in_flight(), owned.in_flight()), (0, 0));
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
        let executions = |gw: &LiveGateway, id| gw.sessions.get(id).unwrap().execution_count;
        assert_eq!((executions(&gw, "s1"), executions(&gw, "s2")), (1, 0));
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
