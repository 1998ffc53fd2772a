//! Message routing: the Global Scheduler's forwarding table (§3.1).
//!
//! Every Jupyter message carries the unique id of its target kernel; the
//! Global Scheduler inspects it and forwards a copy to the Local Scheduler
//! of *each* replica (steps 2–3 of Fig. 3), optionally converting all but
//! the designated executor's copy into a `yield_request`. Replies flow the
//! other way and are aggregated (step 9 of Fig. 5). This module implements
//! that routing table and the fan-out/fan-in bookkeeping.
//!
//! # Descriptors, not copies
//!
//! The R copies of a request differ in exactly one field, the header's
//! `msg_type`, so [`Router::route_execute`] does not build them: it returns
//! one [`RoutedCopy`] descriptor per replica — where the copy goes, which
//! replica it is for, and the type it carries — and the request stays with
//! the caller. Whoever puts a copy on a wire materialises it there, once per
//! destination: a Local Scheduler transport would take the request,
//! [`JupyterMessage::to_yield_request`] for the descriptors that say so, and
//! [`crate::wire::encode`]. The in-process live gateway has no such hop: it
//! keeps each kernel's route in the session's slot and counts the copies.
//!
//! # Fan-in by running winner
//!
//! [`Router::accept_reply`] owns each reply it is given, and a request's
//! [`FanIn`] holds the replies still to come and the best one so far, not
//! every reply: an arriving reply either replaces the best or is
//! dropped on arrival, and the R-th hands the winner back by move: no `Vec`
//! of R replies, no merge scan over it. The preference is
//! [`merge_replies`](crate::merge_replies)'s, written once in `message.rs`,
//! so the merged reply is what `merge_replies` picks from the same replies
//! in the same order.
//!
//! # Followers counted, not built
//!
//! A reply that is sure to lose need not exist. [`Router::accept_followers`]
//! counts replies toward a fan-in without taking any: the in-process
//! gateway builds only the executor's `execute_reply`, which ranks first,
//! and counts the R−1 followers' `ok` replies, which could only have been
//! dropped on arrival. It refuses a count that would complete the fan-in,
//! so the reply that completes it is always a real one and the merged reply
//! always exists.
//!
//! # One table of requests in flight
//!
//! [`InFlight`] keys each request in flight once, by its `msg_id`, to its
//! fan-in and to whatever the request's owner keeps with it. The router
//! keeps nothing there; the live gateway keeps what it builds the merged
//! reply from, so a request it serves is tracked in this one table and
//! [`InFlight::take`] hands its id back when the reply is built.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::message::{keep_preferred, JupyterMessage, MsgType};

/// Identifies a Local Scheduler endpoint (one per GPU server).
pub type LocalSchedulerId = u64;

/// Where one kernel's replicas live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelRoute {
    /// Local Scheduler of each replica, indexed by replica number.
    pub replicas: Vec<LocalSchedulerId>,
}

/// One outgoing copy of a routed request, described rather than built
/// (module docs, "Descriptors, not copies").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutedCopy {
    /// Destination Local Scheduler.
    pub to: LocalSchedulerId,
    /// Replica index at that destination.
    pub replica: u32,
    /// The type the delivered copy carries: the request's own for the
    /// designated replica (or for every replica without a designation),
    /// `yield_request` for the others.
    pub msg_type: MsgType,
}

/// Errors from routing operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The message names no destination kernel.
    MissingDestination,
    /// No route registered for the kernel.
    UnknownKernel(String),
    /// The designated executor index is out of range.
    BadDesignation(u32),
    /// A reply arrived for a request the router is not tracking.
    UnknownRequest(String),
    /// A request reuses the id of one still awaiting its replies; routing it
    /// would overwrite that request's fan-in.
    DuplicateRequest(String),
    /// Counted replies would complete or overrun a request's fan-in, which
    /// only a real reply may complete.
    FanInOverrun(String),
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::MissingDestination => write!(f, "message has no kernel_id"),
            RouteError::UnknownKernel(k) => write!(f, "no route for kernel `{k}`"),
            RouteError::BadDesignation(i) => write!(f, "designated replica {i} out of range"),
            RouteError::UnknownRequest(m) => write!(f, "no pending request `{m}`"),
            RouteError::DuplicateRequest(m) => write!(f, "request `{m}` is already in flight"),
            RouteError::FanInOverrun(m) => {
                write!(f, "counted replies would complete the fan-in of `{m}`")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// One request's fan-in (module docs, "Fan-in by running winner"): the
/// replies still to come and the preferred reply so far.
#[derive(Debug)]
pub struct FanIn {
    remaining: usize,
    best: Option<JupyterMessage>,
}

impl FanIn {
    /// Takes one reply: the merged reply if it was the last to come, else
    /// `None`.
    pub fn accept(&mut self, reply: JupyterMessage) -> Option<JupyterMessage> {
        keep_preferred(&mut self.best, reply);
        self.remaining = self.remaining.saturating_sub(1);
        if self.remaining == 0 {
            self.best.take()
        } else {
            None
        }
    }

    /// Counts `count` replies without taking them (module docs, "Followers
    /// counted, not built"). Refuses, changing nothing, a count that would
    /// leave no reply to come.
    pub fn accept_followers(&mut self, count: usize) -> bool {
        if count >= self.remaining {
            return false;
        }
        self.remaining -= count;
        true
    }
}

/// The requests in flight, keyed once by `msg_id`: each one's [`FanIn`],
/// and whatever its owner keeps with the request until the merged reply
/// goes back (the router keeps nothing; the live gateway keeps what it
/// builds the reply from).
#[derive(Debug)]
pub struct InFlight<T> {
    requests: HashMap<String, (FanIn, T)>,
}

impl<T> Default for InFlight<T> {
    fn default() -> Self {
        InFlight {
            requests: HashMap::new(),
        }
    }
}

impl<T> InFlight<T> {
    /// Starts the fan-in of request `msg_id` to `replicas` replicas,
    /// keeping `held` with it.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::DuplicateRequest`], and tracks nothing, if
    /// `msg_id` is already in flight.
    pub fn begin(&mut self, msg_id: &str, replicas: usize, held: T) -> Result<(), RouteError> {
        let Entry::Vacant(slot) = self.requests.entry(msg_id.to_string()) else {
            return Err(RouteError::DuplicateRequest(msg_id.to_string()));
        };
        let fan_in = FanIn {
            remaining: replicas,
            best: None,
        };
        slot.insert((fan_in, held));
        Ok(())
    }

    /// Stops tracking request `msg_id`, handing back its id, its fan-in and
    /// what was kept with it.
    pub fn take(&mut self, msg_id: &str) -> Option<(String, FanIn, T)> {
        let (id, (fan_in, held)) = self.requests.remove_entry(msg_id)?;
        Some((id, fan_in, held))
    }

    /// Requests in flight.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether no request is in flight.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// The Global Scheduler's router: kernel routes by kernel id, and the
/// fan-in of each routed request.
#[derive(Debug, Default)]
pub struct Router {
    routes: HashMap<String, KernelRoute>,
    pending: InFlight<()>,
}

impl Router {
    /// Creates an empty router.
    pub fn new() -> Self {
        Router::default()
    }

    /// Registers (or replaces) the route for `kernel_id`.
    pub fn register(&mut self, kernel_id: impl Into<String>, route: KernelRoute) {
        self.routes.insert(kernel_id.into(), route);
    }

    /// Fans an `execute_request` out to every replica (Fig. 3 step 3).
    ///
    /// With `designated_executor = Some(i)`, replica `i` receives the
    /// original `execute_request` and every other replica a
    /// `yield_request` (the §3.2.2 bypass). With `None`, all replicas
    /// receive the original and run the Raft election themselves.
    ///
    /// The router starts tracking the request for reply aggregation.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] if the destination is missing/unknown, the
    /// designation is out of range, or the request's id is already in
    /// flight, checked in that order; nothing is tracked in that case.
    pub fn route_execute(
        &mut self,
        message: &JupyterMessage,
        designated_executor: Option<u32>,
    ) -> Result<Vec<RoutedCopy>, RouteError> {
        let kernel_id = message
            .destination()
            .ok_or(RouteError::MissingDestination)?;
        let route = self
            .routes
            .get(kernel_id)
            .ok_or_else(|| RouteError::UnknownKernel(kernel_id.to_string()))?;
        if let Some(i) = designated_executor {
            if i as usize >= route.replicas.len() {
                return Err(RouteError::BadDesignation(i));
            }
        }
        self.pending
            .begin(&message.header.msg_id, route.replicas.len(), ())?;
        Ok(route
            .replicas
            .iter()
            .enumerate()
            .map(|(idx, &to)| {
                let is_executor = designated_executor.map_or(true, |d| d == idx as u32);
                RoutedCopy {
                    to,
                    replica: idx as u32,
                    msg_type: if is_executor {
                        message.header.msg_type
                    } else {
                        MsgType::YieldRequest
                    },
                }
            })
            .collect())
    }

    /// Accepts one replica's `execute_reply`. Returns the merged reply to
    /// forward to the client once every replica has answered (Fig. 5 step
    /// 9), `None` while replies are still outstanding.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::UnknownRequest`] for replies without a tracked
    /// parent.
    pub fn accept_reply(
        &mut self,
        reply: JupyterMessage,
    ) -> Result<Option<JupyterMessage>, RouteError> {
        let Some(parent) = reply
            .parent
            .as_ref()
            .filter(|_| reply.header.msg_type == MsgType::ExecuteReply)
        else {
            return Err(RouteError::UnknownRequest(reply.header.msg_id));
        };
        let requests = &mut self.pending.requests;
        let Some((fan_in, ())) = requests.get_mut(&parent.msg_id) else {
            return Err(RouteError::UnknownRequest(parent.msg_id.clone()));
        };
        if fan_in.remaining > 1 {
            return Ok(fan_in.accept(reply));
        }
        let (mut fan_in, ()) = requests.remove(&parent.msg_id).expect("just present");
        Ok(fan_in.accept(reply))
    }

    /// Counts `count` replies toward the fan-in of request `request_id`
    /// without taking them (module docs, "Followers counted, not built"):
    /// replies that would lose to the one that completes the fan-in, such
    /// as followers' `ok` replies against the executor's. Only the count of
    /// replies still to come changes; a count of 0 changes nothing.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::UnknownRequest`] for a request the router is
    /// not tracking, and [`RouteError::FanInOverrun`] for a count that
    /// would leave no reply to come; the fan-in is unchanged in both cases.
    pub fn accept_followers(&mut self, request_id: &str, count: usize) -> Result<(), RouteError> {
        let Some((fan_in, ())) = self.pending.requests.get_mut(request_id) else {
            return Err(RouteError::UnknownRequest(request_id.to_string()));
        };
        if fan_in.accept_followers(count) {
            Ok(())
        } else {
            Err(RouteError::FanInOverrun(request_id.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::message::{merge_replies, ReplyStatus};

    fn router() -> Router {
        let mut r = Router::new();
        r.register(
            "kernel-1",
            KernelRoute {
                replicas: vec![10, 20, 30],
            },
        );
        r
    }

    fn request() -> JupyterMessage {
        JupyterMessage::execute_request("m1", "sess", "train()", 0).with_destination("kernel-1")
    }

    #[test]
    fn fan_out_with_designation_converts_others() {
        let mut r = router();
        let copies = r.route_execute(&request(), Some(1)).unwrap();
        assert_eq!(copies.len(), 3);
        assert_eq!(copies[1].msg_type, MsgType::ExecuteRequest);
        assert_eq!(copies[0].msg_type, MsgType::YieldRequest);
        assert_eq!(copies[2].msg_type, MsgType::YieldRequest);
        assert_eq!(
            copies.iter().map(|c| c.to).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        assert_eq!(r.pending.len(), 1);
    }

    #[test]
    fn fan_out_without_designation_sends_originals() {
        let mut r = router();
        let copies = r.route_execute(&request(), None).unwrap();
        assert!(copies.iter().all(|c| c.msg_type == MsgType::ExecuteRequest));
    }

    #[test]
    fn routing_errors() {
        let mut r = router();
        let no_dest = JupyterMessage::execute_request("m2", "sess", "x", 0);
        assert_eq!(
            r.route_execute(&no_dest, None).unwrap_err(),
            RouteError::MissingDestination
        );
        let wrong = request().with_destination("ghost");
        assert!(matches!(
            r.route_execute(&wrong, None).unwrap_err(),
            RouteError::UnknownKernel(_)
        ));
        assert_eq!(
            r.route_execute(&request(), Some(9)).unwrap_err(),
            RouteError::BadDesignation(9)
        );
    }

    #[test]
    fn reply_aggregation_waits_for_all_replicas() {
        let mut r = router();
        let req = request();
        r.route_execute(&req, Some(0)).unwrap();
        let executor = req.execute_reply("r0", ReplyStatus::Ok, 1, true, 5);
        let s1 = req.execute_reply("r1", ReplyStatus::Ok, 1, false, 6);
        let s2 = req.execute_reply("r2", ReplyStatus::Ok, 1, false, 7);
        assert_eq!(r.accept_reply(s1).unwrap(), None);
        assert_eq!(r.accept_reply(executor).unwrap(), None);
        let merged = r.accept_reply(s2).unwrap().expect("all replies in");
        assert_eq!(merged.header.msg_id, "r0", "executor's reply wins");
        assert_eq!(r.pending.len(), 0);
    }

    #[test]
    fn the_running_winner_is_what_merge_replies_picks_in_every_arrival_order() {
        // Executor `ok`, follower `ok`, `error`, `aborted`.
        let kinds = [
            (ReplyStatus::Ok, true),
            (ReplyStatus::Ok, false),
            (ReplyStatus::Error, false),
            (ReplyStatus::Aborted, false),
        ];
        let req = request();
        for replicas in 1..=4u32 {
            let mut r = Router::new();
            r.register(
                "kernel-1",
                KernelRoute {
                    replicas: (0..u64::from(replicas)).collect(),
                },
            );
            // Every sequence of `replicas` kinds: each mix in each order.
            for sequence in 0..kinds.len().pow(replicas) {
                r.route_execute(&req, Some(0)).unwrap();
                let replies: Vec<JupyterMessage> = (0..replicas)
                    .map(|i| {
                        let (status, executed) = kinds[sequence / kinds.len().pow(i) % kinds.len()];
                        req.execute_reply(format!("r{i}"), status, 1, executed, u64::from(i))
                    })
                    .collect();
                let mut merged = Vec::new();
                for reply in replies.clone() {
                    merged.push(r.accept_reply(reply).unwrap());
                }
                let last = merged.pop().expect("one result per reply");
                assert!(merged.iter().all(Option::is_none), "{sequence}");
                // The scan `merge_replies` made over all R before the
                // running winner: first executor, else first `ok`, else
                // first reply.
                let executed = |r: &JupyterMessage| {
                    r.metadata.get("executed").and_then(Json::as_bool) == Some(true)
                };
                let first = replies
                    .iter()
                    .position(executed)
                    .or_else(|| replies.iter().position(JupyterMessage::is_ok_reply))
                    .unwrap_or(0);
                assert_eq!(last.as_ref(), Some(&replies[first]), "{sequence}");
                assert_eq!(last, merge_replies(replies), "{sequence}");
                assert_eq!(r.pending.len(), 0);
            }
        }
    }

    /// The fan-in of `m1` on a router with `replicas` replicas per route.
    fn fan_in(replicas: u64) -> Router {
        let mut r = Router::new();
        r.register(
            "kernel-1",
            KernelRoute {
                replicas: (0..replicas).collect(),
            },
        );
        r.route_execute(&request(), Some(0)).unwrap();
        r
    }

    #[test]
    fn counting_followers_of_an_unknown_request_is_refused() {
        let mut r = router();
        assert_eq!(
            r.accept_followers("m1", 2),
            Err(RouteError::UnknownRequest("m1".into()))
        );
        assert_eq!(
            r.accept_followers("m1", 0),
            Err(RouteError::UnknownRequest("m1".into()))
        );
        assert!(r.pending.is_empty());
    }

    #[test]
    fn a_count_that_would_complete_or_overrun_the_fan_in_is_refused_and_changes_nothing() {
        let req = request();
        for (counted_before, count) in [(0, 3), (0, 4), (0, usize::MAX), (1, 2), (2, 1)] {
            let mut r = fan_in(3);
            r.accept_followers("m1", counted_before).unwrap();
            let before = format!("{:?}", r.pending);
            assert_eq!(
                r.accept_followers("m1", count),
                Err(RouteError::FanInOverrun("m1".into())),
                "{counted_before} counted, then {count}"
            );
            assert_eq!(format!("{:?}", r.pending), before);
            // The replies still to come complete it as before the refusal.
            for i in counted_before..2 {
                let follower = req.execute_reply(format!("r{i}"), ReplyStatus::Ok, 1, false, 0);
                assert_eq!(r.accept_reply(follower).unwrap(), None);
            }
            let executor = req.execute_reply("rx", ReplyStatus::Ok, 1, true, 0);
            let merged = r.accept_reply(executor).unwrap().expect("complete");
            assert_eq!(merged.header.msg_id, "rx");
            assert!(r.pending.is_empty());
        }
    }

    #[test]
    fn a_count_of_zero_changes_nothing() {
        let mut r = fan_in(3);
        let before = format!("{:?}", r.pending);
        assert_eq!(r.accept_followers("m1", 0), Ok(()));
        assert_eq!(format!("{:?}", r.pending), before);
        let mut one = fan_in(1);
        assert_eq!(one.accept_followers("m1", 0), Ok(()));
        let executor = request().execute_reply("rx", ReplyStatus::Ok, 1, true, 0);
        assert!(one.accept_reply(executor).unwrap().is_some());
    }

    #[test]
    fn counted_followers_and_the_executor_merge_as_the_full_set_does() {
        let req = request();
        for replicas in 1..=5u64 {
            for executor_at in 0..replicas {
                let replies: Vec<JupyterMessage> = (0..replicas)
                    .map(|i| {
                        req.execute_reply(format!("r{i}"), ReplyStatus::Ok, 7, i == executor_at, i)
                    })
                    .collect();
                let mut r = fan_in(replicas);
                r.accept_followers("m1", replicas as usize - 1).unwrap();
                let merged = r.accept_reply(replies[executor_at as usize].clone());
                assert_eq!(
                    merged,
                    Ok(merge_replies(replies)),
                    "{replicas}, {executor_at}"
                );
                assert!(r.pending.is_empty());
            }
        }
    }

    #[test]
    fn unknown_replies_rejected() {
        let mut r = router();
        let stray = request().execute_reply("r9", ReplyStatus::Ok, 1, true, 5);
        assert!(matches!(
            r.accept_reply(stray).unwrap_err(),
            RouteError::UnknownRequest(_)
        ));
        // Non-reply messages are rejected too.
        r.route_execute(&request(), None).unwrap();
        let not_reply = request();
        assert!(r.accept_reply(not_reply).is_err());
    }

    #[test]
    fn descriptors_say_what_the_materialised_copies_would_carry() {
        let mut r = router();
        let req = request();
        for copy in r.route_execute(&req, Some(2)).unwrap() {
            let delivered = if copy.msg_type == MsgType::YieldRequest {
                req.to_yield_request()
            } else {
                req.clone()
            };
            assert_eq!(delivered.header.msg_type, copy.msg_type);
            assert_eq!(copy.msg_type == MsgType::ExecuteRequest, copy.replica == 2);
            assert_eq!(delivered.code(), req.code());
        }
    }

    #[test]
    fn a_request_id_in_flight_is_not_routed_twice() {
        let mut r = router();
        let req = request();
        r.route_execute(&req, Some(0)).unwrap();
        r.accept_reply(req.execute_reply("r0", ReplyStatus::Ok, 1, true, 5))
            .unwrap();
        assert_eq!(
            r.route_execute(&req, Some(1)).unwrap_err(),
            RouteError::DuplicateRequest("m1".into())
        );
        // The first request's fan-in is intact: two more replies complete it.
        let s1 = req.execute_reply("r1", ReplyStatus::Ok, 1, false, 6);
        let s2 = req.execute_reply("r2", ReplyStatus::Ok, 1, false, 7);
        assert_eq!(r.accept_reply(s1).unwrap(), None);
        let merged = r.accept_reply(s2).unwrap().expect("all replies in");
        assert_eq!(merged.header.msg_id, "r0");
        // Once answered, the id is free again.
        assert!(r.route_execute(&req, Some(1)).is_ok());
    }

    #[test]
    fn a_refused_request_is_not_tracked() {
        let mut r = router();
        assert!(r.route_execute(&request(), Some(9)).is_err());
        assert!(r
            .route_execute(&request().with_destination("ghost"), None)
            .is_err());
        assert_eq!(r.pending.len(), 0);
    }
}
