//! A real transport loop for wire frames: in-process duplex endpoints
//! carrying the ZMQ-style multipart framing of [`crate::wire`].
//!
//! The live service mode needs actual bytes on an actual channel — every
//! message serialized to signed frames on send and parsed + verified on
//! receive — without depending on a network stack the offline build
//! doesn't have. [`wire_pair`] returns two connected [`WireEndpoint`]s: the
//! client end belongs to the load generator, the server end to the gateway,
//! and everything crossing between them goes through
//! [`crate::wire::encode`] and [`crate::wire::decode`] (or
//! [`crate::wire::decode_in_place`]) exactly as it would on a socket. A
//! TCP or ZMQ transport can replace the queues later without touching the
//! framing.
//!
//! Both ends run on one thread — the driver's, which sends, pumps and
//! drains in turn — so each direction is a plain bounded queue the two ends
//! share, with no lock and no thread handoff; an endpoint is not `Send`. A
//! full queue refuses the message ([`WireEndpoint::send`] returns `false`
//! and counts it) rather than growing without bound. `CAPACITY` is far
//! above the deepest queue anything here reaches, measured with a
//! high-water mark on every send: the serve replay pumps after every send
//! and drains after every finish, so at every `serve --virtual` shape
//! (default, 2 048 and 32 768 users, `--smoke`) its queues hold at most one
//! message, and the deepest test queue is 42 messages, the gateway's mixed
//! traffic sent before a single pump (leaving out the test that fills a
//! queue on purpose).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;

use crate::json::Value;
use crate::message::JupyterMessage;
use crate::wire::{self, MessageRef, WireError};

/// Messages one direction holds before [`WireEndpoint::send`] refuses more.
const CAPACITY: usize = 1024;

/// One direction's messages, shared by the end that sends and the end that
/// receives.
type Queue = Rc<RefCell<VecDeque<Vec<Bytes>>>>;

/// One end of a duplex wire-frame channel. Owns the signing key, so a
/// message is signed on send and its signature verified on receive.
#[derive(Debug)]
pub struct WireEndpoint {
    outbox: Queue,
    inbox: Queue,
    key: Vec<u8>,
    sent: u64,
    received: u64,
    /// Messages refused because the peer's queue was full.
    refused: u64,
}

/// Creates a connected pair of endpoints sharing `key`.
pub fn wire_pair(key: &[u8]) -> (WireEndpoint, WireEndpoint) {
    let (a_to_b, b_to_a) = (Queue::default(), Queue::default());
    let endpoint = |outbox, inbox| WireEndpoint {
        outbox,
        inbox,
        key: key.to_vec(),
        sent: 0,
        received: 0,
        refused: 0,
    };
    (
        endpoint(Rc::clone(&a_to_b), Rc::clone(&b_to_a)),
        endpoint(b_to_a, a_to_b),
    )
}

impl WireEndpoint {
    /// Encodes, signs, and sends `message` with the given routing
    /// identities. Returns `false` when the peer endpoint is gone or its
    /// queue is full.
    pub fn send(&mut self, identities: &[Bytes], message: &JupyterMessage) -> bool {
        self.send_frames(wire::encode(identities, message, &self.key))
    }

    /// Sends frames as they are, signed or not. Returns `false` when the
    /// peer endpoint is gone or its queue is full; a full queue is counted.
    pub fn send_frames(&mut self, frames: Vec<Bytes>) -> bool {
        if Rc::strong_count(&self.outbox) == 1 {
            return false;
        }
        let mut queue = self.outbox.borrow_mut();
        if queue.len() == CAPACITY {
            self.refused += 1;
            return false;
        }
        queue.push_back(frames);
        self.sent += 1;
        true
    }

    /// Takes the frames of the next pending message, unread; `None` when
    /// nothing is pending. Read them with [`WireEndpoint::read`].
    pub fn recv_frames(&mut self) -> Option<Vec<Bytes>> {
        self.inbox.borrow_mut().pop_front()
    }

    /// Reads received `frames` in place with this end's key
    /// ([`wire::decode_in_place`]), counting a message that verifies in
    /// [`WireEndpoint::received`].
    ///
    /// # Errors
    ///
    /// As [`wire::decode`].
    pub fn read<'f>(
        &mut self,
        frames: &'f [Bytes],
        metadata: impl FnMut(&str, Value<'_, 'f>),
        content: impl FnMut(&str, Value<'_, 'f>),
    ) -> Result<MessageRef<'f>, WireError> {
        let read = wire::decode_in_place(frames, &self.key, metadata, content);
        self.received += u64::from(read.is_ok());
        read
    }

    /// Receives one pending message, decoding and signature-checking its
    /// frames. `None` when nothing is pending; `Some(Err(_))` for frames
    /// that fail framing or signature checks.
    pub fn try_recv(&mut self) -> Option<Result<(Vec<Bytes>, JupyterMessage), WireError>> {
        let frames = self.recv_frames()?;
        let decoded = wire::decode(&frames, &self.key);
        self.received += u64::from(decoded.is_ok());
        Some(decoded)
    }

    /// Receives every currently pending message that decodes cleanly,
    /// dropping (but counting via the return's second element) any that
    /// fail verification.
    pub fn drain(&mut self) -> (Vec<(Vec<Bytes>, JupyterMessage)>, usize) {
        let mut out = Vec::new();
        let mut rejected = 0;
        while let Some(result) = self.try_recv() {
            match result {
                Ok(pair) => out.push(pair),
                Err(_) => rejected += 1,
            }
        }
        (out, rejected)
    }

    /// Messages successfully sent from this end.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Messages successfully received and verified on this end.
    pub fn received(&self) -> u64 {
        self.received
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ReplyStatus;

    const KEY: &[u8] = b"transport-key";

    fn request(id: &str) -> JupyterMessage {
        JupyterMessage::execute_request(id, "sess", "train()", 7).with_destination("kernel-1")
    }

    #[test]
    fn round_trip_preserves_message_and_identities() {
        let (mut client, mut server) = wire_pair(KEY);
        let idents = vec![Bytes::from_static(b"client-1")];
        assert!(client.send(&idents, &request("m1")));
        let (ids, msg) = server.try_recv().expect("pending").expect("verifies");
        assert_eq!(ids, idents);
        assert_eq!(msg.code(), Some("train()"));
        assert_eq!(msg.destination(), Some("kernel-1"));
        assert_eq!(client.sent(), 1);
        assert_eq!(server.received(), 1);
    }

    #[test]
    fn duplex_reply_flows_back() {
        let (mut client, mut server) = wire_pair(KEY);
        client.send(&[], &request("m1"));
        let (_, req) = server.try_recv().unwrap().unwrap();
        let reply = req.execute_reply("r1", ReplyStatus::Ok, 1, true, 9);
        assert!(server.send(&[], &reply));
        let (_, got) = client.try_recv().unwrap().unwrap();
        assert!(got.is_ok_reply());
        assert_eq!(got.parent.as_ref().unwrap().msg_id, "m1");
    }

    #[test]
    fn messages_arrive_in_send_order() {
        let (mut client, mut server) = wire_pair(KEY);
        for i in 0..10 {
            client.send(&[], &request(&format!("m{i}")));
        }
        let (msgs, rejected) = server.drain();
        assert_eq!(rejected, 0);
        let ids: Vec<&str> = msgs.iter().map(|(_, m)| m.header.msg_id.as_str()).collect();
        assert_eq!(
            ids,
            (0..10).map(|i| format!("m{i}")).collect::<Vec<_>>(),
            "FIFO order"
        );
    }

    #[test]
    fn key_mismatch_is_rejected_on_receive() {
        let (mut client, mut server) = wire_pair(KEY);
        client.key = b"other-key".to_vec();
        assert!(client.send(&[], &request("m1")));
        let got = server.try_recv().expect("frames pending");
        assert_eq!(got.unwrap_err(), WireError::BadSignature);
        assert_eq!(server.received(), 0, "rejected frames are not counted");
    }

    #[test]
    fn recv_on_empty_or_disconnected_channel_is_none() {
        let (mut client, server) = wire_pair(KEY);
        assert!(client.try_recv().is_none(), "empty");
        drop(server);
        assert!(!client.send(&[], &request("m1")), "peer gone");
        assert!(client.try_recv().is_none(), "disconnected");
    }

    #[test]
    fn a_full_queue_refuses_and_counts_until_the_peer_receives() {
        let (mut client, mut server) = wire_pair(KEY);
        for i in 0..CAPACITY {
            assert!(client.send(&[], &request(&format!("m{i}"))), "{i}");
        }
        assert!(!client.send(&[], &request("over")), "full");
        assert!(!client.send_frames(Vec::new()), "full, raw frames too");
        assert_eq!((client.sent(), client.refused), (CAPACITY as u64, 2));
        // The refused messages never arrive; one received makes room.
        let (_, first) = server.try_recv().unwrap().unwrap();
        assert_eq!(first.header.msg_id, "m0");
        assert!(client.send(&[], &request("last")));
        let (msgs, rejected) = server.drain();
        assert_eq!((msgs.len(), rejected), (CAPACITY, 0));
        assert_eq!(msgs[CAPACITY - 1].1.header.msg_id, "last");
        assert_eq!(server.received(), CAPACITY as u64 + 1);
    }

    #[test]
    fn a_dropped_peer_leaves_what_it_sent_and_takes_nothing_more() {
        let (mut client, mut server) = wire_pair(KEY);
        assert!(server.send(&[], &request("before")));
        drop(server);
        // Sent before the drop: still there to receive, once.
        let (_, got) = client.try_recv().unwrap().unwrap();
        assert_eq!(got.header.msg_id, "before");
        assert!(client.try_recv().is_none());
        // Nothing can be sent to it, and a refusal to a gone peer is not a
        // full queue.
        assert!(!client.send(&[], &request("after")));
        assert_eq!((client.sent(), client.refused), (0, 0));
    }
}
