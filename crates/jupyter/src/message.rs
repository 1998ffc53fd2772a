//! Jupyter messaging-protocol message types.
//!
//! NotebookOS reuses the IPython messaging protocol so that any Jupyter
//! client works unmodified (§4). This module models the protocol subset the
//! platform routes: `execute_request` / `execute_reply`, the
//! NotebookOS-specific `yield_request` conversion (§3.2.2), kernel-info and
//! shutdown messages, and status updates.

use std::borrow::Cow;
use std::fmt;

use crate::json::{encode_number, encode_string_with, put, Absorb, Json, Value};

/// Protocol version stamped into every header.
pub const PROTOCOL_VERSION: &str = "5.4";

/// The user every header this crate builds names.
const USERNAME: &str = "notebookos";

/// The metadata key that names an execution's destination kernel.
pub const DESTINATION_KEY: &str = "kernel_id";

/// The message types NotebookOS routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgType {
    /// Client-submitted cell execution.
    ExecuteRequest,
    /// Kernel reply to an execution.
    ExecuteReply,
    /// NotebookOS conversion of `execute_request`: tells a replica to defer
    /// to the scheduler-designated executor instead of proposing `LEAD`.
    YieldRequest,
    /// Kernel busy/idle status broadcast.
    Status,
    /// Kernel-info handshake request.
    KernelInfoRequest,
    /// Kernel-info handshake reply.
    KernelInfoReply,
    /// Shutdown request.
    ShutdownRequest,
    /// Shutdown acknowledgement.
    ShutdownReply,
    /// stdout/stderr stream output.
    Stream,
}

impl MsgType {
    /// The protocol's wire name for this type.
    pub fn as_str(self) -> &'static str {
        match self {
            MsgType::ExecuteRequest => "execute_request",
            MsgType::ExecuteReply => "execute_reply",
            MsgType::YieldRequest => "yield_request",
            MsgType::Status => "status",
            MsgType::KernelInfoRequest => "kernel_info_request",
            MsgType::KernelInfoReply => "kernel_info_reply",
            MsgType::ShutdownRequest => "shutdown_request",
            MsgType::ShutdownReply => "shutdown_reply",
            MsgType::Stream => "stream",
        }
    }

    /// Parses a wire name.
    pub fn parse_wire(s: &str) -> Option<MsgType> {
        Some(match s {
            "execute_request" => MsgType::ExecuteRequest,
            "execute_reply" => MsgType::ExecuteReply,
            "yield_request" => MsgType::YieldRequest,
            "status" => MsgType::Status,
            "kernel_info_request" => MsgType::KernelInfoRequest,
            "kernel_info_reply" => MsgType::KernelInfoReply,
            "shutdown_request" => MsgType::ShutdownRequest,
            "shutdown_reply" => MsgType::ShutdownReply,
            "stream" => MsgType::Stream,
            _ => return None,
        })
    }
}

impl fmt::Display for MsgType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// A message header (the protocol's `header` / `parent_header` dict).
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// Unique message id.
    pub msg_id: String,
    /// The client session that produced the message.
    pub session: String,
    /// Originating user: borrowed when it is this crate's own, which every
    /// header it builds or reads then shares instead of a copy each.
    pub username: Cow<'static, str>,
    /// Message type.
    pub msg_type: MsgType,
    /// Protocol version: borrowed when it is [`PROTOCOL_VERSION`].
    pub version: Cow<'static, str>,
    /// Send timestamp in microseconds of virtual time (the protocol uses an
    /// ISO date; a numeric stamp keeps the simulator exact).
    pub date_us: u64,
}

impl Header {
    /// Creates a header.
    pub fn new(
        msg_id: impl Into<String>,
        session: impl Into<String>,
        msg_type: MsgType,
        date_us: u64,
    ) -> Self {
        Header {
            msg_id: msg_id.into(),
            session: session.into(),
            username: Cow::Borrowed(USERNAME),
            msg_type,
            version: Cow::Borrowed(PROTOCOL_VERSION),
            date_us,
        }
    }

    /// The protocol's JSON dict: the reference whose encoding
    /// [`Header::encode`] is held to.
    #[cfg(test)]
    pub(crate) fn to_json(&self) -> Json {
        Json::object()
            .with("msg_id", self.msg_id.as_str())
            .with("session", self.session.as_str())
            .with("username", &*self.username)
            .with("msg_type", self.msg_type.as_str())
            .with("version", &*self.version)
            .with("date", self.date_us)
    }

    /// [`Header::encode_with`] alone.
    #[cfg(test)]
    pub(crate) fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_with(&mut out, &mut ());
        out
    }

    /// Appends the header's canonical JSON text to `out`, feeding
    /// `absorber` each byte it writes: the protocol's dict with its keys in
    /// sorted order, as [`Json::encode`] would write it, but written field
    /// by field without building the dict. This is the header frame
    /// [`crate::wire::encode`] signs.
    pub(crate) fn encode_with<A: Absorb>(&self, out: &mut String, absorber: &mut A) {
        put("{\"date\":", out, absorber);
        encode_number(self.date_us as f64, out, absorber);
        for (key, value) in [
            (",\"msg_id\":", self.msg_id.as_str()),
            (",\"msg_type\":", self.msg_type.as_str()),
            (",\"session\":", self.session.as_str()),
            (",\"username\":", &*self.username),
            (",\"version\":", &*self.version),
        ] {
            put(key, out, absorber);
            encode_string_with(value, out, absorber);
        }
        put("}", out, absorber);
    }

    /// Parses from the protocol's JSON dict, taking the strings out of it:
    /// the reference [`HeaderDraft`], which reads a frame without building
    /// the dict, is held to.
    #[cfg(test)]
    pub(crate) fn from_json(v: Json) -> Result<Header, String> {
        // Anything but a dict has no fields, and reports the first it lacks.
        let mut fields = match v {
            Json::Obj(fields) => fields,
            _ => std::collections::BTreeMap::new(),
        };
        let missing = |k: &str| format!("header missing `{k}`");
        // A missing `msg_type` is reported first, an unknown one only after
        // the fields before it in the struct: the order callers have seen.
        let msg_type = match fields.get("msg_type") {
            Some(Json::Str(raw)) => {
                MsgType::parse_wire(raw).ok_or_else(|| format!("unknown msg_type `{raw}`"))
            }
            _ => return Err(missing("msg_type")),
        };
        let mut take = |k: &str| match fields.remove(k) {
            Some(Json::Str(s)) => Ok(s),
            _ => Err(missing(k)),
        };
        Ok(Header {
            msg_id: take("msg_id")?,
            session: take("session")?,
            username: take("username")?.into(),
            msg_type: msg_type?,
            version: take("version")?.into(),
            date_us: fields.get("date").and_then(Json::as_u64).unwrap_or(0),
        })
    }

    /// Builds the `execute_reply` to the request this header belongs to
    /// ([`JupyterMessage::execute_reply`], for a caller that kept only the
    /// request's header): [`Header::into_execute_reply`] on a copy.
    pub fn execute_reply(
        &self,
        msg_id: impl Into<String>,
        status: ReplyStatus,
        execution_count: u64,
        executed: bool,
        date_us: u64,
    ) -> JupyterMessage {
        self.clone()
            .into_execute_reply(msg_id, status, execution_count, executed, date_us)
    }

    /// [`Header::execute_reply`] for a caller done with the header, which
    /// moves into the reply as its parent instead of being copied there.
    pub fn into_execute_reply(
        self,
        msg_id: impl Into<String>,
        status: ReplyStatus,
        execution_count: u64,
        executed: bool,
        date_us: u64,
    ) -> JupyterMessage {
        JupyterMessage {
            header: Header::new(msg_id, self.session.clone(), MsgType::ExecuteReply, date_us),
            parent: Some(self),
            metadata: Json::object().with("executed", executed),
            content: Json::object()
                .with("status", status.as_str())
                .with("execution_count", execution_count),
        }
    }
}

/// A header read in place (`crate::wire::decode_in_place`): its strings
/// are slices of the frame, owned only where the frame escapes a
/// character. [`HeaderRef::into_owned`] makes it a [`Header`].
#[derive(Debug, Clone, PartialEq)]
pub struct HeaderRef<'a> {
    /// Unique message id.
    pub msg_id: Cow<'a, str>,
    /// The client session that produced the message.
    pub session: Cow<'a, str>,
    /// Originating user.
    pub username: Cow<'a, str>,
    /// Message type.
    pub msg_type: MsgType,
    /// Protocol version.
    pub version: Cow<'a, str>,
    /// Send timestamp in microseconds of virtual time.
    pub date_us: u64,
}

impl HeaderRef<'_> {
    /// The owned header. The username and version are compared with this
    /// crate's own before anything is owned, and are borrowed from the
    /// constants when they match, so a header of this crate's owns only its
    /// message id and session.
    pub fn into_owned(self) -> Header {
        Header {
            msg_id: self.msg_id.into_owned(),
            session: self.session.into_owned(),
            username: intern(self.username, USERNAME),
            msg_type: self.msg_type,
            version: intern(self.version, PROTOCOL_VERSION),
            date_us: self.date_us,
        }
    }
}

/// `text` borrowed from `constant` when the two are equal, else owned.
fn intern(text: Cow<'_, str>, constant: &'static str) -> Cow<'static, str> {
    if text == constant {
        Cow::Borrowed(constant)
    } else {
        Cow::Owned(text.into_owned())
    }
}

/// A header frame's fields as [`crate::wire::decode`] and
/// `decode_in_place` read them, member by member, before the checks that
/// make them a [`HeaderRef`]. What it accepts and each error it reports
/// are the test-only `Header::from_json`'s on the parsed dict.
#[derive(Debug, Default)]
pub(crate) struct HeaderDraft<'t> {
    msg_id: Option<Cow<'t, str>>,
    session: Option<Cow<'t, str>>,
    username: Option<Cow<'t, str>>,
    msg_type: Option<Cow<'t, str>>,
    version: Option<Cow<'t, str>>,
    date_us: Option<u64>,
}

impl<'t> HeaderDraft<'t> {
    /// Takes in one member of the frame. As in the dict, a later duplicate
    /// replaces an earlier one, and a string field whose value is not a
    /// string counts as missing. The value of any other key is skipped.
    pub(crate) fn set(&mut self, key: &str, value: Value<'_, 't>) {
        let field = match key {
            "date" => {
                self.date_us = value.u64();
                return;
            }
            "msg_id" => &mut self.msg_id,
            "session" => &mut self.session,
            "username" => &mut self.username,
            "msg_type" => &mut self.msg_type,
            "version" => &mut self.version,
            _ => return,
        };
        *field = value.str();
    }

    /// The header, or the first missing or invalid field: a missing
    /// `msg_type`, then `msg_id`, `session` and `username`, then an unknown
    /// `msg_type`, then `version`. A `date` that is not a `u64` reads as 0.
    pub(crate) fn finish(self) -> Result<HeaderRef<'t>, String> {
        let missing = |k: &str| format!("header missing `{k}`");
        let raw_type = self.msg_type.ok_or_else(|| missing("msg_type"))?;
        let msg_id = self.msg_id.ok_or_else(|| missing("msg_id"))?;
        let session = self.session.ok_or_else(|| missing("session"))?;
        let username = self.username.ok_or_else(|| missing("username"))?;
        let msg_type = MsgType::parse_wire(&raw_type)
            .ok_or_else(|| format!("unknown msg_type `{raw_type}`"))?;
        Ok(HeaderRef {
            msg_id,
            session,
            username,
            msg_type,
            version: self.version.ok_or_else(|| missing("version"))?,
            date_us: self.date_us.unwrap_or(0),
        })
    }
}

/// A full Jupyter message.
#[derive(Debug, Clone, PartialEq)]
pub struct JupyterMessage {
    /// This message's header.
    pub header: Header,
    /// The request this message replies to, if any.
    pub parent: Option<Header>,
    /// Free-form metadata (NotebookOS stores GPU device ids and the target
    /// kernel here).
    pub metadata: Json,
    /// Type-specific content.
    pub content: Json,
}

impl JupyterMessage {
    /// Builds an `execute_request` carrying `code`.
    pub fn execute_request(
        msg_id: impl Into<String>,
        session: impl Into<String>,
        code: impl Into<String>,
        date_us: u64,
    ) -> Self {
        JupyterMessage {
            header: Header::new(msg_id, session, MsgType::ExecuteRequest, date_us),
            parent: None,
            metadata: Json::object(),
            content: Json::object()
                .with("code", code.into())
                .with("silent", false)
                .with("store_history", true)
                .with("stop_on_error", true),
        }
    }

    /// The Global Scheduler's §3.2.2 conversion: rewrites an
    /// `execute_request` into a `yield_request`, signalling the receiving
    /// replica to skip the `LEAD` proposal and defer to the designated
    /// executor.
    ///
    /// # Panics
    ///
    /// Panics if the message is not an `execute_request`.
    pub fn to_yield_request(&self) -> JupyterMessage {
        assert_eq!(
            self.header.msg_type,
            MsgType::ExecuteRequest,
            "only execute_request can be converted to yield_request"
        );
        let mut converted = self.clone();
        converted.header.msg_type = MsgType::YieldRequest;
        converted
    }

    /// Builds the `execute_reply` for this request.
    ///
    /// `executed` records whether the replying replica was the executor
    /// (the Global Scheduler aggregates one reply per replica and keeps the
    /// executor's).
    pub fn execute_reply(
        &self,
        msg_id: impl Into<String>,
        status: ReplyStatus,
        execution_count: u64,
        executed: bool,
        date_us: u64,
    ) -> JupyterMessage {
        self.header
            .execute_reply(msg_id, status, execution_count, executed, date_us)
    }

    /// The code payload, for execute/yield requests.
    pub fn code(&self) -> Option<&str> {
        self.content.get("code").and_then(Json::as_str)
    }

    /// Sets the destination kernel id in metadata (used for routing).
    pub fn with_destination(mut self, kernel_id: &str) -> Self {
        self.metadata = self.metadata.with(DESTINATION_KEY, kernel_id);
        self
    }

    /// The destination kernel id, if present.
    pub fn destination(&self) -> Option<&str> {
        self.metadata.get(DESTINATION_KEY).and_then(Json::as_str)
    }

    /// Attaches the GPU device ids allocated for this execution (§3.3: the
    /// Global Scheduler embeds device ids in the request metadata).
    pub fn with_gpu_device_ids(mut self, ids: &[u32]) -> Self {
        let arr: Vec<Json> = ids.iter().map(|&i| Json::from(i)).collect();
        self.metadata = self.metadata.with("gpu_device_ids", Json::Arr(arr));
        self
    }

    /// Whether this message reports success (for replies).
    pub fn is_ok_reply(&self) -> bool {
        self.header.msg_type == MsgType::ExecuteReply
            && self.content.get("status").and_then(Json::as_str) == Some("ok")
    }
}

/// Status carried by an `execute_reply`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplyStatus {
    /// Execution succeeded.
    Ok,
    /// Execution raised.
    Error,
    /// Execution was aborted (e.g. migration gave up).
    Aborted,
}

impl ReplyStatus {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ReplyStatus::Ok => "ok",
            ReplyStatus::Error => "error",
            ReplyStatus::Aborted => "aborted",
        }
    }
}

/// Merges the per-replica `execute_reply` messages into the single reply
/// forwarded to the client (§3.2.2 step 9: "messages are aggregated and
/// merged together by the Global Scheduler").
///
/// Preference order: the executor's reply (metadata `executed: true`), then
/// any successful reply, then the first reply.
///
/// Returns `None` when `replies` is empty. Takes the replies by value and
/// hands the winner back by move: the others are dropped, nothing is cloned.
pub fn merge_replies(replies: Vec<JupyterMessage>) -> Option<JupyterMessage> {
    let mut best = None;
    for reply in replies {
        keep_preferred(&mut best, reply);
    }
    best
}

/// Keeps in `best` whichever of it and `reply`, which arrived after it,
/// [`merge_replies`] prefers: the lower [`reply_rank`], and on a tie the one
/// that arrived first. The loser is dropped.
pub(crate) fn keep_preferred(best: &mut Option<JupyterMessage>, reply: JupyterMessage) {
    if best
        .as_ref()
        .map_or(true, |b| reply_rank(&reply) < reply_rank(b))
    {
        *best = Some(reply);
    }
}

/// The preference of [`merge_replies`], lower first: 0 for the executor's
/// reply (metadata `executed: true`), 1 for any other successful reply, 2
/// for the rest.
fn reply_rank(reply: &JupyterMessage) -> u8 {
    if reply.metadata.get("executed").and_then(Json::as_bool) == Some(true) {
        0
    } else if reply.is_ok_reply() {
        1
    } else {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> JupyterMessage {
        JupyterMessage::execute_request("m1", "sess-1", "model.fit()", 123)
    }

    const ALL_TYPES: [MsgType; 9] = [
        MsgType::ExecuteRequest,
        MsgType::ExecuteReply,
        MsgType::YieldRequest,
        MsgType::Status,
        MsgType::KernelInfoRequest,
        MsgType::KernelInfoReply,
        MsgType::ShutdownRequest,
        MsgType::ShutdownReply,
        MsgType::Stream,
    ];

    #[test]
    fn msg_type_round_trips() {
        for t in ALL_TYPES {
            assert_eq!(MsgType::parse_wire(t.as_str()), Some(t));
        }
        assert_eq!(MsgType::parse_wire("bogus"), None);
    }

    #[test]
    fn header_json_round_trips() {
        let h = Header::new("m1", "s1", MsgType::ExecuteRequest, 42);
        let parsed = Header::from_json(h.to_json()).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn header_writer_equals_the_dict_encoding() {
        let ids = [
            "m1",
            "",
            "quo\"te",
            "back\\slash",
            "\"\\\"",
            "nl\nctl\u{1}",
            "é☃😀",
        ];
        for msg_type in ALL_TYPES {
            for id in ids {
                for date_us in [0, 99, 9_000_000_000_000_000, u64::MAX] {
                    let mut header = Header::new(id, id, msg_type, date_us);
                    header.username = id.to_string().into();
                    header.version = id.to_string().into();
                    let text = header.encode();
                    assert_eq!(text, header.to_json().encode());
                    let parsed = Header::from_json(Json::parse(&text).unwrap()).unwrap();
                    // `date` travels as an f64, exact below 2^53.
                    if date_us < 1 << 53 {
                        assert_eq!(parsed, header);
                    }
                }
            }
        }
    }

    #[test]
    fn header_json_rejects_missing_fields() {
        let bad = Json::object().with("msg_id", "x");
        assert!(Header::from_json(bad).is_err());
        let bad_type = Header::new("m", "s", MsgType::Status, 0)
            .to_json()
            .with("msg_type", "nope");
        assert!(Header::from_json(bad_type).is_err());
    }

    #[test]
    fn execute_request_carries_code() {
        let m = request();
        assert_eq!(m.code(), Some("model.fit()"));
        assert_eq!(m.header.msg_type, MsgType::ExecuteRequest);
        assert!(m.parent.is_none());
    }

    #[test]
    fn yield_conversion_preserves_payload() {
        let m = request().with_destination("kernel-9");
        let y = m.to_yield_request();
        assert_eq!(y.header.msg_type, MsgType::YieldRequest);
        assert_eq!(y.code(), m.code());
        assert_eq!(y.destination(), Some("kernel-9"));
        assert_eq!(y.header.msg_id, m.header.msg_id);
    }

    #[test]
    #[should_panic(expected = "only execute_request")]
    fn yield_conversion_rejects_replies() {
        let m = request();
        let r = m.execute_reply("m2", ReplyStatus::Ok, 1, true, 200);
        let _ = r.to_yield_request();
    }

    #[test]
    fn reply_links_parent() {
        let m = request();
        let r = m.execute_reply("m2", ReplyStatus::Ok, 3, true, 200);
        assert_eq!(r.parent.as_ref().unwrap().msg_id, "m1");
        assert!(r.is_ok_reply());
        let e = m.execute_reply("m3", ReplyStatus::Error, 3, false, 300);
        assert!(!e.is_ok_reply());
    }

    #[test]
    fn merge_prefers_executor_reply() {
        let m = request();
        let standby1 = m.execute_reply("r1", ReplyStatus::Ok, 1, false, 10);
        let executor = m.execute_reply("r2", ReplyStatus::Ok, 1, true, 11);
        let standby2 = m.execute_reply("r3", ReplyStatus::Ok, 1, false, 12);
        let merged = merge_replies(vec![standby1.clone(), executor, standby2]).unwrap();
        assert_eq!(merged.header.msg_id, "r2");
        // Without an executor flag, falls back to any ok reply.
        let err = m.execute_reply("r4", ReplyStatus::Error, 1, false, 13);
        let merged = merge_replies(vec![err.clone(), standby1]).unwrap();
        assert_eq!(merged.header.msg_id, "r1");
        // All errors: first wins.
        let merged = merge_replies(vec![err]).unwrap();
        assert_eq!(merged.header.msg_id, "r4");
        assert!(merge_replies(Vec::new()).is_none());
    }
}
