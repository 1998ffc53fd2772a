//! ZMQ-style wire framing for Jupyter messages.
//!
//! The Jupyter wire protocol sends each message as a multipart frame list:
//! `[<IDS|MSG>, signature, header, parent_header, metadata, content]`.
//! This module implements that framing over [`bytes::Bytes`] with a keyed
//! integrity signature.
//!
//! The signature is a keyed FNV-1a construction — **not** cryptographic
//! (real Jupyter uses HMAC-SHA256; no crypto crate is available offline).
//! It serves the same structural role: catching corruption and key
//! mismatches in tests.
//!
//! # What a message costs on this path
//!
//! A round trip signs twice (the sender signs, the receiver re-signs to
//! verify) and the signature reads every body byte, so the signature sets
//! the floor of the whole wire path. FNV-1a is a serial chain — each byte's
//! xor-then-multiply needs the previous byte's product, about four cycles a
//! byte however wide the machine is — but the two 64-bit lanes are
//! independent of each other, so the `Signer` advances both in one pass:
//! the two chains overlap in the pipeline and 128 bits cost what 64 would.
//! That is the floor for *this* function; going below it means a different
//! signature, which would change the bytes on the wire. The two-pass form
//! that came before is kept under `#[cfg(test)]` as the reference every
//! frame must verify against.
//!
//! A chain that waits four cycles a byte leaves most of the core's issue
//! width idle, and the JSON codec's work — classify a byte, copy a run,
//! write an escape — needs none of the chain's results. So the codec runs
//! *underneath* the chain instead of after it: [`encode`] hands the
//! `Signer` to the encoder, which absorbs each body byte in the loop that
//! escapes and writes it, and [`decode`] hands it to the parser, which
//! absorbs each byte in the loop that scans it for the end of a string
//! (`json`'s module docs say why per byte and not per run). A message then
//! costs about its signature: what the codec does is hidden in the cycles
//! the chain leaves free. Only UTF-8 validation of each frame stays a pass
//! of its own.
//!
//! The verdicts keep one order, in one function (`read_signed`) that both
//! [`decode`] and [`decode_in_place`] go through: a bad signature outranks
//! bad JSON, which outranks a bad header. A frame that is not UTF-8 or not
//! JSON stops the parser partway, so that cold path signs the whole body
//! again before it chooses its error, and nothing read from frames that
//! fail the signature leaves either decode.
//!
//! Above the signature's floor, a small message costs its heap
//! allocations. A round trip served through `notebookos_core::LiveGateway`
//! with an 11-byte cell made 128, then 76, and makes 45
//! (`crates/core/tests/serve_allocations.rs` counts each of its five steps
//! and holds the total and the gateway's pump): the gateway builds one
//! reply instead of R, [`encode`] makes three (next section), and the
//! gateway reads each request in place and owns only its message id and
//! session ("Reading in place"). What is left is mostly the client's: it
//! builds each request as a [`JupyterMessage`] (14 allocations) and
//! decodes each reply into one (11), a dict and an owned key for every
//! member, because the perf ledger (`benchmark/`), frozen for now, builds
//! and receives owned messages and reads `Json::Obj` as a map of `String`
//! keys.
//!
//! # One buffer per message
//!
//! [`encode`] writes the header, parent, metadata and content frames one
//! after another into one buffer as the `Signer` absorbs them, appends the
//! 32-byte signature, turns the buffer into [`Bytes`] once, and hands out
//! the five frames as sub-ranges of it ([`Bytes::slice`]). A message then
//! costs three allocations — the buffer, its shared copy and the frame
//! list — where a `String` per frame, each copied into an `Arc` of its own,
//! and the signature copied into a fifth cost fourteen. The frames' bytes
//! are the same; only where they live changed.
//!
//! # Headers without the dict
//!
//! Around the signature, [`encode`] writes each header straight to its
//! canonical text instead of building a dict per header, and both decodes
//! read the header and parent frames member by member into a draft of the
//! six fields (`message::HeaderDraft`) through the parser's one object
//! loop: a key is a slice of the frame unless it holds an escape, so is a
//! string value, and an unknown key's value is checked and skipped. No
//! dict, owned key or owned value is built: the draft becomes a
//! [`HeaderRef`] of slices, and [`decode`] owns it
//! ([`HeaderRef::into_owned`]) by copying the message id and session and
//! borrowing the username and version from the protocol's constants when
//! they are this crate's, so a header frame costs two strings. With the
//! dict, a header was most of a small message's decode: six owned keys and
//! a tree node for five values. The ledger's `jupyter.wire.decode_ns` on
//! `serve-small` (its request and its merged reply, which carries two
//! headers, alternately) read ≈1.19 µs a message against ≈1.86 µs with the
//! dict (medians of six alternating traced runs each, 2-core Xeon VM).
//!
//! The draft's checks are the dict's: a later duplicate key wins, a string
//! field whose value is not a string is missing, errors come in the dict's
//! order with its texts, and only an object with no members is "no
//! parent". `tests::differential` holds `decode` to parsing every frame to
//! a tree and building each header with the test-only `Header::from_json`,
//! over header and parent frames this crate never writes.
//!
//! # Reading in place
//!
//! A reader that wants a few fields of a message need not build it.
//! [`decode_in_place`] makes [`decode`]'s checks, in its order and with its
//! errors, but builds nothing: the headers come back as [`HeaderRef`]s,
//! and each member of the metadata and content objects goes to a reader of
//! the caller's, which borrows the value as a string, reads it as a
//! number, or leaves it to be checked and skipped (`json`'s module docs,
//! "Reading in place"). The gateway reads each request so: the session,
//! the destination kernel and the duration are looked up as slices of the
//! frames, the cell is skipped, and only an accepted request's message id
//! and session are owned, for the reply that names it as parent. Its pump
//! made 22 allocations a request and makes 6. On `serve-small`'s request
//! the read in place takes ≈670 ns against ≈1 120 ns for [`decode`]
//! (≈1 200 ns before headers were read as slices; the fastest of 10
//! alternating runs of 7 × 200 000 calls, 2-core VM).
//! `tests::differential` holds it to [`decode`]
//! over messages this crate writes and frames it never writes: the same
//! verdict and error, and on success the same identities, headers and
//! member values, however each member is read.

use bytes::Bytes;

use crate::json::{put, read_members_with, Absorb, Json, Value, HEX};
use crate::message::{HeaderDraft, HeaderRef, JupyterMessage};

/// The frame delimiter between routing identities and the message body.
pub const DELIMITER: &[u8] = b"<IDS|MSG>";

/// Errors decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer frames than the protocol requires.
    TooFewFrames,
    /// The `<IDS|MSG>` delimiter was not found.
    MissingDelimiter,
    /// The signature does not match the body.
    BadSignature,
    /// A JSON part failed to parse.
    BadJson(String),
    /// The header was structurally invalid.
    BadHeader(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::TooFewFrames => write!(f, "too few frames"),
            WireError::MissingDelimiter => write!(f, "missing <IDS|MSG> delimiter"),
            WireError::BadSignature => write!(f, "signature mismatch"),
            WireError::BadJson(e) => write!(f, "invalid json part: {e}"),
            WireError::BadHeader(e) => write!(f, "invalid header: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

const FNV_PRIME: u64 = 0x100_0000_01b3;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The two lanes' offset bases; lane `i` also absorbs the byte `i` after the
/// key, so equal offsets would still give distinct lanes.
const LANE_OFFSETS: [u64; 2] = [FNV_OFFSET, 0x6c62_272e_07bb_0142];

/// The keyed signature as a running state: keyed FNV-1a, 128 bits as two
/// lanes. Documented as non-cryptographic in the module docs, which also
/// say why both lanes advance together and why the codec drives it.
pub(crate) struct Signer {
    lanes: [u64; 2],
}

impl Signer {
    /// A signer that has absorbed `key` into both lanes, then the lane
    /// byte: `i` into lane `i`.
    pub(crate) fn new(key: &[u8]) -> Signer {
        let mut signer = Signer {
            lanes: LANE_OFFSETS,
        };
        signer.absorb_all(key);
        for (lane_byte, lane) in (0u64..).zip(&mut signer.lanes) {
            *lane = (*lane ^ lane_byte).wrapping_mul(FNV_PRIME);
        }
        signer
    }

    /// The signature of everything absorbed, in lowercase hex.
    pub(crate) fn finish(self) -> [u8; 32] {
        let mut hex = [0u8; 32];
        for (lane, digits) in self.lanes.into_iter().zip(hex.chunks_exact_mut(16)) {
            for (i, digit) in digits.iter_mut().enumerate() {
                *digit = HEX[(lane >> (60 - 4 * i)) as usize & 0xf];
            }
        }
        hex
    }
}

impl Absorb for Signer {
    #[inline(always)]
    fn absorb(&mut self, byte: u8) {
        for lane in &mut self.lanes {
            *lane = (*lane ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
}

/// The signature over the four JSON body parts, each absorbed whole: what
/// [`encode`] and [`decode`] compute while they write and read the parts,
/// computed apart from the codec only on `decode`'s cold path.
fn sign(key: &[u8], parts: &[&[u8]]) -> [u8; 32] {
    let mut signer = Signer::new(key);
    for part in parts {
        signer.absorb_all(part);
    }
    signer.finish()
}

/// The parent-header frame of a message that has no parent.
const NO_PARENT: &str = "{}";

/// Bytes [`encode`]'s buffer starts with: room for the body and signature
/// of a message whose metadata and content are small, so that one needs no
/// regrowth. A long string grows it once as it is written
/// (`json::encode_string_with` reserves its length up front).
const ENCODE_CAPACITY: usize = 512;

/// Encodes a message (plus routing identities) into wire frames.
///
/// The four body frames and the signature are sub-ranges of one buffer
/// (module docs, "One buffer per message").
pub fn encode(identities: &[Bytes], message: &JupyterMessage, key: &[u8]) -> Vec<Bytes> {
    // Each body byte is signed as the codec writes it (module docs).
    let mut signer = Signer::new(key);
    let mut body = String::with_capacity(ENCODE_CAPACITY);
    let mut ends = [0; 4];
    message.header.encode_with(&mut body, &mut signer);
    ends[0] = body.len();
    match &message.parent {
        Some(parent) => parent.encode_with(&mut body, &mut signer),
        None => put(NO_PARENT, &mut body, &mut signer),
    }
    ends[1] = body.len();
    message.metadata.encode_with(&mut body, &mut signer);
    ends[2] = body.len();
    message.content.encode_with(&mut body, &mut signer);
    ends[3] = body.len();
    let mut buf = body.into_bytes();
    buf.extend_from_slice(&signer.finish());
    let buf = Bytes::from(buf);

    let mut frames = Vec::with_capacity(identities.len() + 6);
    frames.extend(identities.iter().cloned());
    frames.push(Bytes::from_static(DELIMITER));
    frames.push(buf.slice(ends[3]..));
    let mut start = 0;
    for end in ends {
        frames.push(buf.slice(start..end));
        start = end;
    }
    frames
}

/// A signed message read in place by [`decode_in_place`]: its identities
/// and headers borrow from the frames. Metadata and content went to the
/// caller's readers.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageRef<'f> {
    /// The routing identities before the delimiter.
    pub identities: &'f [Bytes],
    /// This message's header.
    pub header: HeaderRef<'f>,
    /// The request this message replies to, if any.
    pub parent: Option<HeaderRef<'f>>,
}

/// The checks every decode makes, in their order, around `body`, which
/// reads the metadata and content frames: the framing, then the signature,
/// then the JSON of all four body frames, then the two headers. Each body
/// byte is verified as the parser reads it (module docs). A frame that does
/// not parse stops the parser partway, so that cold path signs the whole
/// body again: a bad signature outranks bad JSON, and nothing read from
/// frames that fail the signature leaves this function.
fn read_signed<'f, T>(
    frames: &'f [Bytes],
    key: &[u8],
    body: impl FnOnce(&'f [u8], &'f [u8], &mut Signer) -> Result<T, WireError>,
) -> Result<(MessageRef<'f>, T), WireError> {
    let delim = frames
        .iter()
        .position(|f| f.as_ref() == DELIMITER)
        .ok_or(WireError::MissingDelimiter)?;
    if frames.len() < delim + 6 {
        return Err(WireError::TooFewFrames);
    }
    let [signature, header, parent, metadata, content] = &frames[delim + 1..delim + 6] else {
        unreachable!("a slice of five frames");
    };
    let mut signer = Signer::new(key);
    let read = || {
        // An empty header has no fields and reports the first it lacks.
        let header = read_header(header, &mut signer)?.unwrap_or_default();
        let parent = read_header(parent, &mut signer)?;
        Ok((header, parent, body(metadata, content, &mut signer)?))
    };
    let parsed = read();
    let expected = if parsed.is_ok() {
        signer.finish()
    } else {
        sign(key, &[header, parent, metadata, content])
    };
    if signature.as_ref() != expected {
        return Err(WireError::BadSignature);
    }
    let (header, parent, body) = parsed?;
    let header = header.finish().map_err(WireError::BadHeader)?;
    let parent = parent
        .map(HeaderDraft::finish)
        .transpose()
        .map_err(WireError::BadHeader)?;
    let message = MessageRef {
        identities: &frames[..delim],
        header,
        parent,
    };
    Ok((message, body))
}

/// Reads a header frame member by member into a draft, building no dict;
/// `None` for an object with no members. Any other text, an array or a
/// string too, is a draft with no fields.
fn read_header<'f>(
    frame: &'f [u8],
    signer: &mut Signer,
) -> Result<Option<HeaderDraft<'f>>, WireError> {
    let mut draft = HeaderDraft::default();
    let members = read_members_with(text(frame)?, signer, |key, value| draft.set(key, value))
        .map_err(bad_json)?;
    Ok((members != Some(0)).then_some(draft))
}

fn text(frame: &[u8]) -> Result<&str, WireError> {
    std::str::from_utf8(frame).map_err(bad_json)
}

fn bad_json(e: impl std::fmt::Display) -> WireError {
    WireError::BadJson(e.to_string())
}

/// Decodes wire frames back into identities and a message, verifying the
/// signature.
///
/// # Errors
///
/// Returns a [`WireError`] when the framing, signature, or JSON parts are
/// invalid.
pub fn decode(frames: &[Bytes], key: &[u8]) -> Result<(Vec<Bytes>, JupyterMessage), WireError> {
    let parse =
        |frame, signer: &mut Signer| Json::parse_with(text(frame)?, signer).map_err(bad_json);
    let (message, (metadata, content)) = read_signed(frames, key, |metadata, content, signer| {
        Ok((parse(metadata, signer)?, parse(content, signer)?))
    })?;
    Ok((
        message.identities.to_vec(),
        JupyterMessage {
            header: message.header.into_owned(),
            parent: message.parent.map(HeaderRef::into_owned),
            metadata,
            content,
        },
    ))
}

/// [`decode`] without building the message (module docs, "Reading in
/// place"): the headers' strings stay slices of the frames, and each member
/// of the metadata and content objects goes to `metadata` and `content`,
/// which take what they need from it as it is read. The checks, their
/// order and the errors are [`decode`]'s.
///
/// The readers run before the signature is known: what they take is to be
/// trusted only when this returns `Ok`.
///
/// # Errors
///
/// As [`decode`].
pub fn decode_in_place<'f>(
    frames: &'f [Bytes],
    key: &[u8],
    metadata: impl FnMut(&str, Value<'_, 'f>),
    content: impl FnMut(&str, Value<'_, 'f>),
) -> Result<MessageRef<'f>, WireError> {
    let (message, ()) = read_signed(frames, key, |metadata_frame, content_frame, signer| {
        read_members_with(text(metadata_frame)?, signer, metadata).map_err(bad_json)?;
        read_members_with(text(content_frame)?, signer, content).map_err(bad_json)?;
        Ok(())
    })?;
    Ok(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::MAX_DEPTH;
    use crate::message::{Header, JupyterMessage, MsgType, ReplyStatus};

    const KEY: &[u8] = b"test-key";

    fn sample() -> JupyterMessage {
        JupyterMessage::execute_request("m1", "s1", "print(1)", 99)
            .with_destination("kern-1")
            .with_gpu_device_ids(&[0, 1])
    }

    #[test]
    fn round_trip_without_identities() {
        let m = sample();
        let frames = encode(&[], &m, KEY);
        let (ids, decoded) = decode(&frames, KEY).unwrap();
        assert!(ids.is_empty());
        assert_eq!(decoded, m);
    }

    #[test]
    fn round_trip_with_identities_and_parent() {
        let req = sample();
        let reply = req.execute_reply("m2", ReplyStatus::Ok, 1, true, 150);
        let idents = vec![Bytes::from_static(b"client-7")];
        let frames = encode(&idents, &reply, KEY);
        let (ids, decoded) = decode(&frames, KEY).unwrap();
        assert_eq!(ids, idents);
        assert_eq!(decoded.header.msg_type, MsgType::ExecuteReply);
        assert_eq!(decoded.parent.as_ref().unwrap().msg_id, "m1");
    }

    #[test]
    fn wrong_key_is_rejected() {
        let frames = encode(&[], &sample(), KEY);
        assert_eq!(
            decode(&frames, b"other-key").unwrap_err(),
            WireError::BadSignature
        );
    }

    #[test]
    fn tampered_content_is_rejected() {
        let mut frames = encode(&[], &sample(), KEY);
        let last = frames.len() - 1;
        frames[last] = Bytes::from_static(b"{\"code\":\"rm -rf /\"}");
        assert_eq!(decode(&frames, KEY).unwrap_err(), WireError::BadSignature);
    }

    #[test]
    fn missing_delimiter_is_rejected() {
        let mut frames = encode(&[], &sample(), KEY);
        frames.remove(0);
        assert_eq!(
            decode(&frames, KEY).unwrap_err(),
            WireError::MissingDelimiter
        );
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let frames = encode(&[], &sample(), KEY);
        assert_eq!(
            decode(&frames[..frames.len() - 1], KEY).unwrap_err(),
            WireError::TooFewFrames
        );
    }

    #[test]
    fn signature_is_order_sensitive() {
        let a = sign(KEY, &[b"ab", b"c"]);
        let b = sign(KEY, &[b"a", b"bc"]);
        // Keyed over distinct chunk boundaries must still differ because of
        // content; equal concatenations are acceptable for FNV, but the key
        // lane separation keeps distinct keys distinct.
        assert_eq!(a.len(), 32);
        assert_eq!(b.len(), 32);
        assert_ne!(sign(b"k1", &[b"x"]), sign(b"k2", &[b"x"]));
    }

    // ---- The same bytes: goldens captured on the commit before the fast
    // ---- paths, and the signer that commit had.

    /// `frames` as text, identities included.
    fn text(frames: &[Bytes]) -> Vec<&str> {
        frames
            .iter()
            .map(|f| std::str::from_utf8(f).expect("frames are utf-8"))
            .collect()
    }

    /// One unit of the mixed-escape cell — `"`, `\`, `\n`, `\t`, `\r`, U+0001,
    /// a 2-byte and a 3-byte character — and its escaping, written by hand.
    const MIXED: &str = "s = \"q\\z\"\n\tx\r\u{1}é☃;";
    const MIXED_ESCAPED: &str = r#"s = \"q\\z\"\n\tx\r\u0001é☃;"#;
    const MIXED_REPEATS: usize = 410;

    fn mixed_sample() -> JupyterMessage {
        let cell = MIXED.repeat(MIXED_REPEATS);
        assert!(cell.len() >= 8 * 1024);
        JupyterMessage::execute_request("m-big", "s1", cell, 7).with_destination("kern-1")
    }

    #[test]
    fn golden_request_frames() {
        assert_eq!(
            text(&encode(&[], &sample(), KEY)),
            [
                "<IDS|MSG>",
                "d9a7ed88adae67381a9abdf550adf89a",
                r#"{"date":99,"msg_id":"m1","msg_type":"execute_request","session":"s1","username":"notebookos","version":"5.4"}"#,
                "{}",
                r#"{"gpu_device_ids":[0,1],"kernel_id":"kern-1"}"#,
                r#"{"code":"print(1)","silent":false,"stop_on_error":true,"store_history":true}"#,
            ]
        );
    }

    #[test]
    fn golden_reply_frames_with_identity() {
        let reply = sample().execute_reply("m2", ReplyStatus::Ok, 1, true, 150);
        assert_eq!(
            text(&encode(&[Bytes::from_static(b"client-7")], &reply, KEY)),
            [
                "client-7",
                "<IDS|MSG>",
                "6710af3da9fe2a2bf7b7df30d4ba24f1",
                r#"{"date":150,"msg_id":"m2","msg_type":"execute_reply","session":"s1","username":"notebookos","version":"5.4"}"#,
                r#"{"date":99,"msg_id":"m1","msg_type":"execute_request","session":"s1","username":"notebookos","version":"5.4"}"#,
                r#"{"executed":true}"#,
                r#"{"execution_count":1,"status":"ok"}"#,
            ]
        );
    }

    #[test]
    fn golden_mixed_escape_request_frames() {
        let content = format!(
            r#"{{"code":"{}","silent":false,"stop_on_error":true,"store_history":true}}"#,
            MIXED_ESCAPED.repeat(MIXED_REPEATS)
        );
        let frames = encode(&[], &mixed_sample(), KEY);
        assert_eq!(
            text(&frames[..5]),
            [
                "<IDS|MSG>",
                "d64a21983fb928657591e755d0a25f57",
                r#"{"date":7,"msg_id":"m-big","msg_type":"execute_request","session":"s1","username":"notebookos","version":"5.4"}"#,
                "{}",
                r#"{"kernel_id":"kern-1"}"#,
            ]
        );
        // Not `assert_eq!`: a mismatch would print 9 KiB twice.
        let differs = frames[5]
            .iter()
            .zip(content.bytes())
            .position(|(a, b)| *a != b);
        assert_eq!((frames[5].len(), differs), (content.len(), None));
        let (_, decoded) = decode(&frames, KEY).unwrap();
        assert_eq!(decoded, mixed_sample());
    }

    /// The signer before both lanes advanced together: one pass over key,
    /// lane byte and parts per lane, `format!`ted. Bit-for-bit what the
    /// commit before the fast paths shipped.
    fn sign_two_pass(key: &[u8], parts: &[&[u8]]) -> String {
        let mut lanes = [0xcbf2_9ce4_8422_2325u64, 0x6c62_272e_07bb_0142u64];
        for (lane_idx, lane) in lanes.iter_mut().enumerate() {
            for chunk in [key, &[lane_idx as u8][..]]
                .into_iter()
                .chain(parts.iter().copied())
            {
                for &b in chunk {
                    *lane ^= b as u64;
                    *lane = lane.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        format!("{:016x}{:016x}", lanes[0], lanes[1])
    }

    fn body(frames: &[Bytes]) -> Vec<&[u8]> {
        frames[frames.len() - 4..]
            .iter()
            .map(|f| f.as_ref())
            .collect()
    }

    #[test]
    fn one_pass_signer_equals_the_two_pass_reference() {
        let reply = sample().execute_reply("m2", ReplyStatus::Ok, 1, true, 150);
        for message in [sample(), reply, mixed_sample()] {
            for key in [&b""[..], b"k", KEY, &[0xff; 40]] {
                let mut frames = encode(&[], &message, key);
                let parts = body(&frames);
                assert_eq!(
                    sign(key, &parts).as_slice(),
                    sign_two_pass(key, &parts).as_bytes()
                );
                // A frame the reference signed verifies here…
                let signature = frames.len() - 5;
                frames[signature] = Bytes::from(sign_two_pass(key, &body(&frames)));
                assert_eq!(decode(&frames, key).unwrap().1, message);
            }
        }
        // …and on inputs no message produces: empty parts, every byte value.
        let every_byte: Vec<u8> = (0..=255).collect();
        for parts in [
            &[&b""[..], b"", b"", b""][..],
            &[&every_byte[..], b"", &every_byte[..], b"x"][..],
            &[][..],
        ] {
            assert_eq!(
                sign(KEY, parts).as_slice(),
                sign_two_pass(KEY, parts).as_bytes()
            );
        }
    }

    #[test]
    fn any_change_to_what_was_signed_is_a_bad_signature() {
        let reply = sample().execute_reply("m2", ReplyStatus::Ok, 1, true, 150);
        let frames = encode(&[Bytes::from_static(b"client-7")], &reply, KEY);
        let n = frames.len();
        assert!(decode(&frames, KEY).is_ok());
        // One flipped bit in each of the four body frames, first byte and last.
        for frame in n - 4..n {
            for at in [0, frames[frame].len() - 1] {
                let mut tampered = frames.clone();
                let mut bytes = tampered[frame].to_vec();
                bytes[at] ^= 1;
                tampered[frame] = Bytes::from(bytes);
                assert_eq!(
                    decode(&tampered, KEY).unwrap_err(),
                    WireError::BadSignature,
                    "frame {frame}, byte {at}"
                );
            }
        }
        // Any two body frames swapped (all four differ here).
        for a in n - 4..n {
            for b in a + 1..n {
                let mut swapped = frames.clone();
                swapped.swap(a, b);
                assert_eq!(decode(&swapped, KEY).unwrap_err(), WireError::BadSignature);
            }
        }
        // A signature cut short, empty, or one digit too long.
        let signature = frames[n - 5].to_vec();
        for bad in [
            &signature[..31],
            &signature[..16],
            &[][..],
            &[&signature[..], b"0"].concat(),
        ] {
            let mut cut = frames.clone();
            cut[n - 5] = Bytes::copy_from_slice(bad);
            assert_eq!(decode(&cut, KEY).unwrap_err(), WireError::BadSignature);
        }
        // Uppercase hex is a different byte string.
        let mut upper = frames.clone();
        upper[n - 5] = Bytes::from(signature.to_ascii_uppercase());
        assert_eq!(decode(&upper, KEY).unwrap_err(), WireError::BadSignature);
    }

    // ---- Frames this crate did not write, signed by the reference.

    /// `body` behind a delimiter and `sign_two_pass(key, body)`.
    fn signed_by_reference(key: &[u8], body: [&[u8]; 4]) -> Vec<Bytes> {
        let mut frames = vec![
            Bytes::from_static(DELIMITER),
            Bytes::from(sign_two_pass(key, &body)),
        ];
        frames.extend(body.iter().map(|part| Bytes::copy_from_slice(part)));
        frames
    }

    /// `decode` as it was before header frames were read member by member:
    /// the signature checked against `sign_two_pass`, every body frame
    /// parsed to a tree, and each header built from its dict by
    /// [`Header::from_json`]. The reference the header reader is held to.
    fn reference_decode(
        frames: &[Bytes],
        key: &[u8],
    ) -> Result<(Vec<Bytes>, JupyterMessage), WireError> {
        let delim = frames
            .iter()
            .position(|f| f.as_ref() == DELIMITER)
            .ok_or(WireError::MissingDelimiter)?;
        if frames.len() < delim + 6 {
            return Err(WireError::TooFewFrames);
        }
        let parts = body(&frames[..delim + 6]);
        if frames[delim + 1].as_ref() != sign_two_pass(key, &parts).as_bytes() {
            return Err(WireError::BadSignature);
        }
        let mut parsed = Vec::new();
        for part in parts {
            let text = std::str::from_utf8(part).map_err(|e| WireError::BadJson(e.to_string()))?;
            parsed.push(Json::parse(text).map_err(|e| WireError::BadJson(e.to_string()))?);
        }
        let [header, parent, metadata, content]: [Json; 4] =
            parsed.try_into().expect("four body frames");
        let header = Header::from_json(header).map_err(WireError::BadHeader)?;
        let parent = match parent {
            Json::Obj(map) if map.is_empty() => None,
            other => Some(Header::from_json(other).map_err(WireError::BadHeader)?),
        };
        Ok((
            frames[..delim].to_vec(),
            JupyterMessage {
                header,
                parent,
                metadata,
                content,
            },
        ))
    }

    #[test]
    fn foreign_text_verifies_and_parses() {
        // Python's `json.dumps` separators, whitespace around every frame,
        // an escaped surrogate pair, and a high surrogate before an escape
        // that is not its low half (the parser reads `\ud83d`, looks ahead
        // at `A`, and rewinds to read it again on its own).
        let header = concat!(
            " {\"date\": 99, \"msg_id\": \"m1\", \"msg_type\": \"execute_request\", ",
            "\"session\": \"s1\", \"username\": \"notebookos\", \"version\": \"5.4\"}\n"
        );
        let parent = "\t{ }\r\n";
        let metadata = "{\"kernel_id\": \"kern-1\",\n \"gpu_device_ids\": [0, 1]} ";
        let content = concat!(
            "{\"code\": \"a = '\\ud83d\\ude00'; b = '\\ud83d\\u0041'\", \"silent\": false, ",
            "\"stop_on_error\": true, \"store_history\": true}"
        );
        let body = [header, parent, metadata, content].map(str::as_bytes);
        let want = JupyterMessage::execute_request("m1", "s1", "a = '😀'; b = '\u{fffd}A'", 99)
            .with_destination("kern-1")
            .with_gpu_device_ids(&[0, 1]);
        for key in [&b""[..], b"k", KEY, &[0xa5; 40]] {
            let frames = signed_by_reference(key, body);
            assert_eq!(decode(&frames, key), Ok((Vec::new(), want.clone())));
            assert_eq!(
                decode(&frames, b"other-key").unwrap_err(),
                WireError::BadSignature
            );
        }
    }

    #[test]
    fn a_bad_signature_outranks_bad_json_and_bad_json_outranks_a_bad_header() {
        let good = encode(&[], &sample(), KEY);
        let good_body = body(&good);
        let invalid_utf8 = b"{\"code\":\"\xff\xfe\"}";
        let truncated = b"{\"code\":\"print(1)\",\"silent\":fal";
        let trailing = b"{\"code\":\"print(1)\"} x";
        // Each bad part in each of the four body frames: the frames after it
        // still count toward the signature.
        for frame in 0..4 {
            for bad in [&invalid_utf8[..], truncated, trailing] {
                let mut parts = [good_body[0], good_body[1], good_body[2], good_body[3]];
                parts[frame] = bad;
                let signed = signed_by_reference(KEY, parts);
                assert!(
                    matches!(decode(&signed, KEY), Err(WireError::BadJson(_))),
                    "frame {frame}, {bad:?}"
                );
                if bad != trailing {
                    let forged = signed_by_reference(b"other-key", parts);
                    assert_eq!(
                        decode(&forged, KEY).unwrap_err(),
                        WireError::BadSignature,
                        "frame {frame}, {bad:?}"
                    );
                }
            }
        }
        // A header that parses but lacks `msg_type`: only a good signature
        // gets as far as reading it.
        let no_type = br#"{"date":1,"msg_id":"m1","session":"s1","username":"u","version":"5.4"}"#;
        let parts = [&no_type[..], good_body[1], good_body[2], good_body[3]];
        assert_eq!(
            decode(&signed_by_reference(KEY, parts), KEY).unwrap_err(),
            WireError::BadHeader("header missing `msg_type`".to_string())
        );
        assert_eq!(
            decode(&signed_by_reference(b"other-key", parts), KEY).unwrap_err(),
            WireError::BadSignature
        );
    }

    #[test]
    fn a_header_too_deep_or_with_a_numeric_msg_id_fails_as_the_dict_did() {
        let good = encode(&[], &sample(), KEY);
        let good_body = body(&good);
        let with_header = |header: &[u8], key: &[u8]| {
            signed_by_reference(key, [header, good_body[1], good_body[2], good_body[3]])
        };
        // An unknown key whose value opens one level past `MAX_DEPTH` (the
        // header object is the first level): the bracket that does is at
        // byte 5 + MAX_DEPTH − 1.
        let nested = |levels: usize| {
            format!(
                r#"{{"x":{}{},"msg_id":"m1"}}"#,
                "[".repeat(levels),
                "]".repeat(levels)
            )
        };
        let too_deep = with_header(nested(MAX_DEPTH).as_bytes(), KEY);
        let want = Err(WireError::BadJson(format!(
            "json error at byte {}: nesting deeper than {MAX_DEPTH} levels",
            5 + MAX_DEPTH - 1
        )));
        assert_eq!(reference_decode(&too_deep, KEY), want);
        assert_eq!(decode(&too_deep, KEY), want);
        // One level shallower parses, and then lacks `msg_type`.
        let at_cap = with_header(nested(MAX_DEPTH - 1).as_bytes(), KEY);
        let want = Err(WireError::BadHeader("header missing `msg_type`".into()));
        assert_eq!(
            (decode(&at_cap, KEY), reference_decode(&at_cap, KEY)),
            (want.clone(), want)
        );
        // A `msg_id` that is a number counts as missing, once the signature
        // holds.
        let numeric = br#"{"date":1,"msg_id":7,"msg_type":"execute_request","session":"s1","username":"u","version":"5.4"}"#;
        let want = Err(WireError::BadHeader("header missing `msg_id`".into()));
        let signed = with_header(numeric, KEY);
        assert_eq!(
            (decode(&signed, KEY), reference_decode(&signed, KEY)),
            (want.clone(), want)
        );
        let forged = with_header(numeric, b"other-key");
        assert_eq!(decode(&forged, KEY), Err(WireError::BadSignature));
    }

    mod differential {
        use std::collections::BTreeMap;

        use proptest::prelude::*;

        use super::*;
        use crate::json::encode_string;
        use crate::json::tests::differential::ALPHABET;

        /// Up to `max_chars` characters of the JSON escape alphabet: every
        /// escape and characters of every UTF-8 width.
        fn arb_text(max_chars: usize) -> impl Strategy<Value = String> {
            proptest::collection::vec(0..ALPHABET.len(), 0..max_chars + 1)
                .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
        }

        fn arb_header() -> impl Strategy<Value = Header> {
            const TYPES: [MsgType; 4] = [
                MsgType::ExecuteRequest,
                MsgType::ExecuteReply,
                MsgType::YieldRequest,
                MsgType::Status,
            ];
            (
                arb_text(12),
                arb_text(12),
                arb_text(8),
                0..TYPES.len(),
                arb_text(4),
                // `date` travels as an f64, exact below 2^53.
                0u64..1 << 53,
            )
                .prop_map(|(msg_id, session, username, t, version, date_us)| Header {
                    msg_id,
                    session,
                    username: username.into(),
                    msg_type: TYPES[t],
                    version: version.into(),
                    date_us,
                })
        }

        /// A dict of numbers, bools, strings, arrays and nested dicts.
        fn arb_metadata() -> impl Strategy<Value = Json> {
            let leaf = prop_oneof![
                Just(Json::Null),
                any::<bool>().prop_map(Json::Bool),
                (-1.0e9f64..1.0e9).prop_map(Json::Num),
                (0u64..1 << 53).prop_map(Json::from),
                arb_text(16).prop_map(Json::Str),
            ];
            let value = leaf.prop_recursive(3, 32, 5, |inner| {
                prop_oneof![
                    proptest::collection::vec(inner.clone(), 0..5).prop_map(Json::Arr),
                    proptest::collection::btree_map(arb_text(6), inner, 0..5)
                        .prop_map(|m| Json::Obj(m.into_iter().collect::<BTreeMap<_, _>>())),
                ]
            });
            proptest::collection::btree_map(arb_text(6), value, 0..5)
                .prop_map(|m| Json::Obj(m.into_iter().collect::<BTreeMap<_, _>>()))
        }

        fn arb_message() -> impl Strategy<Value = JupyterMessage> {
            (
                arb_header(),
                (any::<bool>(), arb_header()),
                arb_metadata(),
                arb_text(600),
                any::<bool>(),
            )
                .prop_map(|(header, (has_parent, parent), metadata, cell, silent)| {
                    JupyterMessage {
                        header,
                        parent: has_parent.then_some(parent),
                        metadata,
                        content: Json::object().with("code", cell).with("silent", silent),
                    }
                })
        }

        /// `s` as a JSON string.
        fn quoted(s: &str) -> String {
            let mut out = String::new();
            encode_string(s, &mut out);
            out
        }

        /// A header's six keys, then keys it does not have.
        const KEYS: [&str; 10] = [
            "date", "msg_id", "msg_type", "session", "username", "version", "x", "msg_idx", "",
            "é☃",
        ];

        /// Whitespace another writer may put between tokens; Python's
        /// `json.dumps` puts one space after `,` and `:`.
        const WS: [&str; 5] = ["", " ", "\n  ", "\t", "\r\n"];

        /// Frames that are JSON but not an object.
        const NOT_OBJECTS: [&str; 5] = ["[]", r#""x""#, "null", "7", r#"[{"msg_id": "m1"}]"#];

        /// `key` as a JSON string, each character whose bit (its index
        /// mod 7) is set in `escapes` written as a `\u` escape, in
        /// uppercase hex when bit 7 is set.
        fn spell_key(key: &str, escapes: u8) -> String {
            let mut out = String::from('"');
            for (i, c) in key.chars().enumerate() {
                if escapes >> (i % 7) & 1 == 1 {
                    let hex = format!("{:04x}", u32::from(c));
                    out.push_str("\\u");
                    out.push_str(&if escapes & 0x80 != 0 {
                        hex.to_uppercase()
                    } else {
                        hex
                    });
                } else {
                    out.push(c);
                }
            }
            out.push('"');
            out
        }

        /// A member value of any JSON type: strings a header field may
        /// hold (message types, one spelled with an escape, and an unknown
        /// one), numbers a `date` does and does not fit, and containers.
        fn arb_value() -> impl Strategy<Value = String> {
            const VALUES: [&str; 16] = [
                r#""execute_request""#,
                r#""status""#,
                r#""execute\u005freply""#,
                r#""bogus""#,
                r#""""#,
                "0",
                "99",
                "-1",
                "1.5",
                "2.5E-1",
                "18446744073709551616",
                "null",
                "true",
                "[]",
                "{}",
                r#"{"msg_id": "inner", "a": [null, {"b": false}]}"#,
            ];
            prop_oneof![
                (0..VALUES.len()).prop_map(|i| VALUES[i].to_string()),
                arb_text(8).prop_map(|s| quoted(&s)),
            ]
        }

        /// A member under one of `KEYS[keys]`, its key spelled with escapes.
        fn arb_member(keys: std::ops::Range<usize>) -> impl Strategy<Value = (String, String)> {
            (keys, any::<u8>(), arb_value())
                .prop_map(|(k, escapes, value)| (spell_key(KEYS[k], escapes), value))
        }

        /// An object of `members` with `ws` between every two tokens and
        /// around it.
        fn object(members: &[(String, String)], ws: &str) -> String {
            let members: Vec<String> = members
                .iter()
                .map(|(key, value)| format!("{key}{ws}:{ws}{value}"))
                .collect();
            format!(
                "{ws}{{{ws}{}{ws}}}{ws}",
                members.join(&format!("{ws},{ws}"))
            )
        }

        /// Header frames this crate never writes. The six fields of a
        /// header that decodes, each missing one time in eight, keys
        /// spelled with escapes, plus up to three more members under any
        /// key (duplicates of the six included), all in any order; one
        /// frame in six is not an object, and one in eight is cut short.
        fn arb_header_text() -> impl Strategy<Value = String> {
            const TYPES: [&str; 3] = ["execute_request", "execute_reply", "status"];
            let fields = (
                0u64..1 << 53,
                0..TYPES.len(),
                proptest::collection::vec(arb_text(8), 4),
                proptest::collection::vec(any::<u8>(), 6),
                any::<u32>(),
            )
                .prop_map(|(date, t, strings, escapes, drops)| {
                    let values = [
                        date.to_string(),
                        quoted(&strings[0]),
                        quoted(TYPES[t]),
                        quoted(&strings[1]),
                        quoted(&strings[2]),
                        quoted(&strings[3]),
                    ];
                    (0..6)
                        .filter(|i| drops >> (3 * i) & 7 != 0)
                        .map(|i| (spell_key(KEYS[i], escapes[i]), values[i].clone()))
                        .collect::<Vec<_>>()
                });
            (
                fields,
                proptest::collection::vec(arb_member(0..KEYS.len()), 0..4),
                proptest::collection::vec(any::<u32>(), 9),
                0..WS.len(),
                0..NOT_OBJECTS.len() * 6,
                any::<usize>(),
            )
                .prop_map(|(fields, extra, order, ws, shape, cut)| {
                    let mut members: Vec<_> = fields.into_iter().chain(extra).zip(order).collect();
                    members.sort_by_key(|&(_, at)| at);
                    let members: Vec<_> = members.into_iter().map(|(m, _)| m).collect();
                    let mut text = match NOT_OBJECTS.get(shape) {
                        Some(other) => format!("{}{other}{}", WS[ws], WS[ws]),
                        None => object(&members, WS[ws]),
                    };
                    if cut % 8 == 0 {
                        let mut at = cut / 8 % (text.len() + 1);
                        while !text.is_char_boundary(at) {
                            at -= 1;
                        }
                        text.truncate(at);
                    }
                    text
                })
        }

        /// Parent frames: a header frame as above, an object with no
        /// members, or an object of unknown keys only.
        fn arb_parent_text() -> impl Strategy<Value = String> {
            prop_oneof![
                3 => arb_header_text(),
                1 => (0..WS.len()).prop_map(|ws| object(&[], WS[ws])),
                1 => (proptest::collection::vec(arb_member(6..KEYS.len()), 1..3), 0..WS.len())
                    .prop_map(|(members, ws)| object(&members, WS[ws])),
            ]
        }

        /// Signing keys of 0, 1 and 40 bytes.
        fn arb_key() -> impl Strategy<Value = Vec<u8>> {
            (0..3usize, proptest::collection::vec(any::<u8>(), 40))
                .prop_map(|(len, bytes)| bytes[..[0, 1, 40][len]].to_vec())
        }

        /// Metadata members under the keys a request carries, keys it does
        /// not, and the same keys spelled with escapes, any of them twice.
        const METADATA_KEYS: [&str; 5] = ["kernel_id", "duration_us", "gpu_device_ids", "x", ""];

        /// Values of every JSON type for a metadata member: durations that
        /// are and are not a `u64` (fractional, negative, 2^64 and the last
        /// `f64` below it), strings with and without escapes, escapes that
        /// are not JSON, containers.
        fn arb_metadata_value() -> impl Strategy<Value = String> {
            const VALUES: [&str; 19] = [
                "0",
                "-0",
                "10",
                "1e3",
                "1.5",
                "2.5E-1",
                "-1",
                "18446744073709551616",
                "18446744073709549568",
                "null",
                "true",
                r#""kernel-1""#,
                r#""kern\u002d1""#,
                r#""bad \uzz12 hex""#,
                r#""bad \q escape""#,
                r#"["\ud83d\ude00", {"k\u00e9y": "\ud83dA"}]"#,
                "[0, 1]",
                "{}",
                r#"{"kernel_id": "inner", "a": [null, {"duration_us": 5}]}"#,
            ];
            prop_oneof![
                3 => (0..VALUES.len()).prop_map(|i| VALUES[i].to_string()),
                1 => arb_text(8).prop_map(|s| quoted(&s)),
                1 => (any::<u8>(), 0..2usize)
                    .prop_map(|(escapes, v)| spell_key(["kernel-1", "kernel-s7"][v], escapes)),
            ]
        }

        /// A metadata frame: an object of up to six such members, or, one
        /// time in eight, a value that is not an object.
        fn arb_metadata_text() -> impl Strategy<Value = String> {
            let member = (0..METADATA_KEYS.len(), any::<u8>(), arb_metadata_value())
                .prop_map(|(k, escapes, value)| (spell_key(METADATA_KEYS[k], escapes), value));
            (
                proptest::collection::vec(member, 0..7),
                0..WS.len(),
                0..NOT_OBJECTS.len() * 8,
            )
                .prop_map(|(members, ws, shape)| match NOT_OBJECTS.get(shape) {
                    Some(other) => other.to_string(),
                    None => object(&members, WS[ws]),
                })
        }

        /// A content frame: a cell with escapes, the flags, and one time in
        /// four a member nested just within [`MAX_DEPTH`] or just past it.
        fn arb_content_text() -> impl Strategy<Value = String> {
            (arb_text(40), any::<bool>(), 0..8usize).prop_map(|(cell, silent, deep)| {
                let mut members = vec![
                    (quoted("code"), quoted(&cell)),
                    (quoted("silent"), silent.to_string()),
                ];
                // The content object is the first level.
                if let Some(levels) = [MAX_DEPTH - 1, MAX_DEPTH].get(deep) {
                    let nested = "[".repeat(*levels) + &"]".repeat(*levels);
                    members.push((quoted("deep"), nested));
                }
                object(&members, "")
            })
        }

        /// What is done to a signed body before it is sent.
        #[derive(Debug, Clone, Copy)]
        enum Damage {
            None,
            /// A byte that is never UTF-8 put into the frame.
            NotUtf8(usize),
            /// The frame cut short: no longer JSON, or still JSON when the
            /// cut falls in trailing whitespace.
            Cut(usize),
            /// Text after the frame's value.
            Trailing,
        }

        fn arb_damage() -> impl Strategy<Value = (Damage, usize)> {
            let damage = prop_oneof![
                4 => Just(Damage::None),
                1 => any::<usize>().prop_map(Damage::NotUtf8),
                1 => any::<usize>().prop_map(Damage::Cut),
                1 => Just(Damage::Trailing),
            ];
            (damage, 0..4usize)
        }

        fn damaged(frame: &str, damage: Damage) -> Vec<u8> {
            let mut bytes = frame.as_bytes().to_vec();
            match damage {
                Damage::None => {}
                Damage::NotUtf8(at) => bytes.insert(at % (bytes.len() + 1), 0xff),
                Damage::Cut(at) => bytes.truncate(at % (bytes.len() + 1)),
                Damage::Trailing => bytes.extend_from_slice(b" x"),
            }
            bytes
        }

        /// How a test reads each member it is handed in place.
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Take {
            Str,
            U64,
            /// Takes nothing: the parser skips every value.
            Nothing,
            /// What the gateway takes: `kernel_id` as a string,
            /// `duration_us` as a number, nothing else.
            Gateway,
        }

        /// One member as read in place.
        #[derive(Debug, Clone, PartialEq)]
        enum Took {
            Str(Option<String>),
            U64(Option<u64>),
            Nothing,
        }

        /// `members` folded into a dict as the owned decode's objects are:
        /// a later duplicate replaces an earlier one.
        fn folded(members: Vec<(String, Took)>) -> BTreeMap<String, Took> {
            members.into_iter().collect()
        }

        /// The members `take` would read from `value`, a parsed frame.
        fn took_from_tree(value: &Json, take: Take) -> BTreeMap<String, Took> {
            let Json::Obj(members) = value else {
                return BTreeMap::new();
            };
            members
                .iter()
                .map(|(key, value)| {
                    let took = match (take, key.as_str()) {
                        (Take::Str, _) | (Take::Gateway, "kernel_id") => {
                            Took::Str(value.as_str().map(String::from))
                        }
                        (Take::U64, _) | (Take::Gateway, "duration_us") => {
                            Took::U64(value.as_u64())
                        }
                        _ => Took::Nothing,
                    };
                    (key.clone(), took)
                })
                .collect()
        }

        /// A reader for [`decode_in_place`] that takes each value as `take`
        /// says and keeps what it took.
        fn reader<'f>(
            take: Take,
            kept: &mut Vec<(String, Took)>,
        ) -> impl FnMut(&str, Value<'_, 'f>) + '_ {
            move |key, value| {
                let took = match (take, key) {
                    (Take::Str, _) | (Take::Gateway, "kernel_id") => {
                        Took::Str(value.str().map(String::from))
                    }
                    (Take::U64, _) | (Take::Gateway, "duration_us") => Took::U64(value.u64()),
                    _ => Took::Nothing,
                };
                kept.push((key.to_string(), took));
            }
        }

        /// Holds [`decode_in_place`] to [`decode`] on `frames`, reading
        /// every member in each [`Take`]: the same verdict and error, and
        /// on success the same identities, headers, and member values.
        fn in_place_agrees_with_decode(frames: &[Bytes], key: &[u8]) -> Result<(), TestCaseError> {
            let owned = decode(frames, key);
            for take in [Take::Str, Take::U64, Take::Nothing, Take::Gateway] {
                let (mut metadata, mut content) = (Vec::new(), Vec::new());
                let read = decode_in_place(
                    frames,
                    key,
                    reader(take, &mut metadata),
                    reader(take, &mut content),
                );
                match (&owned, read) {
                    (Err(want), Err(got)) => prop_assert_eq!(&got, want, "{:?}", take),
                    (Ok((identities, message)), Ok(read)) => {
                        prop_assert_eq!(read.identities, &identities[..]);
                        prop_assert_eq!(&read.header.into_owned(), &message.header);
                        prop_assert_eq!(
                            read.parent.map(HeaderRef::into_owned),
                            message.parent.clone()
                        );
                        prop_assert_eq!(
                            folded(metadata),
                            took_from_tree(&message.metadata, take),
                            "{:?}",
                            take
                        );
                        prop_assert_eq!(
                            folded(content),
                            took_from_tree(&message.content, take),
                            "{:?}",
                            take
                        );
                    }
                    (want, got) => {
                        return Err(TestCaseError::fail(format!(
                            "{take:?}: decode {want:?}, in place {got:?}"
                        )))
                    }
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn the_fused_codec_signs_what_the_reference_signs_and_round_trips(
                message in arb_message(),
                key in arb_key(),
                identities in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..8), 0..3),
                (flip_at, flip_with) in (any::<usize>(), 1u8..=255),
            ) {
                let identities: Vec<Bytes> = identities.into_iter().map(Bytes::from).collect();
                let frames = encode(&identities, &message, &key);
                let n = frames.len();
                let reference = sign_two_pass(&key, &body(&frames));
                prop_assert_eq!(frames[n - 5].as_ref(), reference.as_bytes());
                prop_assert_eq!(decode(&frames, &key), Ok((identities, message)));
                // One body byte changed, wherever it lands: possibly no
                // longer UTF-8 or JSON, always a bad signature.
                let mut at = flip_at % body(&frames).iter().map(|p| p.len()).sum::<usize>();
                let mut tampered = frames.clone();
                for frame in &mut tampered[n - 4..] {
                    if at < frame.len() {
                        let mut bytes = frame.to_vec();
                        bytes[at] ^= flip_with;
                        *frame = Bytes::from(bytes);
                        break;
                    }
                    at -= frame.len();
                }
                prop_assert_eq!(decode(&tampered, &key), Err(WireError::BadSignature));
            }

            /// Header and parent frames read member by member decode to
            /// what their parsed dicts did: the same message, or the same
            /// error down to its text.
            #[test]
            fn header_frames_decode_as_their_dicts_did(
                header in arb_header_text(),
                parent in arb_parent_text(),
                key in arb_key(),
            ) {
                let body = [
                    header.as_bytes(),
                    parent.as_bytes(),
                    br#"{"kernel_id": "k"}"#,
                    b"{}",
                ];
                for signed_with in [&key[..], b"other-key"] {
                    let frames = signed_by_reference(signed_with, body);
                    prop_assert_eq!(decode(&frames, &key), reference_decode(&frames, &key));
                }
            }

            /// The read in place is `decode` without the message: over
            /// requests and replies this crate writes, and over frames it
            /// never writes — foreign headers, metadata whose keys and
            /// values are escaped, repeated, or not what they should be,
            /// content nested to the depth limit and past it, a frame that
            /// is not UTF-8 or not JSON, a signature by another key or with
            /// a digit changed — every verdict, error and field agrees.
            #[test]
            fn the_read_in_place_agrees_with_decode(
                message in arb_message(),
                (header, own_header) in (arb_header_text(), any::<bool>()),
                (parent, own_parent) in (arb_parent_text(), 0..3usize),
                metadata in arb_metadata_text(),
                content in arb_content_text(),
                (damage, damaged_frame) in arb_damage(),
                (signature, flip_at) in (0..6usize, any::<usize>()),
                key in arb_key(),
            ) {
                let encoded = encode(&[Bytes::from_static(b"client-7")], &message, &key);
                in_place_agrees_with_decode(&encoded, &key)?;
                let own = |header: &Header| {
                    let mut out = String::new();
                    header.encode_with(&mut out, &mut ());
                    out
                };
                let header = if own_header { own(&message.header) } else { header };
                let parent = match (own_parent, &message.parent) {
                    (0, Some(p)) => own(p),
                    (1, _) => NO_PARENT.to_string(),
                    _ => parent,
                };
                let mut body = [header, parent, metadata, content].map(String::into_bytes);
                body[damaged_frame] =
                    damaged(std::str::from_utf8(&body[damaged_frame]).unwrap(), damage);
                let parts = [&body[0][..], &body[1], &body[2], &body[3]];
                let mut frames = signed_by_reference(if signature == 0 { b"other-key" } else { &key }, parts);
                if signature == 1 {
                    let mut digits = frames[1].to_vec();
                    let at = flip_at % digits.len();
                    digits[at] = if digits[at] == b'0' { b'1' } else { b'0' };
                    frames[1] = Bytes::from(digits);
                }
                in_place_agrees_with_decode(&frames, &key)?;
            }
        }
    }
}
