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
//! verify) and the signature reads every body byte, so `sign` sets the
//! floor of the whole wire path. FNV-1a is a serial chain — each byte's
//! xor-then-multiply needs the previous byte's product, about four cycles a
//! byte however wide the machine is — but the two 64-bit lanes are
//! independent of each other. `sign` therefore feeds key, lane byte and
//! the four parts to both lanes in one pass: the two chains overlap in the
//! pipeline and 128 bits cost what 64 would. That is the floor for *this*
//! function; going below it means a different signature, which would change
//! the bytes on the wire. The two-pass form it replaced is kept under
//! `#[cfg(test)]` as the reference either must verify against.
//!
//! Around the signature, [`encode`] writes each header straight to its
//! canonical text ([`Header::encode`]) instead of building a dict per
//! header, and [`decode`] moves the parsed header's strings into the
//! [`Header`] instead of cloning them.

use bytes::Bytes;

use crate::json::{Json, HEX};
use crate::message::{Header, JupyterMessage};

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

/// Plain 64-bit FNV-1a over `bytes`: the workspace's one stable,
/// dependency-free hash (sweep fingerprints, the serve engine's shard
/// keys). The frame signature is the keyed two-lane form of the same chain
/// and keeps its own interleaved loop; it shares only the constants.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
    })
}

/// Computes the keyed signature over the four JSON body parts: keyed
/// FNV-1a, 128 bits as two lanes, in lowercase hex. Documented as
/// non-cryptographic in the module docs, which also say why both lanes
/// advance together.
fn sign(key: &[u8], parts: &[&[u8]]) -> [u8; 32] {
    let [mut a, mut b] = LANE_OFFSETS;
    let mut absorb = |byte_a: u8, byte_b: u8| {
        a = (a ^ u64::from(byte_a)).wrapping_mul(FNV_PRIME);
        b = (b ^ u64::from(byte_b)).wrapping_mul(FNV_PRIME);
    };
    for &byte in key {
        absorb(byte, byte);
    }
    absorb(0, 1);
    for part in parts {
        for &byte in *part {
            absorb(byte, byte);
        }
    }
    let mut hex = [0u8; 32];
    for (lane, digits) in [a, b].into_iter().zip(hex.chunks_exact_mut(16)) {
        for (i, digit) in digits.iter_mut().enumerate() {
            *digit = HEX[(lane >> (60 - 4 * i)) as usize & 0xf];
        }
    }
    hex
}

/// Encodes a message (plus routing identities) into wire frames.
pub fn encode(identities: &[Bytes], message: &JupyterMessage, key: &[u8]) -> Vec<Bytes> {
    let header = message.header.encode();
    let parent = match &message.parent {
        Some(parent) => Bytes::from(parent.encode()),
        None => Bytes::from_static(b"{}"),
    };
    let metadata = message.metadata.encode();
    let content = message.content.encode();
    let signature = sign(
        key,
        &[
            header.as_bytes(),
            &parent,
            metadata.as_bytes(),
            content.as_bytes(),
        ],
    );

    let mut frames = Vec::with_capacity(identities.len() + 6);
    frames.extend(identities.iter().cloned());
    frames.push(Bytes::from_static(DELIMITER));
    frames.push(Bytes::copy_from_slice(&signature));
    frames.push(Bytes::from(header));
    frames.push(parent);
    frames.push(Bytes::from(metadata));
    frames.push(Bytes::from(content));
    frames
}

/// Decodes wire frames back into identities and a message, verifying the
/// signature.
///
/// # Errors
///
/// Returns a [`WireError`] when the framing, signature, or JSON parts are
/// invalid.
pub fn decode(frames: &[Bytes], key: &[u8]) -> Result<(Vec<Bytes>, JupyterMessage), WireError> {
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
    if signature.as_ref() != sign(key, &[header, parent, metadata, content]) {
        return Err(WireError::BadSignature);
    }
    let parse = |bytes: &[u8]| -> Result<Json, WireError> {
        let text = std::str::from_utf8(bytes).map_err(|e| WireError::BadJson(e.to_string()))?;
        Json::parse(text).map_err(|e| WireError::BadJson(e.to_string()))
    };
    let header_json = parse(header)?;
    let parent_json = parse(parent)?;
    let metadata = parse(metadata)?;
    let content = parse(content)?;
    let header = Header::from_json(header_json).map_err(WireError::BadHeader)?;
    let parent = match parent_json {
        Json::Obj(map) if map.is_empty() => None,
        other => Some(Header::from_json(other).map_err(WireError::BadHeader)?),
    };
    let identities = frames[..delim].to_vec();
    Ok((
        identities,
        JupyterMessage {
            header,
            parent,
            metadata,
            content,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{JupyterMessage, MsgType, ReplyStatus};

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

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
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
}
