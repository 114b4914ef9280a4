//! The frame layer of the distributed serving protocol.
//!
//! One frame carries one [`Message`]:
//!
//! ```text
//! ┌────────┬─────────┬──────┬──────────┬─────────────┬─────────┬──────────────┐
//! │ magic  │ version │ kind │ trace_id │ payload_len │ payload │ FNV-1a 64    │
//! │ u16 LE │ u16 LE  │ u8   │ u64 LE   │ u32 LE      │ bytes   │ of payload   │
//! └────────┴─────────┴──────┴──────────┴─────────────┴─────────┴──────────────┘
//! ```
//!
//! Everything is explicit little-endian; payloads reuse the
//! `engine::wire` request/response encoding. The header's `trace_id`
//! (`0` = untraced) stitches node-side spans to the coordinator's trace:
//! a node answers with the request's trace id and records its own spans
//! under it, so a later [`Message::StatsRequest`] scrape returns spans a
//! coordinator can merge by id. A frame is rejected — never guessed at —
//! when the magic or version disagrees, the kind is unknown, the
//! checksum mismatches, the payload is truncated, or trailing bytes
//! follow the payload. Decoding is driven entirely by the declared
//! `payload_len`, so a reader can frame a byte stream without
//! understanding the payloads.

use crate::distributed::TransportError;
use crate::fault::{FaultError, FaultKind};
use engine::wire::{
    decode_request, decode_response, encode_request, encode_response, WireReader, WireWriter,
};
use engine::{SearchRequest, SearchResponse, WireError};
use metrics::trace::LANE_NONE;
use metrics::{SpanKind, SpanRecord, TransportStats};
use std::io::{Read, Write};

/// First two bytes of every frame (`"HW"` little-endian).
pub const WIRE_MAGIC: u16 = 0x4857;
/// Protocol revision; bumped on any layout change (v2 added the header
/// trace id and the stats message pair; v3 added the per-response query
/// cost profile and the node-side cumulative profile in stats).
pub const WIRE_VERSION: u16 = 3;
/// Header bytes before the payload (magic + version + kind + trace id +
/// length).
pub const HEADER_LEN: usize = 17;
/// Checksum bytes after the payload.
pub const TRAILER_LEN: usize = 8;
/// Frames larger than this are rejected before allocation — no legitimate
/// request or response gets close.
pub const MAX_PAYLOAD: usize = 256 << 20;

/// What went wrong on the node, as reported in an error frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The node could not make sense of the request frame.
    BadRequest = 1,
    /// The request is valid but the node cannot serve it (e.g. a frame
    /// kind this node does not handle).
    Unsupported = 2,
    /// The node's index reported a transient fault; a retry may succeed.
    FaultTransient = 3,
    /// The node's index is dead; retries fail until it recovers.
    FaultDead = 4,
    /// The node failed internally.
    Internal = 5,
    /// The node's admission control shed the request (queue full, quota
    /// exceeded, or deadline passed while queued); a retry on a sibling —
    /// or later — may succeed.
    Overloaded = 6,
}

impl ErrorCode {
    fn from_u16(x: u16) -> Result<Self, WireError> {
        Ok(match x {
            1 => ErrorCode::BadRequest,
            2 => ErrorCode::Unsupported,
            3 => ErrorCode::FaultTransient,
            4 => ErrorCode::FaultDead,
            5 => ErrorCode::Internal,
            6 => ErrorCode::Overloaded,
            other => return Err(WireError::Malformed(format!("unknown error code {other}"))),
        })
    }
}

/// A structured node-side error carried by [`Message::Error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFault {
    /// What failed.
    pub code: ErrorCode,
    /// Human-readable context (never parsed by the client).
    pub message: String,
}

impl WireFault {
    /// The error frame a node answers with when its index faults.
    pub fn from_fault(error: FaultError) -> Self {
        let code = match error.kind {
            FaultKind::Transient => ErrorCode::FaultTransient,
            FaultKind::Dead => ErrorCode::FaultDead,
            FaultKind::Malformed => ErrorCode::Internal,
        };
        Self {
            code,
            message: error.to_string(),
        }
    }

    /// The client-side [`FaultError`] this frame maps back to, stamped
    /// with the client's own call counter. Protocol-level codes
    /// (`BadRequest`/`Unsupported`/`Internal`) surface as
    /// [`FaultKind::Malformed`] — the node answered, but not with results.
    /// [`ErrorCode::Overloaded`] maps to [`FaultKind::Transient`]: a shed
    /// request is retryable, so the replica layer routes around the
    /// saturated node exactly as it routes around a transient fault.
    pub fn to_fault(&self, call: u64) -> FaultError {
        let kind = match self.code {
            ErrorCode::FaultTransient | ErrorCode::Overloaded => FaultKind::Transient,
            ErrorCode::FaultDead => FaultKind::Dead,
            ErrorCode::BadRequest | ErrorCode::Unsupported | ErrorCode::Internal => {
                FaultKind::Malformed
            }
        };
        FaultError { call, kind }
    }
}

/// A node's identity card, answered to [`Message::InfoRequest`] — what
/// [`super::RemoteIndex`] needs to stand in as an `AnnIndex`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeInfo {
    /// Vectors the node serves.
    pub len: u64,
    /// Vector dimensionality.
    pub dim: u32,
    /// Resident bytes of the node's index.
    pub memory_bytes: u64,
    /// Uptime in requests: search frames served since the node started
    /// (a restart shows as this going backwards).
    pub requests: u64,
    /// The node's data generation (bumped on mutation/rebuild), so a
    /// scrape can show node health without a separate probe.
    pub generation: u64,
}

/// A node's live observability snapshot, answered to
/// [`Message::StatsRequest`]: identity, server-side transport counters,
/// and the node's retained span buffer (stitched to coordinator traces
/// by the header trace ids).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// The identity card at scrape time.
    pub info: NodeInfo,
    /// Server-side frame/byte/failure counters.
    pub transport: TransportStats,
    /// Sum of the [`metrics::QueryProfile`]s of every search the node
    /// served since it started — the node-side ledger a coordinator
    /// reconciles its own aggregated profiles against.
    pub profile: metrics::QueryProfile,
    /// Retained node-side spans, in ring claim order.
    pub spans: Vec<SpanRecord>,
}

impl NodeStats {
    /// This snapshot as a JSON object (the `flash_cli stats` output).
    pub fn to_json(&self) -> metrics::Json {
        use metrics::Json;
        Json::Obj(vec![
            (
                "info".into(),
                Json::Obj(vec![
                    ("len".into(), Json::uint(self.info.len)),
                    ("dim".into(), Json::uint(u64::from(self.info.dim))),
                    ("memory_bytes".into(), Json::uint(self.info.memory_bytes)),
                    ("requests".into(), Json::uint(self.info.requests)),
                    ("generation".into(), Json::uint(self.info.generation)),
                ]),
            ),
            ("transport".into(), self.transport.to_json()),
            ("profile".into(), self.profile.to_json()),
            (
                "spans".into(),
                Json::Arr(self.spans.iter().map(SpanRecord::to_json).collect()),
            ),
        ])
    }
}

/// Everything that can cross the wire, one frame per message.
#[derive(Debug, Clone)]
pub enum Message {
    /// Coordinator → node: serve this request.
    Search(SearchRequest),
    /// Node → coordinator: the results.
    SearchOk(SearchResponse),
    /// Node → coordinator: the request failed.
    Error(WireFault),
    /// Coordinator → node: who are you?
    InfoRequest,
    /// Node → coordinator: identity card.
    InfoResponse(NodeInfo),
    /// Coordinator/CLI → node: hand over your counters and spans.
    StatsRequest,
    /// Node → coordinator: the live observability snapshot.
    StatsResponse(NodeStats),
}

fn encode_info(info: &NodeInfo, payload: &mut WireWriter) {
    payload.put_u64(info.len);
    payload.put_u32(info.dim);
    payload.put_u64(info.memory_bytes);
    payload.put_u64(info.requests);
    payload.put_u64(info.generation);
}

fn decode_info(p: &mut WireReader<'_>) -> Result<NodeInfo, WireError> {
    Ok(NodeInfo {
        len: p.get_u64()?,
        dim: p.get_u32()?,
        memory_bytes: p.get_u64()?,
        requests: p.get_u64()?,
        generation: p.get_u64()?,
    })
}

impl Message {
    fn kind(&self) -> u8 {
        match self {
            Message::Search(_) => 0,
            Message::SearchOk(_) => 1,
            Message::Error(_) => 2,
            Message::InfoRequest => 3,
            Message::InfoResponse(_) => 4,
            Message::StatsRequest => 5,
            Message::StatsResponse(_) => 6,
        }
    }

    /// The frame kind's diagnostic name.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Message::Search(_) => "Search",
            Message::SearchOk(_) => "SearchOk",
            Message::Error(_) => "Error",
            Message::InfoRequest => "InfoRequest",
            Message::InfoResponse(_) => "InfoResponse",
            Message::StatsRequest => "StatsRequest",
            Message::StatsResponse(_) => "StatsResponse",
        }
    }

    /// Encodes one untraced full frame (trace id `0`) — see
    /// [`Self::encode_traced`].
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        self.encode_traced(0)
    }

    /// Encodes one full frame (header + payload + checksum) carrying
    /// `trace_id` in the header (`0` = untraced).
    ///
    /// Fails only for values with no wire form (a predicate-filtered
    /// [`SearchRequest`]).
    pub fn encode_traced(&self, trace_id: u64) -> Result<Vec<u8>, WireError> {
        let mut payload = WireWriter::new();
        match self {
            Message::Search(request) => encode_request(request, &mut payload)?,
            Message::SearchOk(response) => encode_response(response, &mut payload),
            Message::Error(fault) => {
                payload.put_u16(fault.code as u16);
                payload.put_u32(fault.message.len() as u32);
                payload.put_bytes(fault.message.as_bytes());
            }
            Message::InfoRequest => {}
            Message::InfoResponse(info) => encode_info(info, &mut payload),
            Message::StatsRequest => {}
            Message::StatsResponse(stats) => {
                encode_info(&stats.info, &mut payload);
                payload.put_u64(stats.transport.frames_sent);
                payload.put_u64(stats.transport.frames_received);
                payload.put_u64(stats.transport.bytes_sent);
                payload.put_u64(stats.transport.bytes_received);
                payload.put_u64(stats.transport.errors);
                payload.put_u64(stats.transport.timeouts);
                payload.put_u64(stats.transport.reconnects);
                for x in stats.profile.as_array() {
                    payload.put_u64(x);
                }
                payload.put_u32(stats.spans.len() as u32);
                for span in &stats.spans {
                    let (a, b) = span.kind.payload();
                    payload.put_u64(span.trace_id);
                    payload.put_u64(span.seq);
                    payload.put_u8(span.kind.code());
                    payload.put_u32(span.lane_raw());
                    payload.put_u64(a);
                    payload.put_u64(b);
                    payload.put_u64(span.elapsed_ns);
                }
            }
        }
        let payload = payload.into_bytes();
        let mut frame = WireWriter::new();
        frame.put_u16(WIRE_MAGIC);
        frame.put_u16(WIRE_VERSION);
        frame.put_u8(self.kind());
        frame.put_u64(trace_id);
        frame.put_u32(payload.len() as u32);
        frame.put_bytes(&payload);
        frame.put_u64(fnv1a_64(&payload));
        Ok(frame.into_bytes())
    }

    /// Decodes one frame from the front of `bytes`, returning the
    /// message and the bytes consumed (the header trace id is dropped —
    /// see [`Self::decode_traced`]).
    pub fn decode(bytes: &[u8]) -> Result<(Message, usize), WireError> {
        let (message, _, consumed) = Self::decode_traced(bytes)?;
        Ok((message, consumed))
    }

    /// Decodes one frame from the front of `bytes`, returning the
    /// message, its header trace id, and the bytes consumed (a stream
    /// may hold several frames).
    pub fn decode_traced(bytes: &[u8]) -> Result<(Message, u64, usize), WireError> {
        let consumed = frame_bounds(bytes)?.ok_or(WireError::Truncated {
            needed: HEADER_LEN.max(bytes.len() + 1),
            have: bytes.len(),
        })?;
        // `frame_bounds` vouched for magic, version and length; what is
        // left of the header is the kind byte and the trace id.
        let kind = bytes[4];
        let trace_id = u64::from_le_bytes(bytes[5..13].try_into().expect("8 bytes"));
        let (payload, trailer) =
            bytes[HEADER_LEN..consumed].split_at(consumed - HEADER_LEN - TRAILER_LEN);
        let checksum = u64::from_le_bytes(trailer.try_into().expect("TRAILER_LEN bytes"));
        if checksum != fnv1a_64(payload) {
            return Err(WireError::Malformed(
                "frame checksum mismatch (corrupt payload)".into(),
            ));
        }
        let mut p = WireReader::new(payload);
        let message = match kind {
            0 => Message::Search(decode_request(&mut p)?),
            1 => Message::SearchOk(decode_response(&mut p)?),
            2 => {
                let code = ErrorCode::from_u16(p.get_u16()?)?;
                let len = p.get_u32()? as usize;
                let message = String::from_utf8(p.get_bytes(len)?.to_vec())
                    .map_err(|_| WireError::Malformed("error message is not UTF-8".into()))?;
                Message::Error(WireFault { code, message })
            }
            3 => Message::InfoRequest,
            4 => Message::InfoResponse(decode_info(&mut p)?),
            5 => Message::StatsRequest,
            6 => {
                let info = decode_info(&mut p)?;
                let transport = TransportStats {
                    frames_sent: p.get_u64()?,
                    frames_received: p.get_u64()?,
                    bytes_sent: p.get_u64()?,
                    bytes_received: p.get_u64()?,
                    errors: p.get_u64()?,
                    timeouts: p.get_u64()?,
                    reconnects: p.get_u64()?,
                };
                let mut fields = [0u64; metrics::profile::PROFILE_FIELDS.len()];
                for slot in &mut fields {
                    *slot = p.get_u64()?;
                }
                let profile = metrics::QueryProfile::from_array(fields);
                let count = p.get_u32()? as usize;
                let mut spans = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    let span_trace = p.get_u64()?;
                    let seq = p.get_u64()?;
                    let code = p.get_u8()?;
                    let lane_raw = p.get_u32()?;
                    let a = p.get_u64()?;
                    let b = p.get_u64()?;
                    let elapsed_ns = p.get_u64()?;
                    let kind = SpanKind::from_raw(code, a, b)
                        .ok_or_else(|| WireError::Malformed(format!("unknown span kind {code}")))?;
                    spans.push(SpanRecord {
                        trace_id: span_trace,
                        seq,
                        lane: (lane_raw != LANE_NONE).then_some(lane_raw),
                        kind,
                        elapsed_ns,
                    });
                }
                Message::StatsResponse(NodeStats {
                    info,
                    transport,
                    profile,
                    spans,
                })
            }
            other => return Err(WireError::Malformed(format!("unknown frame kind {other}"))),
        };
        p.finish()?;
        Ok((message, trace_id, consumed))
    }
}

/// The total length the frame at the front of `buf` declares, once its
/// whole header is buffered (`Ok(None)` before that) — the one place that
/// reads magic, version and payload length. Magic and version are checked
/// as soon as their bytes are present, so garbage fails on its first two
/// bytes instead of waiting for a header that will never complete.
fn declared_frame_len(buf: &[u8]) -> Result<Option<usize>, WireError> {
    if buf.len() >= 2 {
        let magic = u16::from_le_bytes([buf[0], buf[1]]);
        if magic != WIRE_MAGIC {
            return Err(WireError::Malformed(format!(
                "bad frame magic {magic:#06x} (expected {WIRE_MAGIC:#06x})"
            )));
        }
    }
    if buf.len() >= 4 {
        let version = u16::from_le_bytes([buf[2], buf[3]]);
        if version != WIRE_VERSION {
            return Err(WireError::Malformed(format!(
                "unsupported wire version {version} (this build speaks {WIRE_VERSION})"
            )));
        }
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let payload_len = u32::from_le_bytes(buf[13..17].try_into().expect("4 bytes")) as usize;
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::Malformed(format!(
            "payload of {payload_len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
        )));
    }
    Ok(Some(HEADER_LEN + payload_len + TRAILER_LEN))
}

/// Locates one whole frame at the front of `buf`.
///
/// `Ok(Some(len))` — a full frame of `len` bytes is buffered;
/// `Ok(None)` — the frame (or its header) is still partial;
/// `Err` — the bytes can never frame (bad magic/version, oversized
/// payload), so the stream's framing state is unrecoverable.
pub fn frame_bounds(buf: &[u8]) -> Result<Option<usize>, WireError> {
    Ok(declared_frame_len(buf)?.filter(|&total| buf.len() >= total))
}

/// Writes one message as a frame carrying `trace_id` (`0` = untraced),
/// returning the bytes put on the wire.
pub fn write_message(
    w: &mut impl Write,
    message: &Message,
    trace_id: u64,
) -> Result<usize, TransportError> {
    let frame = message.encode_traced(trace_id)?;
    w.write_all(&frame)
        .map_err(|e| TransportError::from_io("write frame", &e))?;
    w.flush()
        .map_err(|e| TransportError::from_io("flush frame", &e))?;
    Ok(frame.len())
}

/// Reads one message off a byte stream, returning it with its header
/// trace id and the bytes consumed. `Ok(None)` means the peer closed the
/// connection cleanly *between* frames; mid-frame EOF is an error.
pub fn read_message(r: &mut impl Read) -> Result<Option<(Message, u64, usize)>, TransportError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        let n = r
            .read(&mut header[filled..])
            .map_err(|e| TransportError::from_io("read frame header", &e))?;
        if n == 0 {
            if filled == 0 {
                return Ok(None); // clean EOF between frames
            }
            return Err(TransportError::Io(format!(
                "connection closed mid-header ({filled}/{HEADER_LEN} bytes)"
            )));
        }
        filled += n;
    }
    // The declared length drives the rest of the read.
    let total = declared_frame_len(&header)?.expect("a whole header declares its frame length");
    let mut frame = Vec::with_capacity(total);
    frame.extend_from_slice(&header);
    frame.resize(total, 0);
    r.read_exact(&mut frame[HEADER_LEN..])
        .map_err(|e| TransportError::from_io("read frame body", &e))?;
    let (message, trace_id, consumed) = Message::decode_traced(&frame)?;
    debug_assert_eq!(consumed, frame.len());
    Ok(Some((message, trace_id, consumed)))
}

/// One-shot FNV-1a over a byte slice (stable across runs and platforms;
/// the multiplier is the FNV-64 prime 2⁴⁰ + 2⁸ + 0xb3 — this constant is
/// wire format, other implementations must match it).
pub(crate) fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::Hit;
    use proptest::prelude::*;

    fn roundtrip(message: &Message) -> Message {
        let bytes = message.encode().unwrap();
        let (decoded, consumed) = Message::decode(&bytes).unwrap();
        assert_eq!(consumed, bytes.len(), "whole frame consumed");
        // Re-encoding must reproduce the identical bytes: the codec has
        // one canonical form.
        assert_eq!(decoded.encode().unwrap(), bytes);
        decoded
    }

    fn sample_info() -> NodeInfo {
        NodeInfo {
            len: 1000,
            dim: 128,
            memory_bytes: 1 << 20,
            requests: 42,
            generation: 3,
        }
    }

    #[test]
    fn every_message_kind_roundtrips() {
        let request = SearchRequest::new(vec![1.0, -2.5, 0.0], 4).ef(96).rerank(2);
        let response =
            SearchResponse::from_hits(vec![Hit { id: 1, dist: 0.25 }, Hit { id: 9, dist: 0.5 }]);
        for message in [
            Message::Search(request),
            Message::SearchOk(response),
            Message::Error(WireFault {
                code: ErrorCode::FaultDead,
                message: "replica dead at call 3".into(),
            }),
            Message::InfoRequest,
            Message::InfoResponse(sample_info()),
            Message::StatsRequest,
            Message::StatsResponse(NodeStats {
                info: sample_info(),
                transport: TransportStats {
                    frames_sent: 9,
                    frames_received: 9,
                    bytes_sent: 900,
                    bytes_received: 1800,
                    errors: 1,
                    timeouts: 0,
                    reconnects: 2,
                },
                profile: metrics::QueryProfile {
                    hops_upper: 10,
                    hops_base: 120,
                    dist_coded: 4000,
                    dist_exact: 90,
                    rows_scored: 130,
                    codeword_bytes: 64_000,
                    visited_inserts: 1500,
                    rerank_pool: 80,
                    scratch_checkouts: 9,
                },
                spans: vec![
                    SpanRecord {
                        trace_id: 0xDEAD_BEEF,
                        seq: 0,
                        lane: None,
                        kind: SpanKind::WireExchange {
                            bytes_out: 64,
                            bytes_in: 256,
                        },
                        elapsed_ns: 1234,
                    },
                    SpanRecord {
                        trace_id: 0xDEAD_BEEF,
                        seq: 1,
                        lane: Some(2),
                        kind: SpanKind::ReplicaAttempt {
                            replica: 1,
                            outcome: metrics::SpanOutcome::Ok,
                        },
                        elapsed_ns: 0,
                    },
                ],
            }),
        ] {
            let decoded = roundtrip(&message);
            assert_eq!(decoded.kind_name(), message.kind_name());
            if let (Message::StatsResponse(got), Message::StatsResponse(want)) =
                (&decoded, &message)
            {
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn header_trace_id_roundtrips() {
        let bytes = Message::InfoRequest
            .encode_traced(0xABCD_EF01_2345)
            .unwrap();
        let (message, trace_id, consumed) = Message::decode_traced(&bytes).unwrap();
        assert_eq!(trace_id, 0xABCD_EF01_2345);
        assert_eq!(consumed, bytes.len());
        assert_eq!(message.kind_name(), "InfoRequest");
        // Untraced frames carry the reserved zero id.
        let (_, untraced, _) =
            Message::decode_traced(&Message::InfoRequest.encode().unwrap()).unwrap();
        assert_eq!(untraced, 0);
    }

    #[test]
    fn truncated_frames_are_rejected_at_every_cut() {
        let bytes = Message::InfoResponse(sample_info()).encode().unwrap();
        for cut in 0..bytes.len() {
            assert!(
                Message::decode(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes must be rejected",
                bytes.len()
            );
        }
    }

    #[test]
    fn corrupt_payload_fails_the_checksum() {
        let mut bytes = Message::Search(SearchRequest::new(vec![1.0, 2.0], 3))
            .encode()
            .unwrap();
        let payload_at = HEADER_LEN + 2;
        bytes[payload_at] ^= 0x01;
        let err = Message::decode(&bytes).unwrap_err();
        assert!(matches!(err, WireError::Malformed(ref what) if what.contains("checksum")));
    }

    #[test]
    fn wrong_magic_version_and_kind_are_rejected() {
        let good = Message::InfoRequest.encode().unwrap();
        let mut bad_magic = good.clone();
        bad_magic[0] = 0;
        assert!(Message::decode(&bad_magic).is_err());
        let mut bad_version = good.clone();
        bad_version[2] = 0xFF;
        assert!(Message::decode(&bad_version).is_err());
        let mut bad_kind = good.clone();
        bad_kind[4] = 200;
        assert!(Message::decode(&bad_kind).is_err());
    }

    #[test]
    fn stream_read_write_roundtrips_and_detects_eof() {
        let mut buf = Vec::new();
        let a = Message::InfoRequest;
        let b = Message::Error(WireFault {
            code: ErrorCode::BadRequest,
            message: "nope".into(),
        });
        let wrote_a = write_message(&mut buf, &a, 77).unwrap();
        let wrote_b = write_message(&mut buf, &b, 0).unwrap();
        let mut cursor = std::io::Cursor::new(&buf);
        let (got_a, trace_a, read_a) = read_message(&mut cursor).unwrap().unwrap();
        let (got_b, trace_b, read_b) = read_message(&mut cursor).unwrap().unwrap();
        assert_eq!((read_a, read_b), (wrote_a, wrote_b));
        assert_eq!((trace_a, trace_b), (77, 0));
        assert_eq!(got_a.kind_name(), "InfoRequest");
        assert!(matches!(got_b, Message::Error(ref f) if f.code == ErrorCode::BadRequest));
        assert!(read_message(&mut cursor).unwrap().is_none(), "clean EOF");
        // Mid-frame EOF is an error, not a silent None.
        let mut truncated = std::io::Cursor::new(&buf[..wrote_a + 3]);
        let _ = read_message(&mut truncated).unwrap();
        assert!(read_message(&mut truncated).is_err());
    }

    #[test]
    fn fault_codes_map_back_to_kinds() {
        let transient = WireFault::from_fault(FaultError {
            call: 2,
            kind: FaultKind::Transient,
        });
        assert_eq!(transient.code, ErrorCode::FaultTransient);
        assert_eq!(transient.to_fault(9).kind, FaultKind::Transient);
        assert_eq!(transient.to_fault(9).call, 9);
        let dead = WireFault::from_fault(FaultError {
            call: 0,
            kind: FaultKind::Dead,
        });
        assert_eq!(dead.to_fault(1).kind, FaultKind::Dead);
        let internal = WireFault {
            code: ErrorCode::Internal,
            message: String::new(),
        };
        assert_eq!(internal.to_fault(0).kind, FaultKind::Malformed);
        // A shed request is retryable: the replica layer must treat it
        // like a transient fault, not a dead or byzantine node.
        let overloaded = WireFault {
            code: ErrorCode::Overloaded,
            message: "queue full".into(),
        };
        assert_eq!(overloaded.to_fault(4).kind, FaultKind::Transient);
    }

    #[test]
    fn overloaded_frames_roundtrip() {
        let decoded = roundtrip(&Message::Error(WireFault {
            code: ErrorCode::Overloaded,
            message: "shed after 12ms in queue".into(),
        }));
        let Message::Error(fault) = decoded else {
            panic!("expected an Error frame");
        };
        assert_eq!(fault.code, ErrorCode::Overloaded);
        assert_eq!(fault.message, "shed after 12ms in queue");
    }

    #[test]
    fn frame_bounds_finds_whole_frames_and_rejects_garbage() {
        let frame = Message::InfoRequest.encode().unwrap();
        assert_eq!(frame_bounds(&frame), Ok(Some(frame.len())));
        // Two frames back to back: the first's bounds are reported.
        let mut two = frame.clone();
        two.extend_from_slice(&frame);
        assert_eq!(frame_bounds(&two), Ok(Some(frame.len())));
        // Every strict prefix is "need more", never an error.
        for cut in 0..frame.len() {
            assert_eq!(frame_bounds(&frame[..cut]), Ok(None), "cut at {cut}");
        }
        // Garbage magic fails immediately — two bytes are enough.
        assert!(frame_bounds(&[0xFF, 0xFF]).is_err());
        let mut bad_version = frame.clone();
        bad_version[2] = 0x7F;
        assert!(frame_bounds(&bad_version).is_err());
        let mut oversized = frame;
        oversized[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(frame_bounds(&oversized).is_err());
    }

    /// The three readers of a frame header — the readiness loop's
    /// `frame_bounds`, the buffer decoder and the blocking stream read —
    /// must reject `bytes` with one and the same error.
    fn rejected_alike(bytes: &[u8]) -> Result<WireError, TestCaseError> {
        let framing = frame_bounds(bytes).expect_err("frame_bounds must reject");
        let decoding = Message::decode_traced(bytes).expect_err("decode_traced must reject");
        let reading = match read_message(&mut std::io::Cursor::new(bytes)) {
            Err(TransportError::Wire(e)) => e,
            other => {
                return Err(TestCaseError::fail(format!(
                    "read_message must reject with a wire error, got {other:?}"
                )))
            }
        };
        prop_assert_eq!(framing.to_string(), decoding.to_string());
        prop_assert_eq!(framing.to_string(), reading.to_string());
        Ok(framing)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One framing truth: for arbitrary messages and trace ids, every
        /// strict prefix is "need more", the whole frame's bounds equal
        /// what `decode_traced` consumes and `read_message` reads, and a
        /// bad magic, version or length is rejected identically by all
        /// three header readers.
        #[test]
        fn framing_agrees_across_every_header_reader(
            query_bits in proptest::collection::vec(any::<u32>(), 0..12),
            ids in proptest::collection::vec(any::<u64>(), 0..10),
            text_len in 0usize..40,
            trace_id in any::<u64>(),
            flip in 1u16..=u16::MAX,
            excess in 1u32..1024,
        ) {
            let query: Vec<f32> = query_bits.iter().map(|&b| f32::from_bits(b)).collect();
            let hits = ids.iter().map(|&id| Hit { id, dist: id as f32 }).collect();
            for message in [
                Message::Search(SearchRequest::new(query, 5).ef(64)),
                Message::SearchOk(SearchResponse::from_hits(hits)),
                Message::Error(WireFault {
                    code: ErrorCode::Overloaded,
                    message: "x".repeat(text_len),
                }),
                Message::InfoRequest,
                Message::InfoResponse(sample_info()),
                Message::StatsRequest,
            ] {
                let frame = message.encode_traced(trace_id).unwrap();
                for cut in 0..frame.len() {
                    prop_assert_eq!(frame_bounds(&frame[..cut]), Ok(None), "cut at {}", cut);
                }
                prop_assert_eq!(frame_bounds(&frame), Ok(Some(frame.len())));
                let (_, decoded_trace, consumed) = Message::decode_traced(&frame).unwrap();
                prop_assert_eq!((decoded_trace, consumed), (trace_id, frame.len()));
                let (_, read_trace, read) = read_message(&mut std::io::Cursor::new(&frame))
                    .unwrap()
                    .unwrap();
                prop_assert_eq!((read_trace, read), (trace_id, frame.len()));

                let mut bad_magic = frame.clone();
                bad_magic[..2].copy_from_slice(&(WIRE_MAGIC ^ flip).to_le_bytes());
                prop_assert!(rejected_alike(&bad_magic)?.to_string().contains("magic"));
                let mut bad_version = frame.clone();
                bad_version[2..4].copy_from_slice(&(WIRE_VERSION ^ flip).to_le_bytes());
                prop_assert!(rejected_alike(&bad_version)?.to_string().contains("version"));
                let mut oversized = frame;
                oversized[13..17].copy_from_slice(&(MAX_PAYLOAD as u32 + excess).to_le_bytes());
                prop_assert!(rejected_alike(&oversized)?.to_string().contains("cap"));
            }
        }
    }
}
