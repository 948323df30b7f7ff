//! Wire-protocol hardening: round-trip properties for every frame type
//! and for the packed lanes a column page is made of, malformed column
//! pages, and a malformed-input suite against a live server — truncated
//! frames, oversized length prefixes, CRC corruption, unknown opcodes,
//! old protocol versions and wrong-state messages must each produce a
//! typed error frame or a clean close, never a panic and never a leaked
//! session.

use aiql::client::{Client, ClientError};
use aiql::lang::ast::Lit;
use aiql::model::columns::{width_of, Lanes};
use aiql::model::Value;
use aiql::server::proto::{
    frame, ErrorCode, FrameBuffer, FrameError, Request, Response, MAX_FRAME, PROTO_VERSION,
};
use aiql::server::{Server, ServerConfig, ServerHandle};
use aiql::storage::{EventStore, SharedStore, StoreConfig};
use proptest::prelude::*;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------------

fn lit_from(tag: u8, n: i64, s: String) -> Lit {
    match tag % 3 {
        0 => Lit::Str(s),
        1 => Lit::Int(n),
        _ => Lit::Float(n as f64 / 7.0),
    }
}

fn value_from(tag: u8, n: i64, s: String) -> Value {
    match tag % 5 {
        0 => Value::Null,
        1 => Value::Bool(n % 2 == 0),
        2 => Value::Int(n),
        3 => Value::Float(n as f64 / 3.0),
        _ => Value::str(s),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    /// Every request variant survives encode → frame → reassemble →
    /// decode, byte-split at an arbitrary point.
    fn request_round_trip(
        kind in 0u8..8,
        a in 0u64..u64::MAX,
        b in 0u64..1_000_000,
        d in 0u32..100_000,
        s in "[ -~]{0,40}",
        params in prop::collection::vec(("[a-z]{1,8}", 0u8..3, -500i64..500, "[ -~]{0,12}"), 0..5),
        split in 0usize..64,
    ) {
        let req = match kind {
            0 => Request::Hello { version: d, tenant: s },
            1 => Request::OpenSession,
            2 => Request::Prepare { session: a, source: s },
            3 => Request::Execute {
                session: a,
                stmt: b,
                params: params
                    .into_iter()
                    .map(|(name, tag, n, sv)| (name, lit_from(tag, n, sv)))
                    .collect(),
                timeout_ms: b,
            },
            4 => Request::FetchPage { cursor: a, max_rows: d },
            5 => Request::CloseCursor { cursor: a },
            6 => Request::CloseSession { session: a },
            _ => Request::Ping { token: a },
        };
        let bytes = req.to_frame().unwrap();
        let cut = split.min(bytes.len());
        let mut fb = FrameBuffer::new();
        fb.extend(&bytes[..cut]);
        if cut < bytes.len() {
            // Possibly incomplete: must never error, never yield early.
            if let Some(p) = fb.next_frame().unwrap() {
                prop_assert_eq!(Request::decode(&p).unwrap(), req.clone());
            }
            fb.extend(&bytes[cut..]);
        }
        if let Some(p) = fb.next_frame().unwrap() {
            prop_assert_eq!(Request::decode(&p).unwrap(), req);
        }
        prop_assert_eq!(fb.next_frame().unwrap(), None);
    }

    /// Every response variant survives the same trip.
    #[test]
    fn response_round_trip(
        kind in 0u8..9,
        a in 0u64..u64::MAX,
        b in 0u64..1_000_000,
        code in 1u8..9,
        s in "[ -~]{0,40}",
        names in prop::collection::vec("[a-z]{1,10}", 0..4),
        rows in prop::collection::vec(
            prop::collection::vec((0u8..5, -900i64..900, "[ -~]{0,10}"), 0..4),
            0..4,
        ),
        done in 0u8..2,
    ) {
        let resp = match kind {
            0 => Response::HelloOk { version: b as u32, server: s },
            1 => Response::SessionOpened { session: a },
            2 => Response::Prepared { stmt: a, params: names },
            3 => Response::Executed {
                cursor: a,
                columns: names,
                rows_total: b,
                elapsed_micros: b,
            },
            4 => Response::Page {
                cursor: a,
                rows: rows
                    .into_iter()
                    .map(|r| r.into_iter().map(|(t, n, sv)| value_from(t, n, sv)).collect())
                    .collect(),
                done: done == 1,
            },
            5 => Response::CursorClosed { cursor: a },
            6 => Response::SessionClosed { session: a },
            7 => Response::Pong { token: a },
            _ => Response::Error {
                code: ErrorCode::from_code(code).unwrap(),
                message: s,
            },
        };
        let bytes = resp.to_frame().unwrap();
        let mut fb = FrameBuffer::new();
        fb.extend(&bytes);
        let payload = fb.next_frame().unwrap().expect("whole frame fed");
        prop_assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    /// Arbitrary bytes never panic the decoders: any outcome is Ok or a
    /// typed error.
    #[test]
    fn garbage_never_panics(raw in prop::collection::vec(0u16..256, 0..300)) {
        let bytes: Vec<u8> = raw.iter().map(|b| *b as u8).collect();
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let mut fb = FrameBuffer::new();
        fb.extend(&bytes);
        while let Ok(Some(p)) = fb.next_frame() {
            let _ = Request::decode(&p);
        }
    }

    /// Single-bit corruption anywhere in a frame is caught: the buffer
    /// reports a typed framing error, or the payload decoder rejects it —
    /// flipped bits in the length prefix may also just leave the frame
    /// incomplete. No silent wrong decode of the body.
    #[test]
    fn bit_flips_are_detected(
        session in 0u64..10_000,
        src in "[a-z ]{1,30}",
        byte in 0usize..64,
        bit in 0u8..8,
    ) {
        let req = Request::Prepare { session, source: src };
        let mut bytes = req.to_frame().unwrap();
        let at = byte % bytes.len();
        bytes[at] ^= 1 << bit;
        let mut fb = FrameBuffer::new();
        fb.extend(&bytes);
        match fb.next_frame() {
            Err(FrameError::BadCrc) | Err(FrameError::Oversized(_)) | Ok(None) => {}
            Ok(Some(payload)) => {
                // Flip landed in the length prefix making the frame
                // shorter + CRC still matching is impossible; a flip in
                // the payload is caught by the CRC, so reaching here
                // means the flip was... nowhere. Impossible.
                prop_assert!(
                    false,
                    "corrupt frame decoded: {:?}",
                    Request::decode(&payload)
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Column pages
// ---------------------------------------------------------------------------

fn page_of(rows: Vec<Vec<(u8, i64, String)>>) -> Response {
    Response::Page {
        cursor: 7,
        rows: rows
            .into_iter()
            .map(|r| r.into_iter().map(|(t, n, s)| value_from(t, n, s)).collect())
            .collect(),
        done: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `n` offsets under `max` pack at the width that holds `max`, write
    /// `width` bytes each, and read back as they were — at every width.
    #[test]
    fn lanes_round_trip_at_every_width(
        bits in 0u32..65,
        n in 0usize..40,
        seed in 0u64..u64::MAX,
    ) {
        let max = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        let off = |i: usize| {
            let x = seed.wrapping_mul(i as u64 + 1).rotate_left(i as u32);
            if i == 0 { max } else { x & max }
        };
        let lanes = Lanes::pack(max, n, off);
        let width = width_of(max);
        prop_assert_eq!(lanes.width(), width);
        let mut bytes = Vec::new();
        lanes.write(&mut bytes).unwrap();
        prop_assert_eq!(bytes.len(), n * width);
        let back = Lanes::read(&mut &bytes[..], n, width as u8).unwrap();
        prop_assert_eq!(back.width(), width);
        for i in 0..n {
            prop_assert_eq!(back.get(i), off(i));
        }
    }

    /// A valid column page cut short at any point is an error, and one with
    /// any byte changed (its CRC bypassed) decodes or is an error: neither
    /// panics.
    #[test]
    fn corrupt_column_pages_never_panic(
        rows in prop::collection::vec(
            prop::collection::vec((0u8..5, -900i64..900, "[a-c]{0,3}"), 0..4),
            0..6,
        ),
        mask in 1u16..256,
    ) {
        let page = page_of(rows);
        let payload = page.encode().unwrap();
        prop_assert_eq!(Response::decode(&payload).unwrap(), page);
        for cut in 0..payload.len() {
            prop_assert!(Response::decode(&payload[..cut]).is_err(), "cut at {}", cut);
        }
        for at in 0..payload.len() {
            let mut flipped = payload.clone();
            flipped[at] ^= mask as u8;
            let _ = Response::decode(&flipped);
        }
    }
}

/// A `Page` payload: the response header of a real page, then `body`.
fn page_payload(body: &[u8]) -> Vec<u8> {
    let empty = Response::Page {
        cursor: 7,
        rows: Vec::new(),
        done: true,
    };
    let mut payload = empty.encode().unwrap();
    // Opcode, cursor, done; the body of an empty page follows.
    payload.truncate(1 + 8 + 1);
    payload.extend_from_slice(body);
    payload
}

/// A frame of reference: base, offset width, offsets.
fn frame_bytes(base: i64, width: u8, offsets: &[u8]) -> Vec<u8> {
    let mut out = base.to_le_bytes().to_vec();
    out.push(width);
    out.extend_from_slice(offsets);
    out
}

/// `rows` rows, each one column wide, then `column`.
fn one_column_page(rows: u32, column: &[u8]) -> Vec<u8> {
    let mut body = rows.to_le_bytes().to_vec();
    body.extend(frame_bytes(1, 0, &[]));
    body.extend_from_slice(column);
    page_payload(&body)
}

const INT: u8 = 1;
const STR: u8 = 2;
const NULLS: u8 = 0x80;

fn invalid_data(payload: &[u8]) -> io::Error {
    let err = Response::decode(payload).expect_err("a malformed page");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    err
}

#[test]
fn malformed_column_pages_are_invalid_data() {
    let int_column = |width: u8, offsets: &[u8]| {
        let mut c = vec![INT];
        c.extend(frame_bytes(5, width, offsets));
        c
    };
    // The layout these cases corrupt: two rows, one Int column, 5 + 0 and
    // 5 + 3.
    let valid = one_column_page(2, &int_column(1, &[0, 3]));
    assert_eq!(
        Response::decode(&valid).unwrap(),
        Response::Page {
            cursor: 7,
            rows: vec![vec![Value::Int(5)], vec![Value::Int(8)]],
            done: true,
        }
    );

    // An offset width outside {0, 1, 2, 4, 8}.
    invalid_data(&one_column_page(2, &int_column(3, &[0; 6])));
    // Short lanes: two 8-byte offsets, one present.
    invalid_data(&one_column_page(2, &int_column(8, &[0; 8])));
    // A string code past the page's strings: one string, code 1.
    let mut strs = vec![STR];
    strs.extend(1u32.to_le_bytes());
    strs.extend(1u32.to_le_bytes());
    strs.push(b'a');
    strs.extend(frame_bytes(1, 0, &[]));
    invalid_data(&one_column_page(1, &strs));
    strs.truncate(strs.len() - 9);
    strs.extend(frame_bytes(0, 0, &[]));
    assert!(Response::decode(&one_column_page(1, &strs)).is_ok());
    // A null bitmap shorter than the column: nine rows need two bytes.
    invalid_data(&one_column_page(9, &[INT | NULLS, 0xFF]));
    // An unknown column kind.
    invalid_data(&one_column_page(2, &[9]));
    // Trailing bytes.
    let mut long = valid.clone();
    long.push(0);
    invalid_data(&long);
}

#[test]
fn a_tiny_page_cannot_claim_millions_of_rows() {
    // 33 bytes claiming 2^22 one-Int rows, every frame zero-width: decoded,
    // ≈ 200 MB of rows and values. Refused before anything is allocated.
    let payload = one_column_page(1 << 22, &[&[INT][..], &frame_bytes(0, 0, &[])].concat());
    assert_eq!(payload.len(), 33);
    let err = invalid_data(&payload);
    assert!(err.to_string().contains("rows"), "{err}");
}

// ---------------------------------------------------------------------------
// Malformed input against a live server
// ---------------------------------------------------------------------------

fn tiny_store() -> SharedStore {
    let mut data = aiql::model::Dataset::new();
    let a = aiql::model::AgentId(1);
    let p = data.add_entity(aiql::model::Entity::process(1.into(), a, "bash", 7));
    let f = data.add_entity(aiql::model::Entity::file(2.into(), a, "/tmp/x"));
    data.add_event(aiql::model::Event::new(
        1.into(),
        a,
        p,
        aiql::model::OpType::Read,
        f,
        aiql::model::EntityKind::File,
        aiql::model::Timestamp::from_ymd(2017, 1, 1).unwrap(),
    ));
    SharedStore::new(EventStore::ingest(&data, StoreConfig::partitioned()).unwrap())
}

fn spawn_server() -> ServerHandle {
    Server::spawn(&tiny_store(), ServerConfig::default()).expect("spawn server")
}

fn wait_until(what: &str, f: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if f() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

/// Reads server frames until EOF or timeout; returns decoded responses
/// and whether the server closed the connection.
fn read_to_close(stream: &mut TcpStream) -> (Vec<Response>, bool) {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut fb = FrameBuffer::new();
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => {
                while let Ok(Some(p)) = fb.next_frame() {
                    out.push(Response::decode(&p).expect("server frames decode"));
                }
                return (out, true);
            }
            Ok(n) => {
                fb.extend(&buf[..n]);
                while let Ok(Some(p)) = fb.next_frame() {
                    out.push(Response::decode(&p).expect("server frames decode"));
                }
            }
            Err(_) => return (out, false),
        }
    }
}

fn hello_frame() -> Vec<u8> {
    Request::Hello {
        version: PROTO_VERSION,
        tenant: "t".to_string(),
    }
    .to_frame()
    .unwrap()
}

#[test]
fn truncated_frame_then_eof_closes_cleanly() {
    let server = spawn_server();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    let bytes = hello_frame();
    s.write_all(&bytes[..bytes.len() - 3]).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let (responses, closed) = read_to_close(&mut s);
    assert!(closed, "server must close after peer EOF");
    assert!(responses.is_empty(), "half a frame gets no answer");
    drop(s);
    wait_until("connection cleanup", || {
        server.stats().active_connections == 0
    });
    assert_eq!(server.stats().active_sessions, 0);
}

#[test]
fn oversized_length_prefix_gets_typed_error_and_close() {
    let server = spawn_server();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    let mut bytes = (MAX_FRAME + 1).to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0u8; 4]);
    s.write_all(&bytes).unwrap();
    let (responses, closed) = read_to_close(&mut s);
    assert!(closed);
    assert!(
        matches!(
            responses.as_slice(),
            [Response::Error {
                code: ErrorCode::Protocol,
                ..
            }]
        ),
        "got {responses:?}"
    );
    wait_until("connection cleanup", || {
        server.stats().active_connections == 0
    });
}

#[test]
fn corrupt_crc_gets_typed_error_and_close() {
    let server = spawn_server();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    let mut bytes = hello_frame();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    s.write_all(&bytes).unwrap();
    let (responses, closed) = read_to_close(&mut s);
    assert!(closed);
    assert!(
        matches!(
            responses.as_slice(),
            [Response::Error {
                code: ErrorCode::Protocol,
                ..
            }]
        ),
        "got {responses:?}"
    );
    assert!(server.stats().protocol_errors >= 1);
}

#[test]
fn unknown_opcode_gets_typed_error_and_close() {
    let server = spawn_server();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(&hello_frame()).unwrap();
    s.write_all(&frame(&[0x5A, 1, 2, 3])).unwrap();
    let (responses, closed) = read_to_close(&mut s);
    assert!(closed);
    assert!(
        matches!(
            responses.as_slice(),
            [
                Response::HelloOk { .. },
                Response::Error {
                    code: ErrorCode::Protocol,
                    ..
                }
            ]
        ),
        "got {responses:?}"
    );
}

#[test]
fn old_protocol_version_gets_typed_error_and_close() {
    let server = spawn_server();
    let before = server.stats().protocol_errors;
    let mut s = TcpStream::connect(server.addr()).unwrap();
    let hello = Request::Hello {
        version: 1,
        tenant: "t".to_string(),
    };
    s.write_all(&hello.to_frame().unwrap()).unwrap();
    let (responses, closed) = read_to_close(&mut s);
    assert!(closed, "an old version closes the connection");
    assert!(
        matches!(
            responses.as_slice(),
            [Response::Error {
                code: ErrorCode::Protocol,
                ..
            }]
        ),
        "got {responses:?}"
    );
    assert_eq!(server.stats().protocol_errors, before + 1);
}

#[test]
fn client_refuses_a_server_speaking_another_version() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let old_server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut fb = FrameBuffer::new();
        let mut buf = [0u8; 256];
        let hello = loop {
            if let Some(p) = fb.next_frame().unwrap() {
                break Request::decode(&p).unwrap();
            }
            let n = s.read(&mut buf).unwrap();
            assert!(n > 0, "the client hung up before its Hello");
            fb.extend(&buf[..n]);
        };
        let reply = Response::HelloOk {
            version: PROTO_VERSION - 1,
            server: "aiql-server/old".to_string(),
        };
        s.write_all(&reply.to_frame().unwrap()).unwrap();
        hello
    });
    let refused = Client::connect(addr, "t");
    assert!(
        matches!(&refused, Err(ClientError::Protocol(m)) if m.contains("protocol 1")),
        "got {:?}",
        refused.err()
    );
    assert!(matches!(
        old_server.join().unwrap(),
        Request::Hello {
            version: PROTO_VERSION,
            ..
        }
    ));
}

#[test]
fn wrong_state_request_gets_typed_error_and_connection_survives() {
    let server = spawn_server();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // OpenSession before Hello: typed error, but the stream stays usable.
    s.write_all(&Request::OpenSession.to_frame().unwrap())
        .unwrap();
    s.write_all(&hello_frame()).unwrap();
    s.write_all(&Request::OpenSession.to_frame().unwrap())
        .unwrap();
    let mut fb = FrameBuffer::new();
    let mut buf = [0u8; 4096];
    let mut got = Vec::new();
    while got.len() < 3 {
        let n = s.read(&mut buf).expect("server keeps talking");
        assert!(n > 0, "server closed unexpectedly");
        fb.extend(&buf[..n]);
        while let Ok(Some(p)) = fb.next_frame() {
            got.push(Response::decode(&p).unwrap());
        }
    }
    assert!(
        matches!(
            got.as_slice(),
            [
                Response::Error {
                    code: ErrorCode::Protocol,
                    ..
                },
                Response::HelloOk { .. },
                Response::SessionOpened { .. }
            ]
        ),
        "got {got:?}"
    );
}

#[test]
fn malformed_frames_never_leak_open_sessions() {
    let server = spawn_server();
    let mut c = aiql::client::Client::connect(server.addr(), "leakcheck").unwrap();
    let session = c.open_session().unwrap();
    let stmt = c
        .prepare(session, "proc p read file f return p, f")
        .unwrap();
    let cur = c
        .execute(session, stmt.stmt, &aiql::engine::Params::new(), None)
        .unwrap();
    // Pull one page but leave the cursor open, then corrupt the stream.
    let _ = c.fetch(cur.cursor, 1).unwrap();
    assert_eq!(server.stats().active_sessions, 1);

    // Reach under the client: a raw corrupt frame on a fresh socket plus
    // an abrupt drop of the real one.
    drop(c);
    wait_until("session cleanup after drop", || {
        let st = server.stats();
        st.active_sessions == 0 && st.active_cursors == 0 && st.active_connections == 0
    });
}

/// The bytes of one column page, pinned: an `Int` column with a NULL, a
/// `Str` column whose repeated string is sent once, a `Bool` column, a
/// `Mixed` column, and ragged rows. The column codec is shared with the
/// write-ahead log, so a change to it shows here as a changed page.
#[test]
fn a_column_page_keeps_its_golden_bytes() {
    // A result's strings are the dictionary's: one `Arc` per distinct
    // string.
    let cmd = Value::str("cmd.exe");
    let rows = vec![
        vec![
            Value::Int(3),
            cmd.clone(),
            Value::Bool(true),
            Value::Float(0.5),
        ],
        vec![
            Value::Null,
            Value::str("/etc/passwd"),
            Value::Bool(false),
            Value::Int(7),
        ],
        vec![Value::Int(250), cmd],
        vec![],
    ];
    let page = Response::Page {
        cursor: 7,
        rows,
        done: true,
    };
    #[rustfmt::skip]
    let golden: &[u8] = &[
        // Opcode, cursor 7, done.
        0x85, 7, 0, 0, 0, 0, 0, 0, 0, 1,
        // Four rows; their widths 4, 4, 2, 0 from base 0 at one byte each.
        4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 4, 4, 2, 0,
        // Int with a NULL (bitmap 0b10): base 3, offsets 0 and 247.
        0x81, 0b10, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 247,
        // Str: two new strings, then codes 0, 1, 0.
        2, 2, 0, 0, 0,
        7, 0, 0, 0, b'c', b'm', b'd', b'.', b'e', b'x', b'e',
        11, 0, 0, 0, b'/', b'e', b't', b'c', b'/', b'p', b'a', b's', b's', b'w', b'd',
        0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0,
        // Bool: base 0, offsets 1 and 0.
        3, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0,
        // Mixed: Float 0.5, then Int 7, each tagged.
        5, 3, 0, 0, 0, 0, 0, 0, 0xE0, 0x3F, 2, 7, 0, 0, 0, 0, 0, 0, 0,
    ];
    assert_eq!(page.encode().unwrap(), golden);
    assert_eq!(Response::decode(golden).unwrap(), page);
}
