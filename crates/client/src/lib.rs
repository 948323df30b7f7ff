//! aiql-client: a small blocking client for the aiql-server protocol.
//!
//! One [`Client`] is one connection: connect with a tenant name, open a
//! session, prepare a statement, execute bindings, and pull pages — each
//! call is a single request/response round trip over the length-prefixed
//! frames of [`aiql_server::proto`]. The client is deliberately
//! synchronous (the repository benchmark and the tests drive many of them
//! from plain threads; the REPL drives one from a prompt loop);
//! concurrency lives server-side.

use aiql_core::ast::Lit;
use aiql_core::ParamValues;
use aiql_model::Value;
use aiql_server::proto::{ErrorCode, FrameBuffer, Request, Response, PROTO_VERSION};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One result row.
pub type Row = Vec<Value>;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection broke (or timed out) at the socket layer.
    Io(std::io::Error),
    /// The server sent bytes that don't parse as the protocol.
    Protocol(String),
    /// The server answered with a typed error frame.
    Server { code: ErrorCode, message: String },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { code, message } => write!(f, "server {code:?}: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// What `prepare` returned: the server-side statement id and its
/// declared `$name` placeholders.
#[derive(Debug, Clone)]
pub struct RemoteStatement {
    pub stmt: u64,
    pub params: Vec<String>,
}

/// What `execute` returned: a server-side cursor and the result shape.
#[derive(Debug, Clone)]
pub struct RemoteCursor {
    pub cursor: u64,
    pub columns: Vec<String>,
    pub rows_total: u64,
    /// Server-side execution wall time.
    pub elapsed_micros: u64,
}

/// A blocking connection to an aiql-server.
pub struct Client {
    stream: TcpStream,
    fb: FrameBuffer,
    /// Read scratch: socket bytes pass through it into `fb`.
    buf: Box<[u8]>,
}

impl Client {
    /// Connects, handshakes as `tenant`, and returns a ready client — a
    /// server that answers with another protocol version is refused as
    /// [`ClientError::Protocol`]. Reads block up to 30 s before surfacing
    /// an I/O timeout.
    pub fn connect(addr: impl ToSocketAddrs, tenant: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut client = Client {
            stream,
            fb: FrameBuffer::new(),
            buf: vec![0u8; 64 * 1024].into_boxed_slice(),
        };
        match client.call(&Request::Hello {
            version: PROTO_VERSION,
            tenant: tenant.to_string(),
        })? {
            Response::HelloOk { version, .. } if version == PROTO_VERSION => Ok(client),
            Response::HelloOk { version, .. } => Err(ClientError::Protocol(format!(
                "server speaks protocol {version}, this client {PROTO_VERSION}"
            ))),
            other => Err(unexpected(other)),
        }
    }

    /// One request/response round trip. Typed server errors come back as
    /// `Ok(Response::Error { .. })` — helpers below turn them into
    /// [`ClientError::Server`].
    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let frame = req
            .to_frame()
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        self.stream.write_all(&frame)?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        loop {
            match self
                .fb
                .next_frame()
                .map_err(|e| ClientError::Protocol(e.to_string()))?
            {
                Some(payload) => {
                    return Response::decode(&payload)
                        .map_err(|e| ClientError::Protocol(e.to_string()))
                }
                None => match self.stream.read(&mut self.buf) {
                    Ok(0) => {
                        return Err(ClientError::Protocol(
                            "server closed the connection".to_string(),
                        ))
                    }
                    Ok(n) => self.fb.extend(&self.buf[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(ClientError::Io(e)),
                },
            }
        }
    }

    /// Opens an investigation session, returning its id.
    pub fn open_session(&mut self) -> Result<u64, ClientError> {
        match self.call(&Request::OpenSession)? {
            Response::SessionOpened { session } => Ok(session),
            other => Err(unexpected(other)),
        }
    }

    /// Compiles `source` server-side on `session`.
    pub fn prepare(&mut self, session: u64, source: &str) -> Result<RemoteStatement, ClientError> {
        match self.call(&Request::Prepare {
            session,
            source: source.to_string(),
        })? {
            Response::Prepared { stmt, params } => Ok(RemoteStatement { stmt, params }),
            other => Err(unexpected(other)),
        }
    }

    /// Binds `params` and executes `stmt`, returning the server-side
    /// cursor. `timeout` tightens (never widens) the server's own
    /// statement cap.
    pub fn execute(
        &mut self,
        session: u64,
        stmt: u64,
        params: &ParamValues,
        timeout: Option<Duration>,
    ) -> Result<RemoteCursor, ClientError> {
        let wire: Vec<(String, Lit)> = params
            .names()
            .map(str::to_string)
            .collect::<Vec<_>>()
            .into_iter()
            .map(|n| {
                let v = params.get(&n).cloned().expect("name came from names()");
                (n, v)
            })
            .collect();
        match self.call(&Request::Execute {
            session,
            stmt,
            params: wire,
            timeout_ms: timeout.map_or(0, |t| t.as_millis().min(u64::MAX as u128) as u64),
        })? {
            Response::Executed {
                cursor,
                columns,
                rows_total,
                elapsed_micros,
            } => Ok(RemoteCursor {
                cursor,
                columns,
                rows_total,
                elapsed_micros,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Pulls one page of at most `max_rows` rows. The bool is `done`: the
    /// cursor is exhausted and already closed server-side.
    pub fn fetch(&mut self, cursor: u64, max_rows: u32) -> Result<(Vec<Row>, bool), ClientError> {
        match self.call(&Request::FetchPage { cursor, max_rows })? {
            Response::Page { rows, done, .. } => Ok((rows, done)),
            other => Err(unexpected(other)),
        }
    }

    /// Drains a cursor page by page into one row set.
    pub fn fetch_all(&mut self, cursor: u64, page: u32) -> Result<Vec<Row>, ClientError> {
        let mut out = Vec::new();
        loop {
            let (rows, done) = self.fetch(cursor, page)?;
            out.extend(rows);
            if done {
                return Ok(out);
            }
        }
    }

    /// Convenience: execute + drain, returning `(columns, rows)`.
    pub fn query(
        &mut self,
        session: u64,
        stmt: u64,
        params: &ParamValues,
    ) -> Result<(Vec<String>, Vec<Row>), ClientError> {
        let cur = self.execute(session, stmt, params, None)?;
        let rows = self.fetch_all(cur.cursor, 1024)?;
        Ok((cur.columns, rows))
    }

    /// Closes a cursor early.
    pub fn close_cursor(&mut self, cursor: u64) -> Result<(), ClientError> {
        match self.call(&Request::CloseCursor { cursor })? {
            Response::CursorClosed { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Closes a session and everything it owns.
    pub fn close_session(&mut self, session: u64) -> Result<(), ClientError> {
        match self.call(&Request::CloseSession { session })? {
            Response::SessionClosed { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping { token: 1 })? {
            Response::Pong { token: 1 } => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

/// A typed error frame, or a response that doesn't match the request.
fn unexpected(resp: Response) -> ClientError {
    match resp {
        Response::Error { code, message } => ClientError::Server { code, message },
        other => ClientError::Protocol(format!("unexpected response {other:?}")),
    }
}
