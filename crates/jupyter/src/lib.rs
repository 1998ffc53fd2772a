//! Jupyter protocol substrate for the NotebookOS reproduction.
//!
//! NotebookOS stays compatible with every Jupyter client by reusing the
//! IPython messaging protocol (§4 of the paper). This crate implements the
//! protocol pieces the platform routes and extends:
//!
//! * [`message`] — headers, `execute_request`/`execute_reply`, and the
//!   NotebookOS `yield_request` conversion plus reply aggregation (§3.2.2),
//! * [`wire`] — ZMQ-style multipart framing with a keyed signature,
//! * [`json`] — a from-scratch JSON codec (no offline serializer crates),
//! * [`router`] — the Global Scheduler's fan-out/fan-in routing table,
//! * [`session`] — persistent notebook sessions and message-id generation,
//! * [`transport`] — an in-process duplex transport carrying signed frames,
//! * [`provisioner`] — what a kernel launch through the Global Scheduler
//!   takes and returns.
//!
//! # Example
//!
//! ```
//! use notebookos_jupyter::message::JupyterMessage;
//! use notebookos_jupyter::wire;
//!
//! let req = JupyterMessage::execute_request("m1", "sess", "model.fit()", 0)
//!     .with_destination("kernel-1")
//!     .with_gpu_device_ids(&[0, 1]);
//! let frames = wire::encode(&[], &req, b"key");
//! let (_, decoded) = wire::decode(&frames, b"key")?;
//! assert_eq!(decoded.code(), Some("model.fit()"));
//! # Ok::<(), notebookos_jupyter::wire::WireError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The codec and the signer write into their output directly; a
// `push_str(&format!(..))` allocates a temporary per call and was a
// measurable part of the wire path (README, "Wire path").
#![warn(clippy::format_push_string)]

pub mod json;
pub mod message;
pub mod provisioner;
pub mod router;
pub mod session;
pub mod transport;
pub mod wire;

pub use bytes::Bytes;
pub use json::Json;
pub use message::{merge_replies, Header, HeaderRef, JupyterMessage, MsgType, ReplyStatus};
pub use provisioner::{ConnectionInfo, KernelResourceSpec, ProvisionError};
pub use router::{KernelRoute, LocalSchedulerId, RouteError, RoutedCopy, Router};
pub use session::{MsgIdGen, Session, SessionManager};
pub use transport::{wire_pair, WireEndpoint};
