//! # vira-vista
//!
//! The visualization-side of the Viracocha reproduction: a stand-in for
//! ViSTA FlowLib (the VR front-end of the paper) plus the wire protocol
//! it speaks with the scheduler.
//!
//! * [`protocol`] — framed request/event encoding over the byte link
//!   (submissions, streamed partial-result packets, final reports).
//! * [`client`] — [`client::VistaClient`]: submits commands, assembles
//!   streamed geometry just in time, and records *when* geometry became
//!   available — the latency measurements of the paper's Figures 8
//!   and 12.
//!
//! Everything except actual rendering is implemented; the outcome of a
//! job carries the assembled triangle soup / polylines, the packet
//! arrival series (Figures 4/5 proxy), and the back-end's modeled-time
//! report.

pub mod client;
pub mod protocol;

pub use client::{
    ClientError, JobOutcome, PacketRecord, ProgressRecord, RejectReason, SubmitSpec, VistaClient,
};
pub use protocol::{
    decode_event, decode_polylines, decode_request, encode_event, encode_polylines, encode_request,
    triangle_packet, ClientRequest, CommandParams, EventHeader, JobId, JobReport, PayloadKind,
    ProtocolError,
};
