//! Real multi-process transport: framed TCP / Unix-domain sockets.
//!
//! The paper's deployment runs the scheduler and the workers as
//! separate processes talking MPI/TCP; [`crate::transport::LocalWorld`]
//! stands in for that world with in-process channels. This module is
//! the real thing behind the same [`Transport`] trait: a star topology
//! where every worker process holds one stream to the scheduler process
//! (rank 0), which routes worker-to-worker frames. Layers 2 and 3 are
//! unchanged — per the layered design they never learn whether a frame
//! crossed a channel, a Unix socket or a TCP connection.
//!
//! ## Frame format
//!
//! Every message, including the handshake, is one length-prefixed frame
//! (all integers little-endian):
//!
//! ```text
//! magic "VFR2" (4) | len (u32) | to (u32) | from (u32) | tag (u32) | digest (u64) | payload (len)
//! ```
//!
//! `digest` is [`frame_crc`] over the `to | from | tag | len` words and
//! the payload. A frame whose digest fails is dropped
//! where it lands; the stream stays synchronized because the frame's
//! extent was known. A corrupted *length* desynchronizes the stream:
//! the decoder scans forward to the next magic and reports how many
//! bytes it had to skip, so a socket reader can surface persistent
//! garbage as [`CommError::Disconnected`] instead of spinning.
//!
//! ## Handshake and rank assignment
//!
//! Workers connect (with retry — the scheduler may still be binding)
//! and send a `HELLO` frame carrying the protocol version. The
//! scheduler accepts connections until `n_workers` ranks have joined,
//! assigning rank ids 1..=N in connection order, and answers each with
//! a `WELCOME` frame carrying the assigned rank and the world size.
//!
//! ## Failure semantics
//!
//! A lost worker connection is *silence*, not an error: the hub marks
//! the peer dead, subsequent sends to it are dropped, and the
//! scheduler-side `recv` keeps working. The existing resilience path
//! (retransmit → liveness probe → dead-rank conviction → requeue)
//! notices the silence exactly as it notices a killed in-process rank.
//! On the worker side a lost hub connection *is* fatal — `recv` returns
//! [`CommError::Disconnected`] and the worker loop exits, the same
//! "world torn down" path the in-process transport takes.

use crate::fault::{apply_payload_faults, record_fault, FaultKind, FaultPlan, FaultStats};
use crate::transport::{tags, CommError, Message, Rank, Tag, Transport};
use bytes::Bytes;
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vira_obs as obs;

/// Wire protocol version carried in the `HELLO` and `REJOIN` frames.
/// Bumped on any change to a frame format or to a layer-2 message
/// layout; the hub refuses a peer of another version.
pub const PROTOCOL_VERSION: u32 = 5;

/// Frame preamble. A fixed magic keeps the decoder re-synchronizable:
/// after losing framing it scans for the next occurrence. Bumped with
/// the frame format: a peer of another format never finds a frame here.
pub const FRAME_MAGIC: [u8; 4] = *b"VFR2";

/// Fixed bytes before the payload: magic, len, to, from, tag (4 each), digest (8).
pub const FRAME_HEADER_LEN: usize = 28;

/// Upper bound on a frame payload. Anything larger is treated as a
/// corrupted length (false magic) rather than an allocation request,
/// and refused by the sender with [`CommError::TooLarge`].
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// Refuses a payload no frame carries, before anything is written.
fn fits_a_frame(payload: &[u8]) -> Result<(), CommError> {
    match payload.len() {
        bytes if bytes > MAX_FRAME_PAYLOAD => Err(CommError::TooLarge {
            bytes,
            limit: MAX_FRAME_PAYLOAD,
        }),
        _ => Ok(()),
    }
}

/// The most a decoder reserves beyond the bytes it already holds: a
/// header alone cannot claim [`MAX_FRAME_PAYLOAD`] of memory.
pub const READ_STEP: usize = 8 << 20;

/// Read size while no large frame is pending; frames at least this big
/// are read to their exact end and handed out as the buffer itself.
const READ_CHUNK: usize = 64 * 1024;

/// Handshake tags live at the top of the tag space, far above
/// [`crate::transport::tags::USER_BASE`], and never reach layer 2.
pub const TAG_HELLO: Tag = u32::MAX - 1;
/// See [`TAG_HELLO`].
pub const TAG_WELCOME: Tag = u32::MAX - 2;
/// Rejoin handshake: a restarted worker process reclaiming a
/// previously-convicted rank sends `REJOIN` (payload: protocol
/// version, claimed rank — both u32 LE) instead of `HELLO`, and the
/// hub answers `WELCOME` when the claim is valid. See
/// [`SocketWorker::rejoin`].
pub const TAG_REJOIN: Tag = u32::MAX - 3;

// Socket-level metrics, named per the DESIGN.md registry conventions.
static FRAMES_SENT: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static BYTES_SENT: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static FRAMES_RECV: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static FRAMES_CORRUPT: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static RESYNC_BYTES: OnceLock<Arc<obs::Counter>> = OnceLock::new();

fn count_sent(frame_len: usize) {
    obs::counter_cached(&FRAMES_SENT, "socket_frames_sent_total").inc();
    obs::counter_cached(&BYTES_SENT, "socket_bytes_sent_total").add(frame_len as u64);
}

fn count_resync(skipped: usize) {
    obs::counter_cached(&RESYNC_BYTES, "socket_resync_bytes_total").add(skipped as u64);
}

/// One 32-byte stride: word `i` goes into lane `i`, four independent
/// chains the CPU runs in parallel. The multiplier is odd, so a step is
/// a bijection of the lane and injective in the word. Spelled out word
/// by word: layer 2 seals whole result payloads with this, and the
/// unrolled form stays cheap in unoptimized (test) builds too.
#[inline(always)]
fn absorb(lanes: &mut [u64; 4], stride: &[u8; 32]) {
    let (words, _) = stride.as_chunks::<8>();
    step(&mut lanes[0], words[0]);
    step(&mut lanes[1], words[1]);
    step(&mut lanes[2], words[2]);
    step(&mut lanes[3], words[3]);
}

#[inline(always)]
fn step(lane: &mut u64, word: [u8; 8]) {
    *lane = (*lane ^ u64::from_le_bytes(word))
        .wrapping_mul(0xff51_afd7_ed55_8ccd)
        .rotate_left(29);
}

/// Checksum of one frame over the addressing words, the length and the
/// payload. Lane steps and the fold are bijections of each lane, so
/// damage confined to one 8-byte word always changes the digest. Layer
/// 2 seals its messages with the same function.
pub fn frame_crc(to: u32, from: u32, tag: u32, payload: &[u8]) -> u64 {
    const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut lanes = [
        SEED ^ (u64::from(to) | u64::from(from) << 32),
        SEED.rotate_left(16) ^ u64::from(tag),
        SEED.rotate_left(32) ^ payload.len() as u64,
        SEED.rotate_left(48),
    ];
    let (strides, rest) = payload.as_chunks::<32>();
    for stride in strides {
        absorb(&mut lanes, stride);
    }
    if !rest.is_empty() {
        // Zero padding is unambiguous: the length is in lane 2.
        let mut last = [0u8; 32];
        last[..rest.len()].copy_from_slice(rest);
        absorb(&mut lanes, &last);
    }
    // Rotate-add, then splitmix64's (invertible) finalizer.
    let mut h = lanes[0]
        .wrapping_add(lanes[1].rotate_left(17))
        .wrapping_add(lanes[2].rotate_left(31))
        .wrapping_add(lanes[3].rotate_left(47));
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// A decoded frame. `to`/`from` are wire-level rank ids.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    pub to: u32,
    pub from: u32,
    pub tag: Tag,
    /// A view into `wire`, not a copy.
    pub payload: Bytes,
    /// The frame as received, header included: what the hub forwards.
    wire: Bytes,
}

/// The header of one frame, or `None` (and an error event) for a
/// payload the receiver would take for a corrupted length.
fn frame_header(to: u32, from: u32, tag: Tag, payload: &[u8]) -> Option<[u8; FRAME_HEADER_LEN]> {
    if payload.len() > MAX_FRAME_PAYLOAD {
        let fields = [
            ("to", to.into()),
            ("tag", tag.into()),
            ("bytes", payload.len().into()),
        ];
        obs::error(
            "comm",
            "frame payload exceeds MAX_FRAME_PAYLOAD, not sent",
            &fields,
        );
        return None;
    }
    let mut h = [0u8; FRAME_HEADER_LEN];
    h[..4].copy_from_slice(&FRAME_MAGIC);
    h[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    h[8..12].copy_from_slice(&to.to_le_bytes());
    h[12..16].copy_from_slice(&from.to_le_bytes());
    h[16..20].copy_from_slice(&tag.to_le_bytes());
    h[20..].copy_from_slice(&frame_crc(to, from, tag, payload).to_le_bytes());
    Some(h)
}

/// Encodes one frame, header and payload, into a single buffer (the
/// send path writes the two parts where they lie instead). Panics when
/// `payload` exceeds [`MAX_FRAME_PAYLOAD`].
pub fn encode_frame(to: u32, from: u32, tag: Tag, payload: &[u8]) -> Vec<u8> {
    let header = frame_header(to, from, tag, payload).expect("payload within MAX_FRAME_PAYLOAD");
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    buf.extend_from_slice(&header);
    buf.extend_from_slice(payload);
    buf
}

/// One step of the incremental decoder.
#[derive(Debug, PartialEq)]
pub enum DecodeStep {
    /// A complete, checksum-valid frame.
    Frame(Frame),
    /// A structurally complete frame failed its checksum and was
    /// dropped. The stream stays synchronized.
    Corrupt,
    /// `n` bytes before the next plausible frame start were discarded
    /// (garbage, or the wake of a corrupted length field).
    Resync(usize),
}

/// Incremental frame decoder over an arbitrary chunking of the byte
/// stream. Pure — no sockets — so it is unit- and property-testable;
/// the reader threads let it `read_from` their socket, tests `feed` it.
#[derive(Default)]
pub struct FrameDecoder {
    /// `buf[pos..end]` are stream bytes not yet consumed; `buf[end..]`
    /// is initialised room for the next read.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
}

impl FrameDecoder {
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw stream bytes.
    pub fn feed(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            self.read_from(&mut data)
                .expect("reading a slice cannot fail");
        }
    }

    /// Reads once from `r` straight into the decode buffer and returns
    /// what `read` returned (0 is end of stream).
    pub fn read_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        let want = self.read_window();
        self.make_room(want);
        let n = r.read(&mut self.buf[self.end..self.end + want])?;
        self.end += n;
        Ok(n)
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn pending(&self) -> usize {
        self.end - self.pos
    }

    /// Payload length of the frame at the front of the buffer, given a
    /// whole header with a plausible length.
    fn front_len(&self) -> Option<usize> {
        let b = &self.buf[self.pos..self.end];
        if b.len() < FRAME_HEADER_LEN || b[..4] != FRAME_MAGIC {
            return None;
        }
        let len = u32::from_le_bytes(b[4..8].try_into().expect("4 bytes")) as usize;
        (len <= MAX_FRAME_PAYLOAD).then_some(len)
    }

    /// How much to ask the stream for next: inside a large frame the
    /// rest of it and not a byte more (it ends up alone in the buffer
    /// and leaves without a copy), [`READ_STEP`] at most; otherwise one
    /// chunk, which may bring in many small frames at once.
    fn read_window(&self) -> usize {
        let total = self.front_len().map_or(0, |len| FRAME_HEADER_LEN + len);
        match total.saturating_sub(self.pending()) {
            missing if missing > 0 && total >= READ_CHUNK => missing.min(READ_STEP),
            _ => READ_CHUNK,
        }
    }

    /// Makes `buf[end..end + want]` exist: reuses the room left from
    /// earlier reads, else moves the unconsumed bytes to the front and
    /// grows by exactly what is missing (zeroed once, reused after).
    fn make_room(&mut self, want: usize) {
        if self.buf.len() - self.end >= want {
            return;
        }
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        let need = self.end + want;
        if self.buf.len() < need {
            self.buf.reserve_exact(need - self.buf.len());
            self.buf.resize(need, 0);
        }
    }

    /// Pulls the next decode step, or `None` when more bytes are
    /// needed to make progress. Deliberately not an `Iterator`: `None`
    /// means "feed me", not "exhausted".
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<DecodeStep> {
        let b = &self.buf[self.pos..self.end];
        // Locate the next magic; discard anything in front of it, but
        // keep a possible magic prefix at the very end of the buffer.
        let at = b.windows(FRAME_MAGIC.len()).position(|w| w == FRAME_MAGIC);
        let Some(at) = at else {
            let skip = b.len() - longest_magic_suffix(b);
            if skip > 0 {
                self.pos += skip;
                count_resync(skip);
                return Some(DecodeStep::Resync(skip));
            }
            return None;
        };
        if at > 0 {
            self.pos += at;
            count_resync(at);
            return Some(DecodeStep::Resync(at));
        }
        if b.len() < FRAME_HEADER_LEN {
            return None;
        }
        let Some(len) = self.front_len() else {
            // A magic that fronts an absurd length is a false positive
            // (or a corrupted length): step past one byte and rescan.
            self.pos += 1;
            count_resync(1);
            return Some(DecodeStep::Resync(1));
        };
        let total = FRAME_HEADER_LEN + len;
        if b.len() < total {
            return None;
        }
        let word = |i: usize| u32::from_le_bytes(b[i..i + 4].try_into().expect("4 bytes"));
        let (to, from, tag) = (word(8), word(12), word(16));
        let digest = u64::from_le_bytes(b[20..FRAME_HEADER_LEN].try_into().expect("8 bytes"));
        if frame_crc(to, from, tag, &b[FRAME_HEADER_LEN..total]) != digest {
            self.pos += total;
            obs::counter_cached(&FRAMES_CORRUPT, "socket_frames_corrupt_total").inc();
            return Some(DecodeStep::Corrupt);
        }
        let wire = if self.pos == 0 && self.end == total && total >= READ_CHUNK {
            // The frame is all the buffer holds: hand the buffer out.
            self.end = 0;
            let mut whole = std::mem::take(&mut self.buf);
            whole.truncate(total);
            Bytes::from(whole)
        } else {
            let copy = Bytes::copy_from_slice(&b[..total]);
            self.pos += total;
            copy
        };
        obs::counter_cached(&FRAMES_RECV, "socket_frames_recv_total").inc();
        Some(DecodeStep::Frame(Frame {
            to,
            from,
            tag,
            payload: wire.slice(FRAME_HEADER_LEN..total),
            wire,
        }))
    }
}

/// Length of the longest strict prefix of [`FRAME_MAGIC`] that `b`
/// ends with — those bytes may yet become a magic and must be kept.
fn longest_magic_suffix(b: &[u8]) -> usize {
    for keep in (1..FRAME_MAGIC.len()).rev() {
        if b.len() >= keep && b[b.len() - keep..] == FRAME_MAGIC[..keep] {
            return keep;
        }
    }
    0
}

/// A parsed `--listen` / `--connect` address: `tcp:host:port`,
/// `unix:/path`, a bare `host:port` (TCP) or a bare path (Unix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocketAddrSpec {
    Tcp(String),
    Unix(PathBuf),
}

impl SocketAddrSpec {
    pub fn parse(s: &str) -> Result<SocketAddrSpec, String> {
        if let Some(rest) = s.strip_prefix("unix:") {
            if rest.is_empty() {
                return Err(format!("'{s}': empty unix socket path"));
            }
            return Ok(SocketAddrSpec::Unix(PathBuf::from(rest)));
        }
        if let Some(rest) = s.strip_prefix("tcp:") {
            return SocketAddrSpec::parse_tcp(rest);
        }
        if s.contains('/') {
            return Ok(SocketAddrSpec::Unix(PathBuf::from(s)));
        }
        SocketAddrSpec::parse_tcp(s)
    }

    fn parse_tcp(s: &str) -> Result<SocketAddrSpec, String> {
        if s.rsplit_once(':').is_none() {
            return Err(format!("'{s}': TCP address needs host:port"));
        }
        Ok(SocketAddrSpec::Tcp(s.to_string()))
    }
}

impl std::fmt::Display for SocketAddrSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocketAddrSpec::Tcp(a) => write!(f, "tcp:{a}"),
            SocketAddrSpec::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// One connected stream, TCP or Unix — the only place the two APIs
/// diverge.
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    /// No Nagle on any TCP stream: a tail segment held back for an
    /// ACK would sit on the time-to-first-geometry path.
    fn tcp(s: TcpStream) -> std::io::Result<Stream> {
        s.set_nodelay(true)?;
        Ok(Stream::Tcp(s))
    }

    fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    fn shutdown(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(t),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            #[cfg(unix)]
            Stream::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// `write_all` for a header and a payload that lie apart: vectored
/// while the header is not out yet (a small frame still leaves in one
/// segment), plain writes for what is left of the payload.
fn write_parts(w: &mut impl Write, header: &[u8], payload: &[u8]) -> std::io::Result<()> {
    let mut done = 0;
    while done < header.len() + payload.len() {
        let wrote = if done < header.len() {
            w.write_vectored(&[IoSlice::new(&header[done..]), IoSlice::new(payload)])
        } else {
            w.write(&payload[done - header.len()..])
        };
        match wrote {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => done += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Writes `header` then `payload` under the peer's writer lock, so
/// concurrent senders interleave at frame granularity.
fn write_locked(writer: &Mutex<Stream>, header: &[u8], payload: &[u8]) -> bool {
    let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
    let ok = write_parts(&mut *w, header, payload).is_ok();
    if ok {
        count_sent(header.len() + payload.len());
    }
    ok
}

/// Encodes and writes one frame; the checksum runs outside the lock.
fn write_frame(writer: &Mutex<Stream>, to: u32, from: u32, tag: Tag, payload: &[u8]) -> bool {
    frame_header(to, from, tag, payload).is_some_and(|h| write_locked(writer, &h, payload))
}

/// Reads frames until `on_frame` says otherwise, letting the decoder
/// read the socket into its own buffer. Returns when the stream ends,
/// errors, or desynchronizes beyond repair.
///
/// `dec` is the handshake's decoder, carried over so bytes that
/// arrived in the same read as the HELLO/WELCOME (frames sent the
/// instant the handshake completed) are decoded, not dropped — it is
/// drained before the first read.
fn reader_loop(mut stream: Stream, mut dec: FrameDecoder, mut on_frame: impl FnMut(Frame) -> bool) {
    loop {
        while let Some(step) = dec.next() {
            match step {
                DecodeStep::Frame(f) => {
                    if !on_frame(f) {
                        return;
                    }
                }
                // Corrupt frames and skipped garbage are counted by the
                // decoder; on a reliable stream they indicate peer bugs,
                // not transit damage, but dropping them keeps the
                // failure mode "silence" either way — the liveness
                // probe, not a panic, decides what happens next.
                DecodeStep::Corrupt | DecodeStep::Resync(_) => {}
            }
        }
        match dec.read_from(&mut stream) {
            Ok(0) => return, // EOF: peer closed
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// One accepted worker connection as the hub sees it.
struct Peer {
    writer: Mutex<Stream>,
    alive: AtomicBool,
    /// Bumped on every rejoin. A reader thread (or a failed route
    /// write) only marks the peer dead while its stream generation is
    /// still current, so a stale reader exiting late cannot kill a
    /// peer that already reconnected.
    generation: AtomicU64,
}

/// Fault injection for the hub's worker↔worker forward path. Frames a
/// worker sends to another worker cross the hub without touching any
/// `Transport::send`, so the send-side
/// [`FaultyTransport`](crate::fault::FaultyTransport) decorator never
/// sees them; the hub applies the same seeded plan here.
struct RouteFaults {
    plan: Arc<FaultPlan>,
    stats: Arc<FaultStats>,
    world: usize,
    /// Per directed link `(from, to)` frame index — the same
    /// replayable index scheme as the decorator — flattened as
    /// `from * world + to`.
    index: Vec<AtomicU64>,
}

impl RouteFaults {
    fn next_index(&self, from: u32, to: u32) -> u64 {
        let slot = from as usize * self.world + to as usize;
        self.index
            .get(slot)
            .map(|c| c.fetch_add(1, Ordering::Relaxed))
            .unwrap_or(0)
    }
}

struct HubShared {
    /// Index = rank - 1.
    peers: Vec<Peer>,
    route_faults: OnceLock<RouteFaults>,
}

impl HubShared {
    /// Rank `to`'s (1-based) connection while it is up. Frames for a
    /// peer that is gone are dropped: dead peers are silence, not errors.
    fn live_peer(&self, to: u32) -> Option<&Peer> {
        let peer = self.peers.get((to as usize).checked_sub(1)?)?;
        peer.alive.load(Ordering::Acquire).then_some(peer)
    }

    /// Forwards a worker's frame to the worker it addresses. The
    /// decoder verified it, so it leaves as the bytes that came in — no
    /// re-encode, no copy — unless the seeded plan mutates it.
    fn forward(&self, frame: &Frame) {
        let Some(peer) = self.live_peer(frame.to) else {
            return;
        };
        // SHUTDOWN is exempt from faults everywhere (see the fault docs).
        match self.route_faults.get() {
            Some(rf) if frame.tag != tags::SHUTDOWN => self.route_faulted(rf, peer, frame),
            _ => self.write_to_peer(peer, &[], &frame.wire),
        }
    }

    fn send_to_peer(&self, peer: &Peer, to: u32, from: u32, tag: Tag, payload: &[u8]) {
        if let Some(header) = frame_header(to, from, tag, payload) {
            self.write_to_peer(peer, &header, payload);
        }
    }

    /// Writes to `peer`, marking it dead on failure — unless a rejoin
    /// swapped the stream mid-write, in which case the failure
    /// belonged to the previous generation.
    fn write_to_peer(&self, peer: &Peer, header: &[u8], payload: &[u8]) {
        let generation = peer.generation.load(Ordering::Acquire);
        if !write_locked(&peer.writer, header, payload)
            && peer.generation.load(Ordering::Acquire) == generation
        {
            peer.alive.store(false, Ordering::Release);
        }
    }

    /// The faulted forward path: drop / duplicate / delay / truncate /
    /// corrupt, decided by the seeded plan. Reorder needs the one-slot
    /// hold-back the decorator keeps; the hub's forward path stays
    /// stateless per frame and leaves adjacent swaps to the decorator.
    fn route_faulted(&self, rf: &RouteFaults, peer: &Peer, frame: &Frame) {
        let index = rf.next_index(frame.from, frame.to);
        let d = rf
            .plan
            .decision(frame.from as Rank, frame.to as Rank, index);
        if d.is_clean() {
            return self.write_to_peer(peer, &[], &frame.wire);
        }
        if d.drop {
            record_fault(&rf.stats, FaultKind::Drop);
            return;
        }
        let mut payload = frame.payload.clone();
        if d.truncate {
            record_fault(&rf.stats, FaultKind::Truncate);
        }
        if d.corrupt {
            record_fault(&rf.stats, FaultKind::Corrupt);
        }
        if d.truncate || d.corrupt {
            payload = apply_payload_faults(&d, &payload);
        }
        if d.delay_us > 0 {
            record_fault(&rf.stats, FaultKind::Delay);
            std::thread::sleep(Duration::from_micros(d.delay_us));
        }
        self.send_to_peer(peer, frame.to, frame.from, frame.tag, &payload);
        if d.duplicate {
            record_fault(&rf.stats, FaultKind::Duplicate);
            self.send_to_peer(peer, frame.to, frame.from, frame.tag, &payload);
        }
    }
}

/// The scheduler-process endpoint (rank 0) of a socket world: accepts
/// `n_workers` connections, then routes frames. Implements
/// [`Transport`] so the scheduler loop and
/// [`FaultyTransport`](crate::fault::FaultyTransport) stack on top
/// unchanged; frames from one peer are received in the order it sent
/// them.
pub struct SocketHub {
    shared: Arc<HubShared>,
    inbox_tx: Sender<Message>,
    inbox_rx: Receiver<Message>,
    n_workers: usize,
    /// Reader threads, one per live stream; rejoins append, so the
    /// acceptor shares the vec.
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    accept_stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

/// A bound listener, not yet a world: call
/// [`accept_world`](SocketListener::accept_world) to collect the ranks.
pub struct SocketListener {
    kind: ListenerKind,
    local: String,
    /// Unix socket path to unlink on drop.
    cleanup: Option<PathBuf>,
}

enum ListenerKind {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl SocketListener {
    /// Binds the listen address. For `tcp:host:0` the OS picks a port;
    /// [`local_addr`](SocketListener::local_addr) reports it.
    pub fn bind(spec: &SocketAddrSpec) -> std::io::Result<SocketListener> {
        match spec {
            SocketAddrSpec::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                let local = l
                    .local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| addr.clone());
                Ok(SocketListener {
                    kind: ListenerKind::Tcp(l),
                    local: format!("tcp:{local}"),
                    cleanup: None,
                })
            }
            #[cfg(unix)]
            SocketAddrSpec::Unix(path) => {
                // A stale socket file from a crashed run blocks bind.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                Ok(SocketListener {
                    kind: ListenerKind::Unix(l),
                    local: format!("unix:{}", path.display()),
                    cleanup: Some(path.clone()),
                })
            }
            #[cfg(not(unix))]
            SocketAddrSpec::Unix(_) => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "unix sockets need a unix platform",
            )),
        }
    }

    /// The bound address in `--connect` syntax.
    pub fn local_addr(&self) -> &str {
        &self.local
    }

    fn accept_stream(&self) -> std::io::Result<Stream> {
        match &self.kind {
            ListenerKind::Tcp(l) => Stream::tcp(l.accept()?.0),
            #[cfg(unix)]
            ListenerKind::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match &self.kind {
            ListenerKind::Tcp(l) => l.set_nonblocking(nb),
            #[cfg(unix)]
            ListenerKind::Unix(l) => l.set_nonblocking(nb),
        }
    }

    /// Accepts and handshakes `n_workers` connections (rank ids 1..=N
    /// in connection order), then starts the per-peer reader threads
    /// and returns the routing hub. Fails when fewer ranks joined
    /// within `timeout`.
    ///
    /// The listener stays open after the world forms: a background
    /// acceptor keeps taking connections so a restarted worker can
    /// reclaim its old rank via the [`TAG_REJOIN`] handshake. The
    /// acceptor (and with it the listener, whose drop unlinks a unix
    /// socket path) stops when the hub is dropped.
    pub fn accept_world(self, n_workers: usize, timeout: Duration) -> std::io::Result<SocketHub> {
        assert!(n_workers >= 1, "world must have at least one worker");
        let deadline = Instant::now() + timeout;
        self.set_nonblocking(true)?;
        let world = (n_workers + 1) as u32;
        let mut streams: Vec<(Stream, FrameDecoder)> = Vec::with_capacity(n_workers);
        while streams.len() < n_workers {
            match self.accept_stream() {
                Ok(stream) => {
                    let rank = (streams.len() + 1) as u32;
                    match handshake_server(&stream, rank, world, deadline) {
                        Ok(dec) => streams.push((stream, dec)),
                        Err(_) => stream.shutdown(), // bad hello: reject
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            format!(
                                "only {}/{} workers connected within {timeout:?}",
                                streams.len(),
                                n_workers
                            ),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let (inbox_tx, inbox_rx) = channel();
        let shared = Arc::new(HubShared {
            peers: streams
                .iter()
                .map(|(s, _)| {
                    s.set_read_timeout(None).ok();
                    Ok(Peer {
                        writer: Mutex::new(s.try_clone()?),
                        alive: AtomicBool::new(true),
                        generation: AtomicU64::new(0),
                    })
                })
                .collect::<std::io::Result<Vec<_>>>()?,
            route_faults: OnceLock::new(),
        });
        let readers = Arc::new(Mutex::new(
            streams
                .into_iter()
                .enumerate()
                .map(|(i, (stream, dec))| {
                    spawn_peer_reader(
                        shared.clone(),
                        inbox_tx.clone(),
                        stream,
                        dec,
                        (i + 1) as u32,
                        0,
                    )
                })
                .collect::<Vec<_>>(),
        ));
        let accept_stop = Arc::new(AtomicBool::new(false));
        let accept = spawn_rejoin_acceptor(
            self,
            shared.clone(),
            inbox_tx.clone(),
            readers.clone(),
            accept_stop.clone(),
            world,
        );
        Ok(SocketHub {
            shared,
            inbox_tx,
            inbox_rx,
            n_workers,
            readers,
            accept_stop,
            accept: Some(accept),
        })
    }
}

/// Spawns the reader thread for one hub↔worker stream. `generation`
/// pins which incarnation of the peer this reader serves; a rejoin
/// bumps it so a stale reader's exit cannot mark the new stream dead.
fn spawn_peer_reader(
    shared: Arc<HubShared>,
    tx: Sender<Message>,
    stream: Stream,
    dec: FrameDecoder,
    peer_rank: u32,
    generation: u64,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("vira-sock-r{peer_rank}"))
        .spawn(move || {
            reader_loop(stream, dec, |f| {
                // Frames must carry the connection's own
                // identity; anything else is a peer bug.
                if f.from != peer_rank {
                    return true;
                }
                if f.to == 0 {
                    let _ = tx.send(Message {
                        from: f.from as Rank,
                        tag: f.tag,
                        payload: f.payload,
                    });
                } else {
                    shared.forward(&f);
                }
                true
            });
            let peer = &shared.peers[peer_rank as usize - 1];
            if peer.generation.load(Ordering::Acquire) == generation {
                peer.alive.store(false, Ordering::Release);
            }
        })
        .expect("failed to spawn socket reader")
}

/// Keeps the listener accepting after the world formed so a restarted
/// worker can reclaim its rank (see [`TAG_REJOIN`]). The listener
/// moves into the thread; its drop (unix socket unlink) runs when the
/// hub stops the acceptor.
fn spawn_rejoin_acceptor(
    listener: SocketListener,
    shared: Arc<HubShared>,
    tx: Sender<Message>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    stop: Arc<AtomicBool>,
    world: u32,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("vira-sock-accept".to_string())
        .spawn(move || {
            while !stop.load(Ordering::Acquire) {
                match listener.accept_stream() {
                    Ok(stream) => match handshake_rejoin(&stream, &shared, world) {
                        Ok((rank, dec, generation)) => {
                            let h = spawn_peer_reader(
                                shared.clone(),
                                tx.clone(),
                                stream,
                                dec,
                                rank,
                                generation,
                            );
                            readers.lock().unwrap_or_else(|e| e.into_inner()).push(h);
                            // Tell layer 2 the rank is back; the
                            // scheduler clears its dead-rank exclusion
                            // on this tag.
                            let _ = tx.send(Message {
                                from: rank as Rank,
                                tag: tags::REJOIN,
                                payload: Bytes::new(),
                            });
                        }
                        Err(_) => stream.shutdown(),
                    },
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
        })
        .expect("failed to spawn rejoin acceptor")
}

/// Hub side of the rejoin handshake: expect `REJOIN` carrying the
/// protocol version and a claimed rank, validate that the rank exists
/// and is currently dead, swap the peer's stream, and answer
/// `WELCOME`. Returns the reclaimed rank, the handshake decoder (bytes
/// read past the REJOIN belong to the new reader) and the peer's new
/// stream generation.
fn handshake_rejoin(
    stream: &Stream,
    shared: &HubShared,
    world: u32,
) -> std::io::Result<(u32, FrameDecoder, u64)> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut rd = stream.try_clone()?;
    let (frame, dec) = read_one_frame(&mut rd, deadline)?;
    if frame.tag != TAG_REJOIN {
        return Err(protocol_err("expected REJOIN"));
    }
    let word = |i: usize| {
        frame
            .payload
            .get(i..i + 4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    };
    let version = word(0).unwrap_or(0);
    if version != PROTOCOL_VERSION {
        return Err(protocol_err(&format!(
            "protocol version mismatch: peer {version}, ours {PROTOCOL_VERSION}"
        )));
    }
    let rank = word(4).ok_or_else(|| protocol_err("REJOIN missing a rank"))?;
    let peer = (rank >= 1)
        .then(|| shared.peers.get(rank as usize - 1))
        .flatten()
        .ok_or_else(|| protocol_err("REJOIN claimed an unknown rank"))?;
    if peer.alive.load(Ordering::Acquire) {
        return Err(protocol_err(
            "REJOIN claimed a rank that is still connected",
        ));
    }
    stream.set_read_timeout(None)?;
    let new_writer = stream.try_clone()?;
    // Bump the generation before touching the old stream so a stale
    // reader that exits during the swap no longer matches and cannot
    // mark the reborn peer dead.
    let generation = peer.generation.fetch_add(1, Ordering::AcqRel) + 1;
    {
        let mut w = peer.writer.lock().unwrap_or_else(|e| e.into_inner());
        w.shutdown(); // unblock any reader still stuck on the old stream
        *w = new_writer;
    }
    peer.alive.store(true, Ordering::Release);
    let mut welcome = Vec::with_capacity(8);
    welcome.extend_from_slice(&rank.to_le_bytes());
    welcome.extend_from_slice(&world.to_le_bytes());
    if !write_frame(&peer.writer, rank, 0, TAG_WELCOME, &welcome) {
        peer.alive.store(false, Ordering::Release);
        return Err(protocol_err("rejoining peer closed before WELCOME"));
    }
    Ok((rank, dec, generation))
}

impl Drop for SocketListener {
    fn drop(&mut self) {
        if let Some(p) = self.cleanup.take() {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Server side of the handshake: expect `HELLO`, answer `WELCOME`.
/// Returns the handshake decoder so any bytes read past the HELLO are
/// handed to the peer's reader thread instead of being dropped.
fn handshake_server(
    stream: &Stream,
    rank: u32,
    world: u32,
    deadline: Instant,
) -> std::io::Result<FrameDecoder> {
    let mut rd = stream.try_clone()?;
    let (hello, dec) = read_one_frame(&mut rd, deadline)?;
    if hello.tag != TAG_HELLO {
        return Err(protocol_err("expected HELLO"));
    }
    let version = hello
        .payload
        .get(..4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
        .unwrap_or(0);
    if version != PROTOCOL_VERSION {
        return Err(protocol_err(&format!(
            "protocol version mismatch: peer {version}, ours {PROTOCOL_VERSION}"
        )));
    }
    let mut welcome = Vec::with_capacity(8);
    welcome.extend_from_slice(&rank.to_le_bytes());
    welcome.extend_from_slice(&world.to_le_bytes());
    let mut w = stream.try_clone()?;
    w.write_all(&encode_frame(rank, 0, TAG_WELCOME, &welcome))?;
    Ok(dec)
}

fn protocol_err(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Blocking read of exactly one valid frame, bounded by `deadline`.
/// Used only during the handshake; afterwards the reader threads own
/// the stream. Returns the decoder alongside the frame: a read may
/// have pulled in bytes beyond the handshake frame (the peer is free
/// to send the moment its side completes), and those must seed the
/// reader thread's decoder or they would be lost.
fn read_one_frame(
    stream: &mut Stream,
    deadline: Instant,
) -> std::io::Result<(Frame, FrameDecoder)> {
    let mut dec = FrameDecoder::new();
    loop {
        while let Some(step) = dec.next() {
            if let DecodeStep::Frame(f) = step {
                return Ok((f, dec));
            }
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "handshake timed out",
            ));
        }
        stream.set_read_timeout(Some(left.max(Duration::from_millis(1))))?;
        match dec.read_from(stream) {
            Ok(0) => return Err(protocol_err("peer closed during handshake")),
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

impl Transport for SocketHub {
    fn rank(&self) -> Rank {
        0
    }

    fn world_size(&self) -> usize {
        self.n_workers + 1
    }

    fn send(&self, to: Rank, tag: Tag, payload: Bytes) -> Result<(), CommError> {
        if to == 0 {
            return self
                .inbox_tx
                .send(Message {
                    from: 0,
                    tag,
                    payload,
                })
                .map_err(|_| CommError::Disconnected);
        }
        if to > self.n_workers {
            return Err(CommError::UnknownRank(to));
        }
        fits_a_frame(&payload)?;
        if let Some(peer) = self.shared.live_peer(to as u32) {
            self.shared.send_to_peer(peer, to as u32, 0, tag, &payload);
        }
        Ok(())
    }

    fn recv(&self) -> Result<Message, CommError> {
        self.inbox_rx.recv().map_err(|_| CommError::Disconnected)
    }

    fn try_recv(&self) -> Result<Option<Message>, CommError> {
        match self.inbox_rx.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(CommError::Disconnected),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Message, CommError> {
        match self.inbox_rx.recv_timeout(timeout) {
            Ok(m) => Ok(m),
            Err(RecvTimeoutError::Timeout) => Err(CommError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(CommError::Disconnected),
        }
    }
}

impl SocketHub {
    /// True while rank `r`'s connection is up (test/ops introspection;
    /// the scheduler itself only ever observes silence).
    pub fn peer_alive(&self, r: Rank) -> bool {
        r >= 1 && r <= self.n_workers && self.shared.peers[r - 1].alive.load(Ordering::Acquire)
    }

    /// Enables fault injection on the hub-internal worker↔worker
    /// forward path (see [`RouteFaults`] — the chaos decorator never
    /// sees those frames). Applies the same seeded `plan` and counts
    /// into the same `stats` as the decorator; hub→worker frames and
    /// SHUTDOWN are exempt. Idempotent: the first call wins.
    pub fn set_route_faults(&self, plan: Arc<FaultPlan>, stats: Arc<FaultStats>) {
        let world = self.n_workers + 1;
        let _ = self.shared.route_faults.set(RouteFaults {
            plan,
            stats,
            world,
            index: (0..world * world).map(|_| AtomicU64::new(0)).collect(),
        });
    }
}

impl Drop for SocketHub {
    fn drop(&mut self) {
        // Stop the rejoin acceptor first: it must not resurrect peers
        // while the writers are being torn down.
        self.accept_stop.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Closing the writers unblocks the reader threads (EOF on the
        // worker side closes the other half).
        for p in &self.shared.peers {
            if let Ok(w) = p.writer.lock() {
                w.shutdown();
            }
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut rs = self.readers.lock().unwrap_or_else(|e| e.into_inner());
            rs.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

/// A cheap cloneable handle that can inject frames toward the hub from
/// outside the worker loop — the remote worker's event-streaming path.
#[derive(Clone)]
pub struct SocketSender {
    writer: Arc<Mutex<Stream>>,
    rank: u32,
}

impl SocketSender {
    /// Sends `payload` to `to` with `tag` over the worker's stream.
    pub fn send(&self, to: Rank, tag: Tag, payload: &[u8]) -> Result<(), CommError> {
        fits_a_frame(payload)?;
        if write_frame(&self.writer, to as u32, self.rank, tag, payload) {
            Ok(())
        } else {
            Err(CommError::Disconnected)
        }
    }
}

/// Observes every inbound frame on a worker's reader thread — see
/// [`SocketWorker::set_frame_tap`].
pub type FrameTap = Arc<dyn Fn(&Frame) + Send + Sync>;

/// The worker-process endpoint of a socket world: one stream to the
/// hub, a reader thread filling the inbox. Self-sends round-trip
/// through the hub, which preserves global frame ordering.
pub struct SocketWorker {
    rank: Rank,
    world: usize,
    writer: Arc<Mutex<Stream>>,
    inbox_rx: Receiver<Message>,
    reader: Option<JoinHandle<()>>,
    tap: Arc<Mutex<Option<FrameTap>>>,
}

impl SocketWorker {
    /// Connects to a listening hub, retrying until `timeout` (the
    /// scheduler may still be starting), and completes the handshake.
    /// Returns the endpoint knowing its assigned rank and world size.
    /// When the deadline passes, the error is a structured
    /// [`std::io::ErrorKind::TimedOut`] naming the address, the number
    /// of attempts and the last underlying failure — a worker that
    /// never finds its hub fails loudly, it does not retry forever.
    pub fn connect(spec: &SocketAddrSpec, timeout: Duration) -> std::io::Result<SocketWorker> {
        Self::connect_loop(spec, timeout, None)
    }

    /// Reconnects to a hub whose world already formed, reclaiming
    /// `claim_rank` — a rank whose previous process died and was
    /// convicted by the scheduler. Retries like
    /// [`connect`](SocketWorker::connect): the hub refuses the claim
    /// while the old connection still looks alive (or while the rank
    /// is unknown), and refusal is cheap, so polling until `timeout`
    /// doubles as "wait for the hub to notice the old process died".
    pub fn rejoin(
        spec: &SocketAddrSpec,
        claim_rank: Rank,
        timeout: Duration,
    ) -> std::io::Result<SocketWorker> {
        Self::connect_loop(spec, timeout, Some(claim_rank))
    }

    fn connect_loop(
        spec: &SocketAddrSpec,
        timeout: Duration,
        rejoin_as: Option<Rank>,
    ) -> std::io::Result<SocketWorker> {
        let start = Instant::now();
        let deadline = start + timeout;
        let mut attempts: u64 = 0;
        loop {
            attempts += 1;
            let err = match Self::connect_once(spec, deadline, rejoin_as) {
                Ok(w) => return Ok(w),
                Err(e) => e,
            };
            if Instant::now() >= deadline {
                let what = if rejoin_as.is_some() {
                    "rejoin the hub"
                } else {
                    "connect to the hub"
                };
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!(
                        "could not {what} at {spec} within {timeout:?} \
                         ({attempts} attempts over {:.1?}; last error: {err})",
                        start.elapsed()
                    ),
                ));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    fn connect_once(
        spec: &SocketAddrSpec,
        deadline: Instant,
        rejoin_as: Option<Rank>,
    ) -> std::io::Result<SocketWorker> {
        let stream = match spec {
            SocketAddrSpec::Tcp(addr) => Stream::tcp(TcpStream::connect(addr)?)?,
            #[cfg(unix)]
            SocketAddrSpec::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
            #[cfg(not(unix))]
            SocketAddrSpec::Unix(_) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "unix sockets need a unix platform",
                ))
            }
        };
        let mut w = stream.try_clone()?;
        match rejoin_as {
            None => w.write_all(&encode_frame(
                0,
                0,
                TAG_HELLO,
                &PROTOCOL_VERSION.to_le_bytes(),
            ))?,
            Some(r) => {
                let mut hello = Vec::with_capacity(8);
                hello.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
                hello.extend_from_slice(&(r as u32).to_le_bytes());
                w.write_all(&encode_frame(0, r as u32, TAG_REJOIN, &hello))?;
            }
        }
        let mut rd = stream.try_clone()?;
        let (welcome, dec) = read_one_frame(&mut rd, deadline)?;
        if welcome.tag != TAG_WELCOME || welcome.payload.len() < 8 {
            return Err(protocol_err("expected WELCOME"));
        }
        let rank = u32::from_le_bytes(welcome.payload[..4].try_into().expect("4 bytes")) as Rank;
        let world = u32::from_le_bytes(welcome.payload[4..8].try_into().expect("4 bytes")) as usize;
        if rank == 0 || rank >= world {
            return Err(protocol_err("WELCOME carried an invalid rank"));
        }
        if rejoin_as.is_some_and(|r| r != rank) {
            return Err(protocol_err("WELCOME did not confirm the claimed rank"));
        }
        stream.set_read_timeout(None)?;
        let (tx, inbox_rx) = channel();
        let my_rank = rank as u32;
        let reader_stream = stream.try_clone()?;
        let tap: Arc<Mutex<Option<FrameTap>>> = Arc::new(Mutex::new(None));
        let reader_tap = tap.clone();
        let reader = std::thread::Builder::new()
            .name(format!("vira-sock-w{rank}"))
            .spawn(move || {
                reader_loop(reader_stream, dec, |f| {
                    if f.to != my_rank {
                        return true; // misrouted: drop
                    }
                    // Clone the tap out of the lock so user code never
                    // runs under it.
                    let t = reader_tap.lock().unwrap_or_else(|e| e.into_inner()).clone();
                    if let Some(t) = t {
                        t(&f);
                    }
                    // The worker loop exits on a Disconnected recv; the
                    // channel disconnects when this thread returns and
                    // drops `tx`.
                    tx.send(Message {
                        from: f.from as Rank,
                        tag: f.tag,
                        payload: f.payload,
                    })
                    .is_ok()
                });
            })
            .expect("failed to spawn socket reader");
        Ok(SocketWorker {
            rank,
            world,
            writer: Arc::new(Mutex::new(stream)),
            inbox_rx,
            reader: Some(reader),
            tap,
        })
    }

    /// A cloneable frame injector sharing this endpoint's stream (used
    /// to forward client-bound event frames from command threads).
    pub fn sender(&self) -> SocketSender {
        SocketSender {
            writer: self.writer.clone(),
            rank: self.rank as u32,
        }
    }

    /// Installs an observer the reader thread calls on every inbound
    /// frame *before* queueing it to the inbox. This is the remote
    /// worker's mid-job control channel: the worker loop only drains
    /// its inbox between jobs, so an out-of-band frame — a
    /// cancellation, say — must act from the reader thread (e.g. by
    /// inserting the job id into the process-local cancel set) to
    /// reach a command that is already running. The frame is still
    /// delivered to the inbox afterwards. The tap runs on the reader
    /// thread ahead of every subsequent frame on the stream, so it
    /// must be fast and must not block. Replaces any earlier tap.
    pub fn set_frame_tap(&self, tap: impl Fn(&Frame) + Send + Sync + 'static) {
        *self.tap.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::new(tap));
    }
}

impl Transport for SocketWorker {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.world
    }

    fn send(&self, to: Rank, tag: Tag, payload: Bytes) -> Result<(), CommError> {
        if to >= self.world {
            return Err(CommError::UnknownRank(to));
        }
        fits_a_frame(&payload)?;
        if write_frame(&self.writer, to as u32, self.rank as u32, tag, &payload) {
            Ok(())
        } else {
            Err(CommError::Disconnected)
        }
    }

    fn recv(&self) -> Result<Message, CommError> {
        self.inbox_rx.recv().map_err(|_| CommError::Disconnected)
    }

    fn try_recv(&self) -> Result<Option<Message>, CommError> {
        match self.inbox_rx.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(CommError::Disconnected),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Message, CommError> {
        match self.inbox_rx.recv_timeout(timeout) {
            Ok(m) => Ok(m),
            Err(RecvTimeoutError::Timeout) => Err(CommError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(CommError::Disconnected),
        }
    }
}

impl Drop for SocketWorker {
    fn drop(&mut self) {
        if let Ok(w) = self.writer.lock() {
            w.shutdown();
        }
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tags;

    #[test]
    fn frame_roundtrips_through_the_decoder() {
        let mut dec = FrameDecoder::new();
        dec.feed(&encode_frame(2, 1, tags::PARTIAL_RESULT, b"hello"));
        let Some(DecodeStep::Frame(f)) = dec.next() else {
            panic!("expected a frame");
        };
        assert_eq!((f.to, f.from, f.tag), (2, 1, tags::PARTIAL_RESULT));
        assert_eq!(&f.payload[..], b"hello");
        assert_eq!(dec.next(), None);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn decoder_survives_byte_at_a_time_feeding() {
        let wire = encode_frame(1, 0, tags::COMMAND, &[7u8; 100]);
        let mut dec = FrameDecoder::new();
        let mut got = 0;
        for b in &wire {
            dec.feed(std::slice::from_ref(b));
            while let Some(step) = dec.next() {
                assert!(matches!(step, DecodeStep::Frame(_)));
                got += 1;
            }
        }
        assert_eq!(got, 1);
    }

    #[test]
    fn corrupt_payload_is_dropped_and_stream_stays_synchronized() {
        let mut wire = encode_frame(1, 0, 5, b"damaged payload");
        let last = wire.len() - 1;
        wire[last] ^= 0xff;
        wire.extend_from_slice(&encode_frame(1, 0, 6, b"good"));
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert_eq!(dec.next(), Some(DecodeStep::Corrupt));
        let Some(DecodeStep::Frame(f)) = dec.next() else {
            panic!("expected the follow-up frame");
        };
        assert_eq!(f.tag, 6);
    }

    #[test]
    fn corrupt_header_fields_fail_the_checksum() {
        for field_off in [8usize, 12, 16] {
            // to, from, tag
            let mut wire = encode_frame(2, 1, 42, b"x");
            wire[field_off] ^= 0x01;
            let mut dec = FrameDecoder::new();
            dec.feed(&wire);
            assert_eq!(dec.next(), Some(DecodeStep::Corrupt), "offset {field_off}");
        }
    }

    #[test]
    fn garbage_before_a_frame_is_resynced_past() {
        let mut wire = b"not a frame at all".to_vec();
        wire.extend_from_slice(&encode_frame(3, 2, 9, b"payload"));
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert_eq!(dec.next(), Some(DecodeStep::Resync(18)));
        assert!(matches!(dec.next(), Some(DecodeStep::Frame(_))));
    }

    #[test]
    fn absurd_length_is_treated_as_false_magic() {
        let mut wire = FRAME_MAGIC.to_vec();
        wire.extend_from_slice(&u32::MAX.to_le_bytes()); // len
        wire.extend_from_slice(&[0u8; 16]);
        wire.extend_from_slice(&encode_frame(1, 0, 1, b"ok"));
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let mut frames = 0;
        while let Some(step) = dec.next() {
            if matches!(step, DecodeStep::Frame(_)) {
                frames += 1;
            }
        }
        assert_eq!(frames, 1, "the real frame behind the false magic decodes");
    }

    #[test]
    fn truncated_frame_waits_for_more_bytes() {
        let wire = encode_frame(1, 0, 7, &[1, 2, 3, 4]);
        let mut dec = FrameDecoder::new();
        dec.feed(&wire[..wire.len() - 2]);
        assert_eq!(dec.next(), None, "incomplete frame must not decode");
        dec.feed(&wire[wire.len() - 2..]);
        assert!(matches!(dec.next(), Some(DecodeStep::Frame(_))));
    }

    #[test]
    fn crc_changes_with_any_single_word() {
        // Lengths around the 32-byte stride and the 8-byte word, so the
        // padded tail is covered too.
        for len in [1usize, 7, 8, 9, 31, 32, 33, 63, 64, 65, 200] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let base = frame_crc(3, 4, 5, &payload);
            for word in payload.chunks(8).enumerate().map(|(i, _)| i * 8) {
                for flip in [0x01u8, 0x80, 0xff] {
                    let mut damaged = payload.clone();
                    // Damage every byte of the word, or one of them.
                    for b in damaged[word..].iter_mut().take(8) {
                        *b ^= flip;
                    }
                    assert_ne!(frame_crc(3, 4, 5, &damaged), base, "len {len} word {word}");
                    damaged.copy_from_slice(&payload);
                    damaged[word] ^= flip;
                    assert_ne!(frame_crc(3, 4, 5, &damaged), base, "len {len} byte {word}");
                }
            }
            // Zero padding does not alias a longer payload of zeros.
            let mut longer = payload.clone();
            longer.push(0);
            assert_ne!(frame_crc(3, 4, 5, &longer), base);
        }
    }

    #[test]
    fn oversized_payload_is_refused_by_the_sender() {
        let too_big = vec![0u8; MAX_FRAME_PAYLOAD + 1];
        assert!(frame_header(1, 0, 7, &too_big).is_none());
        assert!(frame_header(1, 0, 7, &too_big[..MAX_FRAME_PAYLOAD]).is_some());
    }

    /// Accepts at most `step` bytes per call, cycling `step` through
    /// 1..=k, whether asked through `write` or `write_vectored`.
    struct ShortWriter {
        out: Vec<u8>,
        k: usize,
        step: usize,
        vectored_calls: usize,
    }

    impl ShortWriter {
        fn take(&mut self, offered: usize) -> usize {
            self.step = self.step % self.k + 1;
            self.step.min(offered)
        }
    }

    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = self.take(buf.len());
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.vectored_calls += 1;
            let mut left = self.take(bufs.iter().map(|b| b.len()).sum());
            let took = left;
            for b in bufs {
                let n = left.min(b.len());
                self.out.extend_from_slice(&b[..n]);
                left -= n;
            }
            Ok(took)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_vectored_writes_still_put_the_whole_frame_on_the_wire() {
        let payload: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let header = frame_header(2, 1, 9, &payload).unwrap();
        // k = 1 crawls through the header a byte at a time; larger k
        // makes single calls span the header/payload boundary.
        for k in [1usize, 5, 27, 28, 29, 64, 5000] {
            let mut w = ShortWriter {
                out: Vec::new(),
                k,
                step: 0,
                vectored_calls: 0,
            };
            write_parts(&mut w, &header, &payload).unwrap();
            assert_eq!(w.out, encode_frame(2, 1, 9, &payload), "k = {k}");
            assert!(w.vectored_calls >= 1);
        }
        // An empty payload and an empty header (the forward path).
        let mut w = ShortWriter {
            out: Vec::new(),
            k: 3,
            step: 0,
            vectored_calls: 0,
        };
        write_parts(&mut w, &frame_header(0, 0, 1, b"").unwrap(), b"").unwrap();
        assert_eq!(w.out, encode_frame(0, 0, 1, b""));
        let mut w = ShortWriter {
            out: Vec::new(),
            k: 3,
            step: 0,
            vectored_calls: 0,
        };
        write_parts(&mut w, &[], &payload).unwrap();
        assert_eq!(w.out, payload);
        // A writer that accepts nothing is an error, not a spin.
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = write_parts(&mut Full, &header, &payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    }

    /// Hands out its bytes at most `step` per `read`, then reports
    /// end of stream.
    struct ShortReader<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for ShortReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn drain_frames(dec: &mut FrameDecoder, into: &mut Vec<Frame>) {
        while let Some(step) = dec.next() {
            match step {
                DecodeStep::Frame(f) => into.push(f),
                other => panic!("clean stream produced {other:?}"),
            }
        }
    }

    #[test]
    fn large_frame_is_read_into_one_buffer_and_handed_out_whole() {
        let big: Vec<u8> = (0..300_000u32).map(|i| (i ^ (i >> 8)) as u8).collect();
        let mut stream = encode_frame(1, 0, 5, b"small first");
        stream.extend_from_slice(&encode_frame(1, 0, 6, &big));
        stream.extend_from_slice(&encode_frame(1, 0, 7, b"small after"));
        for step in [1000usize, 64 * 1024, usize::MAX] {
            let mut r = ShortReader {
                data: &stream,
                step,
            };
            let mut dec = FrameDecoder::new();
            let mut frames = Vec::new();
            let mut peak = 0;
            loop {
                drain_frames(&mut dec, &mut frames);
                if frames.len() == 2 && frames[1].tag == 6 && r.data.len() >= 30 {
                    // The big frame took the buffer with it.
                    assert_eq!(dec.buf.capacity(), 0, "step {step}");
                }
                if dec.read_from(&mut r).unwrap() == 0 {
                    break;
                }
                peak = peak.max(dec.buf.capacity());
            }
            assert_eq!(frames.len(), 3, "step {step}");
            assert_eq!(&frames[0].payload[..], b"small first");
            assert_eq!(&frames[1].payload[..], &big[..]);
            assert_eq!(frames[1].wire.len(), FRAME_HEADER_LEN + big.len());
            assert_eq!(&frames[2].payload[..], b"small after");
            // Sized once from the header: never a doubling past it.
            assert!(
                peak <= FRAME_HEADER_LEN + big.len() + 2 * READ_CHUNK,
                "peak {peak}"
            );
        }
    }

    #[test]
    fn forged_length_reserves_at_most_one_step_and_resync_still_works() {
        // The largest length the decoder believes, then silence: it
        // waits, holding one step of room and not the 64 MiB claimed.
        let mut forged = FRAME_MAGIC.to_vec();
        forged.extend_from_slice(&(MAX_FRAME_PAYLOAD as u32).to_le_bytes());
        forged.extend_from_slice(&[0u8; FRAME_HEADER_LEN - 8]);
        let mut dec = FrameDecoder::new();
        dec.feed(&forged);
        assert_eq!(dec.next(), None);
        let mut silence = ShortReader { data: &[], step: 1 };
        assert_eq!(dec.read_from(&mut silence).unwrap(), 0);
        assert_eq!(dec.next(), None);
        assert!(dec.buf.capacity() <= dec.pending() + READ_STEP);
        // A mebibyte of the claimed payload arrives: still one step.
        dec.feed(&vec![0u8; 1 << 20]);
        assert_eq!(dec.next(), None);
        assert!(dec.buf.capacity() <= dec.pending() + READ_STEP);

        // One past the bound is a false magic: skipped byte by byte,
        // and the valid frame behind it decodes.
        let mut stream = FRAME_MAGIC.to_vec();
        stream.extend_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
        stream.extend_from_slice(&[0u8; FRAME_HEADER_LEN - 8]);
        stream.extend_from_slice(&encode_frame(1, 0, 1, b"ok"));
        let mut dec = FrameDecoder::new();
        dec.feed(&stream);
        let mut frames = Vec::new();
        let mut skipped = 0;
        while let Some(step) = dec.next() {
            match step {
                DecodeStep::Frame(f) => frames.push(f),
                DecodeStep::Resync(n) => skipped += n,
                DecodeStep::Corrupt => panic!("nothing here is a whole frame"),
            }
        }
        assert_eq!(skipped, FRAME_HEADER_LEN);
        assert_eq!(frames.len(), 1);
        assert_eq!(&frames[0].payload[..], b"ok");
        assert!(dec.buf.capacity() <= 2 * READ_CHUNK);
    }

    #[test]
    fn addr_spec_parsing() {
        assert_eq!(
            SocketAddrSpec::parse("tcp:127.0.0.1:9000").unwrap(),
            SocketAddrSpec::Tcp("127.0.0.1:9000".into())
        );
        assert_eq!(
            SocketAddrSpec::parse("127.0.0.1:9000").unwrap(),
            SocketAddrSpec::Tcp("127.0.0.1:9000".into())
        );
        assert_eq!(
            SocketAddrSpec::parse("unix:/tmp/v.sock").unwrap(),
            SocketAddrSpec::Unix("/tmp/v.sock".into())
        );
        assert_eq!(
            SocketAddrSpec::parse("/tmp/v.sock").unwrap(),
            SocketAddrSpec::Unix("/tmp/v.sock".into())
        );
        assert!(SocketAddrSpec::parse("unix:").is_err());
        assert!(SocketAddrSpec::parse("nocolon").is_err());
        assert_eq!(
            SocketAddrSpec::parse("unix:/tmp/v.sock")
                .unwrap()
                .to_string(),
            "unix:/tmp/v.sock"
        );
    }

    /// Builds a connected world over the given listener spec: the hub
    /// plus `n` worker endpoints (connected from spawned threads).
    fn socket_world(spec: &SocketAddrSpec, n: usize) -> (SocketHub, Vec<SocketWorker>) {
        let listener = SocketListener::bind(spec).expect("bind");
        let addr = SocketAddrSpec::parse(listener.local_addr()).expect("parse own addr");
        let joiners: Vec<_> = (0..n)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    SocketWorker::connect(&addr, Duration::from_secs(10)).expect("connect")
                })
            })
            .collect();
        let hub = listener
            .accept_world(n, Duration::from_secs(10))
            .expect("accept");
        let mut workers: Vec<SocketWorker> =
            joiners.into_iter().map(|h| h.join().unwrap()).collect();
        workers.sort_by_key(|w| w.rank());
        (hub, workers)
    }

    fn tmp_sock(name: &str) -> SocketAddrSpec {
        let p =
            std::env::temp_dir().join(format!("vira-sock-test-{}-{name}.sock", std::process::id()));
        SocketAddrSpec::Unix(p)
    }

    #[test]
    #[cfg(unix)]
    fn unix_world_ranks_and_roundtrip() {
        let (hub, workers) = socket_world(&tmp_sock("roundtrip"), 2);
        assert_eq!(hub.rank(), 0);
        assert_eq!(hub.world_size(), 3);
        let ranks: Vec<Rank> = workers.iter().map(|w| w.rank()).collect();
        assert_eq!(ranks, vec![1, 2]);
        assert!(workers.iter().all(|w| w.world_size() == 3));

        // Hub → worker.
        hub.send(1, tags::COMMAND, Bytes::from_static(b"cmd"))
            .unwrap();
        let m = workers[0].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((m.from, m.tag), (0, tags::COMMAND));
        assert_eq!(&m.payload[..], b"cmd");

        // Worker → hub.
        workers[0]
            .send(0, tags::JOB_DONE, Bytes::from_static(b"done"))
            .unwrap();
        let m = hub.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((m.from, m.tag), (1, tags::JOB_DONE));

        // Worker → worker, routed through the hub.
        workers[1]
            .send(1, tags::PARTIAL_RESULT, Bytes::from_static(b"part"))
            .unwrap();
        let m = workers[0].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((m.from, m.tag), (2, tags::PARTIAL_RESULT));

        // Self-send round-trips through the hub.
        workers[1].send(2, 77, Bytes::from_static(b"me")).unwrap();
        let m = workers[1].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((m.from, m.tag), (2, 77));

        // Ordering from one sender is preserved.
        for i in 0..100u8 {
            hub.send(2, 5, Bytes::copy_from_slice(&[i])).unwrap();
        }
        for i in 0..100u8 {
            let m = workers[1].recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(m.payload[0], i);
        }

        assert_eq!(
            hub.send(9, 1, Bytes::new()).unwrap_err(),
            CommError::UnknownRank(9)
        );
        assert_eq!(
            workers[0].send(7, 1, Bytes::new()).unwrap_err(),
            CommError::UnknownRank(7)
        );
    }

    #[test]
    fn tcp_world_roundtrip_and_large_payload() {
        let (hub, workers) = socket_world(&SocketAddrSpec::Tcp("127.0.0.1:0".into()), 1);
        // Both ends of the connection run without Nagle's algorithm.
        for writer in [&hub.shared.peers[0].writer, &*workers[0].writer] {
            match &*writer.lock().unwrap() {
                Stream::Tcp(s) => assert!(s.nodelay().unwrap()),
                #[cfg(unix)]
                Stream::Unix(_) => panic!("a TCP world"),
            }
        }
        // A payload spanning many reader chunks survives intact.
        let big: Vec<u8> = (0..1_000_000u32).map(|i| i as u8).collect();
        hub.send(1, tags::DMS, Bytes::from(big.clone())).unwrap();
        let m = workers[0].recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(m.payload.len(), big.len());
        assert_eq!(&m.payload[..], &big[..]);
    }

    #[test]
    #[cfg(unix)]
    fn dead_worker_is_silence_for_the_hub_not_an_error() {
        let (hub, mut workers) = socket_world(&tmp_sock("dead"), 2);
        assert!(hub.peer_alive(1) && hub.peer_alive(2));
        // Worker 1 dies (process exit ≙ dropping the endpoint).
        drop(workers.remove(0));
        // Sends to the dead rank keep succeeding (dropped silently)…
        for _ in 0..10 {
            hub.send(1, tags::PING, Bytes::new()).unwrap();
            std::thread::sleep(Duration::from_millis(10));
            if !hub.peer_alive(1) {
                break;
            }
        }
        assert!(!hub.peer_alive(1), "reader must notice the hangup");
        hub.send(1, tags::PING, Bytes::new()).unwrap();
        // …recv never turns into Disconnected while the hub lives…
        assert_eq!(
            hub.recv_timeout(Duration::from_millis(50)).unwrap_err(),
            CommError::Timeout
        );
        // …and the surviving rank still works both ways.
        hub.send(2, tags::COMMAND, Bytes::from_static(b"go"))
            .unwrap();
        let m = workers[0].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(m.tag, tags::COMMAND);
        workers[0].send(0, tags::PONG, Bytes::new()).unwrap();
        assert_eq!(
            hub.recv_timeout(Duration::from_secs(5)).unwrap().tag,
            tags::PONG
        );
    }

    #[test]
    #[cfg(unix)]
    fn hub_teardown_disconnects_workers() {
        let (hub, workers) = socket_world(&tmp_sock("teardown"), 1);
        drop(hub);
        let w = &workers[0];
        // The reader notices EOF and drops the inbox sender.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match w.recv_timeout(Duration::from_millis(50)) {
                Err(CommError::Disconnected) => break,
                Err(CommError::Timeout) if Instant::now() < deadline => continue,
                other => panic!("expected Disconnected, got {other:?}"),
            }
        }
    }

    #[test]
    fn connect_retries_until_the_listener_appears() {
        // Reserve a port, then release it so the first connect attempts
        // fail; the listener binds it again shortly after.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let spec = SocketAddrSpec::Tcp(addr.clone());
        let joiner = {
            let spec = spec.clone();
            std::thread::spawn(move || SocketWorker::connect(&spec, Duration::from_secs(10)))
        };
        std::thread::sleep(Duration::from_millis(150));
        let listener = SocketListener::bind(&spec).expect("bind");
        let hub = listener
            .accept_world(1, Duration::from_secs(10))
            .expect("accept");
        let worker = joiner.join().unwrap().expect("late connect succeeds");
        assert_eq!(worker.rank(), 1);
        drop(hub);
    }

    #[test]
    fn frames_coalesced_with_welcome_reach_the_worker() {
        // A fake hub answers the HELLO with WELCOME and a data frame in
        // one write, so both land in the worker's handshake read. The
        // data frame must be handed to the reader thread, not dropped
        // with the handshake decoder (a real hub sends the moment
        // accept_world returns, racing connect_once the same way).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let fake_hub = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut dec = FrameDecoder::new();
            let mut buf = [0u8; 256];
            loop {
                if let Some(DecodeStep::Frame(f)) = dec.next() {
                    assert_eq!(f.tag, TAG_HELLO);
                    break;
                }
                let n = s.read(&mut buf).unwrap();
                assert!(n > 0, "worker closed before HELLO");
                dec.feed(&buf[..n]);
            }
            let mut welcome = Vec::new();
            welcome.extend_from_slice(&1u32.to_le_bytes());
            welcome.extend_from_slice(&2u32.to_le_bytes());
            let mut wire = encode_frame(1, 0, TAG_WELCOME, &welcome);
            wire.extend_from_slice(&encode_frame(1, 0, 77, b"right-behind-welcome"));
            s.write_all(&wire).unwrap();
            s // keep the connection open until the assertion ran
        });
        let w = SocketWorker::connect(&SocketAddrSpec::Tcp(addr), Duration::from_secs(5)).unwrap();
        let m = w.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((m.from, m.tag), (0, 77));
        assert_eq!(&m.payload[..], b"right-behind-welcome");
        drop(fake_hub.join().unwrap());
    }

    #[test]
    fn frames_coalesced_with_hello_reach_the_hub() {
        // Mirror image: a peer that pipelines a frame right behind its
        // HELLO. The hub's handshake read pulls both; the second frame
        // must reach the inbox through the reader thread's decoder.
        let listener = SocketListener::bind(&SocketAddrSpec::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.local_addr().trim_start_matches("tcp:").to_string();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(&addr).unwrap();
            let mut wire = encode_frame(0, 0, TAG_HELLO, &PROTOCOL_VERSION.to_le_bytes());
            wire.extend_from_slice(&encode_frame(0, 1, 88, b"eager"));
            s.write_all(&wire).unwrap();
            let mut buf = [0u8; 256];
            let _ = s.read(&mut buf); // wait for the WELCOME
            s
        });
        let hub = listener.accept_world(1, Duration::from_secs(5)).unwrap();
        let m = hub.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((m.from, m.tag), (1, 88));
        assert_eq!(&m.payload[..], b"eager");
        drop(client.join().unwrap());
    }

    #[test]
    #[cfg(unix)]
    fn socket_sender_injects_frames_to_the_hub() {
        let (hub, workers) = socket_world(&tmp_sock("sender"), 1);
        let sender = workers[0].sender();
        let h = std::thread::spawn(move || sender.send(0, 2000, b"event").unwrap());
        let m = hub.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((m.from, m.tag), (1, 2000));
        assert_eq!(&m.payload[..], b"event");
        h.join().unwrap();
    }

    #[test]
    #[cfg(unix)]
    fn every_sender_refuses_an_oversized_payload_and_the_link_stays_up() {
        let (hub, workers) = socket_world(&tmp_sock("too-large"), 1);
        let too_big = Bytes::from(vec![0u8; MAX_FRAME_PAYLOAD + 1]);
        let refused = Err(CommError::TooLarge {
            bytes: MAX_FRAME_PAYLOAD + 1,
            limit: MAX_FRAME_PAYLOAD,
        });
        assert_eq!(workers[0].send(0, 30, too_big.clone()), refused);
        assert_eq!(workers[0].sender().send(0, 31, &too_big), refused);
        assert_eq!(hub.send(1, 32, too_big), refused);
        // Nothing was written: the next frames arrive intact.
        workers[0].send(0, 33, Bytes::from_static(b"up")).unwrap();
        let m = hub.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((m.tag, &m.payload[..]), (33, &b"up"[..]));
        hub.send(1, 34, Bytes::from_static(b"down")).unwrap();
        let m = workers[0].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((m.tag, &m.payload[..]), (34, &b"down"[..]));
    }

    #[test]
    #[cfg(unix)]
    fn faulty_transport_stacks_on_sockets() {
        use crate::fault::{FaultPlan, FaultStats, FaultyTransport};

        let (hub, mut workers) = socket_world(&tmp_sock("stack"), 1);
        // The chaos decorator wraps the socket transport like any other.
        let plan = Arc::new(FaultPlan::new(3));
        let stats = Arc::new(FaultStats::default());
        let hub = FaultyTransport::new(hub, plan, stats);
        let w = workers.remove(0);
        w.send(0, 10, Bytes::from_static(b"a")).unwrap();
        w.send(0, 20, Bytes::from_static(b"b")).unwrap();
        // Frames arrive in send order, whatever their tags.
        let m = hub.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((m.tag, &m.payload[..]), (10, &b"a"[..]));
        let m = hub.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((m.tag, &m.payload[..]), (20, &b"b"[..]));
    }

    #[test]
    fn connect_timeout_error_names_address_and_attempts() {
        // Reserve a port and release it so nothing is listening there.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let err = match SocketWorker::connect(
            &SocketAddrSpec::Tcp(addr.clone()),
            Duration::from_millis(200),
        ) {
            Err(e) => e,
            Ok(_) => panic!("nothing listens there; connect must fail"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        let msg = err.to_string();
        assert!(msg.contains(&addr), "error should name the address: {msg}");
        assert!(
            msg.contains("attempts"),
            "error should count attempts: {msg}"
        );
        assert!(
            msg.contains("last error"),
            "error should keep the cause: {msg}"
        );
    }

    #[test]
    #[cfg(unix)]
    fn frame_tap_sees_frames_before_the_inbox() {
        let (hub, workers) = socket_world(&tmp_sock("tap"), 1);
        let seen = Arc::new(Mutex::new(Vec::new()));
        {
            let seen = seen.clone();
            workers[0].set_frame_tap(move |f: &Frame| {
                seen.lock().unwrap().push((f.tag, f.payload.clone()));
            });
        }
        hub.send(1, 42, Bytes::from_static(b"tapped")).unwrap();
        let m = workers[0].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(m.tag, 42);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 1, "the tap observed the frame");
        assert_eq!(seen[0].0, 42);
        assert_eq!(&seen[0].1[..], b"tapped");
    }

    #[test]
    #[cfg(unix)]
    fn killed_worker_rejoins_and_reclaims_its_rank() {
        let spec = tmp_sock("rejoin");
        let listener = SocketListener::bind(&spec).expect("bind");
        let addr = SocketAddrSpec::parse(listener.local_addr()).unwrap();
        let joiners: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    SocketWorker::connect(&addr, Duration::from_secs(10)).unwrap()
                })
            })
            .collect();
        let hub = listener.accept_world(2, Duration::from_secs(10)).unwrap();
        let mut workers: Vec<_> = joiners.into_iter().map(|h| h.join().unwrap()).collect();
        workers.sort_by_key(|w| w.rank());

        // A claim for a rank that is still connected is refused until
        // the deadline.
        let err = match SocketWorker::rejoin(&addr, 2, Duration::from_millis(200)) {
            Err(e) => e,
            Ok(_) => panic!("a live rank must not be reclaimable"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);

        // Rank 1's process "dies".
        drop(workers.remove(0));
        for _ in 0..200 {
            if !hub.peer_alive(1) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!hub.peer_alive(1), "hub must notice the hangup");

        // The restarted process reclaims its rank…
        let w1 = SocketWorker::rejoin(&addr, 1, Duration::from_secs(10)).expect("rejoin");
        assert_eq!(w1.rank(), 1);
        assert_eq!(w1.world_size(), 3);
        assert!(hub.peer_alive(1));

        // …the hub inbox carries the layer-2 REJOIN notification…
        let m = hub.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((m.from, m.tag), (1, tags::REJOIN));

        // …and the rank serves traffic again, both directions.
        hub.send(1, tags::COMMAND, Bytes::from_static(b"again"))
            .unwrap();
        let m = w1.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&m.payload[..], b"again");
        w1.send(0, tags::JOB_DONE, Bytes::from_static(b"ok"))
            .unwrap();
        assert_eq!(
            hub.recv_timeout(Duration::from_secs(5)).unwrap().tag,
            tags::JOB_DONE
        );
    }

    /// A worker as bytes on a socket: handshakes by hand and returns
    /// the stream, so a test sees exactly what the hub reads and writes.
    fn raw_peer(addr: &str) -> TcpStream {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&encode_frame(
            0,
            0,
            TAG_HELLO,
            &PROTOCOL_VERSION.to_le_bytes(),
        ))
        .unwrap();
        let mut welcome = [0u8; FRAME_HEADER_LEN + 8];
        s.read_exact(&mut welcome).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s
    }

    #[test]
    fn hub_forwards_a_verified_frame_as_received_and_drops_a_corrupt_one() {
        let listener = SocketListener::bind(&SocketAddrSpec::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.local_addr().trim_start_matches("tcp:").to_string();
        let peers = std::thread::spawn(move || {
            let p1 = raw_peer(&addr); // rank 1: connection order
            let p2 = raw_peer(&addr);
            (p1, p2)
        });
        let hub = listener.accept_world(2, Duration::from_secs(10)).unwrap();
        let (mut p1, mut p2) = peers.join().unwrap();

        // A large frame (handed through the hub as one buffer) and a
        // small one (copied out of the read chunk): what arrives at
        // rank 2 is byte for byte what rank 1 wrote.
        let big: Vec<u8> = (0..200_000u32).map(|i| (i * 7) as u8).collect();
        for payload in [&big[..], b"small"] {
            let sent = encode_frame(2, 1, 70, payload);
            p1.write_all(&sent).unwrap();
            let mut got = vec![0u8; sent.len()];
            p2.read_exact(&mut got).unwrap();
            assert_eq!(got, sent);
        }

        // A frame damaged before it reached the hub goes no further;
        // the good frame behind it does, and nothing of the bad one
        // precedes it on rank 2's stream.
        let corrupt = obs::counter("socket_frames_corrupt_total");
        let before = corrupt.get();
        let mut bad = encode_frame(2, 1, 71, &big);
        bad[FRAME_HEADER_LEN + 1000] ^= 0x10;
        let good = encode_frame(2, 1, 72, b"after the damage");
        p1.write_all(&bad).unwrap();
        p1.write_all(&good).unwrap();
        let mut got = vec![0u8; good.len()];
        p2.read_exact(&mut got).unwrap();
        assert_eq!(got, good);
        assert!(corrupt.get() > before, "the drop was counted");
        drop(hub);
    }

    #[test]
    #[cfg(unix)]
    fn hub_forward_faults_hit_worker_to_worker_frames_only() {
        use crate::fault::{FaultPlan, FaultStats};

        let (hub, workers) = socket_world(&tmp_sock("routefault"), 2);
        let plan = Arc::new(FaultPlan::parse_str("seed 1\nlink 1 2 drop 1.0\n").unwrap());
        let stats = Arc::new(FaultStats::default());
        hub.set_route_faults(plan, stats.clone());

        // Worker 1 → worker 2 is forwarded by the hub and dropped there.
        workers[0].send(2, 70, Bytes::from_static(b"lost")).unwrap();
        // Worker 1 → hub is not on the faulted link; since both frames
        // share one stream and the hub reader is sequential, seeing
        // this one means the forward above was already processed.
        workers[0].send(0, 71, Bytes::from_static(b"up")).unwrap();
        assert_eq!(hub.recv_timeout(Duration::from_secs(5)).unwrap().tag, 71);
        // Hub → worker 2 bypasses the route faults (`from` = 0).
        hub.send(2, 72, Bytes::from_static(b"down")).unwrap();
        assert_eq!(
            workers[1].recv_timeout(Duration::from_secs(5)).unwrap().tag,
            72
        );
        assert_eq!(
            workers[1].try_recv().unwrap(),
            None,
            "the worker→worker frame was dropped by the hub"
        );
        assert_eq!(stats.snapshot().dropped, 1);
    }

    /// A handshake frame of the next protocol version: HELLO, or REJOIN
    /// claiming `rank`.
    fn next_version_handshake(tag: Tag, rank: u32) -> Vec<u8> {
        let mut payload = (PROTOCOL_VERSION + 1).to_le_bytes().to_vec();
        if tag == TAG_REJOIN {
            payload.extend_from_slice(&rank.to_le_bytes());
        }
        encode_frame(0, rank, tag, &payload)
    }

    /// Writes `frame` from a fresh TCP peer, runs `handshake` on the
    /// hub's end of the connection and returns the refusal it reports.
    fn refusal<T>(frame: &[u8], handshake: impl FnOnce(&Stream) -> std::io::Result<T>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        peer.write_all(frame).unwrap();
        let hub_end = Stream::tcp(listener.accept().unwrap().0).unwrap();
        match handshake(&hub_end) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("a peer of another version was accepted"),
        }
    }

    /// Reads `peer` to its end: what the hub wrote before closing.
    fn read_until_closed(mut peer: impl Read) -> Vec<u8> {
        let mut got = Vec::new();
        peer.read_to_end(&mut got).unwrap();
        got
    }

    #[test]
    fn hello_of_another_protocol_version_is_refused() {
        let hello = next_version_handshake(TAG_HELLO, 0);
        let deadline = Instant::now() + Duration::from_secs(5);
        let err = refusal(&hello, |s| handshake_server(s, 1, 2, deadline));
        assert!(err.contains("protocol version mismatch"), "{err}");

        // In a forming world the refused peer gets no rank: the hub
        // closes on it and gives rank 1 to the next peer.
        let listener = SocketListener::bind(&SocketAddrSpec::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.local_addr().trim_start_matches("tcp:").to_string();
        let peers = std::thread::spawn(move || {
            let mut stale = TcpStream::connect(&addr).unwrap();
            stale.write_all(&hello).unwrap();
            stale
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            (read_until_closed(stale), raw_peer(&addr))
        });
        let hub = listener.accept_world(1, Duration::from_secs(10)).unwrap();
        let (welcome, mut peer) = peers.join().unwrap();
        assert!(welcome.is_empty(), "the refused peer got no WELCOME");
        hub.send(1, 70, Bytes::from_static(b"served")).unwrap();
        let sent = encode_frame(1, 0, 70, b"served");
        let mut got = vec![0u8; sent.len()];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(got, sent);
    }

    #[test]
    #[cfg(unix)]
    fn rejoin_of_another_protocol_version_is_refused() {
        let spec = tmp_sock("rejoin-version");
        let (hub, mut workers) = socket_world(&spec, 2);
        let rejoin = next_version_handshake(TAG_REJOIN, 1);
        let err = refusal(&rejoin, |s| handshake_rejoin(s, &hub.shared, 3));
        assert!(err.contains("protocol version mismatch"), "{err}");

        // Rank 1 dies; a REJOIN of another version cannot reclaim it…
        drop(workers.remove(0));
        for _ in 0..200 {
            if !hub.peer_alive(1) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let SocketAddrSpec::Unix(path) = &spec else {
            unreachable!("a unix world")
        };
        let mut stale = UnixStream::connect(path).unwrap();
        stale.write_all(&rejoin).unwrap();
        stale
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert!(
            read_until_closed(stale).is_empty(),
            "the refused peer got no WELCOME"
        );
        assert!(!hub.peer_alive(1));
        assert_eq!(hub.try_recv().unwrap(), None, "layer 2 heard of no rejoin");

        // …and the hub keeps serving rank 2.
        hub.send(2, tags::COMMAND, Bytes::from_static(b"still here"))
            .unwrap();
        let m = workers[0].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&m.payload[..], b"still here");
    }
}
