//! The server side of a shard scan: one accepted `serve-shard` connection,
//! driven end to end.
//!
//! [`serve_stream`] runs the scan exchange the wire layer documents: the
//! client speaks first with a scan-open frame (read under
//! [`SCAN_OPEN_WAIT`]), the server answers with the scan hello and ships
//! the rank-ordered shard as tuple-block frames, and closes with a
//! stopped-at trailer. A gated scan (`k > 0`) stops at the
//! [`ShardScanGate`] bound, draining client bound updates mid-scan; a
//! full-stream scan (`k = 0`) has no bound to tighten, so it ships the
//! whole shard without reading the socket again. A connection that
//! opens with anything else — silence, another protocol version, another
//! daemon's frame — gets one error frame and is closed.
//!
//! The function is transport-specific (`TcpStream`) because the exchange
//! is: it needs read timeouts and an independently readable clone of the
//! write half. Everything protocol-level (frames, gates) lives in
//! `ttk_uncertain::wire` and [`crate::scan_depth`].

use std::io::{BufWriter, Read};
use std::net::TcpStream;
use std::time::Duration;

use ttk_uncertain::wire::{self, ControlFrame, ControlParser, PushdownQuery, StoppedAt};
use ttk_uncertain::{Error, Result, ShardAssignment, TupleBlock, TupleSource, WireWriter};

use crate::scan_depth::ShardScanGate;

/// How long a connection may stay silent before its scan-open frame
/// arrives — the same default `QueryServeOptions::request_wait` gives query
/// clients. A silent client is answered with an error frame and closed.
pub const SCAN_OPEN_WAIT: Duration = Duration::from_secs(10);

/// Most rows packed into one tuple-block frame.
const BLOCK_ROWS: usize = 512;

/// A gated scan drains client bound updates every this many shipped tuples.
const DRAIN_EVERY: u64 = 64;

/// How a [`serve_stream`] scan ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The shard source was drained to its end.
    Exhausted,
    /// The server-side [`ShardScanGate`] proved no later tuple can be in the
    /// merge-side Theorem-2 prefix.
    Gate,
    /// The client hung up (or its socket died) before the scan finished.
    ClientGone,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StopReason::Exhausted => "exhausted",
            StopReason::Gate => "gate",
            StopReason::ClientGone => "client-gone",
        })
    }
}

/// What one connection's scan amounted to — the per-connection summary
/// the `serve-shard` daemon logs, and what the pushdown tests assert on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Rows pulled from the shard source.
    pub scanned: u64,
    /// Tuples framed onto the wire.
    pub shipped: u64,
    /// Why the scan stopped.
    pub reason: StopReason,
    /// Whether the client opened a gated scan (`k > 0`); `false` for a
    /// full-stream scan.
    pub gated: bool,
    /// Bytes framed onto the wire (length prefixes included); best-effort
    /// on [`StopReason::ClientGone`], exact otherwise.
    pub wire_bytes: u64,
}

/// Serves one accepted shard connection: reads the scan-open frame, scans
/// `source` (fully, or up to the conservative per-shard Theorem-2 bound),
/// and reports what happened.
///
/// A client that vanishes mid-scan is a normal outcome
/// ([`StopReason::ClientGone`]), not an error. Errors are reserved for a
/// connection that does not open with a valid scan-open frame within
/// [`SCAN_OPEN_WAIT`] and for a failing `source`; both are answered with an
/// error frame first.
///
/// # Errors
///
/// [`Error::Source`] on a missing or invalid scan-open frame, a source
/// failure, or local socket configuration failures.
pub fn serve_stream(
    stream: TcpStream,
    source: &mut dyn TupleSource,
    assignment: Option<&ShardAssignment>,
) -> Result<ServeSummary> {
    stream.set_nonblocking(false).map_err(|e| io_config(&e))?;
    stream
        .set_read_timeout(Some(SCAN_OPEN_WAIT))
        .map_err(|e| io_config(&e))?;
    let opened = wire::read_scan_open(&mut (&stream)).and_then(|query| match query.k {
        0 => Ok(None),
        k => ShardScanGate::new(k as usize, query.p_tau).map(Some),
    });
    let mut gate = match opened {
        Ok(gate) => gate,
        Err(e) => {
            let _ = wire::write_query_error(&mut &stream, &e.to_string());
            return Err(e);
        }
    };

    // A gated scan drains bound updates with tiny timed reads mid-scan.
    stream
        .set_read_timeout(Some(Duration::from_millis(1)))
        .map_err(|e| io_config(&e))?;
    let read_half = stream.try_clone().map_err(|e| io_config(&e))?;
    let gated = gate.is_some();
    let mut writer = match WireWriter::new(BufWriter::new(stream), source.size_hint(), assignment) {
        Ok(writer) => writer,
        Err(_) => {
            return Ok(ServeSummary {
                scanned: 0,
                shipped: 0,
                reason: StopReason::ClientGone,
                gated,
                wire_bytes: 0,
            })
        }
    };

    // The gate admits tuple by tuple, so scanned/shipped counts and the
    // stopping point do not depend on the block framing.
    let mut parser = ControlParser::new();
    let mut updates_dead = false;
    let mut scanned = 0u64;
    let mut shipped = 0u64;
    let mut block = TupleBlock::default();
    let mut reason = loop {
        let tuple = match source.next_tuple() {
            Ok(Some(tuple)) => tuple,
            Ok(None) => break StopReason::Exhausted,
            Err(error) => {
                let _ = writer.fail(&error.to_string());
                return Err(error);
            }
        };
        scanned += 1;
        if let Some(gate) = &mut gate {
            if !gate.admit(tuple.tuple.score(), tuple.tuple.prob(), tuple.group) {
                break StopReason::Gate;
            }
        }
        block.push(&tuple);
        if block.len() >= BLOCK_ROWS {
            if writer.write_block(&block).is_err() {
                break StopReason::ClientGone;
            }
            block.clear();
        }
        shipped += 1;
        if let Some(gate) = &mut gate {
            if !updates_dead && shipped.is_multiple_of(DRAIN_EVERY) {
                match drain_bounds(&read_half, &mut parser, gate) {
                    Ok(false) => {}
                    Ok(true) => break StopReason::ClientGone,
                    Err(_) => updates_dead = true,
                }
            }
        }
    };

    // Flush the partially filled block before the trailer, so the shipped
    // count the trailer reports is exactly what crossed the wire.
    if reason != StopReason::ClientGone && !block.is_empty() && writer.write_block(&block).is_err()
    {
        reason = StopReason::ClientGone;
    }
    let mut wire_bytes = writer.bytes_written();
    if reason != StopReason::ClientGone {
        let trailer = StoppedAt {
            scanned,
            shipped,
            gate_limited: reason == StopReason::Gate,
        };
        if writer.write_stopped(&trailer).is_err() {
            reason = StopReason::ClientGone;
        } else {
            match writer.finish() {
                Ok(total) => wire_bytes = total,
                Err(_) => reason = StopReason::ClientGone,
            }
        }
    }
    Ok(ServeSummary {
        scanned,
        shipped,
        reason,
        gated,
        wire_bytes,
    })
}

fn io_config(e: &std::io::Error) -> Error {
    Error::Source(format!("serve-stream socket configuration: {e}"))
}

/// Reads whatever control bytes are waiting (bounded by the 1 ms read
/// timeout), feeds complete bound frames into the gate, and reports whether
/// the client closed its half of the socket.
fn drain_bounds(
    read_half: &TcpStream,
    parser: &mut ControlParser,
    gate: &mut ShardScanGate,
) -> Result<bool> {
    let mut buf = [0u8; 256];
    loop {
        match (&mut (&*read_half)).read(&mut buf) {
            Ok(0) => return Ok(true),
            Ok(n) => {
                parser.extend(&buf[..n]);
                if n < buf.len() {
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                break
            }
            Err(e) => return Err(Error::Source(format!("draining bound updates: {e}"))),
        }
    }
    while let Some(frame) = parser.next_frame()? {
        match frame {
            ControlFrame::Bound(mass) => gate.update_remote_mass(mass),
        }
    }
    Ok(false)
}

/// The [`PushdownQuery`] a client opens a scan with for a given query
/// shape: `k == 0` (stream everything) when the consumer needs the full
/// stream (U-Topk witnesses, exhaustive enumeration), the real Theorem-2
/// parameters otherwise.
pub fn pushdown_query(k: usize, p_tau: f64, full_stream: bool) -> PushdownQuery {
    if full_stream {
        PushdownQuery { k: 0, p_tau: 0.0 }
    } else {
        PushdownQuery { k: k as u64, p_tau }
    }
}
