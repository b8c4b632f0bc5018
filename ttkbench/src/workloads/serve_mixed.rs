//! `serve-mixed`: writes beside reads against one real `ttk serve` daemon.
//!
//! The daemon holds a resident CarTel relation `roads` and a live dataset
//! `feed` (`--compact-at 8`). Two client threads, one connection per
//! request:
//!
//! * the reader sends a skewed stream of k=5 query shapes on `roads`: four
//!   in five requests pick one of eight hot shapes (Zipf weights), the rest
//!   are one-off shapes — so ~80 % hit the result cache;
//! * the writer alternates a 500-row append+seal into `feed` with a k=5
//!   query on `feed`, growing it from empty to 100k rows.
//!
//! This runs the daemon runtime, the request/result codec, the registry,
//! the cache, epoch invalidation and live seal/compaction; the DP does
//! little work.

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ttk_core::uncertain::wire::{self, AdminRequest, AdminVerb};
use ttk_core::uncertain::SourceTuple;
use ttk_core::{
    answer_from_wire, answer_hash, request_for, serve_query, AppendLog, ConnectOptions, Dataset,
    DatasetRegistry, LiveDataset, QueryServeOptions, RemoteQueryClient, ResultCache, Session,
    TopkQuery,
};

use super::{
    end_to_end, error_rate, reference_hash, Config, Outcome, References, ServerLayers, Shape,
    TraceRun, CLIENT_TIMEOUT,
};
use crate::daemon::Daemon;
use crate::inputs::{csv_dataset, feed_rows, generate_cartel, reference_table, Rng, SCORE};
use crate::metrics::{mean, median, Class, Metric, Ops};

pub const NAME: &str = "serve-mixed";

/// Daemons started per run; `setup_s` is the median.
const SETUP_REPS: usize = 9;
/// `ttk serve`'s default `--seal-every`, mirrored by the reference log.
const SEAL_EVERY: usize = 1024;
const COMPACT_AT: usize = 8;
const HOT_SHAPES: usize = 8;
/// Share of reader requests that use a one-off (cold) shape.
const COLD_SHARE: f64 = 0.2;
/// Traced replays of distinct reader shapes.
const TRACED_SHAPES: usize = 24;
/// Timed requests of each daemon-layer probe.
const PROBE_REQUESTS: usize = 20;

struct Size {
    roads_segments: usize,
    feed_segments: usize,
    chunk_rows: usize,
    max_chunks: usize,
}

const FULL: Size = Size {
    roads_segments: 1000,
    feed_segments: 30_000,
    chunk_rows: 500,
    max_chunks: 200,
};

const TINY: Size = Size {
    roads_segments: 40,
    feed_segments: 300,
    chunk_rows: 50,
    max_chunks: 20,
};

/// The `roads` relation and the feed rows are fixed (generator seeds 2 and
/// 7) so every run measures the same miss and append cost; the run seed
/// drives the reader's request stream.
const ROADS_SEED: u64 = 2;
const FEED_SEED: u64 = 7;

fn hot(index: usize) -> Shape {
    Shape {
        label: format!("hot{index}"),
        class: Class::Light,
        dataset: 0,
        query: TopkQuery::new(5)
            .with_typical_count(1 + index % 4)
            .with_u_topk(index >= HOT_SHAPES / 2),
    }
}

/// The `index`-th one-off shape: a p_tau no other request uses.
fn cold(index: usize) -> Shape {
    let base = [1e-3, 2e-3, 5e-3, 1e-2][index % 4];
    Shape {
        label: format!("cold{index}"),
        class: Class::Heavy,
        dataset: 0,
        query: TopkQuery::new(5)
            .with_p_tau(base * (1.0 + (index / 4 + 1) as f64 * 1e-6))
            .with_typical_count(1 + index % 3)
            .with_max_lines([10, 20][index % 2])
            .with_u_topk(false),
    }
}

/// The reader's request stream, seeded.
struct ReaderStream {
    rng: Rng,
    weights: Vec<f64>,
    next_cold: usize,
}

impl ReaderStream {
    fn new(seed: u64) -> Self {
        let weights: Vec<f64> = (0..HOT_SHAPES).map(|i| 1.0 / (i + 1) as f64).collect();
        let total: f64 = weights.iter().sum();
        ReaderStream {
            rng: Rng::new(seed ^ 0x5EED),
            weights: weights.iter().map(|w| w / total).collect(),
            next_cold: 0,
        }
    }

    fn next_shape(&mut self) -> Shape {
        if self.rng.unit() < COLD_SHARE {
            self.next_cold += 1;
            return cold(self.next_cold - 1);
        }
        let mut pick = self.rng.unit();
        for (index, weight) in self.weights.iter().enumerate() {
            if pick < *weight {
                return hot(index);
            }
            pick -= weight;
        }
        hot(HOT_SHAPES - 1)
    }
}

/// The writer's query: k=5 with a small line budget, so the writer's
/// cycle is dominated by the append path rather than the DP.
fn feed_query() -> TopkQuery {
    TopkQuery::new(5)
        .with_p_tau(1e-2)
        .with_max_lines(10)
        .with_typical_count(1)
        .with_u_topk(false)
}

fn client(addr: &str) -> RemoteQueryClient {
    RemoteQueryClient::new(addr)
        .with_connect_options(ConnectOptions::default().with_timeout(CLIENT_TIMEOUT))
}

fn start_daemon(config: &Config, roads: &Path) -> Result<Daemon, String> {
    let args: Vec<String> = vec![
        "serve".into(),
        format!("roads={}", roads.display()),
        "--live".into(),
        "feed".into(),
        "--score".into(),
        SCORE.into(),
        "--compact-at".into(),
        COMPACT_AT.to_string(),
        "--listen".into(),
        "127.0.0.1:0".into(),
    ];
    Daemon::spawn(&config.ttk, "serve", &args, &config.work)
}

/// One reader request: the shape, its latency, and the answer hash plus the
/// server's cache outcome (or the error).
struct Read {
    shape: Shape,
    ms: f64,
    answer: Result<(u64, bool), String>,
}

/// One writer cycle: append latency, then the feed query's latency and
/// answer hash plus the live segment count behind it.
struct Write {
    append_ms: f64,
    append: Result<(), String>,
    query_ms: f64,
    answer: Result<(u64, Option<u64>), String>,
}

/// The closed loops of both clients over one measured window.
struct Window {
    reads: Vec<Read>,
    writes: Vec<Write>,
    elapsed: Duration,
    writer_elapsed: Duration,
}

fn run_window(config: &Config, addr: &str, chunks: &[Vec<SourceTuple>]) -> Window {
    let deadline = Duration::from_secs_f64(config.seconds);
    let started = Instant::now();
    let (reads, (writes, writer_elapsed)) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let client = client(addr);
            let mut stream = ReaderStream::new(config.seed);
            let mut reads = Vec::new();
            while started.elapsed() < deadline {
                let shape = stream.next_shape();
                let sent = Instant::now();
                let answer = client
                    .execute("roads", &shape.query)
                    .map(|remote| (answer_hash(&remote.answer), remote.cache_hit))
                    .map_err(|e| e.to_string());
                let ms = sent.elapsed().as_secs_f64() * 1e3;
                reads.push(Read { shape, ms, answer });
            }
            reads
        });
        let writer = scope.spawn(|| {
            let client = client(addr);
            let mut writes = Vec::new();
            for chunk in chunks {
                if started.elapsed() >= deadline {
                    break;
                }
                let sent = Instant::now();
                let append = client
                    .append("feed", chunk.clone(), true)
                    .map(drop)
                    .map_err(|e| e.to_string());
                let append_ms = sent.elapsed().as_secs_f64() * 1e3;
                let sent = Instant::now();
                let answer = client
                    .execute("feed", &feed_query())
                    .map(|remote| (answer_hash(&remote.answer), remote.live_segments))
                    .map_err(|e| e.to_string());
                let query_ms = sent.elapsed().as_secs_f64() * 1e3;
                writes.push(Write {
                    append_ms,
                    append,
                    query_ms,
                    answer,
                });
            }
            (writes, started.elapsed())
        });
        (
            reader.join().expect("reader thread panicked"),
            writer.join().expect("writer thread panicked"),
        )
    });
    Window {
        reads,
        writes,
        elapsed: started.elapsed(),
        writer_elapsed,
    }
}

/// A local replica of the writer's schedule: the same appends and seals on
/// an in-process `AppendLog` configured like the daemon's.
fn replica() -> (Arc<AppendLog>, Dataset) {
    let log = Arc::new(AppendLog::new(SEAL_EVERY).with_compact_at(COMPACT_AT));
    let dataset = Dataset::from_provider(LiveDataset::new(Arc::clone(&log)));
    (log, dataset)
}

/// Checks every answer of the window: reader answers against a local table
/// of `roads`, feed answers against the replica after the same appends.
/// Returns the ops, with mismatches counted as failed.
fn check_window(
    window: &Window,
    roads: &Path,
    chunks: &[Vec<SourceTuple>],
    corrupt: bool,
    notes: &mut Vec<String>,
) -> Result<Ops, String> {
    let table = reference_table(&[roads.to_path_buf()])?;
    let mut references = References::default();
    for read in &window.reads {
        if !references.contains(&read.shape.label) {
            references.insert(
                &read.shape.label,
                reference_hash(&table, &read.shape.query)?,
            );
        }
    }
    if corrupt {
        references.corrupt(&hot(0).label);
    }
    let mut ops = Ops::default();
    for read in &window.reads {
        match &read.answer {
            Ok((hash, cache_hit)) => {
                let ok = references.matches_hash(&read.shape.label, *hash);
                if !ok {
                    notes.push(format!(
                        "`{}`: answer differs from its reference",
                        read.shape.label
                    ));
                }
                let class = if *cache_hit {
                    Class::Light
                } else {
                    Class::Heavy
                };
                ops.push(class, read.ms, ok);
            }
            Err(e) => {
                notes.push(format!("`{}` failed: {e}", read.shape.label));
                ops.push(Class::Heavy, read.ms, false);
            }
        }
    }
    let (log, dataset) = replica();
    let mut session = Session::new();
    for (write, chunk) in window.writes.iter().zip(chunks) {
        ops.push(Class::Write, write.append_ms, write.append.is_ok());
        if let Err(e) = &write.append {
            notes.push(format!("append failed: {e}"));
        }
        log.append(chunk.clone()).map_err(|e| e.to_string())?;
        log.seal();
        let reference = session
            .execute(&dataset, &feed_query())
            .map(|answer| answer_hash(&answer))
            .map_err(|e| e.to_string())?;
        let ok = match &write.answer {
            Ok((hash, _)) => *hash == reference,
            Err(e) => {
                notes.push(format!("feed query failed: {e}"));
                false
            }
        };
        if !ok && write.answer.is_ok() {
            notes.push("feed answer differs from the replica's".to_string());
        }
        ops.push(Class::Other, write.query_ms, ok);
    }
    Ok(ops)
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let size = if config.tiny { &TINY } else { &FULL };
    let roads: PathBuf = generate_cartel(
        &config.ttk,
        size.roads_segments,
        ROADS_SEED,
        &config.work.join("roads.csv"),
        1,
    )?
    .remove(0);
    let chunks: Vec<Vec<SourceTuple>> = feed_rows(size.feed_segments, FEED_SEED)?
        .chunks(size.chunk_rows)
        .take(size.max_chunks)
        .map(<[SourceTuple]>::to_vec)
        .collect();

    let mut setup = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        let started = start_daemon(config, &roads)?;
        setup.push(started.ready.as_secs_f64());
        if let Some(previous) = daemon.replace(started) {
            previous.drain()?;
        }
    }
    let daemon = daemon.expect("at least one set-up repetition");

    let window = run_window(config, &daemon.addr, &chunks);
    if config.trace {
        return traced(config, daemon, &window, &roads, &chunks);
    }
    let peak_rss = daemon.peak_rss_mb().unwrap_or(f64::NAN);
    daemon.drain()?;

    let mut notes = Vec::new();
    let ops = check_window(
        &window,
        &roads,
        &chunks,
        config.corrupt_reference,
        &mut notes,
    )?;
    let appended = window
        .writes
        .iter()
        .zip(&chunks)
        .filter(|(write, _)| write.append.is_ok())
        .map(|(_, chunk)| chunk.len())
        .sum::<usize>();
    let metrics = end_to_end(
        &ops,
        window.elapsed,
        &setup,
        appended as f64,
        window.writer_elapsed,
        peak_rss,
    );
    let hits = ops.latencies(&[Class::Light]);
    let misses = ops.latencies(&[Class::Heavy]);
    let appends = ops.latencies(&[Class::Write]);
    let feed = ops.latencies(&[Class::Other]);
    let details = vec![
        Metric::new("hit_p50_ms", median(&hits), "ms", hits.len()),
        Metric::new("miss_p50_ms", median(&misses), "ms", misses.len()),
        Metric::new(
            "hit_share",
            hits.len() as f64 / (hits.len() + misses.len()).max(1) as f64,
            "ratio",
            hits.len() + misses.len(),
        ),
        Metric::new("append_p50_ms", median(&appends), "ms", appends.len()),
        Metric::new(
            "append_rows_per_s",
            appended as f64 / window.writer_elapsed.as_secs_f64(),
            "1/s",
            appended,
        ),
        Metric::new("feed_query_p50_ms", median(&feed), "ms", feed.len()),
        error_rate(&ops),
    ];
    Ok(Outcome {
        metrics,
        details,
        attempted: ops.attempted(),
        failed: ops.failed(),
        notes,
    })
}

/// Parses `N hit(s), M miss(es)` out of an admin stats report.
fn stats_hit_ratio(report: &str) -> Option<f64> {
    let line = report.lines().find(|l| l.starts_with("result cache:"))?;
    let mut numbers = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<f64>());
    let hits = numbers.next()?.ok()?;
    let misses = numbers.next()?.ok()?;
    Some(if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    })
}

/// Parses the evictions out of the daemon's drain line
/// (`result cache: H hits, M misses, E evictions, X expirations`).
fn drain_evictions(stderr: &str) -> Option<f64> {
    let line = stderr
        .lines()
        .rev()
        .find(|l| l.starts_with("result cache:") && l.contains("evictions"))?;
    line.split(',')
        .find(|part| part.contains("evictions"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// One query request over a fresh connection, timed: (dial ms, round trip
/// ms, answer hash). The same client code runs against the real daemon and
/// the benchmark's in-process listener.
fn probe_request(addr: &str, query: &TopkQuery) -> Result<(f64, f64, u64), String> {
    let started = Instant::now();
    let stream = TcpStream::connect(addr).map_err(|e| format!("dialing {addr}: {e}"))?;
    let dial_ms = started.elapsed().as_secs_f64() * 1e3;
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .map_err(|e| e.to_string())?;
    wire::write_query_request(&mut &stream, &request_for("roads", query))
        .map_err(|e| e.to_string())?;
    let result =
        wire::read_query_result(&mut BufReader::new(&stream)).map_err(|e| e.to_string())?;
    let rtt_ms = started.elapsed().as_secs_f64() * 1e3;
    let (answer, _) = answer_from_wire(result);
    Ok((dial_ms, rtt_ms, answer_hash(&answer)))
}

/// `PROBE_REQUESTS` timed hits of the hot shape against `addr` (after one
/// untimed request that fills the cache).
fn probe_hits(addr: &str) -> Result<(Vec<f64>, Vec<f64>), String> {
    let query = hot(0).query;
    probe_request(addr, &query)?;
    let mut dials = Vec::new();
    let mut rtts = Vec::new();
    for _ in 0..PROBE_REQUESTS {
        let (dial, rtt, _) = probe_request(addr, &query)?;
        dials.push(dial);
        rtts.push(rtt);
    }
    Ok((dials, rtts))
}

/// The same hit requests served by `serve_query` on a benchmark-owned
/// loopback listener: the daemon runtime's own cost is the difference.
fn probe_in_process(roads: &Path) -> Result<Vec<f64>, String> {
    let registry = DatasetRegistry::new();
    registry
        .register("roads", csv_dataset(&[roads.to_path_buf()])?.into_dataset())
        .map_err(|e| e.to_string())?;
    let cache = ResultCache::new(64);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let options = QueryServeOptions {
        request_wait: CLIENT_TIMEOUT,
        ..QueryServeOptions::default()
    };
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let mut session = Session::new();
            // Exactly one connection per probe request (the probe client
            // never retries), so the loop always ends.
            for _ in 0..=PROBE_REQUESTS {
                if let Ok((stream, _)) = listener.accept() {
                    let _ = serve_query(stream, &registry, &cache, &mut session, &options);
                }
            }
        });
        let probed = probe_hits(&addr).map(|(_, rtts)| rtts);
        if probed.is_err() {
            // Unblock the accept loop if the client gave up early.
            for _ in 0..=PROBE_REQUESTS {
                let _ = TcpStream::connect(&addr);
            }
        }
        server.join().expect("in-process server panicked");
        probed
    })
}

fn traced(
    config: &Config,
    daemon: Daemon,
    window: &Window,
    roads: &Path,
    chunks: &[Vec<SourceTuple>],
) -> Result<Outcome, String> {
    let admin = client(&daemon.addr)
        .admin(&AdminRequest {
            verb: AdminVerb::Stats,
            name: String::new(),
            arg: String::new(),
        })
        .map_err(|e| e.to_string())?;
    let hit_ratio = stats_hit_ratio(&admin).ok_or("no cache counters in admin stats")?;
    let (dials, daemon_rtts) = probe_hits(&daemon.addr)?;
    let stderr = daemon.drain()?;
    let evictions = drain_evictions(&stderr).ok_or("no cache totals in the drain log")?;
    let inproc_rtts = probe_in_process(roads)?;

    let table = reference_table(&[roads.to_path_buf()])?;
    let provider = csv_dataset(&[roads.to_path_buf()])?.into_dataset();
    let mut run = TraceRun::default();
    let mut session = Session::new();
    // Every hot shape the reader sent (so U-Topk-on shapes are always
    // traced), then one-off shapes up to the cap, in order of first use.
    let mut traced: Vec<&Shape> = Vec::new();
    for read in &window.reads {
        if traced.iter().all(|shape| shape.label != read.shape.label) {
            traced.push(&read.shape);
        }
    }
    traced.sort_by_key(|shape| shape.class == Class::Heavy);
    traced.truncate(TRACED_SHAPES);
    let mut references = References::default();
    for shape in &traced {
        references.insert(&shape.label, reference_hash(&table, &shape.query)?);
    }
    for shape in traced {
        run.query(&mut session, &provider, shape, Some(&references));
    }

    // The writer's schedule on a replica: appends, seals (compacting or
    // not) and the feed query after each, traced like every other query.
    let (log, dataset) = replica();
    let mut append_ms = Vec::new();
    let mut seal_ms = Vec::new();
    let mut compact_ms = Vec::new();
    let feed = Shape {
        label: "feed".to_string(),
        class: Class::Other,
        dataset: 0,
        query: feed_query(),
    };
    let mut feed_session = Session::new();
    let first_feed = run.untraced_ms.len();
    for chunk in chunks.iter().take(window.writes.len()) {
        let started = Instant::now();
        log.append(chunk.clone()).map_err(|e| e.to_string())?;
        append_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let compacted_before = log.snapshot().compacted_epoch();
        let started = Instant::now();
        log.seal();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        if log.snapshot().compacted_epoch() != compacted_before {
            compact_ms.push(ms);
        } else {
            seal_ms.push(ms);
        }
        // Each epoch is its own shape: counts legitimately change as the
        // feed grows.
        let shape = Shape {
            label: format!("feed@{}", log.epoch()),
            ..feed.clone()
        };
        run.query(&mut feed_session, &dataset, &shape, None);
    }
    let live_query_ms = median(&run.untraced_ms[first_feed..]);

    let segments: Vec<f64> = window
        .writes
        .iter()
        .filter_map(|w| w.answer.as_ref().ok().and_then(|(_, s)| *s))
        .map(|s| s as f64)
        .collect();
    let daemon_hit = median(&daemon_rtts);
    let inproc_hit = median(&inproc_rtts);
    let details = vec![
        Metric::new("daemon.dial_ms", median(&dials), "ms", dials.len()),
        Metric::new("daemon.hit_rtt_ms", daemon_hit, "ms", daemon_rtts.len()),
        Metric::new("daemon.inproc_hit_ms", inproc_hit, "ms", inproc_rtts.len()),
        Metric::new(
            "daemon.overhead_ms",
            daemon_hit - inproc_hit,
            "ms",
            daemon_rtts.len(),
        ),
        Metric::new("live.append_ms", median(&append_ms), "ms", append_ms.len()),
        Metric::new("live.seal_ms", median(&seal_ms), "ms", seal_ms.len()),
        Metric::new(
            "live.compact_ms",
            median(&compact_ms),
            "ms",
            compact_ms.len(),
        ),
        Metric::new(
            "live.query_ms",
            live_query_ms,
            "ms",
            run.untraced_ms.len() - first_feed,
        ),
    ];
    let server = ServerLayers {
        hit_ratio,
        evictions,
        live_segments: mean(&segments),
    };
    run.finish(config, NAME, server, details)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cache_counters() {
        let report = "resident datasets: 2\n  feed: live\nresult cache: 8 hit(s), 2 miss(es), \
                      0 expiration(s), generation 3";
        assert_eq!(stats_hit_ratio(report), Some(0.8));
        let log = "serving ...\nresult cache: 5 hits, 4 misses, 17 evictions, 0 expirations\n";
        assert_eq!(drain_evictions(log), Some(17.0));
    }

    #[test]
    fn reader_stream_is_mostly_hot() {
        let mut stream = ReaderStream::new(1);
        let cold = (0..1000)
            .filter(|_| stream.next_shape().class == Class::Heavy)
            .count();
        assert!((150..250).contains(&cold), "{cold}");
    }
}
