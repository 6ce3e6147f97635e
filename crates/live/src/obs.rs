//! The networked observability plane: one stats producer, fan-out trace
//! streaming, and a line-protocol TCP server — all dependency-free.
//!
//! Three pieces, composable but separable:
//!
//! * [`StatsPump`] — the **single** producer of `ta-stats/v2` lines.
//!   One thread snapshots the registry and renders one shared line per
//!   tick-group, delivered to stdout (`--stats-every`) and to every
//!   `WATCH` subscriber whose interval is due. Because every line comes
//!   from one producer over one registry epoch counter, `seq` is a
//!   single strictly-monotone stream no matter how many sinks consume
//!   it. [`StatsPump::finalize`] emits one last identical line to
//!   stdout *and* every subscriber, so a scraper's final line can be
//!   compared byte-for-byte against the process's own final stats line.
//! * [`TraceBus`] — the collector thread that drains the per-worker
//!   SPSC trace rings, writes the optional `--trace-out` JSONL file,
//!   and broadcasts each record to `TRACE` subscribers. Per-subscriber
//!   queues are bounded and **drop-and-count** ([`c::OBS_DROPPED_TRACE`]);
//!   the hot path is never back-pressured by a slow reader. Every
//!   subscriber gets an end-of-stream trailer closing the books:
//!   `streamed + dropped + missed + ring_dropped == sampled`.
//! * [`ObsServer`] — a non-blocking `std::net` TCP listener speaking a
//!   newline-delimited protocol: `STATS` (one v2 line), `WATCH <ms>`
//!   (pushed lines on an interval), `TRACE <n>` (sampled decision
//!   records as JSONL, arming 1-in-`n` sampling if tracing was off).
//!
//! Queue overflow policy everywhere: the producer side uses `try_send`
//! on a bounded channel and counts the loss on the control lane — a
//! stalled TCP reader costs that reader data, never the admission path
//! throughput.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ta_telemetry::{
    print_line, stats_line, stats_line_with, Handle, Snapshot, TraceConsumer, TraceRecord,
};

use crate::health::{Component, HealthBoard};
use crate::telem::{c, LiveTelemetry};

/// Bounded stats lines queued per `WATCH` subscriber.
const WATCH_QUEUE: usize = 8;
/// Bounded trace records queued per `TRACE` subscriber.
const TRACE_QUEUE: usize = 1024;
/// How long finalize/EOS delivery retries before dropping the line.
const FINAL_PATIENCE: Duration = Duration::from_millis(500);

/// The single producer of stats lines (see the [module docs](self)).
#[derive(Debug)]
pub struct StatsPump {
    shared: Arc<PumpShared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

#[derive(Debug)]
struct PumpShared {
    telem: Arc<LiveTelemetry>,
    start: Instant,
    stop: AtomicBool,
    stdout_every: Option<Duration>,
    sinks: Mutex<Vec<WatchSink>>,
    control: Handle,
    health: OnceLock<Arc<HealthBoard>>,
}

#[derive(Debug)]
struct WatchSink {
    tx: SyncSender<Arc<String>>,
    every: Duration,
    next: Instant,
}

impl StatsPump {
    /// Starts the pump thread. `start` anchors `uptime_ms`;
    /// `stdout_every` is the `--stats-every` interval (`None` = no
    /// stdout emission, `WATCH` subscribers only).
    pub fn start(
        telem: Arc<LiveTelemetry>,
        start: Instant,
        stdout_every: Option<Duration>,
    ) -> Arc<Self> {
        let control = telem.control_handle();
        let shared = Arc::new(PumpShared {
            telem,
            start,
            stop: AtomicBool::new(false),
            stdout_every,
            sinks: Mutex::new(Vec::new()),
            control,
            health: OnceLock::new(),
        });
        let loop_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("ta-stats-pump".into())
            .spawn(move || pump_loop(&loop_shared))
            .expect("spawn stats pump");
        Arc::new(StatsPump {
            shared,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// Attaches a health board: the pump heartbeats as
    /// [`Component::StatsPump`] and every rendered line carries a
    /// `health` section. First attach wins.
    pub fn attach_health(&self, board: Arc<HealthBoard>) {
        let _ = self.shared.health.set(board);
    }

    /// Renders one stats line right now (the `STATS` one-shot). Shares
    /// the registry epoch with the pump's periodic lines, so `seq` stays
    /// one monotone stream across both paths.
    pub fn render_now(&self) -> String {
        render(&self.shared)
    }

    /// Subscribes a `WATCH` sink: one line pushed per `every` interval,
    /// bounded queue, drop-and-count on overflow.
    pub fn subscribe(&self, every: Duration) -> Receiver<Arc<String>> {
        let (tx, rx) = mpsc::sync_channel(WATCH_QUEUE);
        self.shared
            .sinks
            .lock()
            .expect("watch sinks")
            .push(WatchSink {
                tx,
                every: every.max(Duration::from_millis(1)),
                next: Instant::now(),
            });
        rx
    }

    /// Stops the pump and emits **one final line** — identical bytes —
    /// to stdout (when configured) and to every live subscriber, then
    /// disconnects them. Returns the line; it is the process's last
    /// word on its counters, so a scraper's final received line must
    /// equal it.
    pub fn finalize(&self) -> String {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.lock().expect("pump thread").take() {
            let _ = t.join();
        }
        let line = Arc::new(render(&self.shared));
        if self.shared.stdout_every.is_some() {
            print_line(&line);
        }
        let sinks = std::mem::take(&mut *self.shared.sinks.lock().expect("watch sinks"));
        for sink in &sinks {
            if send_patiently(&sink.tx, Arc::clone(&line), FINAL_PATIENCE) {
                self.shared.control.incr(c::OBS_WATCH_LINES);
            } else {
                self.shared.control.incr(c::OBS_DROPPED_WATCH);
            }
        }
        // Dropping `sinks` here disconnects every WATCH stream.
        line.as_ref().clone()
    }
}

fn render(shared: &PumpShared) -> String {
    let snap = shared.telem.snapshot();
    let uptime_ms = shared.start.elapsed().as_millis() as u64;
    match shared.health.get() {
        Some(board) => stats_line_with(&snap, uptime_ms, &[("health", board.render_json())]),
        None => stats_line(&snap, uptime_ms),
    }
}

fn pump_loop(shared: &PumpShared) {
    let mut stdout_next = shared.stdout_every.map(|e| Instant::now() + e);
    while !shared.stop.load(Ordering::Acquire) {
        if let Some(b) = shared.health.get() {
            b.beat(Component::StatsPump);
        }
        std::thread::sleep(Duration::from_millis(1));
        let now = Instant::now();
        let stdout_due = stdout_next.is_some_and(|n| now >= n);
        let mut sinks = shared.sinks.lock().expect("watch sinks");
        if !stdout_due && !sinks.iter().any(|s| now >= s.next) {
            continue;
        }
        // One snapshot, one line, every due sink: the tick-group shares
        // the exact bytes (and therefore the `seq`).
        let line = Arc::new(render(shared));
        if stdout_due {
            print_line(&line);
            stdout_next = Some(now + shared.stdout_every.expect("stdout interval"));
        }
        sinks.retain_mut(|s| {
            if now < s.next {
                return true;
            }
            s.next = now + s.every;
            match s.tx.try_send(Arc::clone(&line)) {
                Ok(()) => {
                    shared.control.incr(c::OBS_WATCH_LINES);
                    true
                }
                Err(TrySendError::Full(_)) => {
                    shared.control.incr(c::OBS_DROPPED_WATCH);
                    true
                }
                Err(TrySendError::Disconnected(_)) => false,
            }
        });
    }
}

/// Retries `try_send` until it lands or `patience` runs out. Used only
/// for final/EOS lines, off the hot path.
fn send_patiently(tx: &SyncSender<Arc<String>>, line: Arc<String>, patience: Duration) -> bool {
    let deadline = Instant::now() + patience;
    let mut line = line;
    loop {
        match tx.try_send(line) {
            Ok(()) => return true,
            Err(TrySendError::Disconnected(_)) => return false,
            Err(TrySendError::Full(l)) => {
                if Instant::now() >= deadline {
                    return false;
                }
                line = l;
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// A `TRACE` subscription: the record stream plus how many records the
/// bus had already drained (and therefore this subscriber will never
/// see) at subscribe time.
#[derive(Debug)]
pub struct TraceSub {
    /// Sampled decision records as JSON lines; ends with the EOS trailer.
    pub rx: Receiver<Arc<String>>,
    /// Records drained before this subscription existed.
    pub missed_at_start: u64,
}

/// The trace collector + broadcaster (see the [module docs](self)).
#[derive(Debug)]
pub struct TraceBus {
    shared: Arc<BusShared>,
    thread: Mutex<Option<JoinHandle<io::Result<u64>>>>,
}

#[derive(Debug)]
struct BusShared {
    stop: AtomicBool,
    /// Records drained from the rings so far. Written under the `subs`
    /// lock *before* the batch is broadcast, so `missed_at_start` and
    /// the delivered stream partition the drained records exactly.
    drained: AtomicU64,
    subs: Mutex<Vec<BusSink>>,
    control: Handle,
    health: OnceLock<Arc<HealthBoard>>,
}

#[derive(Debug)]
struct BusSink {
    tx: SyncSender<Arc<String>>,
    streamed: u64,
    dropped: u64,
    missed: u64,
    live: bool,
}

impl TraceBus {
    /// Takes exclusive ownership of the telemetry's trace rings and
    /// starts the collector thread; `out` adds a JSONL file sink.
    pub fn start(telem: &LiveTelemetry, out: Option<PathBuf>) -> Arc<Self> {
        let consumers = telem.take_consumers();
        let shared = Arc::new(BusShared {
            stop: AtomicBool::new(false),
            drained: AtomicU64::new(0),
            subs: Mutex::new(Vec::new()),
            control: telem.control_handle(),
            health: OnceLock::new(),
        });
        let loop_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("ta-trace-bus".into())
            .spawn(move || bus_loop(&loop_shared, consumers, out))
            .expect("spawn trace bus");
        Arc::new(TraceBus {
            shared,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// Attaches a health board: the collector heartbeats as
    /// [`Component::TraceBus`] on every drain sweep. First attach wins.
    pub fn attach_health(&self, board: Arc<HealthBoard>) {
        let _ = self.shared.health.set(board);
    }

    /// Subscribes a `TRACE` sink (bounded queue, drop-and-count).
    pub fn subscribe(&self) -> TraceSub {
        let (tx, rx) = mpsc::sync_channel(TRACE_QUEUE);
        let mut subs = self.shared.subs.lock().expect("trace subs");
        let missed = self.shared.drained.load(Ordering::Acquire);
        subs.push(BusSink {
            tx,
            streamed: 0,
            dropped: 0,
            missed,
            live: true,
        });
        TraceSub {
            rx,
            missed_at_start: missed,
        }
    }

    /// Stops the collector once the rings are dry (call after workers
    /// joined), sends each live subscriber an EOS trailer closing the
    /// books against `snap` — a snapshot taken *after* the run — and
    /// returns the number of records written to the file sink.
    ///
    /// Trailer: `{"eos":true,"streamed":..,"dropped":..,"missed":..,
    /// "ring_dropped":..,"sampled":..}` with the invariant
    /// `streamed + dropped + missed + ring_dropped == sampled`.
    pub fn finish(&self, snap: &Snapshot) -> io::Result<u64> {
        self.shared.stop.store(true, Ordering::Release);
        let lines = match self.thread.lock().expect("bus thread").take() {
            Some(t) => t.join().expect("trace bus panicked")?,
            None => 0,
        };
        let sampled = snap.counter(c::TRACE_SAMPLED);
        let ring_dropped = snap.counter(c::TRACE_DROPPED);
        let subs = std::mem::take(&mut *self.shared.subs.lock().expect("trace subs"));
        for s in subs.iter().filter(|s| s.live) {
            let eos = format!(
                "{{\"eos\":true,\"streamed\":{},\"dropped\":{},\"missed\":{},\
                 \"ring_dropped\":{},\"sampled\":{}}}",
                s.streamed, s.dropped, s.missed, ring_dropped, sampled
            );
            let _ = send_patiently(&s.tx, Arc::new(eos), FINAL_PATIENCE);
        }
        Ok(lines)
    }
}

fn bus_loop(
    shared: &BusShared,
    mut consumers: Vec<TraceConsumer>,
    out: Option<PathBuf>,
) -> io::Result<u64> {
    let mut writer = match &out {
        Some(p) => Some(BufWriter::new(File::create(p)?)),
        None => None,
    };
    let mut buf: Vec<TraceRecord> = Vec::new();
    let mut lines = 0u64;
    loop {
        if let Some(b) = shared.health.get() {
            b.beat(Component::TraceBus);
        }
        let mut drained = 0;
        for cons in consumers.iter_mut() {
            drained += cons.drain(&mut buf);
        }
        if drained == 0 {
            // Workers are joined before `stop` is raised, so an empty
            // sweep after it means the rings are dry for good.
            if shared.stop.load(Ordering::Acquire) {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
            continue;
        }
        let mut subs = shared.subs.lock().expect("trace subs");
        shared.drained.fetch_add(drained as u64, Ordering::Release);
        for rec in buf.drain(..) {
            let json = rec.to_json();
            if let Some(w) = writer.as_mut() {
                w.write_all(json.as_bytes())?;
                w.write_all(b"\n")?;
            }
            lines += 1;
            if subs.iter().any(|s| s.live) {
                let line = Arc::new(json);
                for s in subs.iter_mut().filter(|s| s.live) {
                    match s.tx.try_send(Arc::clone(&line)) {
                        Ok(()) => {
                            s.streamed += 1;
                            shared.control.incr(c::OBS_TRACE_STREAMED);
                        }
                        Err(TrySendError::Full(_)) => {
                            s.dropped += 1;
                            shared.control.incr(c::OBS_DROPPED_TRACE);
                        }
                        Err(TrySendError::Disconnected(_)) => s.live = false,
                    }
                }
            }
        }
    }
    if let Some(mut w) = writer {
        w.flush()?;
    }
    Ok(lines)
}

/// The TCP observability server (see the [module docs](self) for the
/// wire protocol).
#[derive(Debug)]
pub struct ObsServer {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts the accept loop.
    pub fn spawn(
        addr: &str,
        telem: &Arc<LiveTelemetry>,
        pump: Arc<StatsPump>,
        bus: Arc<TraceBus>,
    ) -> io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let loop_stop = Arc::clone(&stop);
        let gate = Arc::clone(telem.gate());
        let control = telem.control_handle();
        let thread = std::thread::Builder::new()
            .name("ta-obs".into())
            .spawn(move || accept_loop(listener, loop_stop, pump, bus, gate, control))?;
        Ok(ObsServer {
            stop,
            thread: Some(thread),
            addr: local,
        })
    }

    /// The bound address (port resolved when binding `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins every connection thread. Call after
    /// [`StatsPump::finalize`] and [`TraceBus::finish`]: streaming
    /// connections exit when their (disconnected) queues run dry.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[allow(clippy::needless_pass_by_value)]
fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    pump: Arc<StatsPump>,
    bus: Arc<TraceBus>,
    gate: Arc<ta_telemetry::SampleGate>,
    control: Handle,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                control.incr(c::OBS_CONNECTIONS);
                let pump = Arc::clone(&pump);
                let bus = Arc::clone(&bus);
                let gate = Arc::clone(&gate);
                let stop = Arc::clone(&stop);
                let control = control.clone();
                conns.push(std::thread::spawn(move || {
                    let _ = serve_conn(stream, &stop, &pump, &bus, &gate, &control);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
    for conn in conns {
        let _ = conn.join();
    }
}

fn serve_conn(
    stream: TcpStream,
    stop: &AtomicBool,
    pump: &StatsPump,
    bus: &TraceBus,
    gate: &ta_telemetry::SampleGate,
    control: &Handle,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let mut line = String::new();
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(e) => return Err(e),
        }
        let cmd = line.trim();
        if cmd.is_empty() {
            continue;
        }
        let mut words = cmd.split_whitespace();
        let verb = words.next().map(|w| w.to_ascii_uppercase());
        let arg = words.next().and_then(|v| v.parse::<u64>().ok());
        match verb.as_deref() {
            Some("STATS") => {
                control.incr(c::OBS_STATS_REQUESTS);
                out.write_all(pump.render_now().as_bytes())?;
                out.write_all(b"\n")?;
            }
            Some("WATCH") => match arg.filter(|ms| *ms > 0) {
                Some(ms) => {
                    let rx = pump.subscribe(Duration::from_millis(ms));
                    return stream_lines(&rx, out, stop);
                }
                None => out.write_all(b"ERR WATCH needs a positive interval in ms\n")?,
            },
            Some("TRACE") => match arg {
                Some(n) => {
                    // Arm 1-in-n sampling if tracing was off; an explicit
                    // --trace-sample (gate already nonzero) wins.
                    if n > 0 && gate.get() == 0 {
                        gate.set(n as u32);
                    }
                    let sub = bus.subscribe();
                    return stream_lines(&sub.rx, out, stop);
                }
                None => out.write_all(b"ERR TRACE needs a sample interval\n")?,
            },
            _ => out.write_all(b"ERR unknown command (STATS | WATCH <ms> | TRACE <n>)\n")?,
        }
    }
}

/// Forwards queued lines to the socket until the producer disconnects
/// (finalize/EOS already queued) — then drains what's left and returns.
fn stream_lines(
    rx: &Receiver<Arc<String>>,
    mut out: TcpStream,
    stop: &AtomicBool,
) -> io::Result<()> {
    loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(line) => {
                out.write_all(line.as_bytes())?;
                out.write_all(b"\n")?;
            }
            Err(RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::Acquire) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // The channel buffers survive sender drop: flush the tail (final
    // stats line / EOS trailer) before closing.
    for line in rx.try_iter() {
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::LiveCounters;
    use token_account::live::Decision;

    fn parse_seq(line: &str) -> u64 {
        line.split("\"seq\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no seq in {line}"))
    }

    #[test]
    fn stats_pump_seq_is_one_monotone_stream_across_sinks() {
        let telem = LiveTelemetry::new(1, 0, 16);
        let pump = StatsPump::start(Arc::clone(&telem), Instant::now(), None);
        // Intervals chosen so fewer than WATCH_QUEUE lines accumulate in
        // the unread queues before finalize.
        let a = pump.subscribe(Duration::from_millis(10));
        let b = pump.subscribe(Duration::from_millis(10));
        // One-shot STATS renders interleave with the periodic stream.
        let s1 = parse_seq(&pump.render_now());
        std::thread::sleep(Duration::from_millis(35));
        let s2 = parse_seq(&pump.render_now());
        assert!(s2 > s1);
        let last = pump.finalize();
        let lines_a: Vec<String> = a.try_iter().map(|l| l.as_ref().clone()).collect();
        let lines_b: Vec<String> = b.try_iter().map(|l| l.as_ref().clone()).collect();
        assert!(!lines_a.is_empty() && !lines_b.is_empty());
        for lines in [&lines_a, &lines_b] {
            let seqs: Vec<u64> = lines.iter().map(|l| parse_seq(l)).collect();
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "seq not strictly increasing: {seqs:?}"
            );
        }
        // Both sinks end on the finalize line — identical bytes.
        assert_eq!(lines_a.last().unwrap(), &last);
        assert_eq!(lines_b.last().unwrap(), &last);
        // A seq shared between sinks means the very same tick-group
        // line, byte for byte.
        for la in &lines_a {
            for lb in &lines_b {
                if parse_seq(la) == parse_seq(lb) {
                    assert_eq!(la, lb);
                }
            }
        }
    }

    #[test]
    fn attached_board_puts_a_health_section_on_every_line() {
        use crate::health::{HealthState, OnJournalFail};
        let telem = LiveTelemetry::new(1, 0, 16);
        let pump = StatsPump::start(Arc::clone(&telem), Instant::now(), None);
        let board = HealthBoard::new(OnJournalFail::Halt);
        pump.attach_health(Arc::clone(&board));
        board.set_state(Component::Granter, HealthState::Degraded);
        let line = pump.render_now();
        assert!(line.starts_with("{\"schema\":\"ta-stats/v2\""), "{line}");
        assert!(
            line.contains(",\"health\":{\"policy\":\"halt\""),
            "no health section: {line}"
        );
        assert!(line.contains("\"granter\":\"degraded\""), "{line}");
        assert!(line.ends_with("\"durability\":\"ok\"}}"), "{line}");
        // The pump heartbeats as StatsPump once the board is attached.
        let deadline = Instant::now() + Duration::from_secs(5);
        while board.last_beat_ns(Component::StatsPump) == 0 {
            assert!(Instant::now() < deadline, "pump never beat");
            std::thread::sleep(Duration::from_millis(2));
        }
        pump.finalize();
    }

    #[test]
    fn watch_overflow_drops_and_counts_without_blocking() {
        let telem = LiveTelemetry::new(1, 0, 16);
        let pump = StatsPump::start(Arc::clone(&telem), Instant::now(), None);
        // Subscribe and never read: the bounded queue fills, further
        // lines are dropped, and the pump keeps running.
        let _rx = pump.subscribe(Duration::from_millis(1));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let snap = telem.snapshot();
            if snap.counter(c::OBS_DROPPED_WATCH) > 0 {
                assert!(snap.counter(c::OBS_WATCH_LINES) >= WATCH_QUEUE as u64);
                break;
            }
            assert!(Instant::now() < deadline, "no drops recorded");
            std::thread::sleep(Duration::from_millis(5));
        }
        pump.finalize();
    }

    #[test]
    fn trace_bus_closes_the_books_over_subscribers() {
        let telem = LiveTelemetry::new(1, 1, 1 << 14);
        let bus = TraceBus::start(&telem, None);
        let early = bus.subscribe();
        let mut wt = telem.worker(0);
        let mut counters = LiveCounters::default();
        // Totals stay under TRACE_QUEUE so the unread test subscribers
        // can still take the EOS trailer after the fact.
        for i in 0..600u64 {
            counters.requests += 1;
            counters.reactive_held += 1;
            wt.record_admit(50);
            wt.trace(i as usize, Decision::Hold, || 0);
        }
        // A late subscriber misses everything already drained.
        std::thread::sleep(Duration::from_millis(30));
        let late = bus.subscribe();
        for i in 0..400u64 {
            counters.requests += 1;
            counters.reactive_held += 1;
            wt.record_admit(50);
            wt.trace(i as usize, Decision::Hold, || 0);
        }
        wt.flush(&counters);
        // Let the bus drain the rings dry before closing the books.
        std::thread::sleep(Duration::from_millis(50));
        let snap = telem.snapshot();
        bus.finish(&snap).expect("bus finish");
        let sampled = snap.counter(c::TRACE_SAMPLED);
        let ring_dropped = snap.counter(c::TRACE_DROPPED);
        assert_eq!(sampled, 1_000);
        for sub in [early, late] {
            let lines: Vec<String> = sub.rx.iter().map(|l| l.as_ref().clone()).collect();
            let eos = lines.last().expect("eos trailer");
            assert!(eos.starts_with("{\"eos\":true,"), "trailer: {eos}");
            let field = |key: &str| -> u64 {
                eos.split(&format!("\"{key}\":"))
                    .nth(1)
                    .and_then(|s| s.split([',', '}']).next())
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("no {key} in {eos}"))
            };
            assert_eq!(field("sampled"), sampled);
            assert_eq!(field("missed"), sub.missed_at_start);
            // Exact wire closure: every sampled record is accounted for.
            assert_eq!(
                field("streamed") + field("dropped") + field("missed") + ring_dropped,
                sampled
            );
            // Everything queued actually reached this subscriber.
            assert_eq!(lines.len() as u64 - 1, field("streamed"));
        }
    }

    #[test]
    fn obs_server_speaks_stats_watch_and_errors() {
        let telem = LiveTelemetry::new(1, 0, 16);
        let pump = StatsPump::start(Arc::clone(&telem), Instant::now(), None);
        let bus = TraceBus::start(&telem, None);
        let server =
            ObsServer::spawn("127.0.0.1:0", &telem, Arc::clone(&pump), Arc::clone(&bus)).unwrap();
        let addr = server.addr();

        // STATS: one v2 line per request, seq strictly increasing.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"STATS\n").unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut l1 = String::new();
        reader.read_line(&mut l1).unwrap();
        assert!(l1.starts_with("{\"schema\":\"ta-stats/v2\""), "{l1}");
        conn.write_all(b"STATS\n").unwrap();
        let mut l2 = String::new();
        reader.read_line(&mut l2).unwrap();
        assert!(parse_seq(&l2) > parse_seq(&l1));
        // Unknown verbs get a diagnostic, not a hangup.
        conn.write_all(b"NONSENSE\n").unwrap();
        let mut l3 = String::new();
        reader.read_line(&mut l3).unwrap();
        assert!(l3.starts_with("ERR"), "{l3}");
        drop(reader);
        drop(conn);

        // WATCH: pushed lines on an interval until the pump finalizes;
        // the final pushed line equals the pump's final line.
        let mut watch = TcpStream::connect(addr).unwrap();
        watch.write_all(b"WATCH 3\n").unwrap();
        let mut wreader = BufReader::new(watch);
        let mut first = String::new();
        wreader.read_line(&mut first).unwrap();
        assert!(first.starts_with("{\"schema\":\"ta-stats/v2\""), "{first}");
        std::thread::sleep(Duration::from_millis(20));
        let final_line = pump.finalize();
        let snap = telem.snapshot();
        bus.finish(&snap).unwrap();
        let mut last = first.clone();
        let mut cur = String::new();
        while {
            cur.clear();
            wreader.read_line(&mut cur).unwrap() > 0
        } {
            last = cur.clone();
        }
        assert_eq!(last.trim_end(), final_line);
        server.shutdown();
        let snap = telem.snapshot();
        assert!(snap.counter(c::OBS_CONNECTIONS) >= 2);
        assert_eq!(snap.counter(c::OBS_STATS_REQUESTS), 2);
        assert!(snap.counter(c::OBS_WATCH_LINES) >= 2);
    }

    #[test]
    fn trace_over_tcp_arms_the_gate_and_closes_at_eos() {
        let telem = LiveTelemetry::new(1, 0, 1 << 12);
        let pump = StatsPump::start(Arc::clone(&telem), Instant::now(), None);
        let bus = TraceBus::start(&telem, None);
        let server =
            ObsServer::spawn("127.0.0.1:0", &telem, Arc::clone(&pump), Arc::clone(&bus)).unwrap();

        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.write_all(b"TRACE 1\n").unwrap();
        // Wait for the server to arm 1-in-1 sampling.
        let deadline = Instant::now() + Duration::from_secs(5);
        while telem.gate().get() == 0 {
            assert!(Instant::now() < deadline, "gate never armed");
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut wt = telem.worker(0);
        let mut counters = LiveCounters::default();
        for i in 0..1_000u64 {
            counters.requests += 1;
            counters.reactive_held += 1;
            wt.record_admit(10);
            wt.trace(i as usize, Decision::Hold, || 0);
        }
        wt.flush(&counters);
        std::thread::sleep(Duration::from_millis(50));
        pump.finalize();
        let snap = telem.snapshot();
        bus.finish(&snap).unwrap();
        let mut records = 0u64;
        let mut eos = String::new();
        let mut reader = BufReader::new(conn);
        let mut line = String::new();
        while {
            line.clear();
            reader.read_line(&mut line).unwrap() > 0
        } {
            if line.starts_with("{\"eos\"") {
                eos = line.trim_end().to_string();
            } else {
                assert!(line.starts_with("{\"t_ns\":"), "{line}");
                records += 1;
            }
        }
        server.shutdown();
        assert!(!eos.is_empty(), "no EOS trailer");
        let field = |key: &str| -> u64 {
            eos.split(&format!("\"{key}\":"))
                .nth(1)
                .and_then(|s| s.split([',', '}']).next())
                .and_then(|s| s.parse().ok())
                .unwrap()
        };
        assert_eq!(field("sampled"), 1_000);
        assert_eq!(field("streamed"), records);
        assert_eq!(
            field("streamed") + field("dropped") + field("missed") + field("ring_dropped"),
            field("sampled")
        );
    }
}
