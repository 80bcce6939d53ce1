//! The load generator's side of the service: two transports (the
//! in-process `MatchService` and a spawned `revmatch-server` over
//! loopback TCP) behind one submit/complete interface, and the closed
//! and open loops that drive them.
//!
//! Completion times are stamped on the client's clock by whichever
//! thread first holds the report — a ticket waiter (in-process) or the
//! connection's reader (wire) — never by the generator, so a job that
//! finishes behind a slower one still gets its own completion time.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use revmatch::{
    job_seed, read_server_frame, write_client_frame, ClientFrame, JobReport, JobSpec, JobTicket,
    MatchService, ServerFrame, ServiceConfig, SubmitOutcome,
};

use crate::workload::Item;

/// How long a drain waits for the next report before declaring the
/// remaining jobs lost.
const LOST_AFTER: Duration = Duration::from_secs(30);

/// Worker shards, generator threads and connections all equal `nproc`
/// on the reference machine; fixed so runs compare across machines.
pub const SHARDS: usize = 2;
pub const CONNECTIONS: usize = 2;
/// Closed-loop window: jobs kept outstanding (2 × shards).
pub const WINDOW: usize = 2 * SHARDS;
/// Capacity hint for closed-loop records (jobs/s): reserved up front so
/// the records never reallocate mid-loop; untouched capacity is never
/// resident.
const MAX_RATE: f64 = 200_000.0;

/// Why the service refused a job at submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    QueueFull,
    Shed,
}

/// One report as the client received it.
#[derive(Debug)]
pub struct Completion {
    pub seq: u64,
    pub report: JobReport,
    /// When the report was in the client's hands (decoded, for wire).
    pub at: Instant,
    /// Wire only: when the frame's bytes had arrived, before decode.
    pub arrived: Option<Instant>,
}

/// Hands each in-process ticket to a blocked waiter thread, growing the
/// pool whenever no waiter is idle: every outstanding job has its own
/// waiter, so completion stamps never depend on waiting order.
pub struct Waiters {
    tx: Option<Sender<(u64, JobTicket)>>,
    rx: Arc<Mutex<Receiver<(u64, JobTicket)>>>,
    done: Sender<Completion>,
    idle: Arc<AtomicUsize>,
    threads: Vec<JoinHandle<()>>,
}

impl Waiters {
    fn new(done: Sender<Completion>) -> Self {
        let (tx, rx) = mpsc::channel();
        Self {
            tx: Some(tx),
            rx: Arc::new(Mutex::new(rx)),
            done,
            idle: Arc::new(AtomicUsize::new(0)),
            threads: Vec::new(),
        }
    }

    fn hand(&mut self, seq: u64, ticket: JobTicket) {
        if self.idle.load(Ordering::SeqCst) == 0 {
            let (rx, done, idle) = (
                Arc::clone(&self.rx),
                self.done.clone(),
                Arc::clone(&self.idle),
            );
            // The new waiter counts as idle from birth, so a burst of
            // hand-offs spawns one thread per ticket it cannot cover.
            idle.fetch_add(1, Ordering::SeqCst);
            self.threads.push(std::thread::spawn(move || loop {
                let next = rx.lock().expect("no waiter panics holding the lock").recv();
                idle.fetch_sub(1, Ordering::SeqCst);
                let Ok((seq, ticket)) = next else { return };
                let report = ticket.wait();
                let at = Instant::now();
                let sent = done.send(Completion {
                    seq,
                    report,
                    at,
                    arrived: None,
                });
                if sent.is_err() {
                    return;
                }
                idle.fetch_add(1, Ordering::SeqCst);
            }));
        }
        self.tx
            .as_ref()
            .expect("hand-offs stop at close")
            .send((seq, ticket))
            .expect("waiters outlive the generator");
    }

    fn close(&mut self) {
        self.tx = None;
        for t in self.threads.drain(..) {
            t.join().expect("waiter thread panicked");
        }
    }
}

/// A spawned `revmatch-server` and the client's connections to it.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    writers: Vec<BufWriter<TcpStream>>,
    readers: Vec<JoinHandle<Result<(), String>>>,
}

pub enum Transport {
    InProc {
        service: MatchService,
        waiters: Waiters,
    },
    Wire(Server),
}

/// The generator's handle: a transport plus the completion channel.
pub struct Client {
    transport: Transport,
    rx: Receiver<Completion>,
    base_seed: u64,
    next_seq: u64,
}

/// What became of one offered job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Accepted; no report yet (lost if still so after the drain).
    Pending,
    Answered,
    Failed,
    Refused(Refusal),
}

/// Client-side record of one offered job, kept compact (about 48 bytes)
/// so the generator's own memory barely moves `peak_rss_mb`.
#[derive(Debug, Clone, Copy)]
pub struct JobRecord {
    /// Nanoseconds from the loop's start to when the job was due (the
    /// open-loop schedule; the send time in a closed loop).
    pub due_ns: u64,
    /// Nanoseconds from the loop's start to the report in hand.
    pub done_ns: u64,
    pub pool_index: u32,
    /// How late the generator sent the job (0 in a closed loop).
    pub lag_ns: u32,
    /// Time inside the submit call (frame write, for wire).
    pub submit_ns: u32,
    /// Wire only: time to decode the report frame.
    pub decode_ns: u32,
    /// The report's own timing.
    pub queue_wait_us: u32,
    pub exec_us: u32,
    /// Index of the report's answer in [`LoopRun::answers`].
    pub answer: u32,
    pub status: Status,
}

impl JobRecord {
    /// Client-clock latency from due time to report in hand; infinite
    /// for refused, failed or lost jobs.
    pub fn latency_ms(&self) -> f64 {
        if self.answered() {
            self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
        } else {
            f64::INFINITY
        }
    }

    pub fn answered(&self) -> bool {
        self.status == Status::Answered
    }

    /// Nanoseconds from the loop's start to the submit call.
    pub fn sent_ns(&self) -> u64 {
        self.due_ns + u64::from(self.lag_ns)
    }
}

/// The jobs one loop offered, in sequence order. Job `i` of the loop is
/// sequence number (and, in process, service job id) `base + i`.
#[derive(Debug)]
pub struct LoopRun {
    pub base: u64,
    pub records: Vec<JobRecord>,
    /// Distinct answers, each with the pool item it answers: repeated
    /// jobs returning the same report share one entry.
    pub answers: Vec<(u32, JobReport)>,
    /// Per pool item, indices into `answers`.
    by_item: Vec<Vec<u32>>,
    pub start: Instant,
    pub end: Instant,
}

impl LoopRun {
    fn new(base: u64, pool_len: usize, capacity: usize) -> Self {
        let start = Instant::now();
        Self {
            base,
            records: Vec::with_capacity(capacity),
            answers: Vec::new(),
            by_item: vec![Vec::new(); pool_len],
            start,
            end: start,
        }
    }

    pub fn wall(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }

    pub fn at(&self, ns: u64) -> Instant {
        self.start + Duration::from_nanos(ns)
    }

    fn since_start(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.start).as_nanos() as u64
    }

    /// Files a completion under its job, interning the answer.
    fn attach(&mut self, c: Completion) -> Result<(), String> {
        let i = c
            .seq
            .checked_sub(self.base)
            .filter(|&i| (i as usize) < self.records.len())
            .ok_or_else(|| format!("report for unknown job {}", c.seq))? as usize;
        if self.records[i].status != Status::Pending {
            return Err(format!("job {} reported twice", c.seq));
        }
        let done_ns = self.since_start(c.at);
        let decode_ns = c
            .arrived
            .map_or(0, |a| c.at.saturating_duration_since(a).as_nanos());
        let r = &mut self.records[i];
        r.done_ns = done_ns;
        r.decode_ns = decode_ns as u32;
        r.queue_wait_us = c.report.timing.queue_wait_us as u32;
        r.exec_us = c.report.timing.exec_us as u32;
        r.status = if c.report.witness.is_ok() {
            Status::Answered
        } else {
            Status::Failed
        };
        let item = r.pool_index;
        let known = &self.by_item[item as usize];
        r.answer = match known
            .iter()
            .find(|&&k| same_answer(&self.answers[k as usize].1, &c.report))
        {
            Some(&k) => k,
            None => {
                let k = self.answers.len() as u32;
                self.by_item[item as usize].push(k);
                self.answers.push((item, c.report));
                k
            }
        };
        Ok(())
    }
}

/// Whether two reports carry the same answer (everything but timing).
fn same_answer(a: &JobReport, b: &JobReport) -> bool {
    a.kind == b.kind
        && a.witness == b.witness
        && a.queries == b.queries
        && a.charged_queries == b.charged_queries
        && a.rounds == b.rounds
        && a.identified == b.identified
        && a.witness_count == b.witness_count
        && a.miter == b.miter
}

pub enum Stop {
    Count(usize),
    After(Duration),
}

impl Client {
    /// Starts a service in process (traced or not), or spawns the
    /// `server` binary and connects to it.
    pub fn start(
        over_wire: bool,
        base_seed: u64,
        server: &str,
        trace: bool,
    ) -> Result<Self, String> {
        let (done_tx, rx) = mpsc::channel();
        let transport = if over_wire {
            Transport::Wire(Server::spawn(server, base_seed, done_tx)?)
        } else {
            let mut config = ServiceConfig::default()
                .with_shards(SHARDS)
                .with_seed(base_seed);
            config = config.with_trace(if trace {
                revmatch::TraceConfig::all().with_capacity(crate::layers::RING_SPANS)
            } else {
                revmatch::TraceConfig::off()
            });
            Transport::InProc {
                service: MatchService::start(config),
                waiters: Waiters::new(done_tx),
            }
        };
        Ok(Self {
            transport,
            rx,
            base_seed,
            next_seq: 0,
        })
    }

    pub fn service(&self) -> Option<&MatchService> {
        match &self.transport {
            Transport::InProc { service, .. } => Some(service),
            Transport::Wire(_) => None,
        }
    }

    /// Submits pool item `index` as the next job of the sequence,
    /// due at `due` (the send time in a closed loop).
    fn submit(
        &mut self,
        run: &mut LoopRun,
        pool: &[Item],
        index: usize,
        due: Instant,
    ) -> Result<bool, String> {
        let seq = self.next_seq;
        debug_assert_eq!(seq, run.base + run.records.len() as u64);
        self.next_seq += 1;
        let seed = job_seed(self.base_seed, seq);
        let job: JobSpec = pool[index].job.clone();
        let sent = Instant::now();
        let status = match &mut self.transport {
            Transport::InProc { service, waiters } => match service.submit_seeded(job, seed) {
                SubmitOutcome::Enqueued(ticket) => {
                    // A fresh service numbers accepted and refused
                    // submits alike, so its job ids are our sequence:
                    // the traced run matches spans to jobs by it.
                    assert_eq!(ticket.id(), seq, "service job id off the sequence");
                    waiters.hand(seq, ticket);
                    Status::Pending
                }
                SubmitOutcome::QueueFull(_) => Status::Refused(Refusal::QueueFull),
                SubmitOutcome::Shed(_) => Status::Refused(Refusal::Shed),
            },
            Transport::Wire(server) => {
                server.send(seq, seed, job)?;
                Status::Pending
            }
        };
        let submit_ns = sent.elapsed().as_nanos() as u32;
        run.records.push(JobRecord {
            due_ns: run.since_start(due),
            done_ns: 0,
            lag_ns: sent
                .saturating_duration_since(due)
                .as_nanos()
                .min(u32::MAX as u128) as u32,
            pool_index: index as u32,
            submit_ns,
            decode_ns: 0,
            queue_wait_us: 0,
            exec_us: 0,
            answer: u32::MAX,
            status,
        });
        Ok(status == Status::Pending)
    }

    /// Closed loop: keeps `WINDOW` jobs outstanding over the pool's
    /// cyclic order until `stop`.
    pub fn closed_loop(&mut self, pool: &[Item], stop: Stop) -> Result<LoopRun, String> {
        let capacity = match stop {
            Stop::Count(n) => n,
            Stop::After(d) => (d.as_secs_f64() * MAX_RATE) as usize,
        };
        let mut run = LoopRun::new(self.next_seq, pool.len(), capacity);
        let more = |run: &LoopRun| match stop {
            Stop::Count(n) => run.records.len() < n,
            Stop::After(d) => run.start.elapsed() < d,
        };
        let mut outstanding = 0usize;
        loop {
            while outstanding < WINDOW && more(&run) {
                let index = run.records.len() % pool.len();
                outstanding += usize::from(self.submit(&mut run, pool, index, Instant::now())?);
            }
            if outstanding == 0 {
                break;
            }
            let c = self.next_completion()?;
            run.attach(c)?;
            outstanding -= 1;
        }
        run.end = Instant::now();
        Ok(run)
    }

    /// Open loop: job `i` is due at `start + i / rate` for `duration`,
    /// sent on schedule whatever the service's progress, then drained.
    pub fn open_loop(
        &mut self,
        pool: &[Item],
        rate: f64,
        duration: Duration,
    ) -> Result<LoopRun, String> {
        let jobs = (duration.as_secs_f64() * rate).ceil() as usize;
        let mut run = LoopRun::new(self.next_seq, pool.len(), jobs);
        let mut outstanding = 0usize;
        for i in 0..jobs {
            // Sleep to the due time rather than wait on the completion
            // channel: a completion then never wakes the generator.
            let due = run.start + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let index = i % pool.len();
            outstanding += usize::from(self.submit(&mut run, pool, index, due)?);
            while let Ok(c) = self.rx.try_recv() {
                run.attach(c)?;
                outstanding -= 1;
            }
        }
        while outstanding > 0 {
            match self.rx.recv_timeout(LOST_AFTER) {
                Ok(c) => {
                    run.attach(c)?;
                    outstanding -= 1;
                }
                // The rest stay pending: lost, so infinitely late.
                Err(_) => break,
            }
        }
        run.end = Instant::now();
        Ok(run)
    }

    fn next_completion(&mut self) -> Result<Completion, String> {
        self.rx
            .recv_timeout(LOST_AFTER)
            .map_err(|_| format!("no report within {LOST_AFTER:?}: jobs lost"))
    }

    /// Peak resident memory of the process that holds the service.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        match &self.transport {
            Transport::InProc { .. } => crate::stats::peak_rss_mb("self"),
            Transport::Wire(server) => crate::stats::peak_rss_mb(&server.child.id().to_string()),
        }
    }

    /// Stops the transport and waits for every thread and process it
    /// started.
    pub fn shutdown(self) -> Result<(), String> {
        match self.transport {
            Transport::InProc {
                service,
                mut waiters,
            } => {
                service.shutdown();
                waiters.close();
                Ok(())
            }
            Transport::Wire(server) => server.stop(),
        }
    }
}

impl Server {
    fn spawn(path: &str, seed: u64, done: Sender<Completion>) -> Result<Self, String> {
        let mut child = Command::new(path)
            .args(["--addr", "127.0.0.1:0", "--shards"])
            .arg(SHARDS.to_string())
            .arg("--seed")
            .arg(seed.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {path}: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(_) => line.trim().strip_prefix("listening on ").map(str::to_owned),
            Err(_) => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{path} did not report its address (got {line:?})"));
        };
        let mut writers = Vec::new();
        let mut readers = Vec::new();
        for _ in 0..CONNECTIONS {
            let stream = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            let read_half = stream.try_clone().map_err(|e| e.to_string())?;
            let done = done.clone();
            readers.push(std::thread::spawn(move || read_reports(read_half, done)));
            writers.push(BufWriter::new(stream));
        }
        Ok(Self {
            child,
            _stdout: stdout,
            writers,
            readers,
        })
    }

    fn send(&mut self, seq: u64, seed: u64, job: JobSpec) -> Result<(), String> {
        let out = &mut self.writers[seq as usize % CONNECTIONS];
        let frame = ClientFrame::Submit {
            client_id: seq,
            seed: Some(seed),
            job,
        };
        write_client_frame(out, &frame)
            .and_then(|()| out.flush())
            .map_err(|e| format!("submit frame: {e}"))
    }

    /// Half-closes every connection (the server finishes and flushes
    /// every accepted job), joins the readers, then stops the server
    /// with SIGTERM and waits for it.
    fn stop(mut self) -> Result<(), String> {
        let mut result = Ok(());
        for w in self.writers.drain(..) {
            match w.into_inner() {
                Ok(stream) => {
                    let _ = stream.shutdown(Shutdown::Write);
                }
                Err(e) => result = Err(format!("flush on close: {}", e.error())),
            }
        }
        for r in self.readers.drain(..) {
            let read = r.join().map_err(|_| "reader thread panicked".to_string())?;
            result = result.and(read);
        }
        terminate(&mut self.child);
        result
    }
}

/// Sends SIGTERM (the server's graceful drain) and waits; kills the
/// process if it has not exited within ten seconds.
fn terminate(child: &mut Child) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    let pid = child.id() as i32;
    // SAFETY: kill(2) takes plain integers and touches no memory of
    // ours; `pid` is our own un-reaped child, so it cannot name another
    // process.
    unsafe {
        kill(pid, SIGTERM);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if let Ok(Some(_)) = child.try_wait() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = child.kill();
    let _ = child.wait();
}

/// A connection's reader: stamps each report frame when its bytes have
/// arrived and again once decoded, until the server closes.
fn read_reports(stream: TcpStream, done: Sender<Completion>) -> Result<(), String> {
    let mut input = BufReader::new(stream);
    loop {
        let mut frame = vec![0u8; 4];
        match input.read_exact(&mut frame) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(format!("read: {e}")),
        }
        let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
        if len > revmatch::MAX_FRAME_LEN {
            return Err(format!("report frame of {len} bytes"));
        }
        frame.resize(4 + len, 0);
        input
            .read_exact(&mut frame[4..])
            .map_err(|e| format!("read: {e}"))?;
        let arrived = Instant::now();
        let decoded = read_server_frame(&mut frame.as_slice()).map_err(|e| e.to_string())?;
        let at = Instant::now();
        if let Some(ServerFrame::Report { client_id, report }) = decoded {
            let sent = done.send(Completion {
                seq: client_id,
                report,
                at,
                arrived: Some(arrived),
            });
            if sent.is_err() {
                return Ok(());
            }
        }
    }
}
