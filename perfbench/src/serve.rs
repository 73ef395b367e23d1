//! `serve_mixed`: the real `ftts-serve` front end over loopback TCP.
//!
//! `ftts_serve::net::serve` runs on a loopback listener with this
//! benchmark's config: one device and two tenants. One client
//! connection runs an open loop: a writer sends frames on a fixed
//! wall-clock schedule without waiting for replies, and a reader
//! timestamps each reply. Frames come in cycles of four writes (submits
//! with explicit virtual arrival times, and now and then a cancel) and
//! four reads (`stats` and `status`). Every write changes the trace, so
//! the first read after it replays the whole trace and the later reads
//! are memo hits. Prompts are distinct: no request shares a prompt.
//! After the open loop, bursts send the same frames all at once to a
//! fresh server each; their time gives `host_ms_per_req`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use ftts_metrics::{SloClass, StreamRecord, StreamSummary, Summary};
use ftts_serve::{net, parse_frame, Json, ServeConfig, ServeRuntime};

use crate::speed::{SpeedClock, SpeedSampler};
use crate::trace::{Overhead, Tracer};
use crate::{median, Report, SetupClock};

/// Frames per wall-clock second on the open loop. The current code keeps
/// up with this over a whole run (see README.md).
const FRAMES_PER_S: f64 = 16.0;
/// At least 200 writes and 200 reads, so each p95 has ten samples
/// beyond it.
const MIN_FRAMES: usize = 400;
const CYCLE: usize = 8;
/// Every this many cycles, the last write of the cycle is a cancel.
const CANCEL_EVERY: usize = 10;
/// Virtual seconds between consecutive submits' arrival times.
const VIRTUAL_INTERVAL_S: f64 = 4.0;
const SLOS: [(&str, f64); 3] = [("interactive", 15.0), ("standard", 30.0), ("batch", 90.0)];
/// The server's simulation seed. The workload seed draws the frames;
/// the engine seed stays fixed, because drawn from the workload seed
/// too it spreads the sim latencies across seeds by a fifth.
const ENGINE_SEED: u64 = 11;
/// Bursts after the open loop, and set-ups timed before each. With
/// three bursts `host_ms_per_req` spread by up to 0.10 over ten seeds.
const BURSTS: usize = 5;
const SETUPS_PER_BURST: usize = 2;
/// The set-up's warm-up: this many frames of a fixed schedule (not
/// drawn from the workload seed, so the set-up work is the same on
/// every seed), handled in-process before the server starts.
const WARMUP_FRAMES: usize = 64;
const WARMUP_SEED: u64 = 0;
/// A reply whose newline arrives this long after its first byte is
/// stalled.
const STALL: Duration = Duration::from_millis(10);
const IO_TIMEOUT: Duration = Duration::from_secs(60);

fn config_text() -> String {
    format!(
        "[server]\nlisten = \"127.0.0.1:0\"\nseed = {ENGINE_SEED}\nn_beams = 4\nmax_batch = 4\n\
         window_secs = 0.2\nmemory_fraction = 0.5\ndevices = 1\n\n\
         [[tenants]]\nid = 0\nweight = 3\nkv_cap_frac = 0.0\nmax_open = 0\n\n\
         [[tenants]]\nid = 1\nweight = 1\nkv_cap_frac = 0.5\nmax_open = 0\n"
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Write,
    Read,
}

struct Frame {
    line: String,
    op: Op,
}

/// A submitted request, for the drain queries and the sim metrics.
struct Submitted {
    id: String,
    deadline_secs: f64,
    cancelled: bool,
}

/// The open-loop frame schedule, generated from the seed.
fn frames(seed: u64, count: usize) -> (Vec<Frame>, Vec<Submitted>) {
    let cycles = count.div_ceil(CYCLE);
    let writes = cycles * CYCLE / 2;
    let mut out = Vec::with_capacity(cycles * CYCLE);
    let mut subs: Vec<Submitted> = Vec::with_capacity(writes);
    for c in 0..cycles {
        for w in 0..CYCLE / 2 {
            let k = c * CYCLE / 2 + w;
            if w == CYCLE / 2 - 1 && c % CANCEL_EVERY == CANCEL_EVERY - 1 {
                let victim = subs.len() - 2;
                subs[victim].cancelled = true;
                out.push(Frame {
                    line: format!("{{\"op\":\"cancel\",\"id\":\"{}\"}}", subs[victim].id),
                    op: Op::Write,
                });
                continue;
            }
            let (slo, slack) = SLOS[k % SLOS.len()];
            // Distinct prompts: one problem seed per submit, alternating
            // datasets.
            let (dataset, problem_seed) = if k.is_multiple_of(2) {
                (
                    "amc2023",
                    seed.wrapping_mul(1_000_003).wrapping_add(k as u64),
                )
            } else {
                (
                    "math500",
                    seed.wrapping_mul(1_000_033).wrapping_add(k as u64),
                )
            };
            let id = format!("r{k}");
            out.push(Frame {
                line: format!(
                    "{{\"op\":\"submit\",\"id\":\"{id}\",\"tenant\":{},\"slo\":\"{slo}\",\
                     \"deadline_secs\":{slack:.1},\"dataset\":\"{dataset}\",\
                     \"problem_seed\":{problem_seed},\"arrive_at\":{:.3}}}",
                    u32::from(k % 4 == 3),
                    k as f64 * VIRTUAL_INTERVAL_S
                ),
                op: Op::Write,
            });
            subs.push(Submitted {
                id,
                deadline_secs: slack,
                cancelled: false,
            });
        }
        let recent = &subs[subs.len() - 1].id;
        let older = &subs[(subs.len() * 3) / 4].id;
        for line in [
            "{\"op\":\"stats\"}".to_string(),
            format!("{{\"op\":\"status\",\"id\":\"{recent}\"}}"),
            format!("{{\"op\":\"status\",\"id\":\"{older}\"}}"),
            "{\"op\":\"stats\"}".to_string(),
        ] {
            out.push(Frame { line, op: Op::Read });
        }
    }
    (out, subs)
}

/// A running server plus one connected client.
struct Session {
    server: thread::JoinHandle<usize>,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// Serve `runtime` on a loopback listener and connect one client.
fn start(config: &ServeConfig, runtime: ServeRuntime) -> Result<Session, String> {
    let listener = TcpListener::bind(&config.listen).map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let runtime = Arc::new(Mutex::new(runtime));
    let server = thread::spawn(move || net::serve(&listener, &runtime));
    let writer = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    writer
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    writer
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| format!("timeout: {e}"))?;
    let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
    Ok(Session {
        server,
        writer,
        reader,
    })
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("server hung up".into()),
        Ok(_) => Ok(line.trim_end().to_string()),
        Err(e) => Err(format!("recv: {e}")),
    }
}

/// Closed-loop request/reply on the session.
fn call(s: &mut Session, line: &str) -> Result<String, String> {
    writeln!(s.writer, "{line}").map_err(|e| format!("send: {e}"))?;
    read_reply(&mut s.reader)
}

/// Send `shutdown` and wait for the server thread to end.
fn stop(mut s: Session) -> Result<String, String> {
    let reply = call(&mut s, "{\"op\":\"shutdown\"}")?;
    drop(s.reader);
    drop(s.writer);
    s.server
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    Ok(reply)
}

/// The open loop over TCP, per frame: when it was due and sent, when
/// the first byte and the newline of its reply arrived, and the reply.
struct OpenLoop {
    due: Vec<Instant>,
    sent: Vec<Instant>,
    first: Vec<Instant>,
    got: Vec<Instant>,
    replies: Vec<String>,
}

/// Read `count` reply lines off the socket, stamping each with the
/// receive that brought its first byte and the one that brought its
/// newline.
fn timed_lines(
    stream: &mut TcpStream,
    count: usize,
) -> Result<Vec<(String, Instant, Instant)>, String> {
    let mut out = Vec::with_capacity(count);
    let mut line = Vec::new();
    let mut first = None;
    let mut buf = vec![0u8; 1 << 16];
    while out.len() < count {
        let n = stream.read(&mut buf).map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server hung up".into());
        }
        let now = Instant::now();
        for &b in &buf[..n] {
            if b == b'\n' {
                let text = String::from_utf8(std::mem::take(&mut line))
                    .map_err(|e| format!("reply is not UTF-8: {e}"))?;
                out.push((text, first.take().unwrap_or(now), now));
            } else {
                first.get_or_insert(now);
                line.push(b);
            }
        }
    }
    Ok(out)
}

/// Send `frames` on their schedule and read the replies on another
/// thread.
fn open_loop(
    s: &mut Session,
    frames: &[Frame],
    t0: Instant,
    gap: Duration,
) -> Result<OpenLoop, String> {
    let Session { writer, reader, .. } = s;
    if !reader.buffer().is_empty() {
        return Err("unread bytes before the open loop".into());
    }
    let stream = reader.get_mut();
    thread::scope(|scope| {
        let rx = scope.spawn(|| timed_lines(stream, frames.len()));
        let mut sent = Vec::with_capacity(frames.len());
        let mut send_err = None;
        for (i, f) in frames.iter().enumerate() {
            let due = t0 + gap * i as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                thread::sleep(wait);
            }
            sent.push(Instant::now());
            if let Err(e) = writer.write_all(format!("{}\n", f.line).as_bytes()) {
                send_err = Some(format!("send: {e}"));
                break;
            }
        }
        let received = rx
            .join()
            .map_err(|_| "reader thread panicked".to_string())?;
        if let Some(e) = send_err {
            return Err(e);
        }
        let mut out = OpenLoop {
            due: (0..frames.len()).map(|i| t0 + gap * i as u32).collect(),
            sent,
            first: Vec::with_capacity(frames.len()),
            got: Vec::with_capacity(frames.len()),
            replies: Vec::with_capacity(frames.len()),
        };
        for (reply, first, got) in received? {
            out.replies.push(reply);
            out.first.push(first);
            out.got.push(got);
        }
        Ok(out)
    })
}

/// Send every frame at once and read the replies on another thread.
/// Returns the replies, when the first frame was sent and when the last
/// reply's newline arrived.
fn burst(s: &mut Session, frames: &[Frame]) -> Result<(Vec<String>, Instant, Instant), String> {
    let Session { writer, reader, .. } = s;
    if !reader.buffer().is_empty() {
        return Err("unread bytes before the burst".into());
    }
    let stream = reader.get_mut();
    let mut all = String::new();
    for f in frames {
        all.push_str(&f.line);
        all.push('\n');
    }
    thread::scope(|scope| {
        let t0 = Instant::now();
        let rx = scope.spawn(|| timed_lines(stream, frames.len()));
        let sent = writer
            .write_all(all.as_bytes())
            .map_err(|e| format!("send: {e}"));
        let received = rx
            .join()
            .map_err(|_| "reader thread panicked".to_string())??;
        sent?;
        let t1 = received.last().map_or(t0, |&(_, _, got)| got);
        Ok((received.into_iter().map(|(r, _, _)| r).collect(), t0, t1))
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn is_error(reply: &str) -> bool {
    !reply.starts_with("{\"ok\":true")
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let text = config_text();
    // Set-up: parse and validate the config, build the runtime and warm
    // it up on a fixed frame schedule, then serve it, answer one query
    // over TCP and shut the server down again. Set-ups run before each
    // burst, after the open loop, so they never share the CPU with the
    // open loop's server.
    let (warmup, _) = frames(WARMUP_SEED, WARMUP_FRAMES);
    let mut warmup_errors = 0u64;
    let mut setups = SetupClock::default();
    let mut setup = || {
        setups.time(SETUPS_PER_BURST, || -> Result<String, String> {
            let config = ServeConfig::parse(&text)?;
            let mut runtime = ServeRuntime::new(config.clone());
            for f in &warmup {
                warmup_errors += u64::from(is_error(&runtime.handle_line(&f.line).reply));
            }
            let mut s = start(&config, runtime)?;
            call(&mut s, "{\"op\":\"stats\"}")?;
            stop(s)
        })
    };

    let config = ServeConfig::parse(&text)?;
    // The frame count is fixed by the run length at a fixed rate.
    let count = MIN_FRAMES.max((seconds * FRAMES_PER_S) as usize);
    let (frames, subs) = frames(seed, count);
    let gap = Duration::from_secs_f64(1.0 / FRAMES_PER_S);

    let sampler = SpeedSampler::start();
    let mut session = start(&config, ServeRuntime::new(config.clone()))?;
    let t0 = Instant::now() + Duration::from_millis(20);
    let looped = open_loop(&mut session, &frames, t0, gap)?;
    // Drain: one closed-loop `status` per request, for the sim metrics.
    let mut drain = Vec::new();
    for s in subs.iter().filter(|s| !s.cancelled) {
        let line = format!("{{\"op\":\"status\",\"id\":\"{}\"}}", s.id);
        drain.push((line.clone(), call(&mut session, &line)?));
    }
    let shutdown_reply = stop(session)?;

    // Bursts: the open loop's frames again, each time on a fresh server,
    // sent all at once; host time is from the first send to the last
    // reply's newline.
    let mut bursts = SpeedClock::default();
    let mut burst_mismatched = 0usize;
    for _ in 0..BURSTS {
        setup()?;
        let mut s = start(&config, ServeRuntime::new(config.clone()))?;
        let (replies, b0, b1) = burst(&mut s, &frames)?;
        bursts.add(b0, b1);
        stop(s)?;
        burst_mismatched += replies
            .iter()
            .zip(&looped.replies)
            .filter(|(b, o)| b != o)
            .count();
    }
    let speed = sampler.finish()?;
    report.set("setup_s", setups.median(&speed));
    report.phase(
        format!("set-up warm-up frames x{}", BURSTS * SETUPS_PER_BURST),
        (warmup.len() * BURSTS * SETUPS_PER_BURST) as u64,
        warmup_errors,
    );
    report.phase(
        format!("burst frames x{BURSTS}"),
        (frames.len() * BURSTS) as u64,
        burst_mismatched as u64,
    );
    report.check(
        format!("every burst's replies equal the open loop's ({burst_mismatched} differ)"),
        burst_mismatched == 0,
    );

    let mut tcp_replies: Vec<&str> = looped.replies.iter().map(String::as_str).collect();
    tcp_replies.extend(drain.iter().map(|(_, r)| r.as_str()));
    tcp_replies.push(&shutdown_reply);
    let mut all_lines: Vec<&str> = frames.iter().map(|f| f.line.as_str()).collect();
    all_lines.extend(drain.iter().map(|(l, _)| l.as_str()));
    all_lines.push("{\"op\":\"shutdown\"}");

    // An in-process replay of the same frames is the byte-identity
    // oracle.
    let mut runtime = ServeRuntime::new(config.clone());
    let mismatched = all_lines
        .iter()
        .zip(&tcp_replies)
        .filter(|(line, tcp)| runtime.handle_line(line).reply != **tcp)
        .count();
    report.check(
        format!(
            "TCP reply stream is byte-identical to an in-process replay ({} frames, {mismatched} differ)",
            all_lines.len()
        ),
        mismatched == 0 && tcp_replies.len() == all_lines.len(),
    );

    let timed = frames.len();
    let timed_errors = looped.replies.iter().filter(|r| is_error(r)).count() as u64;
    let drain_errors = drain.iter().filter(|(_, r)| is_error(r)).count() as u64;
    report.phase("open-loop frames", frames.len() as u64, timed_errors);
    report.phase("drain status frames", drain.len() as u64, drain_errors);
    report.phase("shutdown frame", 1, u64::from(is_error(&shutdown_reply)));

    // Sim metrics from the server's own status replies.
    let mut records = Vec::new();
    let mut hits = 0usize;
    let by_id: std::collections::BTreeMap<&str, &Submitted> =
        subs.iter().map(|s| (s.id.as_str(), s)).collect();
    for (_, reply) in &drain {
        let j = Json::parse(reply)?;
        let num = |k: &str| {
            j.number_at(k)
                .ok_or_else(|| format!("status reply without {k}: {reply}"))
        };
        let sub = j
            .str_at("id")
            .and_then(|id| by_id.get(id))
            .ok_or_else(|| format!("status reply for no submitted id: {reply}"))?;
        let arrived_at = num("arrived_at")?;
        let finished_at = num("finished_at")?;
        hits += usize::from(matches!(j.at("deadline_hit"), Some(Json::Bool(true))));
        records.push(StreamRecord {
            arrived_at,
            finished_at,
            queue_delay: 0.0,
            accepted_tokens: num("accepted_tokens")? as u64,
            generator_secs: 0.0,
            verifier_secs: 0.0,
            slo: SloClass::Standard,
            deadline: arrived_at + sub.deadline_secs,
            completed: j.str_at("state") == Some("completed"),
        });
    }
    let summary = StreamSummary::of(&records);
    let requests = subs.len();
    // Host time per request on the socket: a burst's time, corrected for
    // the core's speed while it ran, shared out over the submits; median
    // over the bursts. A burst's replies queue behind one another, so
    // the server's split reply writes (see README.md) hold back at most
    // the last one by a delayed-ACK period, where in the open loop they
    // stall a share of the replies that swings from run to run.
    let burst_ms: Vec<f64> = bursts
        .corrected(&speed)
        .iter()
        .map(|b| b / requests as f64)
        .collect();
    let first_byte_ms: Vec<f64> = (0..timed)
        .map(|i| ms(looped.first[i].saturating_duration_since(looped.due[i])))
        .collect();
    let reply_ms: Vec<f64> = (0..timed)
        .map(|i| ms(looped.got[i].saturating_duration_since(looped.due[i])))
        .collect();
    let stalled = (0..timed)
        .filter(|&i| looped.got[i] - looped.first[i] > STALL)
        .count();
    report.set("host_ms_per_req", median(&burst_ms));
    report.set("sim_goodput_tok_s", summary.stream_goodput);
    report.set("sim_latency_p50_s", summary.latency.p50);
    report.set("sim_latency_p95_s", summary.latency.p95);

    let lat = |op: Op| -> Summary {
        let v: Vec<f64> = (0..timed)
            .filter(|&i| frames[i].op == op)
            .map(|i| reply_ms[i])
            .collect();
        Summary::of(&v)
    };
    let (w, r) = (lat(Op::Write), lat(Op::Read));
    let lag: Vec<f64> = (0..timed)
        .map(|i| ms(looped.sent[i].saturating_duration_since(looped.due[i])))
        .collect();
    let gen_lag_p95 = Summary::of(&lag).p95;
    report.note(format!(
        "open loop: {timed} frames ({} writes, {} reads) at {FRAMES_PER_S} frames/s over {:.1} s; trace length {requests} submits ({} cancelled)",
        w.n,
        r.n,
        timed as f64 / FRAMES_PER_S,
        subs.iter().filter(|s| s.cancelled).count()
    ));
    report.note(format!(
        "reply ms (from due time): write p50 {:.3} p95 {:.3}, read p50 {:.3} p95 {:.3}; generator lag p95 {gen_lag_p95:.3} ms",
        w.p50, w.p95, r.p50, r.p95
    ));
    report.note(format!(
        "first reply byte ms (from due time): p50 {:.3} p95 {:.3}; {stalled} of {timed} replies end more than {} ms after their first byte",
        Summary::of(&first_byte_ms).p50,
        Summary::of(&first_byte_ms).p95,
        STALL.as_millis()
    ));
    report.note(format!(
        "host ms per request by burst, speed-corrected: {}; wall-clock: {}; core slowdown (median over the run): {:.3}",
        burst_ms
            .iter()
            .map(|m| format!("{m:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
        bursts
            .raw()
            .iter()
            .map(|m| format!("{:.3}", m / requests as f64))
            .collect::<Vec<_>>()
            .join(" "),
        speed.median()
    ));
    report.note(format!(
        "sim: deadline hit rate {:.4} over {} active requests, {} shed",
        hits as f64 / records.len().max(1) as f64,
        records.len(),
        summary.shed
    ));

    if trace {
        report.set("reply_write_p50_ms", w.p50);
        report.set("reply_write_p95_ms", w.p95);
        report.set("reply_read_p50_ms", r.p50);
        report.set("reply_read_p95_ms", r.p95);
        report.set("bench.gen_lag_p95_ms", gen_lag_p95);
        report.set("serve.net.stalled_replies", stalled as f64);
        report.set(
            "sim_deadline_hit_rate",
            hits as f64 / records.len().max(1) as f64,
        );
        traced_in_process(
            &config,
            &frames,
            gap,
            &looped.replies,
            &reply_ms,
            &mut report,
        )?;
    }
    Ok(report)
}

/// The traced run: the same frames, on the same schedule, straight
/// into an in-process `ServeRuntime`, with spans around the protocol
/// parser and the runtime. A second runtime takes every frame too,
/// untraced, for the tracing overhead.
fn traced_in_process(
    config: &ServeConfig,
    frames: &[Frame],
    gap: Duration,
    tcp_replies: &[String],
    tcp_reply_ms: &[f64],
    report: &mut Report,
) -> Result<(), String> {
    let mut tracer = Tracer::default();
    let mut overhead = Overhead::default();
    let mut runtime = ServeRuntime::new(config.clone());
    let mut plain = ServeRuntime::new(config.clone());
    let replays_before = runtime.replays();
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut reply_ms = Vec::with_capacity(frames.len());
    let mut mismatched = 0;
    for (i, f) in frames.iter().enumerate() {
        let due = t0 + gap * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        let req = i as u64;
        let handle = match f.op {
            Op::Write => "serve.runtime.write",
            Op::Read => "serve.runtime.read",
        };
        let ((traced, traced_t), (untraced, _)) =
            overhead.both(i % 2 == 1, |traced| -> Result<_, String> {
                if traced {
                    let parsed = tracer.span("serve.protocol.parse", req, |_| parse_frame(&f.line));
                    std::hint::black_box(parsed)
                        .map_err(|e| format!("frame {i} does not parse: {e:?}"))?;
                    Ok(tracer.span(handle, req, |_| runtime.handle_line(&f.line)))
                } else {
                    let parsed = parse_frame(&f.line);
                    std::hint::black_box(parsed)
                        .map_err(|e| format!("frame {i} does not parse: {e:?}"))?;
                    Ok(plain.handle_line(&f.line))
                }
            });
        let (traced, untraced) = (traced?, untraced?);
        reply_ms.push(ms(traced_t));
        mismatched += usize::from(traced.reply != tcp_replies[i]);
        mismatched += usize::from(untraced.reply != tcp_replies[i]);
    }
    report.check(
        format!(
            "traced and untraced in-process replies equal the TCP replies ({mismatched} differ)"
        ),
        mismatched == 0,
    );
    let agg = tracer.aggregates();
    let mean_ms = |name: &str| {
        agg.get(name)
            .map_or(0.0, |a| a.total_ns as f64 / 1e6 / a.count.max(1) as f64)
    };
    let reads = agg.get("serve.runtime.read").map_or(0, |a| a.count);
    let replays = runtime.replays() - replays_before;
    report.phase("traced in-process frames", frames.len() as u64, 0);
    report.phase("untraced in-process frames", frames.len() as u64, 0);
    report.set(
        "serve.protocol.parse_us",
        mean_ms("serve.protocol.parse") * 1e3,
    );
    report.set("serve.runtime.write_ms", mean_ms("serve.runtime.write"));
    report.set("serve.runtime.read_ms", mean_ms("serve.runtime.read"));
    report.set("serve.runtime.replays", replays as f64);
    report.set(
        "serve.runtime.memo_hit_rate",
        1.0 - replays as f64 / reads.max(1) as f64,
    );
    report.set(
        "serve.net_overhead_ms",
        median(tcp_reply_ms) - median(&reply_ms),
    );
    report.set("bench.trace_overhead_pct", overhead.pct());
    report.tracer = Some(tracer);
    Ok(())
}
