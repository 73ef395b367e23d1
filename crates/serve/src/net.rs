//! The TCP front-end: `std::net` listener, one thread per connection,
//! line-delimited frames, plus the replay client the CI smoke job
//! drives the server with.
//!
//! No async runtime and no external dependencies: connections are
//! cheap OS threads reading lines off a [`BufReader`], all sharing one
//! mutex-guarded [`ServeRuntime`]. A `shutdown` frame flips a shared
//! flag and pokes the listener with a loopback connection so the
//! accept loop observes it promptly; the listener then stops accepting
//! and in-flight connection threads drain.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use crate::runtime::ServeRuntime;

/// Serve connections on `listener` until a client sends `shutdown`.
/// Blocks the calling thread; returns the number of connections
/// handled.
///
/// # Panics
///
/// Panics if the runtime mutex is poisoned (a handler thread panicked
/// mid-frame) — the server is not in a state worth continuing from.
pub fn serve(listener: &TcpListener, runtime: &Arc<Mutex<ServeRuntime>>) -> usize {
    let stop = Arc::new(AtomicBool::new(false));
    let addr = listener.local_addr().expect("listener has an address");
    let mut workers = Vec::new();
    let mut connections = 0usize;
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        connections += 1;
        let runtime = Arc::clone(runtime);
        let worker_stop = Arc::clone(&stop);
        workers.push(thread::spawn(move || {
            handle_connection(stream, &runtime, &worker_stop, addr);
        }));
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
    for w in workers {
        let _ = w.join();
    }
    connections
}

fn handle_connection(
    stream: TcpStream,
    runtime: &Arc<Mutex<ServeRuntime>>,
    stop: &Arc<AtomicBool>,
    listen_addr: std::net::SocketAddr,
) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let handled = runtime.lock().expect("runtime lock").handle_line(&line);
        if send_line(&mut writer, &handled.reply).is_err() {
            break;
        }
        if handled.shutdown {
            stop.store(true, Ordering::SeqCst);
            // Poke the accept loop so it observes the flag without
            // waiting for another real client.
            let _ = TcpStream::connect(listen_addr);
            break;
        }
    }
}

/// Write `line` and its newline terminator with one `write_all`.
/// `writeln!` on a raw socket issues two writes — the line, then a lone
/// `"\n"` — and Nagle's algorithm holds that second segment back until
/// the peer's delayed ACK, stalling every such reply by tens of
/// milliseconds.
fn send_line(w: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut frame = String::with_capacity(line.len() + 1);
    frame.push_str(line);
    frame.push('\n');
    w.write_all(frame.as_bytes())
}

/// Replay `frames` (one frame per line; blank lines and `#` comments
/// skipped) against the server at `addr`, returning the reply lines in
/// order.
///
/// # Errors
///
/// Returns an I/O error description when the connection fails or the
/// server hangs up before replying to every frame.
pub fn replay(addr: &str, frames: &str) -> Result<Vec<String>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut replies = Vec::new();
    for frame in frames
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        send_line(&mut writer, frame).map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        let n = reader
            .read_line(&mut reply)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err(format!("server hung up before replying to: {frame}"));
        }
        replies.push(reply.trim_end().to_string());
    }
    Ok(replies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;

    /// Counts `write` calls — one per segment a raw socket would send.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn send_line_writes_each_frame_in_one_call() {
        let mut w = CountingWriter::default();
        send_line(&mut w, r#"{"ok":true}"#).expect("send");
        assert_eq!(w.writes, 1, "reply and newline leave together");
        send_line(&mut w, "second").expect("send");
        assert_eq!(w.writes, 2);
        assert_eq!(w.bytes, b"{\"ok\":true}\nsecond\n");
    }

    #[test]
    fn end_to_end_over_a_real_socket() {
        let config = ServeConfig::parse("[server]\nseed = 3\nn_beams = 4\nmemory_fraction = 0.5\n")
            .expect("config");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let runtime = Arc::new(Mutex::new(ServeRuntime::new(config)));
        let server = {
            let runtime = Arc::clone(&runtime);
            thread::spawn(move || serve(&listener, &runtime))
        };
        let trace = r#"
# comment lines and blanks are skipped
{"op":"submit","id":"r1","tenant":0,"slo":"standard","dataset":"amc2023","problem_seed":5,"arrive_at":0.0}
{"op":"status","id":"r1"}
{"op":"stats"}
{"op":"shutdown"}
"#;
        let replies = replay(&addr, trace).expect("replay");
        assert_eq!(replies.len(), 4);
        assert!(replies[0].contains("\"ok\":true"), "{}", replies[0]);
        assert!(
            replies[1].contains("\"state\":\"completed\""),
            "{}",
            replies[1]
        );
        assert!(replies[2].contains("\"tenants\":["), "{}", replies[2]);
        assert!(replies[3].contains("\"op\":\"shutdown\""), "{}", replies[3]);
        server.join().expect("server thread");
    }
}
