//! `tbmd-serve` — a local trajectory daemon over a Unix domain socket.
//!
//! Clients connect and send one newline-delimited JSON request per line;
//! each job streams its JSONL records (manifest, step, ckpt, summary) back
//! on the same connection as they are produced. All jobs share the
//! daemon's compute budget of `--budget` threads: submissions past it wait
//! in the admission queue.
//!
//! ```text
//! tbmd-serve --socket /tmp/tbmd.sock --budget 4
//! ```

#[cfg(unix)]
fn main() {
    if let Err(e) = unix::run() {
        eprintln!("tbmd-serve: {e}");
        std::process::exit(1);
    }
}

#[cfg(not(unix))]
fn main() {
    eprintln!("tbmd-serve needs Unix domain sockets; this platform has none");
    std::process::exit(1);
}

#[cfg(unix)]
mod unix {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Arc;
    use std::time::Duration;
    use tbmd_serve::{parse_request, JobSpec, Multiplexer, Request, ServeStats, StatsFormat};

    struct Args {
        socket: PathBuf,
        budget: usize,
        timeline: Option<PathBuf>,
    }

    fn parse_args() -> Result<Args, String> {
        let mut args = Args {
            socket: PathBuf::from("/tmp/tbmd-serve.sock"),
            budget: 0,
            timeline: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--socket" => {
                    args.socket = it
                        .next()
                        .ok_or_else(|| "--socket needs a path".to_string())?
                        .into();
                }
                "--budget" => {
                    args.budget = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "--budget needs a thread count".to_string())?;
                }
                "--timeline" => {
                    args.timeline = Some(
                        it.next()
                            .ok_or_else(|| "--timeline needs a file path".to_string())?
                            .into(),
                    );
                }
                "--help" | "-h" => {
                    println!(
                        "usage: tbmd-serve [--socket PATH] [--budget THREADS] [--timeline FILE]\n\
                         \n\
                         Accepts newline-delimited JSON trajectory jobs on a Unix\n\
                         socket and streams JSONL step records back per job.\n\
                         Send {{\"stats\":true}} on any connection for a live\n\
                         telemetry snapshot ({{\"stats\":\"prometheus\"}} for the\n\
                         text exposition).\n\
                         --budget 0 (default) leaves the compute pool uncapped.\n\
                         --timeline FILE records the scheduler's span timeline (tenant\n\
                         quanta, steps, phases) and writes it as Chrome trace_event\n\
                         JSON on shutdown (open in Perfetto)."
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(args)
    }

    pub fn run() -> Result<(), String> {
        let args = parse_args()?;
        // A stale socket file from a previous run refuses the bind.
        let _ = std::fs::remove_file(&args.socket);
        let listener =
            UnixListener::bind(&args.socket).map_err(|e| format!("bind {:?}: {e}", args.socket))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking listener: {e}"))?;
        eprintln!(
            "tbmd-serve listening on {:?} (budget: {})",
            args.socket,
            if args.budget == 0 {
                "uncapped".to_string()
            } else {
                args.budget.to_string()
            }
        );

        let (jobs_tx, jobs_rx) = mpsc::channel::<(JobSpec, UnixStream)>();
        let shutdown = Arc::new(AtomicBool::new(false));
        let budget = tbmd::Budget::new(args.budget);
        let stats = if args.timeline.is_some() {
            ServeStats::with_timeline(budget)
        } else {
            ServeStats::new(budget)
        };

        // Accept loop on its own thread: it only parses lines and forwards
        // jobs; the scheduler loop below owns every session and runs each
        // sweep's quanta side by side on the thread team. Stats
        // requests are answered right on the client threads — the shared
        // handle reads the same atomics the scheduler writes.
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let stats = stats.clone();
            std::thread::spawn(move || {
                while !shutdown.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let jobs_tx = jobs_tx.clone();
                            let shutdown = Arc::clone(&shutdown);
                            let stats = stats.clone();
                            std::thread::spawn(move || {
                                serve_client(stream, jobs_tx, shutdown, stats)
                            });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(25));
                        }
                        Err(_) => break,
                    }
                }
            })
        };

        // Scheduler loop: drain submissions, give every tenant a quantum
        // (all at once), exit once a shutdown request arrives and the
        // queues are empty.
        let mut mux = Multiplexer::with_stats(stats.clone());
        loop {
            while let Ok((spec, stream)) = jobs_rx.try_recv() {
                mux.submit(spec, stream);
            }
            let busy = mux.tick();
            if !busy {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Idle: block (briefly) instead of spinning.
                match jobs_rx.recv_timeout(Duration::from_millis(100)) {
                    Ok((spec, stream)) => mux.submit(spec, stream),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        let _ = acceptor.join();
        if let Some(path) = &args.timeline {
            let trace = stats.export_chrome().to_compact();
            match std::fs::write(path, trace) {
                Ok(()) => eprintln!("tbmd-serve: timeline written to {path:?}"),
                Err(e) => eprintln!("tbmd-serve: timeline write {path:?}: {e}"),
            }
        }
        let _ = std::fs::remove_file(&args.socket);
        Ok(())
    }

    /// Per-connection reader: one JSON request per line; each job gets a
    /// cloned write handle of the same stream for its record stream.
    fn serve_client(
        stream: UnixStream,
        jobs_tx: mpsc::Sender<(JobSpec, UnixStream)>,
        shutdown: Arc<AtomicBool>,
        stats: ServeStats,
    ) {
        let reader = match stream.try_clone() {
            Ok(s) => BufReader::new(s),
            Err(_) => return,
        };
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            match parse_request(&line) {
                Ok(Request::Job(spec)) => match stream.try_clone() {
                    Ok(sink) => {
                        if jobs_tx.send((*spec, sink)).is_err() {
                            break;
                        }
                    }
                    Err(_) => break,
                },
                Ok(Request::Stats(format)) => {
                    let body = match format {
                        StatsFormat::Json => {
                            let mut text = stats.to_json().to_compact();
                            text.push('\n');
                            text
                        }
                        StatsFormat::Prometheus => stats.to_prometheus(),
                    };
                    if !reply(&stream, "stats", &body) {
                        break;
                    }
                }
                Ok(Request::Shutdown) => {
                    shutdown.store(true, Ordering::SeqCst);
                    break;
                }
                Err(detail) => {
                    let mut line = tbmd_trace::JsonValue::object();
                    line.set("type", "error").set("detail", detail.as_str());
                    let body = line.to_compact() + "\n";
                    if !reply(&stream, "error", &body) {
                        break;
                    }
                }
            }
        }
    }

    /// Answer a client on its connection; a client that cannot be answered
    /// has gone, which is reported on stderr (`false`: stop reading it).
    fn reply(stream: &UnixStream, what: &str, body: &str) -> bool {
        let mut w = stream;
        match w.write_all(body.as_bytes()).and_then(|()| w.flush()) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("tbmd-serve: {what} reply not delivered: {e}");
                false
            }
        }
    }
}
