//! Regression test for the shutdown-aware accept loop: a client's
//! shutdown request must interrupt the TCP accept loop promptly,
//! **without** a further connection ever arriving. The old `listener.incoming()` loop only
//! re-checked the accept gate on the next connection, so an idle
//! listener hung the process after shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use uprov_service::net::{accept_loop, POLL_INTERVAL};
use uprov_service::service::{Client, Service, ServiceConfig};
use uprov_storage::{DurableEngine, MemStorage};

fn start() -> Service<MemStorage> {
    let (db, _) = DurableEngine::open(MemStorage::new()).expect("open mem engine");
    Service::start(db, ServiceConfig::default())
}

fn serve_stream(stream: TcpStream, client: &Client<MemStorage>) {
    let reader = stream.try_clone().expect("clone stream");
    let mut writer = stream;
    for line in BufReader::new(reader).lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let reply = client.serve_line(&line);
        if writeln!(writer, "{reply}").is_err() {
            break;
        }
    }
}

/// One client connects, asks for shutdown, and the accept loop exits on
/// its own — no second connection nudges it awake. Bounded by a generous
/// deadline so a regression shows up as a test failure, not a hang.
#[test]
fn shutdown_request_interrupts_an_idle_accept_loop() {
    let service = start();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("addr");

    let accept_thread = {
        let client_factory = service.client();
        std::thread::spawn(move || {
            let mut sessions = Vec::new();
            accept_loop(
                &listener,
                || client_factory.is_accepting(),
                |stream| {
                    let client = client_factory.clone();
                    sessions.push(std::thread::spawn(move || serve_stream(stream, &client)));
                },
            )
            .expect("accept loop");
            for s in sessions {
                let _ = s.join();
            }
        })
    };

    // One session: append something, then request shutdown.
    let conn = TcpStream::connect(addr).expect("connect");
    let mut writer = conn.try_clone().expect("clone");
    let mut lines = BufReader::new(conn).lines();
    let append = r#"{"op":"append","log":"base x\nbegin t\ninsert x\ncommit\n"}"#;
    writeln!(writer, "{append}").expect("send append");
    let reply = lines.next().expect("append reply").expect("read");
    assert!(reply.starts_with("{\"ok\":\"appended\""), "got: {reply}");
    let shutdown = r#"{"op":"shutdown"}"#;
    writeln!(writer, "{shutdown}").expect("send shutdown");
    let reply = lines.next().expect("shutdown reply").expect("read");
    assert!(reply.starts_with("{\"ok\":\"bye\""), "got: {reply}");
    drop(writer);
    drop(lines);

    // The accept loop must now exit by itself. Poll the join with a
    // deadline far above the loop's poll interval but far below "hangs
    // until the next connection" (which here would be forever).
    let deadline = Instant::now() + Duration::from_secs(10);
    while !accept_thread.is_finished() {
        assert!(
            Instant::now() < deadline,
            "accept loop did not notice shutdown within 10s of an idle listener \
             (poll interval is {POLL_INTERVAL:?})"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    accept_thread.join().expect("accept thread");
    service.shutdown();
}
