//! The `uprov-service` binary as a child process: spawn it over a data
//! directory, talk protocol lines to it over TCP, and stop it.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a spawned server may take to answer its first request.
const START_DEADLINE: Duration = Duration::from_secs(60);
/// How long a server may take to exit after `shutdown`.
const STOP_DEADLINE: Duration = Duration::from_secs(20);

/// One protocol connection: a line out, a line back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    line: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: Vec::new(),
            line: String::new(),
        })
    }

    /// Sends `line` and blocks for the reply, returned without its newline.
    /// The reply borrows the connection's buffer until the next call.
    pub fn call(&mut self, line: &str) -> io::Result<&str> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end_matches('\n'))
    }
}

/// A running server. Dropping it kills the process and waits for it.
pub struct Server {
    child: Option<Child>,
    pub addr: SocketAddr,
    log: PathBuf,
}

/// A port that was free a moment ago.
fn free_port() -> io::Result<SocketAddr> {
    TcpListener::bind("127.0.0.1:0")?.local_addr()
}

impl Server {
    /// Spawns the server over `dir` and waits for its first answer.
    /// Returns the server, its first connection and the seconds from spawn
    /// to that answer (snapshot load plus WAL-tail recovery plus start-up).
    pub fn start(bin: &Path, dir: &Path, log: &Path) -> io::Result<(Server, Conn, f64)> {
        let mut last = None;
        // The port is probed, then handed to the server; another process
        // may take it in between, so a failed bind is retried on a new one.
        for _ in 0..3 {
            match Server::try_start(bin, dir, log)? {
                Ok(started) => return Ok(started),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("server did not start")))
    }

    fn try_start(
        bin: &Path,
        dir: &Path,
        log: &Path,
    ) -> io::Result<Result<(Server, Conn, f64), io::Error>> {
        let addr = free_port()?;
        let t0 = Instant::now();
        let child = Command::new(bin)
            .arg("--dir")
            .arg(dir)
            .arg("--listen")
            .arg(addr.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(File::create(log)?))
            .spawn()?;
        let mut server = Server {
            child: Some(child),
            addr,
            log: log.to_owned(),
        };
        loop {
            if let Ok(mut conn) = Conn::open(addr) {
                let reply = conn.call("{\"op\":\"stats\"}")?;
                if !reply.starts_with("{\"ok\":\"stats\"") {
                    return Err(io::Error::other(format!("first answer: {reply}")));
                }
                let setup = t0.elapsed().as_secs_f64();
                return Ok(Ok((server, conn, setup)));
            }
            if let Some(status) = server.child.as_mut().and_then(|c| c.try_wait().ok()?) {
                server.child = None;
                return Ok(Err(io::Error::other(format!(
                    "server exited with {status} before answering: {}",
                    server.log_text()
                ))));
            }
            if t0.elapsed() > START_DEADLINE {
                return Err(io::Error::other("server did not answer within a minute"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn log_text(&self) -> String {
        std::fs::read_to_string(&self.log).unwrap_or_default()
    }

    fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let pid = self
            .pid()
            .ok_or_else(|| io::Error::other("server not running"))?;
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(kb / 1024.0)
    }

    /// Asks the server to shut down over `conn` and waits for it to exit.
    pub fn stop(mut self, mut conn: Conn) -> io::Result<()> {
        let reply = conn.call("{\"op\":\"shutdown\"}")?.to_owned();
        drop(conn);
        if !reply.starts_with("{\"ok\":\"bye\"") {
            return Err(io::Error::other(format!("shutdown answered: {reply}")));
        }
        let mut child = self.child.take().expect("a started server has a child");
        let t0 = Instant::now();
        loop {
            if let Some(status) = child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("server exited with {status}")))
                };
            }
            if t0.elapsed() > STOP_DEADLINE {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("server did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
