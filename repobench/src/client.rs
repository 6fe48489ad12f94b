//! The server under test as a child process, and one closed-loop
//! connection to it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Duration;

/// A reply slower than this means the server hung; the run fails
/// instead of outliving its time limit.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// `sna serve --listen 127.0.0.1:0 --workers 1`, run from this very
/// executable (its `sna` subcommand is the `sna` CLI's entry point).
pub struct Server {
    child: Child,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    stderr: Option<JoinHandle<()>>,
    line: String,
}

impl Server {
    /// Spawns the server, waits until it listens, and connects.
    pub fn spawn() -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["sna", "serve", "--listen", "127.0.0.1:0", "--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn the server: {e}"))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut banner = String::new();
        let addr = loop {
            banner.clear();
            let n = stderr.read_line(&mut banner).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("the server exited before it listened".into());
            }
            if let Some(addr) = banner.trim().strip_prefix("sna serve: listening on ") {
                break addr.to_string();
            }
        };
        // Drain the rest of stderr so the server never blocks on it; the
        // thread ends when the server exits.
        let drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = stderr.read_to_end(&mut sink);
        });
        let connect = TcpStream::connect(&addr)
            .and_then(|s| {
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(REPLY_TIMEOUT))?;
                Ok(s)
            })
            .and_then(|s| Ok((s.try_clone()?, s)));
        match connect {
            Ok((read_half, writer)) => Ok(Server {
                child,
                reader: BufReader::with_capacity(1 << 16, read_half),
                writer,
                stderr: Some(drain),
                line: String::new(),
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = drain.join();
                Err(format!("cannot connect to {addr}: {e}"))
            }
        }
    }

    /// Sends one request line (in a single write) and returns the reply
    /// line without its newline.
    pub fn call(&mut self, request: &[u8]) -> Result<&str, String> {
        self.writer
            .write_all(request)
            .map_err(|e| format!("send failed: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("no reply: {e}"))?;
        if n == 0 {
            return Err("the server closed the connection".into());
        }
        Ok(self.line.trim_end_matches('\n'))
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the server's status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in the server's status".to_string())
    }

    /// Stops the server and waits until it and the stderr drain ended.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}
