//! One spawned `idr` process driven over its stdin/stdout pipes.
//!
//! The client reads the server's stdout to EOF before waiting on it: a
//! reader that closes early makes `idr serve` panic on a broken pipe,
//! and that panic would be this benchmark's fault, not the server's.
//! A watchdog kills a process that outlives its deadline, so a hung
//! server fails the run instead of stalling it.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub struct Server {
    child: Arc<Mutex<Child>>,
    stdin: Option<ChildStdin>,
    out: BufReader<ChildStdout>,
    stderr: Option<JoinHandle<String>>,
    done: Arc<AtomicBool>,
    watchdog: Option<JoinHandle<()>>,
    /// When the process was spawned.
    pub spawned: Instant,
    pid: u32,
}

impl Server {
    pub fn spawn(idr: &Path, args: &[&str], deadline: Duration) -> Result<Server, String> {
        let spawned = Instant::now();
        let mut child = Command::new(idr)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", idr.display()))?;
        let pid = child.id();
        let stdin = child.stdin.take();
        let out = BufReader::with_capacity(1 << 16, child.stdout.take().expect("piped stdout"));
        let mut err = child.stderr.take().expect("piped stderr");
        let stderr = std::thread::spawn(move || {
            let mut s = String::new();
            let _ = err.read_to_string(&mut s);
            s
        });
        let child = Arc::new(Mutex::new(child));
        let done = Arc::new(AtomicBool::new(false));
        let watchdog = {
            let (child, done) = (child.clone(), done.clone());
            std::thread::spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    if spawned.elapsed() > deadline {
                        let _ = child.lock().expect("child lock").kill();
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        };
        Ok(Server {
            child,
            stdin,
            out,
            stderr: Some(stderr),
            done,
            watchdog: Some(watchdog),
            spawned,
            pid,
        })
    }

    pub fn send(&mut self, text: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("stdin already closed")?;
        stdin
            .write_all(text.as_bytes())
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("write to server: {e}"))
    }

    /// The next stdout line, without its newline; EOF is an error.
    pub fn line(&mut self) -> Result<String, String> {
        let mut s = String::new();
        match self.out.read_line(&mut s) {
            Ok(0) => Err("server closed its output".to_string()),
            Ok(_) => {
                s.truncate(s.trim_end_matches('\n').len());
                Ok(s)
            }
            Err(e) => Err(format!("read from server: {e}")),
        }
    }

    /// Reads lines until one starts with `prefix`, returning it.
    pub fn line_starting(&mut self, prefix: &str) -> Result<String, String> {
        loop {
            let l = self.line()?;
            if l.starts_with(prefix) {
                return Ok(l);
            }
        }
    }

    /// Peak resident set (`VmHWM`) of the process so far, in bytes.
    pub fn peak_rss(&self) -> Result<u64, String> {
        proc_status_kb(&format!("/proc/{}/status", self.pid), "VmHWM:").map(|kb| kb * 1024)
    }

    /// Sends `quit`, reads stdout to EOF and waits. Returns the lines
    /// printed after `quit`; a non-zero exit or a panic is an error.
    pub fn quit(mut self) -> Result<Vec<String>, String> {
        self.send("quit\n")?;
        drop(self.stdin.take());
        let mut tail = Vec::new();
        loop {
            match self.line() {
                Ok(l) => tail.push(l),
                Err(e) if e.starts_with("server closed") => break,
                Err(e) => return Err(e),
            }
        }
        let status = self.child.lock().expect("child lock").wait();
        self.done.store(true, Ordering::SeqCst);
        let stderr = self
            .stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        let status = status.map_err(|e| format!("wait: {e}"))?;
        if stderr.contains("panicked") {
            return Err(format!("server panicked: {}", stderr.trim()));
        }
        if !status.success() {
            return Err(format!("server exited with {status}: {}", stderr.trim()));
        }
        Ok(tail)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.done.store(true, Ordering::SeqCst);
        drop(self.stdin.take());
        if let Ok(mut c) = self.child.lock() {
            if c.try_wait().ok().flatten().is_none() {
                let _ = c.kill();
            }
            let _ = c.wait();
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// A `kB` field of a `/proc/.../status` file.
pub fn proc_status_kb(path: &str, field: &str) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no {field} in {path}"))
}

/// Runs `idr` to completion with no stdin, returning its stdout.
pub fn run(idr: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new(idr)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("run idr {}: {e}", args.join(" ")))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() || stderr.contains("panicked") {
        return Err(format!(
            "idr {} exited with {}: {}",
            args.join(" "),
            out.status,
            stderr.trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}
