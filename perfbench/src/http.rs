//! A one-request-per-connection HTTP/1.1 client (`Connection: close`).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// From connect to the last response byte.
    pub latency: Duration,
}

pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    let t0 = Instant::now();
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    conn.set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    conn.write_all(head.as_bytes())
        .and_then(|_| conn.write_all(body.as_bytes()))
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let latency = t0.elapsed();

    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("reply has no header terminator")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "reply head is not UTF-8")?;
    let body =
        String::from_utf8(raw[split + 4..].to_vec()).map_err(|_| "reply body is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("malformed status line")?;
    let length = lines.find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.trim()
            .eq_ignore_ascii_case("content-length")
            .then(|| v.trim().parse::<usize>().ok())?
    });
    if length != Some(body.len()) {
        return Err(format!(
            "content-length {length:?} but {} body bytes",
            body.len()
        ));
    }
    Ok(Reply {
        status,
        body,
        latency,
    })
}
