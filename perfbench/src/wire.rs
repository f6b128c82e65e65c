//! A minimal HTTP/1.1 client for the gateway: one request per connection,
//! which is what the gateway's server speaks.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One request/response exchange.
pub struct Exchange {
    pub status: u16,
    pub body: String,
    pub began: Instant,
    /// When the TCP connection was established.
    pub connected: Instant,
    /// When the whole response had been read.
    pub ended: Instant,
}

pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<Exchange> {
    let began = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connected = Instant::now();
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n");
    if let Some(b) = body {
        req.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            b.len()
        ));
    }
    req.push_str("\r\n");
    if let Some(b) = body {
        req.push_str(b);
    }
    stream.write_all(req.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let ended = Instant::now();
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response");
    let (head, payload) = raw.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok(Exchange {
        status,
        body: payload.to_string(),
        began,
        connected,
        ended,
    })
}

/// The scalar value of `"key":` in one of the gateway's flat JSON bodies,
/// quotes trimmed.
pub fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = body.find(&pat)? + pat.len();
    let rest = &body[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

/// The value of gauge `name` in a Prometheus text exposition.
pub fn prom_value(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().find_map(|l| {
        let (n, v) = l.split_once(' ')?;
        (n == name).then(|| v.trim().parse().ok()).flatten()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_reads_flat_json() {
        let body = r#"{"id":"sub.00007","state":"done","success":true,"turnaround_secs":0.074100,"tasks_done":8}"#;
        assert_eq!(field(body, "id"), Some("sub.00007"));
        assert_eq!(field(body, "state"), Some("done"));
        assert_eq!(field(body, "tasks_done"), Some("8"));
        assert_eq!(field(body, "missing"), None);
    }

    #[test]
    fn prom_value_matches_whole_names() {
        let text = "# TYPE rts_db_round_trips gauge\nrts_db_round_trips 42\n\
                    rts_db_round_trips_high_water 50\n";
        assert_eq!(prom_value(text, "rts_db_round_trips"), Some(42.0));
        assert_eq!(prom_value(text, "rts_db"), None);
    }
}
