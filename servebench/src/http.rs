//! A blocking HTTP/1.1 client for the daemon: one `Connection: close`
//! exchange per request, the protocol `examples/serve_client.rs` speaks.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest the client waits on one exchange before counting it failed.
const TIMEOUT: Duration = Duration::from_secs(20);

/// A response's status line code and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The body (everything after the header block).
    pub body: String,
}

/// Sends one request and reads the whole response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    parse_response(&raw).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("malformed response {:?}", raw.get(..raw.len().min(80))),
        )
    })
}

fn parse_response(raw: &str) -> Option<Response> {
    let (head, body) = raw.split_once("\r\n\r\n")?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    Some(Response {
        status,
        body: body.to_owned(),
    })
}

/// An unsigned integer field of a flat JSON body, e.g. `"job"` of a
/// submit acknowledgement.
pub fn u64_field(body: &str, name: &str) -> Option<u64> {
    let object = slotsel_obs::json::parse_object(body.trim()).ok()?;
    let value = object.get(name)?.as_f64()?;
    (value >= 0.0 && value.fract() == 0.0).then_some(value as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_body() {
        let raw = "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(
            parse_response(raw),
            Some(Response {
                status: 429,
                body: "{}".to_owned()
            })
        );
        assert_eq!(parse_response("garbage"), None);
    }

    #[test]
    fn reads_integer_fields_of_flat_bodies() {
        let ack = "{\"job\":17,\"tenant\":\"alpha\",\"budget\":1500.5}\n";
        assert_eq!(u64_field(ack, "job"), Some(17));
        assert_eq!(u64_field(ack, "budget"), None);
        assert_eq!(u64_field(ack, "missing"), None);
    }
}
