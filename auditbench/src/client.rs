//! The benchmark's HTTP client: one keep-alive connection, reopened when
//! the server ends it, every request an `http` span.

use crate::trace;
use coverage_service::http::HttpClient;
use coverage_service::{JobReport, JobSpec};
use serde::{Deserialize, Value};
use std::io;
use std::net::SocketAddr;

/// A client of the daemon's HTTP API.
pub struct Client {
    addr: SocketAddr,
    conn: Option<HttpClient>,
    /// Connections opened so far, reconnects included.
    pub connections: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            conn: None,
            connections: 0,
        }
    }

    /// One request-response round trip, timed as span `name` with the
    /// response body's length as its value. A connection the server closed
    /// (`Connection: close`, an error) is reopened by the next request.
    pub fn request(
        &mut self,
        name: &'static str,
        id: u64,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let mut span = trace::enter("http", name, id);
        let conn = match &mut self.conn {
            Some(conn) => conn,
            slot => {
                let _connect = trace::enter("http", "connect", id);
                self.connections += 1;
                slot.insert(HttpClient::connect(self.addr)?)
            }
        };
        let reply = conn
            .send(method, path, body)
            .and_then(|()| conn.read_response_with_headers());
        match reply {
            Ok((code, headers, body)) => {
                let closing = headers
                    .iter()
                    .any(|(n, v)| n == "connection" && v.eq_ignore_ascii_case("close"));
                if closing {
                    self.conn = None;
                }
                span.set_value(body.len() as u64);
                Ok((code, body))
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    /// `GET /jobs/{id}`: the status code and raw body.
    pub fn get_report(&mut self, id: u64) -> Result<String, String> {
        let (code, body) = self
            .request("get_report", id, "GET", &format!("/jobs/{id}"), None)
            .map_err(|e| format!("GET /jobs/{id}: {e}"))?;
        if code != 200 {
            return Err(format!("GET /jobs/{id}: {code} {body}"));
        }
        Ok(body)
    }

    /// One audit through the API: `POST /jobs`, follow
    /// `GET /jobs/{id}/watch` to its terminal line, then read the report.
    /// `seq` is the benchmark's number for the audit, the id of its spans.
    pub fn audit(&mut self, seq: u64, spec: &JobSpec) -> Result<JobReport, String> {
        let body = serde_json::to_string(spec).map_err(|e| e.to_string())?;
        let (code, reply) = self
            .request("post_jobs", seq, "POST", "/jobs", Some(&body))
            .map_err(|e| format!("POST /jobs: {e}"))?;
        if code != 201 {
            return Err(format!("POST /jobs: {code} {reply}"));
        }
        let id = field(&reply, "id")?;
        let id = u64::from_value(&id).map_err(|e| e.to_string())?;
        let (code, stream) = self
            .request("watch", seq, "GET", &format!("/jobs/{id}/watch"), None)
            .map_err(|e| format!("GET /jobs/{id}/watch: {e}"))?;
        let last = stream
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        if code != 200 || !last.contains("\"done\"") {
            return Err(format!("GET /jobs/{id}/watch: {code}, last line `{last}`"));
        }
        let (code, body) = self
            .request("get_report", seq, "GET", &format!("/jobs/{id}"), None)
            .map_err(|e| format!("GET /jobs/{id}: {e}"))?;
        if code != 200 {
            return Err(format!("GET /jobs/{id}: {code} {body}"));
        }
        parse_report(&body)
    }
}

/// Any JSON document, parsed.
struct Json(Value);

impl Deserialize for Json {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(Json(value.clone()))
    }
}

/// One top-level field of a JSON object body.
pub fn field(body: &str, name: &str) -> Result<Value, String> {
    let Json(value) = serde_json::from_str(body).map_err(|e| format!("{e}: {body}"))?;
    value
        .get(name)
        .cloned()
        .ok_or_else(|| format!("no `{name}` in {body}"))
}

/// The report inside a `GET /jobs/{id}` body.
fn parse_report(body: &str) -> Result<JobReport, String> {
    JobReport::from_value(&field(body, "report")?).map_err(|e| format!("{e}: {body}"))
}
