//! Small helpers the workloads share: starting a server, dialling it,
//! reading the public `Obs` registry, timing a block.

use std::time::Instant;

use xarch::obs::Obs;
use xarch_proto::Client;
use xarch_server::{Server, ServerConfig};

use crate::harness::Tally;

pub type RunningServer = xarch_server::RunningServer;

pub fn start(cfg: ServerConfig) -> RunningServer {
    Server::start(cfg).expect("benchmark server starts")
}

pub fn connect(server: &RunningServer) -> Client {
    Client::connect(server.addr()).expect("benchmark client connects")
}

/// A registry counter's value, 0 when the layer never registered it.
pub fn counter(obs: &Obs, name: &str) -> f64 {
    obs.registry()
        .get_counter(name)
        .map_or(0.0, |c| c.get() as f64)
}

/// `(p50, p99)` of a registry histogram recorded in microseconds, in
/// milliseconds (bucket upper bounds, as the registry reports them).
pub fn histogram_ms(obs: &Obs, name: &str) -> (f64, f64) {
    obs.registry().get_histogram(name).map_or((0.0, 0.0), |h| {
        let s = h.snapshot();
        (s.p50 as f64 / 1e3, s.p99 as f64 / 1e3)
    })
}

/// Wall time of `f` in milliseconds.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// Ingests `texts` over `client` in calls of `batch` releases, checking
/// that the server assigns the versions from `first` on.
pub fn ingest(client: &mut Client, tally: &mut Tally, texts: &[String], batch: usize, first: u32) {
    let mut next = first;
    for chunk in texts.chunks(batch) {
        let want: Vec<u32> = (next..next + chunk.len() as u32).collect();
        if let Some(got) = tally.ok(client.ingest(chunk), "ingest") {
            tally.verify(got == want, || {
                format!("ingest acknowledged {got:?}, expected {want:?}")
            });
        }
        next += chunk.len() as u32;
    }
}
