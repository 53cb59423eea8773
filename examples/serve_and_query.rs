//! The archive as a network service: a real `xarch-server` on an
//! ephemeral port, a curator feeding it batched releases — the first
//! in-process through the served [`xarch::ArchiveHandle`] (the embedded
//! deployment), the rest **over the wire** — and client threads querying
//! it concurrently, each from its own leased snapshot, so every answer is
//! internally consistent no matter how many ingests land meanwhile. Ends
//! with the ops report: the server's own `server.*` metrics rendered as
//! Prometheus text, fetched over the protocol's `metrics` verb.
//!
//! The wire protocol is specified byte-for-byte in `docs/PROTOCOL.md`.
//!
//!     cargo run --release --example serve_and_query

use std::sync::atomic::{AtomicU64, Ordering};

use xarch::core::KeyQuery;
use xarch::StoreReader;
use xarch_proto::Client;
use xarch_server::{Server, ServerConfig};

const SPEC: &str = "(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))";
const VERSIONS: u32 = 16;
const BATCH: usize = 4;
const CLIENTS: usize = 3;

/// Version `i` holds records `1..=i`, each stamped with the version.
fn doc(i: u32) -> String {
    let mut s = String::from("<db>");
    for r in 1..=i {
        s.push_str(&format!("<rec><id>{r}</id><val>v{i}</val></rec>"));
    }
    s.push_str("</db>");
    s
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- the server: any builder backend, one config file ----------------
    let mut config = String::from("listen = 127.0.0.1:0\nworkers = 4\nindexed = true\n");
    for line in SPEC.lines() {
        config.push_str(&format!("spec = {line}\n"));
    }
    let server = Server::start(ServerConfig::from_text(&config)?)?;
    let addr = server.addr();
    println!("xarch-server listening on {addr}");

    let queries_served = AtomicU64::new(0);

    // ---- the curator, embedded: the first release merges in-process -----
    // through the handle the server serves from
    let first: Vec<_> = (1..=BATCH as u32)
        .map(|i| xarch::xml::parse(&doc(i)))
        .collect::<Result<_, _>>()?;
    server.handle().add_versions(&first)?;

    std::thread::scope(|s| {
        // ---- the curator, remote: batched ingest over the wire -----------
        s.spawn(move || {
            let mut curator = Client::connect(addr).expect("curator connects");
            let mut next = BATCH as u32 + 1;
            while next <= VERSIONS {
                let batch: Vec<String> = (0..BATCH as u32)
                    .map(|k| next + k)
                    .filter(|&i| i <= VERSIONS)
                    .map(doc)
                    .collect();
                let assigned = curator.ingest(&batch).expect("ingest batch");
                next += assigned.len() as u32;
            }
        });

        // ---- the readers: leased snapshots over the wire -----------------
        for c in 0..CLIENTS {
            let served = &queries_served;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                let mut last_pin = 0u32;
                while last_pin < VERSIONS {
                    let (lease, pin) = client.open_snapshot().expect("lease");
                    assert!(pin >= last_pin, "client {c}: pins must be monotone");
                    last_pin = pin;
                    if pin == 0 {
                        client.close_snapshot(lease).expect("close");
                        continue;
                    }
                    // a consistent bundle of queries at one pinned version:
                    // whatever the curator lands meanwhile, these agree
                    let full = client.retrieve(lease, pin).expect("retrieve");
                    let xml = full.expect("pinned version is archived");
                    assert!(
                        xml.contains(&format!("<id>{pin}</id>")),
                        "client {c}: version {pin} must contain record {pin}"
                    );
                    let q = vec![
                        KeyQuery::new("db"),
                        KeyQuery::new("rec").with_text("id", "1"),
                    ];
                    let hist = client.history(lease, &q).expect("history");
                    let hist = hist.expect("record 1 exists from version 1");
                    assert_eq!(hist.intervals(), &[(1, pin)], "client {c}");
                    assert_eq!(client.latest(lease).expect("latest"), pin);
                    client.close_snapshot(lease).expect("close");
                    served.fetch_add(3, Ordering::Relaxed);
                }
            });
        }
    });

    // ---- the ops report, over the wire -----------------------------------
    let mut admin = Client::connect(addr)?;
    let health = admin.health()?;
    assert!(health.ok, "server must report healthy");
    assert_eq!(health.latest, VERSIONS);
    println!(
        "served {} snapshot query bundles across {CLIENTS} clients; \
         server handled {} requests, latest version {}",
        queries_served.load(Ordering::Relaxed),
        health.served,
        health.latest
    );
    // the embedding process reads the same archive without a round trip
    let stats = server.handle().snapshot().stats()?;
    println!(
        "final archive: {} versions, {} elements, {} bytes",
        stats.versions, stats.elements, stats.size_bytes
    );
    let report = admin.metrics()?;
    print!("{report}");
    assert!(report.contains("server_requests"), "requests are counted");
    assert!(
        report.contains("server_retrieve_duration_count"),
        "per-verb latency histograms are populated"
    );
    Ok(())
}
