//! The catalogue: workloads, end-to-end metrics with their bounds, and
//! per-layer metrics. `xarch-bench list` prints it in the shape of
//! `BENCHMARK.json`, and a unit test holds the two equal.

use crate::stats::{num, quote};

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 55;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "crates/bench/src/bin/xarch-bench/Cargo.toml",
    "--",
];

pub const PATHS: [&str; 1] = ["crates/bench/src/bin/xarch-bench"];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The end-to-end metrics, every one reported by every workload. The
/// six `phase_*_ms` slots are the workload's own six phases, in the
/// order of [`Workload::phases`]: steady time per operation over the kept
/// rounds. The timing bounds are the contract's cap: here ten runs on ten
/// seeds spread 1.3–6 %, on the driver's host several times that; resident
/// memory spread up to 4.5 % (see the README).
pub const END_TO_END: [Metric; 9] = [
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mb", "MiB", 0.15),
    e2e("stored_bytes_per_user_byte", "B/B", 0.05),
    e2e("phase_a_ms", "ms", 0.25),
    e2e("phase_b_ms", "ms", 0.25),
    e2e("phase_c_ms", "ms", 0.25),
    e2e("phase_d_ms", "ms", 0.25),
    e2e("phase_e_ms", "ms", 0.25),
    e2e("phase_f_ms", "ms", 0.25),
];

/// How a phase's time per operation reads under its own name.
#[derive(Clone, Copy)]
pub enum Native {
    /// Operations per second: `1000 / ms`.
    Rate,
    /// Milliseconds per operation, as measured.
    Millis,
}

/// One phase of a workload: the end-to-end metric it is known by.
pub struct Phase {
    pub name: &'static str,
    pub unit: &'static str,
    pub native: Native,
    pub what: &'static str,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// The phases behind `phase_a_ms` … `phase_f_ms`: the first part's,
    /// then the second part's.
    pub phases: [Phase; 6],
}

const fn rate(name: &'static str, unit: &'static str, what: &'static str) -> Phase {
    Phase {
        name,
        unit,
        native: Native::Rate,
        what,
    }
}

const fn millis(name: &'static str, what: &'static str) -> Phase {
    Phase {
        name,
        unit: "ms",
        native: Native::Millis,
        what,
    }
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "write",
        why: "A curator publishes: served durable ingest alone, in batches and beside a reader, \
              then restart. Parse, annotate, merge, handle, journal, index upkeep work; the query \
              kernel hardly does.",
        phases: [
            rate(
                "ingest_vps",
                "versions/s",
                "curate: Client::ingest, one release per call",
            ),
            rate(
                "batch_ingest_vps",
                "versions/s",
                "curate: Client::ingest, batches of 4, fresh segment",
            ),
            millis(
                "restart_ms",
                "curate: drop the server, start it on the segment, first `latest`",
            ),
            rate(
                "mixed_ingest_vps",
                "versions/s",
                "mixed: connection A ingests while B queries",
            ),
            rate(
                "mixed_read_ops_per_s",
                "ops/s",
                "mixed: B's completed operations over A's wall time",
            ),
            millis(
                "indexed_restart_ms",
                "mixed: restart of the indexed segment, first `latest`",
            ),
        ],
    },
    Workload {
        name: "read",
        why: "Readers query: one script in-process and over the wire on an in-memory indexed \
              archive, then an LZSS journal read cold. Query kernel, index, wire, block decode \
              work; merge and journal writes do not.",
        phases: [
            rate(
                "local_query_ops_per_s",
                "ops/s",
                "query_hot: script Q through a Snapshot, 1 thread",
            ),
            millis(
                "local_retrieve_ms",
                "query_hot: script T through Snapshot::retrieve_into",
            ),
            millis(
                "served_retrieve_ms",
                "query_hot: script T over 1 leased connection",
            ),
            millis("cold_open_ms", "cold: ColdArchive::open and drop"),
            millis(
                "cold_retrieve_ms",
                "cold: retrieve_into at uniform-random versions",
            ),
            millis("cold_as_of_ms", "cold: as_of cycling over 3 fixed versions"),
        ],
    },
];

use Better::{Higher, Lower};

/// Per-layer metrics, `<layer>.<op>.<stat>`. A traced run of any workload
/// prints all of them; a layer the workload leaves idle reads 0.
pub const PER_LAYER: [Metric; 69] = [
    layer("xml.parse.ms", "ms", Lower),
    layer("xml.parse.mb_per_s", "MB/s", Higher),
    layer("xml.write.ms", "ms", Lower),
    layer("keys.annotate.ms", "ms", Lower),
    layer("core.merge.ms", "ms", Lower),
    layer("core.batch_merge.ms", "ms", Lower),
    layer("core.archive.rss_mb", "MiB", Lower),
    layer("index.apply.ms", "ms", Lower),
    layer("storage.journal.ms", "ms", Lower),
    layer("storage.journal.bytes_per_version", "B", Lower),
    layer("storage.fsyncs", "count", Lower),
    layer("storage.blocks_written", "count", Lower),
    layer("storage.bytes_written_per_user_byte", "B/B", Lower),
    layer("storage.checkpoint.ms", "ms", Lower),
    layer("storage.checkpoint.bytes", "B", Lower),
    layer("storage.reopen.ms", "ms", Lower),
    layer("handle.add.ms", "ms", Lower),
    layer("handle.write_hold.p50_ms", "ms", Lower),
    layer("handle.write_hold.p99_ms", "ms", Lower),
    layer("handle.fork.ms", "ms", Lower),
    layer("handle.replica.rss_mb", "MiB", Lower),
    layer("handle.pin.ns", "ns", Lower),
    layer("handle.pins", "count", Lower),
    layer("proto.ingest_encode.ms", "ms", Lower),
    layer("proto.ingest_decode.ms", "ms", Lower),
    layer("proto.ingest.p50_ms", "ms", Lower),
    layer("proto.ingest.p95_ms", "ms", Lower),
    layer("server.ingest.ms", "ms", Lower),
    layer("core.retrieve.us", "us", Lower),
    layer("core.as_of.us", "us", Lower),
    layer("core.history_values.us", "us", Lower),
    layer("core.range.us", "us", Lower),
    layer("core.diff.us", "us", Lower),
    layer("index.retrieve.us", "us", Lower),
    layer("index.as_of.us", "us", Lower),
    layer("index.history_values.us", "us", Lower),
    layer("index.range.us", "us", Lower),
    layer("index.diff.us", "us", Lower),
    layer("index.timestamp.probes_per_op", "count", Lower),
    layer("index.history.comparisons_per_op", "count", Lower),
    layer("handle.retrieve.us", "us", Lower),
    layer("handle.as_of.us", "us", Lower),
    layer("handle.history_values.us", "us", Lower),
    layer("handle.range.us", "us", Lower),
    layer("handle.diff.us", "us", Lower),
    layer("proto.retrieve.us", "us", Lower),
    layer("proto.as_of.us", "us", Lower),
    layer("proto.history_values.us", "us", Lower),
    layer("proto.range.us", "us", Lower),
    layer("proto.diff.us", "us", Lower),
    layer("proto.retrieve.bytes", "B", Lower),
    layer("server.retrieve.us", "us", Lower),
    layer("server.as_of.us", "us", Lower),
    layer("server.history_values.us", "us", Lower),
    layer("server.range.us", "us", Lower),
    layer("server.diff.us", "us", Lower),
    layer("server.ping_rtt.us", "us", Lower),
    layer("server.requests", "count", Lower),
    layer("mixed.read_slowdown", "x", Lower),
    layer("mixed.ingest_slowdown", "x", Lower),
    layer("storage.cold_open.ms", "ms", Lower),
    layer("storage.cold.blocks_decoded_per_op", "count", Lower),
    layer("storage.cold.bytes_decoded_per_op", "B", Lower),
    layer("storage.cold.mapped_mb", "MiB", Lower),
    layer("storage.cold_retrieve.self_ms", "ms", Lower),
    layer("compress.lzss_decode.ms_per_block", "ms", Lower),
    layer("compress.lzss_encode.mb_per_s", "MB/s", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.spans", "count", Lower),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn strings(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| quote(s)).collect();
    format!("[{}]", quoted.join(", "))
}

/// The catalogue as the text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": {},\n", strings(&COMMAND)));
    out.push_str(&format!("  \"paths\": {},\n", strings(&PATHS)));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    out.push_str(&format!("  \"workloads\": [\n{}\n  ],\n", rows.join(",\n")));
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str()),
                num(m.bound)
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"end_to_end\": [\n{}\n  ],\n",
        rows.join(",\n")
    ));
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"per_layer\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_equals_benchmark_json() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "BENCHMARK.json differs from `xarch-bench list`; regenerate one from the other"
        );
    }

    #[test]
    fn catalogue_meets_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .all(|m| m.unit.len() <= 16));
    }
}
