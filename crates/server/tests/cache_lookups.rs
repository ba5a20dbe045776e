//! With the result cache on, a served request makes exactly one cache
//! lookup, at admission: a repeat hits there, and a miss is counted once
//! even though the worker that answers it also fills the entry. This is
//! its own test binary because the metrics registry is process-global.

use drtopk_common::{Distribution, Weights, WorkloadSpec};
use drtopk_core::{DlOptions, DualLayerIndex};
use drtopk_server::{Client, Server, ServerConfig};
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// The `/metrics` exposition, scraped over plain HTTP.
fn scrape(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("get");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read");
    body
}

fn counter(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{name} missing from /metrics"))
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn each_served_cache_lookup_counts_once() {
    let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 2, 3000, 5).generate();
    let idx = Arc::new(DualLayerIndex::build(&rel, DlOptions::dl_plus()));
    let zero = idx
        .zero2d()
        .expect("a 2-d DL+ index has the exact zero layer");

    // One repeated weight, then six in cells of their own: distinct cells
    // are distinct cache keys, so each of the six must miss.
    let repeated = [0.5, 0.5];
    let mut cells = HashSet::from([zero.select(&Weights::new(repeated.to_vec()).unwrap())]);
    let distinct: Vec<[f64; 2]> = (1..1000)
        .map(|i| [f64::from(i) / 1000.0, 1.0 - f64::from(i) / 1000.0])
        .filter(|w| cells.insert(zero.select(&Weights::new(w.to_vec()).unwrap())))
        .take(6)
        .collect();
    assert_eq!(distinct.len(), 6, "the chain must span six more cells");

    let handle = Server::start(idx, ServerConfig::new().cache(true).workers(1)).expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let first = client.query(&repeated, 10, 0, 0).expect("first query");

    // The first of the 11 identical queries missed and filled its entry;
    // count from there.
    let before = scrape(handle.addr());
    for _ in 0..10 {
        let again = client.query(&repeated, 10, 0, 0).expect("repeat");
        assert_eq!(again.ids, first.ids);
    }
    for w in &distinct {
        client.query(w, 10, 0, 0).expect("distinct cell");
    }
    let after = scrape(handle.addr());
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    assert_eq!(delta("drtopk_cache_hits_total"), 10, "{after}");
    assert_eq!(delta("drtopk_cache_misses_total"), 6, "{after}");
    handle.shutdown();
}
