//! Chaos: a request that panics while a worker answers it gets an
//! `Internal` error reply, and the worker serves the next request as if
//! nothing happened. Run with `--features failpoints`; its own test
//! binary because the failpoint registry is process-global.
#![cfg(feature = "failpoints")]

use drtopk_common::{Distribution, Weights, WorkloadSpec};
use drtopk_core::batch::WORKER_FAILPOINT;
use drtopk_core::{DlOptions, DualLayerIndex};
use drtopk_failpoints::FailAction;
use drtopk_server::{Client, ClientError, ErrorCode, Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn a_panicking_request_answers_internal_and_the_worker_lives_on() {
    let rel = WorkloadSpec::new(Distribution::Independent, 3, 300, 2).generate();
    let idx = Arc::new(DualLayerIndex::build(&rel, DlOptions::dl_plus()));
    let handle = Server::start(Arc::clone(&idx), ServerConfig::new().workers(1)).expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");
    // A worker killed by the panic would leave its reply unsent forever.
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let w = [0.2, 0.3, 0.5];
    let want = idx.topk(&Weights::new(w.to_vec()).unwrap(), 7);

    drtopk_failpoints::reset();
    // Visit 1 is the second request the one worker answers.
    drtopk_failpoints::arm(WORKER_FAILPOINT, 1, FailAction::Panic);
    for i in 0..3 {
        match client.query(&w, 7, 0, 0) {
            Ok(reply) => {
                assert_ne!(i, 1, "the armed request must fail");
                let ids: Vec<u64> = want.ids.iter().map(|&t| u64::from(t)).collect();
                assert_eq!(reply.ids, ids, "request {i}");
            }
            Err(ClientError::Server { code, message }) => {
                assert_eq!(i, 1, "only the armed request fails: {message}");
                assert_eq!(code, ErrorCode::Internal);
                assert!(message.contains("failpoint panic"), "{message}");
            }
            Err(e) => panic!("request {i}: {e:?}"),
        }
    }
    drtopk_failpoints::reset();
    handle.shutdown();
}
