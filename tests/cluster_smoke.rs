//! End-to-end cluster smoke tests through the CLI binary and the
//! library surface: the `cluster-sim` subcommand reproduces its output
//! from a seed, and a real multi-daemon cluster forwards requests
//! between TCP peers.

use express_noc::cluster::{ClusterSim, ScriptAction, SimConfig, TcpForwarder};
use express_noc::placement::InitialStrategy;
use express_noc::routing::HopWeights;
use express_noc::service::protocol::{self, Request, SolveRequest};
use express_noc::service::{Client, Response, Server, ServiceConfig};
use std::process::Command;
use std::sync::Arc;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_express-noc-cli"))
}

#[test]
fn cluster_sim_subcommand_reproduces_from_a_seed() {
    let run = || {
        let out = cli()
            .args([
                "cluster-sim",
                "--nodes",
                "4",
                "--seed",
                "13",
                "--requests",
                "10",
                "--partition-at",
                "12",
                "--heal-at",
                "80",
                "--verbose",
                "1",
            ])
            .output()
            .expect("cluster-sim runs");
        assert!(
            out.status.success(),
            "cluster-sim failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 output")
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seed must reproduce the full output");
    assert!(first.contains("0 unanswered"));
    assert!(first.contains("ring convergence: converged"));
    // The partition forces at least one failover or drop to appear.
    assert!(first.contains("partition"));
}

#[test]
fn two_tcp_daemons_forward_to_the_shard_owner() {
    // Bind two servers on ephemeral ports, then wire each one's
    // forwarder with the discovered peer list.
    let config = |_: usize| ServiceConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 64,
        cache_shards: 2,
    };
    let mut a = Server::bind(&config(0)).expect("bind a");
    let mut b = Server::bind(&config(1)).expect("bind b");
    let peers = vec![
        a.local_addr().expect("addr a").to_string(),
        b.local_addr().expect("addr b").to_string(),
    ];
    a.set_forwarder(Arc::new(TcpForwarder::new(0, peers.clone(), 16, 1)));
    b.set_forwarder(Arc::new(TcpForwarder::new(1, peers.clone(), 16, 1)));
    let ha = a.handle();
    let hb = b.handle();
    let ta = std::thread::spawn(move || a.run());
    let tb = std::thread::spawn(move || b.run());

    // Send distinct solves to node A only: the ones whose shard B owns
    // are forwarded, executed on B, and answered through A.
    let mut client = Client::connect(&peers[0]).expect("connect a");
    for seed in 0..8u64 {
        let line = protocol::request_line(&protocol::Envelope {
            id: format!("smoke-{seed}"),
            deadline_ms: 30_000,
            forwarded: false,
            request: Request::Solve(SolveRequest {
                n: 6,
                c: 3,
                strategy: InitialStrategy::DivideAndConquer,
                moves: 60,
                chains: 1,
                seed,
                weights: HopWeights::PAPER,
                checkpoint: 0,
            }),
        });
        match client.request(&line).expect("round trip") {
            Response::Ok { id, .. } => assert_eq!(id, format!("smoke-{seed}")),
            Response::Err { code, message, .. } => panic!("solve failed: {code:?} {message}"),
        }
    }
    // Every key has exactly one owner: re-sending the same seeds to B
    // must be answered (cached on whichever node owns each shard).
    let mut client_b = Client::connect(&peers[1]).expect("connect b");
    for seed in 0..8u64 {
        let line = format!(
            r#"{{"id":"again-{seed}","kind":"solve","n":6,"c":3,"moves":60,"seed":{seed}}}"#
        );
        assert!(matches!(
            client_b.request(&line).expect("round trip"),
            Response::Ok { .. }
        ));
    }

    ha.shutdown();
    hb.shutdown();
    // Unblock the accept loops.
    let _ = Client::connect(&peers[0]);
    let _ = Client::connect(&peers[1]);
    ta.join().expect("join a").expect("server a");
    tb.join().expect("join b").expect("server b");
}

#[test]
fn library_sim_partition_heal_is_deterministic() {
    let run = || {
        let mut sim = ClusterSim::new(SimConfig {
            nodes: 3,
            seed: 99,
            drop_rate: 0.05,
            dup_rate: 0.05,
            ..SimConfig::default()
        });
        sim.script(10, ScriptAction::Partition(vec![vec![0], vec![1, 2]]));
        sim.script(70, ScriptAction::Heal);
        for r in 0..9u64 {
            let line = format!(
                r#"{{"id":"lib-{r}","kind":"solve","n":6,"c":3,"moves":60,"seed":{}}}"#,
                r % 3
            );
            sim.client_request(2 + 6 * r, (r % 3) as usize, line);
        }
        sim.run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.events, b.events);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.unanswered, 0);
}
