//! Deploy decisions that must not depend on how `submit` computes them:
//! provider selection reads proximity per candidate (downed provider,
//! manager-local replica, unregistered provider), and a thresholded replica
//! policy declares the same replicas whether or not its counts are taken
//! eagerly.  The expected providers and declarations are golden values
//! recorded with an eagerly built proximity table and eager policy counts.

use p2pmon_core::{Monitor, MonitorConfig, ReplicaPolicy, SubscriptionHandle};
use p2pmon_dht::ReplicaDeclaration;
use p2pmon_net::NetworkConfig;
use p2pmon_workloads::OverlappingStorm;

fn monitor(storm: &OverlappingStorm, replica_policy: ReplicaPolicy) -> Monitor {
    let mut monitor = Monitor::new(MonitorConfig {
        enable_replicas: true,
        replica_policy,
        workers: 1,
        network: NetworkConfig {
            latency: storm.latency_model(),
            ..NetworkConfig::default()
        },
        ..MonitorConfig::default()
    });
    monitor.add_peer("backend.net");
    monitor
}

/// The provider the one channel subscription of `handle` attached to.
fn provider(monitor: &Monitor, handle: &SubscriptionHandle) -> (String, String) {
    let providers = monitor.subscribed_providers(handle);
    assert_eq!(providers.len(), 1, "one channel subscription per consumer");
    providers.into_iter().next().expect("length checked")
}

fn pair(peer: &str, stream: &str) -> (String, String) {
    (peer.to_string(), stream.to_string())
}

#[test]
fn provider_selection_pins_downed_local_and_unknown_providers() {
    let storm = OverlappingStorm::clustered(9, 1, 2, 3);
    let mut monitor = monitor(&storm, ReplicaPolicy::default());
    let producer = monitor
        .submit("c0-peer0.org", &storm.subscription(0))
        .expect("producer deploys");
    let first = monitor
        .submit("c0-peer1.org", &storm.subscription(1))
        .expect("first consumer deploys");
    let origin = monitor.report(&first).expect("report").reuse.reused_defs[0].clone();
    assert_eq!(origin, pair("hub.net", "s0-t2"));
    assert_eq!(provider(&monitor, &first), origin);

    // Manager-local replica: a second subscription managed from the replica
    // peer attaches to the copy on its own peer (proximity 0).
    let local = monitor
        .submit("c0-peer1.org", &storm.subscription(2))
        .expect("local consumer deploys");
    assert_eq!(provider(&monitor, &local), pair("c0-peer1.org", "s1-t0"));

    // Downed provider: with the replica peer down, a new consumer goes
    // back to the origin.
    monitor.fail_peer("c0-peer1.org");
    let around = monitor
        .submit("c0-peer2.org", &storm.subscription(3))
        .expect("consumer around the downed replica deploys");
    assert_eq!(provider(&monitor, &around), origin);
    monitor.recover_peer("c0-peer1.org");

    // Unknown provider: a replica declared on a peer the network has never
    // registered ranks behind every registered provider, but ahead of a
    // downed origin.
    monitor.stream_db_mut().publish_replica(ReplicaDeclaration {
        peer_id: origin.0.clone(),
        stream_id: origin.1.clone(),
        replica_peer: "ghost.org".to_string(),
        replica_stream: "ghost-stream".to_string(),
    });
    let behind_known = monitor
        .submit("c1-peer0.org", &storm.subscription(4))
        .expect("consumer with an unknown replica deploys");
    assert_eq!(provider(&monitor, &behind_known), origin);
    monitor.fail_peer(&origin.0);
    monitor.fail_peer("c0-peer1.org");
    monitor.fail_peer("c0-peer2.org");
    let closest = monitor
        .submit("c1-peer1.org", &storm.subscription(5))
        .expect("consumer with a downed origin deploys");
    assert_eq!(provider(&monitor, &closest), pair("c1-peer0.org", "s4-t0"));
    monitor.fail_peer("c1-peer0.org");
    monitor.fail_peer("c1-peer1.org");
    let ahead_of_down = monitor
        .submit("c1-peer2.org", &storm.subscription(6))
        .expect("consumer with every known provider down deploys");
    assert_eq!(
        provider(&monitor, &ahead_of_down),
        pair("ghost.org", "ghost-stream")
    );
    let stats = monitor.replica_stats();
    assert_eq!(
        (
            stats.replicas_created,
            stats.consumers_via_replica,
            stats.consumers_via_origin
        ),
        (4, 2, 3)
    );
    let _ = producer;
}

#[test]
fn capped_thresholded_policy_declares_the_same_replicas() {
    let storm = OverlappingStorm::clustered(3, 1, 2, 3);
    let mut monitor = monitor(
        &storm,
        ReplicaPolicy {
            min_rate: 1.0,
            max_replicas_per_stream: 1,
            prefer_cluster_median: false,
        },
    );
    let producer = monitor
        .submit("c0-peer0.org", &storm.subscription(0))
        .expect("producer deploys");
    let mut traffic = storm.clone();
    // A cold stream: the rate gate refuses the first remote consumer.
    let cold = monitor
        .submit("c0-peer1.org", &storm.subscription(1))
        .expect("cold consumer deploys");
    let origin = pair("hub.net", "s0-t2");
    assert_eq!(provider(&monitor, &cold), origin);
    assert_eq!(monitor.replica_stats().replicas_created, 0);
    // Warm the stream so the remote consumers clear the `min_rate` gate;
    // the cap then admits exactly one copy.
    for call in traffic.calls(40) {
        monitor.inject_soap_call(&call);
        monitor.run_until_idle();
    }
    let mut handles = Vec::new();
    for (i, manager) in [
        "c0-peer2.org",
        "c1-peer0.org",
        "c1-peer1.org",
        "c1-peer2.org",
    ]
    .into_iter()
    .enumerate()
    {
        handles.push(
            monitor
                .submit(manager, &storm.subscription(2 + i))
                .expect("warm consumer deploys"),
        );
    }
    let replicas: Vec<(String, String)> = monitor
        .stream_db_mut()
        .replicas_of(&origin.0, &origin.1)
        .into_iter()
        .map(|r| (r.replica_peer.clone(), r.replica_stream.clone()))
        .collect();
    assert_eq!(replicas, [pair("c0-peer2.org", "s2-t0")]);
    let replica = pair("c0-peer2.org", "s2-t0");
    let attached: Vec<(String, String)> = handles.iter().map(|h| provider(&monitor, h)).collect();
    assert_eq!(
        attached,
        [origin, replica.clone(), replica.clone(), replica]
    );
    let stats = monitor.replica_stats();
    assert_eq!(
        (
            stats.replicas_created,
            stats.consumers_via_replica,
            stats.consumers_via_origin
        ),
        (1, 3, 2)
    );
    let _ = producer;
}
