//! MPI-layer integration tests across all three transports.

use cord_core::prelude::*;
use cord_mpi::{create_world, AllreduceAlgo, Comm, MpiTransport, ReduceOp, EAGER_MAX};

fn transports() -> Vec<MpiTransport> {
    vec![
        MpiTransport::Verbs(Dataplane::Bypass),
        MpiTransport::Verbs(Dataplane::Cord),
        MpiTransport::Ipoib,
    ]
}

fn fabric_for(t: MpiTransport) -> Fabric {
    let b = Fabric::builder(system_l()).seed(5);
    match t {
        MpiTransport::Ipoib => b.with_ipoib().build(),
        _ => b.build(),
    }
}

fn run_world<F, Fut>(t: MpiTransport, nranks: usize, f: F)
where
    F: Fn(Comm) -> Fut + 'static,
    Fut: std::future::Future<Output = ()> + 'static,
{
    let fabric = fabric_for(t);
    let fabric2 = fabric.clone();
    fabric.block_on(async move {
        let comms = create_world(&fabric2, nranks, t).await;
        let mut handles = Vec::new();
        for c in comms {
            handles.push(fabric2.spawn(f(c)));
        }
        for h in handles {
            h.await;
        }
    });
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

#[test]
fn eager_send_recv_all_transports() {
    for t in transports() {
        run_world(t, 2, move |c| async move {
            if c.rank() == 0 {
                c.send(1, 7, &pattern(512, 1)).await;
            } else {
                let m = c.recv(0, 7).await;
                assert_eq!(&m[..], &pattern(512, 1)[..], "{t}");
            }
        });
    }
}

#[test]
fn rendezvous_large_message_all_transports() {
    for t in transports() {
        let len = 200_000; // well above EAGER_MAX
        run_world(t, 2, move |c| async move {
            if c.rank() == 0 {
                c.send(1, 9, &pattern(len, 3)).await;
            } else {
                let m = c.recv(0, 9).await;
                assert_eq!(m.len(), len);
                assert_eq!(&m[..], &pattern(len, 3)[..], "{t}");
            }
        });
    }
}

#[test]
fn boundary_sizes_roundtrip() {
    let t = MpiTransport::Verbs(Dataplane::Cord);
    for len in [0usize, 1, EAGER_MAX - 1, EAGER_MAX, EAGER_MAX + 1, 65536] {
        run_world(t, 2, move |c| async move {
            if c.rank() == 0 {
                c.send(1, 1, &pattern(len, 9)).await;
            } else {
                let m = c.recv(0, 1).await;
                assert_eq!(m.len(), len);
                assert_eq!(&m[..], &pattern(len, 9)[..]);
            }
        });
    }
}

#[test]
fn tag_matching_out_of_order() {
    // Two messages with different tags; receiver asks for the second first.
    run_world(MpiTransport::Verbs(Dataplane::Bypass), 2, |c| async move {
        if c.rank() == 0 {
            c.send(1, 100, b"first").await;
            c.send(1, 200, b"second").await;
        } else {
            let b = c.recv(0, 200).await;
            let a = c.recv(0, 100).await;
            assert_eq!(&b[..], b"second");
            assert_eq!(&a[..], b"first");
        }
    });
}

#[test]
fn unexpected_rendezvous_is_matched_later() {
    // Sender fires a big message before the receiver posts: the RTS must
    // wait in the pending queue until recv() arrives.
    run_world(MpiTransport::Verbs(Dataplane::Cord), 2, |c| async move {
        if c.rank() == 0 {
            c.send(1, 5, &pattern(100_000, 2)).await;
        } else {
            // Let the RTS arrive first.
            c.core().sim().sleep(SimDuration::from_ms(1)).await;
            let m = c.recv(0, 5).await;
            assert_eq!(&m[..], &pattern(100_000, 2)[..]);
        }
    });
}

#[test]
fn bidirectional_exchange_does_not_deadlock() {
    // Both ranks send a rendezvous-sized message simultaneously.
    run_world(MpiTransport::Verbs(Dataplane::Bypass), 2, |c| async move {
        let peer = 1 - c.rank();
        let got = c
            .sendrecv(peer, 3, pattern(50_000, c.rank() as u8), peer, 3)
            .await;
        assert_eq!(&got[..], &pattern(50_000, peer as u8)[..]);
    });
}

#[test]
fn many_small_messages_respect_flow_control() {
    // More messages in flight than TX slots: must throttle, not error.
    run_world(MpiTransport::Verbs(Dataplane::Bypass), 2, |c| async move {
        let n = 200;
        if c.rank() == 0 {
            for i in 0..n {
                c.send(1, i, &pattern(64, i as u8)).await;
            }
        } else {
            for i in 0..n {
                let m = c.recv(0, i).await;
                assert_eq!(&m[..], &pattern(64, i as u8)[..]);
            }
        }
    });
}

#[test]
fn barrier_synchronizes() {
    for &p in &[2usize, 4, 6] {
        run_world(
            MpiTransport::Verbs(Dataplane::Bypass),
            p,
            move |c| async move {
                // Stagger arrival; all must leave after the latest arriver.
                let delay = (c.rank() as u64) * 50;
                c.core().sim().sleep(SimDuration::from_us(delay)).await;
                c.barrier(0).await;
                let t = c.core().sim().now().as_us_f64();
                let latest = ((p - 1) as u64 * 50) as f64;
                assert!(t >= latest, "rank {} left at {t} < {latest}", c.rank());
            },
        );
    }
}

#[test]
fn bcast_delivers_to_all() {
    for &p in &[2usize, 4, 7] {
        run_world(
            MpiTransport::Verbs(Dataplane::Cord),
            p,
            move |c| async move {
                let data = pattern(10_000, 42);
                let got = if c.rank() == 2 % p {
                    c.bcast(2 % p, 0, Some(&data)).await
                } else {
                    c.bcast(2 % p, 0, None).await
                };
                assert_eq!(&got[..], &data[..]);
            },
        );
    }
}

#[test]
fn allreduce_sums_across_ranks() {
    for &p in &[2usize, 4, 5, 8] {
        run_world(
            MpiTransport::Verbs(Dataplane::Bypass),
            p,
            move |c| async move {
                let mine: Vec<f64> = (0..64).map(|i| (c.rank() * 100 + i) as f64).collect();
                let out = c.allreduce(0, &mine, ReduceOp::Sum).await;
                for (i, v) in out.iter().enumerate() {
                    let expect: f64 = (0..p).map(|r| (r * 100 + i) as f64).sum();
                    assert!((v - expect).abs() < 1e-9, "p={p} i={i}: {v} != {expect}");
                }
            },
        );
    }
}

#[test]
fn allreduce_algos_agree_with_reference() {
    // Every schedule, power-of-two and odd world sizes, uneven chunk
    // lengths (777 % 6 != 0), checked against the closed-form sum.
    let algos = [
        AllreduceAlgo::RecursiveDoubling,
        AllreduceAlgo::Tree,
        AllreduceAlgo::Ring,
        AllreduceAlgo::HalvingDoubling,
    ];
    for &p in &[4usize, 6] {
        for algo in algos {
            run_world(
                MpiTransport::Verbs(Dataplane::Bypass),
                p,
                move |c| async move {
                    let n = 777;
                    let mine: Vec<f64> =
                        (0..n).map(|i| ((c.rank() + 1) * (i + 3)) as f64).collect();
                    let out = c.allreduce_algo(algo, 0, &mine, ReduceOp::Sum).await;
                    assert_eq!(out.len(), n);
                    for (i, v) in out.iter().enumerate() {
                        let expect: f64 = (0..p).map(|r| ((r + 1) * (i + 3)) as f64).sum();
                        assert!(
                            (v - expect).abs() < 1e-9,
                            "{algo} p={p} i={i}: {v} != {expect}"
                        );
                    }
                },
            );
        }
    }
}

/// Run one allreduce under `algo` with DetRng-drawn integer-valued inputs
/// and return every rank's reduced buffer as raw little-endian bytes.
fn allreduce_buffers(algo: AllreduceAlgo, p: usize, n: usize, seed: u64) -> Vec<Vec<u8>> {
    let t = MpiTransport::Verbs(Dataplane::Bypass);
    let fabric = Fabric::builder(system_l()).seed(seed).build();
    let f2 = fabric.clone();
    fabric.block_on(async move {
        let comms = create_world(&f2, p, t).await;
        let mut handles = Vec::new();
        for c in comms {
            let rng = f2.rng().stream_indexed("allreduce-input", c.rank() as u64);
            handles.push(f2.spawn(async move {
                // Integer-valued draws keep f64 addition exact, so the two
                // schedules' different summation orders cannot diverge.
                let mine: Vec<f64> = (0..n)
                    .map(|_| rng.uniform_range(0, 1 << 20) as f64)
                    .collect();
                let out = c.allreduce_algo(algo, 0, &mine, ReduceOp::Sum).await;
                out.iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect::<Vec<u8>>()
            }));
        }
        let mut bufs = Vec::new();
        for h in handles {
            bufs.push(h.await);
        }
        bufs
    })
}

#[test]
fn ring_and_halving_doubling_reduce_identically() {
    // Differential: same seed, same inputs → bit-identical reduced buffers
    // from the bandwidth-optimal schedules (and from the tree reference),
    // on every rank. 1003 elements exercises uneven chunk boundaries.
    let (p, n, seed) = (8usize, 1003usize, 0xA11Au64);
    let ring = allreduce_buffers(AllreduceAlgo::Ring, p, n, seed);
    let hd = allreduce_buffers(AllreduceAlgo::HalvingDoubling, p, n, seed);
    let tree = allreduce_buffers(AllreduceAlgo::Tree, p, n, seed);
    for r in 0..p {
        assert_eq!(ring[r], hd[r], "rank {r}: ring vs halving-doubling");
        assert_eq!(ring[r], tree[r], "rank {r}: ring vs tree");
        assert_eq!(ring[r], ring[0], "rank {r}: ranks must agree");
    }
}

#[test]
fn allreduce_auto_crossover_picks_bandwidth_schedules() {
    let small = AllreduceAlgo::CROSSOVER_ELEMS - 1;
    let large = AllreduceAlgo::CROSSOVER_ELEMS;
    assert_eq!(
        AllreduceAlgo::auto(8, small),
        AllreduceAlgo::RecursiveDoubling
    );
    assert_eq!(
        AllreduceAlgo::auto(8, large),
        AllreduceAlgo::HalvingDoubling
    );
    assert_eq!(AllreduceAlgo::auto(6, small), AllreduceAlgo::Tree);
    assert_eq!(AllreduceAlgo::auto(6, large), AllreduceAlgo::Ring);
}

#[test]
fn allreduce_max_works() {
    run_world(MpiTransport::Verbs(Dataplane::Bypass), 4, |c| async move {
        let mine = vec![c.rank() as f64; 8];
        let out = c.allreduce(1, &mine, ReduceOp::Max).await;
        assert!(out.iter().all(|&v| v == 3.0));
    });
}

#[test]
fn ring_allreduce_stages_rendezvous_payloads_without_host_copies() {
    // 64 KiB per ring chunk: every step is a rendezvous (RTS/CTS frames
    // through reused eager slots, payload by RDMA write), and three
    // back-to-back allreduces reuse every slot and zone. Staging by
    // reference must copy nothing on the host: every fragment read slices
    // one staged buffer, and no slot or zone collects enough extents to
    // be compacted.
    let p = 4;
    let n = p * 8192;
    let before = cord_hw::thread_copy_stats();
    run_world(
        MpiTransport::Verbs(Dataplane::Bypass),
        p,
        move |c| async move {
            for epoch in 0..3u32 {
                let k = (c.rank() + 1) * (epoch as usize + 1);
                let mine: Vec<f64> = (0..n).map(|i| (k * (i % 1000)) as f64).collect();
                let out = c
                    .allreduce_algo(AllreduceAlgo::Ring, epoch, &mine, ReduceOp::Sum)
                    .await;
                let ranks: usize = (1..=p).sum::<usize>() * (epoch as usize + 1);
                let exact = out
                    .iter()
                    .enumerate()
                    .all(|(i, &v)| v == (ranks * (i % 1000)) as f64);
                assert!(exact, "epoch {epoch}: ring sums must be exact");
            }
        },
    );
    let after = cord_hw::thread_copy_stats();
    assert_eq!(
        (after.copies - before.copies, after.bytes - before.bytes),
        (0, 0),
        "payload copies during the allreduces"
    );
}

#[test]
fn allgather_collects_all_chunks() {
    run_world(MpiTransport::Verbs(Dataplane::Cord), 5, |c| async move {
        let mine = pattern(300, c.rank() as u8);
        let all = c.allgather(0, &mine).await;
        assert_eq!(all.len(), 5);
        for (r, chunk) in all.iter().enumerate() {
            assert_eq!(&chunk[..], &pattern(300, r as u8)[..]);
        }
    });
}

#[test]
fn alltoallv_exchanges_distinct_payloads() {
    run_world(MpiTransport::Verbs(Dataplane::Bypass), 4, |c| async move {
        let r = c.rank();
        // sends[d] tagged with (src, dst) identity.
        let sends: Vec<Vec<u8>> = (0..4)
            .map(|d| pattern(1000 + d * 10, (r * 4 + d) as u8))
            .collect();
        let got = c.alltoallv(0, sends).await;
        for (s, chunk) in got.iter().enumerate() {
            assert_eq!(
                &chunk[..],
                &pattern(1000 + r * 10, (s * 4 + r) as u8)[..],
                "from {s} to {r}"
            );
        }
    });
}

#[test]
fn collectives_work_over_ipoib() {
    run_world(MpiTransport::Ipoib, 4, |c| async move {
        let mine = vec![(c.rank() + 1) as f64; 4];
        let out = c.allreduce(0, &mine, ReduceOp::Sum).await;
        assert!(out.iter().all(|&v| v == 10.0));
        c.barrier(1).await;
    });
}

#[test]
fn cord_and_bypass_mpi_latency_gap_is_small() {
    // The Fig. 6 claim in miniature: CoRD MPI ping-pong is within ~1 µs of
    // bypass, while IPoIB is an order of magnitude away.
    fn pingpong(t: MpiTransport) -> f64 {
        let fabric = fabric_for(t);
        let f2 = fabric.clone();
        fabric.block_on(async move {
            let comms = create_world(&f2, 2, t).await;
            let sim = f2.sim().clone();
            let c1 = comms[1].clone();
            let server = f2.spawn(async move {
                for i in 0..20u32 {
                    let m = c1.recv(0, i).await;
                    c1.send(0, 1000 + i, &m).await;
                }
            });
            let c0 = comms[0].clone();
            let data = vec![7u8; 1024];
            // Warmup.
            for i in 0..5u32 {
                c0.send(1, i, &data).await;
                c0.recv(1, 1000 + i).await;
            }
            let t0 = sim.now();
            for i in 5..20u32 {
                c0.send(1, i, &data).await;
                c0.recv(1, 1000 + i).await;
            }
            let rtt = sim.now().since(t0).as_us_f64() / 15.0;
            server.await;
            rtt
        })
    }
    let bp = pingpong(MpiTransport::Verbs(Dataplane::Bypass));
    let cd = pingpong(MpiTransport::Verbs(Dataplane::Cord));
    let ip = pingpong(MpiTransport::Ipoib);
    assert!(cd - bp < 3.0, "CoRD ping-pong {cd} µs ~ bypass {bp} µs");
    assert!(
        ip > 2.0 * bp,
        "IPoIB {ip} µs must clearly exceed RDMA {bp} µs"
    );
}

#[test]
fn deterministic_collective_timing() {
    fn run() -> u64 {
        let t = MpiTransport::Verbs(Dataplane::Cord);
        let fabric = fabric_for(t);
        let f2 = fabric.clone();
        fabric.block_on(async move {
            let comms = create_world(&f2, 4, t).await;
            let sim = f2.sim().clone();
            let mut handles = Vec::new();
            for c in comms {
                handles.push(f2.spawn(async move {
                    let v = vec![c.rank() as f64; 256];
                    c.allreduce(0, &v, ReduceOp::Sum).await;
                }));
            }
            for h in handles {
                h.await;
            }
            sim.now().as_ps()
        })
    }
    assert_eq!(run(), run());
}
