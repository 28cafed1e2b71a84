//! Stress and ordering tests of the layer-1 transport under real
//! concurrency: many ranks, interleaved tags.

use bytes::Bytes;
use vira_comm::transport::{LocalWorld, Transport};

/// All-to-all: every rank sends a tagged message to every other rank and
/// receives exactly world-1 messages; per-sender FIFO order holds.
#[test]
fn all_to_all_preserves_per_sender_order() {
    const N: usize = 6;
    const MSGS: u32 = 50;
    let world = LocalWorld::create(N);
    let mut handles = Vec::new();
    for t in world {
        handles.push(std::thread::spawn(move || {
            let me = t.rank();
            for seq in 0..MSGS {
                for peer in 0..N {
                    if peer != me {
                        t.send(peer, seq, Bytes::copy_from_slice(&[me as u8]))
                            .unwrap();
                    }
                }
            }
            // Collect: per sender, tags must arrive ascending.
            let mut next_seq = [0u32; N];
            for _ in 0..MSGS as usize * (N - 1) {
                let m = t.recv().unwrap();
                assert_eq!(m.payload[0] as usize, m.from);
                assert_eq!(m.tag, next_seq[m.from], "sender {} out of order", m.from);
                next_seq[m.from] += 1;
            }
            assert!(t.try_recv().unwrap().is_none(), "no stragglers");
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}
