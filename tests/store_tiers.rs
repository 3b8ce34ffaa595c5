//! What a compaction leaves alone: a clean segment outside the size
//! tiers keeps its sequence number, its files and its answer bits, and
//! purging a fully dead segment rewrites no payload byte.
//!
//! This binary holds one test on purpose: it reads the process-global
//! `pdx_store_maintenance_bytes_rewritten_total{phase="compact"}`
//! counter, which a compaction running beside it would move.

use pdx::prelude::*;
use std::path::Path;

const REWRITTEN: &str = "pdx_store_maintenance_bytes_rewritten_total{phase=\"compact\"} ";

/// Payload bytes compactions have rewritten in this process so far.
fn compact_bytes_rewritten() -> u64 {
    let text = pdx::obs::Registry::global().render();
    let line = text.lines().find_map(|l| l.strip_prefix(REWRITTEN));
    line.map_or(0, |n| n.parse().expect("a counter value"))
}

/// The bytes of both files of segment `seq`.
fn segment_files(dir: &Path, seq: u64) -> [Vec<u8>; 2] {
    let read = |ext: &str| std::fs::read(dir.join(format!("seg-{seq:06}.{ext}"))).unwrap();
    [read("pdx"), read("ids")]
}

/// The `store_churn` shape: a big clean segment beside a small one whose
/// rows are all deleted. The compaction drops the small segment and
/// writes nothing for it; the big one is not rewritten.
#[test]
fn purging_a_dead_small_segment_leaves_the_big_one_untouched() {
    let (d, big, small) = (16, 3_000, 150);
    let rows: Vec<f32> = (0..(big + small) * d)
        .map(|i| ((i * 7919) % 1009) as f32 / 97.0)
        .collect();
    let dir = std::env::temp_dir().join("pdx_store_tiers_untouched");
    std::fs::remove_dir_all(&dir).ok();
    let config = StoreConfig {
        block_size: 512,
        group_size: 32,
        buffer_capacity: 4_096,
        quantize: true,
    };
    let coll = Collection::create(&dir, d, config).unwrap();
    coll.bulk_insert(0, &rows[..big * d]).unwrap();
    coll.bulk_insert(big as u64, &rows[big * d..]).unwrap();
    let stats = coll.segment_stats();
    assert_eq!(
        stats.iter().map(|s| s.rows).collect::<Vec<_>>(),
        [big, small]
    );
    let (kept, dropped) = (stats[0].seq, stats[1].seq);
    let files = segment_files(&dir, kept);
    for id in big..big + small {
        coll.delete(id as u64).unwrap();
    }
    let opts = SearchOptions::new(10);
    let queries: Vec<&[f32]> = rows.chunks_exact(d).step_by(401).collect();
    let answers: Vec<Vec<Neighbor>> = queries.iter().map(|q| coll.search(q, &opts)).collect();

    let rewritten = compact_bytes_rewritten();
    coll.compact().unwrap();
    assert_eq!(
        compact_bytes_rewritten(),
        rewritten,
        "payload bytes rewritten"
    );
    assert_eq!(coll.segment_stats(), [stats[0]]);
    assert_eq!(coll.tombstone_count(), 0);
    assert_eq!(segment_files(&dir, kept), files, "segment {kept}'s files");
    assert!(!dir.join(format!("seg-{dropped:06}.pdx")).exists());
    for (q, want) in queries.iter().zip(&answers) {
        assert_eq!(&coll.search(q, &opts), want);
    }
    // The purged ids are free again.
    coll.insert(big as u64, &rows[..d]).unwrap();
    drop(coll);
    std::fs::remove_dir_all(&dir).ok();
}
