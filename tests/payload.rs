//! Payload memory of the deployments: every deployment's PDX blocks
//! are ranges of one shared arena, built or opened, and every lazily
//! fetched bucket holds an arena of its own.

use pdx::datasets::persist::{
    read_container_path, write_ivf_pdx_path, write_ivf_sq8_path, write_pdx_path, write_sq8_path,
    Container,
};
use pdx::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pdx_payload_suite").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn random_rows(n: usize, d: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n * d).map(|_| rng.random::<f32>() * 10.0).collect()
}

/// Asserts `blocks` are ranges of one arena that holds exactly
/// `values` of them.
fn one_arena<'a, E: pdx::core::kernels::lanes::Stored + 'a>(
    blocks: impl IntoIterator<Item = &'a PdxBlock<E>>,
    values: usize,
    what: &str,
) {
    let blocks: Vec<&PdxBlock<E>> = blocks.into_iter().collect();
    assert!(blocks.len() > 1, "{what}: a single block proves nothing");
    let first = blocks[0].payload();
    for b in &blocks {
        assert!(
            b.payload().same_arena(first),
            "{what}: a block in its own arena"
        );
    }
    let total: usize = blocks.iter().map(|b| b.as_slice().len()).sum();
    assert_eq!(total, values, "{what}: the blocks hold every value");
    let bytes = values * std::mem::size_of::<E>();
    assert_eq!(
        first.arena_bytes(),
        bytes,
        "{what}: the arena is exactly the payload"
    );
}

#[test]
fn a_flat_deployment_holds_one_arena_built_and_opened() {
    let (n, d) = (1_000, 12);
    let rows = random_rows(n, d, 1);
    let flat = FlatPdx::new(&rows, n, d, 128, 16);
    let built = flat.collection.blocks.iter().map(|b| &b.pdx);
    one_arena(built, n * d, "built FlatPdx");
    let path = temp_dir("flat").join("flat.pdx");
    write_pdx_path(&path, &flat.collection).unwrap();
    let Container::F32(c) = read_container_path(&path).unwrap() else {
        panic!("a PDX1 container");
    };
    one_arena(c.blocks.iter().map(|b| &b.pdx), n * d, "opened FlatPdx");
    for (a, b) in c.blocks.iter().zip(&flat.collection.blocks) {
        assert_eq!(a.pdx, b.pdx);
        assert_eq!(a.stats, b.stats);
    }
}

#[test]
fn an_ivf_holds_one_arena_with_its_centroids() {
    let (n, d) = (1_200, 10);
    let rows = random_rows(n, d, 2);
    let index = IvfIndex::build(&rows, n, d, 12, 6, 2);
    let ivf = IvfPdx::new(&rows, d, &index.assignments, 16);
    let n_centroids = ivf.centroids.len();
    let mut blocks: Vec<&PdxBlock> = ivf.blocks.iter().map(|b| &b.pdx).collect();
    blocks.push(&ivf.centroids.pdx);
    one_arena(blocks, (n + n_centroids) * d, "IvfPdx");
    // The centroid block has the bits of the standalone router block.
    let centroid_rows = ivf.centroids.pdx.to_rows();
    let standalone = pdx::index::ivf::centroid_block(&centroid_rows, d, 16);
    assert_eq!(standalone.pdx, ivf.centroids.pdx);
    assert_eq!(standalone.row_ids, ivf.centroids.row_ids);
    assert_eq!(standalone.stats, ivf.centroids.stats);

    // Opened resident, the buckets share one arena again.
    let path = temp_dir("ivf").join("ivf.pdx");
    write_ivf_pdx_path(&path, d, &centroid_rows, &ivf.blocks).unwrap();
    let Container::F32(c) = read_container_path(&path).unwrap() else {
        panic!("a PDX1 container");
    };
    one_arena(c.blocks.iter().map(|b| &b.pdx), n * d, "opened IvfPdx");

    // Lazily, every fetched bucket holds an arena of its own.
    let lazy = LazyIvf::open(&path, 1 << 30).unwrap();
    let fetched: Vec<_> = (0..ivf.blocks.len() as u32)
        .map(|b| lazy.fetch(b))
        .collect();
    for (i, block) in fetched.iter().enumerate() {
        let p = block.pdx.payload();
        assert_eq!(p.arena_bytes(), block.len() * d * 4, "bucket {i}");
        assert_eq!(block.pdx, ivf.blocks[i].pdx, "bucket {i}");
        for other in &fetched[..i] {
            assert!(
                !p.same_arena(other.pdx.payload()),
                "bucket {i} shares an arena"
            );
        }
    }
}

#[test]
fn sq8_deployments_hold_their_codes_in_one_arena() {
    let (n, d) = (900, 8);
    let rows = random_rows(n, d, 3);
    let flat = FlatSq8::build(&rows[..], n, d, 100, 16);
    one_arena(flat.blocks.iter().map(|b| &b.codes), n * d, "built FlatSq8");
    let dir = temp_dir("sq8");
    let path = dir.join("flat.pdx2");
    write_sq8_path(&path, &flat.quantizer, &flat.blocks, Some(&flat.rows)).unwrap();
    let Container::Sq8(c) = read_container_path(&path).unwrap() else {
        panic!("a PDX2 container");
    };
    one_arena(c.blocks.iter().map(|b| &b.codes), n * d, "opened FlatSq8");
    assert_eq!(c.blocks, flat.blocks);

    let index = IvfIndex::build(&rows, n, d, 9, 6, 3);
    let ivf = IvfSq8::new(&rows, d, &index.assignments, 16);
    one_arena(ivf.blocks.iter().map(|b| &b.codes), n * d, "built IvfSq8");
    let path = dir.join("ivf.pdx2");
    let centroid_rows = ivf.centroids.pdx.to_rows();
    write_ivf_sq8_path(
        &path,
        &ivf.quantizer,
        &centroid_rows,
        &ivf.blocks,
        Some(&ivf.rows),
    )
    .unwrap();
    let Container::Sq8(c) = read_container_path(&path).unwrap() else {
        panic!("a PDX2 container");
    };
    one_arena(c.blocks.iter().map(|b| &b.codes), n * d, "opened IvfSq8");
    assert_eq!(c.blocks, ivf.blocks);
}

#[test]
fn a_byte_slice_reads_into_one_arena_too() {
    let (n, d) = (500, 6);
    let rows = random_rows(n, d, 4);
    let flat = FlatPdx::new(&rows, n, d, 64, 16);
    let mut bytes = Vec::new();
    pdx::datasets::persist::write_pdx(&mut bytes, &flat.collection).unwrap();
    let Container::F32(back) = pdx::datasets::persist::read_container(&bytes).unwrap() else {
        panic!("a PDX1 container");
    };
    one_arena(back.blocks.iter().map(|b| &b.pdx), n * d, "read FlatPdx");
    for (a, b) in back.blocks.iter().zip(&flat.collection.blocks) {
        assert_eq!(a.pdx, b.pdx);
    }
}
