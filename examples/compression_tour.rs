//! Compression tour: which lightweight scheme each TPC-H column gets, the
//! ratios achieved, and why decompression is cheap relative to I/O (§I-A,
//! the PFOR family of reference [2]). The money and quantity columns are
//! DOUBLE (`DECIMAL`); where every value is an exact decimal they are stored
//! as scaled integers in a PFOR frame, and the `scale` column shows `e` of
//! `d / 10^e`.
//!
//! ```sh
//! cargo run --release --example compression_tour
//! ```

use std::time::Instant;
use vectorwise::storage::{
    compress_data, decimal_scale_of, decompress_data, ColumnData, CompressionScheme,
    NullableColumn, StrColumn,
};
use vectorwise::tpch::{tpch_schema, TpchGenerator};
use vectorwise::Value;

fn to_column(ty: vectorwise::DataType, values: Vec<Value>) -> ColumnData {
    NullableColumn::from_values(ty, &values).unwrap().data
}

/// `compress_data`, checked to decode back to `col`.
fn roundtrip(col: &ColumnData) -> (CompressionScheme, Vec<u8>) {
    let (scheme, bytes) = compress_data(col);
    assert_eq!(&decompress_data(&bytes).unwrap(), col, "{}", scheme.name());
    (scheme, bytes)
}

fn main() {
    let generator = TpchGenerator::new(0.02);
    let schema = tpch_schema("lineitem").unwrap();
    let rows = generator.rows("lineitem");
    println!("lineitem at SF 0.02: {} rows\n", rows.len());
    println!(
        "{:<16} {:>12} {:>12} {:>7}  {:<10} {:>5} {:>12}",
        "column", "raw bytes", "compressed", "ratio", "scheme", "scale", "decomp MB/s"
    );

    let mut total_raw = 0usize;
    let mut total_comp = 0usize;
    for (c, field) in schema.fields().iter().enumerate() {
        let values: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
        let col = to_column(field.ty, values);
        let raw = col.uncompressed_bytes();
        let (scheme, bytes) = roundtrip(&col);
        // decompression throughput
        let t = Instant::now();
        let reps = 20;
        for _ in 0..reps {
            assert_eq!(decompress_data(&bytes).unwrap().len(), col.len());
        }
        let dt = t.elapsed().as_secs_f64() / reps as f64;
        let mbps = raw as f64 / dt / 1e6;
        let scale = decimal_scale_of(&bytes).map_or(String::new(), |e| e.to_string());
        println!(
            "{:<16} {:>12} {:>12} {:>6.2}x  {:<10} {:>5} {:>12.0}",
            field.name,
            raw,
            bytes.len(),
            raw as f64 / bytes.len() as f64,
            scheme.name(),
            scale,
            mbps
        );
        total_raw += raw;
        total_comp += bytes.len();
    }
    println!(
        "\ntable total: {} -> {} bytes ({:.2}x)",
        total_raw,
        total_comp,
        total_raw as f64 / total_comp as f64
    );

    println!("\n== scheme showcase on synthetic shapes ==");
    let sorted_keys = ColumnData::I64((0..100_000).collect());
    let (s, b) = roundtrip(&sorted_keys);
    println!(
        "sorted keys       -> {:<10} ({:.1}x)",
        s.name(),
        800_000.0 / b.len() as f64
    );
    let constants = ColumnData::I64(vec![42; 100_000]);
    let (s, b) = roundtrip(&constants);
    println!(
        "constant column   -> {:<10} ({:.0}x)",
        s.name(),
        800_000.0 / b.len() as f64
    );
    let clustered = ColumnData::F64((0..100_000).map(|i| ((i / 1000) as f64).sqrt()).collect());
    let (s, b) = roundtrip(&clustered);
    println!(
        "clustered doubles -> {:<10} ({:.0}x)",
        s.name(),
        800_000.0 / b.len() as f64
    );
    let flags = ColumnData::Str(StrColumn::from_iter((0..100_000).map(|i| {
        if i % 3 == 0 {
            "A"
        } else {
            "R"
        }
    })));
    let raw = flags.uncompressed_bytes();
    let (s, b) = roundtrip(&flags);
    println!(
        "two-value strings -> {:<10} ({:.1}x)",
        s.name(),
        raw as f64 / b.len() as f64
    );
    let mut r = vectorwise::common::rng::Xoshiro256::seeded(1);
    let noise = ColumnData::I64((0..100_000).map(|_| r.next_u64() as i64).collect());
    let (s, b) = roundtrip(&noise);
    println!(
        "incompressible    -> {:<10} ({:.2}x — falls back gracefully)",
        s.name(),
        800_000.0 / b.len() as f64
    );
}
