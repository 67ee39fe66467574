// One or more of every `Frame` type, shared by the codec unit tests in
// `src/wire.rs` and the decode sweep in `tests/wire_sweep.rs` (both
// `include!` it). The includer brings `Frame`, `WIRE_VERSION`,
// `Technology`, `MemoryGeometry`, `DriftSpec`, `RowOp`, `RowId`,
// `ShardBatchOutcome`, `RowOpOutput` and `ArchError` into scope.

fn sample_frames() -> Vec<Frame> {
    vec![
        Frame::Hello {
            version: WIRE_VERSION,
            technology: Technology::Feram,
            geometry: MemoryGeometry::tiny(),
            tier: None,
            slot: 0,
            resume: false,
        },
        Frame::Hello {
            version: WIRE_VERSION,
            technology: Technology::Dram,
            geometry: MemoryGeometry::paper_8gb(),
            tier: Some((DriftSpec::accelerated(77, 390.0, 1e-9), 3600.0)),
            slot: 11,
            resume: true,
        },
        Frame::HelloAck {
            version: WIRE_VERSION,
            data_rows: 1008,
        },
        Frame::Batch {
            seq: 42,
            tick_s: 1e-3,
            ops: vec![
                RowOp::Write {
                    row: RowId(3),
                    data: vec![0xAB; 128],
                },
                RowOp::Nand {
                    a: RowId(0),
                    b: RowId(1),
                    dst: RowId(2),
                },
                RowOp::Read { row: RowId(2) },
            ],
        },
        Frame::BatchReply {
            seq: 42,
            outcome: ShardBatchOutcome {
                outputs: vec![
                    Ok(RowOpOutput::Done),
                    Ok(RowOpOutput::Data(vec![1, 2, 3])),
                    Err(ArchError::Uncorrectable {
                        row: 7,
                        words: vec![0, 5],
                    }),
                ],
                serial_cycles: 900,
                makespan_cycles: 300,
                energy_nj: 1.5,
                maintenance_error: Some(ArchError::SparesExhausted { row: 9 }),
            },
        },
        Frame::ReadRow { seq: 7, row: 11 },
        Frame::ReadRowReply {
            seq: 7,
            result: Ok(vec![u64::MAX, 0]),
        },
        Frame::ReadRowReply {
            seq: 8,
            result: Err(ArchError::RowOutOfRange { row: 99, rows: 10 }),
        },
        Frame::Shutdown,
        Frame::SnapshotPull {
            seq: 9,
            offset: 4096,
            max_len: 1 << 20,
        },
        Frame::SnapshotChunk {
            seq: 9,
            offset: 4096,
            total_len: 9000,
            data: vec![0xA5; 256],
        },
        Frame::SnapshotChunk {
            seq: 10,
            offset: 0,
            total_len: 0,
            data: Vec::new(),
        },
        Frame::SnapshotPush {
            seq: 11,
            offset: 128,
            total_len: 384,
            data: vec![0x5A; 128],
        },
        Frame::SnapshotPushAck { seq: 11, ok: true },
        Frame::SnapshotPushAck { seq: 12, ok: false },
        Frame::Health { seq: 13 },
        Frame::HealthReply {
            seq: 13,
            uncorrectable_words: 2,
            corrected_bits: 40,
            scrub_rewrites: 7,
            drift_flips: 55,
            max_wear_fraction: 0.125,
        },
    ]
}
