//! Round-trip property tests on the wire codec: whatever structure the
//! encoder can produce, the decoder reconstructs exactly — and frame
//! sequences survive arbitrary chunking of the byte stream.

use frontend::{
    decode_command, decode_reply, encode_command, encode_command_into, encode_reply, write_frame,
    Command, DecodeError, FrameError, FrameReader, Reply, WireFault,
};
use frontend::{FaultCode, MAX_FRAME, REST_CAPACITY};
use pass::{FileFlush, ObjectKind, ObjectRef, ProvenanceRecord};
use proptest::prelude::*;
use provenance_cloud::{ProvQuery, QueryAnswer, QueryItem, ReadOutcome, ReadStatus, ServeStats};
use simworld::Blob;

/// Builds a flush from generated primitives. Records go through
/// `from_pair`, the same normalization the decoder applies, so
/// equality after a round trip is exact.
fn build_flush(
    name: &str,
    version: u32,
    process: bool,
    data: &[u8],
    pairs: &[(String, String)],
) -> FileFlush {
    FileFlush {
        object: ObjectRef::new(name.to_string(), version),
        kind: if process {
            ObjectKind::Process
        } else {
            ObjectKind::File
        },
        data: Blob::from_bytes(data.to_vec()),
        records: pairs
            .iter()
            .map(|(k, v)| ProvenanceRecord::from_pair(k, v))
            .collect(),
    }
}

/// A reader that returns at most `chunks[i % len]` bytes on its `i`-th
/// read call — TCP segmentation in miniature.
struct Dribble<'a> {
    buf: &'a [u8],
    chunks: &'a [usize],
    reads: usize,
}

impl<'a> Dribble<'a> {
    fn new(buf: &'a [u8], chunks: &'a [usize]) -> Dribble<'a> {
        Dribble {
            buf,
            chunks,
            reads: 0,
        }
    }
}

impl std::io::Read for Dribble<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let chunk = self.chunks[self.reads % self.chunks.len()];
        self.reads += 1;
        let n = chunk.min(out.len()).min(self.buf.len());
        out[..n].copy_from_slice(&self.buf[..n]);
        self.buf = &self.buf[n..];
        Ok(n)
    }
}

/// What a reader should report next: a payload, or one of the frame
/// errors.
#[derive(Debug, PartialEq)]
enum Event {
    Payload(Vec<u8>),
    Empty,
    TooLarge(u32),
    Truncated,
    Eof,
}

fn next_event(reader: &mut FrameReader, stream: &mut Dribble<'_>) -> Event {
    match reader.next_frame(stream, <[u8]>::to_vec) {
        Ok(Some(payload)) => Event::Payload(payload),
        Ok(None) => Event::Eof,
        Err(FrameError::Empty) => Event::Empty,
        Err(FrameError::TooLarge(len)) => Event::TooLarge(len),
        Err(FrameError::Truncated) => Event::Truncated,
        Err(FrameError::Io(e)) => panic!("an in-memory stream cannot fail: {e}"),
    }
}

/// A ~1 MiB `RecordBatch` and then a Q1 on one connection: the reader
/// grows for the first, and is back at its resting capacity by the
/// time it has handed it over — before the small frame, and after it.
#[test]
fn reader_rests_again_after_a_large_frame() {
    let batch = Command::RecordBatch(
        (0..16u64)
            .map(|i| build_flush(&format!("big{i}"), 1, false, &vec![i as u8; 64 * 1024], &[]))
            .collect(),
    );
    let q1 = Command::Query(ProvQuery::ProvenanceOf {
        name: "big3".into(),
        version: 1,
    });
    let mut wire = Vec::new();
    let mut frame = Vec::new();
    for command in [&batch, &q1] {
        write_frame(&mut wire, &mut frame, |out| {
            encode_command_into(out, command)
        })
        .unwrap();
    }
    assert!(wire.len() > 1024 * 1024);
    assert!(
        frame.capacity() <= REST_CAPACITY,
        "the write buffer rests too"
    );

    for chunks in [&[usize::MAX][..], &[1500, 9000, 333]] {
        let mut stream = Dribble::new(&wire, chunks);
        let mut reader = FrameReader::new();
        for command in [&batch, &q1] {
            let decoded = reader.next_frame(&mut stream, decode_command).unwrap();
            assert_eq!(&decoded.unwrap().unwrap(), command);
            assert_eq!(reader.capacity(), REST_CAPACITY);
        }
        assert!(reader.next_frame(&mut stream, |_| ()).unwrap().is_none());
    }
}

/// Status bytes 0/1/2 are the three read statuses; the next byte is an
/// unknown tag, not a fourth status.
#[test]
fn status_byte_3_is_a_bad_tag() {
    let mut payload = encode_reply(&Reply::Read(ReadOutcome {
        object: ObjectRef::new("f", 1),
        data: Blob::from("data"),
        records: Vec::new(),
        status: ReadStatus::AtomicUnit,
    }));
    assert_eq!(payload.pop(), Some(0), "the status byte ends the frame");
    payload.push(3);
    assert_eq!(
        decode_reply(&payload),
        Err(DecodeError::BadTag {
            kind: "status",
            tag: 3
        })
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn record_command_round_trips(
        name in "[a-z/._ -]{1,40}",
        version in 1u32..1000,
        process in 0u8..2,
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        keys in proptest::collection::vec("[a-z_]{1,12}", 0..8),
        values in proptest::collection::vec("[ -~]{0,64}", 0..8),
    ) {
        let pairs: Vec<(String, String)> = keys.into_iter().zip(values).collect();
        let flush = build_flush(&name, version, process == 1, &data, &pairs);
        // Normalize once more: from_pair may map a textual value onto a
        // reference representation whose render differs from the input;
        // one extra round trip reaches the fixed point the wire uses.
        let flush = build_flush(
            &name,
            version,
            process == 1,
            &data,
            &flush.records.iter().map(|r| r.to_pair()).collect::<Vec<_>>(),
        );
        let command = Command::Record(flush);
        prop_assert_eq!(decode_command(&encode_command(&command)).unwrap(), command);
    }

    #[test]
    fn query_and_read_commands_round_trip(
        name in "[a-zA-Z0-9/._-]{1,60}",
        version in 1u32..u32::MAX,
        which in 0u8..6,
    ) {
        let command = match which {
            0 => Command::Read(name),
            1 => Command::Query(ProvQuery::ProvenanceOfAll),
            2 => Command::Query(ProvQuery::ProvenanceOf { name, version }),
            3 => Command::Query(ProvQuery::OutputsOf { program: name }),
            4 => Command::Query(ProvQuery::DescendantsOf { program: name }),
            _ => Command::Stats,
        };
        prop_assert_eq!(decode_command(&encode_command(&command)).unwrap(), command);
    }

    #[test]
    fn replies_round_trip(
        name in "[a-z0-9/._-]{1,40}",
        version in 1u32..10_000,
        retries in 0u32..100,
        data in proptest::collection::vec(any::<u8>(), 0..1024),
        which in 0u8..5,
        counters in proptest::collection::vec(any::<u64>(), 5..6),
        code in 1u8..9,
    ) {
        let records = vec![
            ProvenanceRecord::from_pair("input", format!("{name}:{version}")),
            ProvenanceRecord::from_pair("type", "file"),
        ];
        let reply = match which {
            0 => Reply::Unit,
            1 => Reply::Read(ReadOutcome {
                object: ObjectRef::new(name, version),
                data: Blob::from_bytes(data),
                records,
                status: match retries % 3 {
                    0 => ReadStatus::AtomicUnit,
                    1 => ReadStatus::VerifiedConsistent { retries },
                    _ => ReadStatus::InconsistencyDetected { retries },
                },
            }),
            2 => Reply::Query(QueryAnswer {
                items: vec![QueryItem {
                    object: ObjectRef::new(name, version),
                    records,
                }],
            }),
            3 => Reply::Stats(ServeStats {
                architecture: name,
                requests: counters[0],
                store_ops: counters[1],
                bytes_in: counters[2],
                bytes_out: counters[3],
                fingerprint: counters[4],
            }),
            _ => Reply::Err(WireFault::new(
                FaultCode::from_u8(code).unwrap(),
                name,
            )),
        };
        prop_assert_eq!(decode_reply(&encode_reply(&reply)).unwrap(), reply);
    }

    // Any sequence of frames, written with `write_frame` and read back
    // through reads of arbitrary sizes (down to one byte), comes out as
    // the same payloads in the same order; a zero-length prefix in the
    // middle is `Empty` and costs no sync; and whatever ends the stream
    // — clean EOF, an oversized prefix, EOF inside a prefix or a
    // payload — surfaces exactly there, after every frame before it.
    #[test]
    fn frames_survive_arbitrary_stream_chunking(
        // 0: a zero-length prefix; 1: a payload around the reader's
        // resting capacity; otherwise a small payload.
        kinds in proptest::collection::vec(0u8..8, 0..10),
        sizes in proptest::collection::vec(1usize..700, 10..11),
        chunks in proptest::collection::vec(1usize..100, 1..6),
        ending in 0u8..4,
        cut in 1usize..40,
    ) {
        let mut wire = Vec::new();
        let mut frame = Vec::new();
        let mut expected = Vec::new();
        for (i, (&kind, &size)) in kinds.iter().zip(&sizes).enumerate() {
            if kind == 0 {
                wire.extend_from_slice(&0u32.to_be_bytes());
                expected.push(Event::Empty);
                continue;
            }
            let len = if kind == 1 { REST_CAPACITY - 350 + size } else { size };
            let payload: Vec<u8> = (0..len).map(|j| (i * 31 + j) as u8).collect();
            write_frame(&mut wire, &mut frame, |out| out.extend_from_slice(&payload)).unwrap();
            expected.push(Event::Payload(payload));
        }
        expected.push(match ending {
            0 => Event::Eof,
            1 => {
                let len = (MAX_FRAME + cut) as u32;
                wire.extend_from_slice(&len.to_be_bytes());
                // Bytes behind the refused prefix change nothing.
                wire.extend_from_slice(&[0xAB; 7]);
                Event::TooLarge(len)
            }
            2 => {
                wire.extend_from_slice(&[0, 0, 1][..1 + cut % 3]);
                Event::Truncated
            }
            _ => {
                wire.extend_from_slice(&(2 * cut as u32).to_be_bytes());
                wire.extend_from_slice(&vec![7; cut]);
                Event::Truncated
            }
        });

        // Chunks of 90 and up stand for "whatever fits": frames that
        // arrived together must come out of one read.
        let chunks: Vec<usize> =
            chunks.into_iter().map(|c| if c >= 90 { usize::MAX } else { c }).collect();
        let mut stream = Dribble::new(&wire, &chunks);
        let mut reader = FrameReader::new();
        for event in expected {
            prop_assert_eq!(next_event(&mut reader, &mut stream), event);
            prop_assert_eq!(reader.capacity(), REST_CAPACITY);
        }
    }

    #[test]
    fn decoder_never_panics_on_garbage(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Any byte soup either decodes or errors — no panic, no hang.
        let _ = decode_command(&payload);
        let _ = decode_reply(&payload);
    }
}
