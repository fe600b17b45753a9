//! The write-ahead-log record format Architecture 3 puts on its SQS
//! queue (§4.3).
//!
//! Records are tagged with a transaction id. A transaction is: one
//! `Begin` carrying the record count, one `Data` pointer to the staged S3
//! object, provenance `Prov` chunks of at most 8 KB, one `Md5`
//! consistency record, and finally `Commit`. The commit daemon assembles
//! transactions from (sampled, unordered) queue deliveries and applies
//! only complete, committed ones.
//!
//! The wire encoding joins escaped fields with the ASCII unit separator;
//! it is trivially reversible and keeps every record well under SQS's
//! limit except for the payload itself (the chunker guarantees that).

use std::borrow::Cow;
use std::fmt::Write;

use serde::{Deserialize, Serialize};
use sim_sqs::{MAX_BATCH_ENTRIES, MAX_BATCH_PAYLOAD, MAX_MESSAGE_SIZE};

/// One WAL record.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum WalRecord {
    /// Transaction start: how many records (data + prov + md5) follow
    /// before the commit.
    Begin {
        /// Transaction id (random per transaction, unique across client
        /// restarts).
        txid: u64,
        /// Records between begin and commit.
        records: u32,
    },
    /// Pointer to the staged data object.
    Data {
        /// Transaction id.
        txid: u64,
        /// S3 key of the temporary object.
        temp_key: String,
        /// Final object name.
        name: String,
        /// Version being persisted.
        version: u32,
        /// Consistency nonce.
        nonce: String,
    },
    /// A chunk of provenance attribute pairs for one item.
    Prov {
        /// Transaction id.
        txid: u64,
        /// SimpleDB item the pairs belong to.
        item_name: String,
        /// Attribute pairs.
        pairs: Vec<(String, String)>,
    },
    /// The `MD5(data ‖ nonce)` consistency record.
    Md5 {
        /// Transaction id.
        txid: u64,
        /// SimpleDB item the hash belongs to.
        item_name: String,
        /// Hex digest.
        md5_hex: String,
        /// Nonce that went into the digest.
        nonce: String,
    },
    /// Transaction end: every record was logged.
    Commit {
        /// Transaction id.
        txid: u64,
    },
}

const SEP: char = '\u{1f}';

/// The bytes a WAL field escapes: the escape character and the field
/// separator. Widening the set would change bytes already on queues.
const ESCAPED: &[u8] = b"%\x1f";

/// `%XX`, upper-case, for an escaped byte.
fn code(b: u8) -> [u8; 2] {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    [HEX[usize::from(b >> 4)], HEX[usize::from(b & 15)]]
}

/// Appends `s` to `out` with every byte of `set` (ASCII; `%` must be a
/// member) written as `%XX`. One pass; a clean field is one `push_str`.
/// Inlined, as [`escaped_len`] is, so that each caller's constant set
/// folds into the byte test.
#[inline]
pub(crate) fn esc_into(out: &mut String, s: &str, set: &[u8]) {
    debug_assert!(set.is_ascii() && set.contains(&b'%'));
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if set.contains(&b) {
            let [hi, lo] = code(b);
            out.push_str(&s[clean..i]);
            out.extend(['%', char::from(hi), char::from(lo)]);
            clean = i + 1;
        }
    }
    out.push_str(&s[clean..]);
}

/// Bytes [`esc_into`] appends for `s`.
#[inline]
fn escaped_len(s: &str, set: &[u8]) -> usize {
    s.len() + 2 * s.bytes().filter(|b| set.contains(b)).count()
}

/// Inverse of [`esc_into`]: every `%XX` naming a byte of `set` becomes
/// that byte, any other `%` stays. Borrows a field that has no `%`.
pub(crate) fn unesc<'a>(s: &'a str, set: &[u8]) -> Cow<'a, str> {
    if !s.contains('%') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find('%') {
        out.push_str(&rest[..at]);
        let tail = &rest.as_bytes()[at + 1..];
        match set.iter().find(|b| tail.starts_with(&code(**b))) {
            Some(&b) => {
                out.push(char::from(b));
                // Both code bytes are ASCII, so this is a char boundary.
                rest = &rest[at + 3..];
            }
            None => {
                out.push('%');
                rest = &rest[at + 1..];
            }
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// Encoded bytes of a number field and its leading separator.
fn num_len(n: u64) -> usize {
    1 + n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Encoded bytes of a text field and its leading separator.
fn text_len(s: &str) -> usize {
    1 + escaped_len(s, ESCAPED)
}

/// Encoded bytes of a `Prov` record before its first pair.
fn prov_header_len(txid: u64, item_name: &str) -> usize {
    1 + num_len(txid) + text_len(item_name)
}

/// Encoded bytes one pair adds to a `Prov` record.
fn pair_len((k, v): &(String, String)) -> usize {
    text_len(k) + text_len(v)
}

fn push_num(out: &mut String, n: u64) {
    write!(out, "{SEP}{n}").expect("writing to a String cannot fail");
}

fn push_text(out: &mut String, s: &str) {
    out.push(SEP);
    esc_into(out, s, ESCAPED);
}

impl WalRecord {
    /// The transaction this record belongs to.
    pub fn txid(&self) -> u64 {
        match self {
            WalRecord::Begin { txid, .. }
            | WalRecord::Data { txid, .. }
            | WalRecord::Prov { txid, .. }
            | WalRecord::Md5 { txid, .. }
            | WalRecord::Commit { txid } => *txid,
        }
    }

    /// `self.encode().len()`, by arithmetic: what sizes the encoder's
    /// buffer and lets [`chunk_pairs`] close a chunk without encoding it.
    pub fn encoded_len(&self) -> usize {
        match self {
            WalRecord::Begin { txid, records } => 1 + num_len(*txid) + num_len((*records).into()),
            WalRecord::Data {
                txid,
                temp_key,
                name,
                version,
                nonce,
            } => {
                1 + num_len(*txid)
                    + text_len(temp_key)
                    + text_len(name)
                    + num_len((*version).into())
                    + text_len(nonce)
            }
            WalRecord::Prov {
                txid,
                item_name,
                pairs,
            } => prov_header_len(*txid, item_name) + pairs.iter().map(pair_len).sum::<usize>(),
            WalRecord::Md5 {
                txid,
                item_name,
                md5_hex,
                nonce,
            } => 1 + num_len(*txid) + text_len(item_name) + text_len(md5_hex) + text_len(nonce),
            WalRecord::Commit { txid } => 1 + num_len(*txid),
        }
    }

    /// Serialises to the queue wire form: the tag, then each field behind
    /// a separator, written straight into one buffer of
    /// [`WalRecord::encoded_len`] bytes.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(self.encoded_len());
        match self {
            WalRecord::Begin { txid, records } => {
                out.push('B');
                push_num(&mut out, *txid);
                push_num(&mut out, (*records).into());
            }
            WalRecord::Data {
                txid,
                temp_key,
                name,
                version,
                nonce,
            } => {
                out.push('D');
                push_num(&mut out, *txid);
                push_text(&mut out, temp_key);
                push_text(&mut out, name);
                push_num(&mut out, (*version).into());
                push_text(&mut out, nonce);
            }
            WalRecord::Prov {
                txid,
                item_name,
                pairs,
            } => {
                out.push('P');
                push_num(&mut out, *txid);
                push_text(&mut out, item_name);
                for (k, v) in pairs {
                    push_text(&mut out, k);
                    push_text(&mut out, v);
                }
            }
            WalRecord::Md5 {
                txid,
                item_name,
                md5_hex,
                nonce,
            } => {
                out.push('M');
                push_num(&mut out, *txid);
                push_text(&mut out, item_name);
                push_text(&mut out, md5_hex);
                push_text(&mut out, nonce);
            }
            WalRecord::Commit { txid } => {
                out.push('C');
                push_num(&mut out, *txid);
            }
        }
        debug_assert_eq!(out.len(), self.encoded_len());
        out
    }

    /// Parses the wire form; `None` for anything malformed (foreign
    /// messages on the queue are skipped, not fatal). One walk over the
    /// separators; the only allocations are the fields it returns.
    pub fn decode(s: &str) -> Option<WalRecord> {
        let mut fields = s.split(SEP);
        let tag = fields.next()?;
        let txid: u64 = fields.next()?.parse().ok()?;
        let text = |field: &str| unesc(field, ESCAPED).into_owned();
        let record = match tag {
            "B" => WalRecord::Begin {
                txid,
                records: fields.next()?.parse().ok()?,
            },
            "D" => WalRecord::Data {
                txid,
                temp_key: text(fields.next()?),
                name: text(fields.next()?),
                version: fields.next()?.parse().ok()?,
                nonce: text(fields.next()?),
            },
            "P" => {
                let item_name = text(fields.next()?);
                let mut pairs = Vec::new();
                while let Some(k) = fields.next() {
                    pairs.push((text(k), text(fields.next()?)));
                }
                WalRecord::Prov {
                    txid,
                    item_name,
                    pairs,
                }
            }
            "M" => WalRecord::Md5 {
                txid,
                item_name: text(fields.next()?),
                md5_hex: text(fields.next()?),
                nonce: text(fields.next()?),
            },
            "C" => WalRecord::Commit { txid },
            _ => return None,
        };
        fields.next().is_none().then_some(record)
    }
}

/// Splits attribute pairs into `Prov` records whose encoded form fits in
/// an SQS message ("group the provenance records into chunks of 8KB",
/// §4.3). Oversized single pairs must have been pointered beforehand —
/// the overflow rule keeps values ≤ 1 KB, so any pair fits. A chunk
/// closes when its header plus its pairs' encoded lengths would pass the
/// limit: counted, never encoded, so linear in the pairs. The pairs move
/// into their chunks — one chunk is the caller's `Vec` itself.
pub fn chunk_pairs(txid: u64, item_name: &str, mut pairs: Vec<(String, String)>) -> Vec<WalRecord> {
    let header = prov_header_len(txid, item_name);
    // Where every chunk after the first starts.
    let mut starts = Vec::new();
    let (mut from, mut len) = (0, header);
    for (i, pair) in pairs.iter().enumerate() {
        let pair = pair_len(pair);
        if len + pair > MAX_MESSAGE_SIZE && i > from {
            starts.push(i);
            (from, len) = (i, header);
        }
        len += pair;
    }
    let prov = |pairs| WalRecord::Prov {
        txid,
        item_name: item_name.to_string(),
        pairs,
    };
    // Split from the back, so every split moves only its own chunk.
    let mut out = Vec::with_capacity(starts.len() + 1);
    for &start in starts.iter().rev() {
        out.push(prov(pairs.split_off(start)));
    }
    if !pairs.is_empty() {
        out.push(prov(pairs));
    }
    out.reverse();
    out
}

/// Packs already-encoded WAL records into `SendMessageBatch`-shaped
/// groups, preserving order and respecting **both** batch limits: at
/// most [`MAX_BATCH_ENTRIES`] entries and at most [`MAX_BATCH_PAYLOAD`]
/// summed body bytes per group. Greedy first-fit in order — order is
/// load-bearing for the WAL (a transaction's `Commit` must never travel
/// before its payload), so records are never reordered to pack tighter.
///
/// Callers of [`chunk_pairs`] feed its output (plus the framing records)
/// through here instead of one `SendMessage` per record; each returned
/// group is exactly one billable request.
pub fn pack_wal_batches(records: &[WalRecord]) -> Vec<Vec<String>> {
    let mut batches: Vec<Vec<String>> = Vec::new();
    let mut current: Vec<String> = Vec::new();
    let mut current_bytes = 0usize;
    for record in records {
        let encoded = record.encode();
        debug_assert!(
            encoded.len() <= MAX_MESSAGE_SIZE,
            "chunk_pairs guarantees every record fits one message"
        );
        if !current.is_empty()
            && (current.len() == MAX_BATCH_ENTRIES
                || current_bytes + encoded.len() > MAX_BATCH_PAYLOAD)
        {
            batches.push(std::mem::take(&mut current));
            current_bytes = 0;
        }
        current_bytes += encoded.len();
        current.push(encoded);
    }
    if !current.is_empty() {
        batches.push(current);
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(record: WalRecord) {
        let encoded = record.encode();
        assert!(
            encoded.len() <= MAX_MESSAGE_SIZE,
            "record exceeds SQS limit"
        );
        assert_eq!(WalRecord::decode(&encoded), Some(record));
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(WalRecord::Begin {
            txid: 7,
            records: 3,
        });
        round_trip(WalRecord::Data {
            txid: 7,
            temp_key: "tmp/c/7/data".into(),
            name: "results/out.csv".into(),
            version: 2,
            nonce: "2".into(),
        });
        round_trip(WalRecord::Prov {
            txid: 7,
            item_name: "results/out.csv 2".into(),
            pairs: vec![
                ("input".into(), "bar:2".into()),
                ("type".into(), "file".into()),
            ],
        });
        round_trip(WalRecord::Md5 {
            txid: 7,
            item_name: "results/out.csv 2".into(),
            md5_hex: "d41d8cd98f00b204e9800998ecf8427e".into(),
            nonce: "2".into(),
        });
        round_trip(WalRecord::Commit { txid: 7 });
    }

    #[test]
    fn separator_and_percent_in_values_survive() {
        round_trip(WalRecord::Prov {
            txid: 1,
            item_name: "weird\u{1f}name 1".into(),
            pairs: vec![("env".into(), "A=100%\u{1f}B=2".into())],
        });
    }

    #[test]
    fn escaping_equals_chained_replaces_for_either_set() {
        // What both callers did before they shared a routine: `%` first
        // on the way out, last on the way back.
        let code = |b: &u8| format!("%{b:02X}");
        let replaced = |s: &str, set: &[u8]| {
            let out = |s: String, b: &u8| s.replace(char::from(*b), &code(b));
            set.iter().fold(s.to_string(), out)
        };
        let restored = |s: &str, set: &[u8]| {
            let back = |s: String, b: &u8| s.replace(&code(b), &char::from(*b).to_string());
            set.iter().rev().fold(s.to_string(), back)
        };
        let fields = [
            "",
            "plain",
            "%",
            "%%1F",
            "100%",
            "%25",
            "%251F",
            "%1F%1E%1f",
            "a\u{1f}b\u{1e}c%",
            "%1",
            "%1é",
            "é%1F→\u{1f}",
            "%2%25",
        ];
        for set in [ESCAPED, b"%\x1f\x1e"] {
            for field in fields {
                let mut escaped = String::new();
                esc_into(&mut escaped, field, set);
                assert_eq!(escaped, replaced(field, set), "{field:?}");
                assert_eq!(escaped.len(), escaped_len(field, set), "{field:?}");
                assert_eq!(unesc(&escaped, set), field);
                assert_eq!(unesc(field, set), restored(field, set), "{field:?}");
            }
        }
        assert!(matches!(unesc("no percent", ESCAPED), Cow::Borrowed(_)));
    }

    #[test]
    fn decode_rejects_malformed() {
        assert_eq!(WalRecord::decode(""), None);
        assert_eq!(WalRecord::decode("X\u{1f}1"), None);
        assert_eq!(WalRecord::decode("B\u{1f}notanumber\u{1f}3"), None);
        assert_eq!(WalRecord::decode("B\u{1f}1"), None); // missing count
        assert_eq!(WalRecord::decode("D\u{1f}1\u{1f}only-three-fields"), None);
        assert_eq!(
            WalRecord::decode("P\u{1f}1\u{1f}item\u{1f}dangling-key"),
            None
        );
        assert_eq!(WalRecord::decode("arbitrary user message"), None);
    }

    #[test]
    fn chunking_respects_message_limit() {
        let pairs: Vec<(String, String)> = (0..200)
            .map(|i| (format!("env{i}"), "v".repeat(500)))
            .collect();
        let chunks = chunk_pairs(9, "item 1", pairs.clone());
        assert!(chunks.len() > 1, "200 × ~500B pairs cannot fit one message");
        let mut reassembled = Vec::new();
        for c in &chunks {
            assert!(c.encode().len() <= MAX_MESSAGE_SIZE);
            match c {
                WalRecord::Prov {
                    item_name, pairs, ..
                } => {
                    assert_eq!(item_name, "item 1");
                    reassembled.extend(pairs.clone());
                }
                other => panic!("unexpected record {other:?}"),
            }
        }
        assert_eq!(reassembled, pairs, "no pair lost or reordered");
    }

    #[test]
    fn small_sets_fit_one_chunk() {
        let pairs = vec![("type".to_string(), "file".to_string())];
        let chunks = chunk_pairs(1, "i 1", pairs);
        assert_eq!(chunks.len(), 1);
    }

    /// A `Prov` record whose encoded form is exactly `len` bytes.
    fn record_of_len(txid: u64, len: usize) -> WalRecord {
        let skeleton = WalRecord::Prov {
            txid,
            item_name: "i".into(),
            pairs: vec![("k".into(), String::new())],
        };
        let pad = len
            .checked_sub(skeleton.encode().len())
            .expect("len must cover the framing");
        let record = WalRecord::Prov {
            txid,
            item_name: "i".into(),
            pairs: vec![("k".into(), "v".repeat(pad))],
        };
        assert_eq!(record.encode().len(), len);
        record
    }

    #[test]
    fn pack_respects_entry_limit() {
        let records: Vec<WalRecord> = (0..25).map(|i| WalRecord::Commit { txid: i }).collect();
        let batches = pack_wal_batches(&records);
        assert_eq!(
            batches.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![10, 10, 5],
            "tiny records pack to the 10-entry limit"
        );
        // Order is preserved end to end.
        let flat: Vec<String> = batches.into_iter().flatten().collect();
        let want: Vec<String> = records.iter().map(WalRecord::encode).collect();
        assert_eq!(flat, want);
    }

    #[test]
    fn pack_respects_payload_limit_at_the_boundary() {
        // Eight maximal 8 KB records sum to exactly MAX_BATCH_PAYLOAD:
        // filling the limit to the byte is legal, so they ride one
        // batch, and a ninth (tiny) record must open the next one even
        // though the entry count (8 < 10) would admit it.
        assert_eq!(8 * MAX_MESSAGE_SIZE, MAX_BATCH_PAYLOAD);
        let mut records: Vec<WalRecord> =
            (0..8).map(|i| record_of_len(i, MAX_MESSAGE_SIZE)).collect();
        records.push(record_of_len(8, 100));
        let batches = pack_wal_batches(&records);
        assert_eq!(batches.iter().map(Vec::len).collect::<Vec<_>>(), vec![8, 1]);
        assert_eq!(
            batches[0].iter().map(String::len).sum::<usize>(),
            MAX_BATCH_PAYLOAD,
            "a batch may fill the payload limit exactly"
        );
        // Nudge the sum one record-width past the limit (a small record
        // up front): the eighth maximal record no longer fits and the
        // payload bound — not the 10-entry bound — forces the split.
        let mut over: Vec<WalRecord> = vec![record_of_len(100, 100)];
        over.extend((0..8).map(|i| record_of_len(i, MAX_MESSAGE_SIZE)));
        let batches = pack_wal_batches(&over);
        assert_eq!(batches.iter().map(Vec::len).collect::<Vec<_>>(), vec![8, 1]);
        assert!(batches[0].iter().map(String::len).sum::<usize>() <= MAX_BATCH_PAYLOAD);
    }

    #[test]
    fn pack_both_limits_bind_on_maximal_messages() {
        // Ten maximal 8 KB records do NOT fit one batch: the 64 KB
        // payload limit binds first, at eight entries.
        let records: Vec<WalRecord> = (0..10)
            .map(|i| record_of_len(i, MAX_MESSAGE_SIZE))
            .collect();
        let batches = pack_wal_batches(&records);
        assert_eq!(batches.iter().map(Vec::len).collect::<Vec<_>>(), vec![8, 2]);
        for batch in &batches {
            assert!(batch.len() <= MAX_BATCH_ENTRIES);
            assert!(batch.iter().map(String::len).sum::<usize>() <= MAX_BATCH_PAYLOAD);
        }
    }

    #[test]
    fn pack_empty_and_single() {
        assert!(pack_wal_batches(&[]).is_empty());
        let one = [WalRecord::Commit { txid: 1 }];
        let batches = pack_wal_batches(&one);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0], vec![one[0].encode()]);
    }
}
