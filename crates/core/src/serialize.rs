//! Encoding provenance records onto the two wire formats — S3 object
//! metadata (Architecture 1) and SimpleDB attributes (Architectures 2/3)
//! — including the overflow rules both impose.

use std::borrow::Cow;

use pass::{ObjectRef, ProvenanceRecord};
use sim_s3::{Metadata, METADATA_LIMIT};
use sim_simpledb::{ItemState, ReplaceableAttribute};
use simworld::Blob;

use crate::error::{CloudError, Result};
use crate::layout::{
    overflow_key, parse_pointer, pointer, ATTR_MD5, ATTR_NONCE, META_NONCE, META_VERSION,
    OVERFLOW_THRESHOLD,
};
use crate::wal::esc_into;

/// Provenance serialised for the wire: attribute pairs (with oversized
/// values replaced by pointers) plus the overflow objects that must be
/// stored for the pointers to resolve.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EncodedProvenance {
    /// `(attribute name, value-or-pointer)` in record order.
    pub pairs: Vec<(String, String)>,
    /// `(s3 key, content)` of overflow objects referenced by pointers.
    pub overflows: Vec<(String, Blob)>,
}

impl EncodedProvenance {
    /// Total bytes of the attribute pairs.
    pub fn pair_bytes(&self) -> u64 {
        self.pairs
            .iter()
            .map(|(k, v)| (k.len() + v.len()) as u64)
            .sum()
    }
}

/// Serialises records, spilling values above [`OVERFLOW_THRESHOLD`]
/// into overflow objects (the §4.2 rule, also applied by Architecture 1
/// per §5).
pub fn encode_records(object: &ObjectRef, records: &[ProvenanceRecord]) -> EncodedProvenance {
    let mut out = EncodedProvenance::default();
    for (i, record) in records.iter().enumerate() {
        let (name, value) = record.to_pair();
        if value.len() > OVERFLOW_THRESHOLD {
            let key = overflow_key(object, i);
            out.pairs.push((name, pointer(&key)));
            out.overflows.push((key, Blob::from(value)));
        } else {
            out.pairs.push((name, value));
        }
    }
    out
}

/// Metadata key pointing at the continuation object, when one exists.
const META_MORE: &str = "pmore";

/// S3 key of an object version's continuation object.
fn continuation_key(object: &ObjectRef) -> String {
    format!("{}{}/more", crate::layout::PROV_PREFIX, object.item_name())
}

/// Separates the fields of a continuation entry.
const FIELD_SEP: char = '\u{1f}';

/// Separates the entries of a continuation object.
const ENTRY_SEP: char = '\u{1e}';

/// The bytes a continuation field escapes: the escape character and the
/// two separators (one more than the WAL's set — its records have no
/// entry separator).
const ESCAPED: &[u8] = b"%\x1f\x1e";

/// Appends one entry — `fields`, escaped, [`FIELD_SEP`] between them — to
/// a continuation `body`, behind an [`ENTRY_SEP`] unless it is the first.
/// (An entry has two fields or more, so only an empty body has none.)
fn push_entry(body: &mut String, fields: &[&str]) {
    if !body.is_empty() {
        body.push(ENTRY_SEP);
    }
    for (i, field) in fields.iter().enumerate() {
        if i > 0 {
            body.push(FIELD_SEP);
        }
        esc_into(body, field, ESCAPED);
    }
}

fn unesc(field: &str) -> String {
    crate::wal::unesc(field, ESCAPED).into_owned()
}

/// Lays encoded pairs into S3 user metadata for Architecture 1.
///
/// Keys are `p{i}-{attr}` (the index keeps duplicate attribute names —
/// multiple `input` records — distinct in the metadata map, and
/// preserves record order). `version` is stored under its own key.
/// Whatever does not fit under the 2 KB cap is spilled into a single
/// *continuation object* referenced by a `pmore` pointer — the §4.1
/// workaround of "storing provenance overflowing the 2KB limit in
/// separate S3 objects", which is exactly what makes this
/// architecture's query story painful.
pub fn encode_metadata(
    object: &ObjectRef,
    encoded: EncodedProvenance,
) -> (Metadata, Vec<(String, Blob)>) {
    let mut overflows = encoded.overflows;
    let version = object.version.to_string();
    let keys: Vec<String> = encoded
        .pairs
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("p{i}-{name}"))
        .collect();
    let values = encoded.pairs.iter().map(|(_, value)| value.as_str());
    let pairs = || keys.iter().map(String::as_str).zip(values.clone());
    let cost = |(key, value): (&str, &str)| (key.len() + value.len()) as u64;

    // Fast path: everything fits inline.
    let head = [(META_VERSION, version.as_str())];
    if head.into_iter().chain(pairs()).map(cost).sum::<u64>() <= METADATA_LIMIT {
        let meta = Metadata::from_pairs(head.into_iter().chain(pairs()));
        return (meta, overflows);
    }

    // Slow path: keep the longest prefix of the records that fits
    // inline, spill the rest into one continuation object.
    let key = continuation_key(object);
    let more = pointer(&key);
    let head = [(META_VERSION, version.as_str()), (META_MORE, more.as_str())];
    let mut inline_budget = METADATA_LIMIT.saturating_sub(head.into_iter().map(cost).sum());
    let fits = |&pair: &(&str, &str)| {
        let fits = cost(pair) <= inline_budget;
        if fits {
            inline_budget -= cost(pair);
        }
        fits
    };
    let kept = pairs().take_while(fits).count();
    let mut spilled = String::new();
    for (i, (name, value)) in encoded.pairs.iter().enumerate().skip(kept) {
        push_entry(&mut spilled, &[&i.to_string(), name, value]);
    }
    let meta = Metadata::from_pairs(head.into_iter().chain(pairs().take(kept)));
    overflows.push((key, Blob::from(spilled)));
    debug_assert!(meta.byte_size() <= METADATA_LIMIT);
    (meta, overflows)
}

/// Reads provenance pairs back out of Architecture 1 metadata, in record
/// order. Pointer values are resolved through `fetch` (an S3 GET).
///
/// # Errors
///
/// Propagates `fetch` failures; [`CloudError::Corrupt`] for malformed
/// keys is *not* raised — unknown metadata keys are simply skipped, so
/// service-level keys (`version`, `nonce`) coexist with provenance.
pub fn decode_metadata(
    metadata: &Metadata,
    mut fetch: impl FnMut(&str) -> Result<String>,
) -> Result<Vec<ProvenanceRecord>> {
    let mut indexed: Vec<(usize, Cow<str>, Cow<str>)> = Vec::new();
    for (key, value) in metadata.iter() {
        let Some(rest) = key.strip_prefix('p') else {
            continue;
        };
        let Some((idx, attr)) = rest.split_once('-') else {
            continue;
        };
        let Ok(idx) = idx.parse::<usize>() else {
            continue;
        };
        indexed.push((idx, Cow::Borrowed(attr), Cow::Borrowed(value)));
    }
    if let Some(more) = metadata.get(META_MORE) {
        let key = parse_pointer(more).ok_or_else(|| CloudError::Corrupt {
            message: "malformed continuation pointer".into(),
        })?;
        let body = fetch(key)?;
        for entry in body.split(ENTRY_SEP).filter(|e| !e.is_empty()) {
            let mut fields = entry.splitn(3, FIELD_SEP);
            let (idx, name, value) = (fields.next(), fields.next(), fields.next());
            match (idx.and_then(|i| i.parse::<usize>().ok()), name, value) {
                (Some(idx), Some(name), Some(value)) => {
                    indexed.push((idx, unesc(name).into(), unesc(value).into()));
                }
                _ => {
                    return Err(CloudError::Corrupt {
                        message: format!("malformed continuation entry {entry:?}"),
                    })
                }
            }
        }
    }
    indexed.sort_by_key(|(i, _, _)| *i);
    let mut records = Vec::with_capacity(indexed.len());
    for (_, attr, value) in indexed {
        let value = resolve(value, &mut fetch)?;
        records.push(ProvenanceRecord::from_pair(&attr, value));
    }
    Ok(records)
}

/// Converts encoded pairs into SimpleDB attributes for one item
/// (Architectures 2/3). Multi-valued set semantics make duplicates
/// harmless, so `replace` is false throughout — which is also what keeps
/// the commit daemon's replays idempotent.
pub fn to_simpledb_attributes(encoded: &EncodedProvenance) -> Vec<ReplaceableAttribute> {
    encoded
        .pairs
        .iter()
        .map(|(name, value)| ReplaceableAttribute::add(name.clone(), value.clone()))
        .collect()
}

/// The attribute that points at a SimpleDB item's continuation object.
pub const ATTR_MORE: &str = "more";

/// Reserve for the service attributes (`md5`, `nonce`, `more`).
const ITEM_ATTR_RESERVE: usize = 3;

/// Caps an item's provenance pairs at SimpleDB's 256-pair limit: the
/// overflowing tail is packed into one continuation object and replaced
/// by a single `more` pointer attribute. Massive fan-in (a linker
/// reading thousands of objects) would otherwise be unstorable — the
/// trade-off is that spilled `input` records are invisible to SimpleDB's
/// index, exactly as they would be on the real service. `item_name` is
/// the item's SimpleDB name, which names the continuation object.
pub fn fit_item_pairs(
    item_name: &str,
    mut pairs: Vec<(String, String)>,
) -> (Vec<(String, String)>, Option<(String, Blob)>) {
    let max_inline = sim_simpledb::MAX_PAIRS_PER_ITEM - ITEM_ATTR_RESERVE;
    if pairs.len() <= max_inline {
        return (pairs, None);
    }
    let tail: Vec<(String, String)> = pairs.split_off(max_inline);
    let key = format!("{}{item_name}/more-attrs", crate::layout::PROV_PREFIX);
    let mut body = String::new();
    for (name, value) in &tail {
        push_entry(&mut body, &[name, value]);
    }
    pairs.push((ATTR_MORE.to_string(), pointer(&key)));
    (pairs, Some((key, Blob::from(body))))
}

/// Greedy first-fit grouping of finished provenance items into
/// `BatchPutAttributes`-shaped calls: at most
/// [`sim_simpledb::MAX_BATCH_ITEMS`] items and
/// [`sim_simpledb::MAX_PAIRS_PER_BATCH`] summed attributes per group,
/// and never the same item name twice in one group (the batch API
/// rejects duplicates; splitting preserves the sequential-application
/// semantics instead). Item order is preserved.
pub fn pack_attr_batches(
    items: Vec<(String, Vec<ReplaceableAttribute>)>,
) -> Vec<Vec<(String, Vec<ReplaceableAttribute>)>> {
    let mut groups: Vec<Vec<(String, Vec<ReplaceableAttribute>)>> = Vec::new();
    let room = |left: usize| Vec::with_capacity(left.min(sim_simpledb::MAX_BATCH_ITEMS));
    let mut group: Vec<(String, Vec<ReplaceableAttribute>)> = room(items.len());
    let mut group_pairs = 0usize;
    let mut left = items.len();
    for (name, attrs) in items {
        let overfull = group.len() == sim_simpledb::MAX_BATCH_ITEMS
            || group_pairs + attrs.len() > sim_simpledb::MAX_PAIRS_PER_BATCH
            || group.iter().any(|(n, _)| n == &name);
        if overfull && !group.is_empty() {
            groups.push(std::mem::replace(&mut group, room(left)));
            group_pairs = 0;
        }
        left -= 1;
        group_pairs += attrs.len();
        group.push((name, attrs));
    }
    if !group.is_empty() {
        groups.push(group);
    }
    groups
}

/// Reads provenance records back from a SimpleDB item's attributes,
/// resolving overflow pointers through `fetch` and skipping the
/// consistency attributes (`md5`, `nonce`). Values are read in place: a
/// text record copies its value once, a reference record not at all.
///
/// # Errors
///
/// Propagates `fetch` failures.
pub fn decode_attributes(
    item: &ItemState,
    mut fetch: impl FnMut(&str) -> Result<String>,
) -> Result<Vec<ProvenanceRecord>> {
    let mut records = Vec::with_capacity(item.len());
    let mut continuation: Vec<(String, String)> = Vec::new();
    for pair in item.iter() {
        let (name, value) = (pair.name, pair.value);
        if name == ATTR_MD5 || name == ATTR_NONCE {
            continue;
        }
        if name == ATTR_MORE {
            let key = parse_pointer(value).ok_or_else(|| CloudError::Corrupt {
                message: "malformed continuation pointer".into(),
            })?;
            let body = fetch(key)?;
            for entry in body.split(ENTRY_SEP).filter(|e| !e.is_empty()) {
                let Some((name, value)) = entry.split_once(FIELD_SEP) else {
                    return Err(CloudError::Corrupt {
                        message: format!("malformed continuation entry {entry:?}"),
                    });
                };
                continuation.push((unesc(name), unesc(value)));
            }
            continue;
        }
        let value = resolve(Cow::Borrowed(value), &mut fetch)?;
        records.push(ProvenanceRecord::from_pair(name, value));
    }
    for (name, value) in continuation {
        let value = resolve(Cow::Owned(value), &mut fetch)?;
        records.push(ProvenanceRecord::from_pair(&name, value));
    }
    Ok(records)
}

/// A stored value as its record holds it: passed on as it is, or
/// replaced by the overflow object its pointer names.
fn resolve<'a>(
    value: Cow<'a, str>,
    fetch: impl FnOnce(&str) -> Result<String>,
) -> Result<Cow<'a, str>> {
    match parse_pointer(&value) {
        Some(key) => fetch(key).map(Cow::Owned),
        None => Ok(value),
    }
}

/// Extracts the nonce a data object was stored with.
///
/// # Errors
///
/// [`CloudError::Corrupt`] when the metadata lacks a nonce.
pub fn read_nonce(metadata: &Metadata) -> Result<String> {
    metadata
        .get(META_NONCE)
        .map(str::to_string)
        .ok_or_else(|| CloudError::Corrupt {
            message: "data object has no nonce".into(),
        })
}

/// Extracts the version a data object was stored with.
///
/// # Errors
///
/// [`CloudError::Corrupt`] when absent or unparsable.
pub fn read_version(metadata: &Metadata) -> Result<u32> {
    metadata
        .get(META_VERSION)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| CloudError::Corrupt {
            message: "data object has no version".into(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass::{RecordKey, RecordValue};

    fn rec(key: &str, value: &str) -> ProvenanceRecord {
        ProvenanceRecord::from_pair(key, value)
    }

    #[test]
    fn small_records_stay_inline() {
        let obj = ObjectRef::new("foo", 2);
        let records = vec![rec("input", "bar:2"), rec("type", "file")];
        let enc = encode_records(&obj, &records);
        assert!(enc.overflows.is_empty());
        assert_eq!(enc.pairs.len(), 2);
        assert_eq!(enc.pairs[0], ("input".to_string(), "bar:2".to_string()));
    }

    #[test]
    fn big_values_overflow_with_pointers() {
        let obj = ObjectRef::new("foo", 1);
        let big = "e".repeat(3000);
        let records = vec![rec("env", &big), rec("type", "process")];
        let enc = encode_records(&obj, &records);
        assert_eq!(enc.overflows.len(), 1);
        assert_eq!(enc.overflows[0].0, "prov/foo 1/0");
        assert!(enc.pairs[0].1.starts_with("@s3:"));
        assert_eq!(enc.pairs[1].1, "process");
    }

    #[test]
    fn metadata_round_trip_with_overflow() {
        let obj = ObjectRef::new("foo", 3);
        let big = "x".repeat(2000);
        let records = vec![rec("input", "bar:2"), rec("env", &big), rec("type", "file")];
        let enc = encode_records(&obj, &records);
        let (meta, overflows) = encode_metadata(&obj, enc);
        assert!(meta.byte_size() <= METADATA_LIMIT);
        assert_eq!(read_version(&meta).unwrap(), 3);

        // Simulated overflow store.
        let fetch = |key: &str| -> Result<String> {
            overflows
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, blob)| String::from_utf8(blob.to_bytes().to_vec()).unwrap())
                .ok_or_else(|| CloudError::NotFound {
                    name: key.to_string(),
                })
        };
        let decoded = decode_metadata(&meta, fetch).unwrap();
        assert_eq!(decoded, records);
    }

    #[test]
    fn many_small_records_spill_until_metadata_fits() {
        let obj = ObjectRef::new("foo", 1);
        // 30 records of ~100 bytes: 3 KB total, all under the 1 KB
        // per-record threshold, so the 2 KB cap forces extra spills.
        let records: Vec<ProvenanceRecord> = (0..30)
            .map(|i| rec("env", &format!("{i:03}{}", "v".repeat(97))))
            .collect();
        let enc = encode_records(&obj, &records);
        assert!(enc.overflows.is_empty());
        let (meta, overflows) = encode_metadata(&obj, enc);
        assert!(meta.byte_size() <= METADATA_LIMIT);
        assert!(!overflows.is_empty(), "spilling was required");
        let fetch = |key: &str| -> Result<String> {
            overflows
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, blob)| String::from_utf8(blob.to_bytes().to_vec()).unwrap())
                .ok_or_else(|| CloudError::NotFound {
                    name: key.to_string(),
                })
        };
        let decoded = decode_metadata(&meta, fetch).unwrap();
        assert_eq!(
            decoded, records,
            "record order and content survive spilling"
        );
    }

    #[test]
    fn simpledb_attr_round_trip() {
        let obj = ObjectRef::new("out", 1);
        let records = vec![
            rec("input", "proc:1:cc:1"),
            rec("input", "main.c:1"),
            rec("type", "file"),
        ];
        let enc = encode_records(&obj, &records);
        let attrs = to_simpledb_attributes(&enc);
        assert_eq!(attrs.len(), 3);
        assert!(
            attrs.iter().all(|a| !a.replace),
            "adds, never replaces (idempotency)"
        );

        let stored = ItemState::from_pairs(attrs.iter().map(|a| (&*a.name, &*a.value)));
        let decoded = decode_attributes(&stored, |_| panic!("no overflow expected")).unwrap();
        // SimpleDB sets are unordered; compare as sets.
        let mut want = records.clone();
        want.sort();
        let mut got = decoded;
        got.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn decode_attributes_skips_consistency_attrs() {
        let stored = ItemState::from_pairs([("md5", "abc"), ("nonce", "2"), ("type", "file")]);
        let decoded = decode_attributes(&stored, |_| unreachable!()).unwrap();
        assert_eq!(decoded, vec![rec("type", "file")]);
    }

    #[test]
    fn missing_overflow_object_propagates_error() {
        let obj = ObjectRef::new("foo", 1);
        let records = vec![rec("env", &"e".repeat(2000))];
        let enc = encode_records(&obj, &records);
        let (meta, _overflows) = encode_metadata(&obj, enc);
        let result = decode_metadata(&meta, |key| {
            Err(CloudError::NotFound {
                name: key.to_string(),
            })
        });
        assert!(matches!(result, Err(CloudError::NotFound { .. })));
    }

    #[test]
    fn nonce_and_version_extraction_errors() {
        let meta = Metadata::new();
        assert!(matches!(read_nonce(&meta), Err(CloudError::Corrupt { .. })));
        assert!(matches!(
            read_version(&meta),
            Err(CloudError::Corrupt { .. })
        ));
        let meta = Metadata::from_pairs([(META_VERSION, "notanumber")]);
        assert!(matches!(
            read_version(&meta),
            Err(CloudError::Corrupt { .. })
        ));
    }

    #[test]
    fn reference_records_survive_round_trip_as_refs() {
        let obj = ObjectRef::new("foo", 1);
        let records = vec![ProvenanceRecord::new(
            RecordKey::Input,
            RecordValue::Ref(ObjectRef::new("a", 1)),
        )];
        let enc = encode_records(&obj, &records);
        let (meta, _) = encode_metadata(&obj, enc);
        let decoded = decode_metadata(&meta, |_| unreachable!()).unwrap();
        assert_eq!(decoded[0].reference(), Some(&ObjectRef::new("a", 1)));
    }
}
