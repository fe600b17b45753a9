//! Naming conventions shared by all three architectures: bucket/domain
//! names, S3 key prefixes, metadata keys, and overflow pointers.

use std::fmt::Write;

use pass::ObjectRef;

/// The single S3 bucket all architectures store into.
pub const BUCKET: &str = "pass";

/// Prefix for user-visible data objects: `data/{object name}`.
pub const DATA_PREFIX: &str = "data/";

/// Prefix for provenance overflow objects: `prov/{item name}/{index}`.
pub const PROV_PREFIX: &str = "prov/";

/// Prefix for Architecture 3's temporary staging objects:
/// `tmp/{client}/{txid}/{kind}`.
pub const TMP_PREFIX: &str = "tmp/";

/// SimpleDB domain holding provenance items.
pub const DOMAIN: &str = "provenance";

/// SimpleDB domain holding the materialized ancestry-closure index
/// (PR 9). Lives beside [`DOMAIN`] on the same sharded endpoint, so the
/// shardmap layer routes it like any other domain — and so
/// the data/provenance fingerprints are byte-identical whether the
/// index exists or not.
///
/// The index is one relation, stored once: a node's logical row holds
/// its ancestors. "Descendants of X" is not stored anywhere — it is the
/// posted lookup `['a' = 'X']` on this domain, with each returned
/// physical item name folded to its row by [`closure_row_name`].
pub const CLOSURE_DOMAIN: &str = "closure";

/// Closure attribute: node marker. Present exactly when the node's
/// closure row has been written — its absence on a committed node is
/// the detectable-staleness signal that triggers a self-heal rebuild.
pub const CLOSURE_ATTR_NODE: &str = "n";

/// Closure attribute: one value per transitive ancestor (the rendered
/// `ObjectRef` of the ancestor).
pub const CLOSURE_ATTR_ANC: &str = "a";

/// Closure attribute (base rows only): one *mark* per fragment of this
/// logical row that holds at least one value. A mark is the fragment's
/// attribute followed by its bucket (`"a17"`).
pub const CLOSURE_ATTR_FRAGS: &str = "f";

/// How many hash buckets the values of a logical closure row spread
/// across: bucket 0 is the base item, buckets `1..CLOSURE_FRAG_BUCKETS`
/// are one fragment item each. Every physical item respects SimpleDB's
/// 256-pair cap; the base item, which also carries up to 63 marks, is
/// the one that fills first (see the capacity bound in the `closure`
/// module docs).
pub const CLOSURE_FRAG_BUCKETS: u64 = 64;

/// Separator between a closure base item name and a fragment mark
/// (`\u{1f}` cannot appear in object names that survive the record
/// escaper, so fragment names never collide with node rows).
pub const CLOSURE_FRAG_SEP: char = '\u{1f}';

/// The `f` value on the base item that announces fragment `bucket`: the
/// fragmented attribute ([`CLOSURE_ATTR_ANC`], the only one) followed by
/// the bucket.
pub(crate) fn closure_frag_mark(bucket: u64) -> String {
    format!("{CLOSURE_ATTR_ANC}{bucket}")
}

/// The bucket a mark names.
pub(crate) fn closure_mark_bucket(mark: &str) -> Option<u64> {
    mark.strip_prefix(CLOSURE_ATTR_ANC)?.parse().ok()
}

/// Item name of the fragment holding the `a` values that hash to
/// `bucket` (`bucket >= 1`; bucket 0 is the base item itself): the base
/// name, the separator, then the fragment's mark.
pub fn closure_frag_name(base: &str, bucket: u64) -> String {
    // Room for the separator, the attribute and two digits.
    let mut name = String::with_capacity(base.len() + 4);
    write!(name, "{base}{CLOSURE_FRAG_SEP}{CLOSURE_ATTR_ANC}{bucket}")
        .expect("writing to a String cannot fail");
    name
}

/// Inverse of [`closure_frag_name`]: the `(base, bucket)` of a fragment
/// item; `None` for base items.
pub fn parse_closure_frag_name(item: &str) -> Option<(&str, u64)> {
    let (base, mark) = item.rsplit_once(CLOSURE_FRAG_SEP)?;
    let bucket = closure_mark_bucket(mark)?;
    // The mark must be the canonical rendering ("a017" parses but names
    // no fragment the writer would produce).
    let canonical = !base.is_empty()
        && (1..CLOSURE_FRAG_BUCKETS).contains(&bucket)
        && closure_frag_mark(bucket) == mark;
    canonical.then_some((base, bucket))
}

/// The logical row a physical closure item belongs to: a fragment's base,
/// or the item itself. What a lookup on [`CLOSURE_DOMAIN`] returns is
/// physical item names; this folds them.
pub fn closure_row_name(item: &str) -> &str {
    parse_closure_frag_name(item).map_or(item, |(base, _)| base)
}

/// Which fragment of a logical closure row an ancestor `value` lives in:
/// 0 is the base item, anything else the matching fragment item. The
/// bucket is a pure function of the value (FNV-1a over `"a" ␟ value`), so
/// closure rows are byte-identical no matter how commits were grouped,
/// replayed after crashes, or interleaved — there is no
/// read-modify-write in the maintenance path.
pub fn closure_bucket(value: &str) -> u64 {
    let mut hash = simworld::Fnv1a::new();
    hash.write(CLOSURE_ATTR_ANC.as_bytes());
    hash.write(b"\x1f");
    hash.write(value.as_bytes());
    hash.finish() % CLOSURE_FRAG_BUCKETS
}

/// Metadata key carrying the stored version on a data object.
pub const META_VERSION: &str = "version";

/// Metadata key carrying the consistency nonce on a data object.
pub const META_NONCE: &str = "nonce";

/// SimpleDB attribute holding `MD5(data ‖ nonce)` (§4.2).
pub const ATTR_MD5: &str = "md5";

/// SimpleDB attribute holding the nonce used for the MD5 attribute.
pub const ATTR_NONCE: &str = "nonce";

/// Provenance record values longer than this spill into their own S3
/// object. The paper uses 1 KB: SimpleDB's hard value limit, and the
/// headroom rule Architecture 1 applies to stay under S3's 2 KB metadata
/// cap ("we store any record larger than 1KB in a separate S3 object",
/// §5).
pub const OVERFLOW_THRESHOLD: usize = 1024;

/// S3 key of a data object.
pub fn data_key(name: &str) -> String {
    [DATA_PREFIX, name].concat()
}

/// Object name from a data key, if it is one.
pub fn parse_data_key(key: &str) -> Option<&str> {
    key.strip_prefix(DATA_PREFIX)
}

/// S3 key of the `idx`-th overflow object for an object version.
pub fn overflow_key(object: &ObjectRef, idx: usize) -> String {
    format!("{PROV_PREFIX}{}/{idx}", object.item_name())
}

/// S3 key prefix for Architecture 3 temp objects of one transaction.
pub fn tmp_prefix(client: &str, txid: u64) -> String {
    // Room for any txid (twenty digits) and both slashes.
    let mut prefix = String::with_capacity(TMP_PREFIX.len() + client.len() + 22);
    write!(prefix, "{TMP_PREFIX}{client}/{txid}/").expect("writing to a String cannot fail");
    prefix
}

/// Renders an overflow pointer value: `@s3:{key}`.
pub fn pointer(key: &str) -> String {
    ["@s3:", key].concat()
}

/// Parses an overflow pointer value.
pub fn parse_pointer(value: &str) -> Option<&str> {
    value.strip_prefix("@s3:")
}

/// Renders a staged overflow pointer, `@tmp:{tmp_key}|{perm_key}`: what
/// an Architecture 3 WAL record carries for a value whose temporary
/// object the commit daemon COPYs to `perm_key`.
pub fn staged_pointer(tmp_key: &str, perm_key: &str) -> String {
    format!("@tmp:{tmp_key}|{perm_key}")
}

/// Parses a staged overflow pointer into `(tmp_key, perm_key)`.
pub fn parse_staged_pointer(value: &str) -> Option<(&str, &str)> {
    value.strip_prefix("@tmp:")?.split_once('|')
}

/// The nonce for a version: the paper uses the file version (§4.2,
/// "the nonce is typically the file version").
pub fn nonce_for(object: &ObjectRef) -> String {
    object.version.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_round_trips() {
        assert_eq!(parse_data_key(&data_key("a/b.txt")), Some("a/b.txt"));
        assert_eq!(parse_data_key("prov/x/0"), None);
    }

    #[test]
    fn pointers_round_trip() {
        let key = overflow_key(&ObjectRef::new("foo", 2), 3);
        assert_eq!(key, "prov/foo 2/3");
        assert_eq!(parse_pointer(&pointer(&key)), Some(key.as_str()));
        assert_eq!(parse_pointer("plain value"), None);
        let tmp = format!("{}ovf3", tmp_prefix("c1", 9));
        let staged = staged_pointer(&tmp, &key);
        assert_eq!(staged, "@tmp:tmp/c1/9/ovf3|prov/foo 2/3");
        assert_eq!(
            parse_staged_pointer(&staged),
            Some((tmp.as_str(), key.as_str()))
        );
        assert_eq!(parse_staged_pointer(&pointer(&key)), None);
        assert_eq!(parse_pointer(&staged), None);
    }

    #[test]
    fn nonce_is_the_version() {
        assert_eq!(nonce_for(&ObjectRef::new("foo", 7)), "7");
    }

    #[test]
    fn tmp_prefix_scopes_by_client_and_txn() {
        assert_eq!(tmp_prefix("c1", 9), "tmp/c1/9/");
    }

    #[test]
    fn closure_buckets_are_stable_and_bounded() {
        let b = closure_bucket("cooked/0.dat:1");
        assert_eq!(b, closure_bucket("cooked/0.dat:1"));
        assert!(b < CLOSURE_FRAG_BUCKETS);
    }

    #[test]
    fn closure_names_cannot_collide_with_node_rows() {
        // Node rows are "{name} {version}"; fragments carry the \u{1f}
        // separator, which parse_item_name-able names never do.
        assert_eq!(closure_frag_name("f 1", 3), "f 1\u{1f}a3");
    }

    #[test]
    fn closure_frag_names_round_trip_and_marks_name_their_attribute() {
        let bases = ["f 1", "run 7/out 2.dat 12", "proc:1:tool:2 3"];
        for base in bases {
            assert_eq!(parse_closure_frag_name(base), None, "{base:?} is a base");
            assert_eq!(closure_row_name(base), base);
            for bucket in [1, 9, 10, CLOSURE_FRAG_BUCKETS - 1] {
                let frag = closure_frag_name(base, bucket);
                assert_eq!(parse_closure_frag_name(&frag), Some((base, bucket)));
                assert_eq!(closure_row_name(&frag), base);
                let mark = closure_frag_mark(bucket);
                assert_eq!(mark, format!("a{bucket}"));
                assert_eq!(closure_mark_bucket(&mark), Some(bucket));
            }
        }
        // Bucket 0 is the base item; nothing non-canonical is a fragment,
        // and no other attribute has fragments.
        for not_a_frag in [
            "f 1\u{1f}a0",
            "f 1\u{1f}a64",
            "f 1\u{1f}a07",
            "f 1\u{1f}7",
            "f 1\u{1f}x7",
            "\u{1f}a7",
        ] {
            assert_eq!(parse_closure_frag_name(not_a_frag), None, "{not_a_frag:?}");
        }
    }
}
