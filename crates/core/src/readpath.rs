//! The shared §4.2 read path: S3 data + SimpleDB provenance, verified by
//! `MD5(data ‖ nonce)` and retried until consistent. Used by both
//! Architecture 2 and Architecture 3 (their read sides are identical —
//! Table 3 notes their query costs are the same for the same reason).

use pass::ObjectRef;
use sim_s3::{S3Error, S3};
use simworld::{Blob, Md5Digest, SimWorld};

use crate::error::{CloudError, Result};
use crate::layout::{data_key, ATTR_MD5, BUCKET, DOMAIN};
use crate::retry::RetryPolicy;
use crate::serialize::{decode_attributes, read_nonce, read_version};
use crate::serve::ServeParts;
use crate::store::{ReadOutcome, ReadStatus};

/// The consistency token stored in SimpleDB (as lowercase hex) and
/// recomputed by every verified read: `MD5(data ‖ nonce)`, or `MD5(data)`
/// under the no-nonce ablation.
pub(crate) fn consistency_md5(data: &Blob, nonce: &str, use_nonce: bool) -> Md5Digest {
    if use_nonce {
        data.md5_with_suffix(nonce.as_bytes())
    } else {
        data.md5()
    }
}

/// Fetches data + provenance for `name`, enforcing the MD5+nonce
/// consistency check with retries. A missing data key and a stale MD5
/// spend the same retry budget: one counter paces both.
pub(crate) fn verified_read(ctx: &ServeParts, name: &str) -> Result<ReadOutcome> {
    let key = data_key(name);
    let mut retries = 0u32;
    loop {
        let object =
            get_object_with_retry(&ctx.s3, &ctx.world, &ctx.retry, &key, name, &mut retries)?;
        let version = read_version(&object.metadata)?;
        let nonce = read_nonce(&object.metadata)?;
        let object_ref = ObjectRef::new(name.to_string(), version);
        let item = ctx
            .db
            .get_attributes(DOMAIN, &object_ref.item_name(), None)?;
        let stored_md5 = item.get(ATTR_MD5).next().map(|p| p.value);

        // Byte for byte against the hex rendered on the stack: a stored
        // token matches only as the lowercase hex the write side stored.
        let computed = consistency_md5(&object.body, &nonce, ctx.use_nonce).hex_bytes();
        let status = if stored_md5.map(str::as_bytes) == Some(&computed[..]) {
            ReadStatus::VerifiedConsistent { retries }
        } else if retries >= ctx.retry.max_retries {
            ReadStatus::InconsistencyDetected { retries }
        } else {
            retries += 1;
            ctx.retry.pause(&ctx.world, retries);
            continue;
        };
        let records = decode_attributes(&item, |k| {
            fetch_overflow(&ctx.s3, &ctx.world, &ctx.retry, k)
        })?;
        return Ok(ReadOutcome {
            object: object_ref,
            data: object.body,
            records,
            status,
        });
    }
}

/// GETs `key` from the provenance bucket, retrying `NoSuchKey` under
/// `retry` — a fresh PUT that has not reached the sampled replica yet
/// is a transient stale read, not a hard error (§4.2's remedy). `attempt`
/// is the caller's count of retries already spent (0 for a fresh read);
/// every pause here advances it. When the budget runs out the error is a
/// plain `NotFound` naming `not_found_name` (the logical object a caller
/// asked about, which may differ from the raw key), not retry exhaustion:
/// the retries were only riding out eventual consistency, and callers
/// match on `NotFound` to mean "this object does not exist".
pub(crate) fn get_object_with_retry(
    s3: &S3,
    world: &SimWorld,
    retry: &RetryPolicy,
    key: &str,
    not_found_name: &str,
    attempt: &mut u32,
) -> Result<sim_s3::Object> {
    loop {
        match s3.get_object(BUCKET, key) {
            Ok(o) => return Ok(o),
            Err(S3Error::NoSuchKey { .. }) if *attempt < retry.max_retries => {
                *attempt += 1;
                retry.pause(world, *attempt);
            }
            Err(S3Error::NoSuchKey { .. }) => {
                return Err(CloudError::NotFound {
                    name: not_found_name.to_string(),
                })
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Fetches one overflow chunk as UTF-8, riding out eventual consistency
/// the same way the main object read does (on a budget of its own).
pub(crate) fn fetch_overflow(
    s3: &S3,
    world: &SimWorld,
    retry: &RetryPolicy,
    key: &str,
) -> Result<String> {
    let obj = get_object_with_retry(s3, world, retry, key, key, &mut 0)?;
    String::from_utf8(obj.body.to_bytes().to_vec()).map_err(|_| CloudError::Corrupt {
        message: format!("overflow {key} not UTF-8"),
    })
}
