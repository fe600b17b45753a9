//! The shared §4.2 read path: S3 data + SimpleDB provenance, verified by
//! `MD5(data ‖ nonce)` and retried until consistent. Used by both
//! Architecture 2 and Architecture 3 (their read sides are identical —
//! Table 3 notes their query costs are the same for the same reason).

use pass::ObjectRef;
use sim_s3::{S3Error, S3};
use simworld::{Blob, SimWorld};

use crate::error::{CloudError, Result};
use crate::layout::{data_key, ATTR_MD5, BUCKET, DOMAIN};
use crate::retry::RetryPolicy;
use crate::serialize::{decode_attributes, read_nonce, read_version};
use crate::serve::ServeParts;
use crate::store::{ReadOutcome, ReadStatus};

/// The consistency token stored in SimpleDB and recomputed by every
/// verified read: `MD5(data ‖ nonce)`, or `MD5(data)` under the
/// no-nonce ablation.
pub(crate) fn consistency_md5(data: &Blob, nonce: &str, use_nonce: bool) -> String {
    if use_nonce {
        data.md5_with_suffix(nonce.as_bytes()).to_hex()
    } else {
        data.md5().to_hex()
    }
}

/// Fetches data + provenance for `name`, enforcing the MD5+nonce
/// consistency check with retries.
pub(crate) fn verified_read(ctx: &ServeParts, name: &str) -> Result<ReadOutcome> {
    let key = data_key(name);
    let mut retries = 0u32;
    loop {
        let object = match ctx.s3.get_object(BUCKET, &key) {
            Ok(o) => o,
            Err(S3Error::NoSuchKey { .. }) if retries < ctx.retry.max_retries => {
                retries += 1;
                ctx.retry.pause(&ctx.world, retries);
                continue;
            }
            // Budget spent on a key that never appeared: that is a
            // plain NotFound, not retry exhaustion — the retries were
            // only riding out eventual consistency, and callers match
            // on the NotFound variant to mean "this object does not
            // exist".
            Err(S3Error::NoSuchKey { .. }) => {
                return Err(CloudError::NotFound {
                    name: name.to_string(),
                })
            }
            Err(e) => return Err(e.into()),
        };
        let version = read_version(&object.metadata)?;
        let nonce = read_nonce(&object.metadata)?;
        let object_ref = ObjectRef::new(name.to_string(), version);
        let attrs = ctx
            .db
            .get_attributes(DOMAIN, &object_ref.item_name(), None)?;
        let stored_md5 = attrs
            .iter()
            .find(|a| a.name == ATTR_MD5)
            .map(|a| a.value.clone());

        let finish = |status: ReadStatus| -> Result<ReadOutcome> {
            let records = decode_attributes(&attrs, |k| fetch_overflow(ctx, k))?;
            Ok(ReadOutcome {
                object: object_ref.clone(),
                data: object.body.clone(),
                records,
                status,
            })
        };

        if !ctx.verify_md5 {
            return finish(ReadStatus::Unverified);
        }
        let computed = consistency_md5(&object.body, &nonce, ctx.use_nonce);
        if stored_md5.as_deref() == Some(computed.as_str()) {
            return finish(ReadStatus::VerifiedConsistent { retries });
        }
        if retries >= ctx.retry.max_retries {
            return finish(ReadStatus::InconsistencyDetected { retries });
        }
        retries += 1;
        ctx.retry.pause(&ctx.world, retries);
    }
}

/// GETs `key` from the provenance bucket, retrying `NoSuchKey` under
/// `retry` — a fresh PUT that has not reached the sampled replica yet
/// is a transient stale read, not a hard error (§4.2's remedy). When
/// the budget runs out, the error names `not_found_name` (the logical
/// object a caller asked about, which may differ from the raw key).
pub(crate) fn get_object_with_retry(
    s3: &S3,
    world: &SimWorld,
    retry: &RetryPolicy,
    key: &str,
    not_found_name: &str,
) -> Result<sim_s3::Object> {
    let mut attempt = 0u32;
    loop {
        match s3.get_object(BUCKET, key) {
            Ok(o) => return Ok(o),
            Err(S3Error::NoSuchKey { .. }) if attempt < retry.max_retries => {
                attempt += 1;
                retry.pause(world, attempt);
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

/// Decodes one fetched overflow chunk as UTF-8.
pub(crate) fn overflow_to_string(key: &str, obj: sim_s3::Object) -> Result<String> {
    String::from_utf8(obj.body.to_bytes().to_vec()).map_err(|_| CloudError::Corrupt {
        message: format!("overflow {key} not UTF-8"),
    })
}

/// Fetches one overflow chunk, riding out eventual consistency the same
/// way the main object read does.
fn fetch_overflow(ctx: &ServeParts, key: &str) -> Result<String> {
    let obj = get_object_with_retry(&ctx.s3, &ctx.world, &ctx.retry, key, key)?;
    overflow_to_string(key, obj)
}
