//! The SQS service simulator.
//!
//! # Locking layout
//!
//! Queues are independent: each queue sits behind its own lock under an
//! `RwLock` queue map, and the global send sequence is a lock-free
//! atomic. Operations on different queues therefore never contend —
//! the concurrency property the multi-client scaling experiments need,
//! mirroring the per-shard locking of the sharded S3/SimpleDB
//! simulators (a queue is its own "shard": the real service partitions
//! by queue too).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use simworld::{fnv1a_64, Charge, Cost, Op, Service, SimDuration, SimInstant, SimWorld};

use crate::error::{Result, SqsError};

/// SQS's 2009 limit on message body size, in bytes.
pub const MAX_MESSAGE_SIZE: usize = 8 * 1024;

/// Maximum messages returnable by one `ReceiveMessage`.
pub const MAX_RECEIVE_BATCH: usize = 10;

/// Maximum entries per `SendMessageBatch`/`DeleteMessageBatch` call.
pub const MAX_BATCH_ENTRIES: usize = 10;

/// Maximum summed body bytes per `SendMessageBatch` call. Tighter than
/// `MAX_BATCH_ENTRIES × MAX_MESSAGE_SIZE` (80 KB), so a batcher must
/// respect both limits — ten maximal 8 KB bodies do **not** fit one
/// batch.
pub const MAX_BATCH_PAYLOAD: usize = 64 * 1024;

/// Message retention: SQS deletes messages older than four days (§4.3 —
/// the paper's garbage-collection story leans on this).
pub const RETENTION: SimDuration = SimDuration::from_days(4);

/// Default visibility timeout (the 2009 service default of 30 seconds).
pub const DEFAULT_VISIBILITY_TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// How many storage servers a queue's messages spread over; receives
/// sample a subset, which is why one call can miss messages.
pub const QUEUE_SERVERS: usize = 8;

/// Outcome of one entry of a batch call, in submission order: `Ok` is
/// the entry's payload (the message id for sends, `()` for deletes),
/// `Err` the per-entry failure — other entries of the same batch are
/// unaffected, exactly like the real API's `Successful`/`Failed` lists.
pub type BatchEntryOutcome<T> = std::result::Result<T, SqsError>;

/// A message handed back by `ReceiveMessage`.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ReceivedMessage {
    /// Stable message identifier (same across re-deliveries).
    pub message_id: String,
    /// Receipt handle for this delivery; required by `DeleteMessage`.
    pub receipt_handle: String,
    /// Message body: shared with the queue's stored copy (and with every
    /// other delivery of the message), not copied out of it.
    pub body: Arc<str>,
}

/// A message as the queue holds it. Its id is not kept: it is
/// [`message_id`] of `seq`, rendered when a send or a receive hands it out.
#[derive(Clone, Debug)]
struct StoredMessage {
    seq: u64,
    body: Arc<str>,
    sent_at: SimInstant,
    /// Hidden until this instant (visibility timeout after a delivery).
    visible_at: SimInstant,
    /// Which storage server holds the message.
    server: usize,
    /// Delivery count; embedded in receipt handles.
    deliveries: u64,
}

#[derive(Debug)]
struct Queue {
    name: String,
    messages: BTreeMap<u64, StoredMessage>,
    /// How many of `messages` each storage server holds — what a scan
    /// of that server examines. Kept by [`Queue::insert`],
    /// [`Queue::remove`] and retention expiry.
    per_server: [u64; QUEUE_SERVERS],
    visibility_timeout: SimDuration,
}

impl Queue {
    fn insert(&mut self, message: StoredMessage) {
        self.per_server[message.server] += 1;
        self.messages.insert(message.seq, message);
    }

    fn remove(&mut self, seq: u64) -> Option<StoredMessage> {
        let message = self.messages.remove(&seq)?;
        self.per_server[message.server] -= 1;
        Some(message)
    }

    /// The busiest of the servers `sampled` accepts: servers scan their
    /// own messages in parallel, so it gates a response that polls them.
    fn scan_share(&self, sampled: impl Fn(usize) -> bool) -> u64 {
        let polled = (0..QUEUE_SERVERS).filter(|server| sampled(*server));
        polled
            .map(|server| self.per_server[server])
            .max()
            .unwrap_or(0)
    }
}

struct Inner {
    /// Queues keyed by URL, each behind its own lock so operations on
    /// different queues run concurrently.
    queues: RwLock<BTreeMap<String, Arc<Mutex<Queue>>>>,
    /// Global send sequence; atomic so sends on different queues never
    /// serialise on it.
    next_seq: AtomicU64,
}

/// The simulated Simple Queueing Service.
///
/// Semantics reproduced from the 2009 service, as described in §2.3 of
/// the paper:
///
/// * 8 KB Unicode message bodies;
/// * `ReceiveMessage` **samples a subset of servers** and returns at most
///   10 of the visible messages it finds there — callers must repeat
///   the call until they have everything;
/// * a delivered message is hidden for the **visibility timeout**; if the
///   consumer does not delete it in time it becomes visible again (so
///   exactly one client processes a message at a time, but a message may
///   be processed more than once);
/// * messages older than **four days** evaporate (enforced on sends and
///   receives alike, so a write-only queue's storage gauge still drains);
/// * best-effort FIFO ordering, no more.
///
/// # Examples
///
/// ```
/// use sim_sqs::Sqs;
/// use simworld::SimWorld;
///
/// let world = SimWorld::counting();
/// let sqs = Sqs::new(&world);
/// let url = sqs.create_queue("wal-client-1");
/// sqs.send_message(&url, "begin txn 7")?;
/// let got = sqs.receive_message(&url, 10)?;
/// if let Some(msg) = got.first() {
///     sqs.delete_message(&url, &msg.receipt_handle)?;
/// }
/// # Ok::<(), sim_sqs::SqsError>(())
/// ```
#[derive(Clone)]
pub struct Sqs {
    world: SimWorld,
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Sqs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let queues = self.inner.queues.read();
        f.debug_struct("Sqs")
            .field("queues", &queues.len())
            .finish_non_exhaustive()
    }
}

impl Sqs {
    /// Connects a new simulated SQS endpoint to `world`.
    pub fn new(world: &SimWorld) -> Sqs {
        Sqs {
            world: world.clone(),
            inner: Arc::new(Inner {
                queues: RwLock::new(BTreeMap::new()),
                next_seq: AtomicU64::new(0),
            }),
        }
    }

    /// Creates a queue (idempotent) and returns its URL.
    pub fn create_queue(&self, name: impl Into<String>) -> String {
        let name = name.into();
        let url = format!("https://sqs.sim/{name}");
        let mut queues = self.inner.queues.write();
        self.world
            .record_op(Op::SqsCreateQueue, name.len() as u64, url.len() as u64);
        queues.entry(url.clone()).or_insert_with(|| {
            Arc::new(Mutex::new(Queue {
                name,
                messages: BTreeMap::new(),
                per_server: [0; QUEUE_SERVERS],
                visibility_timeout: DEFAULT_VISIBILITY_TIMEOUT,
            }))
        });
        url
    }

    /// Changes a queue's visibility timeout.
    ///
    /// # Errors
    ///
    /// [`SqsError::QueueDoesNotExist`].
    pub fn set_visibility_timeout(&self, url: &str, timeout: SimDuration) -> Result<()> {
        let queue = self.queue(url)?;
        queue.lock().visibility_timeout = timeout;
        Ok(())
    }

    /// Enqueues a message; returns its message id. Retention is enforced
    /// here too, so even a write-only queue sheds expired messages (and
    /// their stored bytes). Validation happens before any state — RNG,
    /// sequence counter, ledger — is touched, so a failed send leaves
    /// the simulation exactly as it found it.
    ///
    /// # Errors
    ///
    /// [`SqsError::MessageTooLong`] past 8 KB;
    /// [`SqsError::QueueDoesNotExist`].
    pub fn send_message(&self, url: &str, body: impl Into<String>) -> Result<String> {
        let body = body.into();
        if body.len() > MAX_MESSAGE_SIZE {
            return Err(SqsError::MessageTooLong {
                size: body.len(),
                limit: MAX_MESSAGE_SIZE,
            });
        }
        let queue = self.queue(url)?;
        let size = body.len() as u64;
        let (seq, _) = self.enqueue(&queue, 1, [Arc::from(body)]);
        // Keyed by queue: pipelined sends to one queue complete in
        // issue order, so a WAL's BEGIN..COMMIT sequence stays ordered
        // however many sends are in flight.
        self.world.charge(Charge {
            order_key: Some(fnv1a_64(url)),
            stored_delta: size as i64,
            ..Charge::point(Op::SqsSendMessage, size, 0)
        });
        Ok(message_id(seq))
    }

    /// The storage half of both sends, for the `count` (at most
    /// [`MAX_BATCH_ENTRIES`]) messages `bodies` yields: one server draw
    /// per message, one contiguous reservation of sequence numbers
    /// (`fetch_add(count)` hands out `base+1 ..= base+count`), then — the
    /// queue lock taken once — retention expiry and the inserts. Returns
    /// the first message's sequence number (the rest follow it) and the
    /// busiest storage server's share of the new messages.
    fn enqueue(
        &self,
        queue: &Mutex<Queue>,
        count: usize,
        bodies: impl IntoIterator<Item = Arc<str>>,
    ) -> (u64, u64) {
        let mut servers = [0usize; MAX_BATCH_ENTRIES];
        let servers = &mut servers[..count];
        for server in servers.iter_mut() {
            *server = self.world.rand_below(QUEUE_SERVERS as u64) as usize;
        }
        let base = self
            .inner
            .next_seq
            .fetch_add(count as u64, Ordering::Relaxed);
        let now = self.world.now();
        let mut per_server = [0u64; QUEUE_SERVERS];
        let mut queue = queue.lock();
        self.expire_old_messages(&mut queue, now);
        for ((seq, body), &server) in (base + 1..).zip(bodies).zip(&*servers) {
            per_server[server] += 1;
            queue.insert(StoredMessage {
                seq,
                body,
                sent_at: now,
                visible_at: now,
                server,
                deliveries: 0,
            });
        }
        (base + 1, per_server.iter().copied().max().unwrap_or(0))
    }

    /// Enqueues up to [`MAX_BATCH_ENTRIES`] messages in **one billable
    /// request** (`SendMessageBatch`): the queue lock is taken once,
    /// sequence numbers are allocated in one batched reservation, and
    /// the latency model charges one round trip plus the busiest storage
    /// server's share of the per-entry marginal cost — the batching win
    /// the paper's round-trip argument turns on.
    ///
    /// Entries fail *individually* (`Err` in the returned vector, which
    /// is index-aligned with `bodies`): an oversized body poisons
    /// neither its batch-mates nor the simulation — failed entries burn
    /// no sequence numbers and no RNG draws, so a run with rejected
    /// entries stays bit-identical to one that never submitted them.
    ///
    /// # Errors
    ///
    /// Batch-level failures mutate nothing: [`SqsError::EmptyBatch`],
    /// [`SqsError::TooManyBatchEntries`] past [`MAX_BATCH_ENTRIES`],
    /// [`SqsError::BatchPayloadTooLarge`] past [`MAX_BATCH_PAYLOAD`]
    /// summed bytes, [`SqsError::QueueDoesNotExist`].
    pub fn send_message_batch(
        &self,
        url: &str,
        bodies: &[String],
    ) -> Result<Vec<BatchEntryOutcome<String>>> {
        if bodies.is_empty() {
            return Err(SqsError::EmptyBatch);
        }
        if bodies.len() > MAX_BATCH_ENTRIES {
            return Err(SqsError::TooManyBatchEntries {
                submitted: bodies.len(),
            });
        }
        let total: usize = bodies.iter().map(String::len).sum();
        if total > MAX_BATCH_PAYLOAD {
            return Err(SqsError::BatchPayloadTooLarge {
                size: total,
                limit: MAX_BATCH_PAYLOAD,
            });
        }
        let queue = self.queue(url)?;

        // Per-entry validation first: only the accepted entries draw
        // RNG (server placement) and consume sequence numbers.
        let fits = |body: &&String| body.len() <= MAX_MESSAGE_SIZE;
        let accepted = bodies.iter().filter(fits);
        let entries = accepted.clone().count();
        let bytes_in: u64 = accepted.clone().map(|b| b.len() as u64).sum();
        let placed = accepted.map(|body| Arc::from(body.as_str()));
        let (mut seq, gating) = self.enqueue(&queue, entries, placed);
        let out: Vec<BatchEntryOutcome<String>> = bodies
            .iter()
            .map(|body| {
                if !fits(&body) {
                    return Err(SqsError::MessageTooLong {
                        size: body.len(),
                        limit: MAX_MESSAGE_SIZE,
                    });
                }
                let id = message_id(seq);
                seq += 1;
                Ok(id)
            })
            .collect();
        // Storage servers append their entries in parallel; the busiest
        // one gates the response (the receive-path rule, applied to the
        // write path). Queue-keyed like the point send: a pipelined
        // client's batches to one queue complete in issue order.
        self.world.charge(Charge {
            cost: Cost::Batch {
                entries: entries as u64,
                gating,
            },
            order_key: Some(fnv1a_64(url)),
            stored_delta: bytes_in as i64,
            ..Charge::point(Op::SqsSendMessageBatch, bytes_in, 0)
        });
        Ok(out)
    }

    /// Receives up to `max` visible messages from a sampled subset of the
    /// queue's servers. Returned messages become invisible for the
    /// queue's visibility timeout.
    ///
    /// An empty result does **not** mean the queue is empty — repeat the
    /// call (the commit daemon of the paper's Architecture 3 does exactly
    /// that).
    ///
    /// # Errors
    ///
    /// [`SqsError::ReceiveCountOutOfRange`] outside `1..=10` (the real
    /// API's `ReadCountOutOfRange`); [`SqsError::QueueDoesNotExist`].
    pub fn receive_message(&self, url: &str, max: usize) -> Result<Vec<ReceivedMessage>> {
        if max == 0 || max > MAX_RECEIVE_BATCH {
            return Err(SqsError::ReceiveCountOutOfRange { requested: max });
        }
        let queue = self.queue(url)?;
        // Sample a subset of servers: each server is polled with p = 1/2,
        // with at least one server always polled.
        let sample_mask = {
            let mut mask = [false; QUEUE_SERVERS];
            for m in mask.iter_mut() {
                *m = self.world.rand_below(2) == 1;
            }
            if mask.iter().all(|m| !m) {
                mask[self.world.rand_below(QUEUE_SERVERS as u64) as usize] = true;
            }
            mask
        };
        let now = self.world.now();
        let mut queue = queue.lock();
        self.expire_old_messages(&mut queue, now);
        let timeout = queue.visibility_timeout;
        // Each sampled server scans its own messages (in parallel with
        // the others); the busiest sampled server gates the response.
        let scan_share = queue.scan_share(|server| sample_mask[server]);
        let Queue { name, messages, .. } = &mut *queue;
        // Best-effort FIFO within the sample: the map is in sequence
        // order, and the walk ends at the last message served.
        let visible = messages
            .values_mut()
            .filter(|m| sample_mask[m.server] && m.visible_at <= now);
        let mut out = Vec::with_capacity(max);
        let mut bytes_out = 0u64;
        for msg in visible.take(max) {
            msg.deliveries += 1;
            msg.visible_at = now + timeout;
            bytes_out += msg.body.len() as u64;
            out.push(ReceivedMessage {
                message_id: message_id(msg.seq),
                receipt_handle: receipt_handle(name, msg.seq, msg.deliveries),
                body: Arc::clone(&msg.body),
            });
        }
        drop(queue);
        self.world.charge(Charge {
            cost: Cost::Scan { rows: scan_share },
            ..Charge::point(Op::SqsReceiveMessage, 0, bytes_out)
        });
        Ok(out)
    }

    /// Deletes a message by receipt handle. Deleting an already-deleted
    /// message succeeds, so replays are harmless.
    ///
    /// # Errors
    ///
    /// [`SqsError::InvalidReceiptHandle`] for malformed handles;
    /// [`SqsError::QueueDoesNotExist`].
    pub fn delete_message(&self, url: &str, receipt_handle: &str) -> Result<()> {
        let seq = parse_receipt_seq(receipt_handle)?;
        let queue = self.queue(url)?;
        let bytes_in = receipt_handle.len() as u64;
        let removed = queue.lock().remove(seq);
        self.world.charge(Charge {
            stored_delta: -(removed.map_or(0, |msg| msg.body.len()) as i64),
            ..Charge::point(Op::SqsDeleteMessage, bytes_in, 0)
        });
        Ok(())
    }

    /// Deletes up to [`MAX_BATCH_ENTRIES`] messages by receipt handle in
    /// **one billable request** (`DeleteMessageBatch`), taking the queue
    /// lock once. Entries fail individually (malformed handles); valid
    /// handles succeed even when the message is already gone, so replays
    /// are as harmless as for [`Sqs::delete_message`]. The returned
    /// vector is index-aligned with `receipt_handles`.
    ///
    /// # Errors
    ///
    /// Batch-level failures mutate nothing: [`SqsError::EmptyBatch`],
    /// [`SqsError::TooManyBatchEntries`], [`SqsError::QueueDoesNotExist`].
    pub fn delete_message_batch(
        &self,
        url: &str,
        receipt_handles: &[String],
    ) -> Result<Vec<BatchEntryOutcome<()>>> {
        if receipt_handles.is_empty() {
            return Err(SqsError::EmptyBatch);
        }
        if receipt_handles.len() > MAX_BATCH_ENTRIES {
            return Err(SqsError::TooManyBatchEntries {
                submitted: receipt_handles.len(),
            });
        }
        let queue = self.queue(url)?;
        let bytes_in: u64 = receipt_handles.iter().map(|h| h.len() as u64).sum();
        let mut freed = 0u64;
        let mut per_server = [0u64; QUEUE_SERVERS];
        let mut entries = 0u64;
        let mut queue = queue.lock();
        let out: Vec<BatchEntryOutcome<()>> = receipt_handles
            .iter()
            .map(|handle| {
                let seq = parse_receipt_seq(handle)?;
                entries += 1;
                if let Some(msg) = queue.remove(seq) {
                    freed += msg.body.len() as u64;
                    per_server[msg.server] += 1;
                }
                Ok(())
            })
            .collect();
        drop(queue);
        // Servers drop their entries in parallel; the busiest gates.
        self.world.charge(Charge {
            cost: Cost::Batch {
                entries,
                gating: per_server.iter().copied().max().unwrap_or(0),
            },
            stored_delta: -(freed as i64),
            ..Charge::point(Op::SqsDeleteMessageBatch, bytes_in, 0)
        });
        Ok(out)
    }

    /// `GetQueueAttributes: ApproximateNumberOfMessages`. The count is an
    /// approximation (it reflects a server sample), exactly as the paper
    /// notes in §2.3.
    ///
    /// # Errors
    ///
    /// [`SqsError::QueueDoesNotExist`].
    pub fn approximate_number_of_messages(&self, url: &str) -> Result<usize> {
        let queue = self.queue(url)?;
        // Sample half of the servers and extrapolate.
        let mut sampled = [false; QUEUE_SERVERS];
        for s in sampled.iter_mut() {
            *s = self.world.rand_below(2) == 1;
        }
        let polled = sampled.iter().filter(|s| **s).count();
        let now = self.world.now();
        let mut queue = queue.lock();
        self.expire_old_messages(&mut queue, now);
        let scan_share = queue.scan_share(|server| sampled[server]);
        let on_sample: u64 = (0..QUEUE_SERVERS)
            .filter(|server| sampled[*server])
            .map(|server| queue.per_server[server])
            .sum();
        drop(queue);
        self.world.charge(Charge {
            cost: Cost::Scan { rows: scan_share },
            ..Charge::point(Op::SqsGetQueueAttributes, 0, 16)
        });
        if polled == 0 {
            return Ok(0);
        }
        Ok(on_sample as usize * QUEUE_SERVERS / polled)
    }

    // --- authoritative (non-billed) views for invariant checks ---

    /// Exact live message count, ignoring sampling and without billing.
    /// For tests and property validators only.
    pub fn exact_message_count(&self, url: &str) -> usize {
        self.peek(url, |queue| queue.messages.len()).unwrap_or(0)
    }

    /// All live message bodies, unbilled and ignoring visibility. For
    /// tests and property validators only.
    pub fn peek_all(&self, url: &str) -> Vec<String> {
        let bodies = |queue: &Queue| {
            queue
                .messages
                .values()
                .map(|m| m.body.to_string())
                .collect()
        };
        self.peek(url, bodies).unwrap_or_default()
    }

    /// `f` over `url`'s queue as of now (retention applied), unbilled.
    fn peek<R>(&self, url: &str, f: impl FnOnce(&Queue) -> R) -> Option<R> {
        let now = self.world.now();
        let queue = self.queue(url).ok()?;
        let mut queue = queue.lock();
        self.expire_old_messages(&mut queue, now);
        Some(f(&queue))
    }

    /// Drops messages past the retention window and takes their bytes
    /// off the stored-bytes gauge — the one gauge change that is not
    /// part of a request's charge: retention is the provider's doing,
    /// merely noticed on the next call that looks at the queue.
    ///
    /// O(1) in the common case: messages arrive in sequence order and the
    /// clock is monotone, so the lowest-seq message is the oldest — if it
    /// is still inside the retention window, nothing needs reaping.
    /// (Concurrent sends can invert `sent_at` across adjacent sequence
    /// numbers by the width of their interleaving; such a message is
    /// reaped one early-out later, which the four-day window renders
    /// unobservable.) This keeps expiry-on-send from turning every send
    /// into a full queue scan.
    fn expire_old_messages(&self, queue: &mut Queue, now: SimInstant) {
        match queue.messages.values().next() {
            Some(oldest) if now.saturating_since(oldest.sent_at) > RETENTION => {}
            _ => return,
        }
        let mut freed = 0i64;
        let Queue {
            messages,
            per_server,
            ..
        } = queue;
        messages.retain(|_, m| {
            let keep = now.saturating_since(m.sent_at) <= RETENTION;
            if !keep {
                freed += m.body.len() as i64;
                per_server[m.server] -= 1;
            }
            keep
        });
        self.world.adjust_stored(Service::Sqs, -freed);
    }

    /// Looks a queue up, cloning its handle out so the queue-map lock is
    /// held only for the lookup.
    fn queue(&self, url: &str) -> Result<Arc<Mutex<Queue>>> {
        self.inner
            .queues
            .read()
            .get(url)
            .cloned()
            .ok_or_else(|| SqsError::QueueDoesNotExist {
                url: url.to_string(),
            })
    }
}

/// Appends `n` in decimal.
fn push_decimal(out: &mut String, n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = n;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Decimal digits of `n`.
fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// The message id of sequence number `seq`: `msg-` and the number as 16
/// lower-case hex digits.
fn message_id(seq: u64) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut id = String::with_capacity(20);
    id.push_str("msg-");
    id.extend(
        (0..16)
            .rev()
            .map(|i| char::from(HEX[(seq >> (4 * i)) as usize & 15])),
    );
    id
}

/// The receipt handle of delivery number `deliveries` of message `seq`
/// from queue `name`: `rh/{name}/{seq}/{deliveries}`.
fn receipt_handle(name: &str, seq: u64, deliveries: u64) -> String {
    let len = "rh/".len() + name.len() + 1 + decimal_len(seq) + 1 + decimal_len(deliveries);
    let mut handle = String::with_capacity(len);
    handle.push_str("rh/");
    handle.push_str(name);
    handle.push('/');
    push_decimal(&mut handle, seq);
    handle.push('/');
    push_decimal(&mut handle, deliveries);
    handle
}

/// Parses the sequence number out of a `rh/{name}/{seq}/{deliveries}`
/// receipt handle. Parsed from the *ends* — prefix first, then the two
/// trailing numeric fields — so queue names containing `/` produce
/// handles that still round-trip.
fn parse_receipt_seq(handle: &str) -> Result<u64> {
    let invalid = || SqsError::InvalidReceiptHandle {
        handle: handle.to_string(),
    };
    let rest = handle.strip_prefix("rh/").ok_or_else(invalid)?;
    let (rest, deliveries) = rest.rsplit_once('/').ok_or_else(invalid)?;
    let (name, seq) = rest.rsplit_once('/').ok_or_else(invalid)?;
    if name.is_empty() || deliveries.parse::<u64>().is_err() {
        return Err(invalid());
    }
    seq.parse::<u64>().map_err(|_| invalid())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receipt_seq_parses_from_the_ends() {
        assert_eq!(parse_receipt_seq("rh/q/17/2"), Ok(17));
        // Queue names may contain slashes; the numeric fields still
        // parse because they anchor at the end.
        assert_eq!(parse_receipt_seq("rh/team/alpha/wal/17/2"), Ok(17));
        assert_eq!(parse_receipt_seq("rh/a/b/c/d/123/1"), Ok(123));
        assert!(parse_receipt_seq("garbage").is_err());
        assert!(parse_receipt_seq("rh/q/notanumber/1").is_err());
        assert!(parse_receipt_seq("rh/q/1/notanumber").is_err());
        assert!(parse_receipt_seq("rh//1/1").is_err());
        assert!(parse_receipt_seq("rh/1/2").is_err());
    }

    #[test]
    fn ids_and_handles_render_as_their_format_strings_did() {
        for seq in [0, 1, 1 << 32, u64::MAX] {
            assert_eq!(message_id(seq), format!("msg-{seq:016x}"));
            for deliveries in [0, 1, 99] {
                for name in ["q", "team/alpha/wal", "wal-client-1"] {
                    let handle = receipt_handle(name, seq, deliveries);
                    assert_eq!(handle, format!("rh/{name}/{seq}/{deliveries}"));
                    assert_eq!(handle.len(), handle.capacity(), "{handle}");
                    assert_eq!(parse_receipt_seq(&handle), Ok(seq));
                }
            }
        }
    }

    #[test]
    fn deliveries_share_the_sent_body() {
        let world = SimWorld::counting();
        let sqs = Sqs::new(&world);
        let url = sqs.create_queue("shared/bodies");
        let id = sqs.send_message(&url, "payload").unwrap();
        // A receive samples servers: repeat until it finds the message.
        let receive = || loop {
            if let Some(msg) = sqs.receive_message(&url, 1).unwrap().pop() {
                break msg;
            }
        };
        let first = receive();
        world.advance(DEFAULT_VISIBILITY_TIMEOUT);
        let second = receive();
        assert_eq!((&*first.body, &first.message_id), ("payload", &id));
        assert_eq!(second.message_id, id);
        assert!(Arc::ptr_eq(&first.body, &second.body));
        assert_ne!(first.receipt_handle, second.receipt_handle);
    }

    #[test]
    fn per_server_counts_follow_every_way_a_message_comes_and_goes() {
        let world = SimWorld::counting();
        let sqs = Sqs::new(&world);
        let url = sqs.create_queue("q");
        let recounted = |what: &str| {
            let queue = sqs.queue(&url).unwrap();
            let queue = queue.lock();
            let mut recount = [0u64; QUEUE_SERVERS];
            for m in queue.messages.values() {
                recount[m.server] += 1;
            }
            assert_eq!(queue.per_server, recount, "{what}");
            recount.iter().sum::<u64>()
        };
        for i in 0..30 {
            sqs.send_message(&url, format!("m{i}")).unwrap();
        }
        let bodies: Vec<String> = (0..10).map(|i| format!("b{i}")).collect();
        sqs.send_message_batch(&url, &bodies).unwrap();
        assert_eq!(recounted("after sends"), 40);

        let mut handles = Vec::new();
        while handles.len() < 8 {
            let got = sqs.receive_message(&url, 3).unwrap();
            handles.extend(got.into_iter().map(|m| m.receipt_handle));
        }
        sqs.delete_message(&url, &handles[0]).unwrap();
        sqs.delete_message(&url, &handles[0]).unwrap(); // already gone
        sqs.delete_message_batch(&url, &handles[1..]).unwrap();
        assert_eq!(recounted("after deletes"), 40 - handles.len() as u64);

        world.advance(RETENTION + SimDuration::from_secs(1));
        assert_eq!(sqs.exact_message_count(&url), 0);
        assert_eq!(recounted("after retention"), 0);
    }
}
