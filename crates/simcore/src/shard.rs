//! Deterministic epoch execution with conservative lookahead.
//!
//! A *shard* is an independent simulation world (in the cluster layer:
//! one host).  Shards only interact through messages carried by a
//! modelled network, and the minimum modelled network latency gives a
//! conservative lookahead window: any message sent during epoch `e`
//! cannot affect another shard before epoch `e + 1`.  The executor
//! therefore advances all shards one *epoch* at a time, stepping them
//! one after another in index order, and at the epoch barrier the
//! messages produced are delivered in `(src, seq)` order.  Parallelism
//! lives one level up: the bench runner runs whole cluster units on its
//! worker pool.
//!
//! The pieces:
//!
//! * [`Outbox`] — per-shard message staging; assigns the per-source
//!   `seq` numbers that make the delivery order total.
//! * [`run_epoch`] — steps every live shard once and returns the
//!   epoch's messages in `(src, seq)` order.
//! * [`route`] — splits an epoch's messages into next-epoch inboxes
//!   (plus the controller's share), preserving that order.

/// Destination id addressing the (sequential) controller rather than a
/// shard.
pub const CONTROLLER: u32 = u32::MAX;

/// A message in flight: sent by shard `src` as its `seq`-th message of
/// the current epoch, addressed to `dst` (a shard index or
/// [`CONTROLLER`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope<M> {
    pub src: u32,
    pub seq: u32,
    pub dst: u32,
    pub msg: M,
}

/// Per-shard staging area for one epoch's outgoing messages.  `seq` is
/// assigned in send order, so concatenating per-shard outboxes in shard
/// order yields the canonical `(src, seq)` total order.
pub struct Outbox<M> {
    src: u32,
    msgs: Vec<Envelope<M>>,
}

impl<M> Outbox<M> {
    fn new(src: u32) -> Self {
        Outbox { src, msgs: Vec::new() }
    }

    /// Stages a message for delivery at the next epoch barrier.
    pub fn send(&mut self, dst: u32, msg: M) {
        let seq = self.msgs.len() as u32;
        self.msgs.push(Envelope { src: self.src, seq, dst, msg });
    }

    /// Number of messages staged so far this epoch.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// True when nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

/// Steps every live shard once, in index order, and returns the
/// epoch's messages in `(src, seq)` order.
///
/// * `shards[i] == None` marks a failed/absent shard: it is skipped and
///   its inbound messages are dropped (the modelled network loses
///   traffic addressed to a dead host).
/// * `inboxes` is consumed; missing tail entries are treated as empty.
///
/// The step function receives `(shard_index, shard, inbox, outbox)`.
pub fn run_epoch<S, M, F>(
    shards: &mut [Option<S>],
    inboxes: Vec<Vec<M>>,
    step: &mut F,
) -> Vec<Envelope<M>>
where
    F: FnMut(u32, &mut S, Vec<M>, &mut Outbox<M>),
{
    let mut merged = Vec::new();
    let inboxes = inboxes.into_iter().chain(std::iter::repeat_with(Vec::new));
    for (idx, (slot, inbox)) in shards.iter_mut().zip(inboxes).enumerate() {
        if let Some(shard) = slot {
            let src = idx as u32;
            let mut out = Outbox::new(src);
            step(src, shard, inbox, &mut out);
            merged.append(&mut out.msgs);
        }
    }
    merged
}

/// Splits an epoch's merged messages into per-shard inboxes for the
/// next epoch, returning controller-addressed envelopes separately.
/// Both outputs preserve the `(src, seq)` order.  Messages addressed
/// out of range are dropped (dead-letter, like a dead host's inbox).
pub fn route<M>(envelopes: Vec<Envelope<M>>, n_shards: usize) -> (Vec<Vec<M>>, Vec<Envelope<M>>) {
    let mut inboxes: Vec<Vec<M>> = Vec::new();
    inboxes.resize_with(n_shards, Vec::new);
    let mut ctrl = Vec::new();
    for env in envelopes {
        if env.dst == CONTROLLER {
            ctrl.push(env);
        } else if (env.dst as usize) < n_shards {
            inboxes[env.dst as usize].push(env.msg);
        }
    }
    (inboxes, ctrl)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy shard: accumulates received values, forwards its running sum
    /// to the next shard and reports to the controller.
    struct Acc {
        sum: u64,
    }

    fn step_fn(n: usize) -> impl FnMut(u32, &mut Acc, Vec<u64>, &mut Outbox<u64>) {
        move |idx, acc, inbox, out| {
            for v in inbox {
                acc.sum += v;
            }
            acc.sum += u64::from(idx) + 1;
            out.send((idx as usize + 1) as u32 % n as u32, acc.sum);
            out.send(CONTROLLER, acc.sum * 2);
        }
    }

    fn run(n: usize, epochs: usize) -> Vec<(u32, u32, u32, u64)> {
        let mut shards: Vec<Option<Acc>> = (0..n).map(|_| Some(Acc { sum: 0 })).collect();
        let mut inboxes: Vec<Vec<u64>> = Vec::new();
        let mut log = Vec::new();
        let mut step = step_fn(n);
        for _ in 0..epochs {
            let msgs = run_epoch(&mut shards, inboxes, &mut step);
            for e in &msgs {
                log.push((e.src, e.seq, e.dst, e.msg));
            }
            let (next, _ctrl) = route(msgs, n);
            inboxes = next;
        }
        log
    }

    #[test]
    fn messages_are_src_seq_ordered() {
        let log = run(7, 3);
        let mut per_epoch = log.chunks(14);
        assert!(per_epoch.all(|c| c.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1))));
    }

    #[test]
    fn dead_shards_are_skipped_and_drop_mail() {
        let mut shards: Vec<Option<Acc>> =
            (0..4).map(|i| (i != 2).then(|| Acc { sum: 0 })).collect();
        let mut steps = 0;
        let mut inner = step_fn(4);
        let mut step = |idx, acc: &mut Acc, inbox, out: &mut Outbox<u64>| {
            steps += 1;
            inner(idx, acc, inbox, out);
        };
        let msgs = run_epoch(&mut shards, Vec::new(), &mut step);
        // Shard 2 produced nothing.
        assert!(msgs.iter().all(|e| e.src != 2));
        let (inboxes, ctrl) = route(msgs, 4);
        // Mail addressed to the dead shard is still routed into its
        // inbox slot; the next run_epoch drops it with the shard.
        assert_eq!(ctrl.len(), 3);
        let second = run_epoch(&mut shards, inboxes, &mut step);
        assert!(second.iter().all(|e| e.src != 2));
        assert_eq!(steps, 6);
    }

    #[test]
    fn controller_messages_split_out_in_order() {
        let log = run(5, 1);
        let ctrl: Vec<_> = log.iter().filter(|r| r.2 == CONTROLLER).collect();
        assert_eq!(ctrl.len(), 5);
        assert!(ctrl.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
