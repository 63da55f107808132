//! The xenstored daemon façade: connections, protocol costs, dispatch.
//!
//! Every request pays the paper's protocol tax (§4.2): "each operation
//! requires sending a message and receiving an acknowledgment, each
//! triggering a software interrupt: a single read or write thus triggers
//! at least two, and most often four, software interrupts and multiple
//! domain changes". On top of that we charge store-side processing,
//! payload marshalling, a poll cost per open connection, watch checking
//! per mutation, access-log lines, and rotation spikes.
//!
//! The optional *ambient interference* models the xenbus traffic of the
//! already-running guests (they keep their own connections busy), which
//! is what makes transaction commits increasingly likely to fail with
//! `EAGAIN` as density grows. Interference is applied as genuine writes
//! to the main store, so conflicts and retries are real, not sampled
//! outcomes.

use std::collections::BTreeSet;
use std::sync::Arc;

use simcore::{Category, CostModel, IdMap, Meter, SimRng};

use crate::log::{AccessLog, LogOutcome};
use crate::path::XsPath;
use crate::store::{Perms, Store, XsError};
use crate::sym::{XsKey, XsSym};
use crate::txn::{Txn, TxnId};
use crate::watch::{WatchEvent, WatchTable};

/// Finished transactions kept for reuse (overlay/log capacity).
const TXN_POOL_MAX: usize = 32;

/// A connection identifier (the domain id of the client).
pub type ConnId = u32;

/// Which xenstored implementation's cost profile to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Flavor {
    /// The OCaml daemon: the faster of the two (paper footnote 3).
    Oxenstored,
    /// The C daemon: noticeably higher per-op and transaction costs.
    Cxenstored,
}

impl Flavor {
    fn process_mult(self) -> f64 {
        match self {
            Flavor::Oxenstored => 1.0,
            Flavor::Cxenstored => 2.6,
        }
    }

    fn txn_mult(self) -> f64 {
        match self {
            Flavor::Oxenstored => 1.0,
            Flavor::Cxenstored => 2.0,
        }
    }
}

/// Aggregate daemon statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XsStats {
    /// Requests processed (transactional ops included).
    pub requests: u64,
    /// Transactions committed successfully.
    pub txn_commits: u64,
    /// Transactions failed with `EAGAIN`.
    pub txn_conflicts: u64,
    /// Watch events queued.
    pub watch_events: u64,
    /// Daemon crash/restart cycles survived (fault injection).
    pub restarts: u64,
}

/// The simulated xenstored daemon.
#[derive(Clone)]
pub struct Xenstored {
    store: Store,
    txns: IdMap<TxnId, Txn>,
    watches: WatchTable,
    conns: BTreeSet<ConnId>,
    log: AccessLog,
    flavor: Flavor,
    next_txn: u64,
    /// Probability that a touched node was dirtied by ambient guest
    /// xenbus traffic while a transaction was open.
    ambient_interference: f64,
    /// Fault injection: while set, interfering writers may also race the
    /// *creation* of touched nodes (not just rewrite existing ones), so
    /// transactions writing a fresh subtree can conflict too.
    storm: bool,
    rng: SimRng,
    stats: XsStats,
    /// Pre-interned `/vm`: with the store's `/local/domain`, the roots
    /// every domain/device path is composed from by symbol hops.
    vm_root: XsSym,
    /// Recycled transactions ([`Txn::reset`]) so steady-state
    /// `txn_start` allocates nothing.
    txn_pool: Vec<Txn>,
    /// Scratch for commit-fired symbols (watch dispatch).
    fired_scratch: Vec<XsSym>,
    /// Scratch for interference victim candidates.
    victim_scratch: Vec<XsSym>,
}

impl Xenstored {
    /// Creates a daemon with Dom0 connected.
    pub fn new(flavor: Flavor, seed: u64) -> Xenstored {
        let mut conns = BTreeSet::new();
        conns.insert(0);
        let store = Store::new();
        let vm_root = store.child_sym(XsSym::ROOT, "vm");
        Xenstored {
            store,
            txns: IdMap::default(),
            watches: WatchTable::new(),
            conns,
            log: AccessLog::default(),
            flavor,
            next_txn: 1,
            ambient_interference: 0.0,
            storm: false,
            rng: SimRng::new(seed),
            stats: XsStats::default(),
            vm_root,
            txn_pool: Vec::new(),
            fired_scratch: Vec::new(),
            victim_scratch: Vec::new(),
        }
    }

    /// Read-only access to the underlying store (assertions, tooling).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Freezes the store's shared tables before a fork point (see
    /// [`Store::freeze_shared`]).
    pub fn freeze_shared(&mut self) {
        self.store.freeze_shared();
    }

    /// Mutable store access for configuration (quotas) and tests.
    pub fn store_mut_for_tests(&mut self) -> &mut Store {
        &mut self.store
    }

    /// Daemon statistics.
    pub fn stats(&self) -> XsStats {
        self.stats
    }

    /// The store's arena/interner occupancy (see
    /// [`crate::store::StoreCensus`]) — the churn suite's per-world
    /// resource census.
    pub fn store_census(&self) -> crate::store::StoreCensus {
        self.store.census()
    }

    /// Number of registered watches.
    pub fn watch_count(&self) -> usize {
        self.watches.count()
    }

    /// Number of open connections.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// Enables/disables access logging (spike ablation).
    pub fn set_logging(&mut self, enabled: bool) {
        self.log.set_enabled(enabled);
    }

    /// Rotations performed so far (spike provenance check).
    pub fn log_rotations(&self) -> u64 {
        self.log.rotations()
    }

    /// Total access-log lines written so far.
    pub fn log_total_lines(&self) -> u64 {
        self.log.total_lines()
    }

    /// Sets the per-touched-node probability of ambient interference.
    /// The control plane raises this with guest density.
    pub fn set_ambient_interference(&mut self, p: f64) {
        self.ambient_interference = p.clamp(0.0, 1.0);
    }

    /// Current ambient-interference probability (saved/restored around
    /// injected transaction-conflict storms).
    pub fn ambient_interference(&self) -> f64 {
        self.ambient_interference
    }

    /// Toggles transaction-storm mode (fault injection): while set,
    /// interfering writers may also race node *creation*, so even
    /// transactions writing only fresh subtrees (domain registration)
    /// conflict. Always pair with a raised ambient-interference level
    /// and restore both afterwards.
    pub fn set_storm(&mut self, on: bool) {
        self.storm = on;
    }

    /// Pending (queued, undelivered) watch events for a connection.
    pub fn pending_events(&self, conn: ConnId) -> usize {
        self.watches.pending_count(conn)
    }

    /// `(conn, queued events)` for every connection with undelivered
    /// watch events, ascending — the world digest iterates this instead
    /// of guessing a connection-id range.
    pub fn pending_counts(&self) -> impl Iterator<Item = (ConnId, usize)> + '_ {
        self.watches.pending_counts()
    }

    /// Crashes the daemon and restarts it from its persisted state,
    /// replaying one record per live node (tdb / access-log replay).
    ///
    /// Connections, registered watches and queued events survive — this
    /// models oxenstored's live-update/restart path where clients keep
    /// their sockets — but every open transaction is aborted: its
    /// snapshot died with the old process, so the owner sees
    /// `ENOENT(txn)` on the next op and must restart the transaction.
    /// The replay cost scales with store size, which is what makes a
    /// crash at high guest density expensive (the log-rotation spike's
    /// evil twin).
    pub fn crash_and_restart(&mut self, cost: &CostModel, meter: &mut Meter) {
        for (_, txn) in self.txns.drain() {
            if self.txn_pool.len() < TXN_POOL_MAX {
                self.txn_pool.push(txn);
            }
        }
        meter.charge(
            Category::Xenstore,
            cost.xs_daemon_restart
                + cost.xs_restart_replay_per_node * self.store.node_count() as u64,
        );
        self.stats.restarts += 1;
    }

    /// Opens a connection for a domain.
    pub fn connect(&mut self, conn: ConnId) {
        self.conns.insert(conn);
    }

    /// Closes a connection, dropping its watches, events and open
    /// transactions.
    pub fn disconnect(&mut self, conn: ConnId) {
        self.conns.remove(&conn);
        self.watches.drop_conn(conn);
        self.txns.retain(|_, t| t.conn != conn);
    }

    // --- symbol composition (allocation-free path construction) ----------
    //
    // Callers compose request paths from cached roots by symbol hops
    // instead of `format!` → parse → intern per request. Composition
    // itself is free of protocol charges: it models the client knowing
    // its own paths, not a wire exchange.

    /// Interns a path, returning its symbol (composition entry point for
    /// paths that arrive as strings).
    pub fn sym(&self, path: &XsPath) -> XsSym {
        self.store.sym(path)
    }

    /// The child `<parent>/<name>` (interned by composition).
    pub fn child_sym(&self, parent: XsSym, name: &str) -> XsSym {
        self.store.child_sym(parent, name)
    }

    /// The child `<parent>/<n>` with a numeric component.
    pub fn child_u32_sym(&self, parent: XsSym, n: u32) -> XsSym {
        self.store.child_u32_sym(parent, n)
    }

    /// Materialises a symbol back into a path (refcount bump, no copy).
    pub fn path_of(&self, sym: XsSym) -> XsPath {
        self.store.path_of(sym)
    }

    /// The parent symbol; the root's parent is the root.
    pub fn parent_sym(&self, sym: XsSym) -> XsSym {
        self.store.parent_sym(sym)
    }

    /// The symbol's final path component parsed as `u32`, if numeric
    /// (the `xl` unique-name scan keys on this).
    pub fn sym_name_u32(&self, sym: XsSym) -> Option<u32> {
        self.store.sym_name_u32(sym)
    }

    /// `/local/domain` (pre-interned).
    pub fn local_domain_sym(&self) -> XsSym {
        self.store.local_domain()
    }

    /// `/local/domain/<domid>`.
    pub fn domain_dir_sym(&self, domid: u32) -> XsSym {
        self.store.child_u32_sym(self.store.local_domain(), domid)
    }

    /// `/vm/<domid>`.
    pub fn vm_dir_sym(&self, domid: u32) -> XsSym {
        self.store.child_u32_sym(self.vm_root, domid)
    }

    /// `/local/domain/<domid>/device/<kind>/<devid>` (frontend dir).
    pub fn frontend_dir_sym(&self, domid: u32, kind: &str, devid: u32) -> XsSym {
        let dev = self.store.child_sym(self.domain_dir_sym(domid), "device");
        let kind = self.store.child_sym(dev, kind);
        self.store.child_u32_sym(kind, devid)
    }

    /// `/local/domain/<backend>/backend/<kind>/<domid>/<devid>`.
    pub fn backend_dir_sym(&self, backend: u32, kind: &str, domid: u32, devid: u32) -> XsSym {
        let be = self.store.child_sym(self.domain_dir_sym(backend), "backend");
        let kind = self.store.child_sym(be, kind);
        let dom = self.store.child_u32_sym(kind, domid);
        self.store.child_u32_sym(dom, devid)
    }

    /// `/local/domain/<domid>/control/shutdown`.
    pub fn control_shutdown_sym(&self, domid: u32) -> XsSym {
        let control = self.store.child_sym(self.domain_dir_sym(domid), "control");
        self.store.child_sym(control, "shutdown")
    }

    /// Charges the fixed protocol cost of one request/ack exchange.
    fn charge_protocol(&mut self, cost: &CostModel, meter: &mut Meter, payload: usize) {
        self.stats.requests += 1;
        // Request + ack, each an interrupt plus two privilege crossings.
        let mut dt = cost.xs_soft_interrupt * 4 + cost.xs_domain_crossing * 4;
        dt += cost
            .xs_process_base
            .scale(self.flavor.process_mult());
        dt += cost.xs_payload_per_byte * payload as u64;
        dt += cost.xs_poll_per_conn * self.conns.len() as u64;
        match self.log.append() {
            LogOutcome::Disabled => {}
            LogOutcome::Line => dt += cost.xs_log_line,
            LogOutcome::LineAndRotation { files } => {
                dt += cost.xs_log_line + cost.xs_log_rotate_per_file * files as u64;
            }
        }
        meter.charge(Category::Xenstore, dt);
    }

    fn note_mutation(&mut self, cost: &CostModel, meter: &mut Meter, sym: XsSym) {
        let stats = self.watches.note_mutation_sym(&self.store, sym);
        self.stats.watch_events += stats.fired as u64;
        let dt = cost.xs_watch_check * stats.checked as u64
            + cost.xs_watch_fire * stats.fired as u64;
        meter.charge(Category::Xenstore, dt);
    }

    // --- direct (non-transactional) operations ---------------------------
    //
    // Each operation takes a path or an interned symbol (`impl XsKey`)
    // and charges the same either way. Lookups (`read`, `rm`,
    // `directory`, `unwatch`, `set_perms`) never intern a path; `write`
    // and `mkdir` intern it only once the store admits them (quota and
    // permission on the nearest existing node), `watch` always does.
    // Callers composing symbols are the allocation-free hot path.

    /// Reads a value as a shared payload — a refcount bump, not a copy.
    pub fn read(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        key: impl XsKey,
    ) -> Result<Arc<[u8]>, XsError> {
        self.charge_protocol(cost, meter, self.store.wire_len(key));
        let v = self.store.read_rc(conn, key)?;
        meter.charge(
            Category::Xenstore,
            cost.xs_payload_per_byte * v.len() as u64,
        );
        Ok(v)
    }

    /// Writes a value, firing watches.
    pub fn write(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        key: impl XsKey,
        value: &[u8],
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, self.store.wire_len(key) + value.len());
        let sym = self.store.admit(conn, key)?;
        self.store.write(conn, sym, value)?;
        self.note_mutation(cost, meter, sym);
        Ok(())
    }

    /// Creates a directory node, firing watches.
    pub fn mkdir(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        key: impl XsKey,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, self.store.wire_len(key));
        let sym = self.store.admit(conn, key)?;
        self.store.mkdir(conn, sym)?;
        self.note_mutation(cost, meter, sym);
        Ok(())
    }

    /// Removes a subtree, firing watches.
    pub fn rm(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        key: impl XsKey,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, self.store.wire_len(key));
        let sym = self.store.find(key).ok_or(XsError::NotFound)?;
        self.store.rm(conn, sym)?;
        self.note_mutation(cost, meter, sym);
        Ok(())
    }

    /// Lists children; cost grows with the directory size (one of the
    /// paper's linear terms: the unique-name check lists all domains).
    pub fn directory(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        key: impl XsKey,
    ) -> Result<Vec<String>, XsError> {
        self.charge_protocol(cost, meter, self.store.wire_len(key));
        let entries = self.store.directory(conn, key)?;
        meter.charge(
            Category::Xenstore,
            cost.xs_dir_per_entry * entries.len() as u64,
        );
        Ok(entries)
    }

    /// Allocation-free directory listing: appends each child's symbol to
    /// `out` (cleared first), in sorted name order, with the same
    /// charges as [`Xenstored::directory`].
    pub fn directory_syms(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        sym: XsSym,
        out: &mut Vec<XsSym>,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, self.store.wire_len(sym));
        out.clear();
        let n = self.store.for_each_child_sym(conn, sym, |child| out.push(child))?;
        self.store.sort_syms_by_name(out);
        meter.charge(Category::Xenstore, cost.xs_dir_per_entry * n as u64);
        Ok(())
    }

    // --- closed-form name scan ------------------------------------------

    /// Charges exactly what xl's unique-name scan — one `directory` of
    /// `/local/domain`, then one `read` of `<entry>/name` per entry
    /// whose name parses as `u32` — charges when no entry holds the
    /// candidate (the store tally's `may_hold_name` is false), without
    /// executing the requests. The store's [`crate::DomainTally`] holds
    /// every aggregate the charge needs, so this is O(1). Protocol costs are u64 nanosecond arithmetic, so
    /// `n * per_request` equals the sum of `n` requests bit for bit
    /// (`replay_scan_matches_real_scan` pins it). Daemon stats and the
    /// access log advance as if the requests ran, so later rotation
    /// spikes land on the same request. Returns the requests charged.
    pub fn replay_name_scan(&mut self, cost: &CostModel, meter: &mut Meter) -> u64 {
        let tally = self.store.domain_tally();
        let requests = 1 + tally.numeric;
        let payload = self.store.wire_len(self.store.local_domain()) as u64
            + tally.name_path_bytes
            + tally.name_value_bytes;
        let entries = tally.children;

        self.stats.requests += requests;
        let per_request = cost.xs_soft_interrupt * 4
            + cost.xs_domain_crossing * 4
            + cost.xs_process_base.scale(self.flavor.process_mult())
            + cost.xs_poll_per_conn * self.conns.len() as u64;
        let mut dt = per_request * requests;
        dt += cost.xs_payload_per_byte * payload;
        dt += cost.xs_dir_per_entry * entries;
        let (lines, rotations) = self.log.append_many(requests);
        dt += cost.xs_log_line * lines
            + (cost.xs_log_rotate_per_file * crate::log::NUM_LOG_FILES as u64) * rotations;
        meter.charge(Category::Xenstore, dt);
        requests
    }

    /// Changes permissions on a node.
    pub fn set_perms(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        key: impl XsKey,
        perms: Perms,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, self.store.wire_len(key));
        let Some(sym) = self.store.find(key) else {
            // `NotFound`, with the generation bump a failure makes.
            return self.store.set_perms(conn, key, perms);
        };
        self.store.set_perms(conn, sym, perms)?;
        self.note_mutation(cost, meter, sym);
        Ok(())
    }

    // --- watches ------------------------------------------------------------

    /// Registers a watch. Callers that register the same token often
    /// pass a shared `Arc<str>`, which is kept by refcount, not copied.
    pub fn watch(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        key: impl XsKey,
        token: impl Into<Arc<str>>,
    ) {
        let token = token.into();
        self.charge_protocol(cost, meter, self.store.wire_len(key) + token.len());
        let sym = self.store.sym(key);
        self.watches.register(&self.store, conn, sym, token);
        self.stats.watch_events += 1; // the initial synchronisation event
    }

    /// Unregisters a watch.
    ///
    /// Unwatching a `(path, token)` pair this connection never registered
    /// — or already unregistered, e.g. after a crash-recovery double
    /// teardown — is a clean `ENOENT`: the request is still charged (the
    /// daemon parsed it and searched the table) and the table is left
    /// untouched, exactly like real xenstored's `EINVAL`-free unwatch.
    pub fn unwatch(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        key: impl XsKey,
        token: &str,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, self.store.wire_len(key) + token.len());
        if self.watches.unregister(&self.store, conn, key, token) {
            Ok(())
        } else {
            Err(XsError::NotFound)
        }
    }

    /// Takes pending watch events for a connection, charging delivery.
    /// Allocates the returned `Vec`; hot paths use
    /// [`Xenstored::take_events_into`] or [`Xenstored::drain_events`].
    pub fn take_events(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
    ) -> Vec<WatchEvent> {
        let evs = self.watches.take_events(conn);
        meter.charge(Category::Xenstore, cost.xs_watch_fire * evs.len() as u64);
        evs
    }

    /// Moves pending watch events into the caller's scratch buffer
    /// (cleared first), charging delivery identically to
    /// [`Xenstored::take_events`]. Zero allocations in steady state.
    pub fn take_events_into(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        out: &mut Vec<WatchEvent>,
    ) {
        self.watches.take_events_into(conn, out);
        meter.charge(Category::Xenstore, cost.xs_watch_fire * out.len() as u64);
    }

    /// Discards pending watch events, charging delivery for each (the
    /// client still received them; it just does not act on them).
    pub fn drain_events(&mut self, cost: &CostModel, meter: &mut Meter, conn: ConnId) -> usize {
        let n = self.watches.drain_events(conn);
        meter.charge(Category::Xenstore, cost.xs_watch_fire * n as u64);
        n
    }

    // --- transactions ----------------------------------------------------------

    /// Starts a transaction; the snapshot cost grows with store size.
    pub fn txn_start(&mut self, cost: &CostModel, meter: &mut Meter, conn: ConnId) -> TxnId {
        self.charge_protocol(cost, meter, 0);
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        let txn = match self.txn_pool.pop() {
            Some(mut t) => {
                t.reset(id, conn, &self.store);
                t
            }
            None => Txn::start(id, conn, &self.store),
        };
        meter.charge(
            Category::Xenstore,
            cost.xs_txn_snapshot_per_node
                .scale(self.flavor.txn_mult())
                * txn.snapshot_nodes as u64,
        );
        self.txns.insert(id, txn);
        id
    }

    fn recycle_txn(&mut self, txn: Txn) {
        if self.txn_pool.len() < TXN_POOL_MAX {
            self.txn_pool.push(txn);
        }
    }

    /// Runs `f` with the transaction and an immutable view of the main
    /// store. The transaction is temporarily removed from the table so no
    /// aliasing is needed.
    fn with_txn<T>(
        &mut self,
        conn: ConnId,
        id: TxnId,
        f: impl FnOnce(&mut Txn, &Store) -> T,
    ) -> Result<T, XsError> {
        let mut txn = self.txns.remove(&id).ok_or(XsError::NoSuchTxn)?;
        if txn.conn != conn {
            self.txns.insert(id, txn);
            return Err(XsError::PermissionDenied);
        }
        let out = f(&mut txn, &self.store);
        self.txns.insert(id, txn);
        Ok(out)
    }

    /// Transactional read (shared payload, no copy).
    pub fn txn_read(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        id: TxnId,
        key: impl XsKey,
    ) -> Result<Arc<[u8]>, XsError> {
        self.charge_protocol(cost, meter, self.store.wire_len(key));
        self.with_txn(conn, id, |txn, main| txn.read(main, key))?
    }

    /// Transactional write.
    pub fn txn_write(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        id: TxnId,
        key: impl XsKey,
        value: &[u8],
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, self.store.wire_len(key) + value.len());
        self.with_txn(conn, id, |txn, main| txn.write(main, key, value))?
    }

    /// Transactional mkdir.
    pub fn txn_mkdir(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        id: TxnId,
        key: impl XsKey,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, self.store.wire_len(key));
        self.with_txn(conn, id, |txn, main| txn.mkdir(main, key))?
    }

    /// Transactional directory listing.
    pub fn txn_directory(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        id: TxnId,
        key: impl XsKey,
    ) -> Result<Vec<String>, XsError> {
        self.charge_protocol(cost, meter, self.store.wire_len(key));
        let entries = self.with_txn(conn, id, |txn, main| txn.directory(main, key))??;
        meter.charge(
            Category::Xenstore,
            cost.xs_dir_per_entry * entries.len() as u64,
        );
        Ok(entries)
    }

    /// Transactional remove.
    pub fn txn_rm(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        id: TxnId,
        key: impl XsKey,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, self.store.wire_len(key));
        self.with_txn(conn, id, |txn, main| txn.rm(main, key))?
    }

    /// Ends a transaction. With `commit = true` this validates and applies
    /// it; `Err(Again)` means the caller must retry from `txn_start`.
    pub fn txn_end(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        id: TxnId,
        commit: bool,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, 0);
        let mut txn = match self.txns.remove(&id) {
            Some(t) if t.conn == conn => t,
            Some(t) => {
                self.txns.insert(id, t);
                return Err(XsError::PermissionDenied);
            }
            None => return Err(XsError::NoSuchTxn),
        };
        if !commit {
            self.recycle_txn(txn);
            return Ok(());
        }
        // Ambient interference: guests' own xenbus traffic may have
        // touched nodes this transaction read. Interference is a real
        // re-write of one of the touched nodes (generation bump), so the
        // conflict detection below is genuine, not a sampled outcome.
        if self.ambient_interference > 0.0 && txn.touched_nodes() > 0 {
            let p_any =
                1.0 - (1.0 - self.ambient_interference).powi(txn.touched_nodes() as i32);
            if self.rng.chance(p_any) {
                // Touched symbols come out of a hash map in arbitrary
                // order; sort by path string so the RNG draw below picks
                // the same victim on every run (the exact order the old
                // `Vec<XsPath>` lexicographic sort produced).
                let mut candidates = std::mem::take(&mut self.victim_scratch);
                candidates.clear();
                // Normally only pre-existing nodes can be dirtied (a
                // guest rewriting its own records). Under an injected
                // transaction storm the racing writer may also *create*
                // a node this transaction was about to create — the
                // creation race `Txn::commit` detects.
                let storm = self.storm;
                candidates.extend(
                    txn.touched_syms()
                        .filter(|&s| storm || self.store.exists(s)),
                );
                self.store.sort_syms_by_path(&mut candidates);
                if !candidates.is_empty() {
                    let victim = candidates[self.rng.index(candidates.len())];
                    // Rewrite the node with its own (shared) value: a
                    // genuine generation bump, zero byte copies.
                    let value = self
                        .store
                        .read_rc(0, victim)
                        .unwrap_or_else(|_| self.store.empty_rc());
                    let _ = self.store.write_rc_sym(0, victim, &value);
                }
                self.victim_scratch = candidates;
            }
        }
        // Validation cost per touched node.
        meter.charge(
            Category::Xenstore,
            cost.xs_txn_validate_per_node
                .scale(self.flavor.txn_mult())
                * txn.touched_nodes() as u64,
        );
        let mut fired = std::mem::take(&mut self.fired_scratch);
        let result = match txn.commit(&mut self.store, &mut fired) {
            Ok(()) => {
                self.stats.txn_commits += 1;
                for &sym in &fired {
                    self.note_mutation(cost, meter, sym);
                }
                Ok(())
            }
            Err(XsError::Again) => {
                self.stats.txn_conflicts += 1;
                Err(XsError::Again)
            }
            Err(e) => Err(e),
        };
        self.fired_scratch = fired;
        self.recycle_txn(txn);
        result
    }

    /// Runs `body` inside a transaction, retrying on `EAGAIN` up to
    /// `max_retries` times (libxl behaviour). The body re-executes fully
    /// on every retry, which is exactly why conflicts are so expensive.
    pub fn transaction<T>(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        max_retries: usize,
        mut body: impl FnMut(&mut Xenstored, &CostModel, &mut Meter, TxnId) -> Result<T, XsError>,
    ) -> Result<T, XsError> {
        let mut attempts = 0;
        loop {
            let id = self.txn_start(cost, meter, conn);
            let out = body(self, cost, meter, id);
            match out {
                Ok(v) => match self.txn_end(cost, meter, conn, id, true) {
                    Ok(()) => return Ok(v),
                    Err(XsError::Again) if attempts < max_retries => {
                        attempts += 1;
                        continue;
                    }
                    Err(e) => return Err(e),
                },
                Err(e) => {
                    let _ = self.txn_end(cost, meter, conn, id, false);
                    return Err(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    fn p(s: &str) -> XsPath {
        XsPath::parse(s).unwrap()
    }

    fn setup() -> (Xenstored, CostModel, Meter) {
        (
            Xenstored::new(Flavor::Oxenstored, 42),
            CostModel::paper_defaults(),
            Meter::new(),
        )
    }

    #[test]
    fn replay_scan_matches_real_scan() {
        // Twin daemons with identical state: four guests with name nodes,
        // Dom0's own directory and a numeric entry without one, an entry
        // spelled `007`, and a non-numeric entry the scan lists but skips.
        let (mut real, cost, _) = setup();
        let mut fast = Xenstored::new(Flavor::Oxenstored, 42);
        let guests = [
            ("1", "a"),
            ("5", "guest-5"),
            ("42", "long-guest-name-42"),
            ("123", "x"),
            ("007", ""),
        ];
        let mut m = Meter::new();
        for xs in [&mut real, &mut fast] {
            for other in [
                "/local/domain/0/backend",
                "/local/domain/9/memory",
                "/local/domain/tools/name",
            ] {
                xs.write(&cost, &mut m, 0, &p(other), b"other").unwrap();
            }
            for (d, name) in guests {
                xs.write(
                    &cost,
                    &mut m,
                    0,
                    &p(&format!("/local/domain/{d}/name")),
                    name.as_bytes(),
                )
                .unwrap();
            }
            for c in 1..=3 {
                xs.connect(c);
            }
        }

        // Only the numeric entries' names count as taken.
        let tally = fast.store().domain_tally();
        assert!(tally.may_hold_name(b"guest-5") && tally.may_hold_name(b""));
        assert!(!tally.may_hold_name(b"other") && !tally.may_hold_name(b"new"));

        // Enough scans to cross a log rotation inside the batched path:
        // 2500 scans x 8 requests each > ROTATE_LINES.
        let (mut m_real, mut m_fast) = (Meter::new(), Meter::new());
        let mut dir = Vec::new();
        for _ in 0..2500 {
            // The exact scan `xl_name_check` performs...
            let ld = real.local_domain_sym();
            real.directory_syms(&cost, &mut m_real, 0, ld, &mut dir)
                .unwrap();
            for &entry in &dir {
                if real.sym_name_u32(entry).is_none() {
                    continue;
                }
                let name_sym = real.child_sym(entry, "name");
                let _ = real.read(&cost, &mut m_real, 0, name_sym);
            }
            // ...versus its closed form.
            assert_eq!(fast.replay_name_scan(&cost, &mut m_fast), 8);
        }

        assert_eq!(m_real.total(), m_fast.total());
        assert_eq!(
            m_real.of(Category::Xenstore),
            m_fast.of(Category::Xenstore)
        );
        assert_eq!(real.stats().requests, fast.stats().requests);
        assert_eq!(real.log_rotations(), fast.log_rotations());
        assert!(real.log_rotations() >= 1, "scan volume should rotate the log");
    }

    #[test]
    fn read_write_round_trip_charges_xenstore_category() {
        let (mut xs, cost, mut meter) = setup();
        xs.write(&cost, &mut meter, 0, &p("/a"), b"v").unwrap();
        assert_eq!(&*xs.read(&cost, &mut meter, 0, &p("/a")).unwrap(), b"v");
        assert!(meter.of(Category::Xenstore) > SimTime::ZERO);
        assert_eq!(meter.total(), meter.of(Category::Xenstore));
    }

    #[test]
    fn per_conn_poll_cost_grows_with_connections() {
        let (mut xs, cost, _) = setup();
        let mut m_few = Meter::new();
        xs.write(&cost, &mut m_few, 0, &p("/t"), b"x").unwrap();
        for d in 1..=500 {
            xs.connect(d);
        }
        let mut m_many = Meter::new();
        xs.write(&cost, &mut m_many, 0, &p("/t"), b"x").unwrap();
        assert!(m_many.total() > m_few.total());
    }

    #[test]
    fn txn_commit_applies_and_fires_watches() {
        let (mut xs, cost, mut meter) = setup();
        xs.connect(5);
        xs.watch(&cost, &mut meter, 5, &p("/local"), "tok");
        let _ = xs.take_events(&cost, &mut meter, 5);
        let id = xs.txn_start(&cost, &mut meter, 0);
        xs.txn_write(&cost, &mut meter, 0, id, &p("/local/domain/5"), b"")
            .unwrap();
        xs.txn_end(&cost, &mut meter, 0, id, true).unwrap();
        let evs = xs.take_events(&cost, &mut meter, 5);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].path, p("/local/domain/5"));
    }

    #[test]
    fn txn_abort_discards() {
        let (mut xs, cost, mut meter) = setup();
        let id = xs.txn_start(&cost, &mut meter, 0);
        xs.txn_write(&cost, &mut meter, 0, id, &p("/x"), b"1").unwrap();
        xs.txn_end(&cost, &mut meter, 0, id, false).unwrap();
        assert!(!xs.store().exists(&p("/x")));
    }

    #[test]
    fn conflicting_txns_get_eagain() {
        let (mut xs, cost, mut meter) = setup();
        xs.write(&cost, &mut meter, 0, &p("/n"), b"0").unwrap();
        let id = xs.txn_start(&cost, &mut meter, 0);
        let _ = xs.txn_read(&cost, &mut meter, 0, id, &p("/n")).unwrap();
        // Outside write to the same node while the txn is open.
        xs.write(&cost, &mut meter, 0, &p("/n"), b"clash").unwrap();
        assert_eq!(
            xs.txn_end(&cost, &mut meter, 0, id, true).unwrap_err(),
            XsError::Again
        );
        assert_eq!(xs.stats().txn_conflicts, 1);
    }

    #[test]
    fn transaction_helper_retries_on_ambient_interference() {
        let (mut xs, cost, mut meter) = setup();
        xs.write(&cost, &mut meter, 0, &p("/shared"), b"s").unwrap();
        // Moderate rate: high enough to conflict within a few attempts,
        // low enough that the retry loop converges.
        xs.set_ambient_interference(0.3);
        // A single transaction only conflicts if interference happens to
        // fire before its first commit; run a handful so the assertion
        // does not hinge on one draw of the (deterministic) RNG stream.
        for _ in 0..10 {
            let out = xs.transaction(&cost, &mut meter, 0, 50, |xs, cost, meter, id| {
                // Read an existing node so interference has a victim.
                let _ = xs.txn_read(cost, meter, 0, id, &p("/shared"));
                xs.txn_write(cost, meter, 0, id, &p("/v"), b"1")
            });
            out.unwrap();
            if xs.stats().txn_conflicts > 0 {
                break;
            }
        }
        assert!(xs.stats().txn_conflicts > 0, "interference should conflict");
        assert_eq!(xs.store().read(0, &p("/v")).unwrap(), b"1");
    }

    #[test]
    fn snapshot_cost_grows_with_store_size() {
        let (mut xs, cost, _) = setup();
        let mut m = Meter::new();
        for i in 0..200 {
            xs.write(&cost, &mut m, 0, &p(&format!("/d/n{i}")), b"x").unwrap();
        }
        let mut m_small_store = Meter::new();
        let id = xs.txn_start(&cost, &mut m_small_store, 0);
        xs.txn_end(&cost, &mut m_small_store, 0, id, false).unwrap();

        for i in 200..2000 {
            xs.write(&cost, &mut m, 0, &p(&format!("/d/n{i}")), b"x").unwrap();
        }
        let mut m_big_store = Meter::new();
        let id = xs.txn_start(&cost, &mut m_big_store, 0);
        xs.txn_end(&cost, &mut m_big_store, 0, id, false).unwrap();
        assert!(m_big_store.total() > m_small_store.total());
    }

    #[test]
    fn log_rotation_spikes_request_cost() {
        let (mut xs, cost, _) = setup();
        let mut baseline = Meter::new();
        xs.read(&cost, &mut baseline, 0, &XsPath::root()).unwrap();
        // Drive the log to just below the threshold.
        let remaining = crate::log::ROTATE_LINES - xs.log.total_lines() % crate::log::ROTATE_LINES;
        for _ in 0..remaining - 1 {
            let mut m = Meter::new();
            let _ = xs.read(&cost, &mut m, 0, &XsPath::root());
        }
        let mut spike = Meter::new();
        let _ = xs.read(&cost, &mut spike, 0, &XsPath::root());
        assert!(
            spike.total() > baseline.total() * 10,
            "rotation should spike: {} vs {}",
            spike.total(),
            baseline.total()
        );
        assert_eq!(xs.log_rotations(), 1);
    }

    #[test]
    fn refused_guest_commit_applies_nothing_and_fires_no_watch() {
        let (mut xs, cost, mut meter) = setup();
        let own = p("/local/domain/5");
        xs.write(&cost, &mut meter, 0, &own, b"").unwrap();
        xs.set_perms(&cost, &mut meter, 0, &own, Perms::private(5)).unwrap();
        xs.write(&cost, &mut meter, 0, &p("/local/domain/0"), b"").unwrap();
        xs.connect(5);
        xs.watch(&cost, &mut meter, 0, &own, "tok");
        let _ = xs.take_events(&cost, &mut meter, 0);
        let id = xs.txn_start(&cost, &mut meter, 5);
        xs.txn_write(&cost, &mut meter, 5, id, &p("/local/domain/5/a"), b"1").unwrap();
        xs.txn_write(&cost, &mut meter, 5, id, &p("/local/domain/0/b"), b"2").unwrap();
        assert_eq!(
            xs.txn_end(&cost, &mut meter, 5, id, true).unwrap_err(),
            XsError::PermissionDenied
        );
        assert!(!xs.store().exists(&p("/local/domain/5/a")));
        assert_eq!(xs.pending_events(0), 0);
    }

    #[test]
    fn disconnect_drops_watches_and_txns() {
        let (mut xs, cost, mut meter) = setup();
        xs.connect(9);
        xs.watch(&cost, &mut meter, 9, &p("/w"), "t");
        let id = xs.txn_start(&cost, &mut meter, 9);
        xs.disconnect(9);
        assert_eq!(xs.watch_count(), 0);
        assert_eq!(
            xs.txn_end(&cost, &mut meter, 9, id, true).unwrap_err(),
            XsError::NoSuchTxn
        );
    }

    #[test]
    fn foreign_txn_is_rejected() {
        let (mut xs, cost, mut meter) = setup();
        xs.connect(3);
        let id = xs.txn_start(&cost, &mut meter, 3);
        assert_eq!(
            xs.txn_write(&cost, &mut meter, 0, id, &p("/x"), b"1")
                .unwrap_err(),
            XsError::PermissionDenied
        );
    }

    /// Runs every request once, naming the nodes `state`, its directory
    /// `fe`, `data`, `t`, and `t`'s children `ta` and `tb` by one kind
    /// of key.
    fn every_op<K: XsKey>(
        xs: &mut Xenstored,
        cost: &CostModel,
        m: &mut Meter,
        [state, fe, data, t, ta, tb]: [K; 6],
    ) {
        xs.connect(5);
        xs.write(cost, m, 0, state, b"4").unwrap();
        assert_eq!(&*xs.read(cost, m, 0, state).unwrap(), b"4");
        xs.mkdir(cost, m, 0, data).unwrap();
        assert_eq!(xs.directory(cost, m, 0, fe).unwrap(), ["state"]);
        xs.set_perms(cost, m, 0, state, Perms::private(3)).unwrap();
        xs.watch(cost, m, 5, fe, "tok");
        xs.write(cost, m, 0, state, b"5").unwrap();
        assert_eq!(xs.drain_events(cost, m, 5), 2);
        xs.unwatch(cost, m, 5, fe, "tok").unwrap();
        xs.rm(cost, m, 0, state).unwrap();
        let id = xs.txn_start(cost, m, 0);
        xs.txn_mkdir(cost, m, 0, id, t).unwrap();
        xs.txn_write(cost, m, 0, id, ta, b"1").unwrap();
        assert_eq!(&*xs.txn_read(cost, m, 0, id, ta).unwrap(), b"1");
        xs.txn_write(cost, m, 0, id, tb, b"2").unwrap();
        assert_eq!(xs.txn_directory(cost, m, 0, id, t).unwrap(), ["a", "b"]);
        xs.txn_rm(cost, m, 0, id, ta).unwrap();
        xs.txn_end(cost, m, 0, id, true).unwrap();
    }

    #[test]
    fn sym_ops_charge_identically_to_path_ops() {
        // The figure pipeline's determinism rests on this: converting a
        // caller from path strings to symbol composition must not change
        // a single charged nanosecond, counter or interned symbol.
        let cost = CostModel::paper_defaults();
        let mut a = Xenstored::new(Flavor::Oxenstored, 7);
        let mut b = Xenstored::new(Flavor::Oxenstored, 7);
        let (mut ma, mut mb) = (Meter::new(), Meter::new());

        let paths = [
            "/local/domain/3/device/vif/0/state",
            "/local/domain/3/device/vif/0",
            "/local/domain/3/data",
            "/local/domain/3/t",
            "/local/domain/3/t/a",
            "/local/domain/3/t/b",
        ]
        .map(p);
        every_op(&mut a, &cost, &mut ma, paths.each_ref());

        let fe = b.frontend_dir_sym(3, "vif", 0);
        let dom = b.domain_dir_sym(3);
        let t = b.child_sym(dom, "t");
        let syms = [
            b.child_sym(fe, "state"),
            fe,
            b.child_sym(dom, "data"),
            t,
            b.child_sym(t, "a"),
            b.child_sym(t, "b"),
        ];
        every_op(&mut b, &cost, &mut mb, syms);

        for cat in Category::ALL {
            assert_eq!(ma.of(cat), mb.of(cat), "{cat} charge, path vs sym");
        }
        assert_eq!(ma.total(), mb.total());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.store_census(), b.store_census());
        assert_eq!(a.store().subtree_digest(), b.store().subtree_digest());
    }

    #[test]
    fn lookups_of_a_never_interned_path_are_charged_enoent() {
        let (mut xs, cost, _) = setup();
        let ghost = p("/local/domain/9/never");
        let syms = xs.store_census().interned_syms;
        let requests = xs.stats().requests;
        let mut meters = [(); 4].map(|_| Meter::new());
        let [m_read, m_rm, m_dir, m_unwatch] = &mut meters;
        let results = [
            xs.read(&cost, m_read, 0, &ghost).map(drop),
            xs.rm(&cost, m_rm, 0, &ghost),
            xs.directory(&cost, m_dir, 0, &ghost).map(drop),
            xs.unwatch(&cost, m_unwatch, 0, &ghost, "tok"),
        ];
        assert_eq!(results, [Err(XsError::NotFound); 4]);
        for m in &meters {
            assert!(m.of(Category::Xenstore) > SimTime::ZERO, "uncharged");
            assert_eq!(m.total(), m.of(Category::Xenstore));
        }
        assert_eq!(xs.stats().requests, requests + 4);
        assert_eq!(xs.store_census().interned_syms, syms, "a lookup interned");
    }

    #[test]
    fn denied_writes_to_fresh_paths_intern_nothing() {
        let (mut xs, cost, mut meter) = setup();
        xs.connect(5);
        let syms = xs.store_census().interned_syms;
        let generation = xs.store().generation();
        for i in 0..100_000u32 {
            let path = p(&format!("/local/domain/0/secret{i}"));
            let res = xs.write(&cost, &mut meter, 5, &path, b"x");
            assert_eq!(res, Err(XsError::PermissionDenied), "write {i}");
        }
        let after = xs.store_census().interned_syms;
        assert_eq!(after, syms, "a denied write interned");
        // Each denial still bumps the generation once, as the creating
        // write does when the nearest existing node refuses it.
        assert_eq!(xs.store().generation(), generation + 100_000);
    }

    #[test]
    fn refused_creations_charge_as_before_and_intern_nothing() {
        // Twin daemons refuse the same requests, one through paths never
        // interned and one through paths interned beforehand (which the
        // store refuses after interning, as every refusal used to):
        // equal errors, charges, generations and stats.
        let (mut fresh, cost, _) = setup();
        let (mut interned, _, _) = setup();
        let guest = Perms {
            owner: 5,
            others_read: false,
            others_write: false,
        };
        for xs in [&mut fresh, &mut interned] {
            xs.connect(5);
            let mut m = Meter::new();
            xs.mkdir(&cost, &mut m, 0, &p("/local/domain/5")).unwrap();
            let dir = p("/local/domain/5");
            xs.set_perms(&cost, &mut m, 0, &dir, guest).unwrap();
            xs.store_mut_for_tests().set_quota(Some(3));
        }
        let requests: [(&str, bool, XsError); 4] = [
            ("/local/domain/0/secret", true, XsError::PermissionDenied),
            ("/vm/5", false, XsError::PermissionDenied),
            ("/local/domain/5/a/b/c/d", true, XsError::QuotaExceeded),
            ("/local/domain/5/e/f/g/h", false, XsError::QuotaExceeded),
        ];
        let syms = fresh.store_census().interned_syms;
        for (path, write, err) in requests {
            let path = p(path);
            interned.sym(&path);
            let (mut mf, mut mi) = (Meter::new(), Meter::new());
            let (rf, ri) = if write {
                let rf = fresh.write(&cost, &mut mf, 5, &path, b"v");
                (rf, interned.write(&cost, &mut mi, 5, &path, b"v"))
            } else {
                let rf = fresh.mkdir(&cost, &mut mf, 5, &path);
                (rf, interned.mkdir(&cost, &mut mi, 5, &path))
            };
            assert_eq!((rf, ri), (Err(err), Err(err)), "{path}");
            assert_eq!(mf.total(), mi.total(), "{path} charge");
            assert_eq!(fresh.store().generation(), interned.store().generation());
        }
        assert_eq!(fresh.stats(), interned.stats());
        let after = fresh.store_census().interned_syms;
        assert_eq!(after, syms, "a refused request interned");
        assert!(interned.store_census().interned_syms > syms);
        // Within the quota the same guest still creates its nodes.
        let ab = p("/local/domain/5/a/b");
        fresh.write(&cost, &mut Meter::new(), 5, &ab, b"v").unwrap();
        assert!(fresh.store().exists(&ab));
    }

    #[test]
    fn set_perms_on_missing_paths_interns_nothing() {
        let (mut xs, cost, mut meter) = setup();
        let syms = xs.store_census().interned_syms;
        let (requests, generation) = (xs.stats().requests, xs.store().generation());
        for i in 0..10_000u32 {
            let path = p(&format!("/local/domain/0/missing{i}"));
            let res = xs.set_perms(&cost, &mut meter, 0, &path, Perms::dom0());
            assert_eq!(res, Err(XsError::NotFound), "set_perms {i}");
        }
        assert_eq!(xs.store_census().interned_syms, syms, "a set_perms interned");
        // Each still costs a request and bumps the generation.
        assert_eq!(xs.stats().requests, requests + 10_000);
        assert_eq!(xs.store().generation(), generation + 10_000);
    }

    #[test]
    fn txn_pool_recycles_without_state_leak() {
        let (mut xs, cost, mut meter) = setup();
        xs.write(&cost, &mut meter, 0, &p("/a"), b"1").unwrap();
        let id1 = xs.txn_start(&cost, &mut meter, 0);
        xs.txn_write(&cost, &mut meter, 0, id1, &p("/b"), b"2").unwrap();
        xs.txn_end(&cost, &mut meter, 0, id1, true).unwrap();
        // The recycled txn must not replay /b or remember touched nodes.
        let id2 = xs.txn_start(&cost, &mut meter, 0);
        assert_ne!(id1, id2);
        assert_eq!(
            &*xs.txn_read(&cost, &mut meter, 0, id2, &p("/b")).unwrap(),
            b"2"
        );
        xs.txn_end(&cost, &mut meter, 0, id2, true).unwrap();
        assert_eq!(xs.stats().txn_commits, 2);
        assert_eq!(xs.stats().txn_conflicts, 0);
    }

    #[test]
    fn cxenstored_costs_more_per_op() {
        let cost = CostModel::paper_defaults();
        let mut ox = Xenstored::new(Flavor::Oxenstored, 1);
        let mut cx = Xenstored::new(Flavor::Cxenstored, 1);
        let mut mo = Meter::new();
        let mut mc = Meter::new();
        ox.write(&cost, &mut mo, 0, &p("/a"), b"v").unwrap();
        cx.write(&cost, &mut mc, 0, &p("/a"), b"v").unwrap();
        assert!(mc.total() > mo.total());
    }
}
