(** Asynchronous batched serving pipeline over the shard stack.

    One MPSC submission queue (Mutex/Condition mailbox) per shard, one
    worker Domain per shard. Workers drain the queue in adaptive batches
    — the drain size grows under queue pressure up to [batch_cap] and
    shrinks when a drain empties the queue — and execute each drain
    through [Cmap.run_batch], so the drained ops share one
    group-committed redo log and one fence schedule ([Redo.batch]).
    Requests resolve through promise-like tickets fulfilled after the
    batch commit returns; submission-to-fulfilment latency is recorded
    per request in a shard-local {!Spp_benchlib.Histogram}.

    Crash atomicity is per operation (recovery lands on a prefix of
    whole ops of an interrupted batch); a fulfilled ticket additionally
    means the op's sub-batch committed — acks are durable.

    {b Read fast path.} When the store has a {!Spp_pmemkv.Rcache}
    attached and the pipeline is adaptive, a [Get] whose key hits the
    cache is answered immediately on the submitting thread with a
    pre-fulfilled ticket — no mailbox, no worker domain, no PM walk.
    This is sound because fills only come from committed batches (the
    hit is durable data) and every mutation invalidates its key at
    submission time, before it becomes visible in the mailbox, so a
    client that pipelines a put and then a get of the same key can
    never be answered from ahead of its own write. Deterministic mode
    ([adaptive = false]) disables the bypass: batch boundaries stay a
    pure function of the submitted streams and the bit-identical
    async-vs-sequential differential still holds.

    {b Failure and failover.} A ticket always resolves — with [Failed]
    rather than hanging when its op cannot be acked. An op that raises
    fails its drain with [Op_raised] but the shard keeps serving; a
    shard whose device died fails everything with [Failed_over] until
    {!promote} swaps in a replica stack promoted from the shard's
    {!Replica} group (configured via [?replication] at {!create}).
    [Failed] means the op's outcome is {e unknown}: sub-batches
    committed before the failure are durable and replicated, later ones
    are not. Replication observes the group-commit stream, so with
    [?replication] all mutations must flow through this pipeline — the
    synchronous [Shard.put] tx path is invisible to replicas.

    {b Live slot migration.} {!migrate_slot} moves one slot of the
    store's slot map (see {!Shard}) to another shard while traffic
    flows: the slot's current owner drains the slot's keys out of its
    own engine through paginated ordered scans and replays them into
    the target as ordinary batched puts (so the copy group-commits on
    the target and its redo payloads reach the target's replica), then
    flips the slot table under both mailbox locks — re-pointing every
    queued request on the slot at the target, whose ticket an awaiter
    transparently chases — and finally deletes the moved keys from
    itself in group-committed remove batches. Submitters re-check the
    table under the mailbox lock and workers double-check drained ops
    against it, so replies are identical to a no-migration run. One
    migration runs at a time; {!scan} serializes against it, so a
    whole-store scan always reports every key exactly once. *)

type request =
  | Put of { key : string; value : string }
  | Get of string
  | Remove of string
  | Scan of { lo : string; hi : string; limit : int }
      (** ordered range over one shard's slice; cache-bypassing,
          executed inside the worker batch *)

(** Why a ticket could not be acked. *)
type failure =
  | Op_raised of string
      (** the op raised mid-batch; the message is the exception *)
  | Failed_over
      (** the shard's primary died; resubmit after {!promote} *)

type reply =
  | Done
  | Value of string option
  | Removed of bool
  | Scanned of (string * string) list
      (** ascending by key, at most the clamped limit *)
  | Failed of failure

val scan_limit_cap : int
(** Every scan's limit is clamped to this many pairs (4096) on entry —
    replies are materialized lists built while the worker holds the
    shard. *)

exception Not_replicated of int
(** {!promote} on a shard created without a replication group.
    Registered with [Printexc]. *)

val request_key : request -> string
(** The routing key. Raises [Invalid_argument] on [Scan] — a range
    spans every shard; use {!scan} or {!submit_to}. *)

type ticket

type migration_report = {
  mig_slot : int;
  mig_from : int;
  mig_to : int;
  mig_keys : int;        (** entries copied (and then deleted) *)
  mig_batches : int;     (** copy batches group-committed on the target *)
  mig_forwarded : int;   (** queued requests re-pointed at the flip *)
}

type shard_stats = {
  ss_shard : int;
  ss_ops : int;
  ss_batches : int;
  ss_max_batch : int;
  ss_failed : int;                      (** tickets resolved [Failed] *)
  ss_busy : float;
      (** seconds this worker spent inside [run_batch] — the per-shard
          critical-path cost, meaningful even when the host has fewer
          cores than shards *)
  ss_hist : Spp_benchlib.Histogram.t;   (** latency, ns *)
}

type t

val create :
  ?batch_cap:int -> ?adaptive:bool -> ?autostart:bool ->
  ?replication:Replica.config -> Shard.t -> t
(** Defaults: [batch_cap = 32], [adaptive = true], [autostart = true],
    no replication. With [adaptive:false] every drain takes exactly
    [batch_cap] requests when available; with [autostart:false]
    submissions queue up until {!start} — together they make batch
    boundaries (and therefore all Space/Memdev accounting) a pure
    function of the submitted streams, which is what the
    parallel-vs-sequential differential asserts. [?replication] builds
    one {!Replica} group per shard from the store's current durable
    images (call before any batched traffic) and gates every ack on the
    configured policy. *)

val start : t -> unit
val started : t -> bool

val submit : ?notify:(reply -> unit) -> t -> request -> ticket
(** Route by key to the owning shard's mailbox — or, for a cache-hit
    [Get] on an adaptive cached pipeline, answer it inline and return a
    pre-fulfilled ticket. Mutations invalidate their key in the shard's
    read cache before enqueueing. Callable from any domain. Raises once
    {!stop} has begun (a bypassed get may still succeed: it is
    read-only and touches no queue), and on [Scan] (no routing key —
    use {!scan} or {!submit_to}).

    [notify] gets the reply once: before [submit] returns for a
    pre-fulfilled ticket, else on the resolving worker after it releases
    the mailbox lock. Its exceptions are ignored. *)

val submit_to : t -> int -> request -> ticket
(** [submit_to t i req] bypasses the router and enqueues on shard [i] —
    how a [Scan] targets one shard's slice, and how the differential
    tests drive predetermined per-shard streams. Same cache discipline
    as {!submit}. *)

val await : t -> ticket -> reply
(** Block until the ticket's batch has committed (immediate for a
    bypassed get). *)

val peek : ticket -> reply option

val scan :
  t -> lo:string -> hi:string -> limit:int ->
  ((string * string) list, failure) result
(** Whole-store ordered scan: submits one [Scan] per shard (each rides
    that shard's batch stream), awaits all slices and merges them into
    one ascending list of at most [limit] (clamped) pairs. [Error] if
    any shard failed over mid-scan. *)

val bypassed_gets : t -> int
(** Gets answered on the submitting thread without entering a mailbox. *)

val cache_stats : t -> Spp_pmemkv.Rcache.stats
(** [Shard.merged_cache_stats] of the underlying store. *)

(** {1 Resharding} *)

exception Migration_failed of { slot : int; reason : string }
(** A migration aborted before its flip: the slot still routes to the
    source, which still holds every key — nothing was lost, copied
    leftovers on the target are ownership-filtered out of scans.
    Registered with [Printexc]. *)

val migrate_slot : t -> slot:int -> dst:int -> migration_report
(** [migrate_slot t ~slot ~dst] asks the slot's current owner to move
    it to shard [dst] (copy → flip → delete, on the owner's worker
    domain, between drains) and blocks until done. Serialized: one
    migration at a time, mutually exclusive with whole-store {!scan}s.
    A no-op report if [dst] already owns the slot. Requests queued or
    submitted during the migration are answered exactly as without it —
    queued slot traffic is re-pointed at the flip, and awaiters chase
    their tickets. Raises {!Migration_failed} if the copy aborted (the
    slot then still routes to the source). *)

val migrations : t -> int
(** Completed migrations. *)

val forwarded : t -> int
(** Requests re-pointed to another shard's mailbox — at a flip, or by a
    worker's drain-time ownership double-check. *)

val keys_moved : t -> int
(** Entries copied (and deleted from their source) across migrations. *)

val slot_op_counts : t -> int array
(** Per-slot routed-op histogram (indexed by slot), accumulated at
    {!submit}. The rebalancer's load signal. *)

val queue_depths : t -> int array
(** Instantaneous mailbox depth per shard. *)

val ops_counts : t -> int array
(** Per-shard executed-op counts, readable while the pipeline runs
    (monotone snapshot, published after each drain). *)

val busy_times : t -> float array
(** Per-shard seconds spent inside [run_batch] so far — the live
    counterpart of [ss_busy]. Sampling it around a submission window
    yields the window's critical-path cost per shard, which is how the
    reshard bench models multi-core wall clock on any host. *)

val peak_queue_depths : t -> int array
(** High-water mailbox depth per shard since creation. *)

(** {1 Failover} *)

val shard_failed : t -> int -> bool
(** The shard's device died and no replica has been promoted yet; its
    requests are resolving [Failed Failed_over]. *)

val replicated : t -> int -> bool

val promote : ?cache_cap:int -> t -> int -> Replica.promoted
(** [promote t i] asks shard [i]'s worker — the only domain allowed
    inside the old stack — to seal its replication group, promote the
    best replica ({!Replica.promote}), and repoint the router
    ([Shard.set_shard]); blocks until the swap is done. The promoted
    stack starts with a cold read cache of [cache_cap] entries (default
    none). Requests queued behind the promotion execute on the new
    stack; tickets failed with [Failed_over] before it are {e not}
    replayed — the client resubmits. Raises {!Not_replicated} without a
    group, {!Replica.Promotion_failed} on a second promotion of the
    same group. *)

val promotions : t -> int

val replication_stats : t -> Replica.stats list
(** One entry per replicated shard. Race-free after {!stop}; a live
    read is a monotone snapshot. *)

val replication_lag : t -> Spp_benchlib.Histogram.t
(** Merged commit-to-apply lag over every group, ns. *)

val stop : t -> unit
(** Drain all queues, join the workers and any replica appliers.
    Idempotent; required before {!stats}. *)

val stats : t -> shard_stats array
val merged_hist : t -> Spp_benchlib.Histogram.t
val total_batches : t -> int

val total_failed : t -> int
(** Tickets resolved [Failed] across all shards. *)

val store : t -> Shard.t

val run_sequential :
  ?use_cache:bool ->
  Shard.t -> batch_cap:int -> request array array -> reply array array
(** The deterministic baseline: per-shard streams executed on the
    calling domain, chunked at exactly [batch_cap], through the same
    group-commit path. When the store has a cache and [use_cache] is
    true (default), cache-hit gets inside each chunk are answered
    inline and only the remainder enters the batch; chunk boundaries
    stay at fixed request positions and gets stage no redo entries, so
    replies, the durable image and every Memdev counter are
    bit-identical to a cache-off run of the same streams — the
    cache-differential property the tests assert. [use_cache:false]
    forces the pure PM path even on a cached store. *)

val digest_replies : reply array -> int
(** Order-sensitive digest; two executions agree only if every reply
    matched in order and shape. Scan replies digest every (key, value)
    pair in order. *)

val pp_request : Format.formatter -> request -> unit
val pp_reply : Format.formatter -> reply -> unit
(** Compact printers for divergence reports and sppctl: values print as
    lengths, scans as entry count and key span. *)
