(** Batch replication and failover for the shard stack.

    A replication group attaches replica stacks to a primary shard's
    pool. Each replica is a full Memdev/Space/Pool stack opened from
    one snapshot of the primary's durable image; the primary's
    {!Spp_pmdk.Pool.set_batch_observer} hook ships every committed redo
    sub-batch — staged entries plus the fresh-block bytes its ops
    stored past the log — as a sequence-numbered payload over a lossy
    in-process channel ({!Spp_sim.Netfault}) with bounded retry and
    exponential backoff. Replicas apply payloads in order through
    {!Spp_pmdk.Pool.apply_batch_payload}, staying bit-identical to the
    primary's post-commit state at every sequence number.

    Payloads are shipped strictly {e after} the commit is durable on
    the primary, so a replica can lag but never lead: at any primary
    crash point, the replica's applied prefix is at most one commit
    behind what cold recovery of the primary's image produces. That
    bound is what the failover torture oracle checks.

    Failure detection is channel-driven: retry exhaustion on a data
    send, or 3 consecutive missed {!heartbeat}s, marks a replica down.
    Down replicas receive nothing further (applied sequence numbers
    never have gaps) and leave the ack quorum; a policy wait short of
    its quorum completes anyway and counts a degraded ack. *)

(** When a mutation is acked to the client, relative to replication:
    [Async] — on primary durability alone; [Semi_sync] — after at
    least one live replica applied everything shipped so far; [Sync] —
    after every live replica did. *)
type ack_policy = Async | Semi_sync | Sync

val ack_policy_to_string : ack_policy -> string

exception Promotion_failed of { shard : int; reason : string }
(** Promotion could not produce a serving stack (double promotion, bad
    replica index, or the replica's image failed to reopen). Registered
    with [Printexc]. *)

type config = {
  replicas : int;        (** replica stacks per shard (>= 1) *)
  policy : ack_policy;
  threaded : bool;       (** applier Domain per replica; [false] applies
                             inline on the committing domain —
                             deterministic, the torture configuration *)
  send_retries : int;    (** total send attempts per message (>= 1);
                             retries back off from 1 us, doubling *)
  drop_rate : float;     (** channel loss probability, in [0, 1) *)
  seed : int;            (** channel fault seed, salted per shard *)
}

val default_config : config
(** One replica, semi-sync, threaded, 4 attempts, lossless channel. *)

type t

val create :
  ?cfg:config -> ?engine:Spp_pmemkv.Engine.spec -> shard:int ->
  Spp_pmdk.Pool.t -> t
(** [create ~shard primary] snapshots the primary pool's durable image
    [cfg.replicas] times, opens each as an independent replica stack,
    spawns applier domains when [cfg.threaded], and installs the batch
    observer on [primary]. The primary must be quiesced (no batch in
    flight, stores fenced) at the call. [engine] (default
    {!Spp_pmemkv.Engines.cmap}) is the engine module {!promote} uses to
    re-attach the map through the pool root — replication itself is
    engine-agnostic (payloads are redo entries plus raw bytes), so it
    must simply match what the primary runs. *)

(** {1 Failure detection and acks} *)

val heartbeat : t -> unit
(** One ping round to every live replica over the same lossy channel as
    the data path. Three consecutive losses mark the replica down. Call
    from the domain that owns the primary (the domain holding the serve
    shard, once per batch). *)

val wait_acks : t -> unit
(** Block per the ack policy until the required replicas have applied
    everything shipped so far. Returns immediately under [Async], or
    when nothing was ever shipped. A quorum that can no longer be met
    (replicas down) completes the wait and increments the degraded-ack
    counter rather than blocking forever. *)

(** {1 Promotion} *)

val seal : t -> unit
(** Stop shipping and join the applier domains, promoted or not:
    queued-but-unapplied payloads are discarded, applied prefixes and
    lag histograms become race-free to read. Idempotent. *)

val sealed : t -> bool
(** The group stopped shipping: {!promote} or {!seal} ran. *)

type promoted = {
  pr_shard : int;
  pr_replica : int;   (** which replica was promoted *)
  pr_seq : int;       (** sealed commit prefix, in sequence numbers *)
  pr_ops : int;       (** whole operations that prefix covers *)
  pr_access : Spp_access.t;
  pr_kv : Spp_pmemkv.Engine.packed;
}

val promote : ?cache_cap:int -> t -> promoted
(** Stop shipping and promote a replica to a serving stack. Appliers
    stop after the payload in flight, discard queued-but-unapplied
    payloads (never acked to any client) and park, so the sealed prefix
    is exactly the fully-applied one; no applier is joined here (a
    domain's termination stops the world), {!seal} does that later.
    Live replicas are preferred, then the longest applied prefix. The
    chosen replica is restarted cold in place — its own device
    power-cycled ({!Spp_sim.Memdev.crash}, no image copied), fresh
    Space, fresh access layer, map re-attached via the pool root, read
    cache (capacity [cache_cap], default none) starting empty — per the
    attach contract. Raises {!Promotion_failed} on a second call. *)

(** {1 Stats} *)

type stats = {
  rs_shard : int;
  rs_replicas : int;
  rs_live : int;
  rs_seq : int;            (** commits shipped *)
  rs_ops : int;            (** ops covered by shipped commits *)
  rs_acked_seq : int;      (** highest seq every live replica applied
                               (0 when none live) *)
  rs_retries : int;        (** resend attempts beyond the first *)
  rs_backoff_ns : int;     (** total backoff spent *)
  rs_degraded_acks : int;  (** policy waits short of their quorum *)
  rs_net : Spp_sim.Netfault.stats;
}

val stats : t -> stats

val lag_hist : t -> Spp_benchlib.Histogram.t
(** Merged commit-to-apply lag across replicas, nanoseconds. *)
