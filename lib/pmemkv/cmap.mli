(** cmap — the concurrent persistent hashmap engine of pmemkv (the
    paper's §VI-B KV-store benchmark uses pmemkv's non-experimental
    concurrent engine).

    Fixed bucket array in PM with chains of variable-size entry objects
    ([next oid | key len | value len | key | value]). Every mutation is
    a group-commit op: a put stores a fresh entry through the variant's
    range check and stages the link oid that publishes it, a remove
    stages the unlinking oid; a synchronous {!put}/{!remove} is a one-op
    {!run_batch}. Striped per-bucket mutexes protect chains: a
    synchronous writer holds the key's stripe until its commit returns,
    and commits serialize on the pool's lane. *)

type t

val name : string
(** ["cmap"] — the engine's registry name (see {!Engines}). *)

val create : ?nbuckets:int -> Spp_access.t -> t
(** Default 4096 buckets. *)

val attach : Spp_access.t -> buckets:Spp_pmdk.Oid.t -> t
(** Re-attach to an existing map after a pool reopen; the bucket count is
    recovered from the bucket array's durable allocation size. The read
    cache is volatile by design, so a reattached map always starts cold
    ([cache] is [None] until {!set_cache}). *)

(** {1 Volatile DRAM read cache}

    An optional {!Rcache.t} fronts the PM chain walks. [get] probes it
    lock-free before taking the bucket stripe and fills it on a miss;
    every mutation invalidates write-through at stage time, before its
    commit, so the cache can never serve a value newer than the durable
    state allows, and [run_batch] replays fills only after its commit
    returns: a get fills the value it read, a put — a synchronous one
    included — the value it made durable. A fill whose key was
    invalidated after its value was read or staged drops itself (see
    {!Rcache.insert}), so a deferred fill never resurrects a value a
    later submission replaced. Purely
    volatile: no simulated PM traffic, no new crash points, gone on
    reopen. *)

val set_cache : t -> Rcache.t option -> unit
val cache : t -> Rcache.t option

val cache_probe : t -> string -> string option
(** Probe the cache without touching PM; safe from any domain (the serve
    layer's read fast path). [None] when no cache is attached. *)

val cache_invalidate : t -> string -> unit
(** Drop a key from the cache if one is attached; safe from any domain.
    The serve layer calls this on mutation submission so a same-client
    get can never hit ahead of its own queued write. *)

val buckets_oid : t -> Spp_pmdk.Oid.t
(** The bucket-array oid — store it in a durable slot (e.g. the pool
    root) so the map survives a restart. *)

val root_oid : t -> Spp_pmdk.Oid.t
(** Alias of {!buckets_oid} under the {!Engine.S} contract. *)

val put : t -> key:string -> value:string -> unit
(** A one-op {!run_batch} under the key's stripe: the entry is replaced
    out of place, at any size — a fresh entry, one staged link oid and
    the old entry freed at the commit. *)

val get : t -> string -> string option
val remove : t -> string -> bool
val count_all : t -> int

val scan : t -> lo:string -> hi:string -> limit:int -> (string * string) list
(** Ordered range scan per the {!Engine.S} contract: at most [limit]
    pairs with [lo <= key <= hi], ascending. On this hash layout every
    bucket chain is walked and the survivors sorted — O(total entries)
    whatever the range width. Cache-bypassing. *)

(** {1 Group-committed batches}

    [run_batch] executes the array inside one [Pool.with_batch]: the
    redo entries of consecutive ops share a staged log and one fence
    schedule per sub-batch, while each op stays individually atomic on
    crash (recovery lands on a prefix of whole ops — see
    [Redo.batch]). Later ops in the batch observe earlier ones. The
    caller must hold the map exclusively for the call — the per-shard
    serve queue does — since stripe locks cannot cover the deferred
    commit. Puts always replace entries out of place. *)

type batch_op = Engine.batch_op =
  | B_put of { key : string; value : string }
  | B_get of string
  | B_remove of string
  | B_scan of { lo : string; hi : string; limit : int }

type batch_reply = Engine.batch_reply =
  | R_put
  | R_get of string option
  | R_removed of bool
  | R_scan of (string * string) list

val run_batch : ?len:int -> t -> batch_op array -> batch_reply array
(** [?len] restricts execution to the first [len] ops, so a reusable
    op buffer can feed every drain without per-batch re-allocation. *)
