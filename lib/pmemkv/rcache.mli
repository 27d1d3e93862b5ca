(** Volatile DRAM read cache fronting an engine's PM reads; {!Engine}
    keeps one per map, next to the engine's state.

    Fixed-capacity, power-of-two, set-associative (4-way) map from key
    to value, keyed by the same FNV-1a hash as the Cmap buckets. Lives
    entirely on the OCaml heap: it issues no simulated PM accesses, adds
    no durability events, and is gone after a pool reopen — a reattached
    map always starts cold.

    Readers are lock-free from any domain: per-entry seqlock stamps make
    a torn probe read as a miss, never a wrong value. Writers (fills and
    invalidations) serialize on a small striped mutex array. The
    intended steady-state writer is the domain running
    {!Engine.run_batch} under the pool's lane (post-commit fills,
    stage-time invalidations); submitting domains may additionally
    invalidate on mutation submission, which the striping makes safe. *)

type t

type stats = {
  rc_hits : int;            (** probes answered from the cache *)
  rc_misses : int;          (** probes that fell through to PM *)
  rc_invalidations : int;   (** entries dropped by a mutation *)
  rc_fills : int;           (** entries installed *)
}

val create : cap:int -> t
(** [cap] is the total entry capacity; rounded up so the set count is a
    power of two of 4-way sets. Raises [Invalid_argument] on [cap <= 0]. *)

val capacity : t -> int

val probe : t -> string -> string option
(** Lock-free lookup; callable from any domain. Counts a hit or miss. *)

type ticket
(** A key together with its set's generation at the time the ticket was
    taken. *)

val ticket : t -> string -> ticket
(** Take a fill ticket for [key] before reading or staging the value a
    later {!insert} installs. *)

val insert : t -> ticket -> string -> unit
(** Install or overwrite the ticket's key with the value (evicting
    round-robin within its set when full) — unless a key of the same
    set was invalidated since the ticket was taken: the value may then
    predate that mutation, and the fill drops itself. The value must be
    durable at call time: fills come from committed reads, never staged
    state. *)

val invalidate : t -> string -> unit
(** Drop [key]'s entry if present and bump its set's generation, which
    drops every fill ticketed before. Mutation sites call this at stage
    time — before the deferred commit — so a concurrent reader can
    never observe a value newer than the durable state allows. *)

val clear : t -> unit

val live : t -> int
(** Number of valid entries (test aid; racy while writers run). *)

val stats : t -> stats
val reset_stats : t -> unit

val zero_stats : stats
val merge_stats : stats list -> stats
(** Elementwise sum, for per-shard caches after the drivers join. *)

val hit_rate : stats -> float
val pp_stats : Format.formatter -> stats -> unit

val hash : string -> int
(** FNV-1a folded to the 63-bit word; cmap hashes its buckets with it. *)
