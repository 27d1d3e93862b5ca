(** Fault model of the in-process replication channel.

    Message loss for the batch-replication layer, seeded and
    reproducible: the verdict stream is a pure function of the seed and
    the attempt sequence, so a torture replay sees the same drops at the
    same points every time. Data sends and heartbeats share one channel
    — a channel bad enough to drop commits also misses heartbeats, which
    is what drives the failure detector. *)

type t

type stats = {
  nf_attempts : int;  (** send attempts asked for a verdict *)
  nf_dropped : int;   (** attempts that were dropped *)
}

val create : ?seed:int -> ?drop_rate:float -> unit -> t
(** [drop_rate] (default 0) is the per-attempt loss probability, in
    [0, 1). Raises [Invalid_argument] outside that range. *)

val attempt : t -> bool
(** Verdict for one send attempt: [true] = delivered. *)

val stats : t -> stats
