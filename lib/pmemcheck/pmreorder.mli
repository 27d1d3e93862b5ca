(** pmreorder — crash-state-space exploration (paper §VI-E).

    Records the store/flush/fence trace of a workload, then enumerates
    durable states a power failure could leave behind (fence-drained
    prefix + any subset of pending stores, exhaustive for small pending
    sets) and runs pool recovery plus a user consistency predicate on
    each state. *)

type result = {
  crash_points : int;
  states_checked : int;
  failures : int;
  first_failure : string option;
}

val pp_result : Format.formatter -> result -> unit

val explore :
  ?subset_limit:int ->
  pool:Spp_pmdk.Pool.t ->
  workload:(unit -> unit) ->
  consistent:(Spp_pmdk.Pool.t -> bool) ->
  unit ->
  result
(** [consistent] receives a fresh pool opened (with full recovery) on
    each candidate durable image; it must not touch the live pool.
    [subset_limit] (default 5) bounds exhaustive subset enumeration;
    larger pending sets fall back to program-order prefixes plus
    singletons. At most 4096 crash states are checked. The live pool's
    device is traced during [workload] and handed back in its prior
    tracking state on return or raise. *)
