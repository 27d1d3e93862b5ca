(** Pool inspection and integrity checking — the [pmempool info] /
    [pmempool check] analogue.

    {!check} walks the durable heap state and validates the invariants
    the crash-consistency protocol maintains: block headers (size class,
    state word, requested size), root validity, quiescent logs. The
    free lists are volatile and not checked. Used by tests and the
    crash-state explorer as a whole-pool consistency predicate. *)

type issue =
  | Bad_magic
  | Bump_out_of_range of int
  | Bad_block_header of { data_off : int; state : int }
  | Bad_requested_size of { data_off : int; size : int; class_size : int }
  | Root_invalid of Oid.t
  | Redo_log_active
  | Tx_lane_active

val issue_to_string : issue -> string

type info = {
  i_uuid : int;
  i_mode : string;
  i_pool_size : int;
  i_heap_base : int;
  i_heap_used : int;
  i_stats : Heap.stats;
  i_tx_state : int;
  i_redo_valid : bool;
}

val info : Pool.t -> info
val pp_info : Format.formatter -> info -> unit

val check : Pool.t -> issue list
(** Empty list = the pool passes every integrity check. *)

val is_consistent : Pool.t -> bool
