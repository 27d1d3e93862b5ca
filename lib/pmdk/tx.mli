(** Software transactions with a persistent undo log (paper §II-B,
    §IV-F). Internal to the pool facade; use {!Pool} from application
    code (it adds locking).

    Snapshot records hold the pre-image of a range; alloc records roll
    back published allocations on abort/crash; free records defer the
    free to commit. A record is valid only once the persisted
    [ulog_used] covers it. Crash while ACTIVE → rollback; crash while
    COMMITTING → the deferred frees are (idempotently) finished. *)

exception Tx_log_full
exception Not_in_tx
exception Tx_aborted

val in_tx : Rep.t -> bool
val tx_begin : Rep.t -> unit
val add_range : Rep.t -> off:int -> len:int -> unit
val add_range_oid : Rep.t -> Oid.t -> unit
val alloc : Rep.t -> ?zero:bool -> size:int -> unit -> Oid.t
val realloc : Rep.t -> Oid.t -> size:int -> Oid.t
val free : Rep.t -> Oid.t -> unit
val tx_commit : Rep.t -> unit
val tx_abort : Rep.t -> unit

val recover : Rep.t -> [ `Clean | `Rolled_back | `Completed_commit ]
(** Open-time recovery, after {!Redo.recover}. *)

