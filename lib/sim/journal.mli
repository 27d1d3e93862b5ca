(** Growable-array journal: append-only sequence in program order.

    The backing store doubles on overflow (O(1) amortized push). Used by
    {!Memdev} for the tracking-mode store journal and the event trace,
    where elements are appended in program order and consumed either by
    in-order iteration or by a bulk conversion at a quiescent point. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val clear : 'a t -> unit
(** Empty the journal and release the backing store. *)

val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array

val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keep only elements satisfying the predicate, preserving order —
    the compaction primitive for journals that mark elements dead
    (fenced) faster than they are cleared. *)
