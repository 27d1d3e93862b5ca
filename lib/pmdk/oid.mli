(** PMEMoid — the persistent pointer (paper §II-B, §IV-B).

    Native PMDK stores [{ pool_uuid; off }] (16 B); SPP adds the object
    [size] (24 B), which is what lets [pmemobj_direct] rebuild the pointer
    tag across restarts and crashes. The [size] field exists in the record
    in both modes but reaches PM only in SPP mode. *)

type t = {
  uuid : int;
  off : int;
  size : int;
}

val null : t
val is_null : t -> bool
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
