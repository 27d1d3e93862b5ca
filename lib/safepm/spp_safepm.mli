(** SafePM baseline (Bozdoğan et al., EuroSys'22) — the paper's
    state-of-the-art comparator (§II-D, Table I).

    ASan-style shadow memory on PM: one persistent shadow byte per 8 pool
    bytes, redzones around every allocation, and a shadow lookup on every
    access. The shadow lives inside the pool and is persisted with
    allocator operations, so safety metadata survives crashes — at the
    cost of an extra PM load per access and redzone space, which is the
    overhead gap SPP's evaluation exploits. *)

open Spp_pmdk

exception Violation of { addr : int; len : int; kind : string }

val redzone : int
val shadow_scale : int

type t

val attach_fresh : Pool.t -> t
(** Reserve and poison the shadow block (must be the pool's first
    allocation). *)

val check : t -> int -> int -> unit
(** [check t addr len] validates an access; raises {!Violation}. *)

val alloc : ?zero:bool -> t -> size:int -> Oid.t
(** Redzone-padded allocation; the returned oid points at the user
    range. *)

val free : t -> Oid.t -> unit
val realloc : t -> Oid.t -> size:int -> Oid.t

val tx_alloc : ?zero:bool -> t -> size:int -> Oid.t
(** Transactional redzoned allocation; the shadow updates are snapshotted
    in the undo log, so abort/crash rolls the safety metadata back too. *)

val tx_free : t -> Oid.t -> unit
val user_size : t -> Oid.t -> int

val poison : t -> off:int -> len:int -> unit
val unpoison : t -> off:int -> len:int -> unit

val checks_performed : t -> int
val pool : t -> Pool.t
