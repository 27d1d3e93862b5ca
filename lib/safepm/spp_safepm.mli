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
(** Bytes of poison on each side of every allocation: the width
    [Pool.create ~redzone] must be given for a SafePM pool. *)

type t

val attach_fresh : Pool.t -> t
(** Reserve and poison the shadow block (must be the pool's first
    allocation), then follow the pool's lifetime reports: a live block's
    user range is unpoisoned between poisoned redzones, a dead one's is
    poisoned. Inside a transaction the shadow writes are snapshotted in
    the undo log, so abort or crash rolls the safety metadata back too.
    Raises [Invalid_argument] unless the pool's redzone is {!redzone}. *)

val check : t -> int -> int -> unit
(** [check t addr len] validates an access; raises {!Violation}. *)
