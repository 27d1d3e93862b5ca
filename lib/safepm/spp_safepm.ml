(* SafePM baseline (Bozdoğan et al., EuroSys'22) — the paper's
   state-of-the-art comparator (§II-D, Table I).

   SafePM is an ASan-style shadow-memory sanitizer for PM: a portion of
   the pool is reserved for persistent shadow bytes (1 shadow byte per 8
   pool bytes), allocations are padded with poisoned redzones, and every
   load/store consults the shadow. The shadow lives in PM and is persisted
   with allocator operations, so memory-safety metadata survives crashes.

   The cost structure this reproduces: every application access performs
   at least one extra PM (shadow) load, and every allocation pays redzone
   space plus shadow maintenance — versus SPP's pure register arithmetic
   and 8-byte-per-PMEMoid overhead. *)

open Spp_sim
open Spp_pmdk

exception Violation of { addr : int; len : int; kind : string }

let () =
  Printexc.register_printer (function
    | Violation { addr; len; kind } ->
      Some (Printf.sprintf
              "SafePM: %s violation on access of %d bytes at 0x%x" kind len addr)
    | _ -> None)

let redzone = 32
(* Bytes of poison on each side of every allocation; multiple of the
   8-byte shadow granularity. *)

let shadow_scale = 8

type t = {
  pool : Pool.t;
  shadow_off : int;       (* pool offset of the shadow block *)
  mutable checks : int;   (* accesses validated *)
}

(* Shadow byte semantics (ASan): 0 = granule fully addressable,
   1..7 = only the first k bytes addressable, 0xFF = poisoned. *)

let poisoned = 0xFF

let shadow_index off = off / shadow_scale

let shadow_bytes_for_pool pool_size =
  (pool_size + shadow_scale - 1) / shadow_scale

(* The shadow block is the first allocation in the pool, so its offset is
   deterministic and can be recomputed when the pool is reopened. *)

let shadow_addr t idx = Pool.addr_of_off t.pool (t.shadow_off + idx)

let set_shadow t ~off ~len v =
  if len > 0 then begin
    let first = shadow_index off in
    let last = shadow_index (off + len - 1) in
    for i = first to last do
      Space.store_u8 (Pool.space t.pool) (shadow_addr t i) v
    done;
    Space.persist (Pool.space t.pool) (shadow_addr t first) (last - first + 1)
  end

(* Shadow bytes are ordinary pool data: when mutated inside a transaction
   they are snapshotted first, so an abort (or crash) rolls the safety
   metadata back together with the data — SafePM's crash-consistency
   discipline. *)
let tx_guard_shadow t ~off ~len =
  if len > 0 && Pool.in_tx t.pool then begin
    let first = shadow_index off and last = shadow_index (off + len - 1) in
    Pool.tx_add_range t.pool ~off:(t.shadow_off + first) ~len:(last - first + 1)
  end

(* Unpoison [off, off+len): full granules 0, the trailing partial granule
   records how many leading bytes are valid. *)
let unpoison t ~off ~len =
  tx_guard_shadow t ~off ~len;
  let first = shadow_index off in
  let last = shadow_index (off + len - 1) in
  for i = first to last do
    Space.store_u8 (Pool.space t.pool) (shadow_addr t i) 0
  done;
  let tail = (off + len) land (shadow_scale - 1) in
  if tail <> 0 then
    Space.store_u8 (Pool.space t.pool) (shadow_addr t last) tail;
  Space.persist (Pool.space t.pool) (shadow_addr t first) (last - first + 1)

let poison t ~off ~len =
  tx_guard_shadow t ~off ~len;
  set_shadow t ~off ~len poisoned

let attach_fresh pool =
  let oid = Pool.alloc pool ~size:(shadow_bytes_for_pool (Pool.size pool)) in
  let t = { pool; shadow_off = oid.Oid.off; checks = 0 } in
  (* Everything starts poisoned; the allocator unpoisons user data. *)
  poison t ~off:0 ~len:(Pool.size pool);
  t

(* The access check: every granule the access touches must be
   addressable. This is the per-ld/st shadow lookup — an actual extra PM
   load in the simulator, reproducing SafePM's dominant runtime cost. *)

let check t addr len =
  t.checks <- t.checks + 1;
  let off = Pool.off_of_addr t.pool addr in
  if off < 0 || off + len > Pool.size t.pool then
    raise (Violation { addr; len; kind = "out-of-pool" });
  let space = Pool.space t.pool in
  let first = shadow_index off in
  let last = shadow_index (off + len - 1) in
  for i = first to last do
    let s = Space.load_u8 space (shadow_addr t i) in
    if s <> 0 then begin
      if s = poisoned then
        raise (Violation { addr; len; kind = "poisoned (redzone or freed)" });
      (* partial granule: valid bytes are [granule, granule + s) *)
      let granule = i * shadow_scale in
      let hi = min (off + len) (granule + shadow_scale) in
      if hi > granule + s then
        raise (Violation { addr; len; kind = "partial-granule overflow" })
    end
  done

(* Allocator wrappers: pad with redzones, maintain the shadow. The oid
   handed to the application points at the user range. *)

(* The right redzone must start at a shadow-granule boundary, or its
   poisoning would clobber the partial-granule byte that makes the tail
   of an unaligned object addressable (ASan aligns redzones the same
   way). *)
let apply_zones t ~under_off ~user_off ~size =
  poison t ~off:under_off ~len:redzone;
  unpoison t ~off:user_off ~len:size;
  let right = (user_off + size + shadow_scale - 1) / shadow_scale * shadow_scale in
  poison t ~off:right ~len:(user_off + size + redzone - right)

let alloc ?(zero = false) t ~size =
  let under = Pool.alloc ~zero t.pool ~size:(size + (2 * redzone)) in
  let user_off = under.Oid.off + redzone in
  apply_zones t ~under_off:under.Oid.off ~user_off ~size;
  { Oid.uuid = under.Oid.uuid; off = user_off; size }

let underlying_oid t (oid : Oid.t) =
  let under_off = oid.Oid.off - redzone in
  let probe = { Oid.uuid = oid.Oid.uuid; off = under_off; size = 0 } in
  { probe with Oid.size = Pool.alloc_size t.pool probe }

let user_size t (oid : Oid.t) =
  (underlying_oid t oid).Oid.size - (2 * redzone)

let free t (oid : Oid.t) =
  let under = underlying_oid t oid in
  poison t ~off:oid.Oid.off ~len:(user_size t oid);
  Pool.free_ t.pool { under with Oid.size = 0 }

(* Transactional variants: same redzone/shadow discipline over the pool's
   tx allocator. *)

let tx_alloc ?(zero = false) t ~size =
  let under = Pool.tx_alloc ~zero t.pool ~size:(size + (2 * redzone)) in
  let user_off = under.Oid.off + redzone in
  apply_zones t ~under_off:under.Oid.off ~user_off ~size;
  { Oid.uuid = under.Oid.uuid; off = user_off; size }

let tx_free t (oid : Oid.t) =
  if not (Oid.is_null oid) then begin
    let under = underlying_oid t oid in
    poison t ~off:oid.Oid.off ~len:(user_size t oid);
    Pool.tx_free t.pool { under with Oid.size = 0 }
  end

let realloc t (oid : Oid.t) ~size =
  if Oid.is_null oid then alloc t ~size
  else begin
    let old_size = user_size t oid in
    let fresh = alloc t ~size in
    Space.blit (Pool.space t.pool)
      ~src:(Pool.addr_of_off t.pool oid.Oid.off)
      ~dst:(Pool.addr_of_off t.pool fresh.Oid.off)
      ~len:(min old_size size);
    free t oid;
    fresh
  end

let checks_performed t = t.checks
let pool t = t.pool
