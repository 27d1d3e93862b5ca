(* SafePM baseline (Bozdoğan et al., EuroSys'22) — the paper's
   state-of-the-art comparator (§II-D, Table I).

   SafePM is an ASan-style shadow-memory sanitizer for PM: a portion of
   the pool is reserved for persistent shadow bytes (1 shadow byte per 8
   pool bytes), allocations are padded with poisoned redzones, and every
   load/store consults the shadow. The shadow lives in PM and is persisted
   with allocator operations, so memory-safety metadata survives crashes.
   The pool pads every allocation (its [redzone] is this module's) and
   reports each block's lifetime; the shadow follows those reports, so
   every allocation path — atomic, transactional, group commit — keeps it
   exact.

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

(* Shadow bytes are ordinary pool data: when mutated inside a transaction
   they are snapshotted first, so an abort (or crash) rolls the safety
   metadata back together with the data — SafePM's crash-consistency
   discipline. *)
let tx_guard_shadow t ~off ~len =
  if len > 0 && Pool.in_tx t.pool then begin
    let first = shadow_index off and last = shadow_index (off + len - 1) in
    Pool.tx_add_range t.pool ~off:(t.shadow_off + first) ~len:(last - first + 1)
  end

(* Poison [off, off+len): one fill of its shadow, as ASan memsets its
   shadow, snapshotted inside a transaction and persisted. *)
let poison t ~off ~len =
  tx_guard_shadow t ~off ~len;
  if len > 0 then begin
    let space = Pool.space t.pool in
    let first = shadow_index off and last = shadow_index (off + len - 1) in
    Space.fill space (shadow_addr t first) (last - first + 1)
      (Char.chr poisoned);
    Space.persist space (shadow_addr t first) (last - first + 1)
  end

(* A block becoming live: its left redzone, the object and its right
   redzone are one contiguous shadow range, composed in DRAM — poisoned,
   then the object's granules cleared and its partial granule's byte
   set — snapshotted once inside a transaction, stored once and
   persisted once. The right redzone starts at the granule after the
   object's last, so it never clobbers the partial-granule byte that
   makes the tail of an unaligned object addressable (ASan aligns
   redzones the same way). *)
let apply_zones t ~user_off ~size =
  let off = user_off - redzone and len = size + (2 * redzone) in
  tx_guard_shadow t ~off ~len;
  let first = shadow_index off in
  let b =
    Bytes.make (shadow_index (off + len - 1) - first + 1) (Char.chr poisoned)
  in
  if size > 0 then begin
    let lo = shadow_index user_off - first
    and hi = shadow_index (user_off + size - 1) - first in
    Bytes.fill b lo (hi - lo + 1) '\000';
    let tail = (user_off + size) land (shadow_scale - 1) in
    if tail <> 0 then Bytes.set b hi (Char.chr tail)
  end;
  let space = Pool.space t.pool in
  Space.write_bytes space (shadow_addr t first) b;
  Space.persist space (shadow_addr t first) (Bytes.length b)

let attach_fresh pool =
  if Pool.redzone pool <> redzone then
    invalid_arg "Spp_safepm.attach_fresh: pool redzone is not Spp_safepm's";
  let oid = Pool.alloc pool ~size:(shadow_bytes_for_pool (Pool.size pool)) in
  let t = { pool; shadow_off = oid.Oid.off } in
  (* Everything starts poisoned; live blocks are unpoisoned as the pool
     reports them. *)
  poison t ~off:0 ~len:(Pool.size pool);
  Pool.set_lifetime_observer pool
    (Some
       (fun ev (oid : Oid.t) ->
         match ev with
         | Pool.Live -> apply_zones t ~user_off:oid.Oid.off ~size:oid.Oid.size
         | Pool.Dead -> poison t ~off:oid.Oid.off ~len:oid.Oid.size));
  t

(* The access check: every granule the access touches must be
   addressable. This is the per-ld/st shadow lookup — an actual extra PM
   load in the simulator, reproducing SafePM's dominant runtime cost. *)

let check t addr len =
  if len < 0 then raise (Violation { addr; len; kind = "negative length" });
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
