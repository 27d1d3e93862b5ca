(* A "machine": one simulated address space with a volatile heap and any
   number of PM pools, with uuid-based pool resolution.

   This is why PMEMoids carry a pool uuid at all (paper §II-B): an
   application may map several pools, each at a different base across
   runs, and pmemobj_direct must dispatch on the oid's pool. Pools are
   mapped to the lower part of the address space, one after another
   (PMEM_MMAP_HINT = 0 in the paper's configuration); the volatile heap
   lives high. *)

open Spp_sim

type t = {
  space : Space.t;
  vheap : Vheap.t;
  mutable pools : (int * Pool.t) list;   (* uuid -> pool *)
  mutable next_base : int;
}

let first_pool_base = 4096

let create () =
  let space = Space.create () in
  let vheap = Vheap.create space (1 lsl 22) in
  { space; vheap; pools = []; next_base = first_pool_base }

let space t = t.space
let vheap t = t.vheap

let register t pool =
  t.pools <- (Pool.uuid pool, pool) :: t.pools

let create_pool t ~size ~mode ~name =
  let base = t.next_base in
  let pool = Pool.create t.space ~base ~size ~mode ~name in
  t.next_base <- base + size + 4096;   (* guard gap between pools *)
  register t pool;
  pool

let open_pool t dev =
  let base = t.next_base in
  let pool = Pool.of_dev t.space ~base dev in
  t.next_base <- base + Memdev.size dev + 4096;
  register t pool;
  pool

let pool_of_uuid t uuid = List.assoc_opt uuid t.pools

(* pmemobj_direct over every mapped pool: dispatch on the oid's uuid. *)
let direct t (oid : Oid.t) =
  if Oid.is_null oid then 0
  else
    match pool_of_uuid t oid.Oid.uuid with
    | Some pool -> Pool.direct pool oid
    | None -> raise (Pool.Wrong_pool oid)
