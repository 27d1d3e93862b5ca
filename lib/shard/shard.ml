(* Domain-parallel sharded KV serving path.

   The unit of parallelism is the pool, exactly PMDK's per-pool
   concurrency model: one shard owns one full simulator stack — a
   persistent Memdev, a Space, a Pool and a KV engine over it — so no
   simulator state is ever mutated from two domains. A hash router
   partitions the key space across shards; after the driving domains
   join, per-shard [Space]/[Memdev] stats are snapshotted and merged
   into one aggregate view.

   No mutable state is shared across domains on the serving path: each
   shard's Memdev/Space/Pool belong to one domain, and the SPP hook-call
   counters are domain-local ([Spp_core.Runtime.local_counters]), so
   concurrent shards neither lose increments nor ping-pong a shared
   cache line on every pointer operation. *)

open Spp_pmdk

type shard = {
  access : Spp_access.t;
  kv : Spp_pmemkv.Engine.packed;
}

(* Slot map: keys hash into a fixed power-of-two slot space and a
   versioned slot->shard table routes ops. The table is an immutable
   snapshot behind an [Atomic.t]: readers grab one coherent assignment
   with a single load, writers (the serve layer's migration protocol,
   serialized by its migration lock) install a fresh copy with a bumped
   version. Moving a slot between shards is therefore one atomic
   pointer swap — no reader ever observes a half-updated table. *)
type slot_table = { st_version : int; st_assign : int array }

type t = {
  shards : shard array;
  variant : Spp_access.variant;
  engine : Spp_pmemkv.Engine.spec;
  nslots : int;
  table : slot_table Atomic.t;
}

let nshards t = Array.length t.shards
let engine t = t.engine
let engine_name t = Spp_pmemkv.Engine.spec_name t.engine
let shard t i = t.shards.(i)
let shard_access (s : shard) = s.access
let shard_kv (s : shard) = s.kv

(* Router hash: FNV-1a folded through a splitmix-style finalizer —
   deliberately a different function from Cmap's plain FNV bucket hash,
   so shard choice and bucket choice stay uncorrelated (a correlated
   pair would leave most buckets of every shard permanently empty). *)
let route_hash key =
  let h = ref 0x5bf03635aaf24325 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) key;
  let h = !h land max_int in
  let h = h lxor (h lsr 30) in
  let h = h * 0x4cf5ad432745937 land max_int in
  let h = h lxor (h lsr 27) in
  h land max_int

let default_nslots = 1024

let slot_of_key ~nslots key = route_hash key land (nslots - 1)

(* The static default assignment: slot [s] lives on shard [s mod
   nshards]. [shard_of_key] stays a pure function of key and shard
   count — it is the no-migration routing every differential baseline
   partitions by, and it agrees with [route] on any freshly created
   store with the default slot count. *)
let shard_of_key ~nshards key =
  if nshards <= 0 then invalid_arg "Shard.shard_of_key: no shards";
  slot_of_key ~nslots:default_nslots key mod nshards

let nslots t = t.nslots
let slot_of t key = slot_of_key ~nslots:t.nslots key
let table_version t = (Atomic.get t.table).st_version
let owner t slot = (Atomic.get t.table).st_assign.(slot)
let assignment t = Array.copy (Atomic.get t.table).st_assign
let route t key = (Atomic.get t.table).st_assign.(slot_of t key)

(* Single-writer: callers (the serve layer's migration flip, under its
   migration lock) serialize table updates; readers always see either
   the old or the new immutable snapshot. *)
let set_slot_owner t ~slot ~shard =
  if slot < 0 || slot >= t.nslots then
    invalid_arg "Shard.set_slot_owner: slot out of range";
  if shard < 0 || shard >= Array.length t.shards then
    invalid_arg "Shard.set_slot_owner: shard out of range";
  let cur = Atomic.get t.table in
  let assign = Array.copy cur.st_assign in
  assign.(slot) <- shard;
  Atomic.set t.table { st_version = cur.st_version + 1; st_assign = assign }

let owned_slots t i =
  let a = (Atomic.get t.table).st_assign in
  let n = ref 0 in
  Array.iter (fun s -> if s = i then incr n) a;
  !n

let slots_of_shard t i =
  let a = (Atomic.get t.table).st_assign in
  let acc = ref [] in
  for s = t.nslots - 1 downto 0 do
    if a.(s) = i then acc := s :: !acc
  done;
  !acc

let create ?(nbuckets = 1024) ?(pool_size = 1 lsl 23) ?(cache_cap = 0)
    ?(engine = Spp_pmemkv.Engines.cmap) ?(nslots = default_nslots) ~nshards
    variant =
  if nshards <= 0 then invalid_arg "Shard.create: nshards must be positive";
  if nslots <= 0 || nslots land (nslots - 1) <> 0 then
    invalid_arg "Shard.create: nslots must be a positive power of two";
  let shards =
    Array.init nshards (fun index ->
      let access =
        Spp_access.create ~pool_size
          ~name:
            (Printf.sprintf "%s-shard%d" (Spp_access.variant_name variant)
               index)
          variant
      in
      let kv = Spp_pmemkv.Engine.create ~nbuckets engine access in
      (* Park the engine's root oid in the pool root: the durable
         handle a reopening process — or a replica promoted after a
         primary failure — needs to re-attach the map without any
         volatile state from this stack. Same discipline as the torture
         workloads. *)
      let pool = access.Spp_access.pool in
      let root = access.Spp_access.root access.Spp_access.oid_size in
      Pool.store_oid pool ~off:root.Oid.off (Spp_pmemkv.Engine.root_oid kv);
      Pool.persist pool ~off:root.Oid.off ~len:access.Spp_access.oid_size;
      (* One DRAM read cache per shard: written by the domain holding
         the shard on the serving path, lock-free readers from any
         submitting domain. *)
      if cache_cap > 0 then
        Spp_pmemkv.Engine.set_cache kv
          (Some (Spp_pmemkv.Rcache.create ~cap:cache_cap));
      { access; kv })
  in
  let assign = Array.init nslots (fun s -> s mod nshards) in
  {
    shards;
    variant;
    engine;
    nslots;
    table = Atomic.make { st_version = 0; st_assign = assign };
  }

(* Failover repoint: swap a shard's stack for a promoted replica's. The
   router is pure (key -> index), so the swap changes which stack an
   index resolves to without moving any key. Caller (the serve layer,
   holding the shard) must guarantee no other domain is inside the old
   stack. *)
let set_shard t i ~access ~kv =
  if i < 0 || i >= Array.length t.shards then
    invalid_arg "Shard.set_shard: index out of range";
  t.shards.(i) <- { access; kv }

(* Routed single-key operations — the serving interface. *)

let put t ~key ~value =
  Spp_pmemkv.Engine.put t.shards.(route t key).kv ~key ~value

let get t key = Spp_pmemkv.Engine.get t.shards.(route t key).kv key

let remove t key = Spp_pmemkv.Engine.remove t.shards.(route t key).kv key

let count_all t =
  Array.fold_left
    (fun acc s -> acc + Spp_pmemkv.Engine.count_all s.kv)
    0 t.shards

(* Merged accounting. Reading a shard's stats is only race-free once the
   domain driving it has joined; callers sequence that, we just sum. *)

let merged_stats t =
  Spp_sim.Space.merge_stats
    (Array.to_list
       (Array.map
          (fun s -> Spp_sim.Space.snapshot_stats s.access.Spp_access.space)
          t.shards))

let merged_counters t =
  Spp_sim.Memdev.merge_counters
    (Array.to_list
       (Array.map
          (fun s -> Spp_sim.Memdev.counters (Pool.dev s.access.Spp_access.pool))
          t.shards))

let merged_cache_stats t =
  Spp_pmemkv.Rcache.merge_stats
    (Array.to_list
       (Array.map
          (fun s ->
            match Spp_pmemkv.Engine.cache s.kv with
            | Some rc -> Spp_pmemkv.Rcache.stats rc
            | None -> Spp_pmemkv.Rcache.zero_stats)
          t.shards))

let cache_enabled t =
  Array.exists (fun s -> Spp_pmemkv.Engine.cache s.kv <> None) t.shards

let reset_stats t =
  Array.iter
    (fun s ->
      Spp_sim.Space.reset_stats s.access.Spp_access.space;
      Spp_sim.Memdev.reset_counters (Pool.dev s.access.Spp_access.pool);
      match Spp_pmemkv.Engine.cache s.kv with
      | Some rc -> Spp_pmemkv.Rcache.reset_stats rc
      | None -> ())
    t.shards
