(* cmap — the concurrent persistent hashmap engine of pmemkv (the paper's
   §VI-B KV-store benchmark uses pmemkv's non-experimental concurrent
   engine).

   Fixed bucket array in PM; each bucket is a chain of entry objects:

     entry: [ next oid | key len | value len | key bytes | value bytes ]

   Every mutation is a group-commit op ([run_batch]): a put composes a
   fresh entry, stores it through the variant's range check while it is
   unreachable and stages only the link oid that publishes it; a remove
   stages the unlinking oid. A synchronous [put]/[remove] is a one-op
   batch.

   Concurrency: striped per-bucket mutexes protect chains for readers
   and synchronous writers, which hold the key's stripe until their
   one-op commit returns; commits additionally serialize on the pool's
   single lane (as PMDK writers contend for lanes). *)

open Spp_pmdk
open Spp_access
module Space = Spp_sim.Space

type t = {
  a : Spp_access.t;
  nbuckets : int;
  buckets : Oid.t;                 (* array object of oid slots *)
  locks : Mutex.t array;           (* lock striping *)
  mutable cache : Rcache.t option; (* volatile DRAM read cache *)
}

let name = "cmap"

let nstripes = 256

let f_next = 0
let f_klen (a : Spp_access.t) = a.oid_size
let f_vlen (a : Spp_access.t) = a.oid_size + 8
let f_key (a : Spp_access.t) = a.oid_size + 16
let f_value (a : Spp_access.t) klen = a.oid_size + 16 + klen

let entry_size (a : Spp_access.t) ~klen ~vlen = a.oid_size + 16 + klen + vlen

let create ?(nbuckets = 4096) (a : Spp_access.t) =
  let buckets = a.palloc ~zero:true (nbuckets * a.oid_size) in
  { a; nbuckets; buckets;
    locks = Array.init nstripes (fun _ -> Mutex.create ());
    cache = None }

let buckets_oid t = t.buckets
let root_oid = buckets_oid

let attach (a : Spp_access.t) ~buckets =
  (* The bucket count is recovered from the array object's durable
     requested size — the oid is all a reopening process needs to keep.
     The cache is volatile by design: a reopened map always starts cold
     (attach a fresh one with [set_cache] if wanted). *)
  let nbuckets = Pool.alloc_size a.pool buckets / a.oid_size in
  if nbuckets <= 0 then invalid_arg "Cmap.attach: bucket array too small";
  { a; nbuckets; buckets;
    locks = Array.init nstripes (fun _ -> Mutex.create ());
    cache = None }

let set_cache t c = t.cache <- c
let cache t = t.cache

(* Probe without touching PM — the serve layer's fast path calls this
   from submitting domains, where the shard's simulator state (Space
   stats, Memdev) must not be mutated. *)
let cache_probe t key =
  match t.cache with None -> None | Some rc -> Rcache.probe rc key

let cache_invalidate t key =
  match t.cache with None -> () | Some rc -> Rcache.invalidate rc key

(* FNV-1a on 63-bit words, shared with the read cache's set index. *)
let bucket_of t key = Rcache.hash key mod t.nbuckets

let with_bucket t b f =
  let m = t.locks.(b mod nstripes) in
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let bucket_slot_off t b = t.buckets.Oid.off + (b * t.a.oid_size)

(* ------------------------------------------------------------------ *)
(* The reader: one chain walk for every op                             *)
(* ------------------------------------------------------------------ *)

(* Link words (bucket heads and [next] fields) are read by pool offset:
   through the batch overlay inside a batch ([bt]), so an op sees the
   links earlier ops staged, and from PM outside one. Every other entry
   byte is read through the variant on [t.a.direct], one check per
   window, each window sized to the bytes the reader uses: [klen], then
   the key only when the lengths agree, then [vlen] and the value. *)
let load_link t bt off =
  match bt with
  | Some bt -> Pool.batch_load_oid t.a.pool bt ~off
  | None -> Pool.load_oid t.a.pool ~off

(* A found entry, with the pool offset of the link that points at it. *)
type hit = { link : int; entry : Oid.t; p : int }

let rec walk t bt key link =
  let entry = load_link t bt link in
  if Oid.is_null entry then None
  else begin
    let p = t.a.direct entry in
    let klen = String.length key in
    if
      t.a.load_word (t.a.gep p (f_klen t.a)) = klen
      && (klen = 0
          || Space.view_equal_string (t.a.view (t.a.gep p (f_key t.a)) klen)
               ~off:0 key)
    then Some { link; entry; p }
    else walk t bt key (entry.Oid.off + f_next)
  end

let find t bt b key = walk t bt key (bucket_slot_off t b)

let entry_value t p ~klen =
  let vlen = t.a.load_word (t.a.gep p (f_vlen t.a)) in
  t.a.read_sub (t.a.gep p (f_value t.a klen)) vlen

let lookup t bt b key =
  match find t bt b key with
  | None -> None
  | Some h -> Some (entry_value t h.p ~klen:(String.length key))

(* Every entry of bucket [b] in chain order, as [f entry p]. *)
let iter_chain t bt b f =
  let rec go link =
    let e = load_link t bt link in
    if not (Oid.is_null e) then begin
      f e (t.a.direct e);
      go (e.Oid.off + f_next)
    end
  in
  go (bucket_slot_off t b)

(* The key of entry [p] when it lies in [lo, hi]: range-tested against
   a window over its bytes and copied only when in range. *)
let key_in_range t p ~lo ~hi =
  let klen = t.a.load_word (t.a.gep p (f_klen t.a)) in
  if klen = 0 then if lo = "" then Some "" else None
  else begin
    let kv = t.a.view (t.a.gep p (f_key t.a)) klen in
    if
      Space.view_compare_string kv ~off:0 ~len:klen lo >= 0
      && Space.view_compare_string kv ~off:0 ~len:klen hi <= 0
    then Some (Space.view_string kv ~off:0 ~len:klen)
    else None
  end

(* Ordered range scan over a hash layout: walk every bucket chain, keep
   the in-range entries as [f key p], each bucket's walk run inside
   [bucket b]. O(total entries) regardless of the range width — the
   price of scanning an unordered engine, and the baseline the ordered
   [Bmap] engine exists to beat. *)
let scan_chains t bt ~lo ~hi ~bucket f =
  let acc = ref [] in
  for b = 0 to t.nbuckets - 1 do
    bucket b (fun () ->
      iter_chain t bt b (fun _ p ->
        match key_in_range t p ~lo ~hi with
        | Some k -> acc := f k p :: !acc
        | None -> ()))
  done;
  !acc

(* Clip an unordered (key, _) accumulation to the scan contract:
   ascending by key, at most [limit] pairs. *)
let clip_scan ~limit acc =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) acc in
  let rec take n = function
    | x :: tl when n > 0 -> x :: take (n - 1) tl
    | _ -> []
  in
  take limit sorted

let get t key =
  match cache_probe t key with
  | Some _ as hit -> hit
  | None ->
    let b = bucket_of t key in
    with_bucket t b (fun () ->
      (* Fill under the bucket stripe, which same-key writers hold; the
         ticket drops the fill if a submitter invalidated the key after
         this read began. *)
      let tk = Option.map (fun rc -> (rc, Rcache.ticket rc key)) t.cache in
      let v = lookup t None b key in
      (match (v, tk) with
       | Some v, Some (rc, tk) -> Rcache.insert rc tk v
       | _ -> ());
      v)

(* Cache-bypassing by contract: scans neither probe nor fill the read
   cache. Values are copied under each bucket's stripe lock, while no
   writer can free the entry. *)
let scan t ~lo ~hi ~limit =
  if limit <= 0 || hi < lo then []
  else
    clip_scan ~limit
      (scan_chains t None ~lo ~hi ~bucket:(with_bucket t) (fun k p ->
         (k, entry_value t p ~klen:(String.length k))))

(* ------------------------------------------------------------------ *)
(* Group-committed multi-op entry point                                 *)
(* ------------------------------------------------------------------ *)

(* [run_batch] executes a whole array of operations inside one
   [Pool.with_batch]: every op's redo entries (slot publication,
   allocator updates, frees) ride a shared staged log and the fence
   schedule is paid once per sub-batch instead of once per op. The ops
   are individually atomic on crash — recovery lands on a prefix of
   whole ops — because entries only join the log at op boundaries.

   The ops read through the one chain walk, so every entry byte they
   touch passes the variant's check; only the link words go through the
   batch overlay, so later ops observe earlier ones. A put always
   replaces the entry out of place (an in-place value overwrite would
   tear the durable pre-state before the batch commits), and the fresh
   entry skips the log: it is composed in DRAM and stored with one
   checked store, and only the link oid that publishes it is staged.

   The caller must hold the map exclusively for the duration — stripe
   locks are useless here because the commit applies staged words after
   the per-op critical sections — which is exactly what the per-shard
   serve queue provides. *)

type batch_op = Engine.batch_op =
  | B_put of { key : string; value : string }
  | B_get of string
  | B_remove of string
  | B_scan of { lo : string; hi : string; limit : int }

type batch_reply = Engine.batch_reply =
  | R_put
  | R_get of string option
  | R_removed of bool
  | R_scan of (string * string) list

(* Fresh entry: allocate through the batch, compose the whole entry in
   the pool's DRAM buffer and store it with one checked store
   ([Engine.store_fresh]) — the block is unreachable until the staged
   slot oid commits, and a replicated pool ships these bytes without
   reading them back — then flush it once; the commit's first fence
   drains it before the log becomes valid. *)
let b_mk_entry t bt ~key ~value ~next =
  let p = t.a.pool in
  let klen = String.length key and vlen = String.length value in
  let size = entry_size t.a ~klen ~vlen in
  let oid = Pool.batch_alloc p bt ~size in
  let buf = Pool.batch_buffer p bt size in
  Pool.put_oid p buf ~pos:f_next next;
  Pool.put_word buf ~pos:(f_klen t.a) klen;
  Pool.put_word buf ~pos:(f_vlen t.a) vlen;
  Bytes.blit_string key 0 buf (f_key t.a) klen;
  Bytes.blit_string value 0 buf (f_value t.a klen) vlen;
  Engine.store_fresh t.a bt oid buf ~pos:0 ~len:size;
  Spp_sim.Space.flush (Pool.space p) (Pool.addr_of_off p oid.Oid.off) size;
  oid

let b_put t bt ~key ~value =
  let p = t.a.pool in
  let b = bucket_of t key in
  Redo.batch_op_begin bt;
  (* Invalidate at stage time, before the deferred commit: a concurrent
     fast-path reader must never observe a value newer than the durable
     state allows under the whole-op-prefix guarantee, and the stale
     pre-batch entry must die before this op's staged words exist. *)
  cache_invalidate t key;
  (match find t (Some bt) b key with
   | Some h ->
     let next = Pool.batch_load_oid p bt ~off:(h.entry.Oid.off + f_next) in
     let fresh = b_mk_entry t bt ~key ~value ~next in
     Pool.batch_stage_oid p bt ~off:h.link ~prev:h.entry fresh;
     Pool.batch_free p bt h.entry
   | None ->
     let slot = bucket_slot_off t b in
     let head = Pool.batch_load_oid p bt ~off:slot in
     let fresh = b_mk_entry t bt ~key ~value ~next:head in
     Pool.batch_stage_oid p bt ~off:slot ~prev:head fresh);
  Redo.batch_op_end bt

let b_get t bt key =
  Redo.batch_op_begin bt;
  let r = lookup t (Some bt) (bucket_of t key) key in
  Redo.batch_op_end bt;
  r

(* Batched scan: the same walk as [scan] but through the batch overlay,
   so a scan placed after a put/remove in the same batch observes it.
   Read-only — stages nothing, touches no cache. Values are read only
   for the pairs that survive the clip, which is safe because the
   caller holds the map exclusively for the batch: no entry can be
   freed between the walk and the reads. *)
let b_scan t bt ~lo ~hi ~limit =
  Redo.batch_op_begin bt;
  let r =
    if limit <= 0 || hi < lo then []
    else
      List.map
        (fun (k, p) -> (k, entry_value t p ~klen:(String.length k)))
        (clip_scan ~limit
           (scan_chains t (Some bt) ~lo ~hi ~bucket:(fun _ f -> f ())
              (fun k p -> (k, p))))
  in
  Redo.batch_op_end bt;
  r

let b_remove t bt key =
  let p = t.a.pool in
  Redo.batch_op_begin bt;
  cache_invalidate t key;
  let r =
    match find t (Some bt) (bucket_of t key) key with
    | None -> false
    | Some h ->
      let next = Pool.batch_load_oid p bt ~off:(h.entry.Oid.off + f_next) in
      Pool.batch_stage_oid p bt ~off:h.link ~prev:h.entry next;
      Pool.batch_free p bt h.entry;
      true
  in
  Redo.batch_op_end bt;
  r

let run_batch ?len t ops =
  Engine.run_cached_batch ?len t.a.pool t.cache ops (fun bt -> function
    | B_put { key; value } -> b_put t bt ~key ~value; R_put
    | B_get key -> R_get (b_get t bt key)
    | B_remove key -> R_removed (b_remove t bt key)
    | B_scan { lo; hi; limit } -> R_scan (b_scan t bt ~lo ~hi ~limit))

(* Synchronous mutations are one-op batches, held under the key's
   bucket stripe until the commit returns, so a get of the key waits
   for the commit while the other stripes stay readable. *)
let put t ~key ~value =
  with_bucket t (bucket_of t key) (fun () ->
    ignore (run_batch t [| B_put { key; value } |]))

let remove t key =
  with_bucket t (bucket_of t key) (fun () ->
    match (run_batch t [| B_remove key |]).(0) with
    | R_removed b -> b
    | _ -> false)

let count_all t =
  let n = ref 0 in
  for b = 0 to t.nbuckets - 1 do
    iter_chain t None b (fun _ _ -> incr n)
  done;
  !n
