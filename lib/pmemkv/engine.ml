(* engine — the one way into a storage engine.

   pmemkv ships interchangeable storage engines behind one API; this
   module is our version of that seam. An engine owns a durable
   key/value structure inside one pool and supplies only what differs
   between engines: building and re-attaching the structure, its
   durable root, a count of its entries, and [exec], which runs one op
   inside an open redo batch. Everything around an op lives here, in
   [run_batch]:

   - every op — a served batch's, or a synchronous [get], [put],
     [remove] or [scan], which is a one-op batch — runs inside
     [Pool.with_batch], so every entry into an engine holds the pool's
     lane (its transaction lane and allocator lock) and every engine
     read runs inside a batch: the lane serializes the domains that use
     one pool, and with them the pool's Space and device counters;
   - [run_batch] opens and closes each op ([Redo.batch_op_begin] /
     [batch_op_end]), so consecutive ops share a staged log and one
     fence schedule per sub-batch, and crash recovery lands on a
     whole-op prefix;
   - the volatile read cache lives in [packed], and [run_batch]
     invalidates and fills it around each op.

   Each engine has one reader and one writer, both through the access
   layer's variant: one check per window, each window sized to the
   bytes it reads, keys compared against the device view without
   materializing candidates, a value copied out exactly once
   ([read_sub] / [view_string]), and every fresh block stored through
   the variant's range check ([store_fresh]). So every read and write
   an engine serves passes the variant's check.

   The shard/serve/replica stack is written against [packed] values —
   an engine module paired with its state, its pool and its cache — so
   a shard's engine is chosen at [Shard.create] time and everything
   above it stays engine-agnostic. *)

open Spp_pmdk

(* Batch programs are shared across engines so the serving layer can
   build them without knowing which engine executes them. *)

type batch_op =
  | B_put of { key : string; value : string }
  | B_get of string
  | B_remove of string
  | B_scan of { lo : string; hi : string; limit : int }

type batch_reply =
  | R_put
  | R_get of string option
  | R_removed of bool
  | R_scan of (string * string) list

(* Store bytes [pos, pos + len) of [buf] at the same offset of the
   fresh block [oid], through the variant's check of the whole range
   ([a.check_range]) and then one store past the log
   ([Pool.batch_write]). Every fresh entry, item and node an engine
   writes goes through here. *)
let store_fresh (a : Spp_access.t) bt (oid : Oid.t) buf ~pos ~len =
  let p = a.direct oid in
  let p = if pos = 0 then p else a.gep p pos in
  let addr = a.check_range p len in
  Pool.batch_write a.pool bt ~off:(Pool.off_of_addr a.pool addr) buf ~pos ~len

module type S = sig
  type t

  val name : string

  val create : ?nbuckets:int -> Spp_access.t -> t
  (** Build a fresh map in the access layer's pool. [nbuckets] sizes
      hash engines; ordered engines ignore it. *)

  val attach : Spp_access.t -> root:Oid.t -> t
  (** Re-attach to an existing map after a pool reopen given its root
      oid ({!root_oid} of the original). *)

  val root_oid : t -> Oid.t
  (** The single durable handle — park it in the pool root so the map
      survives a restart. *)

  val count_all : t -> Redo.batch -> int
  (** Live entries, read through the open batch. *)

  val exec : t -> Redo.batch -> batch_op -> batch_reply
  (** Run one op inside the batch's open operation: reads see the ops
      staged before it, and a mutation stages its words and stores its
      fresh blocks there. A scan returns at most [limit] pairs with
      [lo <= key <= hi], ascending by key. *)
end

type spec = (module S)
(** An engine module, before it is given state — what [Shard.create]
    and the registries in {!Engines} traffic in. *)

type packed =
  | Packed : {
      e : (module S with type t = 'a);
      st : 'a;
      pool : Pool.t;
      mutable cache : Rcache.t option;   (* volatile, never reattached *)
    }
      -> packed
(** An engine module paired with one live map, its pool and its read
    cache. *)

let create ?nbuckets (module E : S) (a : Spp_access.t) =
  Packed
    { e = (module E); st = E.create ?nbuckets a; pool = a.pool; cache = None }

(* The cache is volatile by design: a re-attached map starts cold. *)
let attach (module E : S) (a : Spp_access.t) ~root =
  Packed { e = (module E); st = E.attach a ~root; pool = a.pool; cache = None }

let spec_name (module E : S) = E.name
let name (Packed { e = (module E); _ }) = E.name
let root_oid (Packed { e = (module E); st; _ }) = E.root_oid st

let set_cache (Packed k) c = k.cache <- c
let cache (Packed k) = k.cache

(* Lock-free from any domain: the serve layer's fast path probes from
   submitting domains, where the shard's simulator state (Space stats,
   Memdev) must not be touched. *)
let cache_probe (Packed k) key =
  match k.cache with None -> None | Some rc -> Rcache.probe rc key

let cache_invalidate (Packed k) key =
  match k.cache with None -> () | Some rc -> Rcache.invalidate rc key

(* [run_batch]: ops [0, len) run inside one [Pool.with_batch], each
   between its own op boundaries, and once the batch is durable their
   cache fills replay in op order — a get fills the value it returned, a
   put the value it made durable. A mutation's key is invalidated before
   the op stages, so a concurrent fast-path reader never observes a
   value newer than the durable state allows. A get's fill ticket is
   taken before it reads, a put's after it stages, so a key invalidated
   in between — a mutation submitted while the batch runs, or a later
   remove or put of the same batch — drops the fill instead of
   resurrecting an older value. On a crash the exception propagates
   before the replay and only the stage-time invalidations remain:
   conservative, never wrong. *)
let run_batch ?len (Packed { e = (module E); st; pool; cache }) ops =
  let n =
    match len with
    | None -> Array.length ops
    | Some l ->
      if l < 0 || l > Array.length ops then
        invalid_arg "Engine.run_batch: len out of range";
      l
  in
  let tickets = if Option.is_none cache then [||] else Array.make n None in
  let replies =
    Pool.with_batch pool (fun bt ->
      Array.init n (fun i ->
        let op = ops.(i) in
        Redo.batch_op_begin bt;
        (match (op, cache) with
         | B_get key, Some rc -> tickets.(i) <- Some (Rcache.ticket rc key)
         | (B_put { key; _ } | B_remove key), Some rc ->
           Rcache.invalidate rc key
         | _ -> ());
        let r = E.exec st bt op in
        (match (op, cache) with
         | B_put { key; _ }, Some rc ->
           tickets.(i) <- Some (Rcache.ticket rc key)
         | _ -> ());
        Redo.batch_op_end bt;
        r))
  in
  (match cache with
   | None -> ()
   | Some rc ->
     Array.iteri
       (fun i tk ->
         match (tk, ops.(i), replies.(i)) with
         | Some tk, B_get _, R_get (Some v)
         | Some tk, B_put { value = v; _ }, _ ->
           Rcache.insert rc tk v
         | _ -> ())
       tickets);
  replies

(* The synchronous calls are one-op batches through [run_batch]; a get
   answers a cache hit without entering the engine. *)
let run_one kv op = (run_batch kv [| op |]).(0)

let get kv key =
  match cache_probe kv key with
  | Some _ as hit -> hit
  | None -> (match run_one kv (B_get key) with R_get v -> v | _ -> None)

let put kv ~key ~value = ignore (run_one kv (B_put { key; value }))

let remove kv key =
  match run_one kv (B_remove key) with R_removed b -> b | _ -> false

(* Cache-bypassing: a scan neither probes nor fills the read cache. *)
let scan kv ~lo ~hi ~limit =
  match run_one kv (B_scan { lo; hi; limit }) with R_scan l -> l | _ -> []

let count_all (Packed { e = (module E); st; pool; _ }) =
  Pool.with_batch pool (fun bt -> E.count_all st bt)

(* Merge per-shard scan results (each already ascending and unique —
   shards partition the key space by hash, so no key appears twice)
   into one ascending list of at most [limit] pairs. *)
let merge_scans ~limit lists =
  let cmp (a, _) (b, _) = String.compare a b in
  let merged = List.fold_left (fun acc l -> List.merge cmp acc l) [] lists in
  let rec take n = function
    | x :: tl when n > 0 -> x :: take (n - 1) tl
    | _ -> []
  in
  take limit merged
