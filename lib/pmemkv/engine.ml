(* engine — the first-class engine abstraction behind the serving stack.

   pmemkv ships interchangeable storage engines behind one API; this
   module is our version of that seam. An engine owns a durable
   key/value structure inside one pool and exposes point ops, an
   ordered range scan, group-committed batches (the PR-4 redo batch
   discipline: one fence schedule per sub-batch, crash recovery lands
   on a whole-op prefix), a durable re-attach handle (a single root
   oid parked by the caller, e.g. in the pool root), and the volatile
   read-cache hooks the serve fast path relies on.

   Each engine has one reader, shared by its sync ops and its batches,
   and it reads through the access layer's variant: one check per
   window, each window sized to the bytes it reads, keys compared
   against the device view without materializing candidates, and a
   value copied out exactly once ([read_sub] / [view_string]). Each
   engine also has one writer: every mutation is a group-commit op (a
   synchronous put or remove is a one-op batch), and every fresh block
   it composes is stored through the variant's range check
   ([store_fresh]). So every served read and write passes the variant's
   check.

   The shard/serve/replica stack is written against [packed] values —
   an existential pairing of a module implementing [S] with its state —
   so a shard's engine is chosen at [Shard.create] time and everything
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

let batch_key_of = function
  | B_put { key; _ } | B_get key | B_remove key -> key
  | B_scan { lo; _ } -> lo

(* The body of every engine's [run_batch]: ops [0, len) run inside one
   [Pool.with_batch], and once it is durable their cache fills replay in
   op order — a get fills the value it returned, a put the value it made
   durable. A get's fill ticket is taken before it reads, a put's after
   its stage-time invalidation, so a key invalidated in between — a
   mutation submitted while the batch runs, or a later remove or put of
   the same batch — drops the fill instead of resurrecting an older
   value. On a crash the exception propagates before the replay and only
   the stage-time invalidations remain: conservative, never wrong. *)
let run_cached_batch ?len pool cache ops exec =
  let n =
    match len with
    | None -> Array.length ops
    | Some l ->
      if l < 0 || l > Array.length ops then
        invalid_arg "run_batch: len out of range";
      l
  in
  let tickets = Array.make n None in
  let ticket key = Option.map (fun rc -> Rcache.ticket rc key) cache in
  let replies =
    Pool.with_batch pool (fun bt ->
      Array.init n (fun i ->
        match ops.(i) with
        | B_get key -> tickets.(i) <- ticket key; exec bt ops.(i)
        | B_put { key; _ } ->
          let r = exec bt ops.(i) in
          tickets.(i) <- ticket key;
          r
        | B_remove _ | B_scan _ -> exec bt ops.(i)))
  in
  Option.iter
    (fun rc ->
      Array.iteri
        (fun i tk ->
          match (tk, ops.(i), replies.(i)) with
          | Some tk, B_get _, R_get (Some v)
          | Some tk, B_put { value = v; _ }, _ ->
            Rcache.insert rc tk v
          | _ -> ())
        tickets)
    cache;
  replies

module type S = sig
  type t

  val name : string

  val create : ?nbuckets:int -> Spp_access.t -> t
  (** Build a fresh map in the access layer's pool. [nbuckets] sizes
      hash engines; ordered engines ignore it. *)

  val attach : Spp_access.t -> root:Oid.t -> t
  (** Re-attach to an existing map after a pool reopen given its root
      oid ({!root_oid} of the original). Caches start cold. *)

  val root_oid : t -> Oid.t
  (** The single durable handle — park it in the pool root so the map
      survives a restart. *)

  val set_cache : t -> Rcache.t option -> unit
  val cache : t -> Rcache.t option
  val cache_probe : t -> string -> string option
  val cache_invalidate : t -> string -> unit

  val put : t -> key:string -> value:string -> unit
  val get : t -> string -> string option
  val remove : t -> string -> bool
  val count_all : t -> int

  val scan : t -> lo:string -> hi:string -> limit:int -> (string * string) list
  (** Ordered range scan: at most [limit] pairs with [lo <= key <= hi],
      ascending by key. Cache-bypassing — never probes nor fills. *)

  val run_batch : ?len:int -> t -> batch_op array -> batch_reply array
  (** Group-committed batch; replies align with ops by index. Each op
      individually atomic on crash (whole-op-prefix recovery); the
      caller holds the map exclusively for the call. [?len] restricts
      the batch to the first [len] ops — so a caller can reuse one
      grow-only op buffer across drains instead of allocating a fresh
      exactly-sized array per batch (the reply array has [len]
      entries). Defaults to the whole array. *)
end

type spec = (module S)
(** An engine module, before it is given state — what [Shard.create]
    and the registries in {!Engines} traffic in. *)

type packed = Packed : (module S with type t = 'a) * 'a -> packed
(** An engine module paired with one live map. *)

let create ?nbuckets (module E : S) a = Packed ((module E), E.create ?nbuckets a)
let attach (module E : S) a ~root = Packed ((module E), E.attach a ~root)

let spec_name (module E : S) = E.name
let name (Packed ((module E), _)) = E.name
let root_oid (Packed ((module E), t)) = E.root_oid t
let set_cache (Packed ((module E), t)) c = E.set_cache t c
let cache (Packed ((module E), t)) = E.cache t
let cache_probe (Packed ((module E), t)) key = E.cache_probe t key
let cache_invalidate (Packed ((module E), t)) key = E.cache_invalidate t key
let put (Packed ((module E), t)) ~key ~value = E.put t ~key ~value
let get (Packed ((module E), t)) key = E.get t key
let remove (Packed ((module E), t)) key = E.remove t key
let count_all (Packed ((module E), t)) = E.count_all t
let scan (Packed ((module E), t)) ~lo ~hi ~limit = E.scan t ~lo ~hi ~limit
let run_batch ?len (Packed ((module E), t)) ops = E.run_batch ?len t ops

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
