(* cmap — the concurrent persistent hashmap engine of pmemkv (the paper's
   §VI-B KV-store benchmark uses pmemkv's non-experimental concurrent
   engine).

   Fixed bucket array in PM; each bucket is a chain of entry objects:

     entry: [ next oid | key len | value len | key bytes | value bytes ]

   Every op runs through [Engine.run_batch] as one op of an open redo
   batch ([exec]): a put composes a fresh entry, stores it through the
   variant's range check while it is unreachable and stages only the
   link oid that publishes it; a remove stages the unlinking oid.
   Exclusion is the pool's lane, which [Engine.run_batch] holds for
   every op. *)

open Spp_pmdk
open Spp_access
module Space = Spp_sim.Space

type t = {
  a : Spp_access.t;
  nbuckets : int;
  buckets : Oid.t;                 (* array object of oid slots *)
}

let name = "cmap"

let f_next = 0
let f_klen (a : Spp_access.t) = a.oid_size
let f_vlen (a : Spp_access.t) = a.oid_size + 8
let f_key (a : Spp_access.t) = a.oid_size + 16
let f_value (a : Spp_access.t) klen = a.oid_size + 16 + klen

let entry_size (a : Spp_access.t) ~klen ~vlen = a.oid_size + 16 + klen + vlen

let create ?(nbuckets = 4096) (a : Spp_access.t) =
  { a; nbuckets; buckets = a.palloc ~zero:true (nbuckets * a.oid_size) }

let root_oid t = t.buckets

(* The bucket count is recovered from the array object's durable
   requested size — the oid is all a reopening process needs to keep. *)
let attach (a : Spp_access.t) ~root =
  let nbuckets = Pool.alloc_size a.pool root / a.oid_size in
  if nbuckets <= 0 then invalid_arg "Cmap.attach: bucket array too small";
  { a; nbuckets; buckets = root }

(* FNV-1a on 63-bit words, shared with the read cache's set index. *)
let bucket_of t key = Rcache.hash key mod t.nbuckets

let bucket_slot_off t b = t.buckets.Oid.off + (b * t.a.oid_size)

(* ------------------------------------------------------------------ *)
(* The reader: one chain walk for every op                             *)
(* ------------------------------------------------------------------ *)

(* Link words (bucket heads and [next] fields) are read by pool offset
   through the batch overlay, so an op sees the links earlier ops
   staged. Every other entry byte is read through the variant on
   [t.a.direct], one check per window, each window sized to the bytes
   the reader uses: [klen], then the key only when the lengths agree,
   then [vlen] and the value. *)
let load_link t bt off = Pool.batch_load_oid t.a.pool bt ~off

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

(* Every entry of bucket [b] in chain order, as [f p]. *)
let iter_chain t bt b f =
  let rec go link =
    let e = load_link t bt link in
    if not (Oid.is_null e) then begin
      f (t.a.direct e);
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

(* Ordered range scan over a hash layout: walk every bucket chain and
   keep the in-range entries as (key, entry) pairs. O(total entries)
   regardless of the range width — the price of scanning an unordered
   engine, and the baseline the ordered [Bmap] engine exists to beat. *)
let scan_chains t bt ~lo ~hi =
  let acc = ref [] in
  for b = 0 to t.nbuckets - 1 do
    iter_chain t bt b (fun p ->
      match key_in_range t p ~lo ~hi with
      | Some k -> acc := (k, p) :: !acc
      | None -> ())
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

(* ------------------------------------------------------------------ *)
(* The writer                                                          *)
(* ------------------------------------------------------------------ *)

(* Ops share the batch's staged log; only the link words go through the
   overlay, so later ops observe earlier ones. A put always replaces the
   entry out of place (an in-place value overwrite would tear the
   durable pre-state before the batch commits), and the fresh entry
   skips the log.

   Fresh entry: allocate through the batch, compose the whole entry in
   the pool's DRAM buffer and store it with one checked store
   ([Engine.store_fresh]) — the block is unreachable until the staged
   slot oid commits, and a replicated pool ships these bytes without
   reading them back — then flush it once; the commit's first fence
   drains it before the log becomes valid. *)
let mk_entry t bt ~key ~value ~next =
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

let put t bt ~key ~value =
  let p = t.a.pool in
  let b = bucket_of t key in
  match find t bt b key with
  | Some h ->
    let next = Pool.batch_load_oid p bt ~off:(h.entry.Oid.off + f_next) in
    let fresh = mk_entry t bt ~key ~value ~next in
    Pool.batch_stage_oid p bt ~off:h.link ~prev:h.entry fresh;
    Pool.batch_free p bt h.entry
  | None ->
    let slot = bucket_slot_off t b in
    let head = Pool.batch_load_oid p bt ~off:slot in
    let fresh = mk_entry t bt ~key ~value ~next:head in
    Pool.batch_stage_oid p bt ~off:slot ~prev:head fresh

let remove t bt key =
  let p = t.a.pool in
  match find t bt (bucket_of t key) key with
  | None -> false
  | Some h ->
    let next = Pool.batch_load_oid p bt ~off:(h.entry.Oid.off + f_next) in
    Pool.batch_stage_oid p bt ~off:h.link ~prev:h.entry next;
    Pool.batch_free p bt h.entry;
    true

(* A scan reads values only for the pairs that survive the clip:
   [Engine.run_batch] holds the pool's lane for the whole op, so no
   entry can be freed between the walk and the reads. *)
let scan t bt ~lo ~hi ~limit =
  if limit <= 0 || hi < lo then []
  else
    List.map
      (fun (k, p) -> (k, entry_value t p ~klen:(String.length k)))
      (clip_scan ~limit (scan_chains t bt ~lo ~hi))

let exec t bt : Engine.batch_op -> Engine.batch_reply = function
  | B_put { key; value } -> put t bt ~key ~value; R_put
  | B_get key ->
    R_get
      (match find t bt (bucket_of t key) key with
       | None -> None
       | Some h -> Some (entry_value t h.p ~klen:(String.length key)))
  | B_remove key -> R_removed (remove t bt key)
  | B_scan { lo; hi; limit } -> R_scan (scan t bt ~lo ~hi ~limit)

let count_all t bt =
  let n = ref 0 in
  for b = 0 to t.nbuckets - 1 do
    iter_chain t bt b (fun _ -> incr n)
  done;
  !n
