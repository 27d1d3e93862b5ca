(* cmap — the concurrent persistent hashmap engine of pmemkv (the paper's
   §VI-B KV-store benchmark uses pmemkv's non-experimental concurrent
   engine).

   Fixed bucket array in PM; each bucket is a chain of entry objects:

     entry: [ next oid | key len | value len | key bytes | value bytes ]

   Concurrency: striped per-bucket mutexes protect chains for readers and
   writers; write transactions additionally serialize on the pool's
   single undo lane (as PMDK writers contend for lanes). *)

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

(* Snapshot [len] bytes behind an application pointer. *)
let tx_add (a : Spp_access.t) ptr len =
  let raw = a.ptr_to_int ptr in
  Pool.tx_add_range a.pool ~off:(Pool.off_of_addr a.pool raw) ~len

let f_next = 0
let f_klen (a : Spp_access.t) = a.oid_size
let f_vlen (a : Spp_access.t) = a.oid_size + 8
let f_key (a : Spp_access.t) = a.oid_size + 16
let f_value (a : Spp_access.t) klen = a.oid_size + 16 + klen

let entry_size (a : Spp_access.t) ~klen ~vlen = a.oid_size + 16 + klen + vlen

(* FNV-1a on 63-bit words; shared with the read cache's set index. *)
let hash = Rcache.hash

let create ?(nbuckets = 4096) (a : Spp_access.t) =
  let buckets =
    Pool.with_tx a.pool (fun () ->
      a.tx_palloc ~zero:true (nbuckets * a.oid_size))
  in
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

let bucket_of t key = hash key mod t.nbuckets

let with_bucket t b f =
  let m = t.locks.(b mod nstripes) in
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let bucket_slot_ptr t b =
  t.a.gep (t.a.direct t.buckets) (b * t.a.oid_size)

(* Entry readers copy key or value bytes once ([read_sub]) and compare
   keys against the device view through a view window — one hoisted
   check, no candidate key materialized on a chain walk. *)

let entry_key t p =
  let klen = t.a.load_word (t.a.gep p (f_klen t.a)) in
  t.a.read_sub (t.a.gep p (f_key t.a)) klen

let entry_value t p =
  let klen = t.a.load_word (t.a.gep p (f_klen t.a)) in
  let vlen = t.a.load_word (t.a.gep p (f_vlen t.a)) in
  t.a.read_sub (t.a.gep p (f_value t.a klen)) vlen

let key_matches t p key =
  let klen = t.a.load_word (t.a.gep p (f_klen t.a)) in
  klen = String.length key
  && (klen = 0
      || Space.view_equal_string (t.a.view (t.a.gep p (f_key t.a)) klen)
           ~off:0 key)

(* Find the slot pointer referencing the entry for [key] plus the entry
   itself, starting from the bucket slot. *)
let find_slot t slot key =
  let rec go slot_ptr =
    let oid = t.a.load_oid_at slot_ptr in
    if Oid.is_null oid then None
    else begin
      let p = t.a.direct oid in
      if key_matches t p key then Some (slot_ptr, oid, p)
      else go (t.a.gep p f_next)
    end
  in
  go slot

(* The get walk: per entry one view over the header (next oid +
   lengths, read raw after one hoisted check) and — only when the key
   length matches — one view over key+value, which serves both the
   device-side compare and the single-copy value read. Under SPP that
   is two masked-tag checks per matching entry instead of one hook per
   access, and within each window the reads are bare offsets into the
   device view. *)
let find_value t slot key =
  let hdr_len = t.a.oid_size + 16 in
  let klen_q = String.length key in
  let rec go oid =
    if Oid.is_null oid then None
    else begin
      let p = t.a.direct oid in
      let size = oid.Oid.size in
      if size > 0 then begin
        (* SPP-mode fast path: the oid's durable size field (paper
           §IV-B) bounds the whole object, so one hoisted check opens a
           window over the entire entry — header, key and value — and
           every read of the visit is raw. *)
        let ev = t.a.view p size in
        let klen = Space.view_word ev (f_klen t.a) in
        if klen = klen_q && Space.view_equal_string ev ~off:(f_key t.a) key
        then
          let vlen = Space.view_word ev (f_vlen t.a) in
          Some (Space.view_string ev ~off:(f_value t.a klen) ~len:vlen)
        else go (Pool.view_load_oid t.a.pool ev ~off:f_next)
      end
      else begin
        (* Native-mode oids carry no size: two windows per visit —
           header first, then key+value once the length is known.
           ([f_next] is 0, so the entry pointer doubles as the header
           window base.) *)
        let hdr = t.a.view p hdr_len in
        let klen = Space.view_word hdr (f_klen t.a) in
        if klen <> klen_q then go (Pool.view_load_oid t.a.pool hdr ~off:f_next)
        else begin
          let vlen = Space.view_word hdr (f_vlen t.a) in
          if klen + vlen = 0 then Some "" (* empty key matched, empty value *)
          else begin
            let kv = t.a.view (t.a.gep p (f_key t.a)) (klen + vlen) in
            if Space.view_equal_string kv ~off:0 key then
              Some (Space.view_string kv ~off:klen ~len:vlen)
            else go (Pool.view_load_oid t.a.pool hdr ~off:f_next)
          end
        end
      end
    end
  in
  go (t.a.load_oid_at slot)

let mk_entry t ~key ~value ~next =
  let klen = String.length key and vlen = String.length value in
  let oid = t.a.tx_palloc (entry_size t.a ~klen ~vlen) in
  let p = t.a.direct oid in
  t.a.store_oid_at (t.a.gep p f_next) next;
  t.a.store_word (t.a.gep p (f_klen t.a)) klen;
  t.a.store_word (t.a.gep p (f_vlen t.a)) vlen;
  t.a.write_string (t.a.gep p (f_key t.a)) key;
  t.a.write_string (t.a.gep p (f_value t.a klen)) value;
  oid

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
      let v = find_value t (bucket_slot_ptr t b) key in
      (match (v, tk) with
       | Some v, Some (rc, tk) -> Rcache.insert rc tk v
       | _ -> ());
      v)

let put t ~key ~value =
  let b = bucket_of t key in
  with_bucket t b (fun () ->
    (* Write-through invalidation, before the mutation commits: readers
       fall through to PM (and wait on this stripe) rather than ever
       seeing the cache ahead of — or behind — the durable state. *)
    cache_invalidate t key;
    let slot = bucket_slot_ptr t b in
    match find_slot t slot key with
    | Some (slot_ptr, old, p) ->
      let klen = String.length key in
      let old_vlen = t.a.load_word (t.a.gep p (f_vlen t.a)) in
      if old_vlen = String.length value then
        (* overwrite in place, transactionally *)
        Pool.with_tx t.a.pool (fun () ->
          tx_add t.a (t.a.gep p (f_value t.a klen)) old_vlen;
          t.a.write_string (t.a.gep p (f_value t.a klen)) value)
      else
        Pool.with_tx t.a.pool (fun () ->
          let next = t.a.load_oid_at (t.a.gep p f_next) in
          let fresh = mk_entry t ~key ~value ~next in
          tx_add t.a slot_ptr t.a.oid_size;
          t.a.store_oid_at slot_ptr fresh;
          t.a.tx_pfree old)
    | None ->
      Pool.with_tx t.a.pool (fun () ->
        let head = t.a.load_oid_at slot in
        let fresh = mk_entry t ~key ~value ~next:head in
        tx_add t.a slot t.a.oid_size;
        t.a.store_oid_at slot fresh))

let remove t key =
  let b = bucket_of t key in
  with_bucket t b (fun () ->
    cache_invalidate t key;
    match find_slot t (bucket_slot_ptr t b) key with
    | None -> false
    | Some (slot_ptr, oid, p) ->
      Pool.with_tx t.a.pool (fun () ->
        tx_add t.a slot_ptr t.a.oid_size;
        t.a.store_oid_at slot_ptr (t.a.load_oid_at (t.a.gep p f_next));
        t.a.tx_pfree oid);
      true)

(* Clip an unordered (key, value) accumulation to the scan contract:
   ascending by key, at most [limit] pairs. *)
let clip_scan ~limit acc =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) acc in
  let rec take n = function
    | x :: tl when n > 0 -> x :: take (n - 1) tl
    | _ -> []
  in
  take limit sorted

(* Ordered range scan over a hash layout: walk every bucket chain,
   keep the in-range pairs, sort. O(total entries) regardless of the
   range width — the price of scanning an unordered engine, and the
   baseline the ordered [Bmap] engine exists to beat. Cache-bypassing
   by contract: scans neither probe nor fill the read cache. *)
let scan t ~lo ~hi ~limit =
  if limit <= 0 || hi < lo then []
  else begin
    let acc = ref [] in
    (* One whole-entry window per chain link (the SPP oid's durable
       size bounds it), range-tested against the device view so
       out-of-range entries are never materialized. *)
    let rec go oid =
      if not (Oid.is_null oid) then begin
        let p = t.a.direct oid in
        if oid.Oid.size > 0 then begin
          let ev = t.a.view p oid.Oid.size in
          let klen = Space.view_word ev (f_klen t.a) in
          let koff = f_key t.a in
          if
            Space.view_compare_string ev ~off:koff ~len:klen lo >= 0
            && Space.view_compare_string ev ~off:koff ~len:klen hi <= 0
          then begin
            let vlen = Space.view_word ev (f_vlen t.a) in
            let k = Space.view_string ev ~off:koff ~len:klen in
            let v = Space.view_string ev ~off:(f_value t.a klen) ~len:vlen in
            acc := (k, v) :: !acc
          end;
          go (Pool.view_load_oid t.a.pool ev ~off:f_next)
        end
        else begin
          let k = entry_key t p in
          if lo <= k && k <= hi then acc := (k, entry_value t p) :: !acc;
          go (t.a.load_oid_at (t.a.gep p f_next))
        end
      end
    in
    for b = 0 to t.nbuckets - 1 do
      with_bucket t b (fun () -> go (t.a.load_oid_at (bucket_slot_ptr t b)))
    done;
    clip_scan ~limit !acc
  end

(* ------------------------------------------------------------------ *)
(* Group-committed multi-op entry point                                 *)
(* ------------------------------------------------------------------ *)

(* [run_batch] executes a whole array of operations inside one
   [Pool.with_batch]: every op's redo entries (slot publication,
   allocator updates, frees) ride a shared staged log and the fence
   schedule is paid once per sub-batch instead of once per op. The ops
   are individually atomic on crash — recovery lands on a prefix of
   whole ops — because entries only join the log at op boundaries.

   This is engine-internal code operating on pool offsets, like
   libpmemobj's own log machinery: it does not travel through the tagged
   access-layer pointers (the paper instruments application code, not
   PMDK internals), so SPP hook counts are untouched by the batched
   path. Two structural differences from the synchronous ops above,
   both forced by deferred application: a put always replaces the entry
   out of place (an in-place value overwrite would tear the durable
   pre-state before the batch commits), and reads of chain metadata go
   through the batch overlay so later ops observe earlier ones. The
   fresh entry itself skips the log: it is composed in DRAM and stored
   with one store, and only the slot oid that publishes it is staged.

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

let batch_key_of = Engine.batch_key_of

(* Entry field reads through the overlay. Key/value bytes are never
   staged (fresh entries are stored whole while unreachable), so byte
   reads go straight to the space — single-copy [Space.read_sub], with
   the key compared against the device view instead of materialized. *)

let b_entry_key t bt eoff =
  let p = t.a.pool in
  let klen = Pool.batch_load_word p bt ~off:(eoff + f_klen t.a) in
  Space.read_sub (Pool.space p) (Pool.addr_of_off p (eoff + f_key t.a)) klen

let b_entry_value t bt eoff =
  let p = t.a.pool in
  let klen = Pool.batch_load_word p bt ~off:(eoff + f_klen t.a) in
  let vlen = Pool.batch_load_word p bt ~off:(eoff + f_vlen t.a) in
  Space.read_sub (Pool.space p)
    (Pool.addr_of_off p (eoff + f_value t.a klen)) vlen

let b_key_matches t bt eoff key =
  Pool.batch_load_word t.a.pool bt ~off:(eoff + f_klen t.a)
  = String.length key
  && Space.equal_string (Pool.space t.a.pool)
       (Pool.addr_of_off t.a.pool (eoff + f_key t.a)) key

(* Slot offset (pool offset of the oid slot pointing at the entry) plus
   the entry's oid, walking the chain as the batch sees it. *)
let b_find_slot t bt slot_off key =
  let p = t.a.pool in
  let rec go slot_off =
    let oid = Pool.batch_load_oid p bt ~off:slot_off in
    if Oid.is_null oid then None
    else if b_key_matches t bt oid.Oid.off key then Some (slot_off, oid)
    else go (oid.Oid.off + f_next)
  in
  go slot_off

let bucket_slot_off t b = t.buckets.Oid.off + (b * t.a.oid_size)

(* Fresh entry: allocate through the batch, compose the whole entry in
   the pool's DRAM buffer and store it with one [Pool.batch_write] —
   the block is unreachable until the staged slot oid commits, and a
   replicated pool ships these bytes without reading them back — then
   flush it once; the commit's first fence drains it before the log
   becomes valid. *)
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
  Pool.batch_write p bt ~off:oid.Oid.off buf ~pos:0 ~len:size;
  Spp_sim.Space.flush (Pool.space p) (Pool.addr_of_off p oid.Oid.off) size;
  oid

let b_put t bt ~key ~value =
  let p = t.a.pool in
  let slot = bucket_slot_off t (bucket_of t key) in
  Redo.batch_op_begin bt;
  (* Invalidate at stage time, before the deferred commit: a concurrent
     fast-path reader must never observe a value newer than the durable
     state allows under the whole-op-prefix guarantee, and the stale
     pre-batch entry must die before this op's staged words exist. *)
  cache_invalidate t key;
  (match b_find_slot t bt slot key with
   | Some (slot_off, old) ->
     let next = Pool.batch_load_oid p bt ~off:(old.Oid.off + f_next) in
     let fresh = b_mk_entry t bt ~key ~value ~next in
     Pool.batch_stage_oid p bt ~off:slot_off ~prev:old fresh;
     Pool.batch_free p bt old
   | None ->
     let head = Pool.batch_load_oid p bt ~off:slot in
     let fresh = b_mk_entry t bt ~key ~value ~next:head in
     Pool.batch_stage_oid p bt ~off:slot ~prev:head fresh);
  Redo.batch_op_end bt

let b_get t bt key =
  let slot = bucket_slot_off t (bucket_of t key) in
  Redo.batch_op_begin bt;
  let r =
    match b_find_slot t bt slot key with
    | None -> None
    | Some (_, oid) -> Some (b_entry_value t bt oid.Oid.off)
  in
  Redo.batch_op_end bt;
  r

(* Batched scan: the same full-chain walk as [scan] but through the
   batch overlay, so a scan placed after a put/remove in the same
   batch observes it. Read-only — stages nothing, touches no cache. *)
let b_scan t bt ~lo ~hi ~limit =
  Redo.batch_op_begin bt;
  let r =
    if limit <= 0 || hi < lo then []
    else begin
      let p = t.a.pool in
      let acc = ref [] in
      for b = 0 to t.nbuckets - 1 do
        let rec go slot_off =
          let oid = Pool.batch_load_oid p bt ~off:slot_off in
          if not (Oid.is_null oid) then begin
            let eoff = oid.Oid.off in
            let k = b_entry_key t bt eoff in
            if lo <= k && k <= hi then acc := (k, eoff) :: !acc;
            go (eoff + f_next)
          end
        in
        go (bucket_slot_off t b)
      done;
      (* Deferred value assembly: sort and clip on keys alone, then
         materialize values only for the surviving entries — a clipped
         scan no longer pays a value-string allocation per in-range
         entry it will never return. Safe to defer because the caller
         holds the map exclusively for the batch, so no entry can be
         freed between the walk and the assembly. *)
      let sorted =
        List.sort (fun (a, _) (b, _) -> String.compare a b) !acc
      in
      let rec take n = function
        | (k, eoff) :: tl when n > 0 ->
          (k, b_entry_value t bt eoff) :: take (n - 1) tl
        | _ -> []
      in
      take limit sorted
    end
  in
  Redo.batch_op_end bt;
  r

let b_remove t bt key =
  let p = t.a.pool in
  let slot = bucket_slot_off t (bucket_of t key) in
  Redo.batch_op_begin bt;
  cache_invalidate t key;
  let r =
    match b_find_slot t bt slot key with
    | None -> false
    | Some (slot_off, oid) ->
      let next = Pool.batch_load_oid p bt ~off:(oid.Oid.off + f_next) in
      Pool.batch_stage_oid p bt ~off:slot_off ~prev:oid next;
      Pool.batch_free p bt oid;
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

let count_all t =
  let n = ref 0 in
  for b = 0 to t.nbuckets - 1 do
    let rec go slot_ptr =
      let oid = t.a.load_oid_at slot_ptr in
      if not (Oid.is_null oid) then begin
        incr n;
        go (t.a.gep (t.a.direct oid) f_next)
      end
    in
    go (bucket_slot_ptr t b)
  done;
  !n
