(* rcache — a volatile DRAM read cache fronting an engine's PM reads.

   Real pmemkv keeps a volatile index in front of the persistent leaves
   because every PM access pays pointer-decode plus media latency; our
   reproduction pays the same tax in simulator form (tag decode,
   TLB/region translation, per-hop Space loads) on every get. This cache
   is the DRAM front: a fixed-capacity, power-of-two, set-associative
   map from key to value keyed by the same FNV-1a hash the Cmap buckets
   use, living entirely on the OCaml heap — it never touches the
   simulated Space or Memdev, so it adds no durability events and no
   crash points, and it vanishes on reopen (a reattached map always
   starts cold).

   Concurrency: per-entry sequence stamps, seqlock-style. Writers (fills
   and invalidations) serialize on a small striped mutex array and bump
   the stamp to odd before touching an entry's fields and back to even
   after; readers take no lock at all — they read the stamp, the fields,
   and the stamp again, and treat an odd or changed stamp as a miss.
   OCaml atomics give the publication order the protocol needs, and the
   racy field reads are harmless: key/value are immutable strings, so a
   stale read is a stale pointer, never a torn string, and the stamp
   recheck rejects any cross-generation mix. This is what lets the serve
   layer probe a shard's cache from any submitting domain without taking
   the pool's lane or hopping through its mailbox.

   Fills are deferred (a batch fills after its commit), so every fill
   carries a ticket taken before its value was read or staged, and each
   set keeps a generation that every invalidation bumps: a fill whose
   set was invalidated since its ticket drops itself, because its value
   may predate the mutation that invalidated. *)

type entry = {
  seq : int Atomic.t;       (* even = stable, odd = write in progress *)
  mutable valid : bool;
  mutable key : string;
  mutable value : string;
}

type stats = {
  rc_hits : int;
  rc_misses : int;
  rc_invalidations : int;
  rc_fills : int;
}

let zero_stats = { rc_hits = 0; rc_misses = 0; rc_invalidations = 0;
                   rc_fills = 0 }

let merge_stats l =
  List.fold_left
    (fun acc s ->
      { rc_hits = acc.rc_hits + s.rc_hits;
        rc_misses = acc.rc_misses + s.rc_misses;
        rc_invalidations = acc.rc_invalidations + s.rc_invalidations;
        rc_fills = acc.rc_fills + s.rc_fills })
    zero_stats l

let hit_rate s =
  let probes = s.rc_hits + s.rc_misses in
  if probes = 0 then 0. else float_of_int s.rc_hits /. float_of_int probes

type t = {
  nsets : int;              (* power of two *)
  ways : int;
  entries : entry array;    (* set-major: entries.(set * ways + way) *)
  victim : int array;       (* per-set round-robin eviction hint *)
  gens : int Atomic.t array; (* per set: bumped by every invalidation *)
  wlocks : Mutex.t array;   (* writer striping; readers never lock *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  invalidations : int Atomic.t;
  fills : int Atomic.t;
}

let ways = 4
let nwlocks = 64

(* Same FNV-1a the Cmap buckets use. *)
let hash s =
  let h = ref 0x3bf29ce484222325 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) s;
  !h land max_int

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ~cap =
  if cap <= 0 then invalid_arg "Rcache.create: capacity must be positive";
  let nsets = pow2_at_least ((cap + ways - 1) / ways) 1 in
  { nsets; ways;
    entries =
      Array.init (nsets * ways) (fun _ ->
        { seq = Atomic.make 0; valid = false; key = ""; value = "" });
    victim = Array.make nsets 0;
    gens = Array.init nsets (fun _ -> Atomic.make 0);
    wlocks = Array.init (min nwlocks nsets) (fun _ -> Mutex.create ());
    hits = Atomic.make 0; misses = Atomic.make 0;
    invalidations = Atomic.make 0; fills = Atomic.make 0 }

let capacity t = t.nsets * t.ways

(* The bucket index folds [hash mod nbuckets]; fold the upper bits in
   here instead so set choice and bucket choice stay decorrelated. *)
let set_of t key =
  let h = hash key in
  (h lxor (h lsr 29)) land (t.nsets - 1)

let with_wlock t set f =
  let m = t.wlocks.(set land (Array.length t.wlocks - 1)) in
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Seqlock write: odd stamp, mutate, even stamp. Caller holds the
   stripe's writer lock. *)
let write_entry e f =
  Atomic.incr e.seq;
  f e;
  Atomic.incr e.seq

(* Lock-free probe. A torn way (odd or moved stamp) reads as a miss for
   that way — the retry is the queued slow path, not a spin. *)
let probe t key =
  let base = set_of t key * t.ways in
  let rec go w =
    if w = t.ways then None
    else begin
      let e = t.entries.(base + w) in
      let s1 = Atomic.get e.seq in
      if s1 land 1 = 1 then go (w + 1)
      else begin
        let valid = e.valid and k = e.key and v = e.value in
        if Atomic.get e.seq <> s1 then go (w + 1)
        else if valid && String.equal k key then Some v
        else go (w + 1)
      end
    end
  in
  match go 0 with
  | Some _ as r -> Atomic.incr t.hits; r
  | None -> Atomic.incr t.misses; None

(* Writer-side scan; safe to read fields plainly under the stripe lock
   because all field writes hold it too. *)
let find_way t base key =
  let rec go w =
    if w = t.ways then None
    else begin
      let e = t.entries.(base + w) in
      if e.valid && String.equal e.key key then Some e else go (w + 1)
    end
  in
  go 0

type ticket = { tk_key : string; tk_set : int; tk_gen : int }

let ticket t key =
  let set = set_of t key in
  { tk_key = key; tk_set = set; tk_gen = Atomic.get t.gens.(set) }

let insert t { tk_key = key; tk_set = set; tk_gen } value =
  let base = set * t.ways in
  with_wlock t set (fun () ->
    if Atomic.get t.gens.(set) = tk_gen then begin
      (match find_way t base key with
       | Some e -> write_entry e (fun e -> e.value <- value)
       | None ->
         let victim =
           let rec free w =
             if w = t.ways then None
             else if not t.entries.(base + w).valid then Some w
             else free (w + 1)
           in
           match free 0 with
           | Some w -> w
           | None ->
             let w = t.victim.(set) in
             t.victim.(set) <- (w + 1) land (t.ways - 1);
             w
         in
         write_entry t.entries.(base + victim) (fun e ->
           e.valid <- true;
           e.key <- key;
           e.value <- value));
      Atomic.incr t.fills
    end)

let invalidate t key =
  let set = set_of t key in
  let base = set * t.ways in
  with_wlock t set (fun () ->
    Atomic.incr t.gens.(set);
    match find_way t base key with
    | None -> ()
    | Some e ->
      write_entry e (fun e ->
        e.valid <- false;
        e.key <- "";
        e.value <- "");
      Atomic.incr t.invalidations)

let clear t =
  for set = 0 to t.nsets - 1 do
    with_wlock t set (fun () ->
      Atomic.incr t.gens.(set);
      for w = 0 to t.ways - 1 do
        let e = t.entries.((set * t.ways) + w) in
        if e.valid then
          write_entry e (fun e ->
            e.valid <- false;
            e.key <- "";
            e.value <- "")
      done)
  done

(* Valid-entry count; a test aid, racy by nature when writers run. *)
let live t =
  Array.fold_left (fun n e -> if e.valid then n + 1 else n) 0 t.entries

let stats t =
  { rc_hits = Atomic.get t.hits;
    rc_misses = Atomic.get t.misses;
    rc_invalidations = Atomic.get t.invalidations;
    rc_fills = Atomic.get t.fills }

let reset_stats t =
  Atomic.set t.hits 0;
  Atomic.set t.misses 0;
  Atomic.set t.invalidations 0;
  Atomic.set t.fills 0

let pp_stats ppf s =
  Format.fprintf ppf
    "hits=%d misses=%d (%.1f%% hit rate) invalidations=%d fills=%d"
    s.rc_hits s.rc_misses (100. *. hit_rate s) s.rc_invalidations s.rc_fills
