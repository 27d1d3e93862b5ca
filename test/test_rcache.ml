(* Tests for the volatile DRAM read cache: unit behaviour of the
   set-associative store, the seqlock value-relation invariant under
   concurrent readers and writers, and the cache-coherence contract of
   a cached cmap behind [Engine] (fills only from committed state,
   write-through invalidation, in-order replay after run_batch, cold on
   reattach). *)

module Rcache = Spp_pmemkv.Rcache
module Engine = Spp_pmemkv.Engine
module Engines = Spp_pmemkv.Engines

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_opt = Alcotest.(check (option string))

(* An unconditional fill: the ticket is taken right before it. *)
let insert c key value = Rcache.insert c (Rcache.ticket c key) value

(* --- Unit behaviour --------------------------------------------------- *)

let test_probe_insert_invalidate () =
  let c = Rcache.create ~cap:64 in
  check_opt "miss on empty" None (Rcache.probe c "a");
  insert c "a" "1";
  check_opt "hit after insert" (Some "1") (Rcache.probe c "a");
  insert c "a" "2";
  check_opt "overwrite wins" (Some "2") (Rcache.probe c "a");
  Rcache.invalidate c "a";
  check_opt "miss after invalidate" None (Rcache.probe c "a");
  Rcache.invalidate c "a" (* no-op on absent key *);
  let s = Rcache.stats c in
  check_int "hits" 2 s.Rcache.rc_hits;
  check_int "misses" 2 s.Rcache.rc_misses;
  check_int "fills" 2 s.Rcache.rc_fills;
  check_int "invalidations" 1 s.Rcache.rc_invalidations;
  Rcache.reset_stats c;
  check_int "reset clears hits" 0 (Rcache.stats c).Rcache.rc_hits;
  check_opt "reset keeps contents-less state" None (Rcache.probe c "a")

let test_capacity_and_rounding () =
  (* cap rounds up to a power-of-two set count of 4-way sets. *)
  let c = Rcache.create ~cap:10 in
  let cap = Rcache.capacity c in
  check_bool "cap >= requested" true (cap >= 10);
  check_int "4-way sets" 0 (cap mod 4);
  let sets = cap / 4 in
  check_int "power-of-two sets" 0 (sets land (sets - 1));
  (try
     ignore (Rcache.create ~cap:0);
     Alcotest.fail "cap 0 accepted"
   with Invalid_argument _ -> ())

let test_eviction_bounded () =
  let c = Rcache.create ~cap:16 in
  let key i = Printf.sprintf "key-%04d" i in
  for i = 0 to 199 do
    insert c (key i) (string_of_int i)
  done;
  check_bool "live bounded by capacity" true
    (Rcache.live c <= Rcache.capacity c);
  check_bool "live nonzero" true (Rcache.live c > 0);
  (* Whatever survives eviction must still map to its own value. *)
  for i = 0 to 199 do
    match Rcache.probe c (key i) with
    | None -> ()
    | Some v -> check_int ("value of " ^ key i) i (int_of_string v)
  done;
  Rcache.clear c;
  check_int "clear empties" 0 (Rcache.live c);
  check_opt "clear drops entries" None (Rcache.probe c (key 199))

let test_stats_merge () =
  let open Rcache in
  let a = { rc_hits = 1; rc_misses = 2; rc_invalidations = 3; rc_fills = 4 }
  and b = { rc_hits = 10; rc_misses = 20; rc_invalidations = 30; rc_fills = 40 } in
  let m = merge_stats [ a; b; zero_stats ] in
  check_int "hits" 11 m.rc_hits;
  check_int "misses" 22 m.rc_misses;
  check_int "invalidations" 33 m.rc_invalidations;
  check_int "fills" 44 m.rc_fills;
  Alcotest.(check (float 1e-9)) "hit rate" (11. /. 33.) (hit_rate m);
  Alcotest.(check (float 1e-9)) "hit rate empty" 0. (hit_rate zero_stats)

(* --- Seqlock value relation under concurrency ------------------------- *)

(* One writer domain churns inserts/invalidations; reader domains probe
   concurrently. Every insert for key k stores one of two fixed values
   derived from k (with different lengths, so a torn read could not
   accidentally look well-formed). The invariant: a probe returns None
   or exactly one of k's two values — never a value belonging to a
   different key, never a torn mix. *)
let test_seqlock_readers_never_torn () =
  let c = Rcache.create ~cap:64 in
  let nkeys = 128 in
  let key i = Printf.sprintf "sl-%03d" i in
  let v1 k = k ^ "=short"
  and v2 k = k ^ "=a-much-longer-second-generation-value" in
  let stop = Atomic.make false in
  let bad = Atomic.make 0 in
  let reader seed () =
    let st = Random.State.make [| seed; 0x5EC1 |] in
    while not (Atomic.get stop) do
      let k = key (Random.State.int st nkeys) in
      match Rcache.probe c k with
      | None -> ()
      | Some v ->
        if not (String.equal v (v1 k) || String.equal v (v2 k)) then
          Atomic.incr bad
    done
  in
  let readers = Array.init 3 (fun i -> Domain.spawn (reader (i + 1))) in
  let st = Random.State.make [| 0xF1E1D |] in
  for _ = 1 to 60_000 do
    let k = key (Random.State.int st nkeys) in
    match Random.State.int st 4 with
    | 0 -> Rcache.invalidate c k
    | 1 -> insert c k (v2 k)
    | _ -> insert c k (v1 k)
  done;
  Atomic.set stop true;
  Array.iter Domain.join readers;
  check_int "no torn or foreign values observed" 0 (Atomic.get bad);
  check_bool "readers did probe" true
    ((Rcache.stats c).Rcache.rc_hits > 0)

(* --- Cached Cmap coherence -------------------------------------------- *)

let mk_cached ?(cap = 64) () =
  let a = Spp_access.create ~pool_size:(1 lsl 21) ~name:"rcache-kv"
      Spp_access.Spp in
  let kv = Engine.create ~nbuckets:32 Engines.cmap a in
  Engine.set_cache kv (Some (Rcache.create ~cap));
  (a, kv)

let cache_of kv =
  match Engine.cache kv with Some c -> c | None -> Alcotest.fail "no cache"

(* A put invalidates its key before it commits and, once the commit
   returns, fills the value it made durable (a sync put is a one-op
   batch): the probe after each put returns that put's value, never an
   older one. *)
let test_cmap_get_fills_put_invalidates () =
  let _, kv = mk_cached () in
  Engine.put kv ~key:"k" ~value:"v1";
  check_opt "probe after put: its value" (Some "v1")
    (Engine.cache_probe kv "k");
  Engine.cache_invalidate kv "k";
  check_opt "get reads PM" (Some "v1") (Engine.get kv "k");
  check_opt "get filled cache" (Some "v1") (Engine.cache_probe kv "k");
  check_opt "cached get" (Some "v1") (Engine.get kv "k");
  Engine.put kv ~key:"k" ~value:"v2";
  check_opt "probe after overwrite: its value" (Some "v2")
    (Engine.cache_probe kv "k");
  Engine.put kv ~key:"k" ~value:"v3-longer";
  check_opt "probe after resize: its value" (Some "v3-longer")
    (Engine.cache_probe kv "k");
  check_opt "fresh value after put" (Some "v3-longer") (Engine.get kv "k");
  check_bool "remove" true (Engine.remove kv "k");
  check_opt "remove invalidated" None (Engine.cache_probe kv "k");
  check_opt "removed for real" None (Engine.get kv "k");
  let s = Rcache.stats (cache_of kv) in
  check_bool "saw hits" true (s.Rcache.rc_hits >= 2);
  check_bool "saw invalidations" true (s.Rcache.rc_invalidations >= 2)

let test_run_batch_replay_order () =
  let _, kv = mk_cached () in
  Engine.put kv ~key:"a" ~value:"a0";
  Engine.put kv ~key:"b" ~value:"b0";
  (* In one batch: read a (fill), then overwrite a (the later mutation
     must win over the earlier get's fill); put c then remove c (the
     remove must win); read b (plain fill). *)
  let replies =
    Engine.run_batch kv
      [| Engine.B_get "a";
         Engine.B_put { key = "a"; value = "a1" };
         Engine.B_put { key = "c"; value = "c1" };
         Engine.B_remove "c";
         Engine.B_get "b" |]
  in
  (match replies.(0) with
   | Engine.R_get v -> check_opt "in-batch get sees pre-state" (Some "a0") v
   | _ -> Alcotest.fail "reply shape");
  check_opt "later put wins over earlier get fill" (Some "a1")
    (Engine.cache_probe kv "a");
  check_opt "remove wins over earlier put fill" None
    (Engine.cache_probe kv "c");
  check_opt "plain get fill" (Some "b0") (Engine.cache_probe kv "b");
  check_opt "durable a" (Some "a1") (Engine.get kv "a");
  check_opt "durable c" None (Engine.get kv "c")

(* A deferred fill must not resurrect a value that a mutation submitted
   while the batch ran has invalidated: the serve layer invalidates a
   put's key at submission, and a bypassed get from the same client must
   then miss, not hit the value from before its own put. The injector
   stands in for that submission at the commit's first fence — after the
   batch's get read its value and its put staged its own. *)
let test_fill_dropped_after_invalidation () =
  let module E = Spp_pmemkv.Engine in
  List.iter
    (fun spec ->
      let name = E.spec_name spec in
      let a = Spp_access.create ~pool_size:(1 lsl 21) ~name:"rcache-stale"
          Spp_access.Spp in
      let kv = E.create ~nbuckets:32 spec a in
      E.set_cache kv (Some (Rcache.create ~cap:64));
      let dev = Spp_pmdk.Pool.dev a.Spp_access.pool in
      let run_invalidating_k ops =
        let fired = ref false in
        Spp_sim.Memdev.set_injector dev
          (Some
             (function
               | Spp_sim.Memdev.Hk_fence when not !fired ->
                 fired := true;
                 E.cache_invalidate kv "k"
               | _ -> ()));
        ignore (E.run_batch kv ops);
        Spp_sim.Memdev.set_injector dev None;
        check_bool (name ^ ": injector fired") true !fired
      in
      E.put kv ~key:"k" ~value:"old";
      ignore (E.run_batch kv [| E.B_get "k" |]);
      check_opt (name ^ ": get fills") (Some "old") (E.cache_probe kv "k");
      E.cache_invalidate kv "k";
      run_invalidating_k [| E.B_get "k"; E.B_put { key = "x"; value = "x" } |];
      check_opt (name ^ ": get fill dropped") None (E.cache_probe kv "k");
      ignore (E.run_batch kv [| E.B_put { key = "k"; value = "new" } |]);
      check_opt (name ^ ": put fills") (Some "new") (E.cache_probe kv "k");
      run_invalidating_k [| E.B_put { key = "k"; value = "newer" } |];
      check_opt (name ^ ": put fill dropped") None (E.cache_probe kv "k");
      check_opt (name ^ ": durable value") (Some "newer") (E.get kv "k"))
    [ Spp_pmemkv.Engines.cmap; Spp_pmemkv.Engines.btree ]

let test_attach_starts_cold () =
  let a, kv = mk_cached () in
  let pool = a.Spp_access.pool in
  let root = a.Spp_access.root a.Spp_access.oid_size in
  Spp_pmdk.Pool.store_oid pool ~off:root.Spp_pmdk.Oid.off (Engine.root_oid kv);
  Spp_pmdk.Pool.persist pool ~off:root.Spp_pmdk.Oid.off
    ~len:a.Spp_access.oid_size;
  Engine.put kv ~key:"warm" ~value:"w";
  check_opt "warm the cache" (Some "w") (Engine.get kv "warm");
  check_opt "cache warm" (Some "w") (Engine.cache_probe kv "warm");
  ignore (Spp_pmdk.Pool.crash_and_recover pool);
  let a' = Spp_access.attach (Spp_pmdk.Pool.space pool) pool in
  let buckets =
    Spp_pmdk.Pool.load_oid pool
      ~off:(Spp_pmdk.Pool.root_oid pool).Spp_pmdk.Oid.off
  in
  let kv' = Engine.attach Engines.cmap a' ~root:buckets in
  check_bool "reattached map has no cache" true (Engine.cache kv' = None);
  check_opt "probe without cache is None" None (Engine.cache_probe kv' "warm");
  check_opt "data survived" (Some "w") (Engine.get kv' "warm")

let () =
  Alcotest.run "spp_rcache"
    [
      ( "rcache unit",
        [
          Alcotest.test_case "probe/insert/invalidate/stats" `Quick
            test_probe_insert_invalidate;
          Alcotest.test_case "capacity rounding" `Quick
            test_capacity_and_rounding;
          Alcotest.test_case "eviction bounded by capacity" `Quick
            test_eviction_bounded;
          Alcotest.test_case "stats merge" `Quick test_stats_merge;
        ] );
      ( "seqlock",
        [
          Alcotest.test_case "concurrent readers never see torn values"
            `Quick test_seqlock_readers_never_torn;
        ] );
      ( "cached cmap",
        [
          Alcotest.test_case "get fills, put/remove invalidate" `Quick
            test_cmap_get_fills_put_invalidates;
          Alcotest.test_case "run_batch replays cache effects in order"
            `Quick test_run_batch_replay_order;
          Alcotest.test_case "attach starts cold" `Quick
            test_attach_starts_cold;
          Alcotest.test_case "fill dropped after invalidation (both engines)"
            `Quick test_fill_dropped_after_invalidation;
        ] );
    ]
