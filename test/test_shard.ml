(* Tests for the domain-parallel sharded serving path and the benchlib
   generators feeding it: Zipfian determinism/range/skew, router
   consistency, routed-operation correctness against an oracle, and the
   parallel-vs-sequential differential through [Serve] on a fixed seed. *)

open Spp_benchlib
open Spp_shard

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Keygen ----------------------------------------------------------- *)

let draws gen n = Array.init n (fun _ -> Keygen.next gen)

let test_zipfian_deterministic () =
  let mk () = Keygen.zipfian ~theta:0.99 ~seed:7 ~universe:1000 () in
  check_bool "same seed, same stream" true
    (draws (mk ()) 2000 = draws (mk ()) 2000);
  let other = Keygen.zipfian ~theta:0.99 ~seed:8 ~universe:1000 () in
  check_bool "different seed, different stream" false
    (draws (mk ()) 2000 = draws other 2000)

let test_zipfian_range () =
  List.iter
    (fun (theta, universe) ->
      let gen = Keygen.zipfian ~theta ~seed:3 ~universe () in
      Array.iter
        (fun v ->
          check_bool
            (Printf.sprintf "0 <= %d < %d (theta %.2f)" v universe theta)
            true
            (v >= 0 && v < universe))
        (draws gen 5000))
    [ (0.5, 10); (0.99, 1); (0.99, 1000); (0.8, 65536) ]

(* theta = 0.99 over 10k keys: the hottest 1% must carry at least 35% of
   the draws (the analytic head mass is ~0.5; the bar leaves sampling
   slack). Uniform over the same universe sits at ~1%, so the test also
   separates the two generators. *)
let required_head_mass = 0.35

let test_zipfian_skew () =
  let universe = 10_000 in
  let zipf = Keygen.zipfian ~theta:0.99 ~seed:11 ~universe () in
  let mass = Keygen.head_mass zipf ~samples:50_000 ~hot_fraction:0.01 in
  check_bool
    (Printf.sprintf "hottest 1%% carries %.3f >= %.2f" mass required_head_mass)
    true
    (mass >= required_head_mass);
  let uni = Keygen.uniform ~seed:11 ~universe in
  let umass = Keygen.head_mass uni ~samples:50_000 ~hot_fraction:0.01 in
  check_bool (Printf.sprintf "uniform head mass %.4f < 0.05" umass) true
    (umass < 0.05)

let test_uniform_deterministic_range () =
  let mk () = Keygen.uniform ~seed:5 ~universe:333 in
  let a = draws (mk ()) 3000 in
  check_bool "deterministic" true (a = draws (mk ()) 3000);
  Array.iter (fun v -> check_bool "in range" true (v >= 0 && v < 333)) a

(* Rotating hotspot: deterministic under the seed like the others, stays
   in range, and the hot region actually moves — the modal key of one
   epoch's draws must differ from the next epoch's. *)
let test_rotating_deterministic_moves () =
  let universe = 1000 and period = 500 in
  let mk seed = Keygen.rotating ~theta:0.99 ~seed ~universe ~period () in
  let a = draws (mk 7) 3000 in
  check_bool "same seed, same stream" true (a = draws (mk 7) 3000);
  check_bool "different seed, different stream" false (a = draws (mk 8) 3000);
  Array.iter
    (fun v -> check_bool "in range" true (v >= 0 && v < universe))
    a;
  let modal lo hi =
    let counts = Hashtbl.create 64 in
    for i = lo to hi - 1 do
      Hashtbl.replace counts a.(i)
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts a.(i)))
    done;
    Hashtbl.fold
      (fun k n (bk, bn) -> if n > bn then (k, n) else (bk, bn))
      counts (-1, 0)
  in
  let (m0, n0) = modal 0 period and (m1, n1) = modal period (2 * period) in
  check_bool "epochs are skewed" true (n0 > period / 10 && n1 > period / 10);
  check_bool
    (Printf.sprintf "hot key moved across epochs (%d vs %d)" m0 m1)
    true (m0 <> m1)

(* --- Router ----------------------------------------------------------- *)

let test_router_consistency () =
  let nshards = 4 in
  let seen = Array.make nshards 0 in
  for i = 0 to 999 do
    let key = Spp_pmemkv.Db_bench.key_of_int i in
    let s = Shard.shard_of_key ~nshards key in
    check_bool "in [0, nshards)" true (s >= 0 && s < nshards);
    (* stable across calls *)
    check_int "stable" s (Shard.shard_of_key ~nshards key);
    seen.(s) <- seen.(s) + 1
  done;
  Array.iteri
    (fun i n ->
      check_bool (Printf.sprintf "shard %d serves some keys" i) true (n > 0))
    seen;
  (* routing through a store instance agrees with the pure function *)
  let t = Shard.create ~nbuckets:16 ~pool_size:(1 lsl 20) ~nshards
      Spp_access.Pmdk in
  for i = 0 to 99 do
    let key = Spp_pmemkv.Db_bench.key_of_int i in
    check_int "instance route = pure route"
      (Shard.shard_of_key ~nshards key)
      (Shard.route t key)
  done

let test_routed_ops_oracle () =
  let t = Shard.create ~nbuckets:32 ~pool_size:(1 lsl 21) ~nshards:3
      Spp_access.Spp in
  let model = Hashtbl.create 64 in
  let st = Random.State.make [| 23 |] in
  for _ = 1 to 1500 do
    let key = Printf.sprintf "key-%d" (Random.State.int st 150) in
    match Random.State.int st 3 with
    | 0 ->
      let value = Printf.sprintf "val-%d" (Random.State.int st 10_000) in
      Shard.put t ~key ~value;
      Hashtbl.replace model key value
    | 1 ->
      check_bool "remove agrees" (Hashtbl.mem model key) (Shard.remove t key);
      Hashtbl.remove model key
    | _ ->
      Alcotest.(check (option string))
        "get agrees" (Hashtbl.find_opt model key) (Shard.get t key)
  done;
  check_int "count" (Hashtbl.length model) (Shard.count_all t)

(* --- Slot map ---------------------------------------------------------- *)

(* The versioned slot table: key->slot hashing is pure and stable, the
   fresh table reproduces the static modulo router, reassignment bumps
   the version and is visible through every accessor, and the store scan
   ownership-filters so a reassigned slot is served exactly once. *)
let test_slot_map () =
  let nslots = Shard.default_nslots in
  for i = 0 to 499 do
    let key = Spp_pmemkv.Db_bench.key_of_int i in
    let s = Shard.slot_of_key ~nslots key in
    check_bool "slot in range" true (s >= 0 && s < nslots);
    check_int "slot hashing stable" s (Shard.slot_of_key ~nslots key)
  done;
  let nshards = 4 in
  let t = Shard.create ~nbuckets:16 ~pool_size:(1 lsl 21) ~nshards
      Spp_access.Spp in
  check_int "default slot count" nslots (Shard.nslots t);
  let v0 = Shard.table_version t in
  for i = 0 to 199 do
    let key = Spp_pmemkv.Db_bench.key_of_int i in
    check_int "fresh table = static modulo router"
      (Shard.shard_of_key ~nshards key) (Shard.route t key);
    check_int "route = owner of slot"
      (Shard.owner t (Shard.slot_of t key)) (Shard.route t key)
  done;
  let counts = Array.init nshards (fun i -> Shard.owned_slots t i) in
  check_int "slots partitioned" nslots (Array.fold_left ( + ) 0 counts);
  (* pick a real key, move its slot, and watch everything update *)
  let key = Spp_pmemkv.Db_bench.key_of_int 0 in
  Shard.put t ~key ~value:"v0";
  let slot = Shard.slot_of t key in
  let src = Shard.route t key in
  let dst = (src + 1) mod nshards in
  Shard.set_slot_owner t ~slot ~shard:dst;
  check_bool "version bumped" true (Shard.table_version t > v0);
  check_int "route follows the table" dst (Shard.route t key);
  check_int "owner agrees" dst (Shard.owner t slot);
  check_int "owned_slots src shrank" (counts.(src) - 1)
    (Shard.owned_slots t src);
  check_int "owned_slots dst grew" (counts.(dst) + 1)
    (Shard.owned_slots t dst);
  check_bool "slots_of_shard dst lists the slot" true
    (List.mem slot (Shard.slots_of_shard t dst));
  check_bool "slots_of_shard src dropped it" false
    (List.mem slot (Shard.slots_of_shard t src));
  (* the assignment snapshot is a copy — mutating it must not route *)
  let a = Shard.assignment t in
  a.(slot) <- src;
  check_int "assignment returns a copy" dst (Shard.route t key);
  (* ownership filter: the key's value lives only on src's engine (we
     reassigned without copying), so a store scan must not serve it —
     the slot's owner is dst and dst has no copy *)
  let sv = Serve.create t in
  let scan () =
    match Serve.scan sv ~lo:key ~hi:key ~limit:10 with
    | Ok kvs -> kvs
    | Error _ -> Alcotest.fail "scan failed"
  in
  check_int "reassigned slot not served from old owner" 0
    (List.length (scan ()));
  Shard.set_slot_owner t ~slot ~shard:src;
  Alcotest.(check (list (pair string string)))
    "restored owner serves it again" [ (key, "v0") ] (scan ());
  Serve.stop sv;
  check_bool "invalid slot rejected" true
    (try ignore (Shard.set_slot_owner t ~slot:nslots ~shard:0); false
     with Invalid_argument _ -> true);
  check_bool "invalid shard rejected" true
    (try ignore (Shard.set_slot_owner t ~slot:0 ~shard:nshards); false
     with Invalid_argument _ -> true)

(* --- Parallel-vs-sequential differential ------------------------------ *)

let build_store ?engine nshards =
  let t = Shard.create ~nbuckets:64 ~pool_size:(1 lsl 21) ?engine ~nshards
      Spp_access.Spp in
  Shard_bench.preload t ~keys:300;
  Shard.reset_stats t;
  t

(* One submitting domain per shard stream. *)
let drive_parallel sv streams =
  Array.mapi
    (fun i ops -> Domain.spawn (fun () -> Shard_bench.drive sv i ops))
    streams
  |> Array.map Domain.join

(* The parallel = sequential differential over both engines, with range
   scans mixed into the streams: the same per-shard streams driven
   through [Serve] from one domain and from one domain per shard must
   give bit-identical replies (every scan reply included), merged Space
   stats and merged Memdev counters. *)
let test_parallel_sequential_differential () =
  List.iter
    (fun (engine, dist, workload) ->
      let nshards = 4 in
      let ops =
        Shard_bench.gen_ops ~scan_pct:10 ~seed:99 ~ops:2_000 ~universe:300
          ~dist workload
      in
      let streams = Shard_bench.partition ~nshards ops in
      check_int "partition preserves every op" 2_000
        (Array.fold_left (fun a s -> a + Array.length s) 0 streams);
      let t_seq = build_store ~engine nshards
      and t_par = build_store ~engine nshards in
      let sv_seq = Serve.create t_seq and sv_par = Serve.create t_par in
      let rs = Array.mapi (Shard_bench.drive sv_seq) streams in
      let rp = drive_parallel sv_par streams in
      Serve.stop sv_seq;
      Serve.stop sv_par;
      check_bool
        (Spp_pmemkv.Engine.spec_name engine
         ^ ": per-shard replies bit-identical")
        true (rs = rp);
      check_bool "some scans actually ran" true
        (Array.exists
           (Array.exists (function
              | Serve.Scanned (_ :: _) -> true
              | _ -> false))
           rs);
      check_bool "merged Space stats identical" true
        (Shard.merged_stats t_seq = Shard.merged_stats t_par);
      check_bool "merged Memdev counters identical" true
        (Shard.merged_counters t_seq = Shard.merged_counters t_par);
      check_int "same surviving entries" (Shard.count_all t_seq)
        (Shard.count_all t_par);
      check_int "all ops executed" 2_000
        (Array.fold_left (fun a s -> a + s.Serve.ss_ops) 0
           (Serve.stats sv_seq));
      check_int "no op failed" 0 (Serve.total_failed sv_seq))
    [ (Spp_pmemkv.Engines.cmap, Shard_bench.Uniform,
       Spp_pmemkv.Db_bench.Update_heavy);
      (Spp_pmemkv.Engines.cmap, Shard_bench.Zipfian 0.99,
       Spp_pmemkv.Db_bench.Read_heavy);
      (Spp_pmemkv.Engines.btree, Shard_bench.Uniform,
       Spp_pmemkv.Db_bench.Update_heavy);
      (Spp_pmemkv.Engines.btree, Shard_bench.Zipfian 0.99,
       Spp_pmemkv.Db_bench.Read_heavy) ]

(* A second run over the same parallel store must also be deterministic:
   shard state after run 1 is a pure function of the stream. *)
let test_parallel_rerun_deterministic () =
  let nshards = 2 in
  let ops =
    Shard_bench.gen_ops ~seed:5 ~ops:1_000 ~universe:300
      ~dist:Shard_bench.Uniform Spp_pmemkv.Db_bench.Update_heavy
  in
  let streams = Shard_bench.partition ~nshards ops in
  let sv1 = Serve.create (build_store nshards)
  and sv2 = Serve.create (build_store nshards) in
  let a1 = drive_parallel sv1 streams in
  let a2 = drive_parallel sv2 streams in
  check_bool "independent parallel runs agree" true (a1 = a2);
  let b1 = drive_parallel sv1 streams in
  let b2 = drive_parallel sv2 streams in
  check_bool "second round agrees too" true (b1 = b2);
  Serve.stop sv1;
  Serve.stop sv2

let () =
  Alcotest.run "spp_shard"
    [
      ( "keygen",
        [
          Alcotest.test_case "zipfian deterministic per seed" `Quick
            test_zipfian_deterministic;
          Alcotest.test_case "zipfian stays in range" `Quick test_zipfian_range;
          Alcotest.test_case "zipfian skew (theta 0.99)" `Quick
            test_zipfian_skew;
          Alcotest.test_case "uniform deterministic + range" `Quick
            test_uniform_deterministic_range;
          Alcotest.test_case "rotating hotspot deterministic + moves" `Quick
            test_rotating_deterministic_moves;
        ] );
      ( "router",
        [
          Alcotest.test_case "consistent stable routing" `Quick
            test_router_consistency;
          Alcotest.test_case "routed ops vs oracle" `Quick
            test_routed_ops_oracle;
          Alcotest.test_case "slot map versioned reassignment" `Quick
            test_slot_map;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "parallel = sequential (fixed seed)" `Quick
            test_parallel_sequential_differential;
          Alcotest.test_case "parallel reruns deterministic" `Quick
            test_parallel_rerun_deterministic;
        ] );
    ]
