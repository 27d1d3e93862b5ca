(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§VI). Run all experiments with `dune exec bench/main.exe`
   or a subset by name, e.g. `dune exec bench/main.exe -- fig4 table4`.
   `--quick` divides workload sizes by 10.

   Absolute numbers come from the simulator, not the authors' Optane
   testbed; what must match the paper is the *shape*: who wins, by
   roughly what factor, and where the outliers are. EXPERIMENTS.md
   records paper-vs-measured for every row. *)

open Spp_pmdk
open Spp_benchlib.Bench_util

let quick = Array.exists (fun a -> a = "--quick") Sys.argv

let sc n = if quick then max 1 (n / 10) else n

(* --json FILE: dump every emitted record as schema "spp-bench/1" (see
   EXPERIMENTS.md, "Benchmark methodology"). *)
let json_file =
  let rec find = function
    | "--json" :: path :: _ -> Some path
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

(* --domains N: cap the scaleout experiment's domain counts (CI smoke
   runs with 2; the full ladder is 1, 2, 4, 8). *)
let domains_cap =
  let rec find = function
    | "--domains" :: n :: _ -> int_of_string_opt n
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let jout = Spp_benchlib.Json_out.create ()

let jemit ~experiment ~name ~metric ?unit_ ?extra v =
  Spp_benchlib.Json_out.emit jout ~experiment ~name ~metric ?unit_ ?extra v

(* Identity and oracle gates: each emits metric "identical" (1 or 0),
   and a failed one makes the run exit 1 once every requested experiment
   has run and the JSON is written. Bars on timed speedups stay
   advisory. *)
let failed_gates = ref []

let gate ~experiment ~name ?extra ok =
  jemit ~experiment ~name ~metric:"identical" ?extra (if ok then 1. else 0.);
  if not ok then begin
    Printf.printf "!! GATE FAILED: %s/%s\n%!" experiment name;
    failed_gates := (experiment ^ "/" ^ name) :: !failed_gates
  end

(* The domain or shard counts of [all] that --domains allows. *)
let capped all =
  match domains_cap with
  | None -> all
  | Some cap -> List.filter (fun d -> d <= max 1 cap) all

(* The serving experiments' store: an SPP shard store with [keys] keys
   preloaded and its stats zeroed. [tracking] gives every shard device a
   durable image first, for the experiments that recover or count
   fences. *)
let preloaded_store ?(pool_size = 1 lsl 24) ?engine ?cache_cap
    ?(tracking = false) ~nshards ~keys () =
  let open Spp_shard in
  let t =
    Shard.create ~nbuckets:512 ~pool_size ?engine ?cache_cap ~nshards
      Spp_access.Spp
  in
  if tracking then
    for i = 0 to nshards - 1 do
      Spp_sim.Memdev.set_tracking
        (Pool.dev (Shard.shard_access (Shard.shard t i)).Spp_access.pool)
        true
    done;
  Shard_bench.preload t ~keys;
  Shard.reset_stats t;
  t

(* ------------------------------------------------------------------ *)
(* Fig. 4: persistent indices — insert/get/remove slowdowns            *)
(* ------------------------------------------------------------------ *)

let fig4_variants = [ Spp_access.Pmdk; Spp_access.Safepm; Spp_access.Spp ]

let index_pool_size = function
  | "rtree" -> 1 lsl 27
  | _ -> 1 lsl 26

let index_ops = function
  | "rtree" -> sc 4_000
  | _ -> sc 30_000

let run_index_workload variant index_name =
  Gc.full_major ();
  let n = index_ops index_name in
  let ks = keys ~seed:1 ~universe:(4 * n) n in
  let a =
    Spp_access.create ~pool_size:(index_pool_size index_name)
      ~name:index_name variant
  in
  let ix = Spp_indices.Indices.create index_name a in
  let t_insert, () =
    time (fun () ->
      Array.iter (fun k -> ix.Spp_indices.Indices.insert ~key:k ~value:k) ks)
  in
  let t_get, () =
    time (fun () ->
      Array.iter (fun k -> ignore (ix.Spp_indices.Indices.get k)) ks)
  in
  let t_remove, () =
    time (fun () ->
      Array.iter (fun k -> ignore (ix.Spp_indices.Indices.remove k)) ks)
  in
  (t_insert, t_get, t_remove)

let fig4 () =
  print_title "Figure 4: index throughput slowdown w.r.t. native PMDK";
  Printf.printf "(%d queries per operation type, 8-byte uniform keys)\n"
    (index_ops "ctree");
  print_row ~w:15
    ("index"
     :: List.concat_map
          (fun op ->
            List.map
              (fun v -> op ^ ":" ^ Spp_access.variant_name v)
              [ Spp_access.Safepm; Spp_access.Spp ])
          [ "ins"; "get"; "rem" ]);
  List.iter
    (fun index_name ->
      let results =
        List.map (fun v -> (v, run_index_workload v index_name)) fig4_variants
      in
      let bi, bg, br = List.assoc Spp_access.Pmdk results in
      let nops = float_of_int (index_ops index_name) in
      List.iter
        (fun (v, (ti, tg, tr)) ->
          let vn = Spp_access.variant_name v in
          List.iter
            (fun (op, t, b) ->
              let nm = Printf.sprintf "%s/%s/%s" index_name op vn in
              jemit ~experiment:"fig4" ~name:nm ~metric:"ns_per_op" ~unit_:"ns"
                (t /. nops *. 1e9);
              if v <> Spp_access.Pmdk then
                jemit ~experiment:"fig4" ~name:nm ~metric:"slowdown"
                  (slowdown ~baseline:b t))
            [ ("insert", ti, bi); ("get", tg, bg); ("remove", tr, br) ])
        results;
      let cells =
        List.concat_map
          (fun sel ->
            List.map
              (fun v ->
                let ti, tg, tr = List.assoc v results in
                let t, b =
                  match sel with
                  | `I -> (ti, bi)
                  | `G -> (tg, bg)
                  | `R -> (tr, br)
                in
                fmt_slowdown (slowdown ~baseline:b t))
              [ Spp_access.Safepm; Spp_access.Spp ])
          [ `I; `G; `R ]
      in
      print_row ~w:15 (index_name :: cells))
    [ "ctree"; "rbtree"; "rtree"; "hashmap_tx" ]

(* ------------------------------------------------------------------ *)
(* Fig. 5: pmemkv (cmap) — 4 workloads × thread counts                 *)
(* ------------------------------------------------------------------ *)

let fig5_threads = [ 1; 2; 4; 8; 16; 32 ]

(* Fig. 5 and Fig. 7 time each variant's cell a millisecond or so apart
   and take each cell as the median of [reps] per-repetition ratios,
   with the variant that runs first rotating from one repetition to the
   next: host drift between two back-to-back timings then moves single
   repetitions, not the figure. *)
let reps = if quick then 3 else 5

let median l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [l] with its first [k mod length] elements moved to the end. *)
let rotate k l =
  let k = k mod List.length l in
  List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l

let fig5 () =
  print_title "Figure 5: pmemkv slowdown w.r.t. native PMDK";
  let preload_keys = sc 3_000 and ops_per_thread = sc 1_500 in
  Printf.printf
    "(cmap engine, %d preloaded keys, 16 B keys / 1024 B values, %d \
     ops per logical thread; median of %d repetitions)\n"
    preload_keys ops_per_thread reps;
  List.iter
    (fun workload ->
      print_subtitle (Spp_pmemkv.Db_bench.workload_name workload);
      let wname =
        match workload with
        | Spp_pmemkv.Db_bench.Update_heavy -> "50-50"
        | Read_heavy -> "95-5"
        | Random_reads -> "reads"
        | Seq_reads -> "seq"
      in
      (* one store per variant, each running the same op stream, so the
         three evolve alike across cells and repetitions *)
      let stores =
        List.map
          (fun v ->
            let a =
              Spp_access.create ~pool_size:(1 lsl 27)
                ~name:(Spp_access.variant_name v) v
            in
            let kv = Spp_pmemkv.Engine.create Spp_pmemkv.Engines.cmap a in
            Spp_pmemkv.Db_bench.preload kv ~keys:preload_keys;
            (v, kv))
          fig4_variants
      in
      (* (variant, threads) -> median shard time per repetition, newest
         first *)
      let times = Hashtbl.create 32 in
      for rep = 0 to reps - 1 do
        List.iter
          (fun threads ->
            List.iter
              (fun (v, kv) ->
                let r =
                  Spp_pmemkv.Db_bench.run kv ~threads ~ops_per_thread
                    ~universe:preload_keys workload
                in
                (* the median shard time is the robust per-thread cost
                   estimator under the logical-thread model *)
                let key = (v, threads) in
                Hashtbl.replace times key
                  (r.Spp_pmemkv.Db_bench.median_shard
                   :: Option.value ~default:[] (Hashtbl.find_opt times key)))
              (rotate rep stores))
          fig5_threads
      done;
      let name v threads =
        Printf.sprintf "%s/%dt/%s" wname threads (Spp_access.variant_name v)
      in
      List.iter
        (fun v ->
          List.iter
            (fun threads ->
              jemit ~experiment:"fig5" ~name:(name v threads)
                ~metric:"ns_per_op" ~unit_:"ns"
                (median (Hashtbl.find times (v, threads))
                 /. float_of_int ops_per_thread *. 1e9))
            fig5_threads)
        fig4_variants;
      print_row ~w:10 ("threads" :: List.map string_of_int fig5_threads);
      List.iter
        (fun v ->
          let cell threads =
            let x =
              median
                (List.map2 (fun t b -> slowdown ~baseline:b t)
                   (Hashtbl.find times (v, threads))
                   (Hashtbl.find times (Spp_access.Pmdk, threads)))
            in
            jemit ~experiment:"fig5" ~name:(name v threads) ~metric:"slowdown" x;
            fmt_slowdown x
          in
          print_row ~w:10
            (Spp_access.variant_name v :: List.map cell fig5_threads))
        [ Spp_access.Safepm; Spp_access.Spp ])
    Spp_pmemkv.Db_bench.all_workloads

(* ------------------------------------------------------------------ *)
(* Fig. 6: Phoenix suite                                               *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  print_title "Figure 6: Phoenix benchmark suite slowdown w.r.t. native PMDK";
  Printf.printf "(PM port, 31 tag bits as in the paper)\n";
  print_row ~w:20 [ "application"; "safepm"; "spp" ];
  List.iter
    (fun app ->
      let scale = sc app.Spp_phoenix.Phx_apps.default_scale in
      let run v =
        let a =
          Spp_access.create ~tag_bits:31 ~pool_size:(1 lsl 26)
            ~name:app.Spp_phoenix.Phx_apps.app_name v
        in
        Gc.full_major ();
        time (fun () -> app.Spp_phoenix.Phx_apps.run a ~scale)
      in
      let tb, rb = run Spp_access.Pmdk in
      let ts, rs = run Spp_access.Safepm in
      let tp, rp = run Spp_access.Spp in
      assert (rb = rs && rb = rp);
      print_row ~w:20
        [ app.Spp_phoenix.Phx_apps.app_name;
          fmt_slowdown (slowdown ~baseline:tb ts);
          fmt_slowdown (slowdown ~baseline:tb tp) ])
    Spp_phoenix.Phx_apps.apps

(* ------------------------------------------------------------------ *)
(* Fig. 7: atomic and transactional PM management operations           *)
(* ------------------------------------------------------------------ *)

let fig7_sizes = [ 64; 256; 1024; 4096; 16384 ]
let fig7_ops = sc 4_000

let fig7_op_names =
  [ "atomic alloc"; "tx alloc"; "atomic free"; "tx free"; "atomic realloc";
    "tx realloc" ]

(* One size's six phases in [mode]: (operation, seconds, fences per op). *)
let fig7_run mode size =
  Gc.compact ();
  let fresh_pool () =
    let space = Spp_sim.Space.create () in
    (* large enough for 4000 reallocs whose old blocks land in a
       different class and cannot be reused *)
    Pool.create space ~base:4096 ~size:(1 lsl 28) ~mode ~name:"ops"
  in
  let phase p name f =
    let fences () = (Spp_sim.Memdev.counters (Pool.dev p)).Spp_sim.Memdev.fences in
    let f0 = fences () in
    let t, () = time (fun () -> for i = 0 to fig7_ops - 1 do f i done) in
    (name, t, float_of_int (fences () - f0) /. float_of_int fig7_ops)
  in
  let oids = Array.make fig7_ops Oid.null in
  (* atomic API *)
  let p = fresh_pool () in
  let a1 = phase p "atomic alloc" (fun i -> oids.(i) <- Pool.alloc p ~size) in
  let a2 =
    phase p "atomic realloc" (fun i ->
      oids.(i) <- Pool.realloc p oids.(i) ~size:(size * 3 / 2))
  in
  let a3 = phase p "atomic free" (fun i -> Pool.free_ p oids.(i)) in
  (* transactional API: one operation per transaction (pmembench) *)
  let p = fresh_pool () in
  let t1 =
    phase p "tx alloc" (fun i ->
      oids.(i) <- Pool.with_tx p (fun () -> Pool.tx_alloc p ~size))
  in
  let t2 =
    phase p "tx realloc" (fun i ->
      oids.(i) <-
        Pool.with_tx p (fun () ->
          Pool.tx_realloc p oids.(i) ~size:(size * 3 / 2)))
  in
  let t3 =
    phase p "tx free" (fun i -> Pool.with_tx p (fun () -> Pool.tx_free p oids.(i)))
  in
  [ a1; a2; a3; t1; t2; t3 ]

let fig7 () =
  print_title "Figure 7: PM management operations — SPP slowdown w.r.t. PMDK";
  Printf.printf "(%d operations per point; median of %d repetitions)\n"
    fig7_ops reps;
  let modes =
    [ ("pmdk", Mode.Native); ("spp", Mode.Spp Spp_core.Config.default) ]
  in
  (* (mode, size, op) -> seconds per repetition, newest first; and the
     fences per op, which are the same in every repetition *)
  let times = Hashtbl.create 64 and fences = Hashtbl.create 64 in
  for rep = 0 to reps - 1 do
    List.iter
      (fun size ->
        List.iter
          (fun (mn, mode) ->
            List.iter
              (fun (op, t, f) ->
                let key = (mn, size, op) in
                Hashtbl.replace times key
                  (t :: Option.value ~default:[] (Hashtbl.find_opt times key));
                Hashtbl.replace fences key f)
              (fig7_run mode size))
          (rotate rep modes))
      fig7_sizes
  done;
  let header =
    "operation" :: List.map (fun s -> Printf.sprintf "%d B" s) fig7_sizes
  in
  print_row ~w:16 header;
  List.iter
    (fun op ->
      let cells =
        List.map
          (fun size ->
            let nm = Printf.sprintf "%s/%d" op size in
            let ts mn = Hashtbl.find times (mn, size, op) in
            List.iter
              (fun (mn, _) ->
                jemit ~experiment:"fig7" ~name:(nm ^ "/" ^ mn)
                  ~metric:"ns_per_op" ~unit_:"ns"
                  (median (ts mn) /. float_of_int fig7_ops *. 1e9);
                jemit ~experiment:"fig7" ~name:(nm ^ "/" ^ mn)
                  ~metric:"fences_per_op" ~unit_:"count/op"
                  (Hashtbl.find fences (mn, size, op)))
              modes;
            let x =
              median
                (List.map2 (fun t b -> slowdown ~baseline:b t) (ts "spp")
                   (ts "pmdk"))
            in
            jemit ~experiment:"fig7" ~name:nm ~metric:"slowdown" x;
            fmt_slowdown x)
          fig7_sizes
      in
      print_row ~w:16 (op :: cells))
    fig7_op_names;
  print_subtitle "fences per op (pmdk / spp)";
  print_row ~w:16 header;
  List.iter
    (fun op ->
      print_row ~w:16
        (op
         :: List.map
              (fun size ->
                let f mn = Hashtbl.find fences (mn, size, op) in
                Printf.sprintf "%.2f/%.2f" (f "pmdk") (f "spp"))
              fig7_sizes))
    fig7_op_names

(* ------------------------------------------------------------------ *)
(* Table II: recovery time vs number of snapshotted PMEMoids           *)
(* ------------------------------------------------------------------ *)

let table2_counts =
  if quick then [ 100; 1000; 10_000 ]
  else [ 100; 1000; 10_000; 100_000; 1_000_000 ]

let table2_run mode n =
  Gc.compact ();
  let space = Spp_sim.Space.create () in
  let pool = Pool.create space ~base:4096 ~size:(1 lsl 28) ~mode ~name:"rec" in
  let oz = Pool.oid_stored_size pool in
  let slots = Pool.alloc pool ~size:(n * oz) in
  for i = 0 to n - 1 do
    let oid = Pool.alloc pool ~size:32 in
    Pool.store_oid pool ~off:(slots.Oid.off + (i * oz)) oid
  done;
  (* snapshot exclusively PMEMoids, then crash before commit *)
  Pool.tx_begin pool;
  for i = 0 to n - 1 do
    Pool.tx_add_range pool ~off:(slots.Oid.off + (i * oz)) ~len:oz
  done;
  Spp_sim.Memdev.crash (Pool.dev pool);
  let t, (_ : Pool.recovery_report) = time (fun () -> Pool.recover pool) in
  t

let table2 () =
  print_title "Table II: recovery time (ms) vs snapshotted PMEMoids";
  print_row ~w:14 ("variant" :: List.map string_of_int table2_counts);
  List.iter
    (fun (name, mode) ->
      let cells =
        List.map
          (fun n -> Printf.sprintf "%.2f" (1000. *. table2_run mode n))
          table2_counts
      in
      print_row ~w:14 (name :: cells))
    [ ("pmdk", Mode.Native); ("spp", Mode.Spp Spp_core.Config.default) ]

(* ------------------------------------------------------------------ *)
(* Table III: PM space overhead of SPP                                 *)
(* ------------------------------------------------------------------ *)

let table3 () =
  print_title "Table III: SPP PM space overhead (after insert + get)";
  print_row ~w:14 [ "index"; "pmdk"; "spp"; "overhead"; "pct" ];
  List.iter
    (fun index_name ->
      let bytes variant =
        let n = index_ops index_name / 2 in
        let ks = keys ~seed:1 ~universe:(4 * n) n in
        let a =
          Spp_access.create ~pool_size:(index_pool_size index_name)
            ~name:index_name variant
        in
        let ix = Spp_indices.Indices.create index_name a in
        Array.iter (fun k -> ix.Spp_indices.Indices.insert ~key:k ~value:k) ks;
        Array.iter (fun k -> ignore (ix.Spp_indices.Indices.get k)) ks;
        (Pool.heap_stats a.Spp_access.pool).Heap.allocated_bytes
      in
      let native = bytes Spp_access.Pmdk in
      let spp = bytes Spp_access.Spp in
      let over = spp - native in
      print_row ~w:14
        [ index_name; fmt_mb native; fmt_mb spp; fmt_mb over;
          fmt_pct (float_of_int over /. float_of_int native) ])
    [ "ctree"; "rbtree"; "rtree"; "hashmap_tx" ]

(* ------------------------------------------------------------------ *)
(* Table IV: RIPE attacks                                              *)
(* ------------------------------------------------------------------ *)

let table4 () =
  print_title "Table IV: RIPE attacks under different protection mechanisms";
  Printf.printf "(%d buffer-overflow attacks per row; see lib/ripe)\n"
    (List.length Spp_ripe.Ripe.all_attacks);
  print_row ~w:16 [ "variant"; "successful"; "prevented"; "failed" ];
  List.iter
    (fun r ->
      print_row ~w:16
        [ r.Spp_ripe.Ripe.row_name;
          string_of_int r.Spp_ripe.Ripe.successful;
          string_of_int r.Spp_ripe.Ripe.prevented;
          string_of_int r.Spp_ripe.Ripe.failed ])
    (Spp_ripe.Ripe.run_all ());
  Printf.printf
    "SPP blind spots (as in the paper): int2ptr laundering, uninstrumented \
     external writes, intra-object overflows.\n"

(* ------------------------------------------------------------------ *)
(* §VI-D: reproduced real bugs                                         *)
(* ------------------------------------------------------------------ *)

let bugs () =
  print_title "Section VI-D: reproduced bugs";
  let show name outcome =
    Printf.printf "%-46s %s\n" name
      (match outcome with
       | Spp_access.Prevented r -> "DETECTED (" ^ r ^ ")"
       | Spp_access.Ok_completed -> "not detected")
  in
  let btree variant =
    let a =
      Spp_access.create ~pool_size:(1 lsl 20)
        ~name:(Spp_access.variant_name variant) variant
    in
    let t = Spp_indices.Btree_map.create ~buggy:true a in
    let ix = Spp_indices.Indices.of_btree t in
    Spp_access.run_guarded (fun () ->
      for k = 1 to 7 do
        ix.Spp_indices.Indices.insert ~key:k ~value:k
      done;
      ignore (ix.Spp_indices.Indices.remove 1))
  in
  show "btree memmove overflow (pmdk#5333) / SPP" (btree Spp_access.Spp);
  show "btree memmove overflow (pmdk#5333) / PMDK" (btree Spp_access.Pmdk);
  let arr variant =
    let a =
      Spp_access.create ~pool_size:(1 lsl 16)
        ~name:(Spp_access.variant_name variant) variant
    in
    Spp_access.run_guarded (fun () ->
      Spp_ripe.Bug_repros.array_example ~buggy:true a)
  in
  show "PMDK array example realloc overflow / SPP" (arr Spp_access.Spp);
  show "PMDK array example realloc overflow / PMDK" (arr Spp_access.Pmdk);
  let sm variant =
    let a =
      Spp_access.create ~tag_bits:31 ~pool_size:(1 lsl 22)
        ~name:(Spp_access.variant_name variant) variant
    in
    Spp_access.run_guarded (fun () ->
      ignore (Spp_phoenix.Phx_apps.string_match ~buggy:true a ~scale:8192))
  in
  show "Phoenix string_match off-by-one / SPP" (sm Spp_access.Spp);
  show "Phoenix string_match off-by-one / PMDK" (sm Spp_access.Pmdk)

(* ------------------------------------------------------------------ *)
(* §VI-E: crash-consistency validation                                 *)
(* ------------------------------------------------------------------ *)

(* Raw consistency check of a recovered hashmap_tx image: the stored
   count must equal the number of entries reachable from the buckets. *)
let hashmap_consistent ~map_off pool' =
  let oz = Pool.oid_stored_size pool' in
  let count = Pool.load_word pool' ~off:map_off in
  let nbuckets = Pool.load_word pool' ~off:(map_off + 8) in
  let buckets = Pool.load_oid pool' ~off:(map_off + 16) in
  if Oid.is_null buckets || nbuckets <= 0 then false
  else begin
    let entries = ref 0 in
    (try
       for b = 0 to nbuckets - 1 do
         let rec walk slot_off depth =
           if depth > 10_000 then failwith "cycle";
           let oid = Pool.load_oid pool' ~off:slot_off in
           if not (Oid.is_null oid) then begin
             incr entries;
             walk (oid.Oid.off + 16) (depth + 1)
           end
         in
         walk (buckets.Oid.off + (b * oz)) 0
       done;
       ()
     with _ -> entries := -1);
    !entries = count
  end

let crashcheck () =
  print_title "Section VI-E: crash consistency (pmemcheck + pmreorder)";
  let n = sc 1_000 in
  List.iter
    (fun (mode_name, variant) ->
      List.iter
        (fun index_name ->
          let a =
            Spp_access.create ~pool_size:(index_pool_size index_name)
              ~name:index_name variant
          in
          let ix = Spp_indices.Indices.create index_name a in
          let (), report =
            Spp_pmemcheck.Pmemcheck.check_run a.Spp_access.pool (fun () ->
              let count = if index_name = "rtree" then n / 10 else n in
              for k = 1 to count do
                ix.Spp_indices.Indices.insert ~key:k ~value:k
              done;
              for k = 1 to count / 2 do
                ignore (ix.Spp_indices.Indices.remove k)
              done)
          in
          let clean = Spp_pmemcheck.Pmemcheck.is_clean report in
          Printf.printf "pmemcheck %-6s %-12s %s [%s]\n" mode_name index_name
            (Format.asprintf "%a" Spp_pmemcheck.Pmemcheck.pp_report report)
            (if clean then "CLEAN" else "VIOLATIONS");
          gate ~experiment:"crashcheck"
            ~name:(Printf.sprintf "pmemcheck/%s/%s" mode_name index_name)
            clean)
        [ "ctree"; "rbtree"; "hashmap_tx" ])
    [ ("pmdk", Spp_access.Pmdk); ("spp", Spp_access.Spp) ];
  (* pmreorder over transactional index updates *)
  let a =
    Spp_access.create ~pool_size:(1 lsl 20) ~name:"reorder" Spp_access.Spp
  in
  let t = Spp_indices.Hashmap_tx.create a in
  Spp_indices.Hashmap_tx.insert t ~key:1 ~value:10;
  let map_off = (Spp_indices.Hashmap_tx.map_oid_of t).Oid.off in
  let result =
    Spp_pmemcheck.Pmreorder.explore ~pool:a.Spp_access.pool
      ~workload:(fun () ->
        Spp_indices.Hashmap_tx.insert t ~key:2 ~value:20;
        ignore (Spp_indices.Hashmap_tx.remove t 1))
      ~consistent:(hashmap_consistent ~map_off)
      ()
  in
  let clean = result.Spp_pmemcheck.Pmreorder.failures = 0 in
  Printf.printf "pmreorder  spp    hashmap_tx   %s [%s]\n"
    (Format.asprintf "%a" Spp_pmemcheck.Pmreorder.pp_result result)
    (if clean then "CLEAN" else "VIOLATIONS");
  gate ~experiment:"crashcheck" ~name:"pmreorder/spp/hashmap_tx" clean

(* ------------------------------------------------------------------ *)
(* Access amplification (ours): timing-free overhead evidence          *)
(* ------------------------------------------------------------------ *)

(* Counts, not clocks: how many PM loads/stores each variant issues for
   the same workload. Immune to scheduler noise, and it shows the
   mechanism directly: SafePM adds shadow loads on every access, SPP
   adds none (its checks are register arithmetic). *)
let counters () =
  print_title "Access amplification per variant (counts, not time)";
  let workload_ops = sc 5_000 in
  Printf.printf "(ctree: %d inserts + %d gets)
" workload_ops workload_ops;
  print_row ~w:16 [ "variant"; "pm loads"; "pm stores"; "hook calls" ];
  let baseline_loads = ref 0 in
  List.iter
    (fun v ->
      let a =
        Spp_access.create ~pool_size:(1 lsl 26)
          ~name:(Spp_access.variant_name v) v
      in
      let ix = Spp_indices.Indices.create "ctree" a in
      Spp_sim.Space.reset_stats a.Spp_access.space;
      Spp_core.Runtime.reset_counters ();
      for k = 1 to workload_ops do
        ix.Spp_indices.Indices.insert ~key:k ~value:k
      done;
      for k = 1 to workload_ops do
        ignore (ix.Spp_indices.Indices.get k)
      done;
      let st = Spp_sim.Space.stats a.Spp_access.space in
      let hooks =
        let c = Spp_core.Runtime.counters in
        c.Spp_core.Runtime.updatetag + c.Spp_core.Runtime.cleantag
        + c.Spp_core.Runtime.checkbound + c.Spp_core.Runtime.memintr_check
      in
      if v = Spp_access.Pmdk then baseline_loads := st.Spp_sim.Space.pm_loads;
      print_row ~w:16
        [ Spp_access.variant_name v;
          Printf.sprintf "%d (%.2fx)" st.Spp_sim.Space.pm_loads
            (float_of_int st.Spp_sim.Space.pm_loads
             /. float_of_int (max 1 !baseline_loads));
          string_of_int st.Spp_sim.Space.pm_stores;
          string_of_int hooks ])
    fig4_variants

(* ------------------------------------------------------------------ *)
(* Ablation: the compiler optimizations (ours)                         *)
(* ------------------------------------------------------------------ *)

let ablation () =
  print_title "Ablation: SPP compiler optimizations (miniature IR)";
  let open Spp_instr.Ir in
  let count = sc 20_000 in
  let prog =
    {
      main = "main";
      funcs =
        [
          {
            fname = "main";
            params = [];
            nregs = 16;
            body =
              [
                Pm_alloc { obj = 0; size = 8 * (count + 1) };
                Pm_direct { dst = 0; obj = 0 };
                Const { dst = 1; value = 7 };
                Gep { dst = 0; src = 0; off = -8 };
                Loop
                  {
                    count;
                    body =
                      [
                        Gep { dst = 0; src = 0; off = 8 };
                        Store { ptr = 0; value = 1; width = 8 };
                      ];
                  };
                (* volatile traffic that tracking should deinstrument *)
                Vheap_alloc { dst = 2; size = 4096 };
                Loop
                  {
                    count = count / 4;
                    body =
                      [
                        Store { ptr = 2; value = 1; width = 8 };
                        Load { dst = 3; ptr = 2; width = 8 };
                      ];
                  };
              ];
          };
        ];
    }
  in
  print_row ~w:28 [ "configuration"; "hook execs"; "time" ];
  List.iter
    (fun (name, options) ->
      let p, _ = Spp_instr.Passes.compile ~options prog in
      let m = Spp_instr.Interp.make_machine ~pool_size:(1 lsl 22) () in
      let t, () = time (fun () -> Spp_instr.Interp.run_program m p) in
      print_row ~w:28
        [ name; string_of_int m.Spp_instr.Interp.hook_execs; fmt_ms t ])
    [
      ("no optimizations",
       { Spp_instr.Passes.tracking = false; preemption = false });
      ("+ pointer tracking",
       { Spp_instr.Passes.tracking = true; preemption = false });
      ("+ bound-check preemption", Spp_instr.Passes.default_options);
    ]

(* ------------------------------------------------------------------ *)
(* Hook micro-costs via Bechamel                                       *)
(* ------------------------------------------------------------------ *)

let hook_microbench () =
  print_title "SPP hook micro-costs (Bechamel, ns/op)";
  let open Bechamel in
  let cfg = Spp_core.Config.default in
  let ptr = Spp_core.Encoding.mk_tagged cfg ~addr:0x1000 ~size:4096 in
  let tests =
    Test.make_grouped ~name:"hooks"
      [
        Test.make ~name:"updatetag"
          (Staged.stage (fun () -> Spp_core.Encoding.update_tag cfg ptr 8));
        Test.make ~name:"cleantag"
          (Staged.stage (fun () -> Spp_core.Encoding.clean_tag cfg ptr));
        Test.make ~name:"checkbound"
          (Staged.stage (fun () -> Spp_core.Encoding.check_bound cfg ptr 8));
        Test.make ~name:"gep"
          (Staged.stage (fun () -> Spp_core.Encoding.gep cfg ptr 8));
        Test.make ~name:"native add (baseline)"
          (Staged.stage (fun () -> Sys.opaque_identity (ptr + 8)));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let bcfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all bcfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "%-32s %8.2f ns/op\n" name est
      | Some _ | None -> Printf.printf "%-32s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)
(* Pipeline microbenchmark (ours): translate / flush / fence paths     *)
(* ------------------------------------------------------------------ *)

(* Address translation through the TLB-fronted sorted-array lookup, the
   tracking-mode store/flush/fence pipeline, and uncached engine gets
   and scans. The reference paths these replaced (the list tracking
   engine, the copying read path) were removed once their before/after
   numbers were recorded in BENCH_pipeline.json. *)

let pipeline () =
  let open Spp_sim in
  print_title
    "Pipeline microbenchmark: translation TLB, store tracking, hot path";
  (* -- translation: hot loads through the TLB, with decoy regions so the
        slow path has a real array to search -- *)
  let space = Space.create () in
  let psize = 1 lsl 22 in
  let dev = Memdev.create_persistent ~name:"pipe" psize in
  Space.map space ~base:4096 ~size:psize ~kind:Space.Persistent ~name:"pm" dev;
  for i = 0 to 7 do
    let d = Memdev.create_volatile ~name:(Printf.sprintf "v%d" i) 4096 in
    Space.map space ~base:((1 lsl 30) + (i * 8192)) ~size:4096
      ~kind:Space.Volatile ~name:(Printf.sprintf "v%d" i) d
  done;
  let n = sc 1_000_000 in
  Space.reset_stats space;
  let t_translate =
    best_of (fun () ->
      for i = 0 to n - 1 do
        (* 64 B stride over 2 MiB: sequential pages, TLB-friendly *)
        ignore (Space.load_word space (4096 + ((i land 0x7FFF) * 64)))
      done)
  in
  let st = Space.stats space in
  let hit_rate =
    float_of_int st.Space.tlb_hits
    /. float_of_int (max 1 (st.Space.tlb_hits + st.Space.tlb_misses))
  in
  let ns_translate = t_translate /. float_of_int n *. 1e9 in
  Printf.printf "translate+load        %8.1f ns/op   (TLB hit rate %s)\n"
    ns_translate (fmt_pct hit_rate);
  jemit ~experiment:"pipeline" ~name:"translate_load" ~metric:"ns_per_op"
    ~unit_:"ns"
    ~extra:[ ("tlb_hit_rate", Spp_benchlib.Json_out.J_float hit_rate) ]
    ns_translate;
  (* -- store tracking: P stores to distinct cachelines, P flushes, one
        fence — the PMDK commit pattern. The pending set is indexed by
        cacheline, so a flush touches only its line's bucket and the
        fence drains only the flushed records. -- *)
  (* [lines] stays fixed even under --quick: the cost per round depends
     on the pending-set size, so quick mode scales rounds only. *)
  let lines = 1024 in
  let rounds = sc 100 in
  let ops_per_run = rounds * ((2 * lines) + 1) in
  let dev = Memdev.create_persistent ~name:"engine" (1 lsl 20) in
  Memdev.set_tracking dev true;
  let t_indexed =
    best_of (fun () ->
      for _ = 1 to rounds do
        for i = 0 to lines - 1 do
          Memdev.store_word dev ~off:(i * 64) i
        done;
        for i = 0 to lines - 1 do
          Memdev.flush dev ~off:(i * 64) ~len:8
        done;
        Memdev.fence dev
      done)
  in
  let ns_indexed = t_indexed /. float_of_int ops_per_run *. 1e9 in
  Printf.printf "store/flush/fence     %8.1f ns/op\n" ns_indexed;
  jemit ~experiment:"pipeline" ~name:"flush_fence/line_indexed"
    ~metric:"ns_per_op" ~unit_:"ns" ns_indexed;
  (* -- hot path: uncached engine gets and scans. Reads hoist the
        pointer check and region resolution into view acquisition and
        copy each value once; pm_bytes_loaded per get counts the
        opened windows. Every reply is checked against the preloaded
        contents before numbers are reported. The records keep their
        "lease" names for continuity with earlier snapshots. -- *)
  print_subtitle "hot path: uncached gets and scans";
  let universe = sc 4_000 in
  let ngets = sc 40_000 in
  let nscans = sc 400 in
  (* load factor ~4 in both quick and full mode, so the chain walk is
     exercised the same way at either scale; 1 KiB values are the YCSB
     record size *)
  let nbuckets = max 64 (universe / 4) in
  let value = String.make 1024 'v' in
  let key_of = Spp_pmemkv.Db_bench.key_of_int in
  Printf.printf
    "(Spp variant, %d-key universe, %d B values, %d uncached gets, %d \
     scans of limit 64)\n"
    universe (String.length value) ngets nscans;
  print_row ~w:13 [ "engine"; "ns/get"; "B loaded/get"; "ns/scan entry" ];
  List.iter
    (fun ename ->
      let spec =
        match Spp_pmemkv.Engines.of_name ename with
        | Some s -> s
        | None -> failwith ("unknown engine " ^ ename)
      in
      Gc.compact ();
      let a =
        Spp_access.create ~pool_size:(1 lsl 25) ~name:("hot-" ^ ename)
          Spp_access.Spp
      in
      let kv = Spp_pmemkv.Engine.create ~nbuckets spec a in
      for k = 0 to universe - 1 do
        Spp_pmemkv.Engine.put kv ~key:(key_of k) ~value
      done;
      let ks = Array.map key_of (keys ~seed:11 ~universe ngets) in
      let scan_lo i = i * 37 mod universe in
      let scan_of i =
        Spp_pmemkv.Engine.scan kv ~lo:(key_of (scan_lo i)) ~hi:"~" ~limit:64
      in
      (* oracle pass over the exact key and scan streams the timed passes
         use: keys are zero-padded, so a scan from key [lo] returns the
         next (at most) 64 keys in numeric order *)
      let expected_scan i =
        let lo = scan_lo i in
        List.init (min 64 (universe - lo)) (fun j -> (key_of (lo + j), value))
      in
      let gets_ok =
        Array.for_all (fun k -> Spp_pmemkv.Engine.get kv k = Some value) ks
      in
      let entries = ref 0 and scans_ok = ref true in
      for i = 0 to nscans - 1 do
        let l = scan_of i in
        entries := !entries + List.length l;
        if l <> expected_scan i then scans_ok := false
      done;
      let nm what = Printf.sprintf "hotpath/%s/%s" ename what in
      gate ~experiment:"pipeline" ~name:(nm "oracle") (gets_ok && !scans_ok);
      let space = Pool.space a.Spp_access.pool in
      let get_pass () =
        Array.iter (fun k -> ignore (Spp_pmemkv.Engine.get kv k)) ks
      in
      Space.reset_stats space;
      let t_first, () = time get_pass in
      let st = Space.stats space in
      let bytes_per_get =
        float_of_int st.Space.pm_bytes_loaded /. float_of_int ngets
      in
      let t_get = min t_first (best_of ~n:2 get_pass) in
      let t_scan =
        best_of (fun () ->
          for i = 0 to nscans - 1 do
            ignore (scan_of i)
          done)
      in
      let ns_get = t_get /. float_of_int ngets *. 1e9 in
      let ns_scan = t_scan /. float_of_int (max 1 !entries) *. 1e9 in
      print_row ~w:13
        [ ename; Printf.sprintf "%.0f" ns_get;
          Printf.sprintf "%.0f" bytes_per_get; Printf.sprintf "%.1f" ns_scan ];
      jemit ~experiment:"pipeline" ~name:(nm "get/lease")
        ~metric:"ns_per_get" ~unit_:"ns"
        ~extra:
          [ ("pm_bytes_per_get", Spp_benchlib.Json_out.J_float bytes_per_get) ]
        ns_get;
      jemit ~experiment:"pipeline" ~name:(nm "scan/lease")
        ~metric:"ns_per_scanned_entry" ~unit_:"ns" ns_scan)
    [ "cmap"; "btree" ]

(* ------------------------------------------------------------------ *)
(* Scaleout (ours): one submitting domain per shard vs one for all      *)
(* ------------------------------------------------------------------ *)

(* Fig. 5's thread model runs logical shards on one thread; this
   experiment drives the same per-shard streams through [Serve], once
   from one submitting domain and once from one domain per shard
   (shard-per-pool, see lib/shard), and reports the throughput ladder,
   the parallel-vs-sequential speedup, and uniform-vs-Zipfian skew.
   Every point first proves the two sides bit-identical on the same
   seed (per-shard replies, merged Space stats, merged Memdev counters)
   and checks that every op ran inline on its shard: no queueing, one
   batch per op. A wrong path must not produce a throughput number. *)

let scaleout () =
  let open Spp_shard in
  print_title "Scaleout: domain-parallel sharded KV through Serve";
  let domain_counts = capped [ 1; 2; 4; 8 ] in
  let preload_keys = sc 2_000 and total_ops = sc 24_000 in
  let seed = 42 in
  Printf.printf
    "(cmap engine under SPP, %d preloaded keys, %d routed ops, update-heavy, \
     one op in flight per submitter; %d core(s) recommended by the runtime)\n"
    preload_keys total_ops
    (Domain.recommended_domain_count ());
  (* One side: a fresh store behind a fresh [Serve], the per-shard
     streams run by [exec], timed from first submission to last reply. *)
  let side nshards exec =
    let t =
      preloaded_store ~pool_size:(1 lsl 23) ~nshards ~keys:preload_keys ()
    in
    let sv = Serve.create t in
    (* drain the GC before timing so a pending major collection from
       preload does not land inside the measured window *)
    Gc.full_major ();
    let wall, replies = time (fun () -> exec sv) in
    Serve.stop sv;
    let inline =
      Array.for_all (( = ) 0) (Serve.peak_queue_depths sv)
      && Serve.total_batches sv = total_ops
    in
    (t, replies, inline, float_of_int total_ops /. Float.max wall 1e-9)
  in
  let run_pair ~nshards ~dist workload =
    let streams =
      Shard_bench.partition ~nshards
        (Shard_bench.gen_ops ~seed ~ops:total_ops ~universe:preload_keys
           ~dist workload)
    in
    let ts, rs, inline_s, tput_s =
      side nshards (fun sv -> Array.mapi (Shard_bench.drive sv) streams)
    in
    let tp, rp, inline_p, tput_p =
      side nshards (fun sv ->
        Array.mapi
          (fun i ops -> Domain.spawn (fun () -> Shard_bench.drive sv i ops))
          streams
        |> Array.map Domain.join)
    in
    (* both sides reply once per op of the same streams *)
    let rec first_diff i j =
      if i = nshards then None
      else if j = Array.length streams.(i) then first_diff (i + 1) 0
      else if rs.(i).(j) <> rp.(i).(j) then
        Some
          (Format.asprintf "shard %d, reply %d to %a: %a vs %a" i j
             Serve.pp_request streams.(i).(j) Serve.pp_reply rs.(i).(j)
             Serve.pp_reply rp.(i).(j))
      else first_diff i (j + 1)
    in
    let diverged =
      match first_diff 0 0 with
      | Some d -> Some ("first differing reply at " ^ d)
      | None when Shard.merged_stats ts <> Shard.merged_stats tp ->
        Some "replies agree but merged Space stats differ"
      | None when Shard.merged_counters ts <> Shard.merged_counters tp ->
        Some "replies and Space stats agree but merged Memdev counters differ"
      | None -> None
    in
    Option.iter (Printf.printf "   %s\n") diverged;
    let point = Printf.sprintf "%s/%d" (Shard_bench.dist_name dist) nshards in
    gate ~experiment:"scaleout" ~name:("differential/" ^ point)
      (diverged = None);
    let inline = inline_s && inline_p in
    if not inline then
      Printf.printf "   an op queued, or a batch held more than one op\n";
    gate ~experiment:"scaleout" ~name:("inline/" ^ point) inline;
    (tput_s, tput_p, diverged = None && inline)
  in
  print_row ~w:12
    [ "domains"; "seq op/s"; "par op/s"; "speedup"; "identical" ];
  List.iter
    (fun nd ->
      Gc.compact ();
      let seq, par, agree =
        run_pair ~nshards:nd ~dist:Shard_bench.Uniform
          Spp_pmemkv.Db_bench.Update_heavy
      in
      let speedup = par /. Float.max seq 1e-9 in
      print_row ~w:12
        [ string_of_int nd; fmt_ops seq; fmt_ops par; fmt_slowdown speedup;
          (if agree then "yes" else "NO") ];
      let nm mode = Printf.sprintf "update_heavy/uniform/%d/%s" nd mode in
      jemit ~experiment:"scaleout" ~name:(nm "sequential") ~metric:"ops_per_s"
        ~unit_:"op/s" seq;
      jemit ~experiment:"scaleout" ~name:(nm "parallel") ~metric:"ops_per_s"
        ~unit_:"op/s" par;
      jemit ~experiment:"scaleout"
        ~name:(Printf.sprintf "update_heavy/uniform/%d" nd) ~metric:"speedup"
        speedup;
      if nd = 4 then
        Printf.printf "  4-domain speedup %.2fx %s\n" speedup
          (if speedup >= 2.0 then "(>= 2x: OK)"
           else "(below the 2x bar — needs >= 4 hardware cores)")
    )
    domain_counts;
  (* Uniform vs Zipfian under full parallelism: skew concentrates the
     hot keys on few shards, so the Zipfian ladder shows what a real
     skewed tenant does to the router. *)
  let nd = List.fold_left max 1 domain_counts in
  Gc.compact ();
  print_subtitle
    (Printf.sprintf "key-distribution skew at %d domains (parallel)" nd);
  print_row ~w:16 [ "distribution"; "par op/s"; "identical" ];
  List.iter
    (fun dist ->
      let _, par, agree =
        run_pair ~nshards:nd ~dist Spp_pmemkv.Db_bench.Update_heavy
      in
      print_row ~w:16
        [ Shard_bench.dist_name dist; fmt_ops par;
          (if agree then "yes" else "NO") ];
      jemit ~experiment:"scaleout"
        ~name:
          (Printf.sprintf "update_heavy/%s/%d/parallel"
             (Shard_bench.dist_name dist) nd)
        ~metric:"ops_per_s" ~unit_:"op/s" par)
    [ Shard_bench.Uniform; Shard_bench.Zipfian 0.99 ]

(* ------------------------------------------------------------------ *)
(* Serve (ours): async batched pipeline — group commit + latency        *)
(* ------------------------------------------------------------------ *)

(* Three parts. (1) Fence amortization, deterministic and timing-free:
   the sequential baseline chunked at each batch cap, fences/op from the
   Memdev counters — the acceptance bar is cap 32 <= 1/4 of cap 1.
   (2) Differential: the async pipeline in deterministic mode (fixed
   batching, pre-enqueued) must be bit-identical to that baseline before
   any live number is reported.
   (3) Live sweep: batch cap x offered load (per-client submission
   window) x shard count, each client running the shards it finds free
   and queueing behind held ones, with per-request latency percentiles
   from the shard histograms. *)

let serve () =
  let open Spp_shard in
  let open Spp_benchlib in
  print_title "Serve: asynchronous batched pipeline (group-committed redo)";
  let shard_counts = capped [ 1; 2; 4 ] in
  let caps = [ 1; 8; 32 ] in
  let windows = [ 1; 64 ] in
  let universe = sc 2_000 in
  let total_ops = sc 16_000 in
  let value = String.make 256 'v' in
  Printf.printf
    "(cmap engine under SPP, %d-key universe, %d requests, 3:1 put:get, \
     256 B values)\n"
    universe total_ops;
  let gen_requests ~seed n =
    let st = Random.State.make [| seed; 0x5EFE |] in
    Array.init n (fun _ ->
      let key = Spp_pmemkv.Db_bench.key_of_int (Random.State.int st universe) in
      if Random.State.int st 4 = 3 then Serve.Get key
      else Serve.Put { key; value })
  in
  let build ?tracking nshards =
    preloaded_store ?tracking ~nshards ~keys:universe ()
  in
  (* -- part 1: fence amortization -- *)
  print_subtitle "group-commit fence amortization (sequential path, 2 shards)";
  print_row ~w:14
    (List.map (fun c -> Printf.sprintf "cap %d" c) caps @ [ "ratio 32/1" ]);
  let streams2 =
    Shard_bench.partition ~nshards:2 (gen_requests ~seed:7 total_ops)
  in
  let fences_per_op cap =
    let t = build ~tracking:true 2 in
    ignore (Serve.run_sequential t ~batch_cap:cap streams2);
    let c = Shard.merged_counters t in
    (float_of_int c.Spp_sim.Memdev.fences /. float_of_int total_ops, c)
  in
  let per_cap = List.map (fun c -> (c, fences_per_op c)) caps in
  let f1 = fst (List.assoc 1 per_cap) and f32 = fst (List.assoc 32 per_cap) in
  let ratio = f32 /. Float.max f1 1e-9 in
  print_row ~w:14
    (List.map (fun (_, (f, _)) -> Printf.sprintf "%.3f" f) per_cap
     @ [ Printf.sprintf "%.3f %s" ratio
           (if ratio <= 0.25 then "(<= 1/4: OK)" else "(above the bar!)") ]);
  List.iter
    (fun (cap, (f, (c : Spp_sim.Memdev.counters))) ->
      jemit ~experiment:"serve"
        ~name:(Printf.sprintf "amortization/line_indexed/cap%d" cap)
        ~metric:"fences_per_op"
        ~extra:
          [ ("fences_saved", Json_out.J_int c.Spp_sim.Memdev.fences_saved);
            ("batched_ops", Json_out.J_int c.Spp_sim.Memdev.batched_ops) ]
        f)
    per_cap;
  jemit ~experiment:"serve" ~name:"amortization/line_indexed"
    ~metric:"fence_ratio_32_vs_1" ratio;
  (* -- part 2: async pipeline == sequential baseline, bit for bit -- *)
  let nd_max = List.fold_left max 1 shard_counts in
  let diff_cap = 16 in
  let streams =
    Shard_bench.partition ~nshards:nd_max (gen_requests ~seed:7 total_ops)
  in
  let t_seq = build nd_max and t_par = build nd_max in
  let seq_replies = Serve.run_sequential t_seq ~batch_cap:diff_cap streams in
  let sv = Serve.create ~batch_cap:diff_cap ~adaptive:false t_par in
  let tickets = Array.map (Array.map (Serve.submit sv)) streams in
  let par_replies = Array.map (Array.map (Serve.await sv)) tickets in
  Serve.stop sv;
  let identical =
    Array.for_all2
      (fun a b -> Serve.digest_replies a = Serve.digest_replies b)
      seq_replies par_replies
    && Shard.merged_stats t_seq = Shard.merged_stats t_par
    && Shard.merged_counters t_seq = Shard.merged_counters t_par
  in
  Printf.printf
    "async pipeline vs sequential baseline (%d shards, cap %d): %s\n" nd_max
    diff_cap
    (if identical then "bit-identical (replies, stats, counters)"
     else "!! DIVERGENCE — results invalid");
  gate ~experiment:"serve" ~name:"differential" identical;
  (* -- part 3: live sweep -- *)
  print_subtitle "live async sweep (2 client domains, each draining what it holds)";
  if quick then
    Printf.printf
      "(note: latency percentiles are meaningless under --quick; use a full \
       run)\n";
  print_row ~w:11
    [ "shards"; "cap"; "window"; "op/s"; "p50 us"; "mean us"; "p95 us";
      "p99 us"; "max us"; "avg batch"; "fences/op" ];
  let nclients = 2 in
  List.iter
    (fun nshards ->
      List.iter
        (fun cap ->
          List.iter
            (fun window ->
              Gc.compact ();
              let t = build ~tracking:true nshards in
              let sv = Serve.create ~batch_cap:cap t in
              let per_client =
                Array.init nclients (fun c ->
                  gen_requests ~seed:(100 + c) (total_ops / nclients))
              in
              let t0 = now_mono () in
              let feeders =
                Array.map
                  (fun reqs ->
                    Domain.spawn (fun () ->
                      let q = Queue.create () in
                      Array.iter
                        (fun r ->
                          if Queue.length q >= window then
                            ignore (Serve.await sv (Queue.pop q));
                          Queue.push (Serve.submit sv r) q)
                        reqs;
                      Queue.iter (fun tk -> ignore (Serve.await sv tk)) q))
                  per_client
              in
              Array.iter Domain.join feeders;
              let wall = now_mono () -. t0 in
              Serve.stop sv;
              let ops = Array.fold_left
                  (fun a r -> a + Array.length r) 0 per_client in
              let thr = float_of_int ops /. Float.max wall 1e-9 in
              let h = Serve.merged_hist sv in
              let us p = float_of_int (Histogram.percentile h p) /. 1e3 in
              let max_us = float_of_int (Histogram.max_value h) /. 1e3 in
              let batches = max 1 (Serve.total_batches sv) in
              let avg_batch = float_of_int ops /. float_of_int batches in
              let c = Shard.merged_counters t in
              let fpo =
                float_of_int c.Spp_sim.Memdev.fences /. float_of_int ops in
              let mean_us = Histogram.mean h /. 1e3 in
              print_row ~w:11
                [ string_of_int nshards; string_of_int cap;
                  string_of_int window; fmt_ops thr;
                  Printf.sprintf "%.1f" (us 50.);
                  Printf.sprintf "%.1f" mean_us;
                  Printf.sprintf "%.1f" (us 95.);
                  Printf.sprintf "%.1f" (us 99.);
                  Printf.sprintf "%.1f" max_us;
                  Printf.sprintf "%.1f" avg_batch;
                  Printf.sprintf "%.3f" fpo ];
              let nm what =
                Printf.sprintf "live/shards%d/cap%d/win%d/%s" nshards cap
                  window what
              in
              jemit ~experiment:"serve" ~name:(nm "throughput")
                ~metric:"ops_per_s" ~unit_:"op/s"
                ~extra:
                  [ ("avg_batch", Json_out.J_float avg_batch);
                    ("fences_per_op", Json_out.J_float fpo);
                    ("fences_saved",
                     Json_out.J_int c.Spp_sim.Memdev.fences_saved) ]
                thr;
              List.iter
                (fun p ->
                  jemit ~experiment:"serve"
                    ~name:(nm (Printf.sprintf "p%g" p))
                    ~metric:"latency_us" ~unit_:"us" (us p))
                [ 50.; 95.; 99. ];
              jemit ~experiment:"serve" ~name:(nm "mean") ~metric:"latency_us"
                ~unit_:"us" mean_us;
              jemit ~experiment:"serve" ~name:(nm "max") ~metric:"latency_us"
                ~unit_:"us" max_us)
            windows)
        caps)
    shard_counts

(* ------------------------------------------------------------------ *)
(* Read cache (ours): volatile DRAM cache over the serving stack       *)
(* ------------------------------------------------------------------ *)

(* Two parts. (1) Correctness gate, deterministic and timing-free: the
   same read-mostly streams through [run_sequential] on a cached and an
   uncached store must produce bit-identical replies, identical Memdev
   counters and identical per-shard durable images — the cache is
   volatile DRAM only, invisible to the persistence layer (gets stage no
   redo entries, fills come only from committed state, chunk boundaries
   sit at fixed request positions). A failed gate prints the divergence
   and no timing number is reported. (2) Live sweep: the async pipeline
   with the read fast path, distribution x shard count x capacity. Each
   point runs one warm pass (windowed, fills the cache) then one timed
   pass in which puts ride the async window but every get is a
   *dependent* point read — submitted and awaited before the client
   continues, the access pattern a read cache exists for. ns/get is that
   client-observed submit-to-reply time: cache-off stalls each read on
   the mailbox and group-commit round trip, a cache hit is answered on
   the submitting thread without entering the mailbox or walking PM.
   The acceptance bar is >= 2x ns/get on the Zipfian read-mostly point
   at the largest capacity vs cache-off. *)

let cache () =
  let open Spp_shard in
  let open Spp_benchlib in
  print_title "Read cache: volatile DRAM read cache over the serving stack";
  let shard_counts = capped [ 1; 2 ] in
  let universe = sc 2_000 in
  let total_ops = sc 24_000 in
  let value = String.make 256 'v' in
  Printf.printf
    "(cmap engine under SPP, %d-key universe, %d requests, 1:15 put:get, \
     256 B values)\n"
    universe total_ops;
  let dist_label = function
    | `Uniform -> "uniform"
    | `Zipfian -> "zipfian0.99"
  in
  let gen_requests ~seed ~dist n =
    let gen =
      match dist with
      | `Uniform -> Keygen.uniform ~seed ~universe
      | `Zipfian -> Keygen.zipfian ~theta:0.99 ~seed ~universe ()
    in
    let st = Random.State.make [| seed; 0xCAC4E |] in
    Array.init n (fun _ ->
      let key = Spp_pmemkv.Db_bench.key_of_int (Keygen.next gen) in
      if Random.State.int st 16 = 0 then Serve.Put { key; value }
      else Serve.Get key)
  in
  let build ?tracking ~cache_cap nshards =
    preloaded_store ?tracking ~cache_cap ~nshards ~keys:universe ()
  in
  (* -- part 1: cache-on == cache-off, bit for bit -- *)
  let nd_diff = List.fold_left max 1 shard_counts in
  let streams =
    Shard_bench.partition ~nshards:nd_diff
      (gen_requests ~seed:11 ~dist:`Zipfian total_ops)
  in
  let t_on = build ~tracking:true ~cache_cap:4096 nd_diff in
  let t_off = build ~tracking:true ~cache_cap:0 nd_diff in
  let r_on = Serve.run_sequential t_on ~batch_cap:16 streams in
  let r_off = Serve.run_sequential t_off ~batch_cap:16 streams in
  (* Bitwise image equality between two *distinct* pools is impossible
     by construction (each pool's uuid is embedded in the header and in
     every stored oid), so durable equivalence is checked the way a
     restart would: snapshot each shard's durable image, reopen it
     through recovery, reattach the map, and compare the full recovered
     contents. Identical Memdev counters (asserted below) already pin
     the two runs to the same store/flush/fence schedule. *)
  let durable_contents t =
    Array.init nd_diff (fun i ->
      let sh = Shard.shard t i in
      let live_kv = Shard.shard_kv sh in
      let img =
        Spp_sim.Memdev.durable_snapshot
          (Pool.dev (Shard.shard_access sh).Spp_access.pool)
      in
      let dev =
        Spp_sim.Memdev.of_image ~name:(Printf.sprintf "cache-diff%d" i) img
      in
      let space = Spp_sim.Space.create () in
      match Pool.open_dev space ~base:4096 dev with
      | Error _ -> None
      | Ok (pool', _report) ->
        let a' = Spp_access.attach (Pool.space pool') pool' in
        let map' =
          Spp_pmemkv.Engine.attach (Shard.engine t) a'
            ~root:(Spp_pmemkv.Engine.root_oid live_kv)
        in
        Some
          ( Spp_pmemkv.Engine.count_all map',
            List.init universe (fun k ->
              Spp_pmemkv.Engine.get map' (Spp_pmemkv.Db_bench.key_of_int k)) ))
  in
  let c_on = durable_contents t_on and c_off = durable_contents t_off in
  let durable_equal =
    Array.for_all Option.is_some c_on && c_on = c_off
  in
  let identical =
    Array.for_all2
      (fun a b -> Serve.digest_replies a = Serve.digest_replies b)
      r_on r_off
    && Shard.merged_counters t_on = Shard.merged_counters t_off
    && durable_equal
  in
  let rc_diff = Shard.merged_cache_stats t_on in
  Printf.printf
    "cache-on vs cache-off (sequential, %d shards, cap 4096): %s; cached run \
     hit rate %s\n"
    nd_diff
    (if identical then
       "bit-identical (replies, counters, recovered durable contents)"
     else "!! DIVERGENCE — results invalid")
    (fmt_pct (Spp_pmemkv.Rcache.hit_rate rc_diff));
  gate ~experiment:"cache" ~name:"differential"
    ~extra:
      [ ("hit_rate",
         Json_out.J_float (Spp_pmemkv.Rcache.hit_rate rc_diff));
        ("durable_images_equal", Json_out.J_bool durable_equal) ]
    identical;
  (* -- part 2: live sweep -- *)
  print_subtitle "live async sweep (read fast path, window 64)";
  if quick then
    Printf.printf
      "(note: ns/get is noisy under --quick; use a full run)\n";
  print_row ~w:13
    [ "dist"; "shards"; "cap"; "ns/get"; "hit rate"; "bypassed"; "vs off" ];
  let caps = [ 0; 512; 8192 ] in
  let max_cap = List.fold_left max 0 caps in
  let window = 64 in
  List.iter
    (fun dist ->
      List.iter
        (fun nshards ->
          let base_ns = ref 0. in
          List.iter
            (fun cap ->
              Gc.compact ();
              let t = build ~cache_cap:cap nshards in
              let reqs = gen_requests ~seed:21 ~dist total_ops in
              let ngets =
                Array.fold_left
                  (fun a r ->
                    match r with Serve.Get _ -> a + 1 | _ -> a)
                  0 reqs
              in
              let sv = Serve.create ~batch_cap:32 t in
              (* warm pass: everything windowed, fills the cache *)
              let q = Queue.create () in
              Array.iter
                (fun r ->
                  if Queue.length q >= window then
                    ignore (Serve.await sv (Queue.pop q));
                  Queue.push (Serve.submit sv r) q)
                reqs;
              Queue.iter (fun tk -> ignore (Serve.await sv tk)) q;
              Queue.clear q;
              Shard.reset_stats t;
              (* timed pass: puts ride the window, gets are dependent *)
              let t_get = ref 0. in
              Array.iter
                (fun r ->
                  match r with
                  | Serve.Get _ ->
                    let t0 = now_mono () in
                    ignore (Serve.await sv (Serve.submit sv r));
                    t_get := !t_get +. (now_mono () -. t0)
                  | _ ->
                    if Queue.length q >= window then
                      ignore (Serve.await sv (Queue.pop q));
                    Queue.push (Serve.submit sv r) q)
                reqs;
              Queue.iter (fun tk -> ignore (Serve.await sv tk)) q;
              Serve.stop sv;
              let rc = Shard.merged_cache_stats t in
              let hr = Spp_pmemkv.Rcache.hit_rate rc in
              let ns_get = !t_get /. float_of_int (max 1 ngets) *. 1e9 in
              if cap = 0 then base_ns := ns_get;
              let speedup = !base_ns /. Float.max ns_get 1e-9 in
              print_row ~w:13
                [ dist_label dist; string_of_int nshards; string_of_int cap;
                  Printf.sprintf "%.0f" ns_get;
                  (if cap = 0 then "-" else fmt_pct hr);
                  string_of_int (Serve.bypassed_gets sv);
                  (if cap = 0 then "1.00x"
                   else Printf.sprintf "%.2fx" speedup) ];
              let nm what =
                Printf.sprintf "%s/shards%d/cap%d/%s" (dist_label dist)
                  nshards cap what
              in
              jemit ~experiment:"cache" ~name:(nm "ns_per_get")
                ~metric:"ns_per_get" ~unit_:"ns"
                ~extra:
                  [ ("hit_rate", Json_out.J_float hr);
                    ("hits", Json_out.J_int rc.Spp_pmemkv.Rcache.rc_hits);
                    ("misses", Json_out.J_int rc.Spp_pmemkv.Rcache.rc_misses);
                    ("invalidations",
                     Json_out.J_int rc.Spp_pmemkv.Rcache.rc_invalidations);
                    ("bypassed_gets",
                     Json_out.J_int (Serve.bypassed_gets sv)) ]
                ns_get;
              if cap > 0 then
                jemit ~experiment:"cache" ~name:(nm "speedup")
                  ~metric:"speedup_vs_cache_off" speedup;
              if dist = `Zipfian && cap = max_cap
                 && nshards = List.fold_left max 1 shard_counts
              then
                Printf.printf "  zipfian ns/get improvement %.2fx %s\n"
                  speedup
                  (if speedup >= 2.0 then "(>= 2x: OK)"
                   else "(below the 2x bar!)"))
            caps)
        shard_counts)
    [ `Uniform; `Zipfian ]

(* ------------------------------------------------------------------ *)
(* Failover (ours): batch replication, primary kill and promotion      *)
(* ------------------------------------------------------------------ *)

(* Three parts. (1) Correctness gate, deterministic and timing-free: a
   crash-point enumeration of the replicated batch program (torture
   workload "kvfailover", plus its lossy-channel variant) must report
   zero invariant failures — the promoted replica serves a whole-op
   prefix that never leads cold recovery of the primary, lags it by at
   most one commit on a lossless channel, and holds every acked op. A
   failed gate prints the first failure and no timing number is valid.
   (2) Ack-policy sweep, steady state: the same Zipfian put/get load
   through the async pipeline with replication off / async / semi-sync
   / sync, reporting throughput, serving p99 and the replication-lag
   histogram — what each ack guarantee costs. (3) Kill + promote under
   load: drive half the requests, power the hot shard's device off,
   promote its replica (timed), drive the rest; reports whole-run
   throughput, p99, the typed-failure count and the promotion stall. *)

let failover () =
  let open Spp_shard in
  let open Spp_benchlib in
  print_title "Failover: batch replication, primary kill and promotion";
  (* -- part 1: correctness gate -- *)
  let gate_budget = if quick then 120 else max_int in
  let gate_reports =
    List.map
      (fun w -> Spp_torture.Torture.run ~budget:gate_budget w)
      [ Spp_torture.Workloads.kvfailover ~ops:8 ();
        Spp_torture.Workloads.kvfailover_drop ~ops:8 () ]
  in
  List.iter
    (fun r ->
      Printf.printf "gate %s: %d crash points, %d invariant failures%s\n"
        r.Spp_torture.Torture.r_workload
        r.Spp_torture.Torture.r_crash_points
        r.Spp_torture.Torture.r_invariant_failures
        (match r.Spp_torture.Torture.r_first_failure with
         | None -> ""
         | Some (i, msg) -> Printf.sprintf " (first at %d: %s)" i msg);
      gate ~experiment:"failover"
        ~name:("gate/" ^ r.Spp_torture.Torture.r_workload)
        ~extra:
          [ ("crash_points",
             Json_out.J_int r.Spp_torture.Torture.r_crash_points) ]
        (r.Spp_torture.Torture.r_invariant_failures = 0))
    gate_reports;
  (* -- shared load shape -- *)
  let nshards =
    match domains_cap with Some c when c < 2 -> 1 | _ -> 2
  in
  let universe = sc 1_000 in
  let total_ops = sc 16_000 in
  let value = String.make 256 'v' in
  let window = 64 in
  Printf.printf
    "(%d shards, %d-key universe, %d requests, zipfian 0.99, 1:3 put:get, \
     256 B values, window %d)\n"
    nshards universe total_ops window;
  let gen_requests ~seed n =
    let gen = Keygen.zipfian ~theta:0.99 ~seed ~universe () in
    let st = Random.State.make [| seed; 0xFA170 |] in
    Array.init n (fun _ ->
      let key = Spp_pmemkv.Db_bench.key_of_int (Keygen.next gen) in
      if Random.State.int st 4 = 0 then Serve.Put { key; value }
      else Serve.Get key)
  in
  let build () = preloaded_store ~nshards ~keys:universe () in
  let drive sv reqs lo hi =
    let q = Queue.create () in
    for i = lo to hi - 1 do
      if Queue.length q >= window then ignore (Serve.await sv (Queue.pop q));
      Queue.push (Serve.submit sv reqs.(i)) q
    done;
    Queue.iter (fun tk -> ignore (Serve.await sv tk)) q
  in
  let us v = float_of_int v /. 1e3 in
  (* -- part 2: ack-policy sweep -- *)
  print_subtitle "ack-policy sweep (1 replica per shard, threaded appliers)";
  print_row ~w:12
    [ "policy"; "ops/s"; "p50 us"; "p99 us"; "lag p50 us"; "lag p99 us";
      "degraded" ];
  List.iter
    (fun policy ->
      Gc.compact ();
      let t = build () in
      let replication =
        Option.map
          (fun p ->
            { Replica.default_config with
              replicas = 1; policy = p; threaded = true })
          policy
      in
      let sv = Serve.create ~batch_cap:32 ?replication t in
      let reqs = gen_requests ~seed:31 total_ops in
      let dt, () = time (fun () -> drive sv reqs 0 total_ops) in
      Serve.stop sv;
      let h = Serve.merged_hist sv in
      let lag = Serve.replication_lag sv in
      let degraded =
        List.fold_left
          (fun a s -> a + s.Replica.rs_degraded_acks)
          0
          (Serve.replication_stats sv)
      in
      let label =
        match policy with
        | None -> "off"
        | Some p -> Replica.ack_policy_to_string p
      in
      let tp = float_of_int total_ops /. dt in
      print_row ~w:12
        [ label; Printf.sprintf "%.0f" tp;
          Printf.sprintf "%.1f" (us (Histogram.p50 h));
          Printf.sprintf "%.1f" (us (Histogram.p99 h));
          (if policy = None then "-"
           else Printf.sprintf "%.1f" (us (Histogram.p50 lag)));
          (if policy = None then "-"
           else Printf.sprintf "%.1f" (us (Histogram.p99 lag)));
          (if policy = None then "-" else string_of_int degraded) ];
      jemit ~experiment:"failover" ~name:("policy/" ^ label ^ "/throughput")
        ~metric:"ops_per_s" ~unit_:"op/s"
        ~extra:
          [ ("p50_us", Json_out.J_float (us (Histogram.p50 h)));
            ("p99_us", Json_out.J_float (us (Histogram.p99 h)));
            ("degraded_acks", Json_out.J_int degraded) ]
        tp;
      if policy <> None then
        jemit ~experiment:"failover" ~name:("policy/" ^ label ^ "/lag")
          ~metric:"lag_us" ~unit_:"us"
          ~extra:
            [ ("p99_us", Json_out.J_float (us (Histogram.p99 lag)));
              ("commits", Json_out.J_int (Histogram.count lag)) ]
          (us (Histogram.p50 lag)))
    [ None; Some Replica.Async; Some Replica.Semi_sync; Some Replica.Sync ];
  (* -- part 3: kill + promote under load -- *)
  print_subtitle "kill + promote mid-run (semi-sync, 1 replica per shard)";
  Gc.compact ();
  let t = build () in
  let sv =
    Serve.create ~batch_cap:32
      ~replication:
        { Replica.default_config with
          replicas = 1; policy = Replica.Semi_sync; threaded = true }
      t
  in
  let reqs = gen_requests ~seed:41 total_ops in
  let half = total_ops / 2 in
  let burst = min (2 * window) (total_ops - half) in
  let dt, promote_s =
    time (fun () ->
      drive sv reqs 0 half;
      (* the window is drained: nobody holds the shard, kill its device *)
      Spp_sim.Memdev.power_off
        (Pool.dev (Shard.shard_access (Shard.shard t 0)).Spp_access.pool);
      (* drain a burst against the dead primary before promoting: its
         share of these tickets must resolve [Failed Failed_over], not
         hang, while the other shard keeps serving.  (Requests still
         queued when the promotion lands would instead execute on the
         promoted stack — awaiting here pins the drains to the dead
         device so the typed-failure path is what gets measured.) *)
      let in_flight =
        Array.init burst (fun j -> Serve.submit sv reqs.(half + j))
      in
      Array.iter (fun tk -> ignore (Serve.await sv tk)) in_flight;
      let p_dt, _p = time (fun () -> Serve.promote sv 0) in
      drive sv reqs (half + burst) total_ops;
      p_dt)
  in
  Serve.stop sv;
  let h = Serve.merged_hist sv in
  let failed = Serve.total_failed sv in
  let tp = float_of_int total_ops /. dt in
  Printf.printf
    "whole run: %.0f op/s, p50 %.1f us, p99 %.1f us; promotion stall %.2f \
     ms; %d tickets failed typed; %d promotion(s)\n"
    tp
    (us (Histogram.p50 h))
    (us (Histogram.p99 h))
    (promote_s *. 1e3) failed (Serve.promotions sv);
  jemit ~experiment:"failover" ~name:"kill/throughput" ~metric:"ops_per_s"
    ~unit_:"op/s"
    ~extra:
      [ ("p50_us", Json_out.J_float (us (Histogram.p50 h)));
        ("p99_us", Json_out.J_float (us (Histogram.p99 h)));
        ("failed_tickets", Json_out.J_int failed);
        ("promotions", Json_out.J_int (Serve.promotions sv)) ]
    tp;
  jemit ~experiment:"failover" ~name:"kill/promotion_stall" ~metric:"ms"
    ~unit_:"ms" (promote_s *. 1e3)

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Scan: ordered ranges through the engine seam                        *)
(* ------------------------------------------------------------------ *)

(* YCSB-E-shaped range scans against both engines behind the serve
   pipeline: 95% short scans (16-key spans through [Serve.scan]'s
   scatter-gather) and 5% inserts, against a point-get baseline on an
   identically built store. Per engine, no number is reported until the
   async pipeline is bit-identical to the sequential baseline over
   scan-bearing streams — the same differential the tier-1 tests pin,
   re-run here at bench scale. *)
let scan_bench () =
  let open Spp_shard in
  let open Spp_benchlib in
  print_title "Scan: ordered ranges through the engine seam (YCSB-E shape)";
  let nshards = 4 in
  let universe = sc 8_000 in
  let total_ops = sc 6_000 in
  let span = 16 and lim = 16 in
  let value = String.make 256 'v' in
  let key_of = Spp_pmemkv.Db_bench.key_of_int in
  Printf.printf
    "(%d keys preloaded, %d ops, 95%% scans of %d-key spans / 5%% inserts, \
     %d shards)\n"
    universe total_ops span nshards;
  let engines =
    [ ("cmap", Spp_pmemkv.Engines.cmap); ("btree", Spp_pmemkv.Engines.btree) ]
  in
  let build engine = preloaded_store ~engine ~nshards ~keys:universe () in
  (* -- gate: async = sequential over scan-bearing streams -- *)
  let async_matches_sequential engine =
    let ops = sc 4_000 in
    let st = Random.State.make [| 0x5CA7 |] in
    let reqs =
      Array.init ops (fun _ ->
        let k = key_of (Random.State.int st universe) in
        match Random.State.int st 10 with
        | 0 | 1 -> Serve.Put { key = k; value }
        | 2 -> Serve.Remove k
        | _ -> Serve.Get k)
    in
    let buckets = Array.make nshards [] in
    Array.iter
      (fun r ->
        let sh = Shard.shard_of_key ~nshards (Serve.request_key r) in
        buckets.(sh) <- r :: buckets.(sh))
      reqs;
    (* scans carry no routing key: splice one into each shard stream
       every 40 requests, windows sliding deterministically *)
    let streams =
      Array.map
        (fun l ->
          let arr = Array.of_list (List.rev l) in
          let out = ref [] in
          Array.iteri
            (fun i r ->
              if i mod 40 = 39 then begin
                let lo = i * 37 mod (universe - span) in
                out :=
                  Serve.Scan
                    { lo = key_of lo; hi = key_of (lo + span - 1);
                      limit = lim }
                  :: !out
              end;
              out := r :: !out)
            arr;
          Array.of_list (List.rev !out))
        buckets
    in
    let t_seq = build engine and t_par = build engine in
    let seq = Serve.run_sequential t_seq ~batch_cap:16 streams in
    let sv = Serve.create ~batch_cap:16 ~adaptive:false t_par in
    let tickets =
      Array.mapi
        (fun i stream -> Array.map (fun r -> Serve.submit_to sv i r) stream)
        streams
    in
    let par = Array.map (Array.map (fun tk -> Serve.await sv tk)) tickets in
    Serve.stop sv;
    let digests_ok = ref true in
    Array.iteri
      (fun i sr ->
        if Serve.digest_replies sr <> Serve.digest_replies par.(i) then
          digests_ok := false)
      seq;
    !digests_ok && Shard.merged_counters t_seq = Shard.merged_counters t_par
  in
  print_subtitle "gate: async = sequential over scan-bearing streams";
  let gated =
    List.map
      (fun (nm, engine) ->
        let ok = async_matches_sequential engine in
        Printf.printf "  %-8s %s\n" nm
          (if ok then "bit-identical (replies + Memdev counters)"
           else "!! DIVERGENCE -- engine skipped");
        gate ~experiment:"scan" ~name:(nm ^ "/differential") ok;
        (nm, engine, ok))
      engines
  in
  (* -- measurement -- *)
  print_subtitle
    (Printf.sprintf "YCSB-E (95%% scans, span %d) vs point-get baseline" span);
  if quick then
    print_endline
      "(note: latency percentiles are meaningless under --quick; use a full \
       run)";
  print_row ~w:13
    [ "engine"; "scans/s"; "p50 us"; "p99 us"; "ns/entry"; "base get/s" ];
  List.iter
    (fun (nm, engine, ok) ->
      if ok then begin
        Gc.compact ();
        let t = build engine in
        let sv = Serve.create ~batch_cap:32 t in
        let st = Random.State.make [| 0xE5CA |] in
        let hist = Histogram.create () in
        let nscans = ref 0 and entries = ref 0 and t_scan = ref 0. in
        let wall, () =
          time (fun () ->
            for _ = 1 to total_ops do
              if Random.State.int st 100 < 5 then
                ignore
                  (Serve.await sv
                     (Serve.submit sv
                        (Serve.Put
                           { key = key_of (Random.State.int st universe);
                             value })))
              else begin
                let lo = Random.State.int st (universe - span) in
                let s0 = now_mono () in
                (match
                   Serve.scan sv ~lo:(key_of lo) ~hi:(key_of (lo + span - 1))
                     ~limit:lim
                 with
                 | Ok kvs ->
                   incr nscans;
                   entries := !entries + List.length kvs
                 | Error _ -> ());
                let dt = now_mono () -. s0 in
                t_scan := !t_scan +. dt;
                Histogram.add hist (int_of_float (dt *. 1e9))
              end
            done)
        in
        Serve.stop sv;
        (* point-get baseline: the same request count, all point gets,
           on a fresh identically preloaded store *)
        let tb = build engine in
        let svb = Serve.create ~batch_cap:32 tb in
        let stb = Random.State.make [| 0xE5CB |] in
        let wall_b, () =
          time (fun () ->
            for _ = 1 to !nscans do
              ignore
                (Serve.await svb
                   (Serve.submit svb
                      (Serve.Get (key_of (Random.State.int stb universe)))))
            done)
        in
        Serve.stop svb;
        ignore wall;
        let scans_s = float_of_int !nscans /. Float.max !t_scan 1e-9 in
        let ns_entry =
          if !entries = 0 then 0.
          else !t_scan *. 1e9 /. float_of_int !entries
        in
        let gets_s = float_of_int !nscans /. Float.max wall_b 1e-9 in
        let us p = float_of_int (Histogram.percentile hist p) /. 1e3 in
        print_row ~w:13
          [ nm; Printf.sprintf "%.0f" scans_s;
            Printf.sprintf "%.1f" (us 50.); Printf.sprintf "%.1f" (us 99.);
            Printf.sprintf "%.0f" ns_entry; Printf.sprintf "%.0f" gets_s ];
        jemit ~experiment:"scan" ~name:(nm ^ "/ycsb_e")
          ~metric:"scans_per_s" ~unit_:"scan/s"
          ~extra:
            [ ("p50_us", Json_out.J_float (us 50.));
              ("p99_us", Json_out.J_float (us 99.));
              ("ns_per_scanned_entry", Json_out.J_float ns_entry);
              ("scanned_entries", Json_out.J_int !entries);
              ("scans", Json_out.J_int !nscans) ]
          scans_s;
        jemit ~experiment:"scan" ~name:(nm ^ "/point_get_baseline")
          ~metric:"ops_per_s" ~unit_:"op/s" gets_s
      end)
    gated

(* ------------------------------------------------------------------ *)
(* Reshard (ours): slot migration + rebalancer under a moving hotspot  *)
(* ------------------------------------------------------------------ *)

(* Two parts. (1) Correctness gate, deterministic and timing-free: one
   key-routed request stream executed on a static slot table and again
   with slot migrations forced mid-stream must produce bit-identical
   replies and the same surviving store. (2) Migration storm: a
   rotating-hotspot Zipfian read-heavy stream served in windows, static
   router vs rebalancer ticking between windows (with traffic still
   queued, so migrations run under load). Aggregate throughput is
   modelled as total ops over the summed per-window critical path
   (max over shards of that window's [run_batch] seconds) — the wall
   clock a host with >= nshards cores would see, measurable even on one
   core; the wall clock of this host is reported alongside. *)
let reshard () =
  let open Spp_shard in
  let open Spp_benchlib in
  print_title "Reshard: live slot migration + hot-slot rebalancer";
  let nshards = 4 in
  let universe = 256 in
  let key_of = Spp_pmemkv.Db_bench.key_of_int in
  let value = String.make 256 'v' in
  let build () = preloaded_store ~nshards ~keys:universe () in
  (* -- part 1: migration differential gate -- *)
  let gate_ops = sc 6_000 in
  let gen_gate () =
    let st = Random.State.make [| 0x7E5A |] in
    Array.init gate_ops (fun i ->
      let key = key_of (Random.State.int st universe) in
      match i mod 5 with
      | 0 | 1 -> Serve.Put { key; value = Printf.sprintf "g%06d" i }
      | 2 -> Serve.Remove key
      | _ -> Serve.Get key)
  in
  let hot_keys = [ key_of 1; key_of 17; key_of 33 ] in
  let run_gate ~migrate =
    let t = build () in
    let sv = Serve.create ~batch_cap:16 ~adaptive:false t in
    let reqs = gen_gate () in
    let tks = Array.make gate_ops None in
    let submit_range lo hi =
      for i = lo to hi - 1 do
        tks.(i) <- Some (Serve.submit sv reqs.(i))
      done
    in
    let move k =
      let slot = Shard.slot_of t k in
      ignore
        (Serve.migrate_slot sv ~slot
           ~dst:((Shard.route t k + 1) mod nshards))
    in
    submit_range 0 (gate_ops / 3);
    if migrate then List.iter move hot_keys;
    submit_range (gate_ops / 3) (2 * gate_ops / 3);
    if migrate then List.iter move hot_keys;
    submit_range (2 * gate_ops / 3) gate_ops;
    let replies = Array.map (fun tk -> Serve.await sv (Option.get tk)) tks in
    Serve.stop sv;
    (t, Serve.digest_replies replies, Serve.migrations sv)
  in
  let (t_st, d_st, _) = run_gate ~migrate:false in
  let (t_mg, d_mg, nmig) = run_gate ~migrate:true in
  let identical =
    d_st = d_mg && Shard.count_all t_st = Shard.count_all t_mg
  in
  Printf.printf
    "migration differential (%d ops, %d forced migrations): %s\n" gate_ops
    nmig
    (if identical then "bit-identical replies, same surviving store"
     else "!! DIVERGENCE — results invalid");
  gate ~experiment:"reshard" ~name:"differential" identical;
  (* -- part 2: migration storm under a rotating hotspot -- *)
  let total_ops = sc 48_000 in
  (* quick mode keeps windows large enough (~480 ops) for the load
     signal to rise above sampling noise; the full run gets 8 epochs of
     6 windows, quick a 2-epoch smoke *)
  let nwindows = if quick then 10 else 48 in
  let nepochs = if quick then 2 else 8 in
  let window_ops = total_ops / nwindows in
  let period = total_ops / nepochs in
  let theta = 0.9 and storm_universe = 64 in
  let gen_storm () =
    let gen =
      Keygen.rotating ~theta ~seed:31 ~universe:storm_universe ~period ()
    in
    let coin = Random.State.make [| 31; 0x0A1D |] in
    Array.init total_ops (fun _ ->
      let key = key_of (Keygen.next gen) in
      if Random.State.int coin 10 = 0 then Serve.Put { key; value }
      else Serve.Get key)
  in
  Printf.printf
    "(storm: %d ops in %d windows, rotating zipfian %.2f over %d keys, \
     period %d, 9:1 get:put; 1-core hosts: model throughput = ops / summed \
     per-window critical path)\n"
    total_ops nwindows theta storm_universe period;
  let run_storm ~nshards ~rebalance =
    Gc.compact ();
    let t = preloaded_store ~nshards ~keys:storm_universe () in
    let sv = Serve.create ~batch_cap:32 t in
    let rb =
      if rebalance then
        let cfg =
          { Rebalance.min_ratio = 1.3;
            min_ops = max 16 (window_ops / 16);
            persist = 1; cooldown = 0; moves_per_tick = 16 }
        in
        Some (Rebalance.create ~cfg sv)
      else None
    in
    let reqs = gen_storm () in
    (* Critical path in op units: per window, the bottleneck shard's
       executed-op delta (which includes any migration copy traffic it
       absorbed). Op counts are immune to the scheduler noise a 1-core
       host injects into wall-clock busy sampling — with more domains
       than cores, a preempted drain charges a whole timeslice to a
       microsecond batch. Time conversion happens later with one per-op
       cost calibrated from the static run, identical for both routers. *)
    let critical_ops = ref 0 in
    let t0 = now_mono () in
    for w = 0 to nwindows - 1 do
      let ops0 = Serve.ops_counts sv in
      (* The control loop ticks at 4x the measurement window: submit in
         sub-chunks with a tick after each, so the rebalancer reacts to
         a hotspot rotation a quarter-window in — with the chunk still
         queued, its migrations run under load. *)
      let nchunks = 8 in
      let chunk = window_ops / nchunks in
      let tks =
        List.init nchunks (fun c ->
          let base = c * chunk in
          let len =
            if c = nchunks - 1 then window_ops - base else chunk
          in
          let part =
            Array.init len (fun j ->
              Serve.submit sv reqs.((w * window_ops) + base + j))
          in
          (match rb with
           | Some rb -> ignore (Rebalance.tick rb)
           | None -> ());
          part)
      in
      List.iter
        (fun part ->
          Array.iter (fun tk -> ignore (Serve.await sv tk)) part)
        tks;
      (* and once more on the drained pipeline: full slot deltas, empty
         queues — the clean signal that preps the next window *)
      (match rb with Some rb -> ignore (Rebalance.tick rb) | None -> ());
      let ops1 = Serve.ops_counts sv in
      let peak = ref 0 in
      Array.iteri (fun i o1 -> peak := max !peak (o1 - ops0.(i))) ops1;
      critical_ops := !critical_ops + !peak
    done;
    let wall = now_mono () -. t0 in
    Serve.stop sv;
    let st = Serve.stats sv in
    let tot_busy = Array.fold_left (fun a s -> a +. s.Serve.ss_busy) 0. st in
    let tot_ops = Array.fold_left (fun a s -> a + s.Serve.ss_ops) 0 st in
    let h = Serve.merged_hist sv in
    let p99 = float_of_int (Histogram.percentile h 99.) /. 1e3 in
    (!critical_ops, tot_busy, tot_ops, wall, p99, Serve.migrations sv,
     Serve.keys_moved sv)
  in
  print_row ~w:13
    [ "shards"; "router"; "model op/s"; "wall s"; "p99 us"; "migrations";
      "keys moved" ];
  List.iter
    (fun nshards ->
      let (crit_st, busy_st, ops_st, wall_st, p99_st, _, _) =
        run_storm ~nshards ~rebalance:false
      in
      let (crit_rb, _, _, wall_rb, p99_rb, migs, keys) =
        run_storm ~nshards ~rebalance:true
      in
      (* one per-op cost for both routers, from the static run *)
      let per_op = busy_st /. float_of_int (max 1 ops_st) in
      let thr_of crit =
        1. /. (per_op *. float_of_int (max 1 crit))
        *. float_of_int total_ops
      in
      let thr_st = thr_of crit_st and thr_rb = thr_of crit_rb in
      let speedup = thr_rb /. Float.max thr_st 1e-9 in
      let p99_bounded = p99_rb <= Float.max (5. *. p99_st) 1e3 in
      print_row ~w:13
        [ string_of_int nshards; "static"; fmt_ops thr_st;
          Printf.sprintf "%.2f" wall_st; Printf.sprintf "%.1f" p99_st;
          "0"; "0" ];
      print_row ~w:13
        [ string_of_int nshards; "rebalanced"; fmt_ops thr_rb;
          Printf.sprintf "%.2f" wall_rb; Printf.sprintf "%.1f" p99_rb;
          string_of_int migs; string_of_int keys ];
      Printf.printf
        "  %d shards: rebalancer speedup %.2fx (critical-path model) %s; \
         p99 %s under the storm\n"
        nshards speedup
        (if speedup >= 1.5 then "(>= 1.5x: OK)" else "(below the 1.5x bar)")
        (if p99_bounded then "bounded" else "UNBOUNDED");
      let nm what = Printf.sprintf "storm/%d/%s" nshards what in
      jemit ~experiment:"reshard" ~name:(nm "static") ~metric:"ops_per_s"
        ~unit_:"op/s"
        ~extra:[ ("p99_us", Json_out.J_float p99_st);
                 ("wall_s", Json_out.J_float wall_st) ]
        thr_st;
      jemit ~experiment:"reshard" ~name:(nm "rebalanced") ~metric:"ops_per_s"
        ~unit_:"op/s"
        ~extra:
          [ ("p99_us", Json_out.J_float p99_rb);
            ("wall_s", Json_out.J_float wall_rb);
            ("migrations", Json_out.J_int migs);
            ("keys_moved", Json_out.J_int keys);
            ("p99_bounded", Json_out.J_bool p99_bounded) ]
        thr_rb;
      jemit ~experiment:"reshard" ~name:(nm "speedup") ~metric:"speedup"
        speedup)
    [ 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Net: wire-protocol front end + open-loop YCSB macrobenchmark        *)
(* ------------------------------------------------------------------ *)

(* Four parts over a unix-domain loopback (no port collisions in CI).
   (1) Correctness gate: the same point-op stream through one wire
   connection and through [run_sequential] on an identically built
   store must produce bit-identical reply digests, both engines.
   (2) Closed-loop ceiling: loopback throughput vs the in-process
   pipeline at equal shard count — the wire must keep >= 0.5x.
   (3) Open-loop arrival-rate sweep (YCSB-B): latency measured from the
   *intended* send time of a pre-drawn schedule, i.e. coordinated-
   omission-safe; the service-time p99 is printed alongside so the gap
   (the omission a closed-loop driver hides) is visible in the output.
   (4) The YCSB letter suite A-F against the btree engine (E needs
   ordered scans), each letter open-loop at a fixed fraction of the
   measured ceiling. *)
let net () =
  let open Spp_shard in
  let open Spp_benchlib in
  let open Spp_net in
  print_title "Net: wire front end, open-loop (CO-safe) YCSB macrobenchmark";
  let nshards = 2 in
  let universe = sc 2_000 in
  let value = String.make 256 'v' in
  let key_of = Spp_pmemkv.Db_bench.key_of_int in
  let sock tag =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "spp-net-%d-%s.sock" (Unix.getpid ()) tag)
  in
  let engines =
    [ ("cmap", Spp_pmemkv.Engines.cmap); ("btree", Spp_pmemkv.Engines.btree) ]
  in
  let build engine = preloaded_store ~engine ~nshards ~keys:universe () in
  let with_wire ~tag engine f =
    let t = build engine in
    let sv = Serve.create ~batch_cap:32 t in
    let srv = Net_server.create sv (Unix.ADDR_UNIX (sock tag)) in
    Fun.protect
      ~finally:(fun () ->
        Net_server.stop srv;
        Serve.stop sv)
      (fun () -> f (Net_server.addr srv))
  in
  Printf.printf
    "(%d shards, %d-key universe preloaded, 256 B values, unix-domain \
     loopback)\n"
    nshards universe;
  (* -- part 1: wire vs in-process differential, both engines -- *)
  print_subtitle "wire vs in-process differential (reply digests, per engine)";
  let diff_ops = sc 4_000 in
  List.iter
    (fun (ename, engine) ->
      (* point ops only: the wire executes a scan the moment it is
         decoded, while [run_sequential] orders it within its shard
         stream — routed ops are order-identical on both paths, scans
         are pinned by the tier-1 net tests instead *)
      let st = Random.State.make [| 0xE77; diff_ops |] in
      let reqs =
        Array.init diff_ops (fun _ ->
          let key = key_of (Random.State.int st universe) in
          match Random.State.int st 10 with
          | 0 | 1 | 2 | 3 -> Serve.Put { key; value }
          | 4 -> Serve.Remove key
          | _ -> Serve.Get key)
      in
      let wire_digest =
        with_wire ~tag:("diff-" ^ ename) engine (fun addr ->
          let cl = Net_client.connect addr in
          Fun.protect
            ~finally:(fun () -> Net_client.close cl)
            (fun () ->
              let futs = Array.map (Net_client.send cl) reqs in
              Serve.digest_replies (Array.map (Net_client.await cl) futs)))
      in
      let seq_digest =
        (* identically built store; partition by shard, run sequentially,
           reassemble the replies into send order *)
        let t = build engine in
        let buckets = Array.make nshards [] in
        Array.iter
          (fun r ->
            let s = Shard.shard_of_key ~nshards (Serve.request_key r) in
            buckets.(s) <- r :: buckets.(s))
          reqs;
        let streams = Array.map (fun l -> Array.of_list (List.rev l)) buckets in
        let per_shard = Serve.run_sequential t ~batch_cap:32 streams in
        let cursors = Array.make nshards 0 in
        Serve.digest_replies
          (Array.map
             (fun r ->
               let s = Shard.shard_of_key ~nshards (Serve.request_key r) in
               let reply = per_shard.(s).(cursors.(s)) in
               cursors.(s) <- cursors.(s) + 1;
               reply)
             reqs)
      in
      let identical = wire_digest = seq_digest in
      Printf.printf "  %-6s %d ops: %s\n" ename diff_ops
        (if identical then "bit-identical reply digests"
         else "!! DIVERGENCE — results invalid");
      gate ~experiment:"net" ~name:("differential/" ^ ename) identical)
    engines;
  (* -- part 2: closed-loop throughput ceiling -- *)
  print_subtitle "closed-loop ceiling: loopback wire vs in-process pipeline";
  let ceil_ops = sc 24_000 in
  let window = 128 and nclients = 2 in
  let gen_reqs ~seed n =
    let st = Random.State.make [| seed; 0xB0A7 |] in
    Array.init n (fun _ ->
      let key = key_of (Random.State.int st universe) in
      if Random.State.int st 4 = 3 then Serve.Get key
      else Serve.Put { key; value })
  in
  let inproc_thr =
    let t = build Spp_pmemkv.Engines.cmap in
    let sv = Serve.create ~batch_cap:32 t in
    let per_client =
      Array.init nclients (fun c ->
        gen_reqs ~seed:(50 + c) (ceil_ops / nclients))
    in
    let t0 = now_mono () in
    let feeders =
      Array.map
        (fun reqs ->
          Domain.spawn (fun () ->
            let q = Queue.create () in
            Array.iter
              (fun r ->
                if Queue.length q >= window then
                  ignore (Serve.await sv (Queue.pop q));
                Queue.push (Serve.submit sv r) q)
              reqs;
            Queue.iter (fun tk -> ignore (Serve.await sv tk)) q))
        per_client
    in
    Array.iter Domain.join feeders;
    let wall = now_mono () -. t0 in
    Serve.stop sv;
    float_of_int (nclients * (ceil_ops / nclients)) /. Float.max wall 1e-9
  in
  let wire_thr =
    with_wire ~tag:"ceiling" Spp_pmemkv.Engines.cmap (fun addr ->
      let per_client =
        Array.init nclients (fun c ->
          gen_reqs ~seed:(50 + c) (ceil_ops / nclients))
      in
      let t0 = now_mono () in
      let drivers =
        Array.map
          (fun reqs ->
            Domain.spawn (fun () ->
              (* corked: the ceiling is a throughput number, so batching
                 request frames into ~8 KiB writes is fair game *)
              let cl = Net_client.connect ~cork:true addr in
              Fun.protect
                ~finally:(fun () -> Net_client.close cl)
                (fun () ->
                  Loadgen.closed_loop cl ~window ~ops:(Array.length reqs)
                    ~next:(fun i -> [| reqs.(i) |]))))
          per_client
      in
      let results = Array.map Domain.join drivers in
      let wall = now_mono () -. t0 in
      let ops = Array.fold_left (fun a r -> a + r.Loadgen.lg_ops) 0 results in
      float_of_int ops /. Float.max wall 1e-9)
  in
  let ratio = wire_thr /. Float.max inproc_thr 1e-9 in
  Printf.printf "  in-process %s | loopback %s | ratio %.2fx %s\n"
    (fmt_ops inproc_thr) (fmt_ops wire_thr) ratio
    (if ratio >= 0.5 then "(>= 0.5x: OK)" else "(below the 0.5x bar!)");
  jemit ~experiment:"net" ~name:"ceiling/inproc" ~metric:"ops_per_s"
    ~unit_:"op/s" inproc_thr;
  jemit ~experiment:"net" ~name:"ceiling/loopback" ~metric:"ops_per_s"
    ~unit_:"op/s"
    ~extra:[ ("ratio_vs_inproc", Json_out.J_float ratio) ]
    wire_thr;
  if (not quick) && ratio < 0.5 then
    failwith "net: loopback throughput below 0.5x of in-process";
  (* -- part 3: open-loop arrival-rate sweep (YCSB-B) -- *)
  print_subtitle "open-loop sweep (YCSB-B, latency from intended send time)";
  if quick then
    Printf.printf
      "(note: percentiles are meaningless under --quick; use a full run)\n";
  print_row ~w:12
    [ "rate frac"; "target/s"; "achieved/s"; "p50 us"; "p99 us"; "p999 us";
      "svc p99 us"; "failed" ];
  let sweep_ops = sc 20_000 in
  let us h p = float_of_int (Histogram.percentile h p) /. 1e3 in
  List.iter
    (fun frac ->
      Gc.compact ();
      with_wire ~tag:(Printf.sprintf "open%02.0f" (frac *. 100.))
        Spp_pmemkv.Engines.cmap (fun addr ->
          let cl = Net_client.connect ~pool:2 addr in
          Fun.protect
            ~finally:(fun () -> Net_client.close cl)
            (fun () ->
              let y = Ycsb.create ~letter:Ycsb.B ~seed:11 ~universe () in
              let rate = Float.max 1. (frac *. wire_thr) in
              let r =
                Loadgen.open_loop cl ~rate ~ops:sweep_ops
                  ~next:
                    (Loadgen.ycsb_next y ~key:key_of ~value:(fun _ -> value))
              in
              print_row ~w:12
                [ Printf.sprintf "%.1f" frac;
                  Printf.sprintf "%.0f" r.Loadgen.lg_target;
                  Printf.sprintf "%.0f" r.Loadgen.lg_achieved;
                  Printf.sprintf "%.1f" (us r.Loadgen.lg_hist 50.);
                  Printf.sprintf "%.1f" (us r.Loadgen.lg_hist 99.);
                  Printf.sprintf "%.1f" (us r.Loadgen.lg_hist 99.9);
                  Printf.sprintf "%.1f" (us r.Loadgen.lg_service 99.);
                  string_of_int r.Loadgen.lg_failed ];
              let nm what = Printf.sprintf "open/frac%.0f/%s" (frac *. 100.) what in
              jemit ~experiment:"net" ~name:(nm "throughput")
                ~metric:"ops_per_s" ~unit_:"op/s"
                ~extra:
                  [ ("target_ops_per_s", Json_out.J_float r.Loadgen.lg_target);
                    ("failed", Json_out.J_int r.Loadgen.lg_failed) ]
                r.Loadgen.lg_achieved;
              List.iter
                (fun p ->
                  jemit ~experiment:"net" ~name:(nm (Printf.sprintf "p%g" p))
                    ~metric:"latency_us" ~unit_:"us"
                    ~extra:
                      [ ("service_us",
                         Json_out.J_float (us r.Loadgen.lg_service p)) ]
                    (us r.Loadgen.lg_hist p))
                [ 50.; 99.; 99.9 ])))
    [ 0.3; 0.6; 0.9 ];
  (* -- part 4: YCSB letter suite A-F (btree engine, ordered scans) -- *)
  print_subtitle "YCSB A-F (btree engine, open loop at 0.25x cmap ceiling)";
  let short = function
    | Ycsb.A -> "A upd-heavy"
    | Ycsb.B -> "B read-heavy"
    | Ycsb.C -> "C read-only"
    | Ycsb.D -> "D read-latest"
    | Ycsb.E -> "E scan-heavy"
    | Ycsb.F -> "F rmw"
  in
  print_row ~w:14
    [ "workload"; "target/s"; "achieved/s"; "p50 us"; "p99 us"; "p999 us";
      "failed" ];
  let letter_ops = sc 8_000 in
  let letter_rate = Float.max 1. (0.25 *. wire_thr) in
  List.iter
    (fun letter ->
      Gc.compact ();
      let lc = Ycsb.char_of_letter letter in
      with_wire ~tag:(Printf.sprintf "ycsb-%c" lc) Spp_pmemkv.Engines.btree
        (fun addr ->
          let cl = Net_client.connect ~pool:2 addr in
          Fun.protect
            ~finally:(fun () -> Net_client.close cl)
            (fun () ->
              let y =
                Ycsb.create ~max_span:16 ~letter ~seed:23 ~universe ()
              in
              let r =
                Loadgen.open_loop cl ~rate:letter_rate ~ops:letter_ops
                  ~next:
                    (Loadgen.ycsb_next y ~key:key_of ~value:(fun _ -> value))
              in
              print_row ~w:14
                [ short letter;
                  Printf.sprintf "%.0f" r.Loadgen.lg_target;
                  Printf.sprintf "%.0f" r.Loadgen.lg_achieved;
                  Printf.sprintf "%.1f" (us r.Loadgen.lg_hist 50.);
                  Printf.sprintf "%.1f" (us r.Loadgen.lg_hist 99.);
                  Printf.sprintf "%.1f" (us r.Loadgen.lg_hist 99.9);
                  string_of_int r.Loadgen.lg_failed ];
              let nm what = Printf.sprintf "ycsb/%c/%s" lc what in
              jemit ~experiment:"net" ~name:(nm "throughput")
                ~metric:"ops_per_s" ~unit_:"op/s"
                ~extra:
                  [ ("target_ops_per_s", Json_out.J_float r.Loadgen.lg_target);
                    ("mix", Json_out.J_string (Ycsb.describe letter));
                    ("failed", Json_out.J_int r.Loadgen.lg_failed) ]
                r.Loadgen.lg_achieved;
              List.iter
                (fun p ->
                  jemit ~experiment:"net" ~name:(nm (Printf.sprintf "p%g" p))
                    ~metric:"latency_us" ~unit_:"us" (us r.Loadgen.lg_hist p))
                [ 50.; 99.; 99.9 ])))
    [ Ycsb.A; Ycsb.B; Ycsb.C; Ycsb.D; Ycsb.E; Ycsb.F ]

let experiments =
  [
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("bugs", bugs);
    ("crashcheck", crashcheck);
    ("counters", counters);
    ("ablation", ablation);
    ("hooks", hook_microbench);
    ("pipeline", pipeline);
    ("scaleout", scaleout);
    ("serve", serve);
    ("cache", cache);
    ("failover", failover);
    ("scan", scan_bench);
    ("reshard", reshard);
    ("net", net);
  ]

let () =
  let requested =
    let rec strip = function
      | [] -> []
      | "--quick" :: rest -> strip rest
      | "--json" :: _ :: rest -> strip rest
      | "--domains" :: _ :: rest -> strip rest
      | a :: rest -> a :: strip rest
    in
    strip (List.tl (Array.to_list Sys.argv))
  in
  let to_run =
    if requested = [] then experiments
    else
      List.map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> (name, f)
          | None ->
            Printf.eprintf "unknown experiment %s; available: %s\n" name
              (String.concat ", " (List.map fst experiments));
            exit 1)
        requested
  in
  Printf.printf "SPP reproduction benchmarks%s\n"
    (if quick then " (quick mode)" else "");
  List.iter
    (fun (name, f) ->
      (* return freed pool buffers to the OS between experiments so a
         later experiment's timings never pay for an earlier one's heap *)
      Gc.compact ();
      let t, () = time f in
      jemit ~experiment:name ~name:"total" ~metric:"wall_s" ~unit_:"s" t;
      Printf.printf "[%s finished in %.1f s]\n%!" name t)
    to_run;
  (match json_file with
   | None -> ()
   | Some path ->
     Spp_benchlib.Json_out.write jout
       ~meta:
         [ ("generator", Spp_benchlib.Json_out.J_string "bench/main.exe");
           ("quick", Spp_benchlib.Json_out.J_bool quick) ]
       path;
     Printf.printf "wrote %s\n%!" path);
  if !failed_gates <> [] then begin
    Printf.eprintf "bench: gates failed: %s\n"
      (String.concat ", " (List.rev !failed_gates));
    exit 1
  end
