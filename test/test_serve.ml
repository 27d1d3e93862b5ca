(* Tests for the group-commit stack and the asynchronous batched serving
   pipeline: histogram unit tests, Engine.run_batch vs a model oracle and
   vs the synchronous path, the fences/op amortization bar, and the
   async-pipeline differential. *)

open Spp_benchlib
open Spp_shard
open Spp_pmemkv

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Histogram -------------------------------------------------------- *)

let test_histogram_buckets () =
  (* values below 16 are exact *)
  for v = 0 to 15 do
    check_int "small value exact" v (Histogram.bucket_index v);
    let lo, hi = Histogram.bucket_range v in
    check_int "small lo" v lo;
    check_int "small hi" v hi
  done;
  (* octave boundaries land in their bucket, and every bucket contains
     the values its range claims *)
  List.iter
    (fun v ->
      let i = Histogram.bucket_index v in
      let lo, hi = Histogram.bucket_range i in
      check_bool
        (Printf.sprintf "%d in bucket [%d, %d]" v lo hi)
        true
        (lo <= v && v <= hi);
      (* relative bucket width stays within 1/16 of the magnitude *)
      if v >= 16 then
        check_bool
          (Printf.sprintf "bucket width %d <= %d/16" (hi - lo + 1) v)
          true
          (hi - lo + 1 <= max 1 (v / 8)))
    [ 16; 17; 31; 32; 33; 63; 64; 100; 1_000; 4_095; 4_096; 65_535;
      1_000_000; 123_456_789; max_int / 2 ];
  (* bucket index is monotone in the value *)
  let prev = ref (-1) in
  List.iter
    (fun v ->
      let i = Histogram.bucket_index v in
      check_bool "bucket index monotone" true (i >= !prev);
      prev := i)
    [ 0; 1; 7; 15; 16; 20; 90; 1024; 1025; 999_999; max_int / 4 ]

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for v = 1 to 1000 do
    Histogram.add h v
  done;
  check_int "count" 1000 (Histogram.count h);
  check_int "max exact" 1000 (Histogram.max_value h);
  (* percentile is conservative (>= true quantile) but within a bucket
     width, and monotone in p *)
  let prev = ref 0 in
  List.iter
    (fun p ->
      let v = Histogram.percentile h p in
      let truth = int_of_float (ceil (p /. 100. *. 1000.)) in
      check_bool
        (Printf.sprintf "p%.0f = %d >= %d" p v truth)
        true (v >= truth);
      check_bool
        (Printf.sprintf "p%.0f = %d within bucket of %d" p v truth)
        true
        (v <= truth + (max 1 (truth / 8)));
      check_bool "monotone in p" true (v >= !prev);
      prev := v)
    [ 1.; 10.; 25.; 50.; 75.; 90.; 95.; 99.; 99.9; 100. ];
  check_int "p100 = max" 1000 (Histogram.percentile h 100.);
  check_int "empty histogram percentile" 0
    (Histogram.percentile (Histogram.create ()) 99.)

let test_histogram_merge () =
  let fill seed n =
    let st = Random.State.make [| seed |] in
    let h = Histogram.create () in
    for _ = 1 to n do
      Histogram.add h (Random.State.int st 1_000_000)
    done;
    h
  in
  let a = fill 1 500 and b = fill 2 900 and c = fill 3 40 in
  let xy = Histogram.merge (Histogram.merge a b) c in
  let yz = Histogram.merge a (Histogram.merge b c) in
  check_bool "merge associative (exact state)" true
    (Histogram.to_alist xy = Histogram.to_alist yz);
  check_int "merge count" 1440 (Histogram.count xy);
  check_int "merge max" (Histogram.max_value yz) (Histogram.max_value xy);
  check_bool "merge commutative" true
    (Histogram.to_alist (Histogram.merge a b)
     = Histogram.to_alist (Histogram.merge b a));
  (* merged percentiles match a histogram fed the union *)
  let u = Histogram.merge a b in
  check_int "p50 of union" (Histogram.percentile u 50.)
    (Histogram.percentile (Histogram.merge b a) 50.)

let test_histogram_mean () =
  let h = Histogram.create () in
  check_int "empty count" 0 (Histogram.count h);
  Alcotest.(check (float 0.)) "empty mean" 0. (Histogram.mean h);
  List.iter (Histogram.add h) [ 10; 20; 30; 100 ];
  (* the mean is exact — it comes from the value sum, not the buckets *)
  Alcotest.(check (float 1e-9)) "exact mean" 40. (Histogram.mean h);
  check_int "count" 4 (Histogram.count h);
  let g = Histogram.create () in
  List.iter (Histogram.add g) [ 0; 0 ];
  let m = Histogram.merge h g in
  Alcotest.(check (float 1e-9)) "merged mean reweights" (160. /. 6.)
    (Histogram.mean m);
  Alcotest.(check (float 0.)) "all-zero values still mean 0" 0.
    (Histogram.mean g)

(* --- Engine.run_batch --------------------------------------------------- *)

let mk_map ?(nbuckets = 32) variant =
  let a = Spp_access.create ~pool_size:(1 lsl 21) ~name:"serve-test" variant in
  Engine.create ~nbuckets Engines.cmap a

let test_run_batch_oracle () =
  List.iter
    (fun variant ->
      let kv = mk_map variant in
      let model = Hashtbl.create 64 in
      let st = Random.State.make [| 77 |] in
      for _round = 1 to 30 do
        let n = 1 + Random.State.int st 40 in
        let ops =
          Array.init n (fun _ ->
            let key = Printf.sprintf "key-%d" (Random.State.int st 60) in
            match Random.State.int st 3 with
            | 0 ->
              Engine.B_put
                { key;
                  value = Printf.sprintf "val-%d" (Random.State.int st 9999) }
            | 1 -> Engine.B_remove key
            | _ -> Engine.B_get key)
        in
        let replies = Engine.run_batch kv ops in
        Array.iteri
          (fun i op ->
            match (op, replies.(i)) with
            | Engine.B_put { key; value }, Engine.R_put ->
              Hashtbl.replace model key value
            | Engine.B_get key, Engine.R_get v ->
              Alcotest.(check (option string))
                "batched get agrees with model" (Hashtbl.find_opt model key) v
            | Engine.B_remove key, Engine.R_removed r ->
              check_bool "batched remove agrees" (Hashtbl.mem model key) r;
              Hashtbl.remove model key
            | _ -> Alcotest.fail "reply shape mismatch")
          ops
      done;
      check_int "surviving entries" (Hashtbl.length model)
        (Engine.count_all kv);
      (* the synchronous path reads what the batched path wrote *)
      Hashtbl.iter
        (fun k v ->
          Alcotest.(check (option string)) "sync get sees batched put" (Some v)
            (Engine.get kv k))
        model)
    [ Spp_access.Spp; Spp_access.Pmdk ]

let test_run_batch_within_batch_visibility () =
  let kv = mk_map Spp_access.Spp in
  let replies =
    Engine.run_batch kv
      [| Engine.B_put { key = "a"; value = "1" };
         Engine.B_get "a";                         (* sees the staged put *)
         Engine.B_put { key = "a"; value = "22" }; (* replaces in-batch entry *)
         Engine.B_get "a";
         Engine.B_remove "a";
         Engine.B_get "a";
         Engine.B_put { key = "a"; value = "333" } |]
  in
  check_bool "get after put" true (replies.(1) = Engine.R_get (Some "1"));
  check_bool "get after replace" true (replies.(3) = Engine.R_get (Some "22"));
  check_bool "remove hits" true (replies.(4) = Engine.R_removed true);
  check_bool "get after remove" true (replies.(5) = Engine.R_get None);
  Alcotest.(check (option string)) "final state" (Some "333")
    (Engine.get kv "a")

(* Group commit must survive a crash mid-stream like any other path:
   recovery replays or discards the staged log, never tears an op. The
   torture suite (test_torture) enumerates every crash point; here we
   sanity-check a plain power cut between batches. *)
let test_run_batch_crash_between_batches () =
  let a = Spp_access.create ~pool_size:(1 lsl 20) ~name:"crashkv"
      Spp_access.Spp in
  let pool = a.Spp_access.pool in
  let kv = Engine.create ~nbuckets:16 Engines.cmap a in
  let root = a.Spp_access.root a.Spp_access.oid_size in
  Spp_pmdk.Pool.store_oid pool ~off:root.Spp_pmdk.Oid.off (Engine.root_oid kv);
  Spp_pmdk.Pool.persist pool ~off:root.Spp_pmdk.Oid.off
    ~len:a.Spp_access.oid_size;
  Spp_sim.Memdev.set_tracking (Spp_pmdk.Pool.dev pool) true;
  ignore
    (Engine.run_batch kv
       [| Engine.B_put { key = "k1"; value = "v1" };
          Engine.B_put { key = "k2"; value = "v2" } |]);
  ignore (Spp_pmdk.Pool.crash_and_recover pool);
  let a' = Spp_access.attach (Spp_pmdk.Pool.space pool) pool in
  let buckets =
    Spp_pmdk.Pool.load_oid pool ~off:(Spp_pmdk.Pool.root_oid pool).Spp_pmdk.Oid.off
  in
  let kv' = Engine.attach Engines.cmap a' ~root:buckets in
  Alcotest.(check (option string)) "committed batch durable" (Some "v1")
    (Engine.get kv' "k1");
  Alcotest.(check (option string)) "committed batch durable (2)" (Some "v2")
    (Engine.get kv' "k2")

(* --- Fence amortization (acceptance bar) ------------------------------ *)

let value_256 = String.make 256 'v'

(* Requests split into per-shard streams, in order. *)
let by_shard ~nshards reqs =
  let streams = Array.make nshards [] in
  Array.iter
    (fun r ->
      let s = Shard.shard_of_key ~nshards (Serve.request_key r) in
      streams.(s) <- r :: streams.(s))
    reqs;
  Array.map (fun l -> Array.of_list (List.rev l)) streams

let serve_streams ~nshards ~ops =
  let reqs =
    Array.init ops (fun i ->
      let key = Spp_pmemkv.Db_bench.key_of_int (i mod 64) in
      if i mod 4 = 3 then Serve.Get key
      else Serve.Put { key; value = value_256 })
  in
  by_shard ~nshards reqs

let build_serve_store ?(nshards = 2) ?(tracking = false) ?(cache_cap = 0)
    ?engine () =
  let t = Shard.create ~nbuckets:64 ~pool_size:(1 lsl 22) ~cache_cap ?engine
      ~nshards Spp_access.Spp in
  if tracking then
    for i = 0 to nshards - 1 do
      Spp_sim.Memdev.set_tracking
        (Spp_pmdk.Pool.dev (Shard.shard_access (Shard.shard t i)).Spp_access.pool)
        true
    done;
  Shard.reset_stats t;
  t

let fences_per_op ~batch_cap =
  let nshards = 2 and ops = 512 in
  let t = build_serve_store ~nshards ~tracking:true () in
  let streams = serve_streams ~nshards ~ops in
  ignore (Serve.run_sequential t ~batch_cap streams);
  let c = Shard.merged_counters t in
  ( float_of_int c.Spp_sim.Memdev.fences /. float_of_int ops,
    c )

let test_fence_amortization () =
  let f32, c32 = fences_per_op ~batch_cap:32 in
  let f1, c1 = fences_per_op ~batch_cap:1 in
  check_bool
    (Printf.sprintf "fences/op %.3f (cap 32) <= 1/4 of %.3f (cap 1)" f32 f1)
    true
    (f32 <= f1 /. 4.);
  (* the saved fences are accounted on the device; a batch of one saves
     nothing *)
  check_bool "fences_saved recorded" true
    (c32.Spp_sim.Memdev.fences_saved > 0);
  check_int "cap-1 batches save nothing" 0 c1.Spp_sim.Memdev.fences_saved;
  check_bool "batched_ops recorded" true (c32.Spp_sim.Memdev.batched_ops > 0)

(* --- PM traffic budgets ------------------------------------------------ *)

(* PM bytes stored and loaded, fences and SPP checks are pure functions
   of the op stream, the same on every host and compiler, so they are
   gated exactly. Minor words are not: they move with the OCaml
   version. *)

(* One cmap overwrite in a one-op batch, SPP mode, 16 B key and 256 B
   value, once its class has a free block: the 312 B entry, then three
   staged words (the reused block's state, the slot oid's offset field,
   the old entry's state) at 16 B of log and 8 B of apply each, and
   24 B of commit words (count, valid flag set and cleared). *)
let test_overwrite_traffic () =
  let a =
    Spp_access.create ~pool_size:(1 lsl 21) ~name:"traffic" Spp_access.Spp
  in
  let kv = Engine.create ~nbuckets:32 Engines.cmap a in
  let pool = a.Spp_access.pool in
  let key = Spp_pmemkv.Db_bench.key_of_int 7 in
  let put c =
    ignore
      (Engine.run_batch kv
         [| Engine.B_put { key; value = String.make 256 c } |])
  in
  put 'a';
  put 'b';   (* frees the first entry: its class now has a free block *)
  let sp = Spp_pmdk.Pool.space pool in
  Spp_sim.Space.reset_stats sp;
  put 'c';
  check_int "PM bytes stored by the overwrite" 408
    (Spp_sim.Space.stats sp).Spp_sim.Space.pm_bytes_stored;
  check_int "redo words staged" 3
    (Spp_pmdk.Pool.load_word pool ~off:Spp_pmdk.Rep.off_redo_n);
  Alcotest.(check (option string)) "value" (Some (String.make 256 'c'))
    (Engine.get kv key)

(* A seeded YCSB-A stream (50% gets, 50% overwrites of 256 B values,
   zipfian over a preloaded key set) on 2 shards through the pure PM
   path, at the served path's batch size and at cap 32. *)
let ycsb_a_streams ~nshards ~keys ~ops =
  let y = Ycsb.create ~letter:Ycsb.A ~seed:1 ~universe:keys () in
  let key = Spp_pmemkv.Db_bench.key_of_int in
  let reqs =
    Array.init ops (fun i ->
      match Ycsb.next y with
      | Ycsb.Read k -> Serve.Get (key k)
      | Ycsb.Update k ->
        let value = String.make 256 (Char.chr (97 + (i mod 26))) in
        Serve.Put { key = key k; value }
      | _ -> assert false)
  in
  by_shard ~nshards reqs

let stream_traffic engine ~batch_cap =
  let nshards = 2 and keys = 2_000 and ops = 4_000 in
  let t = build_serve_store ~nshards ~engine () in
  let put k =
    Serve.Put { key = Spp_pmemkv.Db_bench.key_of_int k; value = value_256 }
  in
  let preload = by_shard ~nshards (Array.init keys put) in
  ignore (Serve.run_sequential ~use_cache:false t ~batch_cap:32 preload);
  Shard.reset_stats t;
  Spp_core.Runtime.reset_counters ();
  ignore
    (Serve.run_sequential ~use_cache:false t ~batch_cap
       (ycsb_a_streams ~nshards ~keys ~ops));
  let per_op v = float_of_int v /. float_of_int ops in
  let space = Shard.merged_stats t and rt = Spp_core.Runtime.local_counters () in
  ( per_op space.Spp_sim.Space.pm_bytes_stored,
    per_op space.Spp_sim.Space.pm_bytes_loaded,
    per_op (Shard.merged_counters t).Spp_sim.Memdev.fences,
    per_op (rt.Spp_core.Runtime.checkbound + rt.Spp_core.Runtime.memintr_check) )

(* Budgets: the counts of this allocator, rounded up. A change that
   stores or loads more PM bytes or issues more fences per op fails
   here, and so does a served path that runs no SPP check. *)
let test_stream_traffic_budgets () =
  List.iter
    (fun (name, engine, batch_cap, stored_budget, loaded_budget, fences_budget) ->
      let stored, loaded, fences, checks = stream_traffic engine ~batch_cap in
      let within what v budget =
        check_bool
          (Printf.sprintf "%s cap %d: %.4f %s/op <= %.3f" name batch_cap v what
             budget)
          true (v <= budget)
      in
      within "PM bytes stored" stored stored_budget;
      within "PM bytes loaded" loaded loaded_budget;
      within "fences" fences fences_budget;
      check_bool
        (Printf.sprintf "%s cap %d: %.2f SPP checks/op > 0" name batch_cap checks)
        true (checks > 0.))
    [ ("cmap", Spp_pmemkv.Engines.cmap, 1, 197.0, 864.5, 1.931);
      ("cmap", Spp_pmemkv.Engines.cmap, 32, 186.6, 861.8, 0.132);
      ("btree", Spp_pmemkv.Engines.btree, 1, 665.7, 2238.9, 1.931);
      ("btree", Spp_pmemkv.Engines.btree, 32, 657.2, 2217.8, 0.501) ]

(* --- Async pipeline --------------------------------------------------- *)

let test_serve_pipeline_oracle () =
  let nshards = 3 in
  let t = build_serve_store ~nshards () in
  let serve = Serve.create ~batch_cap:8 t in
  let model = Hashtbl.create 64 in
  let st = Random.State.make [| 5 |] in
  let tickets = ref [] in
  for i = 0 to 599 do
    let key = Printf.sprintf "key-%d" (Random.State.int st 80) in
    let req =
      match i mod 3 with
      | 0 ->
        let value = Printf.sprintf "val-%d" i in
        Hashtbl.replace model key value;
        Serve.Put { key; value }
      | 1 -> Serve.Get key
      | _ ->
        Hashtbl.remove model key;
        Serve.Remove key
    in
    tickets := (req, Serve.submit serve req) :: !tickets
  done;
  (* resolve every promise; puts/removes must have been applied in
     submission order per key (same-shard FIFO) *)
  List.iter
    (fun (req, tk) ->
      match (req, Serve.await serve tk) with
      | Serve.Put _, Serve.Done -> ()
      | Serve.Get _, Serve.Value _ -> ()
      | Serve.Remove _, Serve.Removed _ -> ()
      | _ -> Alcotest.fail "reply shape mismatch")
    !tickets;
  Serve.stop serve;
  check_int "final store contents" (Hashtbl.length model) (Shard.count_all t);
  Hashtbl.iter
    (fun k v ->
      Alcotest.(check (option string)) "final value" (Some v) (Shard.get t k))
    model;
  let stats = Serve.stats serve in
  check_int "every op executed" 600
    (Array.fold_left (fun a s -> a + s.Serve.ss_ops) 0 stats);
  check_int "latency recorded per request" 600
    (Histogram.count (Serve.merged_hist serve));
  Array.iter
    (fun s ->
      check_bool "batch sizes within cap" true (s.Serve.ss_max_batch <= 8))
    stats

(* Interleave a bounded full-window Scan every [every] requests into
   each per-shard stream. Scans carry no routing key, so they are mixed
   in after partitioning and submitted per shard. *)
let mix_scans ~every streams =
  Array.map
    (fun stream ->
      let out = ref [] in
      Array.iteri
        (fun i r ->
          if i mod every = every - 1 then
            out :=
              Serve.Scan
                { lo = Spp_pmemkv.Db_bench.key_of_int 0;
                  hi = Spp_pmemkv.Db_bench.key_of_int 9_999; limit = 24 }
              :: !out;
          out := r :: !out)
        stream;
      Array.of_list (List.rev !out))
    streams

(* The differential the tentpole must preserve, on either engine: the
   async pipeline (pre-enqueued, fixed batching) against the sequential
   baseline on identically built stores — replies (ordered scan slices
   included), merged Space stats and merged Memdev counters all
   bit-identical. *)
let serve_differential engine () =
  let nshards = 4 and ops = 1_200 and batch_cap = 16 in
  let streams = mix_scans ~every:60 (serve_streams ~nshards ~ops) in
  let t_seq = build_serve_store ~nshards ~engine () in
  let t_par = build_serve_store ~nshards ~engine () in
  let seq_replies = Serve.run_sequential t_seq ~batch_cap streams in
  let serve = Serve.create ~batch_cap ~adaptive:false t_par in
  let tickets =
    Array.mapi
      (fun i stream ->
        Array.map (fun req -> (req, Serve.submit_to serve i req)) stream)
      streams
  in
  let par_replies =
    Array.map (Array.map (fun (_, tk) -> Serve.await serve tk)) tickets
  in
  Serve.stop serve;
  Array.iteri
    (fun i seq ->
      check_int
        (Printf.sprintf "shard %d reply digest" i)
        (Serve.digest_replies seq)
        (Serve.digest_replies par_replies.(i)))
    seq_replies;
  check_bool "merged Space stats identical" true
    (Shard.merged_stats t_seq = Shard.merged_stats t_par);
  check_bool "merged Memdev counters identical (incl. fences_saved)" true
    (Shard.merged_counters t_seq = Shard.merged_counters t_par);
  check_int "same surviving entries" (Shard.count_all t_seq)
    (Shard.count_all t_par)

let test_serve_differential () = serve_differential Spp_pmemkv.Engines.cmap ()

let test_serve_differential_btree () =
  serve_differential Spp_pmemkv.Engines.btree ()

(* A backlog queued before anyone runs the shard: the first await takes
   the shard and drains everything queued, in chunks of the cap. *)
let test_serve_drain_backlog () =
  let t = build_serve_store ~nshards:1 () in
  let batch_cap = 32 and n = 500 in
  let serve = Serve.create ~batch_cap ~adaptive:false t in
  let tickets =
    Array.init n (fun i ->
      Serve.submit serve
        (Serve.Put { key = Printf.sprintf "k%d" i; value = "v" }))
  in
  check_int "queued, not run" n (Serve.queue_depths serve).(0);
  Array.iter (fun tk -> ignore (Serve.await serve tk)) tickets;
  Serve.stop serve;
  let s = (Serve.stats serve).(0) in
  check_int "all ops served" n s.Serve.ss_ops;
  check_int "largest batch = cap" batch_cap s.Serve.ss_max_batch;
  check_int "ceil(n / cap) batches" ((n + batch_cap - 1) / batch_cap)
    s.Serve.ss_batches

(* --- Inline execution on an idle shard ---------------------------------- *)

(* A notify that records the domain it ran on *)
let recorder () =
  let where = Atomic.make None in
  (where, fun (_ : Serve.reply) -> Atomic.set where (Some (Domain.self ())))

let shard_dev t i =
  Spp_pmdk.Pool.dev (Shard.shard_access (Shard.shard t i)).Spp_access.pool

(* A put and a cache-miss get on an idle shard run on the submitting
   domain: the ticket is resolved and [notify] has run when [submit]
   returns. *)
let test_inline_idle_shard () =
  let t = build_serve_store ~nshards:2 ~cache_cap:64 () in
  let serve = Serve.create ~batch_cap:8 t in
  let me = Domain.self () in
  let run req expect =
    let where, notify = recorder () in
    let tk = Serve.submit ~notify serve req in
    check_bool "resolved when submit returns" true
      (Serve.peek tk = Some expect);
    check_bool "notify ran on the submitting domain" true
      (Atomic.get where = Some me)
  in
  run (Serve.Put { key = "alpha"; value = "1" }) Serve.Done;
  run (Serve.Get "absent") (Serve.Value None);
  check_int "the get missed the cache" 0 (Serve.bypassed_gets serve);
  Serve.stop serve;
  let st = Serve.stats serve in
  check_int "both ops executed" 2
    (Array.fold_left (fun a s -> a + s.Serve.ss_ops) 0 st);
  check_int "one batch each" 2 (Serve.total_batches serve);
  check_int "latency recorded per op" 2
    (Histogram.count (Serve.merged_hist serve))

(* While a submitter holds the shard — stopped inside the first fence of
   its inline op's commit — ops from another domain queue behind it and
   do not run; before it lets go, the holder answers them in submission
   order. *)
let test_inline_held_shard () =
  let t = build_serve_store ~nshards:1 () in
  let serve = Serve.create ~batch_cap:8 t in
  let me = Domain.self () and k = 5 in
  let order = ref [] and order_mu = Mutex.create () in
  let note j (_ : Serve.reply) =
    Mutex.protect order_mu (fun () -> order := (j, Domain.self ()) :: !order)
  in
  (* the injector only records: a check failing inside the commit would
     surface as the op's own failure *)
  let fenced_on = ref None and queued = ref [||] in
  let depth_held = ref 0 and ran_held = ref true in
  let dev = shard_dev t 0 in
  Spp_sim.Memdev.set_injector dev
    (Some (function
       | Spp_sim.Memdev.Hk_fence ->
         Spp_sim.Memdev.set_injector dev None;
         fenced_on := Some (Domain.self ());
         let sub =
           Domain.spawn (fun () ->
             Array.init k (fun j ->
               Serve.submit ~notify:(note j) serve
                 (Serve.Put { key = Printf.sprintf "q%d" j; value = "v" })))
         in
         while (Serve.queue_depths serve).(0) < k do Domain.cpu_relax () done;
         queued := Domain.join sub;
         (* give a wrongly running domain time to take them *)
         Unix.sleepf 0.02;
         depth_held := (Serve.queue_depths serve).(0);
         ran_held :=
           Array.exists (fun tk -> Serve.peek tk <> None) !queued
           || Mutex.protect order_mu (fun () -> !order <> [])
       | _ -> ()));
  let tk = Serve.submit serve (Serve.Put { key = "first"; value = "v" }) in
  check_bool "the inline op's commit fenced on the submitter" true
    (!fenced_on = Some me);
  check_int "still queued behind the holder" k !depth_held;
  check_bool "none ran before the release" false !ran_held;
  check_bool "inline op resolved" true (Serve.peek tk = Some Serve.Done);
  Array.iter
    (fun tk ->
      check_bool "queued op acked" true (Serve.await serve tk = Serve.Done))
    !queued;
  Serve.stop serve;
  let order = List.rev !order in
  Alcotest.(check (list int)) "answered in submission order"
    (List.init k Fun.id) (List.map fst order);
  check_bool "answered by the holder" true
    (List.for_all (fun (_, d) -> d = me) order);
  check_int "every op executed" (k + 1) (Serve.stats serve).(0).Serve.ss_ops

(* While another domain keeps taking the shard for its own puts, a
   client whose put queued behind that hold submits gets of its key until
   one is answered at once or the put is: none may overtake the put. The
   window this probes (the shard unheld, the put still queued, the worker
   not yet running) is short, so the rounds go on until 200 puts have
   queued, or 20 000 rounds. *)
let test_inline_no_overtaking () =
  let t = build_serve_store ~nshards:1 () in
  let serve = Serve.create ~batch_cap:8 t in
  let stop = Atomic.make false in
  let other =
    Domain.spawn (fun () ->
      while not (Atomic.get stop) do
        ignore
          (Serve.await serve
             (Serve.submit serve (Serve.Put { key = "b"; value = "x" })))
      done)
  in
  let stale = ref 0 and queued = ref 0 and round = ref 0 in
  while !queued < 200 && !round < 20_000 do
    incr round;
    let v = string_of_int !round in
    let put = Serve.submit serve (Serve.Put { key = "a"; value = v }) in
    if Serve.peek put = None then incr queued;
    let rec gets acc =
      let tk = Serve.submit serve (Serve.Get "a") in
      if Serve.peek tk = None && Serve.peek put = None then gets (tk :: acc)
      else tk :: acc
    in
    List.iter
      (fun tk ->
        if Serve.await serve tk <> Serve.Value (Some v) then incr stale)
      (gets [])
  done;
  Atomic.set stop true;
  Domain.join other;
  Serve.stop serve;
  check_int "gets answered ahead of their client's put" 0 !stale

(* Four domains race for two shards on disjoint keys: whoever holds a
   shard, every reply matches its domain's model and the accounting
   adds up to the ops submitted. *)
let test_inline_contention () =
  let t = build_serve_store ~nshards:2 () in
  let serve = Serve.create ~batch_cap:8 t in
  let ndoms = 4 and per = 1000 and window = 4 in
  let doms =
    Array.init ndoms (fun d ->
      Domain.spawn (fun () ->
        let model = Hashtbl.create 64 and bad = ref 0 in
        let q = Queue.create () in
        let check (tk, expect) =
          if Serve.await serve tk <> expect then incr bad
        in
        for i = 0 to per - 1 do
          let key = Printf.sprintf "d%d-k%d" d (i mod 40) in
          let req, expect =
            match i mod 3 with
            | 0 ->
              let value = Printf.sprintf "v%d-%d" d i in
              Hashtbl.replace model key value;
              (Serve.Put { key; value }, Serve.Done)
            | 1 -> (Serve.Get key, Serve.Value (Hashtbl.find_opt model key))
            | _ ->
              let had = Hashtbl.mem model key in
              Hashtbl.remove model key;
              (Serve.Remove key, Serve.Removed had)
          in
          if Queue.length q >= window then check (Queue.pop q);
          Queue.push (Serve.submit serve req, expect) q
        done;
        Queue.iter check q;
        !bad))
  in
  let bad = Array.fold_left (fun a d -> a + Domain.join d) 0 doms in
  Serve.stop serve;
  check_int "replies matching each domain's model" 0 bad;
  let total = ndoms * per in
  check_int "every op counted" total
    (Array.fold_left (fun a s -> a + s.Serve.ss_ops) 0 (Serve.stats serve));
  check_int "every op's latency recorded" total
    (Histogram.count (Serve.merged_hist serve));
  check_int "no failures" 0 (Serve.total_failed serve)

(* A replica, threaded or inline, does not move an op off its
   submitter: under threaded semi-sync the holder waits for the applier
   domain's ack itself, so [notify] runs on the submitting domain. *)
let test_inline_replication () =
  let me = Domain.self () in
  let ran_on threaded =
    let t =
      Shard.create ~nbuckets:32 ~pool_size:(1 lsl 20) ~nshards:1
        Spp_access.Spp
    in
    let cfg =
      { Replica.default_config with
        replicas = 1; policy = Replica.Semi_sync; threaded }
    in
    let serve = Serve.create ~replication:cfg t in
    let where, notify = recorder () in
    let tk =
      Serve.submit ~notify serve (Serve.Put { key = "k"; value = "v" })
    in
    check_bool "acked" true (Serve.await serve tk = Serve.Done);
    Serve.stop serve;
    Option.get (Atomic.get where)
  in
  check_bool "threaded semi-sync: notify on the submitter" true
    (ran_on true = me);
  check_bool "unthreaded semi-sync: notify on the submitter" true
    (ran_on false = me)

(* --- No domains of its own ---------------------------------------------- *)

(* The process's OS thread count, as the kernel reports it; -1 where
   /proc is absent, which makes the comparisons below vacuous. *)
let os_threads () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> -1
  | ic ->
    let rec find () =
      match input_line ic with
      | l when String.length l > 8 && String.sub l 0 8 = "Threads:" ->
        int_of_string (String.trim (String.sub l 8 (String.length l - 8)))
      | _ -> find ()
      | exception End_of_file -> -1
    in
    Fun.protect ~finally:(fun () -> close_in ic) find

(* A 16-shard pipeline runs its traffic, queued and inline, on the
   domains that submit and await it: creating, serving and stopping it
   starts no thread. (A thread an earlier test ended may still be
   exiting, so the count may fall, never rise.) *)
let test_no_threads_started () =
  let t =
    Shard.create ~nbuckets:16 ~pool_size:(1 lsl 18) ~nshards:16
      Spp_access.Spp
  in
  let before = os_threads () in
  let serve = Serve.create ~batch_cap:8 t in
  let no_new_thread what =
    let now = os_threads () in
    check_bool (Printf.sprintf "%s: %d threads, %d before" what now before)
      true (now <= before)
  in
  no_new_thread "create";
  let tks =
    Array.init 256 (fun i ->
      Serve.submit serve
        (Serve.Put { key = Printf.sprintf "t%d" i; value = "v" }))
  in
  Array.iter
    (fun tk -> check_bool "acked" true (Serve.await serve tk = Serve.Done))
    tks;
  no_new_thread "serving";
  Serve.stop serve;
  no_new_thread "stop"

(* More shards than OCaml 5.1 allows domains: a 256-shard store serves a
   pre-enqueued stream exactly as the sequential baseline does. *)
let test_many_shards () =
  let nshards = 256 and batch_cap = 8 in
  let build () =
    Shard.create ~nbuckets:16 ~pool_size:(1 lsl 17) ~nshards Spp_access.Spp
  in
  let reqs =
    Array.init 2_048 (fun i ->
      let key = Spp_pmemkv.Db_bench.key_of_int (i * 7 mod 600) in
      match i mod 4 with
      | 0 | 1 -> Serve.Put { key; value = Printf.sprintf "m%d" i }
      | 2 -> Serve.Get key
      | _ -> Serve.Remove key)
  in
  let streams = by_shard ~nshards reqs in
  let t_seq = build () and t_par = build () in
  let seq = Serve.run_sequential t_seq ~batch_cap streams in
  let serve = Serve.create ~batch_cap ~adaptive:false t_par in
  let tickets = Array.map (Array.map (Serve.submit serve)) streams in
  let par = Array.map (Array.map (Serve.await serve)) tickets in
  Serve.stop serve;
  Array.iteri
    (fun i sq ->
      check_int
        (Printf.sprintf "shard %d reply digest" i)
        (Serve.digest_replies sq) (Serve.digest_replies par.(i)))
    seq;
  check_bool "merged Memdev counters identical" true
    (Shard.merged_counters t_seq = Shard.merged_counters t_par)

(* Requests submitted with [notify] alone and never awaited, as
   Net_server submits them, are all answered across a live migration and
   a promotion driven from another domain. The first part is
   deterministic: a burst is submitted while the migration holds the
   source (stopped inside the copy's first fence on the target), so the
   slot's requests are queued on the source at the flip and reach an
   unheld target that only the flip's drain runs; nothing is submitted
   until the migration returns. The second part keeps up to 64
   requests unanswered (a holder drains until its queue is empty, so an
   unbounded submitter would keep it draining) while the other domain
   promotes a replica and migrates the slot back. *)
let test_notify_only_across_moves () =
  let nshards = 2 and universe = 256 in
  let t =
    Shard.create ~nbuckets:64 ~pool_size:(1 lsl 21) ~nshards Spp_access.Spp
  in
  let cfg =
    { Replica.default_config with
      replicas = 1; policy = Replica.Sync; threaded = false }
  in
  let serve = Serve.create ~batch_cap:8 ~replication:cfg t in
  let key_of = Spp_pmemkv.Db_bench.key_of_int in
  for i = 0 to universe - 1 do
    ignore
      (Serve.await serve
         (Serve.submit serve (Serve.Put { key = key_of i; value = "p" })))
  done;
  let submitted = ref 0 and answered = Atomic.make 0
  and failed = Atomic.make 0 in
  let notify r =
    (match r with Serve.Failed _ -> Atomic.incr failed | _ -> ());
    Atomic.incr answered
  in
  let send key =
    incr submitted;
    ignore
      (Serve.submit ~notify serve
         (Serve.Put { key; value = string_of_int !submitted }))
  in
  let all_answered what =
    let deadline = Unix.gettimeofday () +. 10. in
    while Atomic.get answered < !submitted && Unix.gettimeofday () < deadline
    do
      Unix.sleepf 0.001
    done;
    check_int (what ^ ": every notification arrived") !submitted
      (Atomic.get answered)
  in
  let hot = key_of 5 in
  let slot = Shard.slot_of t hot and src = Shard.route t hot in
  let dst = (src + 1) mod nshards in
  let burst_asked = Atomic.make false and burst_sent = Atomic.make false in
  let dev = shard_dev t dst in
  Spp_sim.Memdev.set_injector dev
    (Some (function
       | Spp_sim.Memdev.Hk_fence ->
         Spp_sim.Memdev.set_injector dev None;
         Atomic.set burst_asked true;
         while not (Atomic.get burst_sent) do Domain.cpu_relax () done
       | _ -> ()));
  let phase = Atomic.make 0 in
  let mover =
    Domain.spawn (fun () ->
      ignore (Serve.migrate_slot serve ~slot ~dst);
      Atomic.set phase 1;
      while Atomic.get phase < 2 do Domain.cpu_relax () done;
      ignore (Serve.promote serve 0);
      ignore (Serve.migrate_slot serve ~slot ~dst:src);
      Atomic.set phase 3)
  in
  while not (Atomic.get burst_asked) do Domain.cpu_relax () done;
  for i = 0 to 63 do
    send (if i mod 2 = 0 then hot else key_of i)
  done;
  Atomic.set burst_sent true;
  while Atomic.get phase < 1 do Domain.cpu_relax () done;
  all_answered "queued behind a migration";
  check_bool "the flip re-pointed queued requests" true
    (Serve.forwarded serve > 0);
  Atomic.set phase 2;
  let i = ref 0 in
  while Atomic.get phase < 3 do
    if !submitted - Atomic.get answered < 64 then begin
      send (key_of (!i mod universe));
      incr i
    end
    else Domain.cpu_relax ()
  done;
  Domain.join mover;
  all_answered "across a promotion and a migration";
  check_int "no request failed" 0 (Atomic.get failed);
  check_int "one promotion" 1 (Serve.promotions serve);
  check_int "two migrations" 2 (Serve.migrations serve);
  Serve.stop serve;
  check_bool "the hot key is still stored" true (Shard.get t hot <> None)

(* --- Read cache ------------------------------------------------------- *)

(* Get-heavy streams over a small hot set, with removes mixed in so the
   invalidation paths are on the differential too. *)
let cache_streams ~nshards ~ops =
  let st = Random.State.make [| 0xCAFE; nshards; ops |] in
  let reqs =
    Array.init ops (fun i ->
      let key =
        if Random.State.int st 4 < 3 then
          Spp_pmemkv.Db_bench.key_of_int (Random.State.int st 8)
        else Spp_pmemkv.Db_bench.key_of_int (Random.State.int st 48)
      in
      match i mod 8 with
      | 0 -> Serve.Put { key; value = value_256 }
      | 1 when i mod 40 = 33 -> Serve.Remove key
      | _ -> Serve.Get key)
  in
  by_shard ~nshards reqs

(* The tentpole's safety property: a cached sequential run must be
   bit-identical to a cache-off run of the same streams — every reply,
   every Memdev counter (loads are not simulated events and fills stage
   nothing), and the recovered durable image. *)
let cache_differential engine () =
  let nshards = 2 and ops = 1_600 and batch_cap = 16 in
  let streams = mix_scans ~every:80 (cache_streams ~nshards ~ops) in
  let t_on =
    build_serve_store ~nshards ~tracking:true ~cache_cap:256 ~engine ()
  in
  let t_off = build_serve_store ~nshards ~tracking:true ~engine () in
  check_bool "cache attached" true (Shard.cache_enabled t_on);
  check_bool "cache absent" false (Shard.cache_enabled t_off);
  let r_on = Serve.run_sequential t_on ~batch_cap streams in
  let r_off = Serve.run_sequential t_off ~batch_cap streams in
  Array.iteri
    (fun i off ->
      check_int
        (Printf.sprintf "shard %d reply digest" i)
        (Serve.digest_replies off)
        (Serve.digest_replies r_on.(i)))
    r_off;
  check_bool "merged Memdev counters identical" true
    (Shard.merged_counters t_on = Shard.merged_counters t_off);
  (* Loads are where the cache pays off — everything on the store side
     (the durability-relevant traffic) must not move by a single byte,
     while the cached run must do strictly less PM reading. *)
  let s_on = Shard.merged_stats t_on and s_off = Shard.merged_stats t_off in
  check_int "pm_stores identical" s_off.Spp_sim.Space.pm_stores
    s_on.Spp_sim.Space.pm_stores;
  check_int "pm_bytes_stored identical" s_off.Spp_sim.Space.pm_bytes_stored
    s_on.Spp_sim.Space.pm_bytes_stored;
  check_int "vol_stores identical" s_off.Spp_sim.Space.vol_stores
    s_on.Spp_sim.Space.vol_stores;
  check_bool "cache hits skip PM loads" true
    (s_on.Spp_sim.Space.pm_loads < s_off.Spp_sim.Space.pm_loads);
  let rc = Shard.merged_cache_stats t_on in
  check_bool "the cached run actually hit" true (rc.Rcache.rc_hits > 0);
  check_bool "and invalidated" true (rc.Rcache.rc_invalidations > 0);
  (* Durable images: crash both stores (dropping all volatile state,
     including the cache) and compare what recovery brings back. *)
  let recovered t =
    Array.init nshards (fun i ->
      let sh = Shard.shard t i in
      let pool = (Shard.shard_access sh).Spp_access.pool in
      let root = Engine.root_oid (Shard.shard_kv sh) in
      ignore (Spp_pmdk.Pool.crash_and_recover pool);
      let a' = Spp_access.attach (Spp_pmdk.Pool.space pool) pool in
      let kv' = Engine.attach (Shard.engine t) a' ~root in
      check_bool "recovered map starts cold" true (Engine.cache kv' = None);
      ( Engine.count_all kv',
        List.init 48 (fun k ->
          Engine.get kv' (Spp_pmemkv.Db_bench.key_of_int k)) ))
  in
  let img_on = recovered t_on and img_off = recovered t_off in
  check_bool "recovered durable contents identical" true (img_on = img_off)

let test_cache_sequential_differential () =
  cache_differential Spp_pmemkv.Engines.cmap ()

let test_cache_sequential_differential_btree () =
  cache_differential Spp_pmemkv.Engines.btree ()

(* use_cache:false on a cached store must take the pure PM path. *)
let test_run_sequential_use_cache_off () =
  let nshards = 2 in
  let t = build_serve_store ~nshards ~cache_cap:256 () in
  let streams = cache_streams ~nshards ~ops:400 in
  ignore (Serve.run_sequential ~use_cache:false t ~batch_cap:16 streams);
  check_int "no probes with use_cache:false" 0
    (Shard.merged_cache_stats t).Rcache.rc_hits

(* The async fast path: on an adaptive cached pipeline, hot gets are
   answered on the submitting thread, replies still match the model, and
   a pipelined put-then-get of one key can never be answered from ahead
   of the write (submit-time invalidation). *)
let test_serve_bypass_fast_path () =
  let nshards = 2 in
  let t = build_serve_store ~nshards ~cache_cap:256 () in
  let serve = Serve.create ~batch_cap:8 t in
  for i = 0 to 63 do
    let key = Spp_pmemkv.Db_bench.key_of_int i in
    ignore (Serve.await serve (Serve.submit serve (Serve.Put { key; value = "v0" })))
  done;
  (* Awaited puts committed, so their batch replay filled the cache:
     these gets bypass the mailbox entirely. *)
  for i = 0 to 63 do
    let key = Spp_pmemkv.Db_bench.key_of_int i in
    match Serve.await serve (Serve.submit serve (Serve.Get key)) with
    | Serve.Value (Some "v0") -> ()
    | _ -> Alcotest.fail "wrong value from fast path"
  done;
  check_bool "gets bypassed the mailbox" true (Serve.bypassed_gets serve > 0);
  (* Read-your-writes across the pipeline: submit a put and, without
     awaiting it, a get of the same key. The get must see the new value
     (the submit invalidated the cache, so it queued behind the put). *)
  let key = Spp_pmemkv.Db_bench.key_of_int 7 in
  let tk_put = Serve.submit serve (Serve.Put { key; value = "v1" }) in
  let tk_get = Serve.submit serve (Serve.Get key) in
  (match Serve.await serve tk_get with
   | Serve.Value (Some "v1") -> ()
   | Serve.Value v ->
     Alcotest.failf "pipelined get saw %s, not its own write"
       (match v with Some s -> s | None -> "None")
   | _ -> Alcotest.fail "reply shape");
  ignore (Serve.await serve tk_put);
  Serve.stop serve;
  let s = Serve.cache_stats serve in
  check_bool "cache stats exposed" true (s.Rcache.rc_fills > 0)

(* Deterministic mode must ignore the cache: no bypass, and the async
   run stays bit-identical to the uncached sequential baseline. *)
let test_cache_deterministic_mode () =
  let nshards = 2 and batch_cap = 16 in
  let streams = cache_streams ~nshards ~ops:800 in
  let t_seq = build_serve_store ~nshards ~tracking:true ~cache_cap:256 () in
  let t_par = build_serve_store ~nshards ~tracking:true ~cache_cap:256 () in
  let seq_replies =
    Serve.run_sequential ~use_cache:false t_seq ~batch_cap streams
  in
  let serve = Serve.create ~batch_cap ~adaptive:false t_par in
  let tickets =
    Array.map (Array.map (fun req -> (req, Serve.submit serve req))) streams
  in
  let par_replies =
    Array.map (Array.map (fun (_, tk) -> Serve.await serve tk)) tickets
  in
  Serve.stop serve;
  check_int "deterministic mode never bypasses" 0 (Serve.bypassed_gets serve);
  Array.iteri
    (fun i seq ->
      check_int
        (Printf.sprintf "shard %d reply digest" i)
        (Serve.digest_replies seq)
        (Serve.digest_replies par_replies.(i)))
    seq_replies;
  check_bool "merged Memdev counters identical" true
    (Shard.merged_counters t_seq = Shard.merged_counters t_par)

(* Client-facing scans: scatter per shard through the worker batches,
   gather into one globally ordered limit-clipped window; a scan queued
   behind an un-awaited put of an in-range key must observe it
   (same-shard FIFO), a window past every key is empty, and the result
   is identical on both engines. *)
let test_serve_scan_api () =
  List.iter
    (fun engine ->
      let nshards = 3 in
      let t = build_serve_store ~nshards ~cache_cap:256 ~engine () in
      let serve = Serve.create ~batch_cap:8 t in
      for i = 0 to 99 do
        let key = Spp_pmemkv.Db_bench.key_of_int i in
        ignore
          (Serve.await serve
             (Serve.submit serve
                (Serve.Put { key; value = Printf.sprintf "s%03d" i })))
      done;
      let key_of = Spp_pmemkv.Db_bench.key_of_int in
      let expect =
        List.init 50 (fun i -> (key_of (10 + i), Printf.sprintf "s%03d" (10 + i)))
      in
      (match Serve.scan serve ~lo:(key_of 10) ~hi:(key_of 59) ~limit:1000 with
       | Ok kvs ->
         Alcotest.(check (list (pair string string)))
           (Spp_pmemkv.Engine.spec_name engine ^ ": gathered window")
           expect kvs
       | Error _ -> Alcotest.fail "scan failed");
      (match Serve.scan serve ~lo:(key_of 10) ~hi:(key_of 59) ~limit:5 with
       | Ok kvs ->
         Alcotest.(check (list (pair string string)))
           "global limit clips the merge"
           (List.filteri (fun i _ -> i < 5) expect)
           kvs
       | Error _ -> Alcotest.fail "scan failed");
      (* read-your-writes: un-awaited put, then scan — FIFO per shard *)
      let tk =
        Serve.submit serve
          (Serve.Put { key = key_of 30; value = "fresh" })
      in
      (match Serve.scan serve ~lo:(key_of 30) ~hi:(key_of 30) ~limit:4 with
       | Ok [ (k, v) ] ->
         check_bool "scan sees the queued put" true
           (k = key_of 30 && v = "fresh")
       | Ok _ -> Alcotest.fail "wrong scan width"
       | Error _ -> Alcotest.fail "scan failed");
      ignore (Serve.await serve tk);
      (match Serve.scan serve ~lo:"zzz" ~hi:"zzzz" ~limit:10 with
       | Ok kvs -> check_int "empty window" 0 (List.length kvs)
       | Error _ -> Alcotest.fail "scan failed");
      Serve.stop serve)
    [ Spp_pmemkv.Engines.cmap; Spp_pmemkv.Engines.btree ];
  (* the divergence-report printers render scans *)
  let has msg needle =
    let nl = String.length needle and ml = String.length msg in
    let rec go i =
      i + nl <= ml && (String.sub msg i nl = needle || go (i + 1))
    in
    go 0
  in
  let pp pp_v v = Format.asprintf "%a" pp_v v in
  check_bool "pp_request renders Scan" true
    (has
       (pp Serve.pp_request (Serve.Scan { lo = "a"; hi = "z"; limit = 9 }))
       "Scan");
  check_bool "pp_reply renders Scanned" true
    (has (pp Serve.pp_reply (Serve.Scanned [ ("a", "1"); ("b", "2") ]))
       "Scanned")

(* --- Live slot migration ---------------------------------------------- *)

(* The migration differential: one key-routed op stream executed twice
   on identically built stores — once on the static slot table, once
   with slot migrations forced mid-stream (including one slot moved and
   later moved back) — must produce bit-identical replies in submission
   order, and the recovered durable contents (each shard's durable image
   reopened through recovery and reattached) must merge to the same
   key-value map with every key served by exactly one shard. *)
let migration_differential engine () =
  let nshards = 4 and nops = 1_200 in
  let universe = 96 in
  let key_of = Spp_pmemkv.Db_bench.key_of_int in
  let ops =
    Array.init nops (fun i ->
      let key = key_of (i * 7 mod universe) in
      match i mod 5 with
      | 0 | 1 -> Serve.Put { key; value = Printf.sprintf "mv-%06d" i }
      | 2 -> Serve.Remove key
      | _ -> Serve.Get key)
  in
  let hot_keys = [ key_of 0; key_of 7; key_of 13 ] in
  let run ~migrate =
    let t = build_serve_store ~nshards ~engine () in
    let serve = Serve.create ~batch_cap:8 ~adaptive:false t in
    let tickets = Array.make nops None in
    let submit_range lo hi =
      for i = lo to hi - 1 do
        tickets.(i) <- Some (Serve.submit serve ops.(i))
      done
    in
    let move key =
      let slot = Shard.slot_of t key in
      let src = Shard.route t key in
      let r = Serve.migrate_slot serve ~slot ~dst:((src + 1) mod nshards) in
      check_int "migration moved the slot" ((src + 1) mod nshards)
        (Shard.route t key);
      check_int "report names the slot" slot r.Serve.mig_slot
    in
    submit_range 0 (nops / 3);
    if migrate then List.iter move hot_keys;
    submit_range (nops / 3) (2 * nops / 3);
    if migrate then List.iter move hot_keys;   (* second hop, live again *)
    submit_range (2 * nops / 3) nops;
    let replies =
      Array.map
        (fun tk -> Serve.await serve (Option.get tk))
        tickets
    in
    Serve.stop serve;
    (t, replies)
  in
  let (t_static, r_static) = run ~migrate:false in
  let (t_mig, r_mig) = run ~migrate:true in
  check_int "replies bit-identical to the no-migration run"
    (Serve.digest_replies r_static) (Serve.digest_replies r_mig);
  check_int "same surviving entries" (Shard.count_all t_static)
    (Shard.count_all t_mig);
  (* recovered durable contents: reopen every shard's durable image
     through recovery and merge — each key on exactly one shard, and the
     merged map equal across the two runs *)
  let recovered t =
    let per_shard =
      Array.init nshards (fun i ->
        let sh = Shard.shard t i in
        let img =
          Spp_sim.Memdev.durable_snapshot
            (Spp_pmdk.Pool.dev (Shard.shard_access sh).Spp_access.pool)
        in
        let dev =
          Spp_sim.Memdev.of_image ~name:(Printf.sprintf "mig-diff%d" i) img
        in
        let space = Spp_sim.Space.create () in
        match Spp_pmdk.Pool.open_dev space ~base:4096 dev with
        | Error _ -> Alcotest.fail "durable image failed recovery"
        | Ok (pool', _) ->
          let a' = Spp_access.attach (Spp_pmdk.Pool.space pool') pool' in
          let map' =
            Spp_pmemkv.Engine.attach (Shard.engine t) a'
              ~root:(Spp_pmemkv.Engine.root_oid (Shard.shard_kv sh))
          in
          Array.init universe (fun k ->
            Spp_pmemkv.Engine.get map' (key_of k)))
    in
    Array.init universe (fun k ->
      let holders =
        Array.to_list per_shard
        |> List.filter_map (fun contents -> contents.(k))
      in
      check_bool
        (Printf.sprintf "key %d durable on at most one shard" k)
        true (List.length holders <= 1);
      holders)
  in
  Alcotest.(check (array (list string)))
    "recovered durable contents equivalent" (recovered t_static)
    (recovered t_mig);
  ignore (Serve.forwarded : Serve.t -> int)

let test_migration_differential () =
  migration_differential Spp_pmemkv.Engines.cmap ()

let test_migration_differential_btree () =
  migration_differential Spp_pmemkv.Engines.btree ()

(* Migration accounting and edge cases on a settled store: reports count
   the copied keys, a no-op migration reports zero, invalid arguments
   are rejected, Migration_failed has a printer, and a whole-store scan
   right after a migration still serves every key exactly once. *)
let test_migration_report_and_scan () =
  let nshards = 3 in
  let t = build_serve_store ~nshards () in
  let serve = Serve.create ~batch_cap:8 t in
  let key_of = Spp_pmemkv.Db_bench.key_of_int in
  for i = 0 to 63 do
    ignore
      (Serve.await serve
         (Serve.submit serve
            (Serve.Put { key = key_of i; value = Printf.sprintf "r%02d" i })))
  done;
  let slot = Shard.slot_of t (key_of 5) in
  let src = Shard.route t (key_of 5) in
  let dst = (src + 1) mod nshards in
  let r = Serve.migrate_slot serve ~slot ~dst in
  check_bool "copied at least the probe key" true (r.Serve.mig_keys >= 1);
  check_int "from" src r.Serve.mig_from;
  check_int "to" dst r.Serve.mig_to;
  check_int "migrations counted" 1 (Serve.migrations serve);
  check_bool "keys_moved accumulates" true (Serve.keys_moved serve >= 1);
  let r2 = Serve.migrate_slot serve ~slot ~dst in
  check_int "no-op migration copies nothing" 0 r2.Serve.mig_keys;
  Alcotest.(check (option string))
    "migrated key served from the new owner" (Some "r05")
    (Shard.get t (key_of 5));
  (match Serve.scan serve ~lo:(key_of 0) ~hi:(key_of 63) ~limit:1000 with
   | Ok kvs ->
     check_int "post-migration scan serves every key once" 64
       (List.length kvs);
     check_bool "scan ordered" true
       (List.for_all2
          (fun (k, _) i -> k = key_of i)
          kvs
          (List.init 64 Fun.id))
   | Error _ -> Alcotest.fail "scan failed");
  check_bool "bad slot rejected" true
    (try ignore (Serve.migrate_slot serve ~slot:(-1) ~dst); false
     with Invalid_argument _ -> true);
  check_bool "bad dst rejected" true
    (try ignore (Serve.migrate_slot serve ~slot ~dst:nshards); false
     with Invalid_argument _ -> true);
  let printed =
    Printexc.to_string (Serve.Migration_failed { slot = 3; reason = "x" })
  in
  check_bool "Migration_failed printer registered" true
    (let sub = "slot 3" in
     let n = String.length printed and m = String.length sub in
     let rec hit i = i + m <= n && (String.sub printed i m = sub || hit (i + 1)) in
     hit 0);
  Serve.stop serve

(* The rebalancer chases a forced hotspot: hammer two co-owned slots of
   shard 0, tick until the hysteresis fires, and the hot slots must land
   on another shard while every reply stays correct. *)
let test_rebalancer_moves_hot_slots () =
  let nshards = 2 in
  let t = build_serve_store ~nshards () in
  let serve = Serve.create ~batch_cap:8 ~adaptive:false t in
  let key_of = Spp_pmemkv.Db_bench.key_of_int in
  (* find keys owned by shard 0 *)
  let hot =
    List.filteri (fun i _ -> i < 4)
      (List.filter
         (fun k -> Shard.route t k = 0)
         (List.init 64 (fun i -> key_of i)))
  in
  List.iter
    (fun k ->
      ignore
        (Serve.await serve
           (Serve.submit serve (Serve.Put { key = k; value = "hot-" ^ k }))))
    hot;
  let cfg =
    { Rebalance.default_config with
      Rebalance.min_ops = 8; persist = 1; cooldown = 0 }
  in
  let rb = Rebalance.create ~cfg serve in
  let fired = ref 0 in
  for _tick = 1 to 6 do
    List.iter
      (fun k ->
        for _ = 1 to 16 do
          ignore (Serve.await serve (Serve.submit serve (Serve.Get k)))
        done)
      hot;
    fired := !fired + Rebalance.tick rb
  done;
  check_bool "rebalancer fired" true (!fired > 0);
  check_bool "a hot slot moved off shard 0" true
    (List.exists (fun k -> Shard.route t k <> 0) hot);
  List.iter
    (fun k ->
      Alcotest.(check (option string))
        "value survives the move" (Some ("hot-" ^ k)) (Shard.get t k))
    hot;
  let s = Rebalance.stats rb in
  check_int "stats count the ticks" 6 s.Rebalance.rb_ticks;
  check_bool "stats count the moves" true (s.Rebalance.rb_moves = !fired);
  Serve.stop serve

(* Reply-byte stability under the reusable per-worker drain buffers:
   distinct value lengths and bytes interleaved through one worker's
   batches must come back exact — a scratch buffer aliasing replies
   across a drain would corrupt earlier replies in the same batch. *)
let test_reply_bytes_unchanged () =
  let t = build_serve_store ~nshards:1 () in
  let serve = Serve.create ~batch_cap:32 ~adaptive:false t in
  let value i = String.init (1 + (i * 37 mod 300)) (fun j ->
    Char.chr (32 + ((i + j) mod 95)))
  in
  let n = 128 in
  for i = 0 to n - 1 do
    ignore (Serve.submit_to serve 0
              (Serve.Put { key = Printf.sprintf "rb-%03d" i; value = value i }))
  done;
  (* gets of every key plus full scans ride the same drains *)
  let gets =
    Array.init n (fun i ->
      Serve.submit_to serve 0 (Serve.Get (Printf.sprintf "rb-%03d" i)))
  in
  let scan_all =
    Serve.submit_to serve 0
      (Serve.Scan { lo = "rb-"; hi = "rb-999"; limit = 4096 })
  in
  let scan_limited =
    Serve.submit_to serve 0
      (Serve.Scan { lo = "rb-"; hi = "rb-999"; limit = 7 })
  in
  Array.iteri
    (fun i tk ->
      match Serve.await serve tk with
      | Serve.Value (Some v) ->
        check_bool (Printf.sprintf "get %d bytes exact" i) true (v = value i)
      | _ -> Alcotest.fail "get reply shape")
    gets;
  (match (Serve.await serve scan_all, Serve.await serve scan_limited) with
   | Serve.Scanned all, Serve.Scanned limited ->
     check_int "scan width" n (List.length all);
     List.iteri
       (fun i (k, v) ->
         check_bool "scan key exact" true (k = Printf.sprintf "rb-%03d" i);
         check_bool "scan value bytes exact" true (v = value i))
       all;
     Alcotest.(check (list (pair string string)))
       "limited scan = prefix of full scan, byte-equal"
       (List.filteri (fun i _ -> i < 7) all)
       limited
   | _ -> Alcotest.fail "scan reply shape");
  Serve.stop serve

(* --- Histogram properties (QCheck) ----------------------------------- *)

(* A histogram as the multiset of values fed into it: merge must be an
   exact elementwise sum (commutative, associative, order-invariant),
   and percentiles of any merge must stay conservative against the
   exact quantile of the combined multiset, monotone in p. *)

let gen_values = QCheck.(list_of_size Gen.(int_range 0 40) (int_bound 2_000_000))

let hist_of values =
  let h = Histogram.create () in
  List.iter (Histogram.add h) values;
  h

let full_state h =
  (Histogram.to_alist h, Histogram.count h, Histogram.max_value h,
   Histogram.mean h)

let qtest_merge_commutative =
  QCheck.Test.make ~name:"merge commutative" ~count:300
    QCheck.(pair gen_values gen_values)
    (fun (xs, ys) ->
      let a = hist_of xs and b = hist_of ys in
      full_state (Histogram.merge a b) = full_state (Histogram.merge b a))

let qtest_merge_associative =
  QCheck.Test.make ~name:"merge associative" ~count:300
    QCheck.(triple gen_values gen_values gen_values)
    (fun (xs, ys, zs) ->
      let a = hist_of xs and b = hist_of ys and c = hist_of zs in
      full_state (Histogram.merge (Histogram.merge a b) c)
      = full_state (Histogram.merge a (Histogram.merge b c)))

let exact_quantile values p =
  let arr = Array.of_list values in
  Array.sort compare arr;
  let n = Array.length arr in
  let rank =
    min (max (int_of_float (ceil (p /. 100. *. float_of_int n))) 1) n
  in
  arr.(rank - 1)

let qtest_percentiles_after_merges =
  (* fold a random list of value lists in two different merge orders:
     percentiles must agree between orders, sit at or above the exact
     quantile of the union, never exceed the exact maximum, and be
     monotone in p *)
  QCheck.Test.make ~name:"percentiles conservative after arbitrary merges"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 6) gen_values)
    (fun lists ->
      let all = List.concat lists in
      QCheck.assume (all <> []);
      let hs = List.map hist_of lists in
      let fwd =
        List.fold_left Histogram.merge (Histogram.create ()) hs
      in
      let rev =
        List.fold_left Histogram.merge (Histogram.create ()) (List.rev hs)
      in
      let ps = [ 1.; 25.; 50.; 90.; 95.; 99.; 100. ] in
      List.for_all
        (fun p ->
          Histogram.percentile fwd p = Histogram.percentile rev p)
        ps
      && List.for_all
           (fun p ->
             let est = Histogram.percentile fwd p in
             est >= exact_quantile all p && est <= Histogram.max_value fwd)
           ps
      && fst
           (List.fold_left
              (fun (ok, prev) p ->
                let v = Histogram.percentile fwd p in
                (ok && v >= prev, v))
              (true, 0) ps))

(* --- Worker failure propagation -------------------------------------- *)

(* An op that raises mid-batch must fail its drain's tickets with a
   typed [Op_raised] — not strand every later ticket in the mailbox —
   and the shard must keep serving afterwards. Driven for real: a pool
   small enough that big puts exhaust it ([Heap.Out_of_pm] escapes
   [run_batch]). *)
let test_worker_failure_propagation () =
  let t =
    Shard.create ~nbuckets:16 ~pool_size:(1 lsl 16) ~nshards:1 Spp_access.Spp
  in
  let serve = Serve.create ~batch_cap:4 t in
  let big = String.make 2048 'x' in
  let rec fill i =
    if i > 200 then Alcotest.fail "pool never filled"
    else
      match
        Serve.await serve
          (Serve.submit serve
             (Serve.Put { key = Printf.sprintf "big-%d" i; value = big }))
      with
      | Serve.Done -> fill (i + 1)
      | Serve.Failed (Serve.Op_raised msg) ->
        check_bool
          (Printf.sprintf "failure names the exception: %s" msg)
          true
          (String.length msg > 0);
        i
      | _ -> Alcotest.fail "unexpected reply while filling"
  in
  let failed_at = fill 0 in
  check_bool "needed several puts to fill the pool" true (failed_at > 0);
  (* the shard still serves: reads work, and freeing space lets a small
     put through on the same worker *)
  (match Serve.await serve (Serve.submit serve (Serve.Get "big-0")) with
   | Serve.Value (Some v) -> check_int "survivor intact" 2048 (String.length v)
   | _ -> Alcotest.fail "get after failure did not serve");
  (match Serve.await serve (Serve.submit serve (Serve.Remove "big-0")) with
   | Serve.Removed true -> ()
   | _ -> Alcotest.fail "remove after failure did not serve");
  (match
     Serve.await serve
       (Serve.submit serve (Serve.Put { key = "small"; value = "fits" }))
   with
   | Serve.Done -> ()
   | _ -> Alcotest.fail "put after free did not serve");
  Serve.stop serve;
  check_bool "failed tickets counted" true (Serve.total_failed serve >= 1)

(* A 256 KiB put cannot fit a 128 KiB pool: its batch raises. The
   sequential baseline answers the raising chunk as the pipeline answers
   the drain — every request [Failed] — instead of letting the
   exception escape. *)
let test_run_sequential_raising_chunk () =
  let build () =
    Shard.create ~nbuckets:16 ~pool_size:(1 lsl 17) ~nshards:1 Spp_access.Spp
  in
  let stream =
    [| Serve.Put { key = "a"; value = "1" };
       Serve.Put { key = "big"; value = String.make (1 lsl 18) 'x' };
       Serve.Get "a" |]
  in
  let seq = (Serve.run_sequential (build ()) ~batch_cap:4 [| stream |]).(0) in
  let serve =
    Serve.create ~batch_cap:4 ~adaptive:false (build ())
  in
  let tickets = Array.map (Serve.submit_to serve 0) stream in
  let par = Array.map (Serve.await serve) tickets in
  Serve.stop serve;
  Array.iter
    (function
      | Serve.Failed (Serve.Op_raised _) -> ()
      | r -> Alcotest.failf "pipeline answered %a" Serve.pp_reply r)
    par;
  check_int "reply digest" (Serve.digest_replies par) (Serve.digest_replies seq)

(* SafePM pads every block the pool hands out, on the synchronous path
   [Shard_bench.preload] takes as on the batch path that overwrites: an
   overwrite frees the preloaded entry by its oid, which must map back
   to its block. *)
let test_safepm_preloaded_overwrites () =
  let keys = 200 in
  let build () =
    let t =
      Shard.create ~nbuckets:64 ~pool_size:(1 lsl 22) ~nshards:1
        Spp_access.Safepm
    in
    Shard_bench.preload t ~keys;
    t
  in
  let overwrites =
    Array.init keys (fun i ->
      Serve.Put { key = Db_bench.key_of_int i; value = "overwritten" })
  in
  let all_done what =
    Array.iteri (fun i r ->
      if r <> Serve.Done then
        Alcotest.failf "%s: overwrite %d answered %a" what i Serve.pp_reply r)
  in
  all_done "run_sequential"
    (Serve.run_sequential (build ()) ~batch_cap:16 [| overwrites |]).(0);
  let t = build () in
  let serve = Serve.create ~batch_cap:16 t in
  all_done "Serve"
    (Array.map (fun req -> Serve.await serve (Serve.submit serve req))
       overwrites);
  Serve.stop serve;
  Array.iter
    (function
      | Serve.Put { key; value } ->
        Alcotest.(check (option string)) key (Some value) (Shard.get t key)
      | _ -> ())
    overwrites

(* --- Failover: kill + promote ---------------------------------------- *)

(* End-to-end: replicate through the pipeline, kill the primary's
   device, watch queued tickets fail typed, promote the replica on the
   worker, and keep serving every acked pre-kill op from the promoted
   stack. Inline sync replication keeps it deterministic. *)
let test_serve_kill_promote () =
  let t =
    Shard.create ~nbuckets:32 ~pool_size:(1 lsl 20) ~nshards:1 Spp_access.Spp
  in
  let cfg =
    { Replica.default_config with
      replicas = 2; policy = Replica.Sync; threaded = false }
  in
  let serve = Serve.create ~batch_cap:8 ~replication:cfg t in
  let key i = Printf.sprintf "key-%03d" i
  and value i = Printf.sprintf "value-%05d" i in
  for i = 1 to 50 do
    match
      Serve.await serve
        (Serve.submit serve (Serve.Put { key = key i; value = value i }))
    with
    | Serve.Done -> ()
    | _ -> Alcotest.fail "preload put failed"
  done;
  let rs = Serve.replication_stats serve in
  check_int "one group" 1 (List.length rs);
  let r0 = List.hd rs in
  check_int "both replicas live" 2 r0.Replica.rs_live;
  check_bool "commits shipped" true (r0.Replica.rs_seq > 0);
  check_int "sync acked everything shipped" r0.Replica.rs_seq
    r0.Replica.rs_acked_seq;
  (* kill the primary: stores silently discard from here on *)
  Spp_sim.Memdev.power_off
    (Spp_pmdk.Pool.dev (Shard.shard_access (Shard.shard t 0)).Spp_access.pool);
  (match
     Serve.await serve
       (Serve.submit serve (Serve.Put { key = "late"; value = "lost" }))
   with
   | Serve.Failed Serve.Failed_over -> ()
   | _ -> Alcotest.fail "put on dead primary not failed over");
  check_bool "shard marked failed" true (Serve.shard_failed serve 0);
  (* everything queued before promotion keeps failing typed, not hanging *)
  (match
     Serve.await serve (Serve.submit serve (Serve.Get (key 1)))
   with
   | Serve.Failed Serve.Failed_over -> ()
   | _ -> Alcotest.fail "get on dead primary not failed over");
  let p = Serve.promote serve 0 in
  check_int "promotions counted" 1 (Serve.promotions serve);
  check_bool "shard serving again" true (not (Serve.shard_failed serve 0));
  check_bool "sealed prefix covers the acked ops" true
    (p.Replica.pr_ops >= 50);
  (* every acked op survives the failover on the promoted stack *)
  for i = 1 to 50 do
    match Serve.await serve (Serve.submit serve (Serve.Get (key i))) with
    | Serve.Value (Some v) when v = value i -> ()
    | _ -> Alcotest.fail (Printf.sprintf "acked op %d lost in failover" i)
  done;
  (* the unacked post-kill put is gone — its ticket said so *)
  (match Serve.await serve (Serve.submit serve (Serve.Get "late")) with
   | Serve.Value None -> ()
   | _ -> Alcotest.fail "unacked op resurrected");
  (* and the promoted stack accepts new writes *)
  (match
     Serve.await serve
       (Serve.submit serve (Serve.Put { key = "after"; value = "alive" }))
   with
   | Serve.Done -> ()
   | _ -> Alcotest.fail "put after promotion failed");
  (match Serve.promote serve 0 with
   | exception Replica.Promotion_failed _ -> ()
   | _ -> Alcotest.fail "second promotion not rejected");
  Serve.stop serve;
  check_bool "failed tickets counted" true (Serve.total_failed serve >= 2)

(* Replication must not read the primary's PM. One seeded stream of
   batches runs on a replicated and on an unreplicated single-shard
   store: fresh puts (virgin carves on a new pool), overwrites of the
   same and of another size class (freelist reuse), removes and gets.
   The primary's PM loads must be equal on both. The promoted replica
   must then hold the primary's image byte for byte, which also checks
   that staged words inside a fresh block's blob land after it. *)
let replicated_stream engine ~replicated =
  let t =
    Shard.create ~engine ~nbuckets:16 ~pool_size:(1 lsl 20) ~nshards:1
      Spp_access.Spp
  in
  let s = Shard.shard t 0 in
  let pool = (Shard.shard_access s).Spp_access.pool in
  let group =
    if replicated then
      Some
        (Replica.create
           ~cfg:
             { Replica.default_config with
               policy = Replica.Sync; threaded = false }
           ~engine ~shard:0 pool)
    else None
  in
  let used () = (Spp_pmdk.Pool.heap_stats pool).Spp_pmdk.Heap.heap_used in
  let used0 = used () in
  Shard.reset_stats t;
  let st = Random.State.make [| 0x5EED |] in
  for _ = 1 to 200 do
    let ops =
      Array.init (1 + Random.State.int st 6) (fun _ ->
        let key = Printf.sprintf "key-%02d" (Random.State.int st 48) in
        match Random.State.int st 8 with
        | 0 | 1 | 2 | 3 ->
          let value = String.make (8 + (60 * Random.State.int st 3)) 'v' in
          Engine.B_put { key; value }
        | 4 | 5 -> Engine.B_remove key
        | _ -> Engine.B_get key)
    in
    ignore (Engine.run_batch (Shard.shard_kv s) ops)
  done;
  check_bool "the stream carved virgin blocks" true (used () > used0);
  ((Shard.merged_stats t).Spp_sim.Space.pm_bytes_loaded, pool, group)

let test_replication_reads_no_pm () =
  List.iter
    (fun engine ->
      let name = Engine.spec_name engine in
      let plain, _, _ = replicated_stream engine ~replicated:false in
      let loaded, primary, group = replicated_stream engine ~replicated:true in
      check_int (name ^ ": primary PM bytes loaded, replicated = unreplicated")
        plain loaded;
      let p = Replica.promote (Option.get group) in
      let image pool =
        Spp_sim.Memdev.durable_snapshot (Spp_pmdk.Pool.dev pool)
      in
      let a = image primary and b = image p.Replica.pr_access.Spp_access.pool in
      let first_diff =
        let rec go i =
          if i >= Bytes.length a then -1
          else if Bytes.get a i <> Bytes.get b i then i
          else go (i + 1)
        in
        go 0
      in
      check_int (name ^ ": first byte where the promoted replica differs")
        (-1) first_diff)
    [ Engines.cmap; Engines.btree ]

(* Threaded appliers + semi-sync acks under concurrent submitters, with
   a planned (no-kill) switchover at the end: the promoted stack must
   hold every acked key. *)
let test_serve_threaded_replication () =
  let nshards = 2 in
  let t =
    Shard.create ~nbuckets:64 ~pool_size:(1 lsl 21) ~nshards Spp_access.Spp
  in
  let cfg =
    { Replica.default_config with
      replicas = 1; policy = Replica.Semi_sync; threaded = true }
  in
  let serve = Serve.create ~batch_cap:8 ~replication:cfg t in
  let key i = Printf.sprintf "key-%03d" i in
  let doms =
    Array.init 2 (fun d ->
      Domain.spawn (fun () ->
        for i = 0 to 99 do
          if i mod 2 = d then
            ignore
              (Serve.await serve
                 (Serve.submit serve
                    (Serve.Put { key = key i; value = string_of_int i })))
        done))
  in
  Array.iter Domain.join doms;
  (* planned switchover of shard 0 to its replica *)
  let p = Serve.promote serve 0 in
  check_int "switched the requested shard" 0 p.Replica.pr_shard;
  for i = 0 to 99 do
    match Serve.await serve (Serve.submit serve (Serve.Get (key i))) with
    | Serve.Value (Some v) when v = string_of_int i -> ()
    | _ -> Alcotest.fail (Printf.sprintf "key %d lost across switchover" i)
  done;
  Serve.stop serve;
  check_int "no ticket failed" 0 (Serve.total_failed serve);
  let lag = Serve.replication_lag serve in
  check_bool "lag recorded per commit" true (Histogram.count lag > 0);
  (* promote on the unreplicated... both shards are replicated; an
     out-of-range index is rejected, as is promoting after stop *)
  (match Serve.promote serve 5 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "out-of-range promote not rejected")

let test_replication_exn_printers () =
  let printed ex needle =
    let s = Printexc.to_string ex in
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "Promotion_failed printer" true
    (printed
       (Replica.Promotion_failed { shard = 3; reason = "no quorum" })
       "shard 3: no quorum");
  check_bool "Not_replicated printer" true
    (printed (Serve.Not_replicated 2) "shard 2")

let () =
  Alcotest.run "spp_serve"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_histogram_buckets;
          Alcotest.test_case "percentiles conservative + monotone" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "merge associative" `Quick test_histogram_merge;
          Alcotest.test_case "count and mean (incl. empty)" `Quick
            test_histogram_mean;
          QCheck_alcotest.to_alcotest qtest_merge_commutative;
          QCheck_alcotest.to_alcotest qtest_merge_associative;
          QCheck_alcotest.to_alcotest qtest_percentiles_after_merges;
        ] );
      ( "run_batch",
        [
          Alcotest.test_case "vs model oracle (both variants)" `Quick
            test_run_batch_oracle;
          Alcotest.test_case "within-batch visibility" `Quick
            test_run_batch_within_batch_visibility;
          Alcotest.test_case "crash between batches" `Quick
            test_run_batch_crash_between_batches;
        ] );
      ( "amortization",
        [
          Alcotest.test_case "cap 32 <= 1/4 fences of cap 1 (cmap engine)"
            `Quick test_fence_amortization;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "async serve vs model" `Quick
            test_serve_pipeline_oracle;
          Alcotest.test_case "async = sequential differential (btree)" `Quick
            test_serve_differential_btree;
          Alcotest.test_case "async = sequential differential" `Quick
            test_serve_differential;
          Alcotest.test_case
            "a drain takes everything queued, up to batch_cap" `Quick
            test_serve_drain_backlog;
        ] );
      ( "inline",
        [
          Alcotest.test_case "idle shard: op runs on the submitter" `Quick
            test_inline_idle_shard;
          Alcotest.test_case "held shard: others queue, holder keeps order"
            `Quick test_inline_held_shard;
          Alcotest.test_case "a queued put is never overtaken" `Quick
            test_inline_no_overtaking;
          Alcotest.test_case "4 domains on 2 shards match their models"
            `Quick test_inline_contention;
          Alcotest.test_case "threaded semi-sync keeps the op on the submitter"
            `Quick test_inline_replication;
        ] );
      ( "holders",
        [
          Alcotest.test_case "16 shards start no thread" `Quick
            test_no_threads_started;
          Alcotest.test_case "256 shards = sequential" `Quick
            test_many_shards;
          Alcotest.test_case "notify-only requests across moves" `Quick
            test_notify_only_across_moves;
        ] );
      ( "read cache",
        [
          Alcotest.test_case "cache-on = cache-off differential (btree)"
            `Quick test_cache_sequential_differential_btree;
          Alcotest.test_case "scan scatter-gather API (both engines)" `Quick
            test_serve_scan_api;
          Alcotest.test_case "cache-on = cache-off differential" `Quick
            test_cache_sequential_differential;
          Alcotest.test_case "use_cache:false takes the PM path" `Quick
            test_run_sequential_use_cache_off;
          Alcotest.test_case "bypass fast path + read-your-writes" `Quick
            test_serve_bypass_fast_path;
          Alcotest.test_case "deterministic mode ignores the cache" `Quick
            test_cache_deterministic_mode;
        ] );
      ( "migration",
        [
          Alcotest.test_case "migration = static differential" `Quick
            test_migration_differential;
          Alcotest.test_case "migration = static differential (btree)"
            `Quick test_migration_differential_btree;
          Alcotest.test_case "report, no-op, scan exactly-once" `Quick
            test_migration_report_and_scan;
          Alcotest.test_case "rebalancer chases a hotspot" `Quick
            test_rebalancer_moves_hot_slots;
          Alcotest.test_case "reply bytes exact through drain buffers"
            `Quick test_reply_bytes_unchanged;
        ] );
      ( "failure propagation",
        [
          Alcotest.test_case "raising op fails its drain, shard survives"
            `Quick test_worker_failure_propagation;
          Alcotest.test_case "exception printers registered" `Quick
            test_replication_exn_printers;
          Alcotest.test_case "run_sequential fails a raising chunk" `Quick
            test_run_sequential_raising_chunk;
          Alcotest.test_case "safepm: preloaded keys overwrite" `Quick
            test_safepm_preloaded_overwrites;
        ] );
      ( "failover",
        [
          Alcotest.test_case "kill primary, fail typed, promote, serve"
            `Quick test_serve_kill_promote;
          Alcotest.test_case "threaded semi-sync + planned switchover"
            `Quick test_serve_threaded_replication;
          Alcotest.test_case "replication reads no PM, replica identical"
            `Quick test_replication_reads_no_pm;
        ] );
      ( "pm traffic budget",
        [
          Alcotest.test_case "cmap overwrite: 408 B, 3 redo words" `Quick
            test_overwrite_traffic;
          Alcotest.test_case "YCSB-A stream within PM budgets" `Quick
            test_stream_traffic_budgets;
        ] );
    ]
