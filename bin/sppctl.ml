(* sppctl — command-line driver for the SPP reproduction.

   Subcommands:
     info      show an SPP pointer-encoding configuration
     decode    decode a (simulated) tagged pointer value
     attack    run the RIPE attack matrix for one variant or all
     index     drive a persistent index and report timing + space
     check     run an index workload under the pmemcheck trace checker
     explore   pmreorder-style crash-state exploration of an index op
     torture   systematic crash-point enumeration with media faults
     serve     drive the async batched serving pipeline (group commit),
               or expose it on a socket with --listen
     failover  kill a shard's primary mid-run and promote its replica
     netbench  YCSB suite over the wire front end, open- or closed-loop *)

open Cmdliner

let tag_bits_arg =
  let doc = "Tag width in bits (paper default: 26; Phoenix runs use 31)." in
  Arg.(value & opt int 26 & info [ "tag-bits" ] ~docv:"BITS" ~doc)

let variant_conv =
  let parse s =
    match s with
    | "pmdk" -> Ok Spp_access.Pmdk
    | "spp" -> Ok Spp_access.Spp
    | "safepm" -> Ok Spp_access.Safepm
    | "memcheck" -> Ok Spp_access.Memcheck
    | _ -> Error (`Msg "expected pmdk | spp | safepm | memcheck")
  in
  Arg.conv (parse, fun ppf v ->
    Format.pp_print_string ppf (Spp_access.variant_name v))

let variant_arg =
  let doc = "Benchmarking variant (pmdk, spp, safepm, memcheck)." in
  Arg.(value & opt variant_conv Spp_access.Spp
       & info [ "variant" ] ~docv:"VARIANT" ~doc)

let engine_conv =
  let parse s =
    match Spp_pmemkv.Engines.of_name s with
    | Some e -> Ok e
    | None -> Error (`Msg "expected cmap | btree")
  in
  Arg.conv (parse, fun ppf e ->
    Format.pp_print_string ppf (Spp_pmemkv.Engine.spec_name e))

let engine_arg =
  let doc =
    "KV engine behind the shards: cmap (concurrent hashmap, O(n) scans) \
     or btree (ordered COW B-tree, O(log n + k) scans)."
  in
  Arg.(value & opt engine_conv Spp_pmemkv.Engines.cmap
       & info [ "engine" ] ~docv:"ENGINE" ~doc)

let shards_arg ~doc =
  Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N" ~doc)

let ack_policy_arg =
  let doc =
    "Replication ack policy: async (acknowledge immediately), \
     semi-sync (wait for one replica to apply), or sync (wait for \
     every live replica)."
  in
  let policies =
    Spp_shard.Replica.
      [ ("async", Async); ("semi-sync", Semi_sync); ("semi_sync", Semi_sync);
        ("semisync", Semi_sync); ("sync", Sync) ]
  in
  Arg.(value & opt (enum policies) Spp_shard.Replica.Semi_sync
       & info [ "ack-policy" ] ~absent:"semi-sync" ~docv:"POLICY" ~doc)

(* info *)

let info_cmd =
  let run tag_bits =
    let cfg = Spp_core.Config.make ~tag_bits in
    Format.printf "%a@." Spp_core.Config.pp cfg
  in
  Cmd.v (Cmd.info "info" ~doc:"Show an SPP pointer-encoding configuration")
    Term.(const run $ tag_bits_arg)

(* decode *)

let decode_cmd =
  let ptr_arg =
    let doc = "Pointer value (accepts 0x-prefixed hex)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PTR" ~doc)
  in
  let run tag_bits ptr_str =
    let cfg = Spp_core.Config.make ~tag_bits in
    let ptr = int_of_string ptr_str in
    Format.printf "%a@." (Spp_core.Encoding.pp cfg) ptr;
    if Spp_core.Encoding.is_pm cfg ptr then
      Format.printf "remaining bytes before upper bound: %d@."
        (Spp_core.Encoding.remaining cfg ptr)
  in
  Cmd.v (Cmd.info "decode" ~doc:"Decode a simulated tagged pointer")
    Term.(const run $ tag_bits_arg $ ptr_arg)

(* attack *)

let attack_cmd =
  let all_arg =
    let doc = "Run all five Table IV rows instead of a single variant." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let verbose_arg =
    let doc = "Print the outcome of every individual attack." in
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc)
  in
  let print_row verbose r =
    Printf.printf "%-14s successful=%2d prevented=%2d failed=%2d\n"
      r.Spp_ripe.Ripe.row_name r.Spp_ripe.Ripe.successful
      r.Spp_ripe.Ripe.prevented r.Spp_ripe.Ripe.failed;
    if verbose then
      List.iter
        (fun (at, o) ->
          Printf.printf "    %-28s %s\n"
            (Spp_ripe.Ripe.attack_name at)
            (Spp_ripe.Ripe.outcome_name o))
        r.Spp_ripe.Ripe.details
  in
  let run all verbose variant =
    if all then List.iter (print_row verbose) (Spp_ripe.Ripe.run_all ())
    else print_row verbose (Spp_ripe.Ripe.run_row variant)
  in
  Cmd.v (Cmd.info "attack" ~doc:"Run the RIPE buffer-overflow attack matrix")
    Term.(const run $ all_arg $ verbose_arg $ variant_arg)

(* index *)

let index_name_arg =
  let doc = "Index: ctree, rbtree, rtree, hashmap_tx or btree." in
  Arg.(value & opt string "ctree" & info [ "name" ] ~docv:"INDEX" ~doc)

let ops_arg =
  let doc = "Number of operations." in
  Arg.(value & opt int 10_000 & info [ "ops" ] ~docv:"N" ~doc)

let index_cmd =
  let run variant index_name ops =
    let pool_size = if index_name = "rtree" then 1 lsl 27 else 1 lsl 26 in
    let a = Spp_access.create ~pool_size ~name:index_name variant in
    let ix = Spp_indices.Indices.create index_name a in
    let ks = Spp_benchlib.Bench_util.keys ~seed:1 ~universe:(4 * ops) ops in
    let t_ins, () =
      Spp_benchlib.Bench_util.time (fun () ->
        Array.iter (fun k -> ix.Spp_indices.Indices.insert ~key:k ~value:k) ks)
    in
    let t_get, () =
      Spp_benchlib.Bench_util.time (fun () ->
        Array.iter (fun k -> ignore (ix.Spp_indices.Indices.get k)) ks)
    in
    let st = Spp_pmdk.Pool.heap_stats a.Spp_access.pool in
    Printf.printf
      "%s on %s: %d inserts in %.3f s (%.0f op/s), %d gets in %.3f s (%.0f \
       op/s)\n"
      index_name (Spp_access.variant_name variant) ops t_ins
      (float_of_int ops /. t_ins)
      ops t_get
      (float_of_int ops /. t_get);
    Printf.printf "heap: %d live blocks, %s allocated (%s requested)\n"
      st.Spp_pmdk.Heap.allocated_blocks
      (Spp_benchlib.Bench_util.fmt_mb st.Spp_pmdk.Heap.allocated_bytes)
      (Spp_benchlib.Bench_util.fmt_mb st.Spp_pmdk.Heap.requested_bytes)
  in
  Cmd.v (Cmd.info "index" ~doc:"Drive a persistent index")
    Term.(const run $ variant_arg $ index_name_arg $ ops_arg)

(* check *)

let check_cmd =
  let run variant index_name ops =
    let pool_size = if index_name = "rtree" then 1 lsl 27 else 1 lsl 26 in
    let a = Spp_access.create ~pool_size ~name:index_name variant in
    let ix = Spp_indices.Indices.create index_name a in
    let (), report =
      Spp_pmemcheck.Pmemcheck.check_run a.Spp_access.pool (fun () ->
        for k = 1 to ops do
          ix.Spp_indices.Indices.insert ~key:k ~value:k
        done)
    in
    Format.printf "pmemcheck %s/%s: %a [%s]@." index_name
      (Spp_access.variant_name variant)
      Spp_pmemcheck.Pmemcheck.pp_report report
      (if Spp_pmemcheck.Pmemcheck.is_clean report then "CLEAN"
       else "VIOLATIONS")
  in
  let small_ops =
    Arg.(value & opt int 500 & info [ "ops" ] ~docv:"N" ~doc:"Operations.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run an index workload under the pmemcheck trace checker")
    Term.(const run $ variant_arg $ index_name_arg $ small_ops)

(* pool: pmempool-style info / check / save / open *)

let pool_demo_cmd =
  let save_arg =
    let doc = "Save the pool's durable image to this file." in
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)
  in
  let run variant index_name ops save =
    let pool_size = if index_name = "rtree" then 1 lsl 27 else 1 lsl 24 in
    let a = Spp_access.create ~pool_size ~name:index_name variant in
    let ix = Spp_indices.Indices.create index_name a in
    for k = 1 to ops do
      ix.Spp_indices.Indices.insert ~key:k ~value:(k * 3)
    done;
    for k = 1 to ops / 2 do
      ignore (ix.Spp_indices.Indices.remove k)
    done;
    Format.printf "%a@." Spp_pmdk.Inspect.pp_info
      (Spp_pmdk.Inspect.info a.Spp_access.pool);
    (match Spp_pmdk.Inspect.check a.Spp_access.pool with
     | [] -> print_endline "integrity check: OK"
     | issues ->
       List.iter
         (fun i -> print_endline ("ISSUE: " ^ Spp_pmdk.Inspect.issue_to_string i))
         issues);
    match save with
    | None -> ()
    | Some path ->
      Spp_sim.Memdev.save_durable (Spp_pmdk.Pool.dev a.Spp_access.pool) path;
      Printf.printf "saved durable image to %s\n" path
  in
  Cmd.v
    (Cmd.info "pool-demo"
       ~doc:"Populate a pool with an index workload, then inspect and check it")
    Term.(const run $ variant_arg $ index_name_arg $ ops_arg $ save_arg)

let pool_open_cmd =
  let file_arg =
    let doc = "Pool image file (from pool-demo --save)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run path =
    let dev =
      try
        Spp_sim.Memdev.load_durable ~name:(Filename.basename path)
          ~min_size:Spp_pmdk.Pool.min_pool_size
          ~magic:Spp_pmdk.Pool.magic_word path
      with Invalid_argument msg ->
        prerr_endline ("not a pool image: " ^ msg);
        exit 1
    in
    let space = Spp_sim.Space.create () in
    match Spp_pmdk.Pool.open_dev space ~base:4096 dev with
    | Error e ->
      Format.eprintf "corrupt pool: %a@." Spp_pmdk.Pool.pp_pool_error e;
      exit 1
    | Ok (pool, _report) ->
      Format.printf "%a@." Spp_pmdk.Inspect.pp_info
        (Spp_pmdk.Inspect.info pool);
      (match Spp_pmdk.Inspect.check pool with
       | [] -> print_endline "integrity check: OK"
       | issues ->
         List.iter
           (fun i ->
             print_endline ("ISSUE: " ^ Spp_pmdk.Inspect.issue_to_string i))
           issues;
         exit 1)
  in
  Cmd.v
    (Cmd.info "pool-open"
       ~doc:"Open a saved pool image, run recovery, inspect and check it")
    Term.(const run $ file_arg)

(* explore *)

let explore_cmd =
  let run variant =
    let a = Spp_access.create ~pool_size:(1 lsl 20) ~name:"explore" variant in
    let t = Spp_indices.Hashmap_tx.create a in
    Spp_indices.Hashmap_tx.insert t ~key:1 ~value:10;
    let map_off = (Spp_indices.Hashmap_tx.map_oid_of t).Spp_pmdk.Oid.off in
    let consistent pool' =
      let count = Spp_pmdk.Pool.load_word pool' ~off:map_off in
      count = 1 || count = 2
    in
    let result =
      Spp_pmemcheck.Pmreorder.explore ~pool:a.Spp_access.pool
        ~workload:(fun () -> Spp_indices.Hashmap_tx.insert t ~key:2 ~value:20)
        ~consistent ()
    in
    Format.printf "pmreorder hashmap_tx/%s: %a@."
      (Spp_access.variant_name variant)
      Spp_pmemcheck.Pmreorder.pp_result result
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Explore crash states of a transactional index insert")
    Term.(const run $ variant_arg)

(* torture *)

let torture_cmd =
  let workload_arg =
    let doc =
      "Workload to torture: kvstore, pmemlog, counter, kvbatch \
       (group-committed multi-put), kvfailover (replicated batch with \
       promotion differential), kvfailover-drop (same over a lossy \
       channel), kvscan (interleaved puts/removes/ordered scans with a \
       whole-op-prefix snapshot oracle), kvscan-btree (kvscan pinned to \
       the B-tree engine), kvreshard (slot migration copy/claim/delete \
       with a single-owner oracle), kvreshard-btree, or all. kvfailover, \
       kvscan and kvreshard honor --engine."
    in
    Arg.(value & opt string "all" & info [ "workload" ] ~docv:"NAME" ~doc)
  in
  let budget_arg =
    let doc =
      "Maximum crash points per workload; events beyond it are sampled \
       at a uniform stride (default: enumerate every event)."
    in
    Arg.(value & opt int max_int & info [ "budget" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Seed for torn-write subsets and bit-flip placement." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let torn_arg =
    let doc =
      "Torn crashes: a seeded subset of the unfenced stores reaches the \
       media at each crash (cache-eviction reordering)."
    in
    Arg.(value & flag & info [ "torn" ] ~doc)
  in
  let bitflips_arg =
    let doc =
      "Flip this many seeded random bits in the durable image after each \
       crash (media rot); typed open rejections then count as graceful."
    in
    Arg.(value & opt int 0 & info [ "bitflips" ] ~docv:"N" ~doc)
  in
  let tops_arg =
    let doc = "Operations per workload run." in
    Arg.(value & opt int 24 & info [ "ops" ] ~docv:"N" ~doc)
  in
  let run variant engine workload budget seed torn bitflips ops =
    let open Spp_torture in
    let faults = { Torture.torn; bitflips } in
    let workloads =
      match workload with
      | "all" -> Workloads.all ~variant ~ops ~engine ()
      | name ->
        (match Workloads.by_name ~variant ~ops ~engine name with
         | Some w -> [ w ]
         | None ->
           prerr_endline
             ("unknown workload " ^ name
              ^ " (expected kvstore | pmemlog | counter | kvbatch | \
                 kvfailover | kvfailover-drop | kvscan | kvscan-btree | \
                 kvreshard | kvreshard-btree | all)");
           exit 2)
    in
    let failed = ref false in
    List.iter
      (fun w ->
        let r = Torture.run ~budget ~seed ~faults w in
        Format.printf "%a@." Torture.pp_report r;
        if r.Torture.r_invariant_failures > 0 then failed := true)
      workloads;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "torture"
       ~doc:
         "Enumerate crash points of a recovery workload: replay it once \
          per durability event, cut the power there, reopen, recover, \
          and check the acknowledgement invariant")
    Term.(const run $ variant_arg $ engine_arg $ workload_arg $ budget_arg
          $ seed_arg $ torn_arg $ bitflips_arg $ tops_arg)

(* serve *)

let serve_cmd =
  let batch_cap_arg =
    let doc = "Maximum requests drained into one group-committed batch." in
    Arg.(value & opt int 32 & info [ "batch-cap" ] ~docv:"N" ~doc)
  in
  let serve_ops_arg =
    let doc = "Synthetic requests to submit (3:1 put:get over 512 keys)." in
    Arg.(value & opt int 10_000 & info [ "ops" ] ~docv:"N" ~doc)
  in
  let window_arg =
    let doc =
      "Submission window: outstanding requests kept in flight. A \
       request that finds its shard idle runs at once as a one-op \
       batch, so a lone submitter commits op by op whatever the window; \
       batches form only when requests queue behind a shard another \
       domain holds."
    in
    Arg.(value & opt int 64 & info [ "window" ] ~docv:"N" ~doc)
  in
  let cache_cap_arg =
    let doc =
      "Per-shard DRAM read-cache entries. A get hitting the cache is \
       answered on the submitting thread without entering the shard's \
       queue. 0 disables the cache."
    in
    Arg.(value & opt int 4096 & info [ "cache-cap" ] ~docv:"N" ~doc)
  in
  let replicas_arg =
    let doc =
      "Warm replica stacks per shard. 0 disables replication; with N > \
       0 every group-committed batch is shipped to N standbys and the \
       batch's tickets are acknowledged per --ack-policy."
    in
    Arg.(value & opt int 0 & info [ "replicas" ] ~docv:"N" ~doc)
  in
  let slots_arg =
    let doc =
      "Slot-space size for the versioned slot router (a power of two; \
       0 keeps the default). Every key hashes to one slot and slots — \
       not keys — are what migrate between shards."
    in
    Arg.(value & opt int 0 & info [ "slots" ] ~docv:"N" ~doc)
  in
  let rebalance_arg =
    let doc =
      "Run the hot-slot rebalancer: every 512 submissions it compares \
       per-shard load (owned-slot op deltas plus queue depths) and \
       live-migrates hot slots from the hottest shard to the coldest \
       (default hysteresis)."
    in
    Arg.(value & flag & info [ "rebalance" ] ~doc)
  in
  let zipf_arg =
    let doc =
      "Zipfian skew of the synthetic key stream, in (0, 1); 0 keeps it \
       uniform. Skewed streams give --rebalance hotspots to chase."
    in
    Arg.(value & opt float 0. & info [ "zipf" ] ~docv:"THETA" ~doc)
  in
  let stats_table_arg =
    let doc =
      "Print a per-shard table after the run: executed ops, peak queue \
       depth, read-cache hit rate and owned-slot count."
    in
    Arg.(value & flag & info [ "stats-table" ] ~doc)
  in
  let listen_arg =
    let doc =
      "Expose the pipeline on a socket (unix:PATH, PORT for loopback \
       TCP, or HOST:PORT) and serve the wire protocol until killed, \
       instead of driving synthetic load. Drive it with `sppctl \
       netbench --connect ADDR`. The synthetic-load flags (--ops, \
       --window, --zipf, --rebalance, --stats-table) are ignored."
    in
    Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let run variant engine nshards batch_cap ops window cache_cap replicas
      policy slots rebalance zipf stats_table listen =
    let open Spp_shard in
    let open Spp_benchlib in
    let nshards = max 1 nshards and window = max 1 window in
    let cache_cap = max 0 cache_cap in
    let replication =
      if replicas <= 0 then None
      else Some { Replica.default_config with replicas; policy }
    in
    let t =
      if slots > 0 then
        Shard.create ~nbuckets:512 ~pool_size:(1 lsl 24) ~cache_cap ~engine
          ~nslots:slots ~nshards variant
      else
        Shard.create ~nbuckets:512 ~pool_size:(1 lsl 24) ~cache_cap ~engine
          ~nshards variant
    in
    for i = 0 to nshards - 1 do
      Spp_sim.Memdev.set_tracking
        (Spp_pmdk.Pool.dev (Shard.shard_access (Shard.shard t i)).Spp_access.pool)
        true
    done;
    Shard.reset_stats t;
    let sv = Serve.create ~batch_cap ?replication t in
    match listen with
    | Some addrstr ->
      let srv =
        Spp_net.Net_server.create sv (Spp_net.Net_server.parse_addr addrstr)
      in
      Format.printf "serving %d shard(s) (%s, %s engine) on %a@." nshards
        (Spp_access.variant_name variant)
        (Shard.engine_name t) Spp_net.Net_server.pp_addr
        (Spp_net.Net_server.addr srv);
      Format.printf
        "wire protocol: u32le length-prefixed frames (lib/net/wire.mli); \
         drive with `sppctl netbench --connect %s`; Ctrl-C stops@."
        addrstr;
      while true do
        Unix.sleep 3600
      done
    | None ->
    let rb = if rebalance then Some (Rebalance.create sv) else None in
    let st = Random.State.make [| 0x5E12 |] in
    let next_key =
      if zipf > 0. then begin
        let gen =
          Keygen.zipfian ~theta:zipf ~seed:0x5E12 ~universe:512 ()
        in
        fun () -> Keygen.next gen
      end
      else fun () -> Random.State.int st 512
    in
    let value = String.make 256 'v' in
    let q = Queue.create () in
    let t0 = Bench_util.now_mono () in
    for n = 1 to ops do
      if Queue.length q >= window then ignore (Serve.await sv (Queue.pop q));
      let key = Printf.sprintf "key-%04d" (next_key ()) in
      let req =
        if Random.State.int st 4 = 3 then Serve.Get key
        else Serve.Put { key; value }
      in
      Queue.push (Serve.submit sv req) q;
      match rb with
      | Some rb when n mod 512 = 0 -> ignore (Rebalance.tick rb)
      | _ -> ()
    done;
    Queue.iter (fun tk -> ignore (Serve.await sv tk)) q;
    let wall = Bench_util.now_mono () -. t0 in
    Serve.stop sv;
    Printf.printf
      "%d requests on %d shard(s), batch cap %d, window %d (%s, %s \
       engine): %.3f s (%.0f op/s)\n"
      ops nshards batch_cap window (Spp_access.variant_name variant)
      (Shard.engine_name t) wall
      (float_of_int ops /. Float.max wall 1e-9);
    let batches = max 1 (Serve.total_batches sv) in
    Printf.printf "batches: %d (avg %.1f ops/batch)\n" batches
      (float_of_int ops /. float_of_int batches);
    Array.iter
      (fun s ->
        Printf.printf
          "  shard %d: %d ops in %d batches (largest %d), p50 %s\n"
          s.Serve.ss_shard s.Serve.ss_ops s.Serve.ss_batches
          s.Serve.ss_max_batch
          (Bench_util.fmt_lat_ns (Histogram.percentile s.Serve.ss_hist 50.)))
      (Serve.stats sv);
    let h = Serve.merged_hist sv in
    Printf.printf
      "latency: p50 %s, p95 %s, p99 %s, max %s\n"
      (Bench_util.fmt_lat_ns (Histogram.p50 h))
      (Bench_util.fmt_lat_ns (Histogram.p95 h))
      (Bench_util.fmt_lat_ns (Histogram.p99 h))
      (Bench_util.fmt_lat_ns (Histogram.max_value h));
    let c = Shard.merged_counters t in
    Printf.printf
      "merged counters: %d stores, %d flushes, %d fences (%.3f fences/op), \
       %d batched ops, %d fences saved by group commit\n"
      c.Spp_sim.Memdev.stores c.Spp_sim.Memdev.flushes c.Spp_sim.Memdev.fences
      (float_of_int c.Spp_sim.Memdev.fences /. float_of_int ops)
      c.Spp_sim.Memdev.batched_ops c.Spp_sim.Memdev.fences_saved;
    if Shard.cache_enabled t then begin
      let rc = Shard.merged_cache_stats t in
      Format.printf "read cache (%d entries/shard): %a, %d bypassed gets@."
        cache_cap Spp_pmemkv.Rcache.pp_stats rc (Serve.bypassed_gets sv)
    end
    else print_endline "read cache: disabled";
    (match rb with
     | Some rb ->
       let s = Rebalance.stats rb in
       Printf.printf
         "rebalancer: %d ticks (%d armed), %d slot moves, %d keys \
          migrated, %d requests forwarded\n"
         s.Rebalance.rb_ticks s.Rebalance.rb_armed s.Rebalance.rb_moves
         s.Rebalance.rb_keys_moved (Serve.forwarded sv)
     | None -> ());
    if stats_table then begin
      let ops_c = Serve.ops_counts sv in
      let peaks = Serve.peak_queue_depths sv in
      Printf.printf "%-6s %-10s %-8s %-10s %s\n"
        "shard" "ops" "peak-q" "cache-hit" "slots";
      for i = 0 to nshards - 1 do
        let hit =
          match Spp_pmemkv.Engine.cache (Shard.shard_kv (Shard.shard t i)) with
          | Some rc ->
            let s = Spp_pmemkv.Rcache.stats rc in
            let probes =
              s.Spp_pmemkv.Rcache.rc_hits + s.Spp_pmemkv.Rcache.rc_misses
            in
            if probes = 0 then "-"
            else
              Printf.sprintf "%.1f%%"
                (100.
                 *. float_of_int s.Spp_pmemkv.Rcache.rc_hits
                 /. float_of_int probes)
          | None -> "-"
        in
        Printf.printf "%-6d %-10d %-8d %-10s %d\n" i ops_c.(i) peaks.(i)
          hit
          (Shard.owned_slots t i)
      done
    end;
    (match Serve.replication_stats sv with
    | [] -> ()
    | rs ->
      List.iter
        (fun s ->
          Printf.printf
            "  replication shard %d: %d/%d replicas live, %d commits \
             shipped (%d ops), acked through %d, %d retries, %d degraded \
             acks\n"
            s.Replica.rs_shard s.Replica.rs_live s.Replica.rs_replicas
            s.Replica.rs_seq s.Replica.rs_ops s.Replica.rs_acked_seq
            s.Replica.rs_retries s.Replica.rs_degraded_acks)
        rs;
      let lag = Serve.replication_lag sv in
      if Histogram.count lag > 0 then
        Printf.printf
          "replication lag (%s): p50 %s, p99 %s over %d commits\n"
          (Replica.ack_policy_to_string policy)
          (Bench_util.fmt_lat_ns (Histogram.p50 lag))
          (Bench_util.fmt_lat_ns (Histogram.p99 lag))
          (Histogram.count lag));
    let failed = Serve.total_failed sv in
    if failed > 0 then begin
      Printf.printf "%d ticket(s) resolved Failed\n" failed;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Drive the asynchronous batched serving pipeline: per-shard \
          submission queues, each drained by whichever domain holds the \
          shard in batches of up to --batch-cap, each batch \
          group-committed through one coalesced redo flush and fence \
          schedule. An op whose shard is idle (nothing queued, no other \
          domain inside it) runs on the submitting thread as a one-op \
          batch, so a lone submitter commits op by op; batches form \
          when requests queue behind a busy shard. A per-shard DRAM \
          read cache (--cache-cap) answers hot gets on the submitting \
          thread, bypassing the queue. With --replicas N every batch is \
          also shipped to N warm standbys per shard and acknowledged per \
          --ack-policy (with threaded standbys under semi-sync or sync, \
          the domain running the batch waits for the acks). Keys route \
          through a versioned slot table (--slots); --rebalance \
          live-migrates hot slots between shards while serving. Exits 1 \
          if any request resolved Failed.")
    Term.(const run $ variant_arg $ engine_arg
          $ shards_arg ~doc:"Number of shards."
          $ batch_cap_arg
          $ serve_ops_arg $ window_arg $ cache_cap_arg
          $ replicas_arg $ ack_policy_arg $ slots_arg $ rebalance_arg
          $ zipf_arg $ stats_table_arg $ listen_arg)

(* failover *)

let failover_cmd =
  let replicas_arg =
    let doc = "Warm replica stacks per shard." in
    Arg.(value & opt int 1 & info [ "replicas" ] ~docv:"N" ~doc)
  in
  let fo_ops_arg =
    let doc = "Synthetic requests to submit (3:1 put:get over 512 keys)." in
    Arg.(value & opt int 8_000 & info [ "ops" ] ~docv:"N" ~doc)
  in
  let drop_rate_arg =
    let doc = "Replication channel loss rate in [0, 1) (seeded, reproducible)." in
    Arg.(value & opt float 0. & info [ "drop-rate" ] ~docv:"RATE" ~doc)
  in
  let run variant engine nshards replicas policy ops drop_rate =
    let open Spp_shard in
    let open Spp_benchlib in
    let nshards = max 1 nshards in
    let cfg =
      { Replica.default_config with
        replicas = max 1 replicas; policy; drop_rate }
    in
    let t =
      Shard.create ~nbuckets:512 ~pool_size:(1 lsl 22) ~engine ~nshards
        variant
    in
    let sv = Serve.create ~batch_cap:32 ~replication:cfg t in
    let st = Random.State.make [| 0xFA11 |] in
    let value = String.make 128 'v' in
    let fresh_req () =
      let key = Printf.sprintf "key-%04d" (Random.State.int st 512) in
      if Random.State.int st 4 = 3 then Serve.Get key
      else Serve.Put { key; value }
    in
    let window = 64 in
    let q = Queue.create () in
    let submit req =
      if Queue.length q >= window then ignore (Serve.await sv (Queue.pop q));
      Queue.push (Serve.submit sv req) q
    in
    let drain () =
      Queue.iter (fun tk -> ignore (Serve.await sv tk)) q;
      Queue.clear q
    in
    let half = ops / 2 in
    Printf.printf
      "%d shard(s), %d replica(s)/shard, %s engine, %s acks, %.0f%% \
       channel loss\n"
      nshards cfg.Replica.replicas (Shard.engine_name t)
      (Replica.ack_policy_to_string policy)
      (drop_rate *. 100.);
    for _ = 1 to half do submit (fresh_req ()) done;
    drain ();
    List.iter
      (fun s ->
        Printf.printf
          "  shard %d: %d/%d replicas live, %d commits shipped (%d ops), \
           acked through %d\n"
          s.Replica.rs_shard s.Replica.rs_live s.Replica.rs_replicas
          s.Replica.rs_seq s.Replica.rs_ops s.Replica.rs_acked_seq)
      (Serve.replication_stats sv);
    print_endline "powering off shard 0's primary device";
    Spp_sim.Memdev.power_off
      (Spp_pmdk.Pool.dev (Shard.shard_access (Shard.shard t 0)).Spp_access.pool);
    (* drain a burst against the dead primary: shard 0's share must
       resolve [Failed Failed_over], not hang, while the other shards
       keep serving *)
    let burst = 2 * window in
    let tks = Array.init burst (fun _ -> Serve.submit sv (fresh_req ())) in
    let failed = ref 0 and served = ref 0 in
    Array.iter
      (fun tk ->
        match Serve.await sv tk with
        | Serve.Failed Serve.Failed_over -> incr failed
        | _ -> incr served)
      tks;
    Printf.printf
      "burst of %d in flight: %d failed typed Failed_over, %d served by \
       live shards\n"
      burst !failed !served;
    let dt, p = Bench_util.time (fun () -> Serve.promote sv 0) in
    Printf.printf
      "promoted replica %d of shard 0 in %.1f ms: sealed acked prefix = \
       %d commits / %d ops\n"
      p.Replica.pr_replica (dt *. 1e3) p.Replica.pr_seq p.Replica.pr_ops;
    for _ = half + burst + 1 to ops do submit (fresh_req ()) done;
    drain ();
    Serve.stop sv;
    let h = Serve.merged_hist sv in
    Printf.printf
      "whole run: %d requests, %d failed typed, %d promotion(s); p50 %s, \
       p99 %s\n"
      ops (Serve.total_failed sv) (Serve.promotions sv)
      (Bench_util.fmt_lat_ns (Histogram.p50 h))
      (Bench_util.fmt_lat_ns (Histogram.p99 h))
  in
  Cmd.v
    (Cmd.info "failover"
       ~doc:
         "Demonstrate primary kill and replica promotion: drive the \
          replicated serving pipeline, power off one shard's device \
          mid-run, show in-flight tickets failing with a typed \
          Failed_over, promote the shard's warm replica and finish the \
          run on the new primary")
    Term.(const run $ variant_arg $ engine_arg
          $ shards_arg ~doc:"Number of shards."
          $ replicas_arg
          $ ack_policy_arg $ fo_ops_arg $ drop_rate_arg)

(* netbench *)

let netbench_cmd =
  let open Spp_shard in
  let open Spp_benchlib in
  let open Spp_net in
  let letter_arg =
    let doc =
      "YCSB workload letter: a (50/50 read/update), b (95/5), c (read \
       only), d (read latest/insert), e (scan/insert — wants --engine \
       btree), f (read-modify-write), or `all'."
    in
    Arg.(value & opt string "b" & info [ "letter" ] ~docv:"LETTER" ~doc)
  in
  let rate_arg =
    let doc =
      "Open-loop target arrival rate in ops/s; 0 measures a quick \
       closed-loop ceiling first and targets half of it."
    in
    Arg.(value & opt float 0. & info [ "rate" ] ~docv:"OPS_PER_S" ~doc)
  in
  let closed_arg =
    let doc =
      "Closed-loop mode (throughput ceiling; tail latencies suffer \
       coordinated omission) instead of the default open loop."
    in
    Arg.(value & flag & info [ "closed" ] ~doc)
  in
  let nb_ops_arg =
    let doc = "Operations per workload letter." in
    Arg.(value & opt int 20_000 & info [ "ops" ] ~docv:"N" ~doc)
  in
  let conns_arg =
    let doc = "Client connections in the pool." in
    Arg.(value & opt int 2 & info [ "conns" ] ~docv:"N" ~doc)
  in
  let nb_window_arg =
    let doc = "In-flight window of the closed loop." in
    Arg.(value & opt int 128 & info [ "window" ] ~docv:"N" ~doc)
  in
  let universe_arg =
    let doc = "Keys preloaded (over the wire) before measuring." in
    Arg.(value & opt int 2_000 & info [ "universe" ] ~docv:"N" ~doc)
  in
  let value_size_arg =
    let doc = "Value payload bytes." in
    Arg.(value & opt int 256 & info [ "value-size" ] ~docv:"BYTES" ~doc)
  in
  let connect_arg =
    let doc =
      "Drive an already-running server (e.g. `sppctl serve --listen \
       ADDR`) at unix:PATH, PORT or HOST:PORT instead of self-hosting \
       one in-process."
    in
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"ADDR" ~doc)
  in
  let run variant engine nshards letter rate closed ops conns window universe
      value_size connect =
    let letters =
      match String.lowercase_ascii letter with
      | "all" -> [ Ycsb.A; Ycsb.B; Ycsb.C; Ycsb.D; Ycsb.E; Ycsb.F ]
      | s when String.length s = 1 ->
        (try [ Ycsb.letter_of_char s.[0] ]
         with Invalid_argument _ ->
           prerr_endline ("unknown workload letter " ^ letter
                          ^ " (expected a..f or all)");
           exit 2)
      | _ ->
        prerr_endline ("unknown workload letter " ^ letter
                       ^ " (expected a..f or all)");
        exit 2
    in
    let key_of = Spp_pmemkv.Db_bench.key_of_int in
    let value = String.make (max 1 value_size) 'v' in
    let cleanup, addr =
      match connect with
      | Some a -> ((fun () -> ()), Net_server.parse_addr a)
      | None ->
        let t =
          Shard.create ~nbuckets:512 ~pool_size:(1 lsl 24) ~engine
            ~nshards:(max 1 nshards) variant
        in
        let sv = Serve.create ~batch_cap:32 t in
        let sock =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "sppctl-netbench-%d.sock" (Unix.getpid ()))
        in
        let srv = Net_server.create sv (Unix.ADDR_UNIX sock) in
        Format.printf "self-hosted %d shard(s) (%s, %s engine) on %a@."
          (max 1 nshards)
          (Spp_access.variant_name variant)
          (Shard.engine_name t) Net_server.pp_addr (Net_server.addr srv);
        ( (fun () ->
            Net_server.stop srv;
            Serve.stop sv),
          Net_server.addr srv )
    in
    Fun.protect ~finally:cleanup (fun () ->
      (* preload over the wire, corked — both modes exercise it *)
      let pre = Net_client.connect ~cork:true addr in
      let futs =
        Array.init universe (fun i ->
          Net_client.send pre (Serve.Put { key = key_of i; value }))
      in
      Array.iter (fun fu -> ignore (Net_client.await pre fu)) futs;
      Net_client.close pre;
      Printf.printf "preloaded %d keys (%d B values)\n%!" universe value_size;
      let rate =
        if closed || rate > 0. then rate
        else begin
          (* quick corked closed-loop ceiling on uniform point ops *)
          let cl = Net_client.connect ~pool:conns ~cork:true addr in
          let st = Random.State.make [| 0xCE11 |] in
          let probe = max 2_000 (ops / 4) in
          let r =
            Loadgen.closed_loop cl ~window ~ops:probe ~next:(fun _ ->
              let key = key_of (Random.State.int st universe) in
              if Random.State.int st 4 = 3 then [| Serve.Get key |]
              else [| Serve.Put { key; value } |])
          in
          Net_client.close cl;
          Printf.printf
            "measured ceiling: %.0f op/s; open-loop target = half of it\n%!"
            r.Loadgen.lg_achieved;
          Float.max 1. (0.5 *. r.Loadgen.lg_achieved)
        end
      in
      Printf.printf "%-14s %-8s %-10s %-11s %-9s %-9s %-9s %s\n" "workload"
        "mode" "target/s" "achieved/s" "p50 us" "p99 us" "p999 us" "failed";
      List.iter
        (fun l ->
          let y =
            Ycsb.create ~max_span:16 ~letter:l ~seed:42 ~universe ()
          in
          let next = Loadgen.ycsb_next y ~key:key_of ~value:(fun _ -> value) in
          let r =
            if closed then begin
              let cl = Net_client.connect ~pool:conns ~cork:true addr in
              Fun.protect
                ~finally:(fun () -> Net_client.close cl)
                (fun () -> Loadgen.closed_loop cl ~window ~ops ~next)
            end
            else begin
              let cl = Net_client.connect ~pool:conns addr in
              Fun.protect
                ~finally:(fun () -> Net_client.close cl)
                (fun () -> Loadgen.open_loop cl ~rate ~ops ~next)
            end
          in
          let us h p = float_of_int (Histogram.percentile h p) /. 1e3 in
          Printf.printf "%-14s %-8s %-10.0f %-11.0f %-9.1f %-9.1f %-9.1f %d\n%!"
            (Printf.sprintf "%c (%s)"
               (Char.uppercase_ascii (Ycsb.char_of_letter l))
               (List.hd
                  (String.split_on_char ',' (Ycsb.describe l))))
            (if closed then "closed" else "open")
            r.Loadgen.lg_target r.Loadgen.lg_achieved
            (us r.Loadgen.lg_hist 50.) (us r.Loadgen.lg_hist 99.)
            (us r.Loadgen.lg_hist 99.9) r.Loadgen.lg_failed)
        letters)
  in
  Cmd.v
    (Cmd.info "netbench"
       ~doc:
         "Run the YCSB workload suite against the wire front end: \
          open-loop by default (arrival times drawn from the target \
          rate before sending; latency measured from the intended send \
          time, so tail percentiles include the queueing delay that \
          coordinated omission would hide), or --closed for a \
          throughput ceiling. Self-hosts a server on a unix socket \
          unless --connect points at a running `sppctl serve --listen'")
    Term.(const run $ variant_arg $ engine_arg
          $ shards_arg
              ~doc:"Shards of the self-hosted server (ignored with --connect)."
          $ letter_arg
          $ rate_arg $ closed_arg $ nb_ops_arg $ conns_arg $ nb_window_arg
          $ universe_arg $ value_size_arg $ connect_arg)

let () =
  let doc = "Safe Persistent Pointers (SPP) reproduction toolkit" in
  (* One consolidated matrix so nobody has to assemble it from eleven
     per-subcommand --help pages. *)
  let man =
    [ `S "COMMAND MATRIX";
      `P "Which subcommand takes which KV engine and drives which \
          workload. VARIANTS abbreviates pmdk | spp | safepm | memcheck \
          (--variant); ENGINES abbreviates cmap | btree (--engine); \
          letters a-f are the YCSB workloads of `netbench --letter'.";
      `Pre
        "COMMAND    VARIANTS  ENGINES     WORKLOAD\n\
         info       -         -           (print pointer-encoding config)\n\
         decode     -         -           (decode one tagged pointer)\n\
         attack     yes       -           RIPE buffer-overflow matrix\n\
         index      yes       -           index ops (ctree|rbtree|rtree|hashmap_tx)\n\
         check      yes       -           index workload under pmemcheck\n\
         explore    yes       -           crash-state exploration of one op\n\
         pool-demo  yes       -           allocate/free demo pool\n\
         pool-open  yes       -           reopen + verify a pool file\n\
         torture    yes       cmap|btree  crash-point enumeration + faults\n\
         serve      yes       cmap|btree  synthetic 3:1 put:get (or --listen ADDR)\n\
         failover   yes       cmap|btree  replicated run + primary kill\n\
         netbench   yes       cmap|btree  YCSB a|b|c|d|f (any), e (btree scans)";
      `P "YCSB letters: a = 50/50 read/update zipfian; b = 95/5 \
          read/update; c = 100% read; d = 95/5 read-latest/insert; e = \
          95/5 scan/insert (needs ordered scans, so --engine btree); f \
          = 50/50 read/read-modify-write.";
      `P "Wire serving: `sppctl serve --listen unix:/tmp/spp.sock' \
          exposes the pipeline; `sppctl netbench --connect \
          unix:/tmp/spp.sock --letter all' drives it open-loop." ]
  in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "sppctl" ~version:"1.0.0" ~doc ~man)
          [ info_cmd; decode_cmd; attack_cmd; index_cmd; check_cmd;
            explore_cmd; pool_demo_cmd; pool_open_cmd; torture_cmd;
            serve_cmd; failover_cmd; netbench_cmd ]))
