(* Tests for the pmemkv cmap engine: correctness against an oracle on all
   variants, variable-size values, deletion, crash durability, and the
   db_bench driver. *)

open Spp_pmdk

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk ?(pool_size = 1 lsl 24) variant =
  Spp_access.create ~pool_size ~name:(Spp_access.variant_name variant) variant

let test_put_get_all_variants () =
  List.iter
    (fun v ->
      let a = mk v in
      let kv = Spp_pmemkv.Engine.create ~nbuckets:64 Spp_pmemkv.Engines.cmap a in
      Spp_pmemkv.Engine.put kv ~key:"alpha" ~value:"1";
      Spp_pmemkv.Engine.put kv ~key:"beta" ~value:"2";
      Alcotest.(check (option string))
        (Spp_access.variant_name v ^ " get alpha")
        (Some "1") (Spp_pmemkv.Engine.get kv "alpha");
      Alcotest.(check (option string))
        (Spp_access.variant_name v ^ " get missing")
        None (Spp_pmemkv.Engine.get kv "gamma");
      check_bool "remove beta" true (Spp_pmemkv.Engine.remove kv "beta");
      check_bool "remove twice" false (Spp_pmemkv.Engine.remove kv "beta");
      check_int "count" 1 (Spp_pmemkv.Engine.count_all kv))
    Spp_access.all_variants

(* Pointer to the [vlen] word of [key]'s entry in a one-bucket cmap
   ([next oid | klen | vlen | key | value]) or its item in a one-leaf
   btree (a node is [n | leaf | 8 child oids | 7 item oids], an item
   [klen | vlen | key | value]), found through the access layer. *)
let vlen_word (a : Spp_access.t) engine root key =
  let open Spp_access in
  let holds p klen_off =
    a.read_sub (a.gep p (klen_off + 16)) (a.load_word (a.gep p klen_off)) = key
  in
  let rec entry oid =
    let p = a.direct oid in
    if holds p a.oid_size then a.gep p (a.oid_size + 8)
    else entry (a.load_oid_at p)
  in
  let rec item leaf i =
    let slot = a.gep leaf (16 + ((Spp_pmemkv.Bmap.order + i) * a.oid_size)) in
    let p = a.direct (a.load_oid_at slot) in
    if holds p 0 then a.gep p 8 else item leaf (i + 1)
  in
  let top = a.load_oid_at (a.direct root) in
  if engine = "cmap" then entry top else item (a.direct top) 0

(* A corrupt entry: the value-length word overwritten with 4000 sends a
   get far past the entry. SPP's check on the value read sets the
   pointer's overflow bit (bit 61), so the read faults on that address;
   SafePM and memcheck each stop the read too, and [run_guarded]
   reports it as prevented. Native PMDK returns the neighbouring PM. *)
let expect_corrupt_read_stopped v what = function
  | Spp_access.Ok_completed ->
    if v <> Spp_access.Pmdk then Alcotest.failf "%s: corrupt read completed" what
  | Spp_access.Prevented m ->
    if v = Spp_access.Pmdk then Alcotest.failf "%s: prevented (%s)" what m;
    if v = Spp_access.Spp then
      check_bool
        (Printf.sprintf "%s: overflow bit set in %s" what m)
        true
        (match Scanf.sscanf_opt m "SIGSEGV at 0x%x%!" Fun.id with
         | Some addr -> addr land Spp_core.Config.default.ovf_bit <> 0
         | None -> false)

(* A negative value length is a [size_t] past every object: SPP's check
   overflows the pointer, SafePM and memcheck refuse the length, and even
   Pmdk's unchecked read runs off its mapping into a typed fault — never
   an untyped exception from allocating the reply. *)
let expect_negative_read_stopped v what = function
  | Spp_access.Ok_completed -> Alcotest.failf "%s: negative read completed" what
  | Spp_access.Prevented m ->
    if v = Spp_access.Spp then
      check_bool
        (Printf.sprintf "%s: overflow bit set in %s" what m)
        true
        (match Scanf.sscanf_opt m "SIGSEGV at 0x%x%!" Fun.id with
         | Some addr -> addr land Spp_core.Config.default.ovf_bit <> 0
         | None -> false)

let test_corrupt_vlen_guarded () =
  List.iter
    (fun (vlen, expect) ->
      List.iter
        (fun v ->
          let a = mk v in
          let kv =
            Spp_pmemkv.Engine.create ~nbuckets:1 Spp_pmemkv.Engines.cmap a
          in
          let key = Spp_pmemkv.Db_bench.key_of_int 7 in
          Spp_pmemkv.Engine.put kv ~key ~value:(String.make 10 'v');
          Spp_pmemkv.Engine.put kv ~key:"other" ~value:(String.make 64 'o');
          a.Spp_access.store_word
            (vlen_word a "cmap" (Spp_pmemkv.Engine.root_oid kv) key) vlen;
          expect v
            (Printf.sprintf "%s, vlen %d" (Spp_access.variant_name v) vlen)
            (match
               Spp_access.run_guarded (fun () ->
                 ignore (Spp_pmemkv.Engine.get kv key))
             with
             | r -> r
             | exception e ->
               Alcotest.failf "vlen %d: untyped %s" vlen
                 (Printexc.to_string e)))
        Spp_access.all_variants)
    [ (4000, expect_corrupt_read_stopped); (-8, expect_negative_read_stopped) ]

(* SafePM persists a block's shadow once per lifetime event: a block
   becoming live (left redzone, object and right redzone, one range) and
   a block dying each cost one flush and one fence on top of the one-op
   commit's 4 fences, under every value size. *)
let test_safepm_shadow_fences () =
  List.iter
    (fun vsize ->
      let a = mk Spp_access.Safepm in
      let kv = Spp_pmemkv.Engine.create ~nbuckets:16 Spp_pmemkv.Engines.cmap a in
      let dev = Pool.dev a.Spp_access.pool in
      let value = String.make vsize 'v' in
      Spp_pmemkv.Engine.put kv ~key:"warm" ~value;
      let fences f =
        Spp_sim.Memdev.reset_counters dev;
        f ();
        (Spp_sim.Memdev.counters dev).Spp_sim.Memdev.fences
      in
      check_int (Printf.sprintf "%d B new-key put: fences" vsize) 5
        (fences (fun () -> Spp_pmemkv.Engine.put kv ~key:"k" ~value));
      check_int (Printf.sprintf "%d B same-size overwrite: fences" vsize) 6
        (fences (fun () ->
           Spp_pmemkv.Engine.put kv ~key:"k" ~value:(String.make vsize 'w'))))
    [ 8; 256; 1024 ]

let test_overwrite_same_and_different_size () =
  let a = mk Spp_access.Spp in
  let kv = Spp_pmemkv.Engine.create ~nbuckets:16 Spp_pmemkv.Engines.cmap a in
  Spp_pmemkv.Engine.put kv ~key:"k" ~value:"aaaa";
  Spp_pmemkv.Engine.put kv ~key:"k" ~value:"bbbb";   (* same size *)
  Alcotest.(check (option string)) "same-size overwrite" (Some "bbbb")
    (Spp_pmemkv.Engine.get kv "k");
  Spp_pmemkv.Engine.put kv ~key:"k" ~value:"cccccccc";   (* resize *)
  Alcotest.(check (option string)) "resize overwrite" (Some "cccccccc")
    (Spp_pmemkv.Engine.get kv "k");
  check_int "single live entry" 1 (Spp_pmemkv.Engine.count_all kv)

(* A synchronous put or remove is a one-op group commit. One seeded
   stream of puts (value sizes mixed, same-size overwrites included) and
   removes, run through [put]/[remove] and through one-op [run_batch]
   calls, leaves equal device counters, PM byte counts, SPP checks, heap
   and contents under every variant, and the pool's batch observer
   hears one payload per sync mutation. *)
let test_sync_ops_are_one_op_batches () =
  let open Spp_pmemkv in
  let st = Random.State.make [| 0x5a11 |] in
  let stream =
    List.init 400 (fun i ->
      let key = Printf.sprintf "k%02d" (Random.State.int st 24) in
      if Random.State.int st 4 = 0 then `Remove key
      else
        let len = [| 8; 100; 1024 |].(Random.State.int st 3) in
        `Put (key, String.make len (Char.chr (97 + (i mod 26)))))
  in
  let run v ~sync =
    let a = mk v in
    let pool = a.Spp_access.pool in
    let kv = Engine.create ~nbuckets:16 Engines.cmap a in
    let payloads = ref 0 and mutations = ref 0 in
    Pool.set_batch_observer pool (Some (fun _ -> incr payloads));
    Spp_sim.Memdev.reset_counters (Pool.dev pool);
    Spp_sim.Space.reset_stats a.Spp_access.space;
    Spp_core.Runtime.reset_counters ();
    List.iter
      (function
        | `Put (key, value) ->
          incr mutations;
          if sync then Engine.put kv ~key ~value
          else ignore (Engine.run_batch kv [| Engine.B_put { key; value } |])
        | `Remove key ->
          let removed =
            if sync then Engine.remove kv key
            else
              Engine.run_batch kv [| Engine.B_remove key |]
              = [| R_removed true |]
          in
          if removed then incr mutations)
      stream;
    let s = Spp_sim.Space.stats a.Spp_access.space in
    let rt = Spp_core.Runtime.counters in
    ( Spp_sim.Memdev.counters (Pool.dev pool),
      (s.pm_bytes_loaded, s.pm_bytes_stored),
      rt.checkbound + rt.memintr_check,
      Pool.heap_stats pool,
      Engine.scan kv ~lo:"" ~hi:"\255" ~limit:max_int,
      (!payloads, !mutations) )
  in
  List.iter
    (fun v ->
      let name what = Spp_access.variant_name v ^ ": " ^ what in
      let c, bytes, checks, heap, contents, (payloads, mutations) =
        run v ~sync:true
      in
      let c', bytes', checks', heap', contents', _ = run v ~sync:false in
      check_bool (name "device counters") true (c = c');
      check_bool (name "PM bytes loaded and stored") true (bytes = bytes');
      check_int (name "SPP checks") checks' checks;
      check_bool (name "heap stats") true (heap = heap');
      check_bool (name "contents") true (contents = contents');
      check_int (name "one payload per sync mutation") mutations payloads)
    Spp_access.all_variants

let test_oracle_random_ops () =
  let a = mk Spp_access.Spp in
  let kv = Spp_pmemkv.Engine.create ~nbuckets:32 Spp_pmemkv.Engines.cmap a in
  let model = Hashtbl.create 64 in
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 2000 do
    let key = Printf.sprintf "key-%d" (Random.State.int st 200) in
    match Random.State.int st 3 with
    | 0 ->
      let value = Printf.sprintf "val-%d" (Random.State.int st 10000) in
      Spp_pmemkv.Engine.put kv ~key ~value;
      Hashtbl.replace model key value
    | 1 ->
      let expected = Hashtbl.mem model key in
      check_bool "remove agrees" expected (Spp_pmemkv.Engine.remove kv key);
      Hashtbl.remove model key
    | _ ->
      Alcotest.(check (option string)) "get agrees"
        (Hashtbl.find_opt model key)
        (Spp_pmemkv.Engine.get kv key)
  done;
  check_int "final count" (Hashtbl.length model)
    (Spp_pmemkv.Engine.count_all kv)

let test_crash_durability () =
  let a = mk Spp_access.Pmdk in
  let kv = Spp_pmemkv.Engine.create ~nbuckets:16 Spp_pmemkv.Engines.cmap a in
  Spp_sim.Memdev.set_tracking (Pool.dev a.Spp_access.pool) true;
  Spp_pmemkv.Engine.put kv ~key:"durable" ~value:"yes";
  Spp_pmemkv.Engine.put kv ~key:"gone-after-remove" ~value:"x";
  check_bool "removed" true (Spp_pmemkv.Engine.remove kv "gone-after-remove");
  let (_ : Pool.recovery_report) = Pool.crash_and_recover a.Spp_access.pool in
  Alcotest.(check (option string)) "committed put durable" (Some "yes")
    (Spp_pmemkv.Engine.get kv "durable");
  Alcotest.(check (option string)) "committed remove durable" None
    (Spp_pmemkv.Engine.get kv "gone-after-remove")

(* Reopen-after-churn: heavy put/remove traffic (with a warm read cache
   attached) must leave a durable image that a fresh process — a new
   Memdev built from the durable snapshot, Pool.open_dev, attach — reads
   back exactly: same count, same survivors, and a cold cache, since the
   Rcache is volatile by design. *)
let test_attach_after_remove_churn () =
  let a = mk Spp_access.Spp in
  let kv = Spp_pmemkv.Engine.create ~nbuckets:32 Spp_pmemkv.Engines.cmap a in
  Spp_pmemkv.Engine.set_cache kv (Some (Spp_pmemkv.Rcache.create ~cap:64));
  let pool = a.Spp_access.pool in
  let root = a.Spp_access.root a.Spp_access.oid_size in
  Pool.store_oid pool ~off:root.Spp_pmdk.Oid.off
    (Spp_pmemkv.Engine.root_oid kv);
  Pool.persist pool ~off:root.Spp_pmdk.Oid.off ~len:a.Spp_access.oid_size;
  let model = Hashtbl.create 64 in
  let st = Random.State.make [| 2026 |] in
  let key i = Printf.sprintf "churn-%03d" i in
  (* Remove-heavy churn: every key is put, most are removed again, some
     several times over, and gets keep the cache warm throughout. *)
  for round = 1 to 4 do
    for i = 0 to 199 do
      let k = key i in
      let v = Printf.sprintf "r%d-%d" round i in
      Spp_pmemkv.Engine.put kv ~key:k ~value:v;
      Hashtbl.replace model k v;
      ignore (Spp_pmemkv.Engine.get kv k);
      if Random.State.int st 4 < 3 then begin
        check_bool "remove live key" true (Spp_pmemkv.Engine.remove kv k);
        Hashtbl.remove model k
      end
    done
  done;
  check_int "live count before reopen" (Hashtbl.length model)
    (Spp_pmemkv.Engine.count_all kv);
  (* A fresh device from the durable snapshot — nothing volatile can
     leak across, by construction. *)
  let img = Spp_sim.Memdev.durable_snapshot (Pool.dev pool) in
  let dev' = Spp_sim.Memdev.of_image ~name:"churn-reopen" img in
  let space' = Spp_sim.Space.create () in
  match Pool.open_dev space' ~base:Spp_access.default_pool_base dev' with
  | Error e -> Alcotest.failf "reopen failed: %s" (Pool.pool_error_to_string e)
  | Ok (pool', _report) ->
    let a' = Spp_access.attach (Pool.space pool') pool' in
    let buckets =
      Pool.load_oid pool' ~off:(Pool.root_oid pool').Spp_pmdk.Oid.off
    in
    let kv' =
      Spp_pmemkv.Engine.attach Spp_pmemkv.Engines.cmap a' ~root:buckets
    in
    check_bool "reattached map starts cold" true
      (Spp_pmemkv.Engine.cache kv' = None);
    check_int "count survives reopen" (Hashtbl.length model)
      (Spp_pmemkv.Engine.count_all kv');
    for i = 0 to 199 do
      Alcotest.(check (option string)) ("survivor " ^ key i)
        (Hashtbl.find_opt model (key i))
        (Spp_pmemkv.Engine.get kv' (key i))
    done

let test_large_values () =
  let a = mk Spp_access.Spp in
  let kv = Spp_pmemkv.Engine.create ~nbuckets:16 Spp_pmemkv.Engines.cmap a in
  let v = String.make 1024 'z' in
  Spp_pmemkv.Engine.put kv ~key:"big" ~value:v;
  Alcotest.(check (option string)) "1 KiB value" (Some v)
    (Spp_pmemkv.Engine.get kv "big")

let test_db_bench_runs () =
  let a = mk Spp_access.Pmdk in
  let kv = Spp_pmemkv.Engine.create Spp_pmemkv.Engines.cmap a in
  Spp_pmemkv.Db_bench.preload kv ~keys:200;
  List.iter
    (fun w ->
      let r =
        Spp_pmemkv.Db_bench.run kv ~threads:2 ~ops_per_thread:100 ~universe:200 w
      in
      check_int (Spp_pmemkv.Db_bench.workload_name w ^ " ops") 200
        r.Spp_pmemkv.Db_bench.total_ops;
      check_bool "positive throughput" true
        (r.Spp_pmemkv.Db_bench.throughput > 0.))
    Spp_pmemkv.Db_bench.all_workloads

(* --- B-tree engine (Bmap) --- *)

let sorted_bindings model =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Sync put/get/remove (which route through single-op redo batches on
   this engine) against a DRAM model, on every access variant; the
   full-range scan must equal the model's sorted bindings exactly. *)
let test_bmap_oracle_random_ops () =
  List.iter
    (fun variant ->
      let a = mk variant in
      let kv = Spp_pmemkv.Engine.create Spp_pmemkv.Engines.btree a in
      let model = Hashtbl.create 64 in
      let st = Random.State.make [| 11 |] in
      for _ = 1 to 1200 do
        let key = Printf.sprintf "key-%03d" (Random.State.int st 150) in
        match Random.State.int st 3 with
        | 0 ->
          let value = Printf.sprintf "val-%d" (Random.State.int st 10000) in
          Spp_pmemkv.Engine.put kv ~key ~value;
          Hashtbl.replace model key value
        | 1 ->
          let expected = Hashtbl.mem model key in
          check_bool "remove agrees" expected (Spp_pmemkv.Engine.remove kv key);
          Hashtbl.remove model key
        | _ ->
          Alcotest.(check (option string)) "get agrees"
            (Hashtbl.find_opt model key)
            (Spp_pmemkv.Engine.get kv key)
      done;
      check_int
        (Spp_access.variant_name variant ^ " final count")
        (Hashtbl.length model)
        (Spp_pmemkv.Engine.count_all kv);
      Alcotest.(check (list (pair string string)))
        (Spp_access.variant_name variant ^ " full scan = sorted model")
        (sorted_bindings model)
        (Spp_pmemkv.Engine.scan kv ~lo:"" ~hi:"~" ~limit:1000))
    Spp_access.all_variants

(* Inclusive bounds, ascending order, limit clipping, empty windows. *)
let test_bmap_scan_semantics () =
  let a = mk Spp_access.Spp in
  let kv = Spp_pmemkv.Engine.create Spp_pmemkv.Engines.btree a in
  for i = 0 to 49 do
    Spp_pmemkv.Engine.put kv
      ~key:(Printf.sprintf "k%02d" i)
      ~value:(Printf.sprintf "v%02d" i)
  done;
  let expect lo hi =
    List.init 50 (fun i -> i)
    |> List.filter_map (fun i ->
         let k = Printf.sprintf "k%02d" i in
         if lo <= k && k <= hi then Some (k, Printf.sprintf "v%02d" i)
         else None)
  in
  Alcotest.(check (list (pair string string)))
    "inclusive window" (expect "k10" "k19")
    (Spp_pmemkv.Engine.scan kv ~lo:"k10" ~hi:"k19" ~limit:100);
  Alcotest.(check (list (pair string string)))
    "limit clips the head"
    [ ("k10", "v10"); ("k11", "v11"); ("k12", "v12") ]
    (Spp_pmemkv.Engine.scan kv ~lo:"k10" ~hi:"k19" ~limit:3);
  check_int "empty window" 0
    (List.length (Spp_pmemkv.Engine.scan kv ~lo:"k90" ~hi:"k99" ~limit:10));
  check_int "inverted bounds" 0
    (List.length (Spp_pmemkv.Engine.scan kv ~lo:"k19" ~hi:"k10" ~limit:10));
  check_int "limit 0" 0
    (List.length (Spp_pmemkv.Engine.scan kv ~lo:"" ~hi:"~" ~limit:0))

(* A scan op inside a batch sees every earlier op of the same batch
   (puts and removes staged ahead of it), matching Cmap's read-your-
   batched-writes contract. *)
let test_bmap_batch_scan_visibility () =
  let a = mk Spp_access.Spp in
  let kv = Spp_pmemkv.Engine.create Spp_pmemkv.Engines.btree a in
  Spp_pmemkv.Engine.put kv ~key:"b" ~value:"old";
  Spp_pmemkv.Engine.put kv ~key:"d" ~value:"dead";
  let replies =
    Spp_pmemkv.Engine.run_batch kv
      [| Spp_pmemkv.Engine.B_put { key = "a"; value = "1" };
         Spp_pmemkv.Engine.B_put { key = "b"; value = "new" };
         Spp_pmemkv.Engine.B_remove "d";
         Spp_pmemkv.Engine.B_scan { lo = ""; hi = "~"; limit = 10 };
         Spp_pmemkv.Engine.B_get "a";
      |]
  in
  (match replies.(3) with
   | Spp_pmemkv.Engine.R_scan kvs ->
     Alcotest.(check (list (pair string string)))
       "mid-batch scan sees staged ops"
       [ ("a", "1"); ("b", "new") ] kvs
   | _ -> Alcotest.fail "expected R_scan");
  match replies.(4) with
  | Spp_pmemkv.Engine.R_get v ->
    Alcotest.(check (option string)) "read-your-batched-writes" (Some "1") v
  | _ -> Alcotest.fail "expected R_get"

(* The COW churn stress: heavy mixed batches, then reopen from the
   durable snapshot in a fresh space and require count, survivors and
   scan order to read back exactly. This is the test that catches a
   node or item freed while still reachable, or a root staged to a torn
   subtree. *)
let test_bmap_attach_after_churn () =
  let a = mk Spp_access.Spp in
  let kv = Spp_pmemkv.Engine.create Spp_pmemkv.Engines.btree a in
  Spp_pmemkv.Engine.set_cache kv (Some (Spp_pmemkv.Rcache.create ~cap:64));
  let pool = a.Spp_access.pool in
  let root = a.Spp_access.root a.Spp_access.oid_size in
  Pool.store_oid pool ~off:root.Spp_pmdk.Oid.off
    (Spp_pmemkv.Engine.root_oid kv);
  Pool.persist pool ~off:root.Spp_pmdk.Oid.off ~len:a.Spp_access.oid_size;
  let model = Hashtbl.create 64 in
  let st = Random.State.make [| 4242 |] in
  let key i = Printf.sprintf "churn-%03d" i in
  for _round = 1 to 6 do
    let batch =
      Array.init 40 (fun _ ->
        let k = key (Random.State.int st 120) in
        if Random.State.int st 4 < 3 then begin
          let v = Printf.sprintf "v%d" (Random.State.int st 100000) in
          Hashtbl.replace model k v;
          Spp_pmemkv.Engine.B_put { key = k; value = v }
        end
        else begin
          Hashtbl.remove model k;
          Spp_pmemkv.Engine.B_remove k
        end)
    in
    ignore (Spp_pmemkv.Engine.run_batch kv batch)
  done;
  check_int "live count before reopen" (Hashtbl.length model)
    (Spp_pmemkv.Engine.count_all kv);
  let img = Spp_sim.Memdev.durable_snapshot (Pool.dev pool) in
  let dev' = Spp_sim.Memdev.of_image ~name:"bmap-reopen" img in
  let space' = Spp_sim.Space.create () in
  match Pool.open_dev space' ~base:Spp_access.default_pool_base dev' with
  | Error e -> Alcotest.failf "reopen failed: %s" (Pool.pool_error_to_string e)
  | Ok (pool', _report) ->
    let a' = Spp_access.attach (Pool.space pool') pool' in
    let map_root =
      Pool.load_oid pool' ~off:(Pool.root_oid pool').Spp_pmdk.Oid.off
    in
    let kv' =
      Spp_pmemkv.Engine.attach Spp_pmemkv.Engines.btree a' ~root:map_root
    in
    check_bool "reattached tree starts cold" true
      (Spp_pmemkv.Engine.cache kv' = None);
    check_int "count survives reopen" (Hashtbl.length model)
      (Spp_pmemkv.Engine.count_all kv');
    Alcotest.(check (list (pair string string)))
      "scan survives reopen in order" (sorted_bindings model)
      (Spp_pmemkv.Engine.scan kv' ~lo:"" ~hi:"~" ~limit:1000)

(* Ascending keys keep the rightmost path full, so every few puts a
   split cascades from the leaf to the root. Each put is its own batch,
   so each cascade's staged words must fit the redo log on their own;
   40 000 keys take the tree to the depth where a cascade used to
   overflow it. *)
let test_bmap_ascending_puts () =
  let a = mk ~pool_size:(1 lsl 26) Spp_access.Spp in
  let kv = Spp_pmemkv.Engine.create Spp_pmemkv.Engines.btree a in
  let n = 40_000 in
  let failed = ref 0 and first = ref (-1) in
  for i = 0 to n - 1 do
    let key = Spp_pmemkv.Db_bench.key_of_int i in
    match
      Spp_pmemkv.Engine.run_batch kv
        [| Spp_pmemkv.Engine.B_put { key; value = "v" } |]
    with
    | _ -> ()
    | exception Redo.Redo_full ->
      if !first < 0 then first := i;
      incr failed
  done;
  check_int
    (Printf.sprintf "puts raising Redo_full (first at key %d)" !first)
    0 !failed;
  check_int "every key stored" n (Spp_pmemkv.Engine.count_all kv);
  Alcotest.(check (option string)) "last key reads back" (Some "v")
    (Spp_pmemkv.Engine.get kv (Spp_pmemkv.Db_bench.key_of_int (n - 1)))

(* Cmap's scan obeys the same Engine.S contract even though it sorts a
   hash walk; and the registry resolves both engines by name. *)
let test_cmap_scan_and_registry () =
  let a = mk Spp_access.Spp in
  let kv = Spp_pmemkv.Engine.create ~nbuckets:8 Spp_pmemkv.Engines.cmap a in
  for i = 0 to 29 do
    Spp_pmemkv.Engine.put kv
      ~key:(Printf.sprintf "k%02d" i)
      ~value:(Printf.sprintf "v%02d" i)
  done;
  Alcotest.(check (list (pair string string)))
    "cmap scan is ordered and bounded"
    [ ("k05", "v05"); ("k06", "v06"); ("k07", "v07") ]
    (Spp_pmemkv.Engine.scan kv ~lo:"k05" ~hi:"k95" ~limit:3);
  check_bool "registry: cmap" true
    (match Spp_pmemkv.Engines.of_name "cmap" with
     | Some e -> Spp_pmemkv.Engine.spec_name e = "cmap"
     | None -> false);
  check_bool "registry: btree" true
    (match Spp_pmemkv.Engines.of_name "btree" with
     | Some e -> Spp_pmemkv.Engine.spec_name e = "btree"
     | None -> false);
  check_bool "registry: unknown" true
    (Spp_pmemkv.Engines.of_name "lsm" = None)

(* Gets, removes and scans against a [Map] model, on both engines and
   every access variant (each variant hoists its own pointer check into
   view acquisition, so each opens its windows differently). Short
   group-committed batches of puts, gets and removes interleave with the
   synchronous ops, so a checker must follow blocks either path
   allocated and freed. *)
module Smap = Map.Make (String)

let test_reads_match_model () =
  List.iter
    (fun engine_name ->
      List.iter
        (fun variant ->
          let name = engine_name ^ "/" ^ Spp_access.variant_name variant in
          let spec = Option.get (Spp_pmemkv.Engines.of_name engine_name) in
          let kv = Spp_pmemkv.Engine.create ~nbuckets:32 spec (mk variant) in
          let st = Random.State.make [| 42 |] in
          let model = ref Smap.empty in
          let key_of st = Printf.sprintf "key-%03d" (Random.State.int st 120) in
          for i = 1 to 600 do
            let key = key_of st in
            match Random.State.int st 5 with
            | 0 ->
              let value =
                Printf.sprintf "val-%d-%d" i (Random.State.int st 1000)
              in
              Spp_pmemkv.Engine.put kv ~key ~value;
              model := Smap.add key value !model
            | 1 ->
              Alcotest.(check (option string)) (name ^ " get")
                (Smap.find_opt key !model) (Spp_pmemkv.Engine.get kv key)
            | 2 ->
              check_bool (name ^ " remove") (Smap.mem key !model)
                (Spp_pmemkv.Engine.remove kv key);
              model := Smap.remove key !model
            | 3 ->
              Alcotest.(check (list (pair string string))) (name ^ " scan")
                (List.filteri (fun i _ -> i < 5)
                   (Smap.bindings (Smap.filter (fun k _ -> k >= key) !model)))
                (Spp_pmemkv.Engine.scan kv ~lo:key ~hi:"~" ~limit:5)
            | _ ->
              let module E = Spp_pmemkv.Engine in
              let ops =
                Array.init (1 + Random.State.int st 4) (fun j ->
                  let key = if j = 0 then key else key_of st in
                  match Random.State.int st 3 with
                  | 0 -> E.B_put { key; value = Printf.sprintf "b-%d-%d" i j }
                  | 1 -> E.B_get key
                  | _ -> E.B_remove key)
              in
              Array.iter2
                (fun op reply ->
                  match (op, reply) with
                  | E.B_put { key; value }, E.R_put ->
                    model := Smap.add key value !model
                  | B_get key, R_get v ->
                    Alcotest.(check (option string)) (name ^ " batch get")
                      (Smap.find_opt key !model) v
                  | B_remove key, R_removed r ->
                    check_bool (name ^ " batch remove") (Smap.mem key !model) r;
                    model := Smap.remove key !model
                  | _ -> Alcotest.failf "%s: reply does not match its op" name)
                ops (E.run_batch kv ops)
          done)
        Spp_access.all_variants)
    [ "cmap"; "btree" ]

(* A SafePM pool records its redzone in the header, so a reopened image
   maps every oid back to its block: both engines attach from the
   durable image and read back every key, whichever path wrote it. *)
let test_safepm_reopen () =
  List.iter
    (fun engine_name ->
      let spec = Option.get (Spp_pmemkv.Engines.of_name engine_name) in
      let a = mk ~pool_size:(1 lsl 22) Spp_access.Safepm in
      let kv = Spp_pmemkv.Engine.create ~nbuckets:16 spec a in
      let key i = Printf.sprintf "key-%03d" i in
      for i = 0 to 49 do
        Spp_pmemkv.Engine.put kv ~key:(key i) ~value:(string_of_int i)
      done;
      ignore
        (Spp_pmemkv.Engine.run_batch kv
           (Array.init 50 (fun j ->
              Spp_pmemkv.Engine.B_put
                { key = key (50 + j); value = string_of_int (50 + j) })));
      let image =
        Spp_sim.Memdev.durable_snapshot (Pool.dev a.Spp_access.pool)
      in
      let space = Spp_sim.Space.create () in
      match
        Pool.open_dev space ~base:Spp_access.default_pool_base
          (Spp_sim.Memdev.of_image ~name:"reopened" image)
      with
      | Error e ->
        Alcotest.failf "%s: %s" engine_name (Pool.pool_error_to_string e)
      | Ok (pool, _) ->
        check_int (engine_name ^ " redzone") Spp_safepm.redzone
          (Pool.redzone pool);
        let kv' =
          Spp_pmemkv.Engine.attach spec (Spp_access.attach space pool)
            ~root:(Spp_pmemkv.Engine.root_oid kv)
        in
        for i = 0 to 99 do
          Alcotest.(check (option string))
            (engine_name ^ " " ^ key i)
            (Some (string_of_int i))
            (Spp_pmemkv.Engine.get kv' (key i))
        done)
    [ "cmap"; "btree" ]

(* The same corrupt entry on the served path, on both engines: a
   one-op [run_batch] and a sync get are stopped as above, and through
   [Serve] the key's get fails typed while the shard keeps serving. *)
let test_corrupt_vlen_served () =
  let module E = Spp_pmemkv.Engine in
  let key = Spp_pmemkv.Db_bench.key_of_int 7 in
  let other = String.make 64 'o' in
  let corrupt a kv =
    a.Spp_access.store_word (vlen_word a (E.name kv) (E.root_oid kv) key) 4000
  in
  List.iter
    (fun spec ->
      List.iter
        (fun v ->
          let what how =
            Printf.sprintf "%s %s %s" (E.spec_name spec)
              (Spp_access.variant_name v) how
          in
          let a = mk v in
          let kv = E.create ~nbuckets:1 spec a in
          E.put kv ~key ~value:(String.make 10 'v');
          E.put kv ~key:"other" ~value:other;
          corrupt a kv;
          expect_corrupt_read_stopped v (what "run_batch")
            (Spp_access.run_guarded (fun () ->
               ignore (E.run_batch kv [| E.B_get key |])));
          expect_corrupt_read_stopped v (what "get")
            (Spp_access.run_guarded (fun () -> ignore (E.get kv key)));
          let st =
            Spp_shard.Shard.create ~nbuckets:1 ~pool_size:(1 lsl 22)
              ~engine:spec ~nshards:1 v
          in
          Spp_shard.Shard.put st ~key ~value:(String.make 10 'v');
          Spp_shard.Shard.put st ~key:"other" ~value:other;
          let sh = Spp_shard.Shard.shard st 0 in
          corrupt (Spp_shard.Shard.shard_access sh) (Spp_shard.Shard.shard_kv sh);
          let sv = Spp_shard.Serve.create st in
          let get k =
            Spp_shard.Serve.await sv
              (Spp_shard.Serve.submit sv (Spp_shard.Serve.Get k))
          in
          (match (v, get key) with
           | Spp_access.Pmdk, Spp_shard.Serve.Value (Some _)
           | ( (Spp_access.Spp | Safepm | Memcheck | Spp_all),
               Spp_shard.Serve.Failed (Spp_shard.Serve.Op_raised _) ) ->
             ()
           | _, r ->
             Alcotest.failf "%s answered %a" (what "Serve get")
               Spp_shard.Serve.pp_reply r);
          check_bool (what "Serve get of another key") true
            (get "other" = Spp_shard.Serve.Value (Some other));
          Spp_shard.Serve.stop sv)
        Spp_access.all_variants)
    [ Spp_pmemkv.Engines.cmap; Spp_pmemkv.Engines.btree ]

(* Every entry into an engine holds its pool's lane, so two domains
   running the same synchronous gets on one map take turns in its Space:
   the loads and address translations they count add up to exactly what
   the same gets count on one domain (a Space is single-domain state —
   its counters and software TLB are plain fields). *)
let test_gets_hold_the_lane () =
  List.iter
    (fun spec ->
      let module E = Spp_pmemkv.Engine in
      let a = mk Spp_access.Spp in
      let kv = E.create ~nbuckets:1024 spec a in
      let nkeys = 2_000 in
      let key i = Spp_pmemkv.Db_bench.key_of_int i in
      for i = 0 to nkeys - 1 do
        E.put kv ~key:(key i) ~value:(String.make 256 'v')
      done;
      let gets () =
        let st = Random.State.make [| 5 |] in
        for _ = 1 to 100_000 do
          ignore (E.get kv (key (Random.State.int st nkeys)))
        done
      in
      let counted run =
        let sp = a.Spp_access.space in
        Spp_sim.Space.reset_stats sp;
        run ();
        let s = Spp_sim.Space.stats sp in
        (s.Spp_sim.Space.pm_loads, s.tlb_hits + s.tlb_misses)
      in
      let one = counted (fun () -> gets (); gets ()) in
      let two =
        counted (fun () ->
          (* both start together, so their gets overlap *)
          let ready = Atomic.make false in
          let d =
            Domain.spawn (fun () ->
              Atomic.set ready true;
              gets ())
          in
          while not (Atomic.get ready) do Domain.cpu_relax () done;
          gets ();
          Domain.join d)
      in
      Alcotest.(check (pair int int))
        (E.spec_name spec ^ ": loads and translations, two domains")
        one two)
    [ Spp_pmemkv.Engines.cmap; Spp_pmemkv.Engines.btree ]

let () =
  Alcotest.run "spp_pmemkv"
    [
      ( "cmap",
        [
          Alcotest.test_case "put/get/remove on all variants" `Quick
            test_put_get_all_variants;
          Alcotest.test_case "overwrite same/diff size" `Quick
            test_overwrite_same_and_different_size;
          Alcotest.test_case "oracle random ops" `Quick test_oracle_random_ops;
          Alcotest.test_case "crash durability" `Quick test_crash_durability;
          Alcotest.test_case "attach after remove-heavy churn" `Quick
            test_attach_after_remove_churn;
          Alcotest.test_case "1 KiB values" `Quick test_large_values;
          Alcotest.test_case "corrupt vlen prevented on checked variants"
            `Quick test_corrupt_vlen_guarded;
          Alcotest.test_case "safepm: one shadow persist per lifetime event"
            `Quick test_safepm_shadow_fences;
          Alcotest.test_case "sync put/remove cost a one-op batch" `Quick
            test_sync_ops_are_one_op_batches;
        ] );
      ( "bmap",
        [
          Alcotest.test_case "oracle random ops + full scan" `Quick
            test_bmap_oracle_random_ops;
          Alcotest.test_case "scan bounds, order, limit" `Quick
            test_bmap_scan_semantics;
          Alcotest.test_case "mid-batch scan visibility" `Quick
            test_bmap_batch_scan_visibility;
          Alcotest.test_case "attach after batched churn" `Quick
            test_bmap_attach_after_churn;
          Alcotest.test_case "40k ascending single-op puts fit the log"
            `Quick test_bmap_ascending_puts;
        ] );
      ( "engines",
        [
          Alcotest.test_case "cmap scan + registry" `Quick
            test_cmap_scan_and_registry;
          Alcotest.test_case "reads match a Map model on both engines" `Quick
            test_reads_match_model;
          Alcotest.test_case "safepm pools reopen on both engines" `Quick
            test_safepm_reopen;
          Alcotest.test_case "corrupt vlen stopped on the served path" `Quick
            test_corrupt_vlen_served;
          Alcotest.test_case "two domains' gets take the pool's lane" `Quick
            test_gets_hold_the_lane;
        ] );
      ( "db_bench",
        [ Alcotest.test_case "all workloads run" `Quick test_db_bench_runs ] );
    ]
