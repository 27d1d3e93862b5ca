(* Tests for the crash-point torture harness and the graceful
   pool-corruption handling it leans on. *)

open Spp_sim
open Spp_pmdk
open Spp_torture

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Full crash-point enumeration: every durability event plus the clean
   run must recover and satisfy the workload oracle. *)
let full_enum w =
  let r = Torture.run w in
  check_int "crash points = events + clean run" (r.Torture.r_events + 1)
    r.Torture.r_crash_points;
  check_int "zero invariant failures" 0 r.Torture.r_invariant_failures;
  check_int "every crash point recovered" r.Torture.r_crash_points
    r.Torture.r_recovered

let test_kvstore_full () = full_enum (Workloads.kvstore ~ops:6 ())
let test_pmemlog_full () = full_enum (Workloads.pmemlog ~ops:6 ())
let test_counter_full () = full_enum (Workloads.counter ~ops:6 ())

(* Group commit under the same full enumeration: a crash at every
   durability event of a batched multi-put must recover onto a prefix of
   whole ops — the kvbatch oracle rejects torn ops, holes and reordering
   across ops, so zero invariant failures here is the crash-atomicity
   half of the serve pipeline's contract. *)
let test_kvbatch_full () = full_enum (Workloads.kvbatch ~ops:8 ())

let test_kvbatch_native_full () =
  full_enum (Workloads.kvbatch ~variant:Spp_access.Pmdk ~ops:6 ())

let test_native_variant () =
  full_enum (Workloads.counter ~variant:Spp_access.Pmdk ~ops:4 ())

(* Failover differential under the same full enumeration: at every
   durability event of the replicated batch program, the promoted
   replica must serve a whole-op prefix that never leads cold recovery
   of the primary, lags it by at most one commit on a lossless channel,
   and holds every acked op — the promotion-equivalence oracle. *)
let test_kvfailover_full () = full_enum (Workloads.kvfailover ~ops:8 ())

let test_kvfailover_native_full () =
  full_enum (Workloads.kvfailover ~variant:Spp_access.Pmdk ~ops:6 ())

(* Same enumeration over a lossy channel with a tiny retry budget: the
   replica may be declared dead mid-run, after which only the structural
   half of the oracle (valid prefix, never leading) is required. *)
let test_kvfailover_drop_full () =
  full_enum (Workloads.kvfailover_drop ~ops:8 ())

(* Failover with the B-tree engine behind the same seam: the
   promotion-equivalence oracle must hold unchanged — replication ships
   redo payloads and never looks inside the engine. *)
let test_kvfailover_btree_full () =
  full_enum
    (Workloads.kvfailover ~ops:8 ~engine:Spp_pmemkv.Engines.btree
       ~name:"kvfailover-btree" ())

(* Ordered-scan torture, full enumeration on both engines and both
   access-variant extremes: every durability event of the interleaved
   put/remove/scan batch program must recover onto a whole-op-prefix
   snapshot whose full-range scan is strictly ascending. *)
let test_kvscan_full () = full_enum (Workloads.kvscan ~ops:9 ())

let test_kvscan_native_full () =
  full_enum (Workloads.kvscan ~variant:Spp_access.Pmdk ~ops:8 ())

let test_kvscan_btree_full () = full_enum (Workloads.kvscan_btree ~ops:9 ())

let test_kvscan_btree_native_full () =
  full_enum (Workloads.kvscan_btree ~variant:Spp_access.Pmdk ~ops:8 ())

(* Mid-migration crash torture: the slot-migration protocol's
   copy -> claim flip -> delete must serve every key exactly once from
   the claim-designated owner at every crash point, on both engines. *)
let test_kvreshard_full () = full_enum (Workloads.kvreshard ~ops:8 ())

let test_kvreshard_btree_full () =
  full_enum (Workloads.kvreshard_btree ~ops:8 ())

let test_budget_sampling () =
  let r = Torture.run ~budget:10 (Workloads.counter ~ops:8 ()) in
  check_bool "within budget" true (r.Torture.r_crash_points <= 10);
  check_bool "sampled fewer than total" true
    (r.Torture.r_crash_points < r.Torture.r_events + 1);
  check_int "zero invariant failures" 0 r.Torture.r_invariant_failures

let test_torn_crashes () =
  List.iter
    (fun w ->
      let r =
        Torture.run ~budget:60 ~seed:3
          ~faults:{ Torture.torn = true; bitflips = 0 }
          w
      in
      check_int
        ("torn zero failures: " ^ r.Torture.r_workload)
        0 r.Torture.r_invariant_failures)
    [ Workloads.pmemlog ~ops:6 (); Workloads.counter ~ops:6 ();
      Workloads.kvfailover ~ops:6 () ]

let test_bitflips_accounted () =
  (* Media rot may corrupt live data (the harness's job is to report it),
     but every crash point must land in exactly one bucket and the typed
     rejection path must stay exception-free. *)
  let r =
    Torture.run ~budget:40 ~seed:5
      ~faults:{ Torture.torn = false; bitflips = 4 }
      (Workloads.counter ~ops:6 ())
  in
  check_int "every point accounted" r.Torture.r_crash_points
    (r.Torture.r_recovered + r.Torture.r_rejected
     + r.Torture.r_invariant_failures)

let test_seed_reproducible () =
  let faults = { Torture.torn = true; bitflips = 2 } in
  let run () =
    Torture.run ~budget:30 ~seed:11 ~faults (Workloads.counter ~ops:5 ())
  in
  check_bool "identical reports" true (run () = run ())

(* Seeded fault plans the tests above do not run: torn counter stores
   under another seed, torn stores under group commit, and torn stores
   plus media bit rot on the log. *)
let test_fault_plans () =
  List.iter
    (fun (budget, seed, faults, w) ->
      let r = Torture.run ~budget ~seed ~faults w in
      check_int ("zero invariant failures: " ^ r.Torture.r_workload) 0
        r.Torture.r_invariant_failures)
    [ (40, 7, { Torture.torn = true; bitflips = 0 }, Workloads.counter ~ops:6 ());
      (30, 9, { Torture.torn = true; bitflips = 2 }, Workloads.pmemlog ~ops:5 ());
      (40, 13, { Torture.torn = true; bitflips = 0 }, Workloads.kvbatch ~ops:6 ()) ]

(* Graceful pool-corruption handling *)

let mk_image () =
  let space = Space.create () in
  let p =
    Pool.create space ~base:4096 ~size:(1 lsl 16) ~mode:Mode.Native
      ~name:"corruptible"
  in
  let root = Pool.root p ~size:16 in
  Pool.store_word p ~off:root.Oid.off 9;
  Pool.persist p ~off:root.Oid.off ~len:8;
  Pool.dev p

let reopen dev = Pool.open_dev (Space.create ()) ~base:4096 dev

let test_corrupt_magic_bad_header () =
  let dev = mk_image () in
  Memdev.corrupt_durable dev ~off:0 ~bit:3;
  match reopen dev with
  | Error (Pool.Bad_header _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Pool.pool_error_to_string e)
  | Ok _ -> Alcotest.fail "corrupted magic accepted"

let test_corrupt_uuid_bad_checksum () =
  let dev = mk_image () in
  Memdev.corrupt_durable dev ~off:0x008 ~bit:0;   (* uuid byte *)
  match reopen dev with
  | Error (Pool.Bad_checksum { stored; computed }) ->
    check_bool "mismatch reported" true (stored <> computed)
  | Error e -> Alcotest.failf "wrong error: %s" (Pool.pool_error_to_string e)
  | Ok _ -> Alcotest.fail "corrupted uuid accepted"

let test_undersized_device_truncated () =
  let dev = Memdev.create_persistent ~name:"tiny" 4096 in
  match Pool.open_dev (Space.create ()) ~base:4096 dev with
  | Error (Pool.Truncated { actual; _ }) -> check_int "actual size" 4096 actual
  | Error e -> Alcotest.failf "wrong error: %s" (Pool.pool_error_to_string e)
  | Ok _ -> Alcotest.fail "undersized device accepted"

let test_of_dev_raises_on_corruption () =
  let dev = mk_image () in
  Memdev.corrupt_durable dev ~off:0 ~bit:0;
  match Pool.of_dev (Space.create ()) ~base:4096 dev with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_header_fuzz_no_exception_escape () =
  (* A bit flip anywhere in the header must yield Ok or a typed Error —
     never an escaping exception. *)
  for off = 0 to 0x7F do
    let dev = mk_image () in
    Memdev.corrupt_durable dev ~off ~bit:(off mod 8);
    match reopen dev with
    | Ok _ | Error _ -> ()
    | exception e ->
      Alcotest.failf "flip at 0x%x escaped with %s" off (Printexc.to_string e)
  done

let test_bad_block_faults_pool_load () =
  let space = Space.create () in
  let p =
    Pool.create space ~base:4096 ~size:(1 lsl 16) ~mode:Mode.Native
      ~name:"badblock"
  in
  let oid = Pool.alloc p ~size:64 in
  Pool.store_word p ~off:oid.Oid.off 0x5151;
  check_int "healthy load" 0x5151 (Pool.load_word p ~off:oid.Oid.off);
  Memdev.add_bad_block (Pool.dev p) ~off:oid.Oid.off ~len:64;
  (match Pool.load_word p ~off:oid.Oid.off with
   | _ -> Alcotest.fail "expected SIGBUS from bad block"
   | exception Fault.Fault (Fault.Bus_error, _) -> ());
  Memdev.clear_bad_blocks (Pool.dev p);
  check_int "readable again" 0x5151 (Pool.load_word p ~off:oid.Oid.off)

let () =
  Alcotest.run "spp_torture"
    [
      ( "enumeration",
        [
          Alcotest.test_case "kvstore survives every crash point" `Quick
            test_kvstore_full;
          Alcotest.test_case "pmemlog survives every crash point" `Quick
            test_pmemlog_full;
          Alcotest.test_case "counter survives every crash point" `Quick
            test_counter_full;
          Alcotest.test_case "group-committed batch lands on whole-op prefix"
            `Quick test_kvbatch_full;
          Alcotest.test_case "group commit, native variant" `Quick
            test_kvbatch_native_full;
          Alcotest.test_case "native variant too" `Quick test_native_variant;
          Alcotest.test_case "promoted replica equals primary recovery" `Quick
            test_kvfailover_full;
          Alcotest.test_case "failover differential, native variant" `Quick
            test_kvfailover_native_full;
          Alcotest.test_case "failover under channel loss" `Quick
            test_kvfailover_drop_full;
          Alcotest.test_case "failover promotion, btree engine" `Quick
            test_kvfailover_btree_full;
          Alcotest.test_case "scans land on ordered whole-op prefixes (cmap)"
            `Quick test_kvscan_full;
          Alcotest.test_case "kvscan, native variant" `Quick
            test_kvscan_native_full;
          Alcotest.test_case "scans land on ordered whole-op prefixes (btree)"
            `Quick test_kvscan_btree_full;
          Alcotest.test_case "kvscan-btree, native variant" `Quick
            test_kvscan_btree_native_full;
          Alcotest.test_case "mid-migration crashes serve keys exactly once"
            `Quick test_kvreshard_full;
          Alcotest.test_case "kvreshard, btree engine" `Quick
            test_kvreshard_btree_full;
          Alcotest.test_case "budget sampling" `Quick test_budget_sampling;
        ] );
      ( "media faults",
        [
          Alcotest.test_case "torn crashes survive" `Quick test_torn_crashes;
          Alcotest.test_case "seeded fault plans recover" `Quick
            test_fault_plans;
          Alcotest.test_case "bit flips fully accounted" `Quick
            test_bitflips_accounted;
          Alcotest.test_case "seeded runs reproduce" `Quick
            test_seed_reproducible;
        ] );
      ( "graceful degradation",
        [
          Alcotest.test_case "corrupt magic -> Bad_header" `Quick
            test_corrupt_magic_bad_header;
          Alcotest.test_case "corrupt uuid -> Bad_checksum" `Quick
            test_corrupt_uuid_bad_checksum;
          Alcotest.test_case "undersized device -> Truncated" `Quick
            test_undersized_device_truncated;
          Alcotest.test_case "of_dev raises Invalid_argument" `Quick
            test_of_dev_raises_on_corruption;
          Alcotest.test_case "header fuzz: no exception escapes" `Quick
            test_header_fuzz_no_exception_escape;
          Alcotest.test_case "bad block faults a pool load" `Quick
            test_bad_block_faults_pool_load;
        ] );
    ]
