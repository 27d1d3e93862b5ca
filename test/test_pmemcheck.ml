(* Tests for the pmemcheck trace checker and the pmreorder crash-state
   explorer (paper §VI-E): PMDK/SPP metadata updates must be clean, a
   deliberately broken protocol must be flagged, and every reachable
   crash state of a transactional update must recover consistently. *)

open Spp_sim
open Spp_pmdk
open Spp_pmemcheck

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_pool ?(mode = Mode.Native) () =
  let space = Space.create () in
  Pool.create space ~base:4096 ~size:(1 lsl 20) ~mode ~name:"pcheck"

let test_clean_tx_workload () =
  let p = mk_pool () in
  let oid = Pool.alloc ~zero:true p ~size:64 in
  let (), report =
    Pmemcheck.check_run p (fun () ->
      Pool.with_tx p (fun () ->
        Pool.tx_add_range p ~off:oid.Oid.off ~len:16;
        Pool.store_word p ~off:oid.Oid.off 1;
        Pool.store_word p ~off:(oid.Oid.off + 8) 2))
  in
  check_bool
    (Format.asprintf "clean: %a" Pmemcheck.pp_report report)
    true
    (Pmemcheck.is_clean report)

let test_clean_alloc_free_spp () =
  (* SPP's extra size-field updates must not break the discipline *)
  let p = mk_pool ~mode:(Mode.Spp Spp_core.Config.default) () in
  let root = Pool.root p ~size:64 in
  let (), report =
    Pmemcheck.check_run p (fun () ->
      let oid = Pool.alloc p ~size:128 ~dest:root.Oid.off in
      let oid2 = Pool.realloc p oid ~size:256 ~dest:root.Oid.off in
      Pool.free_ p oid2 ~dest:root.Oid.off)
  in
  check_bool
    (Format.asprintf "clean: %a" Pmemcheck.pp_report report)
    true
    (Pmemcheck.is_clean report)

let test_unflushed_store_flagged () =
  let p = mk_pool () in
  let oid = Pool.alloc ~zero:true p ~size:64 in
  let (), report =
    Pmemcheck.check_run p (fun () ->
      (* raw store with no flush: a classic pmemcheck finding *)
      Pool.store_word p ~off:oid.Oid.off 7)
  in
  check_int "one store not flushed" 1 report.Pmemcheck.not_flushed

let test_flush_without_fence_flagged () =
  let p = mk_pool () in
  let oid = Pool.alloc ~zero:true p ~size:64 in
  let (), report =
    Pmemcheck.check_run p (fun () ->
      Pool.store_word p ~off:oid.Oid.off 7;
      Space.flush (Pool.space p) (Pool.addr_of_off p oid.Oid.off) 8)
  in
  check_int "not fenced" 1 report.Pmemcheck.not_fenced;
  check_int "but flushed" 0 report.Pmemcheck.not_flushed

let test_redundant_flush_flagged () =
  let p = mk_pool () in
  let oid = Pool.alloc ~zero:true p ~size:64 in
  let (), report =
    Pmemcheck.check_run p (fun () ->
      Pool.persist p ~off:oid.Oid.off ~len:8;
      Pool.persist p ~off:oid.Oid.off ~len:8)
  in
  check_bool "redundant flush reported" true
    (report.Pmemcheck.redundant_flushes >= 1)

(* Both checkers hand the device back in the tracking state it came
   in, on return and on raise: left tracked, a pool keeps a second full
   image and every later store grows a trace nobody reads. *)

let untracked_after what p =
  let dev = Pool.dev p in
  check_bool (what ^ ": device untracked again") false (Memdev.tracking dev);
  Pool.store_word p ~off:(Pool.root p ~size:64).Oid.off 42;
  check_int (what ^ ": later stores leave no trace") 0
    (List.length (Memdev.trace dev))

let test_checkers_restore_tracking () =
  let p = mk_pool () in
  let oid = Pool.alloc ~zero:true p ~size:64 in
  let (), _ =
    Pmemcheck.check_run p (fun () -> Pool.store_word p ~off:oid.Oid.off 1)
  in
  untracked_after "check_run" p;
  (match Pmemcheck.check_run p (fun () -> failwith "workload died") with
   | _ -> Alcotest.fail "expected the workload's exception"
   | exception Failure _ -> ());
  untracked_after "check_run raising" p;
  ignore
    (Pmreorder.explore ~pool:p
       ~workload:(fun () -> Pool.persist p ~off:oid.Oid.off ~len:8)
       ~consistent:(fun _ -> true) ());
  untracked_after "explore" p;
  (* a device traced by its caller stays traced *)
  Memdev.set_tracking (Pool.dev p) true;
  let (), _ =
    Pmemcheck.check_run p (fun () -> Pool.store_word p ~off:oid.Oid.off 2)
  in
  check_bool "tracked device stays tracked" true
    (Memdev.tracking (Pool.dev p))

(* pmreorder *)

let test_pmreorder_tx_is_crash_consistent () =
  (* invariant: the two words are always equal after recovery *)
  let p = mk_pool () in
  let oid = Pool.alloc ~zero:true p ~size:64 in
  let root = Pool.root p ~size:Rep.block_header_size in
  ignore root;
  Pool.with_tx p (fun () ->
    Pool.tx_add_range p ~off:oid.Oid.off ~len:16;
    Pool.store_word p ~off:oid.Oid.off 5;
    Pool.store_word p ~off:(oid.Oid.off + 8) 5);
  let result =
    Pmreorder.explore ~pool:p
      ~workload:(fun () ->
        Pool.with_tx p (fun () ->
          Pool.tx_add_range p ~off:oid.Oid.off ~len:16;
          Pool.store_word p ~off:oid.Oid.off 9;
          Pool.store_word p ~off:(oid.Oid.off + 8) 9))
      ~consistent:(fun p' ->
        let a = Pool.load_word p' ~off:oid.Oid.off in
        let b = Pool.load_word p' ~off:(oid.Oid.off + 8) in
        a = b && (a = 5 || a = 9))
      ()
  in
  check_bool
    (Format.asprintf "no inconsistent state: %a" Pmreorder.pp_result result)
    true
    (result.Pmreorder.failures = 0);
  check_bool "explored a real state space" true
    (result.Pmreorder.states_checked > 50)

let test_pmreorder_catches_broken_protocol () =
  (* the same two-word update without a transaction IS crash inconsistent,
     and the explorer must find a bad state *)
  let p = mk_pool () in
  let oid = Pool.alloc ~zero:true p ~size:64 in
  Pool.with_tx p (fun () ->
    Pool.tx_add_range p ~off:oid.Oid.off ~len:16;
    Pool.store_word p ~off:oid.Oid.off 5;
    Pool.store_word p ~off:(oid.Oid.off + 8) 5);
  let result =
    Pmreorder.explore ~pool:p
      ~workload:(fun () ->
        Pool.store_word p ~off:oid.Oid.off 9;
        Pool.persist p ~off:oid.Oid.off ~len:8;
        Pool.store_word p ~off:(oid.Oid.off + 8) 9;
        Pool.persist p ~off:(oid.Oid.off + 8) ~len:8)
      ~consistent:(fun p' ->
        let a = Pool.load_word p' ~off:oid.Oid.off in
        let b = Pool.load_word p' ~off:(oid.Oid.off + 8) in
        a = b)
      ()
  in
  check_bool "inconsistent state found" true (result.Pmreorder.failures > 0)

let test_pmreorder_prefix_fallback () =
  (* more pending stores than the subset limit: the explorer falls back
     to program-order prefixes + singletons and still finds the bad
     state of an unordered two-word update *)
  let p = mk_pool () in
  let oid = Pool.alloc ~zero:true p ~size:128 in
  let result =
    Pmreorder.explore ~subset_limit:2 ~pool:p
      ~workload:(fun () ->
        (* eight stores, no fences until the very end *)
        for i = 0 to 7 do
          Pool.store_word p ~off:(oid.Oid.off + (8 * i)) 9
        done;
        Pool.persist p ~off:oid.Oid.off ~len:64)
      ~consistent:(fun p' ->
        (* "all or nothing" is NOT guaranteed without a tx: the explorer
           must prove that by finding a partial state *)
        let a = Pool.load_word p' ~off:oid.Oid.off in
        let b = Pool.load_word p' ~off:(oid.Oid.off + 56) in
        a = b)
      ()
  in
  check_bool "partial state found via prefixes" true
    (result.Pmreorder.failures > 0)

let test_pmreorder_allocator_publish_atomic () =
  (* crash anywhere inside an atomic alloc-with-dest: after recovery the
     slot is either null or a fully valid object *)
  let p = mk_pool ~mode:(Mode.Spp Spp_core.Config.default) () in
  let root = Pool.root p ~size:64 in
  let result =
    Pmreorder.explore ~pool:p
      ~workload:(fun () -> ignore (Pool.alloc p ~size:96 ~dest:root.Oid.off))
      ~consistent:(fun p' ->
        let slot = Pool.load_oid p' ~off:root.Oid.off in
        Oid.is_null slot
        || (slot.Oid.size = 96 && Pool.alloc_size p' slot = 96))
      ()
  in
  check_bool
    (Format.asprintf "alloc publish atomic: %a" Pmreorder.pp_result result)
    true
    (result.Pmreorder.failures = 0)

let () =
  Alcotest.run "spp_pmemcheck"
    [
      ( "pmemcheck",
        [
          Alcotest.test_case "clean tx workload" `Quick test_clean_tx_workload;
          Alcotest.test_case "clean SPP alloc/realloc/free" `Quick
            test_clean_alloc_free_spp;
          Alcotest.test_case "unflushed store flagged" `Quick
            test_unflushed_store_flagged;
          Alcotest.test_case "flush without fence flagged" `Quick
            test_flush_without_fence_flagged;
          Alcotest.test_case "redundant flush flagged" `Quick
            test_redundant_flush_flagged;
          Alcotest.test_case "checkers restore tracking state" `Quick
            test_checkers_restore_tracking;
        ] );
      ( "pmreorder",
        [
          Alcotest.test_case "tx update crash consistent" `Quick
            test_pmreorder_tx_is_crash_consistent;
          Alcotest.test_case "broken protocol caught" `Quick
            test_pmreorder_catches_broken_protocol;
          Alcotest.test_case "prefix fallback finds partial state" `Quick
            test_pmreorder_prefix_fallback;
          Alcotest.test_case "alloc publish atomic" `Quick
            test_pmreorder_allocator_publish_atomic;
        ] );
    ]
