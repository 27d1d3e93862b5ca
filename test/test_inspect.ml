(* Tests for the pool inspector/checker: clean pools pass, deliberate
   corruptions are pinpointed, and — the strong form — *every reachable
   crash state* of allocator and transaction activity passes the full
   integrity check after recovery. *)

open Spp_pmdk

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let spp_mode = Mode.Spp Spp_core.Config.default

let mk_pool ?(mode = Mode.Native) () =
  let space = Spp_sim.Space.create () in
  Pool.create space ~base:4096 ~size:(1 lsl 18) ~mode ~name:"fsck"

let test_fresh_pool_consistent () =
  check_bool "fresh pool" true (Inspect.is_consistent (mk_pool ()))

let test_busy_pool_consistent () =
  let p = mk_pool ~mode:spp_mode () in
  let root = Pool.root p ~size:64 in
  let oids = ref [] in
  for i = 1 to 50 do
    oids := Pool.alloc p ~size:(16 * i) :: !oids
  done;
  List.iteri (fun i o -> if i mod 3 = 0 then Pool.free_ p o) !oids;
  ignore (Pool.alloc p ~size:100 ~dest:root.Oid.off);
  let issues = Inspect.check p in
  Alcotest.(check (list string)) "no issues" []
    (List.map Inspect.issue_to_string issues)

(* Header word 0 holds the requested size of every carved block, live
   or free; [Pool.alloc_size] and the engines' attach paths trust it. *)
let test_detects_corrupted_req_size () =
  let p = mk_pool () in
  let a = Pool.alloc p ~size:64 and b = Pool.alloc p ~size:64 in
  Pool.free_ p a;
  check_bool "clean before" true (Inspect.is_consistent p);
  let smash oid v =
    Pool.store_word p ~off:(oid.Oid.off - Rep.block_header_size) v
  in
  let req_size_issues () =
    List.filter
      (function Inspect.Bad_requested_size _ -> true | _ -> false)
      (Inspect.check p)
  in
  smash a 0x31337;  (* free block: beyond its 128 B class *)
  smash b 0;        (* live block: not a requested size *)
  check_int "both blocks flagged" 2 (List.length (req_size_issues ()))

(* A flipped bit in a state word's class field: the walk cannot know
   where the next block starts. [info] must still return (the walk
   stops there) and [check] must name the header, as [sppctl pool-open]
   prints it. *)
let test_flipped_state_word () =
  let p = mk_pool () in
  let a = Pool.alloc p ~size:64 in
  ignore (Pool.alloc p ~size:300);
  let soff = a.Oid.off - 8 in
  let state = Pool.load_word p ~off:soff in
  Pool.store_word p ~off:soff (state lxor (1 lsl 40));
  let i = Inspect.info p in
  check_int "walk stops at the bad header" 0
    i.Inspect.i_stats.Heap.allocated_blocks;
  match Inspect.check p with
  | [ Inspect.Bad_block_header { data_off; _ } ] ->
    check_int "names the flipped block" a.Oid.off data_off
  | issues ->
    Alcotest.failf "expected one bad header, got [%s]"
      (String.concat "; " (List.map Inspect.issue_to_string issues))

let test_detects_corrupted_root () =
  let p = mk_pool () in
  let (_ : Oid.t) = Pool.root p ~size:64 in
  (* smash the root oid's offset field in the header *)
  Pool.store_word p
    ~off:(Rep.off_root + 8)   (* native layout: uuid, off *)
    0xDEAD0;
  check_bool "root corruption detected" false (Inspect.is_consistent p)

let test_detects_active_lane () =
  let p = mk_pool () in
  Pool.store_word p ~off:Rep.off_tx_state Rep.tx_active;
  check_bool "active lane flagged" false (Inspect.is_consistent p)

let test_info_summary () =
  let p = mk_pool ~mode:spp_mode () in
  ignore (Pool.alloc p ~size:200);
  let i = Inspect.info p in
  check_int "one live block" 1 i.Inspect.i_stats.Heap.allocated_blocks;
  check_bool "mode string" true (i.Inspect.i_mode = "spp(tag=26)");
  check_bool "printable" true
    (String.length (Format.asprintf "%a" Inspect.pp_info i) > 0)

(* The strong test: explore crash states of real allocator + tx activity
   and run the FULL integrity check on every recovered image. *)

let test_fsck_over_crash_states_alloc () =
  let p = mk_pool ~mode:spp_mode () in
  let root = Pool.root p ~size:64 in
  let result =
    Spp_pmemcheck.Pmreorder.explore ~pool:p
      ~workload:(fun () ->
        let o = Pool.alloc p ~size:144 ~dest:root.Oid.off in
        let o = Pool.realloc p o ~size:600 ~dest:root.Oid.off in
        Pool.free_ p o ~dest:root.Oid.off)
      ~consistent:Inspect.is_consistent ()
  in
  check_int
    (Format.asprintf "alloc/realloc/free fsck: %a"
       Spp_pmemcheck.Pmreorder.pp_result result)
    0 result.Spp_pmemcheck.Pmreorder.failures

let test_fsck_over_crash_states_tx () =
  let p = mk_pool ~mode:spp_mode () in
  let oid = Pool.alloc ~zero:true p ~size:64 in
  let result =
    Spp_pmemcheck.Pmreorder.explore ~pool:p
      ~workload:(fun () ->
        Pool.with_tx p (fun () ->
          Pool.tx_add_range p ~off:oid.Oid.off ~len:32;
          Pool.store_word p ~off:oid.Oid.off 1;
          let fresh = Pool.tx_alloc p ~size:80 in
          Pool.store_word p ~off:fresh.Oid.off 2;
          Pool.tx_free p oid))
      ~consistent:Inspect.is_consistent ()
  in
  check_int
    (Format.asprintf "tx fsck: %a" Spp_pmemcheck.Pmreorder.pp_result result)
    0 result.Spp_pmemcheck.Pmreorder.failures

let () =
  Alcotest.run "spp_inspect"
    [
      ( "check",
        [
          Alcotest.test_case "fresh pool consistent" `Quick
            test_fresh_pool_consistent;
          Alcotest.test_case "busy pool consistent" `Quick
            test_busy_pool_consistent;
          Alcotest.test_case "corrupted req size detected" `Quick
            test_detects_corrupted_req_size;
          Alcotest.test_case "flipped state word reported, not raised"
            `Quick test_flipped_state_word;
          Alcotest.test_case "corrupted root detected" `Quick
            test_detects_corrupted_root;
          Alcotest.test_case "active lane flagged" `Quick
            test_detects_active_lane;
          Alcotest.test_case "info summary" `Quick test_info_summary;
        ] );
      ( "fsck-over-crash-states",
        [
          Alcotest.test_case "alloc/realloc/free" `Quick
            test_fsck_over_crash_states_alloc;
          Alcotest.test_case "transaction" `Quick test_fsck_over_crash_states_tx;
        ] );
    ]
