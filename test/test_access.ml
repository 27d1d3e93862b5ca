(* Tests for the access layer and the SafePM / memcheck baselines: each
   variant must behave identically on legal programs and differ exactly in
   which illegal accesses it catches. *)

open Spp_pmdk

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk variant =
  Spp_access.create ~pool_size:(1 lsl 20)
    ~name:(Spp_access.variant_name variant) variant

let each_variant f =
  List.iter (fun v -> f (mk v)) Spp_access.all_variants

(* Legal programs behave identically on every variant. *)

let test_legal_rw_all_variants () =
  each_variant (fun a ->
    let oid = a.Spp_access.palloc 64 in
    let p = a.Spp_access.direct oid in
    a.Spp_access.store_word p 0xABCD;
    a.Spp_access.store_word (a.Spp_access.gep p 8) 0x1234;
    check_int (a.Spp_access.name ^ " word0") 0xABCD (a.Spp_access.load_word p);
    check_int (a.Spp_access.name ^ " word1") 0x1234
      (a.Spp_access.load_word (a.Spp_access.gep p 8));
    a.Spp_access.pfree oid)

let test_legal_intrinsics_all_variants () =
  each_variant (fun a ->
    let x = a.Spp_access.palloc 32 and y = a.Spp_access.palloc 32 in
    let px = a.Spp_access.direct x and py = a.Spp_access.direct y in
    a.Spp_access.write_string px "hello, world\000";
    a.Spp_access.memcpy ~dst:py ~src:px ~len:13;
    check_int (a.Spp_access.name ^ " strlen") 12 (a.Spp_access.strlen py);
    check_int (a.Spp_access.name ^ " strcmp") 0 (a.Spp_access.strcmp px py);
    a.Spp_access.memset px 'z' 32;
    check_int (a.Spp_access.name ^ " memset") (Char.code 'z')
      (a.Spp_access.load_u8 px))

let test_legal_oid_slots_all_variants () =
  each_variant (fun a ->
    let parent = a.Spp_access.palloc 64 in
    let child = a.Spp_access.palloc 48 in
    let pp = a.Spp_access.direct parent in
    a.Spp_access.store_oid_at pp child;
    let back = a.Spp_access.load_oid_at pp in
    check_bool (a.Spp_access.name ^ " oid roundtrip") true (Oid.equal child back))

(* Overflow detection differs per variant. *)

let test_contiguous_overflow_detection () =
  let outcome v =
    let a = mk v in
    let oid = a.Spp_access.palloc 64 in
    let p = a.Spp_access.direct oid in
    Spp_access.run_guarded (fun () ->
      a.Spp_access.store_word (a.Spp_access.gep p 64) 0xBAD)
  in
  (match outcome Spp_access.Pmdk with
   | Spp_access.Ok_completed -> ()
   | Prevented r -> Alcotest.failf "native pmdk should not detect: %s" r);
  (match outcome Spp_access.Spp with
   | Spp_access.Prevented _ -> ()
   | Ok_completed -> Alcotest.fail "SPP must detect one-past overflow");
  (match outcome Spp_access.Safepm with
   | Spp_access.Prevented _ -> ()
   | Ok_completed -> Alcotest.fail "SafePM must detect one-past overflow")

let test_memcheck_misses_slack_overflow () =
  (* A 33-byte request lives in a 128-byte class: a write at offset 36
     is an overflow into the slack, which memcheck (knowing only the
     usable size) misses, while SPP catches it. *)
  let run v =
    let a = mk v in
    let oid = a.Spp_access.palloc 33 in
    let p = a.Spp_access.direct oid in
    Spp_access.run_guarded (fun () ->
      a.Spp_access.store_u8 (a.Spp_access.gep p 36) 1)
  in
  (match run Spp_access.Memcheck with
   | Spp_access.Ok_completed -> ()
   | Prevented r -> Alcotest.failf "memcheck should miss slack overflow: %s" r);
  (match run Spp_access.Spp with
   | Spp_access.Prevented _ -> ()
   | Ok_completed -> Alcotest.fail "SPP must catch slack overflow")

(* The hoisted window check: [a.view] checks the furthest byte of the
   window once, at open. A 64-byte object lives in a 128-byte class. *)
let test_view_window_overflow () =
  let outcome v len =
    let a = mk v in
    let p = a.Spp_access.direct (a.Spp_access.palloc 64) in
    ignore (a.Spp_access.view p 64);
    Spp_access.run_guarded (fun () -> ignore (a.Spp_access.view p len))
  in
  let prevented what prefix = function
    | Spp_access.Prevented r ->
      check_bool (what ^ ": " ^ r) true (String.starts_with ~prefix r)
    | Ok_completed -> Alcotest.failf "%s must be stopped" what
  in
  let opens what = function
    | Spp_access.Ok_completed -> ()
    | Prevented r -> Alcotest.failf "%s should open: %s" what r
  in
  prevented "spp, 65 B" "SIGSEGV" (outcome Spp_access.Spp 65);
  prevented "safepm, 65 B" "SafePM poisoned" (outcome Spp_access.Safepm 65);
  opens "pmdk, 65 B" (outcome Spp_access.Pmdk 65);
  opens "memcheck, 65 B (class slack)" (outcome Spp_access.Memcheck 65);
  prevented "memcheck, 129 B" "memcheck" (outcome Spp_access.Memcheck 129);
  (* SPP's range check overflows the pointer for any length past the
     object, including one too long for the tag's delta field to hold
     (2^(tag_bits+1) and more at the default 26 tag bits): the load at
     the address it returns faults. *)
  let a = mk Spp_access.Spp in
  let p = a.Spp_access.direct (a.Spp_access.palloc 64) in
  List.iter
    (fun len ->
      prevented
        (Printf.sprintf "spp check_range, %d B" len)
        "SIGSEGV"
        (Spp_access.run_guarded (fun () ->
           ignore (a.Spp_access.load_word (a.Spp_access.check_range p len)))))
    [ 65; (1 lsl 27) + 11; (1 lsl 61) + 11 ]

let test_safepm_redzone_and_freed () =
  let a = mk Spp_access.Safepm in
  let oid = a.Spp_access.palloc 64 in
  let p = a.Spp_access.direct oid in
  (* write into the redzone *)
  (match Spp_access.run_guarded (fun () ->
     a.Spp_access.store_u8 (a.Spp_access.gep p 70) 1)
   with
   | Spp_access.Prevented _ -> ()
   | Ok_completed -> Alcotest.fail "SafePM must catch redzone write");
  (* use after free *)
  a.Spp_access.pfree oid;
  match Spp_access.run_guarded (fun () -> ignore (a.Spp_access.load_word p)) with
  | Spp_access.Prevented _ -> ()
  | Ok_completed -> Alcotest.fail "SafePM must catch use-after-free"

(* The checkers follow every allocation path the pool has. A one-bucket
   cmap keeps its newest entry at the head of the chain. *)
let head_entry a kv =
  let open Spp_access in
  a.direct (a.load_oid_at (a.direct (Spp_pmemkv.Engine.root_oid kv)))

let read_u8 a p =
  Spp_access.run_guarded (fun () -> ignore (a.Spp_access.load_u8 p))

let completes what = function
  | Spp_access.Ok_completed -> ()
  | Prevented r -> Alcotest.failf "%s should complete: %s" what r

let stopped what = function
  | Spp_access.Prevented _ -> ()
  | Ok_completed -> Alcotest.failf "%s must be stopped" what

let test_safepm_batch_entry_zones () =
  let a = mk Spp_access.Safepm in
  let kv = Spp_pmemkv.Engine.create ~nbuckets:1 Spp_pmemkv.Engines.cmap a in
  ignore
    (Spp_pmemkv.Engine.run_batch kv
       [| Spp_pmemkv.Engine.B_put { key = "k"; value = String.make 21 'v' } |]);
  (* entry: [next oid | klen | vlen | key | value], 54 bytes *)
  let size = a.Spp_access.oid_size + 16 + 1 + 21 in
  let p = head_entry a kv in
  completes "last byte of a batch-allocated entry" (read_u8 a (p + size - 1));
  stopped "1-byte overflow past a batch-allocated entry" (read_u8 a (p + size))

(* A free through the batch path, a transaction's allocation and its
   free each take effect for the checker exactly when they do for the
   program: at the commit, and undone on abort. A batch's allocation
   takes effect when it is made, so a later op of the same batch reads
   the block, and it is undone when the batch raises. *)
let test_checkers_follow_batch_frees_and_aborts () =
  List.iter
    (fun v ->
      let a = mk v in
      let name what = Spp_access.variant_name v ^ ": " ^ what in
      let kv = Spp_pmemkv.Engine.create ~nbuckets:1 Spp_pmemkv.Engines.cmap a in
      (* the bucket's one entry, [null next | klen 1 | vlen 1 | "kv"],
         allocated and linked by a transaction *)
      let pool = a.Spp_access.pool and osz = a.Spp_access.oid_size in
      Pool.with_tx pool (fun () ->
        let oid = a.Spp_access.tx_palloc (osz + 18) in
        let p = a.Spp_access.direct oid in
        a.Spp_access.store_oid_at p Oid.null;
        a.Spp_access.store_word (p + osz) 1;
        a.Spp_access.store_word (p + osz + 8) 1;
        a.Spp_access.write_string (p + osz + 16) "kv";
        let buckets = Spp_pmemkv.Engine.root_oid kv in
        Pool.tx_add_range pool ~off:buckets.Oid.off ~len:osz;
        a.Spp_access.store_oid_at (a.Spp_access.direct buckets) oid);
      Alcotest.(check (option string)) (name "the tx-built entry reads back")
        (Some "v") (Spp_pmemkv.Engine.get kv "k");
      let p = head_entry a kv in
      ignore
        (Spp_pmemkv.Engine.run_batch kv [| Spp_pmemkv.Engine.B_remove "k" |]);
      stopped (name "read of a batch-freed, sync-allocated entry")
        (read_u8 a p);
      let abort f =
        try Pool.with_tx a.Spp_access.pool (fun () -> f (); raise Exit)
        with Exit -> ()
      in
      let fresh = ref 0 in
      abort (fun () ->
        fresh := a.Spp_access.direct (a.Spp_access.tx_palloc 64));
      stopped (name "read of an aborted tx_palloc block") (read_u8 a !fresh);
      let oid = a.Spp_access.palloc 64 in
      abort (fun () -> a.Spp_access.tx_pfree oid);
      completes (name "read after an aborted tx_pfree")
        (read_u8 a (a.Spp_access.direct oid));
      let batch ops =
        Spp_access.run_guarded (fun () ->
          ignore (Spp_pmemkv.Engine.run_batch kv ops))
      in
      let put k = Spp_pmemkv.Engine.B_put { key = k; value = "v" } in
      completes (name "a batch reading the entry its first op put")
        (batch [| put "a"; Spp_pmemkv.Engine.B_get "a" |]);
      completes (name "a batch removing the entry its first op put")
        (batch [| put "b"; Spp_pmemkv.Engine.B_remove "b" |]);
      (* one block from a closed op of the batch, one from its open op *)
      let fresh = Array.make 2 0 in
      let alloc bt i =
        Redo.batch_op_begin bt;
        fresh.(i) <- a.Spp_access.direct (Pool.batch_alloc pool bt ~size:64)
      in
      (try
         Pool.with_batch pool (fun bt ->
           alloc bt 0;
           Redo.batch_op_end bt;
           alloc bt 1;
           raise Exit)
       with Exit -> ());
      Array.iter
        (fun p -> stopped (name "read of a raising batch's block") (read_u8 a p))
        fresh)
    [ Spp_access.Safepm; Spp_access.Memcheck ]

(* A fresh block is stored through the variant's range check: a store
   one byte past the block is stopped by every checker, and PMDK lets it
   through. *)
let test_fresh_store_checked () =
  List.iter
    (fun v ->
      let a = mk v in
      let name what = Spp_access.variant_name v ^ ": " ^ what in
      let pool = a.Spp_access.pool in
      let store ~past =
        Spp_access.run_guarded (fun () ->
          Pool.with_batch pool (fun bt ->
            Redo.batch_op_begin bt;
            (* 128 B is a size class: the object fills its block *)
            let oid = Pool.batch_alloc pool bt ~size:128 in
            check_int (name "usable size") 128 (Pool.usable_size pool oid);
            let len = 128 + past in
            let buf = Pool.batch_buffer pool bt len in
            Spp_pmemkv.Engine.store_fresh a bt oid buf ~pos:0 ~len;
            Redo.batch_op_end bt))
      in
      completes (name "a store of the whole block") (store ~past:0);
      (if v = Spp_access.Pmdk then completes else stopped)
        (name "a store one byte past the block") (store ~past:1))
    Spp_access.all_variants

let test_spp_memcpy_overflow_detected () =
  let a = mk Spp_access.Spp in
  let src = a.Spp_access.palloc 128 and dst = a.Spp_access.palloc 64 in
  let psrc = a.Spp_access.direct src and pdst = a.Spp_access.direct dst in
  match Spp_access.run_guarded (fun () ->
    a.Spp_access.memcpy ~dst:pdst ~src:psrc ~len:128)
  with
  | Spp_access.Prevented _ -> ()
  | Ok_completed -> Alcotest.fail "SPP wrapper must catch memcpy overflow"

let test_spp_external_call_unprotected () =
  (* Masking for an external callee removes all protection — the paper's
     documented limitation (§IV-G). *)
  let a = mk Spp_access.Spp in
  let oid = a.Spp_access.palloc 16 in
  let p = a.Spp_access.direct oid in
  let oob = a.Spp_access.gep p 20 in
  let raw = a.Spp_access.for_external oob in
  (* the "external library" writes through the raw pointer: no fault *)
  match Spp_access.run_guarded (fun () ->
    Spp_sim.Space.store_u8 a.Spp_access.space raw 7)
  with
  | Spp_access.Ok_completed -> ()
  | Prevented r -> Alcotest.failf "external write should succeed: %s" r

let test_spp_ptr_to_int_roundtrip_loses_tag () =
  let a = mk Spp_access.Spp in
  let oid = a.Spp_access.palloc 16 in
  let p = a.Spp_access.direct oid in
  let i = a.Spp_access.ptr_to_int p in
  (* int-to-pointer: the integer has no tag; accesses through it are
     unprotected (paper §IV-G) *)
  check_bool "integer is the plain address" true
    (i = Spp_core.Encoding.address Spp_core.Config.default p);
  match Spp_access.run_guarded (fun () ->
    Spp_sim.Space.store_u8 a.Spp_access.space (i + 20) 7)
  with
  | Spp_access.Ok_completed -> ()
  | Prevented r -> Alcotest.failf "int2ptr write should succeed: %s" r

let test_safepm_space_overhead_visible () =
  (* SafePM burns pool space on shadow + redzones; SPP only pays the oid
     size field. *)
  let sp = mk Spp_access.Safepm in
  let spp = mk Spp_access.Spp in
  for _ = 1 to 10 do
    ignore (sp.Spp_access.palloc 64);
    ignore (spp.Spp_access.palloc 64)
  done;
  let s1 = Pool.heap_stats sp.Spp_access.pool in
  let s2 = Pool.heap_stats spp.Spp_access.pool in
  check_bool "safepm uses more heap" true
    (s1.Heap.allocated_bytes > s2.Heap.allocated_bytes)

(* A checked access allocates what Pmdk's does: nothing for a word or a
   byte, the window record for a view, the oid record for an oid load.
   Minor words per call, over 1,000 calls, less the empty loop's. *)
let test_checked_access_allocates_nothing () =
  let per_call f =
    let n = 1000 in
    let words g =
      let w0 = Gc.minor_words () in
      for _ = 1 to n do g () done;
      Gc.minor_words () -. w0
    in
    let empty = words (fun () -> ()) in
    Float.to_int (Float.round ((words f -. empty) /. float_of_int n))
  in
  List.iter
    (fun v ->
      let a = mk v in
      let p = a.Spp_access.direct (a.Spp_access.palloc 64) in
      List.iter
        (fun (what, expected, f) ->
          check_int
            (Printf.sprintf "%s %s words/call" (Spp_access.variant_name v) what)
            expected (per_call f))
        [ ("load_word", 0, fun () -> ignore (a.Spp_access.load_word p));
          ("store_word", 0, fun () -> a.Spp_access.store_word p 7);
          ("load_u8", 0, fun () -> ignore (a.Spp_access.load_u8 p));
          ("view", 5, fun () -> ignore (a.Spp_access.view p 64));
          ("load_oid_at", 4, fun () -> ignore (a.Spp_access.load_oid_at p)) ])
    (Spp_access.all_variants @ [ Spp_access.Spp_all ])

let () =
  Alcotest.run "spp_access"
    [
      ( "legal",
        [
          Alcotest.test_case "rw on all variants" `Quick
            test_legal_rw_all_variants;
          Alcotest.test_case "intrinsics on all variants" `Quick
            test_legal_intrinsics_all_variants;
          Alcotest.test_case "oid slots on all variants" `Quick
            test_legal_oid_slots_all_variants;
        ] );
      ( "detection",
        [
          Alcotest.test_case "contiguous overflow" `Quick
            test_contiguous_overflow_detection;
          Alcotest.test_case "memcheck misses slack overflow" `Quick
            test_memcheck_misses_slack_overflow;
          Alcotest.test_case "view window overflow" `Quick
            test_view_window_overflow;
          Alcotest.test_case "safepm redzone + UAF" `Quick
            test_safepm_redzone_and_freed;
          Alcotest.test_case "safepm zones a batch-allocated entry" `Quick
            test_safepm_batch_entry_zones;
          Alcotest.test_case "checkers follow batch frees and aborts" `Quick
            test_checkers_follow_batch_frees_and_aborts;
          Alcotest.test_case "spp memcpy overflow" `Quick
            test_spp_memcpy_overflow_detected;
          Alcotest.test_case "spp external call unprotected" `Quick
            test_spp_external_call_unprotected;
          Alcotest.test_case "spp int2ptr loses tag" `Quick
            test_spp_ptr_to_int_roundtrip_loses_tag;
          Alcotest.test_case "fresh-block stores are checked" `Quick
            test_fresh_store_checked;
        ] );
      ( "space",
        [
          Alcotest.test_case "safepm space overhead visible" `Quick
            test_safepm_space_overhead_visible;
          Alcotest.test_case "checked accesses allocate nothing" `Quick
            test_checked_access_allocates_nothing;
        ] );
    ]
