(* Tests for the mini-PMDK: allocator, transactions, recovery, and the
   SPP-adapted persistent-pointer representation. *)

open Spp_sim
open Spp_pmdk

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let spp_cfg = Spp_core.Config.default

let mk_pool ?(mode = Mode.Native) ?(size = 1 lsl 20) () =
  let space = Space.create () in
  Pool.create space ~base:4096 ~size ~mode ~name:"test-pool"

let mk_tracked_pool ?(mode = Mode.Native) ?(size = 1 lsl 20) () =
  let p = mk_pool ~mode ~size () in
  Memdev.set_tracking (Pool.dev p) true;
  p

(* Allocation basics *)

let test_alloc_free_roundtrip () =
  let p = mk_pool () in
  let oid = Pool.alloc p ~size:100 in
  check_bool "non-null" false (Oid.is_null oid);
  check_int "requested size recorded" 100 (Pool.alloc_size p oid);
  let addr = Pool.direct p oid in
  Space.store_word (Pool.space p) addr 0xCAFE;
  check_int "data" 0xCAFE (Space.load_word (Pool.space p) addr);
  Pool.free_ p oid;
  let st = Pool.heap_stats p in
  check_int "no live blocks" 0 st.Heap.allocated_blocks

let test_free_block_reused () =
  let p = mk_pool () in
  let a = Pool.alloc p ~size:64 in
  Pool.free_ p a;
  let b = Pool.alloc p ~size:64 in
  check_int "same block reused" a.Oid.off b.Oid.off

let test_double_free_rejected () =
  let p = mk_pool () in
  let a = Pool.alloc p ~size:64 in
  Pool.free_ p a;
  Alcotest.check_raises "double free"
    (Invalid_argument "Pmdk free: block is not allocated (double free?)")
    (fun () -> Pool.free_ p a)

let test_zalloc_zeroes () =
  let p = mk_pool () in
  let a = Pool.alloc p ~size:64 in
  Space.fill (Pool.space p) (Pool.direct p a) 64 'x';
  Pool.free_ p a;
  let b = Pool.alloc ~zero:true p ~size:64 in
  check_int "same block" a.Oid.off b.Oid.off;
  check_int "zeroed" 0 (Space.load_word (Pool.space p) (Pool.direct p b))

let test_alloc_size_classes () =
  let p = mk_pool () in
  let a = Pool.alloc p ~size:1 in
  let b = Pool.alloc p ~size:33 in
  (* PMDK-style minimum class: 128 bytes *)
  check_int "min class is 128" 128 (b.Oid.off - a.Oid.off - 16)

let test_out_of_pm () =
  let p = mk_pool ~size:65536 () in
  Alcotest.check_raises "oom" Heap.Out_of_pm
    (fun () ->
      for _ = 1 to 100 do
        ignore (Pool.alloc p ~size:16384)
      done)

let test_realloc_grow_preserves () =
  let p = mk_pool () in
  let a = Pool.alloc p ~size:32 in
  Space.write_string (Pool.space p) (Pool.direct p a) "0123456789abcdef";
  let b = Pool.realloc p a ~size:4096 in
  check_bool "moved to a new class" true (a.Oid.off <> b.Oid.off);
  Alcotest.(check string) "contents preserved" "0123456789abcdef"
    (Bytes.to_string (Space.read_bytes (Pool.space p) (Pool.direct p b) 16));
  check_int "old block freed"
    1 (Pool.heap_stats p).Heap.free_blocks

let test_realloc_same_class () =
  let p = mk_pool () in
  let a = Pool.alloc p ~size:100 in
  let b = Pool.realloc p a ~size:110 in
  (* 100 and 110 share the 128-byte class *)
  check_int "block unchanged within class" a.Oid.off b.Oid.off;
  check_int "size updated" 110 (Pool.alloc_size p b)

(* Root object *)

let test_root_idempotent () =
  let p = mk_pool () in
  let r1 = Pool.root p ~size:256 in
  let r2 = Pool.root p ~size:256 in
  check_bool "same oid" true (Oid.equal r1 r2);
  check_bool "stored in header" true (Oid.equal r1 (Pool.root_oid p))

(* A pool with a redzone pads every allocation path by it and records
   the width in its header: a reopened image maps oids to blocks the
   same way, and a width that is not a multiple of 8 is a typed header
   error even under a matching checksum. *)
let test_redzone_geometry () =
  let p =
    Pool.create ~redzone:32 (Space.create ()) ~base:4096 ~size:(1 lsl 20)
      ~mode:Mode.Native ~name:"redzone"
  in
  let atomic = Pool.alloc p ~size:100 in
  let tx = Pool.with_tx p (fun () -> Pool.tx_alloc p ~size:100) in
  let batched =
    Pool.with_batch p (fun b ->
      Redo.batch_op_begin b;
      let oid = Pool.batch_alloc p b ~size:100 in
      Redo.batch_op_end b;
      oid)
  in
  let reopen img =
    Pool.open_dev (Space.create ()) ~base:4096 (Memdev.of_image ~name:"r" img)
  in
  match reopen (Memdev.durable_snapshot (Pool.dev p)) with
  | Error e -> Alcotest.failf "reopen: %s" (Pool.pool_error_to_string e)
  | Ok (p', _) ->
    check_int "redzone read back" 32 (Pool.redzone p');
    List.iter
      (fun oid ->
        check_int "oid past the left redzone" 32
          (oid.Oid.off - Pool.block_off p' oid);
        check_int "user size" 100 (Pool.alloc_size p' oid);
        check_int "usable size" (Rep.class_size (Rep.class_of_size 164) - 64)
          (Pool.usable_size p' oid);
        Pool.free_ p' oid)
      [ atomic; tx; batched ];
    check_bool "consistent after the frees" true (Inspect.is_consistent p');
    let img = Memdev.durable_snapshot (Pool.dev p') in
    let word off = Int64.to_int (Bytes.get_int64_le img off) in
    let set off v = Bytes.set_int64_le img off (Int64.of_int v) in
    set Rep.off_redzone 12;
    set Rep.off_hdr_csum
      (Rep.header_checksum ~uuid:(word Rep.off_uuid) ~psize:(1 lsl 20)
         ~mode_word:0 ~tag_bits:0 ~redzone:12);
    match reopen img with
    | Error (Pool.Bad_header _) -> ()
    | Error e -> Alcotest.failf "12-byte redzone: %s" (Pool.pool_error_to_string e)
    | Ok _ -> Alcotest.fail "a 12-byte redzone must be refused"

(* SPP mode: tagged direct + durable size *)

let test_spp_direct_is_tagged () =
  let p = mk_pool ~mode:(Mode.Spp spp_cfg) () in
  let oid = Pool.alloc p ~size:42 in
  let ptr = Pool.direct p oid in
  check_bool "pm bit" true (Spp_core.Encoding.is_pm spp_cfg ptr);
  check_int "remaining = size" 42 (Spp_core.Encoding.remaining spp_cfg ptr);
  check_int "address" (4096 + oid.Oid.off)
    (Spp_core.Encoding.address spp_cfg ptr)

let test_native_direct_is_raw () =
  let p = mk_pool () in
  let oid = Pool.alloc p ~size:42 in
  check_int "plain address" (4096 + oid.Oid.off) (Pool.direct p oid)

let test_oid_stored_size_by_mode () =
  let n = mk_pool () in
  let s = mk_pool ~mode:(Mode.Spp spp_cfg) () in
  check_int "native 16" 16 (Pool.oid_stored_size n);
  check_int "spp 24" 24 (Pool.oid_stored_size s)

let test_oid_slot_roundtrip_spp () =
  let p = mk_pool ~mode:(Mode.Spp spp_cfg) () in
  let root = Pool.root p ~size:64 in
  let oid = Pool.alloc p ~size:1234 in
  Pool.store_oid p ~off:root.Oid.off oid;
  let oid' = Pool.load_oid p ~off:root.Oid.off in
  check_bool "roundtrip" true (Oid.equal oid oid');
  check_int "size survives" 1234 oid'.Oid.size

let test_spp_object_too_large () =
  let cfg = Spp_core.Config.make ~tag_bits:10 in   (* max object 1 KiB *)
  let space = Space.create () in
  let p = Pool.create space ~base:4096 ~size:(1 lsl 20)
      ~mode:(Mode.Spp cfg) ~name:"small-tag" in
  match Pool.alloc p ~size:2048 with
  | _ -> Alcotest.fail "expected Object_too_large"
  | exception Spp_core.Encoding.Object_too_large _ -> ()

let test_spp_pool_span_checked () =
  let cfg = Spp_core.Config.make ~tag_bits:40 in   (* 21 address bits = 2 MiB *)
  let space = Space.create () in
  match
    Pool.create space ~base:4096 ~size:(1 lsl 22) ~mode:(Mode.Spp cfg)
      ~name:"too-big"
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* End-to-end overflow detection on PM objects *)

let test_spp_overflow_on_pm_object () =
  let p = mk_pool ~mode:(Mode.Spp spp_cfg) () in
  let oid = Pool.alloc p ~size:16 in
  let ptr = Pool.direct p oid in
  let space = Pool.space p in
  let cfg = spp_cfg in
  (* fill legally *)
  for i = 0 to 15 do
    let pi = Spp_core.Encoding.gep cfg ptr i in
    Space.store_u8 space (Spp_core.Encoding.check_bound cfg pi 1) i
  done;
  (* the 17th byte faults *)
  let oob = Spp_core.Encoding.gep cfg ptr 16 in
  (match
     Space.store_u8 space (Spp_core.Encoding.check_bound cfg oob 1) 99
   with
   | () -> Alcotest.fail "expected fault"
   | exception Fault.Fault _ -> ());
  (* neighbouring object unharmed *)
  let neigh = Pool.alloc p ~size:16 in
  check_int "neighbour clean" 0
    (Space.load_u8 space (Spp_core.Encoding.clean_tag cfg (Pool.direct p neigh)))

(* Transactions *)

let test_tx_commit_applies () =
  let p = mk_pool () in
  let oid = Pool.alloc ~zero:true p ~size:64 in
  Pool.with_tx p (fun () ->
    Pool.tx_add_range p ~off:oid.Oid.off ~len:8;
    Pool.store_word p ~off:oid.Oid.off 0xC0FFEE);
  check_int "committed" 0xC0FFEE (Pool.load_word p ~off:oid.Oid.off)

let test_tx_abort_restores () =
  let p = mk_pool () in
  let oid = Pool.alloc ~zero:true p ~size:64 in
  Pool.store_word p ~off:oid.Oid.off 111;
  Pool.persist p ~off:oid.Oid.off ~len:8;
  (try
     Pool.with_tx p (fun () ->
       Pool.tx_add_range p ~off:oid.Oid.off ~len:8;
       Pool.store_word p ~off:oid.Oid.off 222;
       failwith "boom")
   with Failure _ -> ());
  check_int "restored" 111 (Pool.load_word p ~off:oid.Oid.off)

let test_tx_abort_rolls_back_alloc () =
  let p = mk_pool () in
  let live_before = (Pool.heap_stats p).Heap.allocated_blocks in
  (try
     Pool.with_tx p (fun () ->
       let (_ : Oid.t) = Pool.tx_alloc p ~size:128 in
       failwith "boom")
   with Failure _ -> ());
  check_int "allocation rolled back" live_before
    (Pool.heap_stats p).Heap.allocated_blocks

let test_tx_free_deferred () =
  let p = mk_pool () in
  let oid = Pool.alloc p ~size:64 in
  Pool.with_tx p (fun () ->
    Pool.tx_free p oid;
    (* still allocated inside the tx: frees apply at commit *)
    check_int "still live inside tx" 1
      (Pool.heap_stats p).Heap.allocated_blocks);
  check_int "freed after commit" 0 (Pool.heap_stats p).Heap.allocated_blocks

let test_tx_abort_drops_free () =
  let p = mk_pool () in
  let oid = Pool.alloc p ~size:64 in
  (try
     Pool.with_tx p (fun () ->
       Pool.tx_free p oid;
       failwith "boom")
   with Failure _ -> ());
  check_int "free dropped on abort" 1
    (Pool.heap_stats p).Heap.allocated_blocks

let test_tx_nesting () =
  let p = mk_pool () in
  let oid = Pool.alloc ~zero:true p ~size:64 in
  Pool.with_tx p (fun () ->
    Pool.tx_add_range p ~off:oid.Oid.off ~len:8;
    Pool.store_word p ~off:oid.Oid.off 1;
    Pool.with_tx p (fun () ->
      Pool.tx_add_range p ~off:(oid.Oid.off + 8) ~len:8;
      Pool.store_word p ~off:(oid.Oid.off + 8) 2));
  check_int "outer" 1 (Pool.load_word p ~off:oid.Oid.off);
  check_int "inner" 2 (Pool.load_word p ~off:(oid.Oid.off + 8))

let test_tx_outside_rejected () =
  let p = mk_pool () in
  Alcotest.check_raises "no tx" Tx.Not_in_tx
    (fun () -> Pool.tx_add_range p ~off:0 ~len:8)

(* Crash recovery. Tracking mode: unfenced stores are genuinely lost. *)

let test_crash_during_tx_rolls_back () =
  let p = mk_tracked_pool () in
  let oid = Pool.alloc ~zero:true p ~size:64 in
  Pool.store_word p ~off:oid.Oid.off 42;
  Pool.persist p ~off:oid.Oid.off ~len:8;
  Pool.tx_begin p;
  Pool.tx_add_range p ~off:oid.Oid.off ~len:8;
  Pool.store_word p ~off:oid.Oid.off 99;
  (* crash before commit *)
  let report = Pool.crash_and_recover p in
  check_bool "rolled back" true (report.Pool.tx_outcome = `Rolled_back);
  check_int "old value restored" 42 (Pool.load_word p ~off:oid.Oid.off)

let test_crash_after_commit_keeps () =
  let p = mk_tracked_pool () in
  let oid = Pool.alloc ~zero:true p ~size:64 in
  Pool.with_tx p (fun () ->
    Pool.tx_add_range p ~off:oid.Oid.off ~len:8;
    Pool.store_word p ~off:oid.Oid.off 7);
  let report = Pool.crash_and_recover p in
  check_bool "clean" true (report.Pool.tx_outcome = `Clean);
  check_int "committed value durable" 7 (Pool.load_word p ~off:oid.Oid.off)

let test_crash_during_tx_alloc_no_leak () =
  let p = mk_tracked_pool () in
  Pool.tx_begin p;
  let (_ : Oid.t) = Pool.tx_alloc p ~size:64 in
  let (_ : Pool.recovery_report) = Pool.crash_and_recover p in
  check_int "no leaked blocks" 0 (Pool.heap_stats p).Heap.allocated_blocks

let test_crash_atomic_alloc_with_dest () =
  (* An atomic allocation publishing into a PM slot either fully happens
     or not at all; after recovery the slot and the heap agree. *)
  let p = mk_tracked_pool ~mode:(Mode.Spp spp_cfg) () in
  let root = Pool.root p ~size:64 in
  let oid = Pool.alloc p ~size:512 ~dest:root.Oid.off in
  let (_ : Pool.recovery_report) = Pool.crash_and_recover p in
  let slot = Pool.load_oid p ~off:root.Oid.off in
  if Oid.is_null slot then
    (* allowed: publication lost; then the heap must not leak *)
    check_int "slot empty, heap has only root" 1
      (Pool.heap_stats p).Heap.allocated_blocks
  else begin
    check_bool "slot matches allocation" true (Oid.equal slot oid);
    check_int "size durable" 512 slot.Oid.size;
    check_int "root + object live" 2 (Pool.heap_stats p).Heap.allocated_blocks
  end

let test_recovery_is_idempotent () =
  let p = mk_tracked_pool () in
  let oid = Pool.alloc ~zero:true p ~size:64 in
  Pool.tx_begin p;
  Pool.tx_add_range p ~off:oid.Oid.off ~len:8;
  Pool.store_word p ~off:oid.Oid.off 5;
  let (_ : Pool.recovery_report) = Pool.crash_and_recover p in
  let (_ : Pool.recovery_report) = Pool.crash_and_recover p in
  check_int "still consistent" 0 (Pool.load_word p ~off:oid.Oid.off)

let test_recover_completed_commit () =
  (* Crash exactly when COMMITTING becomes durable but before the commit
     work (deferred frees, lane reset) ran: recovery must finish the
     commit — snapshot values kept, the tx_free'd block actually freed. *)
  let p = mk_tracked_pool () in
  let dev = Pool.dev p in
  let root = Pool.root p ~size:16 in
  let victim = Pool.alloc p ~size:64 in
  (* tx_state stores: #1 ACTIVE at begin, #2 COMMITTING at commit *)
  let state_stores = ref 0 in
  let armed = ref false in
  Memdev.set_injector dev
    (Some
       (function
         | Memdev.Hk_store { off; _ } when off = Rep.off_tx_state ->
           incr state_stores;
           if !state_stores = 2 then armed := true
         | Memdev.Hk_fence when !armed ->
           Memdev.power_off dev;
           raise Exit
         | _ -> ()));
  (match
     Pool.with_tx p (fun () ->
       Pool.tx_add_range p ~off:root.Oid.off ~len:8;
       Pool.store_word p ~off:root.Oid.off 42;
       Pool.tx_free p victim)
   with
   | () -> Alcotest.fail "expected the simulated power failure"
   | exception Exit -> ());
  Memdev.set_injector dev None;
  Memdev.crash dev;
  Memdev.set_tracking dev false;
  (* reopen in a fresh "process" *)
  let space2 = Space.create () in
  match Pool.open_dev space2 ~base:4096 dev with
  | Error e -> Alcotest.failf "open failed: %s" (Pool.pool_error_to_string e)
  | Ok (p2, report) ->
    check_bool "recovery completed the commit" true
      (report.Pool.tx_outcome = `Completed_commit);
    check_int "committed snapshot value kept" 42
      (Pool.load_word p2 ~off:(Pool.root_oid p2).Oid.off);
    let b = Pool.alloc p2 ~size:64 in
    check_int "deferred free applied: block reclaimed" victim.Oid.off
      b.Oid.off

let test_exception_printers () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "Wrong_pool printer" true
    (contains
       (Printexc.to_string (Pool.Wrong_pool { Oid.uuid = 7; off = 64; size = 8 }))
       "uuid=0x7");
  check_bool "Not_in_tx printer" true
    (contains (Printexc.to_string Tx.Not_in_tx) "outside tx_begin");
  check_bool "Tx_log_full printer" true
    (contains (Printexc.to_string Tx.Tx_log_full) "undo log exhausted");
  check_bool "Tx_aborted printer" true
    (contains (Printexc.to_string Tx.Tx_aborted) "rolled back")

let test_reopen_from_saved_file () =
  let path = Filename.temp_file "spp_pool" ".img" in
  Fun.protect ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let space = Space.create () in
      let p = Pool.create space ~base:4096 ~size:(1 lsl 20)
          ~mode:(Mode.Spp spp_cfg) ~name:"saved" in
      let root = Pool.root p ~size:64 in
      let oid = Pool.alloc p ~size:333 ~dest:root.Oid.off in
      Space.write_string space (Spp_core.Encoding.clean_tag spp_cfg
                                  (Pool.direct p oid)) "durable!";
      Pool.persist p ~off:oid.Oid.off ~len:8;
      Memdev.save_durable (Pool.dev p) path;
      (* reopen in a fresh "process" *)
      let space2 = Space.create () in
      let dev2 =
        Memdev.load_durable ~name:"saved" ~min_size:Pool.min_pool_size
          ~magic:Pool.magic_word path
      in
      let p2 = Pool.of_dev space2 ~base:4096 dev2 in
      check_bool "spp mode restored" true (Mode.is_spp (Pool.mode p2));
      let slot = Pool.load_oid p2 ~off:(Pool.root_oid p2).Oid.off in
      check_int "size field durable across processes" 333 slot.Oid.size;
      let ptr = Pool.direct p2 slot in
      check_int "tag rebuilt from durable size" 333
        (Spp_core.Encoding.remaining spp_cfg ptr);
      Alcotest.(check string) "data back" "durable!"
        (Bytes.to_string
           (Space.read_bytes space2
              (Spp_core.Encoding.clean_tag spp_cfg ptr) 8)))

(* A block freed in a batch is handed out again only after the commit
   that carries its free: not by a later op of the same sub-batch, and
   not after an earlier overflow commit that the freeing op did not
   join (its durable pre-state is still live then). *)
let test_batch_free_waits_for_its_commit () =
  let p = mk_pool () in
  let scratch = Pool.alloc p ~size:1024 in
  let x = Pool.alloc p ~size:100 in
  let stage_words b n =
    for i = 0 to n - 1 do
      Pool.batch_stage_word p b ~off:(scratch.Oid.off + (8 * i)) i
    done
  in
  let op b f =
    Redo.batch_op_begin b;
    let r = f () in
    Redo.batch_op_end b;
    r
  in
  Pool.with_batch p (fun b ->
    op b (fun () -> stage_words b 40);
    (* 40 + 31 words overflow the log: the first op commits alone *)
    op b (fun () -> Pool.batch_free p b x; stage_words b 30);
    check_int "overflow commit issued" 1 (Redo.batch_commits b);
    let y = op b (fun () -> Pool.batch_alloc p b ~size:100) in
    check_bool "freed block not reused before its commit" true
      (y.Oid.off <> x.Oid.off));
  let z =
    Pool.with_batch p (fun b -> op b (fun () -> Pool.batch_alloc p b ~size:100))
  in
  check_int "reused once its free is durable" x.Oid.off z.Oid.off

(* The exact PM traffic of each atomic and transactional call on a
   fresh pool, as (stores, flushes, fences). Every atomic call costs the
   redo protocol's 4 fences: a virgin header, a zeroed block or a
   realloc's copy is flushed and drained by the first of them. An SPP
   oid slot is one word wider, so writing one costs a store and a flush
   more. A one-op transaction adds its lane's 8 fences to its
   allocation's 4. *)
let test_api_costs () =
  let cost mode (setup : Pool.t -> unit -> unit) =
    let p = mk_pool ~mode () in
    let call = setup p in
    let dev = Pool.dev p in
    Memdev.reset_counters dev;
    call ();
    let c = Memdev.counters dev in
    (c.Memdev.stores, c.Memdev.flushes, c.Memdev.fences)
  in
  let freed p = Pool.free_ p (Pool.alloc p ~size:100) in
  let rooted p = (Pool.root p ~size:64).Oid.off in
  let calls =
    [ ("alloc 100 B, virgin", (10, 6, 4), (10, 6, 4),
       fun p () -> ignore (Pool.alloc p ~size:100));
      ("zalloc 100 B, virgin", (11, 7, 4), (11, 7, 4),
       fun p () -> ignore (Pool.alloc ~zero:true p ~size:100));
      ("alloc 100 B, reused", (6, 4, 4), (6, 4, 4),
       fun p -> freed p; fun () -> ignore (Pool.alloc p ~size:100));
      ("alloc ~dest", (16, 8, 4), (19, 9, 4),
       fun p ->
         let dest = rooted p in
         fun () -> ignore (Pool.alloc p ~size:100 ~dest));
      ("free", (6, 4, 4), (6, 4, 4),
       fun p -> let o = Pool.alloc p ~size:100 in fun () -> Pool.free_ p o);
      ("free ~dest", (12, 6, 4), (15, 7, 4),
       fun p ->
         let dest = rooted p in
         let o = Pool.alloc p ~size:100 ~dest in
         fun () -> Pool.free_ p o ~dest);
      ("realloc, same class", (6, 4, 4), (6, 4, 4),
       fun p ->
         let o = Pool.alloc p ~size:100 in
         fun () -> ignore (Pool.realloc p o ~size:110));
      ("realloc across classes", (14, 8, 4), (14, 8, 4),
       fun p ->
         let o = Pool.alloc p ~size:100 in
         fun () -> ignore (Pool.realloc p o ~size:1000));
      ("root 64 B", (17, 9, 4), (20, 10, 4),
       fun p () -> ignore (Pool.root p ~size:64));
      ("tx { tx_alloc ~zero }, reused", (15, 13, 12), (15, 13, 12),
       fun p ->
         freed p;
         fun () ->
           ignore (Pool.with_tx p (fun () -> Pool.tx_alloc ~zero:true p ~size:100)))
    ]
  in
  let triple = Alcotest.(triple int int int) in
  List.iter
    (fun (name, native, spp, setup) ->
      Alcotest.check triple (name ^ ", native") native (cost Mode.Native setup);
      Alcotest.check triple (name ^ ", spp") spp
        (cost (Mode.Spp spp_cfg) setup))
    calls

(* Property tests *)

let prop_alloc_free_consistency =
  QCheck.Test.make ~name:"random alloc/free keeps heap consistent" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 60)
              (pair bool (int_range 1 2048)))
    (fun ops ->
      let p = mk_pool ~size:(1 lsl 21) () in
      let live = ref [] in
      List.iter
        (fun (do_free, size) ->
          if do_free && !live <> [] then begin
            match !live with
            | oid :: rest -> Pool.free_ p oid; live := rest
            | [] -> ()
          end else begin
            let oid = Pool.alloc p ~size in
            live := oid :: !live
          end)
        ops;
      let st = Pool.heap_stats p in
      st.Heap.allocated_blocks = List.length !live
      && st.Heap.requested_bytes
         = List.fold_left (fun a o -> a + o.Oid.size) 0
             (List.map (fun o -> { o with Oid.size = Pool.alloc_size p o })
                !live))

let prop_tx_atomicity_under_crash =
  QCheck.Test.make
    ~name:"crash mid-tx never exposes partial updates" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 10) (int_bound 1000))
    (fun values ->
      let p = mk_tracked_pool () in
      let oid = Pool.alloc ~zero:true p ~size:256 in
      (* baseline: all slots 7 *)
      for i = 0 to 7 do Pool.store_word p ~off:(oid.Oid.off + 8 * i) 7 done;
      Pool.persist p ~off:oid.Oid.off ~len:64;
      Pool.tx_begin p;
      Pool.tx_add_range p ~off:oid.Oid.off ~len:64;
      List.iteri
        (fun i v -> Pool.store_word p ~off:(oid.Oid.off + 8 * (i mod 8)) v)
        values;
      let (_ : Pool.recovery_report) = Pool.crash_and_recover p in
      (* after rollback every slot must read 7 again *)
      let ok = ref true in
      for i = 0 to 7 do
        if Pool.load_word p ~off:(oid.Oid.off + 8 * i) <> 7 then ok := false
      done;
      !ok)

(* The free stacks are volatile: an allocation or free makes only the
   state word durable, and the stacks are rebuilt from the media after
   recovery, a reopen or a batch that raised, one-op commits included
   (a double free, or a transactional allocation whose undo record does
   not fit). Random mixed-class allocations and frees through the
   atomic API, transactions and group-commit batches, interleaved with
   those events; after every step no two live blocks overlap, every
   free block is reused before the bump moves, and the checker is
   clean. *)

type alloc_step =
  | A_alloc of int
  | A_free of int                 (* index into the live blocks *)
  | A_double_free of int          (* free a live block, then again *)
  | A_tx of { sizes : int list; frees : int list; abort : bool }
  | A_tx_full of int              (* tx_alloc on a full undo log *)
  | A_batch of { ops : (bool * int) list; raise_after : int option }
      (* (true, size) allocates, (false, i) frees a live block *)
  | A_crash
  | A_reopen
  | A_power_off of int list       (* frees in a batch whose commit dies *)

let pp_alloc_step = function
  | A_alloc n -> Printf.sprintf "alloc %d" n
  | A_free i -> Printf.sprintf "free #%d" i
  | A_double_free i -> Printf.sprintf "double free #%d" i
  | A_tx { sizes; frees; abort } ->
    Printf.sprintf "tx%s(alloc %d, free %d)" (if abort then "-abort" else "")
      (List.length sizes) (List.length frees)
  | A_batch { ops; raise_after } ->
    Printf.sprintf "batch(%d ops%s)" (List.length ops)
      (match raise_after with
       | Some k -> Printf.sprintf ", raise after %d" k
       | None -> "")
  | A_tx_full n -> Printf.sprintf "tx_alloc %d on a full log" n
  | A_crash -> "crash"
  | A_reopen -> "reopen"
  | A_power_off l ->
    Printf.sprintf "power-off commit (%d frees)" (List.length l)

let gen_alloc_step =
  let open QCheck.Gen in
  let size = int_range 1 2000 and idx = int_bound 1000 in
  frequency
    [ (4, map (fun n -> A_alloc n) size);
      (3, map (fun i -> A_free i) idx);
      (1, map (fun i -> A_double_free i) idx);
      (2, map3 (fun sizes frees abort -> A_tx { sizes; frees; abort })
            (list_size (int_bound 3) size) (list_size (int_bound 3) idx) bool);
      (1, map (fun n -> A_tx_full n) size);
      (2, map (fun ops -> A_batch { ops; raise_after = None })
            (list_size (int_range 1 40) (pair bool (int_bound 2000))));
      (1, map2 (fun ops k -> A_batch { ops; raise_after = Some k })
            (list_size (int_range 1 8) (pair bool (int_bound 2000)))
            (int_bound 8));
      (1, return A_crash);
      (1, return A_reopen);
      (1, map (fun l -> A_power_off l) (list_size (int_range 1 4) idx)) ]

let check_free_stacks p live =
  (* no two live blocks overlap, and the heap counts exactly them *)
  let extents =
    List.sort compare
      (List.map
         (fun o ->
           (o.Oid.off - Rep.block_header_size,
            o.Oid.off + Pool.usable_size p o))
         live)
  in
  let rec disjoint = function
    | (_, e1) :: (((s2, _) :: _) as tl) -> e1 <= s2 && disjoint tl
    | _ -> true
  in
  let st = Pool.heap_stats p in
  (* free blocks are reused before the bump moves *)
  let per_class = Array.make Rep.n_classes 0 in
  let (), _ =
    Pool.fold_blocks p () (fun () ~data_off:_ ~state ->
      if not (Rep.state_is_allocated state) then
        let ci = Rep.state_class state in
        per_class.(ci) <- per_class.(ci) + 1)
  in
  let taken = ref [] in
  Array.iteri
    (fun ci n ->
      for _ = 1 to n do
        taken := Pool.alloc p ~size:(Rep.class_size ci) :: !taken
      done)
    per_class;
  let reused = (Pool.heap_stats p).Heap.heap_used = st.Heap.heap_used in
  List.iter (Pool.free_ p) !taken;
  disjoint extents
  && st.Heap.allocated_blocks = List.length live
  && reused
  && Inspect.check p = []

let prop_free_stacks_recover =
  QCheck.Test.make
    ~name:"free stacks survive crashes, reopens and failed batches" ~count:80
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map pp_alloc_step l))
       QCheck.Gen.(list_size (int_range 1 30) gen_alloc_step))
    (fun steps ->
      let p = ref (mk_tracked_pool ~size:(1 lsl 21) ()) in
      let live = ref [] in
      (* [free]s the [i]th of the live blocks [l] (modulo their count) *)
      let free_nth free i l =
        if l = [] then l
        else begin
          let o = List.nth l (i mod List.length l) in
          free o;
          List.filter (fun o' -> o'.Oid.off <> o.Oid.off) l
        end
      in
      let batch_op b l (is_alloc, n) =
        Redo.batch_op_begin b;
        let l =
          if is_alloc then Pool.batch_alloc !p b ~size:(1 + n) :: l
          else free_nth (Pool.batch_free !p b) n l
        in
        Redo.batch_op_end b;
        l
      in
      let step = function
        | A_alloc n -> live := Pool.alloc !p ~size:n :: !live
        | A_free i -> live := free_nth (Pool.free_ !p) i !live
        | A_double_free i ->
          (* the second free raises inside its one-op commit *)
          let twice o =
            Pool.free_ !p o;
            match Pool.free_ !p o with
            | () -> failwith "double free accepted"
            | exception Invalid_argument _ -> ()
          in
          live := free_nth twice i !live
        | A_tx { sizes; frees; abort } ->
          (match
             Pool.with_tx !p (fun () ->
               let fresh = List.map (fun n -> Pool.tx_alloc !p ~size:n) sizes in
               let l =
                 List.fold_left
                   (fun l i -> free_nth (Pool.tx_free !p) i l)
                   (fresh @ !live) frees
               in
               if abort then raise Exit;
               l)
           with
           | l -> live := l
           | exception Exit -> ())
        | A_tx_full n ->
          (* a snapshot leaves 8 B of the undo log: the allocation's
             record does not fit, after the block was staged *)
          let len = Rep.ulog_cap_for_pool_size (Pool.size !p) - 32 in
          (match
             Pool.with_tx !p (fun () ->
               Pool.tx_add_range !p ~off:(Pool.heap_base !p) ~len;
               Pool.tx_alloc !p ~size:n)
           with
           | _ -> failwith "undo log did not fill"
           | exception Tx.Tx_log_full -> ())
        | A_batch { ops; raise_after } ->
          (match
             Pool.with_batch !p (fun b ->
               List.fold_left
                 (fun (k, l) op ->
                   if Some k = raise_after then raise Exit;
                   (k + 1, batch_op b l op))
                 (0, !live) ops)
           with
           | _, l -> live := l
           | exception Exit -> ())
        | A_crash -> ignore (Pool.crash_and_recover !p)
        | A_reopen ->
          let dev = Pool.dev !p in
          Memdev.crash dev;
          (match Pool.open_dev (Space.create ()) ~base:4096 dev with
           | Ok (p', _) -> p := p'
           | Error e -> failwith (Pool.pool_error_to_string e))
        | A_power_off frees ->
          Pool.with_batch !p (fun b ->
            ignore
              (List.fold_left (fun l i -> batch_op b l (false, i)) !live frees);
            Memdev.power_off (Pool.dev !p));
          ignore (Pool.crash_and_recover !p)
      in
      List.for_all
        (fun s ->
          step s;
          check_free_stacks !p !live
          || QCheck.Test.fail_reportf "after %s" (pp_alloc_step s))
        steps)

let prop_spp_size_always_tagged_correctly =
  QCheck.Test.make
    ~name:"direct() tag always encodes the allocated size" ~count:200
    QCheck.(int_range 1 (1 lsl 16))
    (fun size ->
      let p = mk_pool ~mode:(Mode.Spp spp_cfg) () in
      let oid = Pool.alloc p ~size in
      let ptr = Pool.direct p oid in
      Spp_core.Encoding.remaining spp_cfg ptr = size
      && not (Spp_core.Encoding.is_overflowed spp_cfg
                (Spp_core.Encoding.gep spp_cfg ptr (size - 1)))
      && Spp_core.Encoding.is_overflowed spp_cfg
           (Spp_core.Encoding.gep spp_cfg ptr size))

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "spp_pmdk"
    [
      ( "alloc",
        [
          Alcotest.test_case "alloc/free roundtrip" `Quick
            test_alloc_free_roundtrip;
          Alcotest.test_case "free block reused" `Quick test_free_block_reused;
          Alcotest.test_case "double free rejected" `Quick
            test_double_free_rejected;
          Alcotest.test_case "zalloc zeroes" `Quick test_zalloc_zeroes;
          Alcotest.test_case "size classes" `Quick test_alloc_size_classes;
          Alcotest.test_case "out of PM" `Quick test_out_of_pm;
          Alcotest.test_case "realloc grow preserves" `Quick
            test_realloc_grow_preserves;
          Alcotest.test_case "realloc same class" `Quick test_realloc_same_class;
          Alcotest.test_case "root idempotent" `Quick test_root_idempotent;
          Alcotest.test_case "redzone pads every path, survives reopen"
            `Quick test_redzone_geometry;
          Alcotest.test_case "batch free waits for its commit" `Quick
            test_batch_free_waits_for_its_commit;
          Alcotest.test_case "atomic and tx calls: exact PM costs" `Quick
            test_api_costs;
        ] );
      ( "spp-mode",
        [
          Alcotest.test_case "direct is tagged" `Quick test_spp_direct_is_tagged;
          Alcotest.test_case "native direct is raw" `Quick
            test_native_direct_is_raw;
          Alcotest.test_case "oid stored size by mode" `Quick
            test_oid_stored_size_by_mode;
          Alcotest.test_case "oid slot roundtrip (size durable)" `Quick
            test_oid_slot_roundtrip_spp;
          Alcotest.test_case "object too large" `Quick test_spp_object_too_large;
          Alcotest.test_case "pool span checked" `Quick test_spp_pool_span_checked;
          Alcotest.test_case "overflow detected on PM object" `Quick
            test_spp_overflow_on_pm_object;
        ] );
      ( "tx",
        [
          Alcotest.test_case "commit applies" `Quick test_tx_commit_applies;
          Alcotest.test_case "abort restores" `Quick test_tx_abort_restores;
          Alcotest.test_case "abort rolls back alloc" `Quick
            test_tx_abort_rolls_back_alloc;
          Alcotest.test_case "free deferred to commit" `Quick
            test_tx_free_deferred;
          Alcotest.test_case "abort drops free" `Quick test_tx_abort_drops_free;
          Alcotest.test_case "nesting" `Quick test_tx_nesting;
          Alcotest.test_case "tx ops outside tx rejected" `Quick
            test_tx_outside_rejected;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crash during tx rolls back" `Quick
            test_crash_during_tx_rolls_back;
          Alcotest.test_case "crash after commit keeps" `Quick
            test_crash_after_commit_keeps;
          Alcotest.test_case "crash during tx_alloc: no leak" `Quick
            test_crash_during_tx_alloc_no_leak;
          Alcotest.test_case "atomic alloc with PM dest is atomic" `Quick
            test_crash_atomic_alloc_with_dest;
          Alcotest.test_case "recovery idempotent" `Quick
            test_recovery_is_idempotent;
          Alcotest.test_case "crash while COMMITTING completes the commit"
            `Quick test_recover_completed_commit;
          Alcotest.test_case "exception printers registered" `Quick
            test_exception_printers;
          Alcotest.test_case "reopen pool from saved file" `Quick
            test_reopen_from_saved_file;
        ] );
      ( "properties",
        [
          qt prop_free_stacks_recover;
          qt prop_alloc_free_consistency;
          qt prop_tx_atomicity_under_crash;
          qt prop_spp_size_always_tagged_correctly;
        ] );
    ]

