(* Tests for the machine substrate: memory devices, durability semantics,
   address space, and the volatile heap. *)

open Spp_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let expect_fault f =
  match f () with
  | _ -> Alcotest.fail "expected a simulated fault"
  | exception Fault.Fault _ -> ()

(* Memdev *)

let test_memdev_roundtrip () =
  let d = Memdev.create_persistent ~name:"t" 4096 in
  Memdev.store_string d ~off:100 "hello";
  check_int "view readback" (Char.code 'h')
    (Char.code (Bytes.get (Memdev.load_bytes d ~off:100 ~len:1) 0));
  Alcotest.(check string) "full string" "hello"
    (Bytes.to_string (Memdev.load_bytes d ~off:100 ~len:5))

let test_memdev_bounds () =
  let d = Memdev.create_volatile ~name:"t" 64 in
  Alcotest.check_raises "oob store"
    (Invalid_argument "Memdev(t): range [60, 60+8) out of device bounds 64")
    (fun () -> Memdev.store_string d ~off:60 "12345678")

let test_tracking_unfenced_lost () =
  let d = Memdev.create_persistent ~name:"t" 4096 in
  Memdev.store_string d ~off:0 "AAAA";
  Memdev.persist d ~off:0 ~len:4;
  Memdev.set_tracking d true;
  Memdev.store_string d ~off:0 "BBBB";
  (* re-enabling tracking must not make the pending store durable *)
  Memdev.set_tracking d true;
  (* no flush/fence: store must not survive the crash *)
  Memdev.crash d;
  Alcotest.(check string) "unfenced store lost" "AAAA"
    (Bytes.to_string (Memdev.load_bytes d ~off:0 ~len:4))

let test_tracking_flush_without_fence_lost () =
  let d = Memdev.create_persistent ~name:"t" 4096 in
  Memdev.set_tracking d true;
  Memdev.store_string d ~off:0 "CCCC";
  Memdev.flush d ~off:0 ~len:4;
  (* flushed but not fenced: still not guaranteed durable *)
  Memdev.crash d;
  Alcotest.(check string) "flushed-unfenced store lost" "\000\000\000\000"
    (Bytes.to_string (Memdev.load_bytes d ~off:0 ~len:4))

let test_tracking_persist_survives () =
  let d = Memdev.create_persistent ~name:"t" 4096 in
  Memdev.set_tracking d true;
  Memdev.store_string d ~off:8 "DDDD";
  Memdev.persist d ~off:8 ~len:4;
  Memdev.crash d;
  Alcotest.(check string) "persisted store survives" "DDDD"
    (Bytes.to_string (Memdev.load_bytes d ~off:8 ~len:4))

let test_tracking_cacheline_granularity () =
  (* Flushing one byte drains the whole cacheline's pending stores. *)
  let d = Memdev.create_persistent ~name:"t" 4096 in
  Memdev.set_tracking d true;
  Memdev.store_string d ~off:0 "EE";
  Memdev.store_string d ~off:60 "FF";   (* same 64-byte line *)
  Memdev.flush d ~off:0 ~len:1;
  Memdev.fence d;
  Memdev.crash d;
  Alcotest.(check string) "line co-resident store drained" "FF"
    (Bytes.to_string (Memdev.load_bytes d ~off:60 ~len:2))

let test_crash_applying_subset () =
  let d = Memdev.create_persistent ~name:"t" 4096 in
  Memdev.set_tracking d true;
  Memdev.store_string d ~off:0 "XX";
  Memdev.store_string d ~off:10 "YY";
  (match Memdev.pending_stores d with
   | [ first; _second ] ->
     Memdev.crash_applying d [ first ];
     Alcotest.(check string) "first applied" "XX"
       (Bytes.to_string (Memdev.load_bytes d ~off:0 ~len:2));
     Alcotest.(check string) "second dropped" "\000\000"
       (Bytes.to_string (Memdev.load_bytes d ~off:10 ~len:2))
   | l -> Alcotest.failf "expected 2 pending stores, got %d" (List.length l))

let test_crash_applying_order_insensitive () =
  (* The caller's subset is a selection, not an ordering: even handed the
     records reversed, overlapping stores land in program order. *)
  let d = Memdev.create_persistent ~name:"t" 4096 in
  Memdev.set_tracking d true;
  Memdev.store_string d ~off:0 "first___";
  Memdev.store_string d ~off:0 "second__";
  Memdev.crash_applying d (List.rev (Memdev.pending_stores d));
  Alcotest.(check string) "program order wins over list order" "second__"
    (Bytes.to_string (Memdev.load_bytes d ~off:0 ~len:8))

let test_injector_sees_events () =
  let d = Memdev.create_persistent ~name:"t" 4096 in
  Memdev.set_tracking d true;
  let stores = ref 0 and flushes = ref 0 and fences = ref 0 in
  Memdev.set_injector d
    (Some
       (function
         | Memdev.Hk_store _ -> incr stores
         | Memdev.Hk_flush _ -> incr flushes
         | Memdev.Hk_fence -> incr fences));
  Memdev.store_string d ~off:0 "abcd";
  Memdev.persist d ~off:0 ~len:4;   (* flush + fence *)
  Memdev.set_injector d None;
  Memdev.store_string d ~off:8 "ef"; (* not observed any more *)
  check_int "stores seen" 1 !stores;
  check_int "flushes seen" 1 !flushes;
  check_int "fences seen" 1 !fences

let test_power_off_discards_everything () =
  let d = Memdev.create_persistent ~name:"t" 4096 in
  Memdev.store_string d ~off:0 "AAAA";
  Memdev.persist d ~off:0 ~len:4;
  Memdev.set_tracking d true;
  Memdev.power_off d;
  (* a dying process's unwind path: stores, flushes, fences — all void *)
  Memdev.store_string d ~off:0 "BBBB";
  Memdev.persist d ~off:0 ~len:4;
  check_bool "reports off" true (Memdev.is_powered_off d);
  Memdev.crash d;
  check_bool "restart restores power" false (Memdev.is_powered_off d);
  Alcotest.(check string) "post-power-off persist void" "AAAA"
    (Bytes.to_string (Memdev.load_bytes d ~off:0 ~len:4))

let test_bad_block_bus_error () =
  let d = Memdev.create_persistent ~name:"t" 4096 in
  Memdev.store_string d ~off:128 "okokokok";
  Memdev.add_bad_block d ~off:256 ~len:64;
  (* loads outside the region still work *)
  Alcotest.(check string) "healthy load" "okokokok"
    (Bytes.to_string (Memdev.load_bytes d ~off:128 ~len:8));
  (match Memdev.load_bytes d ~off:300 ~len:4 with
   | _ -> Alcotest.fail "expected SIGBUS"
   | exception Fault.Fault (Fault.Bus_error, addr) ->
     check_int "faulting address" 300 addr);
  (* a load straddling the region edge faults at the first bad byte *)
  (match Memdev.load_bytes d ~off:250 ~len:16 with
   | _ -> Alcotest.fail "expected SIGBUS"
   | exception Fault.Fault (Fault.Bus_error, addr) ->
     check_int "first bad byte" 256 addr);
  Memdev.clear_bad_blocks d;
  ignore (Memdev.load_bytes d ~off:300 ~len:4)

let test_corrupt_durable_flips_bit () =
  let d = Memdev.create_persistent ~name:"t" 4096 in
  let byte_at off = Char.code (Bytes.get (Memdev.load_bytes d ~off ~len:1) 0) in
  Memdev.store_u8 d ~off:77 0b0000_0100;
  Memdev.persist d ~off:77 ~len:1;
  Memdev.corrupt_durable d ~off:77 ~bit:2;
  check_int "bit cleared" 0 (byte_at 77);
  Memdev.corrupt_durable d ~off:77 ~bit:7;
  check_int "bit set" 0b1000_0000 (byte_at 77)

let test_load_durable_validation () =
  let path = Filename.temp_file "spp_bad" ".img" in
  Fun.protect ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "tiny";
      close_out oc;
      (match Memdev.load_durable ~name:"bad" ~min_size:4096 path with
       | _ -> Alcotest.fail "expected rejection of a truncated file"
       | exception Invalid_argument _ -> ());
      let d = Memdev.create_persistent ~name:"src" 4096 in
      Memdev.store_word d ~off:0 0xBAD_CAFE;
      Memdev.persist d ~off:0 ~len:8;
      Memdev.save_durable d path;
      (match Memdev.load_durable ~name:"bad" ~magic:0x600D_F00D path with
       | _ -> Alcotest.fail "expected rejection of a foreign magic"
       | exception Invalid_argument _ -> ());
      (* correct magic loads fine *)
      ignore (Memdev.load_durable ~name:"ok" ~magic:0xBAD_CAFE path))

let test_program_order_replay () =
  (* Overlapping pending stores replay in program order. *)
  let d = Memdev.create_persistent ~name:"t" 4096 in
  Memdev.set_tracking d true;
  Memdev.store_string d ~off:0 "first___";
  Memdev.store_string d ~off:0 "second__";
  let all = Memdev.pending_stores d in
  Memdev.crash_applying d all;
  Alcotest.(check string) "later store wins" "second__"
    (Bytes.to_string (Memdev.load_bytes d ~off:0 ~len:8))

let test_save_load_durable () =
  let d = Memdev.create_persistent ~name:"t" 4096 in
  Memdev.store_string d ~off:42 "persist-me";
  Memdev.persist d ~off:42 ~len:10;
  let path = Filename.temp_file "spp_pool" ".img" in
  Fun.protect ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Memdev.save_durable d path;
      let d2 = Memdev.load_durable ~name:"t2" path in
      Alcotest.(check string) "reloaded" "persist-me"
        (Bytes.to_string (Memdev.load_bytes d2 ~off:42 ~len:10)))

let test_memdev_blit () =
  let d = Memdev.create_persistent ~name:"t" 4096 in
  Memdev.store_string d ~off:0 "abcdefgh";
  Memdev.persist d ~off:0 ~len:8;
  Memdev.set_tracking d true;
  Memdev.blit ~src:d ~src_off:0 ~dst:d ~dst_off:100 ~len:8;
  Alcotest.(check string) "view sees the copy" "abcdefgh"
    (Bytes.to_string (Memdev.load_bytes d ~off:100 ~len:8));
  Memdev.crash d;
  Alcotest.(check string) "unpersisted blit lost" (String.make 8 '\000')
    (Bytes.to_string (Memdev.load_bytes d ~off:100 ~len:8));
  Memdev.blit ~src:d ~src_off:0 ~dst:d ~dst_off:100 ~len:8;
  Memdev.persist d ~off:100 ~len:8;
  Memdev.crash d;
  Alcotest.(check string) "persisted blit survives" "abcdefgh"
    (Bytes.to_string (Memdev.load_bytes d ~off:100 ~len:8));
  (* overlapping same-device copy behaves like memmove *)
  Memdev.set_tracking d false;
  Memdev.store_string d ~off:200 "12345678";
  Memdev.blit ~src:d ~src_off:200 ~dst:d ~dst_off:204 ~len:8;
  Alcotest.(check string) "memmove-safe overlap" "123412345678"
    (Bytes.to_string (Memdev.load_bytes d ~off:200 ~len:12))

(* One image per device: an untracked persistent device retains only
   its view, tracking splits off exactly one durable image, and leaving
   tracking drops it again. The slack covers the record, its empty
   journals and the 64-bucket dirty-line table. *)

let test_one_image_footprint () =
  let n = 1 lsl 20 in
  let words = n / 8 and slack = 1024 in
  let d = Memdev.create_persistent ~name:"t" n in
  let reachable () = Obj.reachable_words (Obj.repr d) in
  let untracked = reachable () in
  check_bool
    (Printf.sprintf "untracked: %d words <= one image + %d" untracked slack)
    true
    (untracked <= words + slack);
  (* n bytes plus padding, the headers and the option box *)
  let one_image what =
    let delta = reachable () - untracked in
    check_bool
      (Printf.sprintf "%s: +%d words is one image" what delta)
      true
      (delta >= words && delta <= words + 8)
  in
  Memdev.set_tracking d true;
  check_bool "tracking" true (Memdev.tracking d);
  one_image "tracking";
  Memdev.set_tracking d true;
  one_image "re-enabling";
  Memdev.set_tracking d false;
  check_bool "untracked again" false (Memdev.tracking d);
  check_int "leaving tracking drops it" untracked (reachable ())

let test_of_image_adopts () =
  let img = Bytes.make 4096 'x' in
  let d = Memdev.of_image ~name:"adopt" img in
  check_bool "the view is the given buffer" true (Memdev.unsafe_view d == img);
  Memdev.store_string d ~off:10 "ab";
  Alcotest.(check string) "stores land in it" "xab"
    (Bytes.sub_string img 9 3);
  Alcotest.(check string) "and are durable" "xab"
    (Bytes.sub_string (Memdev.durable_snapshot d) 9 3)

let test_untracked_crash_keeps_view () =
  let d = Memdev.create_persistent ~name:"t" 4096 in
  Memdev.store_string d ~off:0 "kept";
  Memdev.crash d;
  Alcotest.(check string) "persistent view survives" "kept"
    (Bytes.to_string (Memdev.load_bytes d ~off:0 ~len:4));
  let v = Memdev.create_volatile ~name:"v" 4096 in
  Memdev.store_string v ~off:0 "lost";
  Memdev.crash v;
  Alcotest.(check string) "volatile view zeroed" (String.make 4 '\000')
    (Bytes.to_string (Memdev.load_bytes v ~off:0 ~len:4))

(* Tracked durability against an independent model: pending stores in
   program order, each with a flushed flag. A flush marks every pending
   store meeting the cacheline-expanded range, a fence applies the
   flushed ones to the durable image in program order and drops them,
   and a crash applies a chosen subset of the pending stores, again in
   program order, before the view reverts to the durable image. *)

type mstore = { m_off : int; m_data : Bytes.t; mutable m_flushed : bool }

let model_crash ~size ops ~applied =
  let durable = Bytes.make size '\000' and pending = ref [] in
  let apply s = Bytes.blit s.m_data 0 durable s.m_off (Bytes.length s.m_data) in
  List.iter
    (function
      | `Store (off, data) ->
        pending :=
          !pending @ [ { m_off = off; m_data = data; m_flushed = false } ]
      | `Flush (off, len) ->
        let lo = off / 64 * 64 and hi = (off + len + 63) / 64 * 64 in
        List.iter
          (fun s ->
            if s.m_off < hi && lo < s.m_off + Bytes.length s.m_data then
              s.m_flushed <- true)
          !pending
      | `Fence ->
        List.iter (fun s -> if s.m_flushed then apply s) !pending;
        pending := List.filter (fun s -> not s.m_flushed) !pending)
    ops;
  List.iteri (fun i s -> if applied i then apply s) !pending;
  (List.length !pending, durable)

let prop_tracking_matches_model =
  QCheck.Test.make
    ~name:"tracked flush/fence/crash matches a pending-store model"
    ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 60)
           (quad (int_bound 4) (int_bound 440) (int_range 1 16)
              (int_bound 255)))
        (list_of_size (Gen.int_range 0 60) bool))
    (fun (gen_ops, mask) ->
      let applied i = i < List.length mask && List.nth mask i in
      let ops =
        List.concat_map
          (fun (kind, off, len, v) ->
            match kind with
            | 0 | 1 -> [ `Store (off, Bytes.make len (Char.chr v)) ]
            | 2 -> [ `Flush (off, 1 + (v land 63)) ]
            | 3 -> [ `Fence ]
            | _ -> [ `Flush (off, 8); `Fence ])
          gen_ops
      in
      let d = Memdev.create_persistent ~name:"p" 512 in
      Memdev.set_tracking d true;
      List.iter
        (function
          | `Store (off, data) ->
            Memdev.store_bytes d ~off data ~src_off:0 ~len:(Bytes.length data)
          | `Flush (off, len) -> Memdev.flush d ~off ~len
          | `Fence -> Memdev.fence d)
        ops;
      let pending = Memdev.pending_stores d in
      Memdev.crash_applying d (List.filteri (fun i _ -> applied i) pending);
      let npending, expected = model_crash ~size:512 ops ~applied in
      List.length pending = npending
      && Bytes.equal expected (Memdev.durable_snapshot d))

let bytes8 v = Bytes.make 8 (Char.chr v)

let bits_differing a b =
  let n = ref 0 in
  Bytes.iteri
    (fun i c ->
      let x = ref (Char.code c lxor Char.code (Bytes.get b i)) in
      while !x <> 0 do
        incr n;
        x := !x land (!x - 1)
      done)
    a;
  !n

(* Steps are stores, crashes and bit flips; the tracked run makes
   everything durable before each crash and flip. Untracked, the view
   is the durable image after every step, and one flip flips one bit in
   either regime. *)
let prop_tracked_full_flush_equals_untracked =
  QCheck.Test.make
    ~name:"tracking-on + full flush/fence = tracking-off durable image"
    ~count:150
    QCheck.(
      list_of_size (Gen.int_range 1 40)
        (triple (int_bound 5) (int_bound 440) (int_bound 255)))
    (fun steps ->
      let run tracking =
        let d = Memdev.create_persistent ~name:"p" 512 in
        Memdev.set_tracking d tracking;
        let persist_all () =
          if tracking then begin
            Memdev.flush d ~off:0 ~len:512;
            Memdev.fence d
          end
        in
        let ok = ref true in
        List.iter
          (fun (kind, off, v) ->
            (match kind with
             | 0 ->
               persist_all ();
               Memdev.crash d
             | 1 ->
               persist_all ();
               let before = Memdev.durable_snapshot d in
               Memdev.corrupt_durable d ~off ~bit:v;
               ok :=
                 !ok && bits_differing before (Memdev.durable_snapshot d) = 1
             | _ ->
               Memdev.store_bytes d ~off (bytes8 v) ~src_off:0 ~len:8);
            if not tracking then
              ok :=
                !ok
                && Bytes.equal (Memdev.durable_snapshot d)
                     (Memdev.load_bytes d ~off:0 ~len:512))
          steps;
        persist_all ();
        (!ok, Memdev.durable_snapshot d)
      in
      let ok_t, img_t = run true and ok_u, img_u = run false in
      ok_t && ok_u && Bytes.equal img_t img_u)

(* Space *)

let mk_space () =
  let s = Space.create () in
  let pm = Memdev.create_persistent ~name:"pm" 65536 in
  let dram = Memdev.create_volatile ~name:"dram" 65536 in
  Space.map s ~base:4096 ~size:65536 ~kind:Space.Persistent ~name:"pm" pm;
  Space.map s ~base:(1 lsl 45) ~size:65536 ~kind:Space.Volatile ~name:"dram" dram;
  s

let test_space_word_roundtrip () =
  let s = mk_space () in
  Space.store_word s 4096 0x1234_5678_9ABC;
  check_int "word" 0x1234_5678_9ABC (Space.load_word s 4096);
  Space.store_word s 8000 max_int;
  check_int "max_int" max_int (Space.load_word s 8000)

let test_space_typed_accessors () =
  let s = mk_space () in
  Space.store_u8 s 5000 0xAB;
  check_int "u8" 0xAB (Space.load_u8 s 5000);
  Space.store_u16 s 5002 0xBEEF;
  check_int "u16" 0xBEEF (Space.load_u16 s 5002);
  Space.store_u32 s 5004 0xDEADBEEF;
  check_int "u32" 0xDEADBEEF (Space.load_u32 s 5004)

let test_space_unmapped_faults () =
  let s = mk_space () in
  expect_fault (fun () -> Space.load_u8 s 0);
  expect_fault (fun () -> Space.load_u8 s (4096 + 65536));
  expect_fault (fun () -> Space.store_word s (1 lsl 61) 1);
  (* access straddling the region end *)
  expect_fault (fun () -> Space.load_word s (4096 + 65536 - 4))

let test_space_overlap_rejected () =
  let s = mk_space () in
  let d = Memdev.create_volatile ~name:"x" 4096 in
  Alcotest.check_raises "overlap"
    (Invalid_argument "Space.map: region x overlaps pm")
    (fun () -> Space.map s ~base:8192 ~size:4096 ~kind:Space.Volatile ~name:"x" d)

let test_space_blit_and_strings () =
  let s = mk_space () in
  Space.write_string s 4200 "hello world\000";
  Space.blit s ~src:4200 ~dst:9000 ~len:12;
  Alcotest.(check string) "blit" "hello world" (Space.read_cstring s 9000);
  check_int "strlen" 11 (Space.strlen s 4200)

let test_space_stats () =
  let s = mk_space () in
  Space.reset_stats s;
  Space.store_word s 4096 1;
  ignore (Space.load_word s 4096);
  Space.store_word s (1 lsl 45) 1;
  let st = Space.stats s in
  check_int "pm stores" 1 st.Space.pm_stores;
  check_int "pm loads" 1 st.Space.pm_loads;
  check_int "vol stores" 1 st.Space.vol_stores

let test_space_byte_counters () =
  (* A block op is one event; the moved bytes are accounted separately. *)
  let s = mk_space () in
  Space.reset_stats s;
  Space.write_string s 4096 "12345678";
  ignore (Space.read_bytes s 4096 8);
  Space.store_u8 s 5000 1;
  let st = Space.stats s in
  check_int "store events" 2 st.Space.pm_stores;
  check_int "bytes stored" 9 st.Space.pm_bytes_stored;
  check_int "load events" 1 st.Space.pm_loads;
  check_int "bytes loaded" 8 st.Space.pm_bytes_loaded

let test_space_tlb_counters () =
  let s = mk_space () in
  Space.reset_stats s;
  ignore (Space.load_u8 s 8192);          (* cold page: miss *)
  ignore (Space.load_u8 s 8200);          (* same page: hit *)
  ignore (Space.load_u8 s 8208);
  let st = Space.stats s in
  check_int "tlb misses" 1 st.Space.tlb_misses;
  check_int "tlb hits" 2 st.Space.tlb_hits

let test_space_memcmp_strcmp () =
  let s = mk_space () in
  Space.write_string s 4100 "apple\000";
  Space.write_string s 4200 "apples\000";
  Space.write_string s 4300 "apple\000";
  check_bool "strcmp lt" true (Space.strcmp s 4100 4200 < 0);
  check_bool "strcmp gt" true (Space.strcmp s 4200 4100 > 0);
  check_int "strcmp eq" 0 (Space.strcmp s 4100 4300);
  check_int "memcmp eq" 0 (Space.memcmp s 4100 4300 5);
  check_bool "memcmp lt" true (Space.memcmp s 4100 4200 6 < 0)

let test_strlen_chunked_boundaries () =
  let s = mk_space () in
  (* longer than one scan chunk *)
  Space.write_string s 4200 (String.make 1000 'a' ^ "\000");
  check_int "long strlen" 1000 (Space.strlen s 4200);
  let end_ = 4096 + 65536 in
  (* unterminated scan running off the region end must fault *)
  Space.fill s (end_ - 32) 32 'x';
  expect_fault (fun () -> Space.strlen s (end_ - 32));
  (* NUL in the region's very last byte is still found *)
  Space.fill s (end_ - 16) 15 'y';
  Space.store_u8 s (end_ - 1) 0;
  check_int "nul at region end" 15 (Space.strlen s (end_ - 16))

let test_strlen_bad_block_semantics () =
  let s = Space.create () in
  let d = Memdev.create_persistent ~name:"p" 4096 in
  Space.map s ~base:4096 ~size:4096 ~kind:Space.Persistent ~name:"p" d;
  Space.write_string s 4096 "ok\000";
  Memdev.add_bad_block d ~off:64 ~len:64;
  (* the NUL stops the access before the bad block, like on hardware *)
  check_int "strlen stops at NUL" 2 (Space.strlen s 4096);
  (* a scan crossing the bad block faults with SIGBUS *)
  Space.fill s (4096 + 60) 8 'z';
  Space.store_u8 s (4096 + 70) 0;
  expect_fault (fun () -> Space.strlen s (4096 + 60))

(* Satellite: the translation cache must never outlive its region. *)

let test_tlb_unmap_remap_no_stale () =
  let s = Space.create () in
  let d1 = Memdev.create_persistent ~name:"d1" 8192 in
  let d2 = Memdev.create_persistent ~name:"d2" 8192 in
  Memdev.store_u8 d1 ~off:0 1;
  Memdev.store_u8 d2 ~off:0 2;
  Space.map s ~base:4096 ~size:8192 ~kind:Space.Persistent ~name:"r1" d1;
  check_int "d1 content" 1 (Space.load_u8 s 4096);   (* warms the TLB *)
  check_int "d1 content again" 1 (Space.load_u8 s 4096);
  Space.unmap s ~base:4096;
  expect_fault (fun () -> Space.load_u8 s 4096);
  Space.map s ~base:4096 ~size:8192 ~kind:Space.Persistent ~name:"r2" d2;
  check_int "remap serves the new device" 2 (Space.load_u8 s 4096)

(* A TLB fill stores the region itself, unboxed: two pages 64 pages
   apart share a TLB slot, so alternating loads miss on every access,
   and the misses allocate nothing. Invalidation still drops the
   unmapped region's device. *)
let test_tlb_miss_no_alloc () =
  let s = Space.create () in
  let d = Memdev.create_persistent ~name:"d" (1 lsl 19) in
  Space.map s ~base:4096 ~size:(1 lsl 19) ~kind:Space.Persistent ~name:"r" d;
  let a = 4096 and b = 4096 + (64 * 4096) in
  ignore (Space.load_u8 s a);
  Space.reset_stats s;
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Space.load_u8 s b);
    ignore (Space.load_u8 s a)
  done;
  let w = Gc.minor_words () -. w0 in
  check_int "every load misses" (2 * n) (Space.stats s).Space.tlb_misses;
  check_int "minor words per miss" 0 (int_of_float (w /. float_of_int (2 * n)));
  let gone = Weak.create 1 in
  (fun () ->
     let d' = Memdev.create_persistent ~name:"d'" 8192 in
     Weak.set gone 0 (Some d');
     Space.map s ~base:(1 lsl 20) ~size:8192 ~kind:Space.Persistent
       ~name:"r'" d';
     ignore (Space.load_u8 s (1 lsl 20));
     Space.unmap s ~base:(1 lsl 20)) ();
  Gc.full_major ();
  check_bool "unmapped device collected" false (Weak.check gone 0)

(* Caller-buffer reads and views — the zero-copy read path's substrate. *)

let test_read_into_roundtrip_and_counters () =
  let s = mk_space () in
  Space.write_string s 4200 "zero-copy payload";
  Space.reset_stats s;
  let dst = Bytes.make 24 '.' in
  Space.read_into s 4200 ~len:17 ~dst ~dst_off:3;
  Alcotest.(check string) "payload landed at dst_off"
    "...zero-copy payload...." (Bytes.to_string dst);
  let st = Space.stats s in
  check_int "one load event" 1 st.Space.pm_loads;
  check_int "bytes loaded" 17 st.Space.pm_bytes_loaded;
  Alcotest.(check string) "read_sub agrees" "zero-copy payload"
    (Space.read_sub s 4200 17);
  Alcotest.check_raises "bad destination range"
    (Invalid_argument "Space.read_into: bad destination range")
    (fun () -> Space.read_into s 4200 ~len:17 ~dst ~dst_off:10)

let test_read_into_region_boundary () =
  let s = mk_space () in
  let end_ = 4096 + 65536 in
  Space.fill s (end_ - 8) 8 'e';
  (* a read ending exactly at the region's last byte succeeds *)
  Alcotest.(check string) "flush against region end" "eeeeeeee"
    (Space.read_sub s (end_ - 8) 8);
  (* one byte further raises SIGSEGV naming the first unmapped address *)
  (match Space.read_sub s (end_ - 8) 9 with
   | _ -> Alcotest.fail "expected SIGSEGV past region end"
   | exception Fault.Fault (Fault.Segfault, addr) ->
     check_int "faulting address is the region limit" end_ addr);
  (* reads longer than one copy chunk still roundtrip *)
  Space.fill s 4096 5000 'k';
  Alcotest.(check string) "multi-chunk read" (String.make 5000 'k')
    (Space.read_sub s 4096 5000)

let test_read_into_bad_block_exact () =
  let s = Space.create () in
  let d = Memdev.create_persistent ~name:"p" 8192 in
  Space.map s ~base:4096 ~size:8192 ~kind:Space.Persistent ~name:"p" d;
  Space.fill s 4096 600 'g';
  Memdev.add_bad_block d ~off:500 ~len:8;
  let dst = Bytes.make 600 '.' in
  (* the clean prefix must land in [dst] byte-exactly before the SIGBUS,
     even though the bad block sits mid-chunk *)
  (match Space.read_into s 4096 ~len:600 ~dst ~dst_off:0 with
   | () -> Alcotest.fail "expected SIGBUS on the bad block"
   | exception Fault.Fault (Fault.Bus_error, off) ->
     check_int "fault names the first bad device byte" 500 off);
  Alcotest.(check string) "clean prefix copied exactly"
    (String.make 500 'g' ^ String.make 100 '.')
    (Bytes.to_string dst)

let test_compare_string_device_side () =
  let s = mk_space () in
  Space.write_string s 4100 "apple";
  check_int "equal" 0 (Space.compare_string s 4100 ~len:5 "apple");
  check_bool "device lt" true (Space.compare_string s 4100 ~len:5 "apples" < 0);
  check_bool "device gt" true (Space.compare_string s 4100 ~len:5 "appld" > 0);
  check_bool "equal_string" true (Space.equal_string s 4100 "apple");
  check_bool "same-length mismatch" false (Space.equal_string s 4100 "appla");
  (* equal_string only sizes its window by the candidate: a shorter
     candidate matching a device prefix is the caller's length check *)
  check_bool "prefix matches by design" true (Space.equal_string s 4100 "appl");
  Space.reset_stats s;
  ignore (Space.compare_string s 4100 ~len:5 "zzzzz");
  let st = Space.stats s in
  check_int "compare is one load event" 1 st.Space.pm_loads

let test_view_reads_and_stats () =
  let s = mk_space () in
  Space.write_string s 4200 "KKKKVVVVVV";
  Space.store_word s 4264 0xFEED;
  Space.reset_stats s;
  let v = Space.read_view s 4200 128 in
  (* the open is the whole window's load: one event, all its bytes *)
  let st = Space.stats s in
  check_int "open is one load event" 1 st.Space.pm_loads;
  check_int "open loads the window" 128 st.Space.pm_bytes_loaded;
  check_int "word through view" 0xFEED (Space.view_word v 64);
  Alcotest.(check string) "string through view" "VVVVVV"
    (Space.view_string v ~off:4 ~len:6);
  check_int "compare equal" 0 (Space.view_compare_string v ~off:0 ~len:4 "KKKK");
  check_bool "compare lt" true
    (Space.view_compare_string v ~off:0 ~len:4 "KKKKV" < 0);
  check_bool "compare gt" true
    (Space.view_compare_string v ~off:0 ~len:4 "KKKJ" > 0);
  check_bool "equal" true (Space.view_equal_string v ~off:4 "VVVVVV");
  check_bool "equal mismatch" false (Space.view_equal_string v ~off:0 "KKKX");
  (* reads through an open view are raw: no further accounting *)
  check_int "reads add no event" 1 st.Space.pm_loads;
  check_int "reads add no bytes" 128 st.Space.pm_bytes_loaded

let test_view_misuse_typed () =
  let s = mk_space () in
  let v = Space.read_view s 4200 64 in
  Alcotest.check_raises "empty window rejected"
    (Invalid_argument "Space.read_view: window must be non-empty")
    (fun () -> ignore (Space.read_view s 4200 0));
  (match Space.view_word v 60 with
   | _ -> Alcotest.fail "expected Out_of_window"
   | exception Space.Out_of_window { addr; window; off; len } ->
     check_int "window base" 4200 addr;
     check_int "window size" 64 window;
     check_int "bad offset" 60 off;
     check_int "bad len" 8 len);
  (match Space.view_string v ~off:(-1) ~len:4 with
   | _ -> Alcotest.fail "expected Out_of_window"
   | exception Space.Out_of_window _ -> ())

let test_view_bad_block_faults () =
  (* the media check is paid at open, over exactly the window *)
  let s = Space.create () in
  let d = Memdev.create_persistent ~name:"p" 8192 in
  Space.map s ~base:4096 ~size:8192 ~kind:Space.Persistent ~name:"p" d;
  Space.fill s 4096 64 'q';
  Memdev.add_bad_block d ~off:32 ~len:4;
  let v = Space.read_view s 4096 32 in
  Alcotest.(check string) "window short of the block reads" (String.make 8 'q')
    (Space.view_string v ~off:24 ~len:8);
  (match Space.read_view s 4096 64 with
   | _ -> Alcotest.fail "expected SIGBUS opening the view"
   | exception Fault.Fault (Fault.Bus_error, off) ->
     check_int "exact bad device byte" 32 off)

(* The typed accessors are the inner loop of every served op: on an
   untracked device with no injector none of them may allocate. The
   smallest heap block is two words, so any allocation per call shows
   as at least 2 minor words per call; the two boxed floats of the
   measurement itself vanish in the division. *)
let test_space_typed_no_alloc () =
  let s = mk_space () in
  let a = 8192 and str = "8 bytes!" in
  let per_call name f =
    f ();
    let n = 10_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do f () done;
    let w = Gc.minor_words () -. w0 in
    check_int (name ^ ": minor words per call") 0
      (int_of_float (w /. float_of_int n))
  in
  per_call "load_u8" (fun () -> ignore (Space.load_u8 s a));
  per_call "load_u16" (fun () -> ignore (Space.load_u16 s a));
  per_call "load_u32" (fun () -> ignore (Space.load_u32 s a));
  per_call "load_word" (fun () -> ignore (Space.load_word s a));
  per_call "store_u8" (fun () -> Space.store_u8 s a 1);
  per_call "store_u16" (fun () -> Space.store_u16 s a 1);
  per_call "store_u32" (fun () -> Space.store_u32 s a 1);
  per_call "store_word" (fun () -> Space.store_word s a 1);
  per_call "write_string" (fun () -> Space.write_string s a str);
  per_call "flush" (fun () -> Space.flush s a 64);
  per_call "fence_at" (fun () -> Space.fence_at s a);
  per_call "persist" (fun () -> Space.persist s a 64);
  per_call "store_word_persist" (fun () -> Space.store_word_persist s a 1)

let prop_tlb_never_stale =
  QCheck.Test.make
    ~name:"tlb never serves a stale translation across map/unmap" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 1 40) (pair (int_bound 3) (int_bound 2)))
    (fun ops ->
      (* four slots, each 2 pages apart; every mapped device carries a
         unique stamp so a stale TLB entry is immediately visible *)
      let s = Space.create () in
      let stamps = Array.make 4 None in
      let next = ref 0 in
      let base i = 4096 + (i * 8192) in
      let ok = ref true in
      List.iter
        (fun (slot, action) ->
          let i = slot land 3 in
          match (action, stamps.(i)) with
          | 0, None ->
            incr next;
            let d = Memdev.create_persistent ~name:"d" 8192 in
            Memdev.store_word d ~off:0 !next;
            Space.map s ~base:(base i) ~size:8192 ~kind:Space.Persistent
              ~name:(string_of_int !next) d;
            stamps.(i) <- Some !next
          | 0, Some _ ->
            Space.unmap s ~base:(base i);
            stamps.(i) <- None
          | _, expected -> (
            match Space.load_word s (base i) with
            | v -> if expected <> Some v then ok := false
            | exception Fault.Fault _ -> if expected <> None then ok := false))
        ops;
      !ok)

(* Vheap *)

let test_vheap_basic () =
  let s = Space.create () in
  let h = Vheap.create s 65536 in
  let a = Vheap.malloc h 100 in
  let b = Vheap.malloc h 200 in
  check_bool "disjoint" true (b >= a + 100 || a >= b + 200);
  Space.write_string s a "data";
  Alcotest.(check string) "rw" "data"
    (Bytes.to_string (Space.read_bytes s a 4));
  Vheap.free h a;
  Vheap.free h b;
  check_int "all free" 0 (Vheap.bytes_live h)

let test_vheap_coalesce_reuse () =
  let s = Space.create () in
  let h = Vheap.create s 4096 in
  let a = Vheap.malloc h 1024 in
  let b = Vheap.malloc h 1024 in
  let c = Vheap.malloc h 1024 in
  Vheap.free h a; Vheap.free h b; Vheap.free h c;
  (* after coalescing, a 3 KiB block must fit again *)
  let big = Vheap.malloc h 3072 in
  check_int "reused from start" a big

let test_vheap_realloc_preserves () =
  let s = Space.create () in
  let h = Vheap.create s 65536 in
  let a = Vheap.malloc h 16 in
  Space.write_string s a "0123456789ABCDEF";
  let b = Vheap.realloc h a 64 in
  Alcotest.(check string) "contents preserved" "0123456789ABCDEF"
    (Bytes.to_string (Space.read_bytes s b 16))

let test_vheap_double_free () =
  let s = Space.create () in
  let h = Vheap.create s 4096 in
  let a = Vheap.malloc h 8 in
  Vheap.free h a;
  Alcotest.check_raises "double free"
    (Invalid_argument "Vheap.free: not a live allocation")
    (fun () -> Vheap.free h a)

let test_vheap_oom () =
  let s = Space.create () in
  let h = Vheap.create s 1024 in
  Alcotest.check_raises "oom" Out_of_memory
    (fun () -> ignore (Vheap.malloc h 4096))

(* Property tests *)

let prop_word_roundtrip =
  QCheck.Test.make ~name:"space word store/load roundtrip" ~count:500
    QCheck.(pair (int_bound 65000) (int_bound max_int))
    (fun (off, v) ->
      QCheck.assume (off land 7 = 0 && off + 8 <= 65536);
      let s = Space.create () in
      let d = Memdev.create_persistent ~name:"p" 65536 in
      Space.map s ~base:4096 ~size:65536 ~kind:Space.Persistent ~name:"p" d;
      Space.store_word s (4096 + off) v;
      Space.load_word s (4096 + off) = v)

let prop_vheap_disjoint =
  QCheck.Test.make ~name:"vheap live allocations never overlap" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 1 200))
    (fun sizes ->
      let s = Space.create () in
      let h = Vheap.create s (1 lsl 20) in
      let addrs = List.map (fun sz -> (Vheap.malloc h sz, sz)) sizes in
      (* free every other allocation to fragment the heap *)
      List.iteri (fun i (a, _) -> if i mod 2 = 0 then Vheap.free h a) addrs;
      let live = Vheap.live_allocations h in
      let rec disjoint = function
        | (a1, s1) :: ((a2, _) :: _ as rest) ->
          a1 + s1 <= a2 && disjoint rest
        | _ -> true
      in
      disjoint live)

let prop_crash_is_prefix_consistent =
  QCheck.Test.make
    ~name:"crash never resurrects pre-tracking state after persist" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 20) (pair (int_bound 400) (int_bound 255)))
    (fun writes ->
      let d = Memdev.create_persistent ~name:"p" 512 in
      Memdev.set_tracking d true;
      List.iter
        (fun (off, v) ->
          let off = min off 511 in
          Memdev.store_bytes d ~off (Bytes.make 1 (Char.chr v)) ~src_off:0 ~len:1;
          Memdev.persist d ~off ~len:1)
        writes;
      let expected = Bytes.copy (Memdev.load_bytes d ~off:0 ~len:512) in
      Memdev.crash d;
      Bytes.equal expected (Memdev.load_bytes d ~off:0 ~len:512))

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "spp_sim"
    [
      ( "memdev",
        [
          Alcotest.test_case "roundtrip" `Quick test_memdev_roundtrip;
          Alcotest.test_case "bounds" `Quick test_memdev_bounds;
          Alcotest.test_case "unfenced store lost on crash" `Quick
            test_tracking_unfenced_lost;
          Alcotest.test_case "flush without fence lost" `Quick
            test_tracking_flush_without_fence_lost;
          Alcotest.test_case "persist survives crash" `Quick
            test_tracking_persist_survives;
          Alcotest.test_case "cacheline flush granularity" `Quick
            test_tracking_cacheline_granularity;
          Alcotest.test_case "crash applying subset" `Quick
            test_crash_applying_subset;
          Alcotest.test_case "crash applying ignores list order" `Quick
            test_crash_applying_order_insensitive;
          Alcotest.test_case "program-order replay" `Quick
            test_program_order_replay;
          Alcotest.test_case "injector sees durability events" `Quick
            test_injector_sees_events;
          Alcotest.test_case "power off discards late stores" `Quick
            test_power_off_discards_everything;
          Alcotest.test_case "bad block raises bus error" `Quick
            test_bad_block_bus_error;
          Alcotest.test_case "corrupt_durable flips bits" `Quick
            test_corrupt_durable_flips_bit;
          Alcotest.test_case "save/load pool file" `Quick test_save_load_durable;
          Alcotest.test_case "load_durable validates size and magic" `Quick
            test_load_durable_validation;
          Alcotest.test_case "device-level blit" `Quick test_memdev_blit;
          Alcotest.test_case "one image unless tracking" `Quick
            test_one_image_footprint;
          Alcotest.test_case "of_image adopts its buffer" `Quick
            test_of_image_adopts;
          Alcotest.test_case "untracked crash keeps the view" `Quick
            test_untracked_crash_keeps_view;
        ] );
      ( "space",
        [
          Alcotest.test_case "word roundtrip" `Quick test_space_word_roundtrip;
          Alcotest.test_case "typed accessors" `Quick test_space_typed_accessors;
          Alcotest.test_case "unmapped access faults" `Quick
            test_space_unmapped_faults;
          Alcotest.test_case "overlapping map rejected" `Quick
            test_space_overlap_rejected;
          Alcotest.test_case "blit and cstrings" `Quick
            test_space_blit_and_strings;
          Alcotest.test_case "access stats" `Quick test_space_stats;
          Alcotest.test_case "byte counters" `Quick test_space_byte_counters;
          Alcotest.test_case "tlb hit/miss counters" `Quick
            test_space_tlb_counters;
          Alcotest.test_case "memcmp and strcmp" `Quick
            test_space_memcmp_strcmp;
          Alcotest.test_case "chunked strlen boundaries" `Quick
            test_strlen_chunked_boundaries;
          Alcotest.test_case "strlen vs bad blocks" `Quick
            test_strlen_bad_block_semantics;
          Alcotest.test_case "tlb unmap/remap not stale" `Quick
            test_tlb_unmap_remap_no_stale;
          Alcotest.test_case "read_into roundtrip and counters" `Quick
            test_read_into_roundtrip_and_counters;
          Alcotest.test_case "read_into region boundary" `Quick
            test_read_into_region_boundary;
          Alcotest.test_case "read_into bad-block exactness" `Quick
            test_read_into_bad_block_exact;
          Alcotest.test_case "device-side compare_string" `Quick
            test_compare_string_device_side;
          Alcotest.test_case "view reads and stats" `Quick
            test_view_reads_and_stats;
          Alcotest.test_case "view misuse typed errors" `Quick
            test_view_misuse_typed;
          Alcotest.test_case "view bad block faults" `Quick
            test_view_bad_block_faults;
          Alcotest.test_case "typed accesses allocate nothing" `Quick
            test_space_typed_no_alloc;
          Alcotest.test_case "a TLB miss allocates nothing" `Quick
            test_tlb_miss_no_alloc;
        ] );
      ( "vheap",
        [
          Alcotest.test_case "malloc/free" `Quick test_vheap_basic;
          Alcotest.test_case "coalesce and reuse" `Quick
            test_vheap_coalesce_reuse;
          Alcotest.test_case "realloc preserves contents" `Quick
            test_vheap_realloc_preserves;
          Alcotest.test_case "double free rejected" `Quick test_vheap_double_free;
          Alcotest.test_case "out of memory" `Quick test_vheap_oom;
        ] );
      ( "properties",
        [ qt prop_word_roundtrip; qt prop_vheap_disjoint;
          qt prop_crash_is_prefix_consistent;
          qt prop_tracking_matches_model;
          qt prop_tracked_full_flush_equals_untracked;
          qt prop_tlb_never_stale ] );
    ]
