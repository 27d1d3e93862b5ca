(* Pool facade — the libpmemobj-equivalent public API.

   Functions mirror PMDK: [alloc]/[free_]/[realloc] are the atomic API
   (each call one redo log, see [Heap]), [with_tx]/[tx_add_range]/
   [tx_alloc]/[tx_free] the transactional one, [direct] is
   pmemobj_direct, [root] is pmemobj_root. A single pool lock
   serializes heap and transaction operations (PMDK's runtime does the
   same for allocator metadata); plain data loads/stores are issued by the
   application through the access layer and are not serialized here. *)

open Spp_sim

type t = Rep.t

exception Wrong_pool of Oid.t

let () =
  Printexc.register_printer (function
    | Wrong_pool oid ->
      Some
        (Printf.sprintf
           "Pool.Wrong_pool: oid {uuid=0x%x; off=0x%x; size=%d} does not \
            belong to this pool"
           oid.Oid.uuid oid.Oid.off oid.Oid.size)
    | _ -> None)

let magic_word = Rep.magic
let min_pool_size = Rep.min_pool_size

let uuid_counter = ref 0x1000

let next_uuid () =
  incr uuid_counter;
  !uuid_counter

let check_span ~base ~size mode =
  match mode with
  | Mode.Native -> ()
  | Mode.Spp cfg ->
    if base + size > Spp_core.Config.max_pool_span cfg then
      invalid_arg
        (Printf.sprintf
           "Pool: pool [0x%x, 0x%x) exceeds the %d-bit address span of the \
            SPP tag configuration"
           base (base + size) (Spp_core.Config.addr_bits cfg))

let make_rep space dev ~base ~size ~mode ~uuid ~redzone =
  let ulog_cap = Rep.ulog_cap_for_pool_size size in
  { Rep.space; dev; base; psize = size; mode; uuid; ulog_cap;
    heap_base = Rep.heap_base_for ~ulog_cap;
    redzone;
    lock = Mutex.create ();
    tx_lock = Mutex.create ();
    tx_ranges = []; tx_depth = 0; tx_lifetimes = [];
    lifetime_observer = None; reports = [];
    batch_observer = None;
    compose = Bytes.empty;
    header_image = Bytes.create Rep.block_header_size;
    overlay = Hashtbl.create 64;
    free_stacks = Array.make Rep.n_classes [||];
    free_tops = Array.make Rep.n_classes 0;
    free_built = false }

let valid_redzone rz = rz >= 0 && rz land 7 = 0

let create ?(redzone = 0) space ~base ~size ~mode ~name =
  check_span ~base ~size mode;
  if not (valid_redzone redzone) then
    invalid_arg "Pool.create: redzone must be a non-negative multiple of 8";
  let dev = Memdev.create_persistent ~name size in
  Space.map space ~base ~size ~kind:Space.Persistent ~name dev;
  let uuid = next_uuid () in
  let t = make_rep space dev ~base ~size ~mode ~uuid ~redzone in
  Rep.store t Rep.off_magic Rep.magic;
  Rep.store t Rep.off_uuid uuid;
  Rep.store t Rep.off_pool_size size;
  let mode_word = if Mode.is_spp mode then 1 else 0 in
  let tag_bits =
    match mode with
    | Mode.Native -> 0
    | Mode.Spp cfg -> Spp_core.Config.tag_bits cfg
  in
  Rep.store t Rep.off_mode mode_word;
  Rep.store t Rep.off_tag_bits tag_bits;
  if redzone <> 0 then Rep.store t Rep.off_redzone redzone;
  Rep.store t Rep.off_hdr_csum
    (Rep.header_checksum ~uuid ~psize:size ~mode_word ~tag_bits ~redzone);
  Rep.store t Rep.off_heap_bump t.Rep.heap_base;
  Rep.store_oid t Rep.off_root Oid.null;
  Rep.store t Rep.off_redo_valid 0;
  Rep.store t Rep.off_tx_state Rep.tx_idle;
  Rep.store t Rep.off_ulog_used 0;
  Rep.persist t 0 t.Rep.heap_base;
  (* nothing is carved yet: the empty stacks match the media *)
  t.Rep.free_built <- true;
  t

type recovery_report = {
  redo_replayed : bool;
  tx_outcome : [ `Clean | `Rolled_back | `Completed_commit ];
}

let recover (t : Rep.t) =
  t.Rep.tx_depth <- 0;
  t.Rep.tx_ranges <- [];
  t.Rep.tx_lifetimes <- [];
  (* The stacks may name blocks whose frees a crash discarded (a
     powered-off device drops a commit the process went on to push):
     rebuild them from the media at the next allocation. *)
  t.Rep.free_built <- false;
  let redo_replayed = Redo.recover t in
  let tx_outcome = Tx.recover t in
  { redo_replayed; tx_outcome }

(* Typed open errors: a pool image from failed media must degrade into a
   diagnosable [Error], never an untyped exception (paper §IV-F treats
   metadata durability as the safety root; an unreadable root must not
   take the process down). *)

type pool_error =
  | Bad_header of string
  | Bad_checksum of { stored : int; computed : int }
  | Truncated of { expected : int; actual : int }
  | Corrupt_log of string

let pool_error_to_string = function
  | Bad_header msg -> Printf.sprintf "bad header: %s" msg
  | Bad_checksum { stored; computed } ->
    Printf.sprintf "bad header checksum: stored 0x%x, computed 0x%x"
      stored computed
  | Truncated { expected; actual } ->
    Printf.sprintf "truncated image: %d bytes, expected at least %d"
      actual expected
  | Corrupt_log msg -> Printf.sprintf "corrupt log area: %s" msg

let pp_pool_error ppf e = Format.pp_print_string ppf (pool_error_to_string e)

exception Open_error of pool_error

let open_dev space ~base dev =
  let size = Memdev.size dev in
  if size < Rep.min_pool_size then
    Error (Truncated { expected = Rep.min_pool_size; actual = size })
  else begin
    (* The header must be readable before we know mode/uuid; map first. *)
    Space.map space ~base ~size ~kind:Space.Persistent
      ~name:(Memdev.name dev) dev;
    let bad e = raise (Open_error e) in
    match
      let probe =
        make_rep space dev ~base ~size ~mode:Mode.Native ~uuid:0 ~redzone:0
      in
      let magic = Rep.load probe Rep.off_magic in
      if magic <> Rep.magic then
        bad (Bad_header
               (Printf.sprintf "magic 0x%x, expected 0x%x (not a pool)"
                  magic Rep.magic));
      let stored_size = Rep.load probe Rep.off_pool_size in
      if stored_size > size then
        bad (Truncated { expected = stored_size; actual = size });
      if stored_size <> size then
        bad (Bad_header
               (Printf.sprintf "header pool size %d < device size %d"
                  stored_size size));
      let mode_word = Rep.load probe Rep.off_mode in
      if mode_word <> 0 && mode_word <> 1 then
        bad (Bad_header (Printf.sprintf "mode word %d not in {0, 1}" mode_word));
      let tag_bits = Rep.load probe Rep.off_tag_bits in
      let uuid = Rep.load probe Rep.off_uuid in
      let redzone = Rep.load probe Rep.off_redzone in
      let stored = Rep.load probe Rep.off_hdr_csum in
      let computed =
        Rep.header_checksum ~uuid ~psize:stored_size ~mode_word ~tag_bits
          ~redzone
      in
      if stored <> computed then bad (Bad_checksum { stored; computed });
      if not (valid_redzone redzone) then
        bad (Bad_header
               (Printf.sprintf "redzone %d not a non-negative multiple of 8"
                  redzone));
      let mode =
        if mode_word = 0 then Mode.Native
        else
          match Spp_core.Config.make ~tag_bits with
          | cfg -> Mode.Spp cfg
          | exception Invalid_argument msg -> bad (Bad_header msg)
      in
      (match check_span ~base ~size mode with
       | () -> ()
       | exception Invalid_argument msg -> bad (Bad_header msg));
      let t = make_rep space dev ~base ~size ~mode ~uuid ~redzone in
      (* Redo replay / tx rollback walk log areas whose contents a media
         fault may have scrambled; surface parse failures as typed
         corruption, not an escape. *)
      (match recover t with
       | report -> (t, report)
       | exception e -> bad (Corrupt_log (Printexc.to_string e)))
    with
    | result -> Ok result
    | exception Open_error e ->
      Space.unmap space ~base;
      Error e
    | exception e ->
      Space.unmap space ~base;
      Error (Bad_header ("unexpected failure: " ^ Printexc.to_string e))
  end

let of_dev space ~base dev =
  match open_dev space ~base dev with
  | Ok (t, _report) -> t
  | Error e -> invalid_arg ("Pool.of_dev: " ^ pool_error_to_string e)

let crash_and_recover (t : Rep.t) =
  (* Simulated power failure and restart of the same pool: the view
     reverts to the durable image, then normal open-time recovery runs. *)
  Memdev.crash t.Rep.dev;
  recover t

(* Accessors. *)

let space (t : Rep.t) = t.Rep.space
let dev (t : Rep.t) = t.Rep.dev
let base (t : Rep.t) = t.Rep.base
let size (t : Rep.t) = t.Rep.psize
let mode (t : Rep.t) = t.Rep.mode
let uuid (t : Rep.t) = t.Rep.uuid
let oid_stored_size (t : Rep.t) = Rep.oid_stored_size t
let heap_base (t : Rep.t) = t.Rep.heap_base

let redzone (t : Rep.t) = t.Rep.redzone

(* Lifetimes. The atomic and transactional paths queue their reports
   under the pool lock ([Rep.report]) and [with_lock] hands them to the
   observer once the lock is released: a checker's shadow write may
   snapshot through [tx_add_range], which takes the lock again. A batch
   opens no transaction, so [Redo] delivers its reports under the lock,
   when the program's view of the block changes ([Redo.batch_note]). *)

type lifetime = Rep.lifetime = Live | Dead

let set_lifetime_observer (t : Rep.t) obs = t.Rep.lifetime_observer <- obs

let with_lock (t : Rep.t) f =
  Mutex.lock t.Rep.lock;
  let release () =
    match t.Rep.reports with
    | [] -> Mutex.unlock t.Rep.lock
    | reports ->
      t.Rep.reports <- [];
      Mutex.unlock t.Rep.lock;
      Option.iter
        (fun obs -> List.iter (fun (ev, oid) -> obs ev oid) (List.rev reports))
        t.Rep.lifetime_observer
  in
  match f () with
  | v -> release (); v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    release ();
    Printexc.raise_with_backtrace e bt

(* The [Dead] report for [oid], which the caller is about to free: its
   requested size is read while the block still holds it, and only
   under an observer. *)
let dying (t : Rep.t) (oid : Oid.t) =
  match t.Rep.lifetime_observer with
  | Some _ when not (Oid.is_null oid) ->
    Some { oid with Oid.size = Rep.user_size t ~data_off:(Rep.block_off t oid) }
  | _ -> None

(* Atomic object management (pmemobj_alloc / _zalloc / _free / _realloc). *)

let alloc ?(zero = false) ?dest (t : Rep.t) ~size =
  with_lock t (fun () ->
    let oid = Heap.alloc t ~zero ~size ~dest () in
    Rep.report t Rep.Live oid;
    oid)

let check_owner (t : Rep.t) (oid : Oid.t) =
  if oid.Oid.uuid <> t.Rep.uuid then raise (Wrong_pool oid)

let block_off (t : Rep.t) (oid : Oid.t) = Rep.block_off t oid

let free_ ?dest (t : Rep.t) (oid : Oid.t) =
  check_owner t oid;
  with_lock t (fun () ->
    let dead = dying t oid in
    Heap.free t ~data_off:(Rep.block_off t oid) ~dest;
    Option.iter (Rep.report t Rep.Dead) dead)

let realloc ?dest (t : Rep.t) (oid : Oid.t) ~size =
  if not (Oid.is_null oid) then check_owner t oid;
  with_lock t (fun () ->
    let dead = dying t oid in
    let oid' = Heap.realloc t oid ~new_size:size ~dest in
    Option.iter (Rep.report t Rep.Dead) dead;
    Rep.report t Rep.Live oid';
    oid')

let alloc_size (t : Rep.t) (oid : Oid.t) =
  check_owner t oid;
  Rep.user_size t ~data_off:(Rep.block_off t oid)

let usable_size (t : Rep.t) (oid : Oid.t) =
  (* Class-rounded block capacity less the redzones —
     pmemobj_alloc_usable_size. *)
  check_owner t oid;
  let st = Rep.block_state t ~data_off:(Rep.block_off t oid) in
  Rep.class_size (Rep.state_class st) - (2 * t.Rep.redzone)

(* pmemobj_direct: oid -> native (possibly tagged) pointer (paper §IV-B). *)

let direct (t : Rep.t) (oid : Oid.t) =
  if Oid.is_null oid then 0
  else begin
    check_owner t oid;
    let addr = t.Rep.base + oid.Oid.off in
    match t.Rep.mode with
    | Mode.Native -> addr
    | Mode.Spp cfg -> Spp_core.Encoding.mk_tagged cfg ~addr ~size:oid.Oid.size
  end

(* pmemobj_root: allocate once into the header's root slot, atomically. *)

let root (t : Rep.t) ~size =
  with_lock t (fun () ->
    let existing = Rep.load_oid t Rep.off_root in
    if Oid.is_null existing then begin
      let oid = Heap.alloc t ~zero:true ~size ~dest:(Some Rep.off_root) () in
      Rep.report t Rep.Live oid;
      oid
    end
    else existing)

let root_oid (t : Rep.t) = Rep.load_oid t Rep.off_root

(* Transactions. *)

(* The pool has a single undo lane, so the outermost tx_begin holds the
   tx lock until commit or abort — concurrent transactions serialize,
   like contending for a PMDK lane. A transaction reports an allocation
   once it is published and a free when it is called; an abort reports
   the opposite of each, newest first. *)

let tx_report (t : Rep.t) ev oid =
  Rep.report t ev oid;
  if Option.is_some t.Rep.lifetime_observer then
    t.Rep.tx_lifetimes <- (ev, oid) :: t.Rep.tx_lifetimes

let tx_begin (t : Rep.t) =
  if t.Rep.tx_depth = 0 then Mutex.lock t.Rep.tx_lock;
  with_lock t (fun () -> Tx.tx_begin t)

let tx_commit (t : Rep.t) =
  let outer = t.Rep.tx_depth = 1 in
  with_lock t (fun () -> Tx.tx_commit t);
  if outer then Mutex.unlock t.Rep.tx_lock

let tx_abort (t : Rep.t) =
  with_lock t (fun () ->
    let undone = t.Rep.tx_lifetimes in
    Tx.tx_abort t;
    List.iter
      (fun (ev, oid) ->
        Rep.report t (if ev = Rep.Live then Rep.Dead else Rep.Live) oid)
      undone);
  Mutex.unlock t.Rep.tx_lock

let tx_add_range (t : Rep.t) ~off ~len =
  with_lock t (fun () -> Tx.add_range t ~off ~len)

let tx_add_range_oid (t : Rep.t) oid =
  check_owner t oid;
  with_lock t (fun () -> Tx.add_range_oid t oid)

let tx_alloc ?(zero = false) (t : Rep.t) ~size =
  with_lock t (fun () ->
    let oid = Tx.alloc t ~zero ~size () in
    tx_report t Rep.Live oid;
    oid)

let tx_realloc (t : Rep.t) oid ~size =
  if not (Oid.is_null oid) then check_owner t oid;
  with_lock t (fun () ->
    let dead = dying t oid in
    let fresh = Tx.realloc t oid ~size in
    tx_report t Rep.Live fresh;
    Option.iter (tx_report t Rep.Dead) dead;
    fresh)

let tx_free (t : Rep.t) oid =
  if not (Oid.is_null oid) then check_owner t oid;
  with_lock t (fun () ->
    let dead = dying t oid in
    Tx.free t oid;
    Option.iter (tx_report t Rep.Dead) dead)

let with_tx (t : Rep.t) f =
  tx_begin t;
  match f () with
  | v -> tx_commit t; v
  | exception e -> tx_abort t; raise e

let in_tx (t : Rep.t) = Tx.in_tx t

(* Group commit. The batch takes the pool's single lane (tx_lock) for
   its whole lifetime — transactions and other batches serialize behind
   it, exactly as contending PMDK writers do — plus the allocator lock,
   since batched ops read and stage heap metadata directly. If [f]
   raises, everything staged since the last sub-commit is discarded: the
   durable state then holds a prefix of whole operations, never a torn
   one (the same guarantee a crash gets). The free stacks lost the
   blocks the discarded ops took, so they are rebuilt from the media,
   and the observer hears those blocks die. *)

let with_batch (t : Rep.t) f =
  Mutex.lock t.Rep.tx_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.Rep.tx_lock)
    (fun () ->
      with_lock t (fun () ->
        let b = Redo.batch_begin t in
        match
          let r = f b in
          Redo.batch_finish b;
          r
        with
        | r -> r
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          t.Rep.free_built <- false;
          Redo.batch_abort b;
          Printexc.raise_with_backtrace e bt))

let batch_stage_word (_ : Rep.t) b ~off v = Redo.batch_stage b ~off ~v

let batch_load_oid (t : Rep.t) b ~off : Oid.t =
  match t.Rep.mode with
  | Mode.Native ->
    { Oid.uuid = Redo.batch_load b off;
      off = Redo.batch_load b (off + 8); size = 0 }
  | Mode.Spp _ ->
    { Oid.size = Redo.batch_load b off;
      uuid = Redo.batch_load b (off + 8);
      off = Redo.batch_load b (off + 16) }

(* Only the fields that differ from [prev] are staged: the uuid never
   changes within a pool and an updated entry usually keeps its size.
   [prev] comes from the caller's own read rather than a fresh load, so
   skipping a field costs no PM access. *)
let batch_stage_oid (t : Rep.t) b ~off ~(prev : Oid.t) (oid : Oid.t) =
  let field o v v0 = if v <> v0 then Redo.batch_stage b ~off:o ~v in
  match t.Rep.mode with
  | Mode.Native ->
    field off oid.Oid.uuid prev.Oid.uuid;
    field (off + 8) oid.Oid.off prev.Oid.off
  | Mode.Spp _ ->
    (* size strictly before off in application order (paper §IV-F) *)
    field off oid.Oid.size prev.Oid.size;
    field (off + 8) oid.Oid.uuid prev.Oid.uuid;
    field (off + 16) oid.Oid.off prev.Oid.off

let batch_buffer (_ : Rep.t) b len = Redo.batch_buffer b len
let batch_write (_ : Rep.t) b ~off buf ~pos ~len =
  Redo.batch_write b ~off buf ~pos ~len
let put_word = Rep.put_word
let put_oid = Rep.put_oid

let batch_alloc (t : Rep.t) b ~size =
  let oid = Heap.alloc_batched t b ~size in
  if Option.is_some t.Rep.lifetime_observer then
    Redo.batch_note b Rep.Live oid;
  oid

let batch_free (t : Rep.t) b (oid : Oid.t) =
  check_owner t oid;
  let data_off = Rep.block_off t oid in
  Heap.free_batched t b ~data_off;
  if Option.is_some t.Rep.lifetime_observer then
    (* the requested size as the batch sees it: an earlier op of the
       batch may have allocated the block *)
    Redo.batch_note b Rep.Dead
      { oid with
        Oid.size =
          Redo.batch_load b (Rep.header_off ~data_off) - (2 * t.Rep.redzone) }

(* Oid slots in PM (pool offsets). *)

let view_load_oid (t : Rep.t) v ~off : Oid.t =
  (* Same mode-aware layout, read raw through an opened [Space.view] —
     the caller already paid the window's checks at acquisition. *)
  match t.Rep.mode with
  | Mode.Native ->
    { Oid.uuid = Space.view_word v off;
      off = Space.view_word v (off + 8); size = 0 }
  | Mode.Spp _ ->
    { Oid.size = Space.view_word v off;
      uuid = Space.view_word v (off + 8);
      off = Space.view_word v (off + 16) }

let load_oid (t : Rep.t) ~off = Rep.load_oid t off
let store_oid (t : Rep.t) ~off oid = Rep.store_oid t off oid

(* Raw word access by pool offset — convenience for data-structure code. *)

let load_word (t : Rep.t) ~off = Rep.load t off
let store_word (t : Rep.t) ~off v = Rep.store t off v
let persist (t : Rep.t) ~off ~len = Rep.persist t off len

let addr_of_off (t : Rep.t) off = t.Rep.base + off
let off_of_addr (t : Rep.t) addr = addr - t.Rep.base

let heap_stats (t : Rep.t) = Heap.stats t
let fold_blocks (t : Rep.t) init f = Heap.fold_blocks t init f

(* Replication hooks: export committed sub-batches, import them on a
   replica. See [Redo.apply_payload]. *)

type batch_payload = Rep.batch_payload = {
  p_entries : (int * int) list;
  p_ops : int;
  p_writes : (int * Bytes.t) list;
}

let set_batch_observer (t : Rep.t) obs = t.Rep.batch_observer <- obs

let apply_batch_payload (t : Rep.t) p = Redo.apply_payload t p
