(* Crash-consistent size-class heap allocator.

   A block is [header 16 B][data]; header word 0 holds the requested size
   while allocated and the freelist link while free, header word 1 holds
   the state (allocated/published flags + size class). All state
   transitions that must be atomic — freelist pop/push, bump advance,
   header rewrite, destination oid publication — travel in a single redo
   batch, so a crash either keeps the old heap state or lands on the new
   one; there is no window where a live block or a freelist link is
   partially overwritten. The destination oid [size] entry precedes the
   [off] entry in the batch (paper §IV-F). *)

exception Out_of_pm

type dest =
  | No_dest           (* caller keeps the oid in volatile memory *)
  | Pm_slot of int    (* pool offset of a PM oid slot, published atomically *)

let link_off ~data_off = Rep.header_off ~data_off

(* Prepared allocation: everything needed to publish, with no media
   mutation yet except on virgin (bump-carved) space. *)
type prepared = {
  p_data_off : int;
  p_ci : int;
  p_entries : (int * int) list;   (* allocator update + header writes *)
}

let check_spp_size (t : Rep.t) size =
  match t.Rep.mode with
  | Mode.Native -> ()
  | Mode.Spp cfg ->
    if size > Spp_core.Config.max_object_size cfg then
      raise (Spp_core.Encoding.Object_too_large
               { size; max = Spp_core.Config.max_object_size cfg })

let publish_state ci =
  Rep.st_allocated lor Rep.st_published lor (ci lsl Rep.st_class_shift)

let stage_alloc (t : Rep.t) ~size =
  if size <= 0 then invalid_arg "Pmdk alloc: non-positive size";
  check_spp_size t size;
  let ci = Rep.class_of_size size in
  let head = Rep.load t (Rep.freelist_off ci) in
  if head <> 0 then begin
    (* Pop the freelist head. The block is not touched before publish:
       its link (header word 0) must stay valid in case of a crash. *)
    let next = Rep.load t (link_off ~data_off:head) in
    { p_data_off = head;
      p_ci = ci;
      p_entries =
        [ (Rep.freelist_off ci, next);
          (Rep.header_off ~data_off:head, size);
          (Rep.header_off ~data_off:head + 8, publish_state ci) ] }
  end else begin
    (* Carve virgin space past the bump pointer; the header can be staged
       directly since the block is unreachable until the bump advances. *)
    let bump = Rep.load t Rep.off_heap_bump in
    let data_off = bump + Rep.block_header_size in
    let new_bump = data_off + Rep.class_size ci in
    if new_bump > t.Rep.psize then raise Out_of_pm;
    Rep.set_block_header t ~data_off ~req_size:size
      ~state:(Rep.st_allocated lor (ci lsl Rep.st_class_shift));
    { p_data_off = data_off;
      p_ci = ci;
      p_entries =
        [ (Rep.off_heap_bump, new_bump);
          (Rep.header_off ~data_off + 8, publish_state ci) ] }
  end

let dest_entries (t : Rep.t) dest (oid : Oid.t) =
  match dest with
  | No_dest -> []
  | Pm_slot doff ->
    (match t.Rep.mode with
     | Mode.Native -> [ (doff, oid.Oid.uuid); (doff + 8, oid.Oid.off) ]
     | Mode.Spp _ ->
       (* size strictly before off in application order *)
       [ (doff, oid.Oid.size); (doff + 8, oid.Oid.uuid); (doff + 16, oid.Oid.off) ])

let publish_alloc (t : Rep.t) prepared ~size ~dest =
  let oid = { Oid.uuid = t.Rep.uuid; off = prepared.p_data_off; size } in
  Redo.run t (prepared.p_entries @ dest_entries t dest oid);
  oid

let alloc (t : Rep.t) ?(zero = false) ~size ~dest () =
  let p = stage_alloc t ~size in
  if zero then begin
    Spp_sim.Space.fill t.Rep.space
      (Rep.a t p.p_data_off) (Rep.class_size p.p_ci) '\000';
    Rep.persist t p.p_data_off (Rep.class_size p.p_ci)
  end;
  publish_alloc t p ~size ~dest

(* ------------------------------------------------------------------ *)
(* Group-commit variants: allocator staging inside a Redo.batch         *)
(* ------------------------------------------------------------------ *)

(* Same transitions as [stage_alloc]/[free_entries], but all allocator
   metadata is read through the batch overlay (so an op sees the bumps,
   pops and pushes of earlier ops in the batch) and the update entries
   are staged into the open batch op instead of forming a private redo
   run.

   Two deviations from the synchronous paths, both forced by deferred
   application. First, a block freed earlier in the batch still carries
   its durable pre-state — the free only lands at commit — so it must
   not be handed out again: such blocks are pinned, and the freelist
   walk pops the first unpinned block (unlinking from the middle is
   fine: the predecessor's link is just another staged word). Second,
   a virgin carve composes its header in DRAM and stores it with one
   [Redo.batch_write] plus a flush, with no fence: the commit's first
   persist supplies the drain, and until the staged bump advance
   commits the block is unreachable anyway. The header goes out
   unpublished; the staged state word publishes it at commit, on the
   primary and, after the header's blob, on every replica. *)

let alloc_batched (t : Rep.t) (b : Redo.batch) ~size =
  if size <= 0 then invalid_arg "Pmdk alloc: non-positive size";
  check_spp_size t size;
  let ci = Rep.class_of_size size in
  let stage off v = Redo.batch_stage b ~off ~v in
  let rec pop prev_off cand =
    if cand = 0 then None
    else if Redo.batch_pinned b cand then
      pop (link_off ~data_off:cand) (Redo.batch_load b (link_off ~data_off:cand))
    else Some (prev_off, cand)
  in
  let data_off =
    match pop (Rep.freelist_off ci) (Redo.batch_load b (Rep.freelist_off ci)) with
    | Some (prev_off, head) ->
      stage prev_off (Redo.batch_load b (link_off ~data_off:head));
      stage (Rep.header_off ~data_off:head) size;
      stage (Rep.header_off ~data_off:head + 8) (publish_state ci);
      head
    | None ->
      let bump = Redo.batch_load b Rep.off_heap_bump in
      let data_off = bump + Rep.block_header_size in
      let new_bump = data_off + Rep.class_size ci in
      if new_bump > t.Rep.psize then raise Out_of_pm;
      let hoff = Rep.header_off ~data_off in
      let hdr = t.Rep.header_image in
      Rep.put_word hdr ~pos:0 size;
      Rep.put_word hdr ~pos:8
        (Rep.st_allocated lor (ci lsl Rep.st_class_shift));
      Redo.batch_write b ~off:hoff hdr ~pos:0 ~len:Rep.block_header_size;
      Spp_sim.Space.flush t.Rep.space (Rep.a t hoff) Rep.block_header_size;
      stage Rep.off_heap_bump new_bump;
      stage (hoff + 8) (publish_state ci);
      data_off
  in
  { Oid.uuid = t.Rep.uuid; off = data_off; size }

let free_batched (_ : Rep.t) (b : Redo.batch) ~data_off =
  let st = Redo.batch_load b (Rep.header_off ~data_off + 8) in
  if not (Rep.state_is_allocated st && Rep.state_is_published st) then
    invalid_arg "Pmdk free: block is not allocated (double free?)";
  let ci = Rep.state_class st in
  let head = Redo.batch_load b (Rep.freelist_off ci) in
  Redo.batch_pin b data_off;
  Redo.batch_stage b ~off:(link_off ~data_off) ~v:head;
  Redo.batch_stage b ~off:(Rep.freelist_off ci) ~v:data_off;
  Redo.batch_stage b ~off:(Rep.header_off ~data_off + 8)
    ~v:(ci lsl Rep.st_class_shift)

(* Free. Entirely inside the redo batch: link write, freelist push and
   header demotion are atomic together. Idempotent via the published
   flag, which is what recovery needs when it re-runs a finished free. *)

let free_entries (t : Rep.t) ~data_off =
  let st = Rep.block_state t ~data_off in
  if not (Rep.state_is_allocated st && Rep.state_is_published st) then None
  else begin
    let ci = Rep.state_class st in
    let head = Rep.load t (Rep.freelist_off ci) in
    Some
      [ (link_off ~data_off, head);
        (Rep.freelist_off ci, data_off);
        (Rep.header_off ~data_off + 8, ci lsl Rep.st_class_shift) ]
  end

let free (t : Rep.t) ~data_off ~extra_entries =
  match free_entries t ~data_off with
  | None -> invalid_arg "Pmdk free: block is not allocated (double free?)"
  | Some entries -> Redo.run t (entries @ extra_entries)

let free_idempotent (t : Rep.t) ~data_off =
  match free_entries t ~data_off with
  | None -> ()
  | Some entries -> Redo.run t entries

(* Realloc: same class is a pure metadata update; a class change
   allocates, copies, and frees the old block, all in one redo batch. *)

let realloc (t : Rep.t) (oid : Oid.t) ~new_size ~dest =
  if Oid.is_null oid then alloc t ~size:new_size ~dest ()
  else begin
    if new_size <= 0 then invalid_arg "Pmdk realloc: non-positive size";
    check_spp_size t new_size;
    let data_off = oid.Oid.off in
    let st = Rep.block_state t ~data_off in
    if not (Rep.state_is_allocated st) then
      invalid_arg "Pmdk realloc: block is not allocated";
    let ci_old = Rep.state_class st in
    let ci_new = Rep.class_of_size new_size in
    if ci_old = ci_new then begin
      let oid' = { oid with Oid.size = new_size } in
      Redo.run t
        ((Rep.header_off ~data_off, new_size) :: dest_entries t dest oid');
      oid'
    end else begin
      let p = stage_alloc t ~size:new_size in
      let old_size = Rep.block_req_size t ~data_off in
      Spp_sim.Space.blit t.Rep.space
        ~src:(Rep.a t data_off) ~dst:(Rep.a t p.p_data_off)
        ~len:(min old_size new_size);
      Rep.persist t p.p_data_off (min old_size new_size);
      let oid' = { Oid.uuid = t.Rep.uuid; off = p.p_data_off; size = new_size } in
      let free_old =
        match free_entries t ~data_off with
        | Some e -> e
        | None -> assert false
      in
      Redo.run t (p.p_entries @ free_old @ dest_entries t dest oid');
      oid'
    end
  end

(* Heap accounting: walk the carved blocks. Used for Table III. *)

type stats = {
  allocated_blocks : int;
  allocated_bytes : int;   (* header + class size of live blocks *)
  requested_bytes : int;   (* sum of live requested sizes *)
  free_blocks : int;
  heap_used : int;         (* bump - heap_base *)
}

let stats (t : Rep.t) =
  let bump = Rep.load t Rep.off_heap_bump in
  let rec go off acc =
    if off >= bump then acc
    else begin
      let data_off = off + Rep.block_header_size in
      let st = Rep.block_state t ~data_off in
      let ci = Rep.state_class st in
      let blk = Rep.block_header_size + Rep.class_size ci in
      let acc =
        if Rep.state_is_allocated st then
          { acc with
            allocated_blocks = acc.allocated_blocks + 1;
            allocated_bytes = acc.allocated_bytes + blk;
            requested_bytes =
              acc.requested_bytes + Rep.block_req_size t ~data_off }
        else { acc with free_blocks = acc.free_blocks + 1 }
      in
      go (off + blk) acc
    end
  in
  go t.Rep.heap_base
    { allocated_blocks = 0; allocated_bytes = 0; requested_bytes = 0;
      free_blocks = 0; heap_used = bump - t.Rep.heap_base }
