(* Crash-consistent size-class heap allocator.

   A block is [header 16 B][data]; header word 0 holds the requested
   size, header word 1 the state (allocated/published flags + size
   class). A request for [size] bytes takes a block of [size + 2 *
   redzone] ([Rep.block_size]) and hands out the oid past its left
   redzone ([Rep.user_oid]); the functions that take a block back take
   its data offset. The free lists live in DRAM, as in PMDK: one stack
   of free block offsets per class ([Rep.free_stacks]), empty after
   create and rebuilt lazily, by one walk of the carved blocks up to
   the durable bump, at the first allocation after open, recovery or a
   batch that raised. A block joins its stack only once its free is
   durable.

   So an allocation stages the block's state word (plus its requested
   size when that changes, and the bump advance when it carves virgin
   space) and a free stages the state word alone. There is one staging
   path, [alloc_batched]/[free_batched], into an op of a redo batch: a
   group commit stages many ops into one batch, and the atomic API
   ([alloc], [free], [free_idempotent], [realloc]) stages one op that
   commits at once ([Redo.atomically]), with the destination oid staged
   after the allocator's words, its [size] entry before its [off] entry
   (paper §IV-F). A crash either keeps the old heap state or lands on
   the new one. A transactional allocation ([Tx.alloc]) reserves the
   same way and appends its undo record between the reservation and
   that commit. *)

exception Out_of_pm

(* One walk of the carved blocks, in address order up to the durable
   bump. A header whose class is out of range ends the walk, since the
   next header's position depends on it; its data offset is returned
   with the result. *)
let fold_blocks (t : Rep.t) init f =
  let limit = min (Rep.load t Rep.off_heap_bump) t.Rep.psize in
  let rec go off acc =
    if off + Rep.block_header_size > limit then (acc, None)
    else begin
      let data_off = off + Rep.block_header_size in
      let state = Rep.block_state t ~data_off in
      let ci = Rep.state_class state in
      if ci >= Rep.n_classes then (acc, Some data_off)
      else go (data_off + Rep.class_size ci) (f acc ~data_off ~state)
    end
  in
  go t.Rep.heap_base init

let ensure_free_lists (t : Rep.t) =
  if not t.Rep.free_built then begin
    Array.fill t.Rep.free_tops 0 Rep.n_classes 0;
    t.Rep.free_built <- true;
    ignore
      (fold_blocks t () (fun () ~data_off ~state ->
         if not (Rep.state_is_allocated state) then
           Rep.free_push t (Rep.state_class state) data_off))
  end

let check_spp_size (t : Rep.t) size =
  match t.Rep.mode with
  | Mode.Native -> ()
  | Mode.Spp cfg ->
    if size > Spp_core.Config.max_object_size cfg then
      raise (Spp_core.Encoding.Object_too_large
               { size; max = Spp_core.Config.max_object_size cfg })

let publish_state ci =
  Rep.st_allocated lor Rep.st_published lor (ci lsl Rep.st_class_shift)

(* The metadata words are read through the batch overlay, so an op sees
   the bumps, allocations and frees of earlier ops in its batch, and
   the update entries are staged into the open op.

   Deferred application shapes both transitions. An allocation takes a
   reused block off its stack at once, and a block a batch frees joins
   its stack only when the commit that carries the free is durable
   ([Redo.batch_defer_free]); a batch that raises leaves the stacks to
   be rebuilt. A virgin carve composes its header in DRAM and stores it
   with one [Redo.batch_write] plus a flush, with no fence: the commit's
   first persist supplies the drain, and until the staged bump advance
   commits the block is unreachable anyway. The header goes out
   unpublished; the staged state word publishes it at commit, on the
   primary and, after the header's blob, on every replica. *)

let alloc_batched (t : Rep.t) (b : Redo.batch) ~size =
  if size <= 0 then invalid_arg "Pmdk alloc: non-positive size";
  check_spp_size t size;
  let bsize = Rep.block_size t ~size in
  let ci = Rep.class_of_size bsize in
  ensure_free_lists t;
  let head = Rep.free_peek t ci in
  let data_off =
    if head <> 0 then begin
      (* A reused block keeps its requested-size word when the new size
         matches it, which an overwrite of same-sized values always does. *)
      Rep.free_pop t ci;
      let hoff = Rep.header_off ~data_off:head in
      if Redo.batch_load b hoff <> bsize then
        Redo.batch_stage b ~off:hoff ~v:bsize;
      Redo.batch_stage b ~off:(hoff + 8) ~v:(publish_state ci);
      head
    end else begin
      let bump = Redo.batch_load b Rep.off_heap_bump in
      let data_off = bump + Rep.block_header_size in
      let new_bump = data_off + Rep.class_size ci in
      if new_bump > t.Rep.psize then raise Out_of_pm;
      let hoff = Rep.header_off ~data_off in
      let hdr = t.Rep.header_image in
      Rep.put_word hdr ~pos:0 bsize;
      Rep.put_word hdr ~pos:8
        (Rep.st_allocated lor (ci lsl Rep.st_class_shift));
      Redo.batch_write b ~off:hoff hdr ~pos:0 ~len:Rep.block_header_size;
      Spp_sim.Space.flush t.Rep.space (Rep.a t hoff) Rep.block_header_size;
      Redo.batch_stage b ~off:Rep.off_heap_bump ~v:new_bump;
      Redo.batch_stage b ~off:(hoff + 8) ~v:(publish_state ci);
      data_off
    end
  in
  Rep.user_oid t ~data_off ~size

(* Stage the free of a block the batch sees as allocated+published;
   [false], staging nothing, for any other block. *)
let stage_free (b : Redo.batch) ~data_off =
  let soff = Rep.header_off ~data_off + 8 in
  let st = Redo.batch_load b soff in
  let live = Rep.state_is_allocated st && Rep.state_is_published st in
  if live then begin
    let ci = Rep.state_class st in
    Redo.batch_stage b ~off:soff ~v:(ci lsl Rep.st_class_shift);
    Redo.batch_defer_free b ~ci ~data_off
  end;
  live

let free_batched (_ : Rep.t) (b : Redo.batch) ~data_off =
  if not (stage_free b ~data_off) then
    invalid_arg "Pmdk free: block is not allocated (double free?)"

(* ------------------------------------------------------------------ *)
(* The atomic API: one op, committed at once                           *)
(* ------------------------------------------------------------------ *)

(* The destination slot's words, staged after the allocator's. *)
let dest_entries (t : Rep.t) b dest (oid : Oid.t) =
  match dest with
  | None -> ()
  | Some doff ->
    let stage off v = Redo.batch_stage b ~off ~v in
    (match t.Rep.mode with
     | Mode.Native ->
       stage doff oid.Oid.uuid;
       stage (doff + 8) oid.Oid.off
     | Mode.Spp _ ->
       (* size strictly before off in application order *)
       stage doff oid.Oid.size;
       stage (doff + 8) oid.Oid.uuid;
       stage (doff + 16) oid.Oid.off)

(* Zero a reserved block, redzones included. It is flushed, not fenced:
   the commit's first fence drains it before the block is published. *)
let zero_block (t : Rep.t) (oid : Oid.t) =
  let data_off = Rep.block_off t oid in
  let len =
    Rep.class_size (Rep.class_of_size (Rep.block_size t ~size:oid.Oid.size))
  in
  Spp_sim.Space.fill t.Rep.space (Rep.a t data_off) len '\000';
  Spp_sim.Space.flush t.Rep.space (Rep.a t data_off) len

let alloc (t : Rep.t) ?(zero = false) ~size ~dest () =
  Redo.atomically t (fun b ->
    let oid = alloc_batched t b ~size in
    if zero then zero_block t oid;
    dest_entries t b dest oid;
    oid)

let free (t : Rep.t) ~data_off ~dest =
  Redo.atomically t (fun b ->
    free_batched t b ~data_off;
    dest_entries t b dest Oid.null)

(* A no-op on a block that is not allocated+published, as recovery needs
   when it re-runs a finished free. *)
let free_idempotent (t : Rep.t) ~data_off =
  Redo.atomically t (fun b -> ignore (stage_free b ~data_off))

(* Realloc: same class is a pure metadata update; a class change
   allocates, copies and frees the old block, all in one op. The copy
   is flushed, and drained like a zeroed block. *)

let realloc (t : Rep.t) (oid : Oid.t) ~new_size ~dest =
  if Oid.is_null oid then alloc t ~size:new_size ~dest ()
  else begin
    if new_size <= 0 then invalid_arg "Pmdk realloc: non-positive size";
    check_spp_size t new_size;
    let data_off = Rep.block_off t oid in
    let st = Rep.block_state t ~data_off in
    if not (Rep.state_is_allocated st) then
      invalid_arg "Pmdk realloc: block is not allocated";
    let bsize = Rep.block_size t ~size:new_size in
    Redo.atomically t (fun b ->
      let oid' =
        if Rep.state_class st = Rep.class_of_size bsize then begin
          Redo.batch_stage b ~off:(Rep.header_off ~data_off) ~v:bsize;
          { oid with Oid.size = new_size }
        end else begin
          let oid' = alloc_batched t b ~size:new_size in
          let len = min (Rep.user_size t ~data_off) new_size in
          let dst = Rep.a t oid'.Oid.off in
          Spp_sim.Space.blit t.Rep.space ~src:(Rep.a t oid.Oid.off) ~dst ~len;
          Spp_sim.Space.flush t.Rep.space dst len;
          free_batched t b ~data_off;
          oid'
        end
      in
      dest_entries t b dest oid';
      oid')
  end

(* Heap accounting over the walk. Used for Table III. *)

type stats = {
  allocated_blocks : int;
  allocated_bytes : int;   (* header + class size of live blocks *)
  requested_bytes : int;   (* sum of live requested sizes *)
  free_blocks : int;
  heap_used : int;         (* bump - heap_base *)
}

let stats (t : Rep.t) =
  let empty =
    { allocated_blocks = 0; allocated_bytes = 0; requested_bytes = 0;
      free_blocks = 0;
      heap_used = Rep.load t Rep.off_heap_bump - t.Rep.heap_base }
  in
  fst
    (fold_blocks t empty (fun acc ~data_off ~state ->
       if Rep.state_is_allocated state then
         { acc with
           allocated_blocks = acc.allocated_blocks + 1;
           allocated_bytes =
             acc.allocated_bytes + Rep.block_header_size
             + Rep.class_size (Rep.state_class state);
           requested_bytes =
             acc.requested_bytes + Rep.block_req_size t ~data_off }
       else { acc with free_blocks = acc.free_blocks + 1 }))
