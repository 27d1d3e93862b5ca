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
   space) and a free stages the state word alone. They travel in a
   single redo batch with the destination oid, so a crash either keeps
   the old heap state or lands on the new one. The destination oid
   [size] entry precedes the [off] entry in the batch (paper §IV-F). *)

exception Out_of_pm

type dest =
  | No_dest           (* caller keeps the oid in volatile memory *)
  | Pm_slot of int    (* pool offset of a PM oid slot, published atomically *)

(* Prepared allocation: everything needed to publish, with no media
   mutation yet except on virgin (bump-carved) space. A reused block
   stays on its stack until [publish_alloc] has made it durable. *)
type prepared = {
  p_data_off : int;
  p_ci : int;
  p_entries : (int * int) list;   (* allocator update + header writes *)
}

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

let stage_alloc (t : Rep.t) ~size =
  if size <= 0 then invalid_arg "Pmdk alloc: non-positive size";
  check_spp_size t size;
  let bsize = Rep.block_size t ~size in
  let ci = Rep.class_of_size bsize in
  ensure_free_lists t;
  let head = Rep.free_peek t ci in
  if head <> 0 then begin
    (* A reused block keeps its requested-size word when the new size
       matches it, which an overwrite of same-sized values always does. *)
    let hoff = Rep.header_off ~data_off:head in
    let publish = [ (hoff + 8, publish_state ci) ] in
    { p_data_off = head;
      p_ci = ci;
      p_entries =
        (if Rep.load t hoff = bsize then publish
         else (hoff, bsize) :: publish) }
  end else begin
    (* Carve virgin space past the bump pointer; the header can be staged
       directly since the block is unreachable until the bump advances. *)
    let bump = Rep.load t Rep.off_heap_bump in
    let data_off = bump + Rep.block_header_size in
    let new_bump = data_off + Rep.class_size ci in
    if new_bump > t.Rep.psize then raise Out_of_pm;
    Rep.set_block_header t ~data_off ~req_size:bsize
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

(* A reused block leaves its stack only once the allocation is durable:
   [Tx.alloc] may raise between staging and publication. A virgin block
   lies past the bump, on no stack. *)
let unstack (t : Rep.t) p =
  if Rep.free_peek t p.p_ci = p.p_data_off then Rep.free_pop t p.p_ci

let publish_alloc (t : Rep.t) prepared ~size ~dest =
  let oid = Rep.user_oid t ~data_off:prepared.p_data_off ~size in
  Redo.run t (prepared.p_entries @ dest_entries t dest oid);
  unstack t prepared;
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

(* Same transitions as [stage_alloc]/[free], but the metadata
   words are read through the batch overlay (so an op sees the bumps,
   allocations and frees of earlier ops in the batch) and the update
   entries are staged into the open batch op instead of forming a
   private redo run.

   Two deviations from the synchronous paths, both forced by deferred
   application. First, a batch takes a reused block off its stack at
   once, and a block it frees joins its stack only when the commit that
   carries the free is durable ([Redo.batch_defer_free]); a batch that
   raises leaves the stacks to be rebuilt ([Pool.with_batch]). Second,
   a virgin carve composes its header in DRAM and stores it with one
   [Redo.batch_write] plus a flush, with no fence: the commit's first
   persist supplies the drain, and until the staged bump advance
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

let free_batched (_ : Rep.t) (b : Redo.batch) ~data_off =
  let soff = Rep.header_off ~data_off + 8 in
  let st = Redo.batch_load b soff in
  if not (Rep.state_is_allocated st && Rep.state_is_published st) then
    invalid_arg "Pmdk free: block is not allocated (double free?)";
  let ci = Rep.state_class st in
  Redo.batch_stage b ~off:soff ~v:(ci lsl Rep.st_class_shift);
  Redo.batch_defer_free b ~ci ~data_off

(* Free: the state word, demoted in one redo batch with the caller's
   extra entries; then the block joins its stack. [false] on a block
   that is not allocated+published, which makes the free idempotent, as
   recovery needs when it re-runs a finished free. *)

let free_live (t : Rep.t) ~data_off ~extra_entries =
  let st = Rep.block_state t ~data_off in
  let live = Rep.state_is_allocated st && Rep.state_is_published st in
  if live then begin
    let ci = Rep.state_class st in
    Redo.run t
      ((Rep.header_off ~data_off + 8, ci lsl Rep.st_class_shift)
       :: extra_entries);
    Rep.free_push t ci data_off
  end;
  live

let free (t : Rep.t) ~data_off ~extra_entries =
  if not (free_live t ~data_off ~extra_entries) then
    invalid_arg "Pmdk free: block is not allocated (double free?)"

let free_idempotent (t : Rep.t) ~data_off =
  ignore (free_live t ~data_off ~extra_entries:[])

(* Realloc: same class is a pure metadata update; a class change
   allocates, copies, and frees the old block, all in one redo batch. *)

let realloc (t : Rep.t) (oid : Oid.t) ~new_size ~dest =
  if Oid.is_null oid then alloc t ~size:new_size ~dest ()
  else begin
    if new_size <= 0 then invalid_arg "Pmdk realloc: non-positive size";
    check_spp_size t new_size;
    let data_off = Rep.block_off t oid in
    let st = Rep.block_state t ~data_off in
    if not (Rep.state_is_allocated st) then
      invalid_arg "Pmdk realloc: block is not allocated";
    let ci_old = Rep.state_class st in
    let bsize = Rep.block_size t ~size:new_size in
    let ci_new = Rep.class_of_size bsize in
    if ci_old = ci_new then begin
      let oid' = { oid with Oid.size = new_size } in
      Redo.run t
        ((Rep.header_off ~data_off, bsize) :: dest_entries t dest oid');
      oid'
    end else begin
      let p = stage_alloc t ~size:new_size in
      let len = min (Rep.user_size t ~data_off) new_size in
      let oid' = Rep.user_oid t ~data_off:p.p_data_off ~size:new_size in
      Spp_sim.Space.blit t.Rep.space
        ~src:(Rep.a t oid.Oid.off) ~dst:(Rep.a t oid'.Oid.off) ~len;
      Rep.persist t oid'.Oid.off len;
      let free_old =
        (Rep.header_off ~data_off + 8, ci_old lsl Rep.st_class_shift)
      in
      Redo.run t (p.p_entries @ (free_old :: dest_entries t dest oid'));
      unstack t p;
      Rep.free_push t ci_old data_off;
      oid'
    end
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
