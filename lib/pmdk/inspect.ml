(* Pool inspection and integrity checking — the pmempool info / pmempool
   check analogue.

   [info] summarizes the header, logs and heap; [check] walks the
   durable heap state and validates the invariants the crash-consistency
   protocol is supposed to maintain. The free lists are volatile (the
   allocator rebuilds them from the state words), so what is checked is
   what stays durable:

     - the bump pointer stays within the pool;
     - every carved block has a size class in range and a state word
       that is either free or allocated and published;
     - every carved block's requested size lies in (0, class size],
       which [Pool.alloc_size] and the engines' attach paths trust;
     - the root oid (when set) points at a live block of this pool;
     - redo log and transaction lane are quiescent (after recovery). *)

type issue =
  | Bad_magic
  | Bump_out_of_range of int
  | Bad_block_header of { data_off : int; state : int }
  | Bad_requested_size of { data_off : int; size : int; class_size : int }
  | Root_invalid of Oid.t
  | Redo_log_active
  | Tx_lane_active

let issue_to_string = function
  | Bad_magic -> "bad pool magic"
  | Bump_out_of_range b -> Printf.sprintf "heap bump 0x%x out of range" b
  | Bad_block_header { data_off; state } ->
    Printf.sprintf "bad block header at 0x%x (state 0x%x)" data_off state
  | Bad_requested_size { data_off; size; class_size } ->
    Printf.sprintf "block at 0x%x requests %d B, outside (0, %d]" data_off
      size class_size
  | Root_invalid oid ->
    Format.asprintf "root oid %a does not name a live block" Oid.pp oid
  | Redo_log_active -> "redo log valid flag still set"
  | Tx_lane_active -> "transaction lane not idle"

type info = {
  i_uuid : int;
  i_mode : string;
  i_pool_size : int;
  i_heap_base : int;
  i_heap_used : int;
  i_stats : Heap.stats;
  i_tx_state : int;
  i_redo_valid : bool;
}

let info (t : Pool.t) =
  let stats = Pool.heap_stats t in
  {
    i_uuid = Pool.uuid t;
    i_mode = Mode.to_string (Pool.mode t);
    i_pool_size = Pool.size t;
    i_heap_base = Pool.heap_base t;
    i_heap_used = stats.Heap.heap_used;
    i_stats = stats;
    i_tx_state = Pool.load_word t ~off:Rep.off_tx_state;
    i_redo_valid = Pool.load_word t ~off:Rep.off_redo_valid <> 0;
  }

let pp_info ppf i =
  Format.fprintf ppf
    "pool uuid=%d mode=%s size=%d B@ heap: base=0x%x used=%d B, %d live / %d \
     free blocks (%d B allocated, %d B requested)@ tx lane: %s, redo: %s"
    i.i_uuid i.i_mode i.i_pool_size i.i_heap_base i.i_heap_used
    i.i_stats.Heap.allocated_blocks i.i_stats.Heap.free_blocks
    i.i_stats.Heap.allocated_bytes i.i_stats.Heap.requested_bytes
    (if i.i_tx_state = 0 then "idle" else "ACTIVE")
    (if i.i_redo_valid then "VALID (unreplayed)" else "clear")

let flags_live = Rep.st_allocated lor Rep.st_published

let check (t : Pool.t) =
  let issues = ref [] in
  let add i = issues := i :: !issues in
  if Pool.load_word t ~off:Rep.off_magic <> Rep.magic then add Bad_magic;
  let bump = Pool.load_word t ~off:Rep.off_heap_bump in
  if bump < Pool.heap_base t || bump > Pool.size t then
    add (Bump_out_of_range bump);
  let root = Pool.root_oid t in
  let root_block = Pool.block_off t root in
  let root_live = ref (Oid.is_null root) in
  let (), bad =
    Pool.fold_blocks t () (fun () ~data_off ~state ->
      if data_off = root_block && Rep.state_is_allocated state then
        root_live := root.Oid.uuid = Pool.uuid t;
      let flags = state land ((1 lsl Rep.st_class_shift) - 1) in
      if flags <> 0 && flags <> flags_live then
        add (Bad_block_header { data_off; state });
      let size = Pool.load_word t ~off:(data_off - Rep.block_header_size) in
      let class_size = Rep.class_size (Rep.state_class state) in
      if size <= 0 || size > class_size then
        add (Bad_requested_size { data_off; size; class_size }))
  in
  Option.iter
    (fun data_off ->
      let state = Pool.load_word t ~off:(data_off - 8) in
      add (Bad_block_header { data_off; state }))
    bad;
  if not !root_live then add (Root_invalid root);
  (* logs must be quiescent after recovery *)
  if Pool.load_word t ~off:Rep.off_redo_valid <> 0 then add Redo_log_active;
  if Pool.load_word t ~off:Rep.off_tx_state <> Rep.tx_idle then
    add Tx_lane_active;
  List.rev !issues

let is_consistent t = check t = []
