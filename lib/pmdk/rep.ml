(* Internal pool representation and on-media layout.

   Pool layout (all offsets pool-relative):

     0x000  magic
     0x008  uuid
     0x010  pool size
     0x018  mode (0 = native, 1 = SPP)
     0x020  tag bits (SPP mode)
     0x028  heap bump pointer (next never-carved offset)
     0x030  root oid slot (24 B reserved)
     0x048  header checksum (over the immutable identity fields)
     0x050  redzone width (written only when non-zero: SafePM pools)
     0x080  reserved, unused (keeps the log offsets below)
     0x380  redo log   : valid, nentries, entries (off/val pairs)
     0x780  tx lane    : tx_state, ulog_used, ulog data area
     heap_base (4 KiB aligned): object blocks

   Every object block is [header 16 B][data class_size B]. The data
   starts with [redzone] bytes, the user range follows, and [redzone]
   more bytes pad it (SafePM's redzones; 0 in every other pool); an
   oid's [off] points at the user range. Header word 0 holds the
   requested size, padding included, word 1 a state word (allocated
   flag, published flag, size-class index). The free lists are not
   durable: each pool keeps one stack of free block offsets per size
   class in DRAM, rebuilt from the state words by one walk of the
   carved blocks, as PMDK v1.9 refills its buckets from the run
   bitmaps. *)

open Spp_sim

let magic = 0x53_50_50_5F_50_4D       (* "SPP_PM" *)

(* Header field offsets. *)
let off_magic = 0x000
let off_uuid = 0x008
let off_pool_size = 0x010
let off_mode = 0x018
let off_tag_bits = 0x020
let off_heap_bump = 0x028
let off_root = 0x030
let off_hdr_csum = 0x048
let off_redzone = 0x050

(* Redo log. *)
let off_redo_valid = 0x380
let off_redo_n = 0x388
let off_redo_entries = 0x390
let redo_capacity = 62                (* entries of 16 B; area ends < 0x780 *)

(* Transaction lane. *)
let off_tx_state = 0x780
let off_ulog_used = 0x788
let off_ulog_data = 0x790

let tx_idle = 0
let tx_active = 1
let tx_committing = 2

(* Size classes modeled on PMDK's run units: the smallest class is 128 B
   and classes grow by ~1.25×, rounded to 64 B. This granularity is what
   shapes the paper's Table III — the +8 B per stored PMEMoid vanishes
   into class rounding for ordinary nodes (ctree/rbtree/hashmap ≈ 0%
   overhead) but compounds for rtree's 256-oid nodes. *)
let class_sizes =
  let round64 v = (v + 63) / 64 * 64 in
  let rec build acc size =
    if size >= 1 lsl 30 then List.rev (size :: acc)
    else build (size :: acc) (round64 (size * 5 / 4))
  in
  Array.of_list (build [] 128)

let n_classes = Array.length class_sizes
let class_size ci = class_sizes.(ci)
let block_header_size = 16

let class_of_size size =
  if size > class_sizes.(n_classes - 1) then
    invalid_arg (Printf.sprintf "Pmdk: allocation of %d bytes too large" size);
  let lo = ref 0 and hi = ref (n_classes - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if class_sizes.(mid) >= size then hi := mid else lo := mid + 1
  done;
  !lo

(* Header checksum over the identity fields. All its inputs are written
   exactly once, at pool create, in the same initial persist as the sum
   itself, and no later code path rewrites any of them — which is what
   makes the checksum crash-consistent for free. A zero redzone is
   neither written nor summed, so a pool without one keeps the header it
   had before the field existed, and a reader that does not know the
   field refuses a pool with one. FNV-1a word mix, folded to the 63-bit
   OCaml int like every other stored word. *)

let header_checksum ~uuid ~psize ~mode_word ~tag_bits ~redzone =
  List.fold_left
    (fun h v -> ((h lxor v) * 0x100000001b3) land max_int)
    0x3bf29ce484222325
    ([ magic; uuid; psize; mode_word; tag_bits ]
     @ if redzone = 0 then [] else [ redzone ])

(* Block header state word. *)
let st_allocated = 1
let st_published = 2
let st_class_shift = 8

(* A committed redo sub-batch exported for replication: the staged
   entries plus the fresh-block ranges (entry bodies, nodes, items,
   virgin block headers) stored past the log. Each blob carries the
   bytes its op stored, kept from the DRAM image the op composed, so
   the primary never reads PM to replicate. A staged word that falls
   inside a blob range is always staged after the blob was stored (the
   block is fresh), so applying [p_writes] then [p_entries] on a pool
   whose durable image matched the primary's pre-commit state
   reproduces the primary's post-commit state byte for byte. *)
type batch_payload = {
  p_entries : (int * int) list;    (* redo entries, application order *)
  p_ops : int;                     (* whole operations this commit covers *)
  p_writes : (int * Bytes.t) list; (* direct ranges (pool off, bytes) *)
}

(* What an allocation or a free does to a block, as its lifetime
   observer hears it. *)
type lifetime = Live | Dead

type t = {
  space : Space.t;
  dev : Memdev.t;
  base : int;          (* simulated address where the pool is mapped *)
  psize : int;
  mode : Mode.t;
  uuid : int;
  ulog_cap : int;
  heap_base : int;
  redzone : int;       (* bytes padding each side of every user range *)
  lock : Mutex.t;
  tx_lock : Mutex.t;   (* held from outer tx_begin to commit/abort: one lane *)
  mutable tx_ranges : (int * int) list;  (* volatile mirror: ranges to flush at commit *)
  mutable tx_depth : int;
  mutable tx_lifetimes : (lifetime * Oid.t) list;
    (* the open transaction's reports, newest first, which an abort
       reverses; kept only under a lifetime observer *)
  mutable lifetime_observer : (lifetime -> Oid.t -> unit) option;
  mutable reports : (lifetime * Oid.t) list;
    (* reports queued under [lock], newest first; [Pool] delivers them
       to the observer once the lock is released *)
  mutable batch_observer : (batch_payload -> unit) option;
    (* called by [Redo.commit_acc] after each committed sub-batch; the
       replication layer ships the payload to replica stacks from here *)
  mutable compose : Bytes.t;
    (* DRAM image of the fresh block a batch op is composing
       ([Redo.batch_buffer]); grown on demand, reused by every batch *)
  header_image : Bytes.t;
    (* the virgin block header [Heap.alloc_batched] composes, apart
       from [compose] so an allocation never clobbers an op's block *)
  overlay : (int, int) Hashtbl.t;
    (* the staged words of the open batch ([Redo.batch_load]); one table
       per pool, reset by every [Redo.batch_begin], since a batch holds
       the pool's lane for its whole lifetime *)
  free_stacks : int array array;
    (* per size class, the data offsets of free blocks, top at
       [free_tops.(ci) - 1]; grown on demand *)
  free_tops : int array;
  mutable free_built : bool;
    (* false until the stacks match the media: after open, recovery or
       a batch that raised; [Heap] rebuilds them at the next allocation *)
}

let min_pool_size = 1 lsl 16

let ulog_cap_for_pool_size psize =
  if psize < min_pool_size then
    invalid_arg
      (Printf.sprintf "Pmdk: pool size %d below minimum %d" psize min_pool_size);
  max 16384 (psize / 4)

let heap_base_for ~ulog_cap =
  (off_ulog_data + ulog_cap + 4095) / 4096 * 4096

(* Address helpers: [a t off] converts a pool offset into a simulated
   address. *)
let a t off = t.base + off

(* Words and oid slots composed into a DRAM buffer, in the same byte
   layout [store]/[store_oid] give them in PM. *)
let put_word buf ~pos v = Bytes.set_int64_le buf pos (Int64.of_int v)

let put_oid t buf ~pos (oid : Oid.t) =
  match t.mode with
  | Mode.Native ->
    put_word buf ~pos oid.Oid.uuid;
    put_word buf ~pos:(pos + 8) oid.Oid.off
  | Mode.Spp _ ->
    put_word buf ~pos oid.Oid.size;
    put_word buf ~pos:(pos + 8) oid.Oid.uuid;
    put_word buf ~pos:(pos + 16) oid.Oid.off

let load t off = Space.load_word t.space (a t off)
let store t off v = Space.store_word t.space (a t off) v

let persist t off len = Space.persist t.space (a t off) len

let store_p t off v =
  (* fused store+CLWB+SFENCE: one address translation for all three *)
  Space.store_word_persist t.space (a t off) v

(* Oid slots in PM. Field order within a slot: size (SPP only), uuid, off.
   The size field precedes the off field in media order so that recovery
   never observes a valid offset with a stale size (paper §IV-F). *)

let oid_stored_size t = Mode.oid_stored_size t.mode

let store_oid t off (oid : Oid.t) =
  match t.mode with
  | Mode.Native ->
    store t off oid.Oid.uuid;
    store t (off + 8) oid.Oid.off
  | Mode.Spp _ ->
    store t off oid.Oid.size;
    store t (off + 8) oid.Oid.uuid;
    store t (off + 16) oid.Oid.off

let load_oid t off : Oid.t =
  match t.mode with
  | Mode.Native ->
    { Oid.uuid = load t off; off = load t (off + 8); size = 0 }
  | Mode.Spp _ ->
    { Oid.size = load t off; uuid = load t (off + 8); off = load t (off + 16) }

(* Block headers. [data_off] is the block's data offset, [redzone]
   bytes before the oid's. *)

let header_off ~data_off = data_off - block_header_size

let block_req_size t ~data_off = load t (header_off ~data_off)
let block_state t ~data_off = load t (header_off ~data_off + 8)

(* Allocation geometry: the one place oids and blocks are mapped. *)
let block_off t (oid : Oid.t) = oid.Oid.off - t.redzone
let block_size t ~size = size + (2 * t.redzone)
let user_oid t ~data_off ~size =
  { Oid.uuid = t.uuid; off = data_off + t.redzone; size }
let user_size t ~data_off = block_req_size t ~data_off - (2 * t.redzone)

(* Queue a lifetime report; nothing happens without an observer. *)
let report t ev oid =
  match t.lifetime_observer with
  | None -> ()
  | Some _ -> t.reports <- (ev, oid) :: t.reports

(* Deliver a report at once, under the pool lock: the batch path's way,
   safe because a batch opens no transaction, so the observer takes no
   lock. *)
let notify t ev oid =
  match t.lifetime_observer with None -> () | Some obs -> obs ev oid

let state_class st = st lsr st_class_shift
let state_is_allocated st = st land st_allocated <> 0
let state_is_published st = st land st_published <> 0

(* Free stacks. A block joins its class's stack only once its free is
   durable, and leaves it when an allocation takes it; while the stacks
   are unbuilt a push is dropped, since the rebuild finds the block on
   the media. *)

let free_push t ci data_off =
  if t.free_built then begin
    let n = t.free_tops.(ci) in
    if n = Array.length t.free_stacks.(ci) then
      t.free_stacks.(ci) <-
        Array.append t.free_stacks.(ci) (Array.make (max 16 n) 0);
    t.free_stacks.(ci).(n) <- data_off;
    t.free_tops.(ci) <- n + 1
  end

(* The block an allocation of class [ci] would take, 0 when none. *)
let free_peek t ci =
  let n = t.free_tops.(ci) in
  if n = 0 then 0 else t.free_stacks.(ci).(n - 1)

let free_pop t ci = t.free_tops.(ci) <- t.free_tops.(ci) - 1
