(* Software transactions with a persistent undo log (paper §II-B, §IV-F).

   The lane holds a state word and a log of records:

     snapshot  [kind=1][pool off][len][data, padded to 8 B]
     alloc     [kind=2][block data off] (roll back on abort/crash)
     free      [kind=3][block data off] (deferred; applied at commit)

   A record becomes valid only when [ulog_used] — persisted after the
   record body — covers it. Commit: flush all snapshotted ranges, move to
   COMMITTING, apply deferred frees (idempotently), then IDLE. Abort or
   crash while ACTIVE: restore snapshots in reverse order, roll back
   published allocations, drop deferred frees. Crash while COMMITTING:
   finish the deferred frees. *)

open Spp_sim

exception Tx_log_full
exception Not_in_tx
exception Tx_aborted

(* Readable fault reports, matching the Fault printer in lib/sim/fault.ml. *)
let () =
  Printexc.register_printer (function
    | Tx_log_full ->
      Some "Tx.Tx_log_full: persistent undo log exhausted \
            (snapshot/alloc/free records exceed the lane capacity)"
    | Not_in_tx ->
      Some "Tx.Not_in_tx: transactional operation outside tx_begin/tx_commit"
    | Tx_aborted -> Some "Tx.Tx_aborted: transaction rolled back"
    | _ -> None)

let kind_snapshot = 1
let kind_alloc = 2
let kind_free = 3

let round8 n = (n + 7) / 8 * 8

let in_tx (t : Rep.t) = t.Rep.tx_depth > 0

let require_tx t = if not (in_tx t) then raise Not_in_tx

(* Record append. The body is persisted before ulog_used publishes it. *)

let append_record (t : Rep.t) words data =
  let used = Rep.load t Rep.off_ulog_used in
  let body_len = (8 * List.length words) + round8 (Bytes.length data) in
  if used + body_len > t.Rep.ulog_cap then raise Tx_log_full;
  let base = Rep.off_ulog_data + used in
  List.iteri (fun i w -> Rep.store t (base + (8 * i)) w) words;
  if Bytes.length data > 0 then
    Space.write_bytes t.Rep.space
      (Rep.a t (base + (8 * List.length words))) data;
  Rep.persist t base body_len;
  Rep.store_p t Rep.off_ulog_used (used + body_len)

let tx_begin (t : Rep.t) =
  if t.Rep.tx_depth = 0 then begin
    Rep.store_p t Rep.off_ulog_used 0;
    Rep.store_p t Rep.off_tx_state Rep.tx_active;
    t.Rep.tx_ranges <- [];
    t.Rep.tx_lifetimes <- []
  end;
  t.Rep.tx_depth <- t.Rep.tx_depth + 1

let add_range (t : Rep.t) ~off ~len =
  require_tx t;
  if len < 0 || off < 0 || off + len > t.Rep.psize then
    invalid_arg "Tx.add_range: range outside pool";
  if len > 0 then begin
    let data = Space.read_bytes t.Rep.space (Rep.a t off) len in
    append_record t [ kind_snapshot; off; len ] data;
    t.Rep.tx_ranges <- (off, len) :: t.Rep.tx_ranges
  end

let add_range_oid (t : Rep.t) (oid : Oid.t) =
  (* Snapshot a whole object — TX_ADD in PMDK. *)
  require_tx t;
  add_range t ~off:oid.Oid.off
    ~len:(Rep.user_size t ~data_off:(Rep.block_off t oid))

(* Reserve, zero, append the undo record, then commit: the record
   strictly precedes publication, so a crash in between sees an
   unpublished block and skips the rollback (no double free, no leak).
   The record's persist also drains the block's flushed header and
   zeroes. *)
let alloc (t : Rep.t) ?(zero = false) ~size () =
  require_tx t;
  let oid =
    Redo.atomically t (fun b ->
      let oid = Heap.alloc_batched t b ~size in
      if zero then Heap.zero_block t oid;
      append_record t [ kind_alloc; Rep.block_off t oid ] Bytes.empty;
      oid)
  in
  (* The new object's contents are flushed at commit, like snapshotted
     ranges — PMDK adds tx-allocated objects to the transaction. *)
  t.Rep.tx_ranges <- (oid.Oid.off, size) :: t.Rep.tx_ranges;
  oid

let free (t : Rep.t) (oid : Oid.t) =
  require_tx t;
  if not (Oid.is_null oid) then
    append_record t [ kind_free; Rep.block_off t oid ] Bytes.empty

let realloc (t : Rep.t) (oid : Oid.t) ~size =
  (* pmemobj_tx_realloc: new object in this tx, contents copied, old
     object freed at commit. *)
  require_tx t;
  if Oid.is_null oid then alloc t ~size ()
  else begin
    let fresh = alloc t ~size () in
    let old_size = Rep.user_size t ~data_off:(Rep.block_off t oid) in
    Space.blit t.Rep.space
      ~src:(Rep.a t oid.Oid.off) ~dst:(Rep.a t fresh.Oid.off)
      ~len:(min old_size size);
    free t oid;
    fresh
  end

(* Log parsing (recovery reads the media, not the volatile mirrors). *)

type record =
  | Snapshot of { off : int; len : int; data : Bytes.t }
  | Alloc_rec of { data_off : int }
  | Free_rec of { data_off : int }

let parse_log (t : Rep.t) =
  let used = Rep.load t Rep.off_ulog_used in
  let rec go pos acc =
    if pos >= used then List.rev acc
    else begin
      let base = Rep.off_ulog_data + pos in
      let kind = Rep.load t base in
      if kind = kind_snapshot then begin
        let off = Rep.load t (base + 8) in
        let len = Rep.load t (base + 16) in
        let data = Space.read_bytes t.Rep.space (Rep.a t (base + 24)) len in
        go (pos + 24 + round8 len) (Snapshot { off; len; data } :: acc)
      end
      else if kind = kind_alloc then
        go (pos + 16) (Alloc_rec { data_off = Rep.load t (base + 8) } :: acc)
      else if kind = kind_free then
        go (pos + 16) (Free_rec { data_off = Rep.load t (base + 8) } :: acc)
      else
        failwith (Printf.sprintf "Tx.parse_log: corrupt record kind %d" kind)
    end
  in
  go 0 []

let finish_lane (t : Rep.t) =
  Rep.store_p t Rep.off_ulog_used 0;
  Rep.store_p t Rep.off_tx_state Rep.tx_idle;
  t.Rep.tx_ranges <- [];
  t.Rep.tx_lifetimes <- []

(* Commit path. Deferred frees are replayed idempotently so a crash while
   COMMITTING can simply re-run them. *)

let apply_deferred_frees (t : Rep.t) records =
  List.iter
    (function
      | Free_rec { data_off } -> Heap.free_idempotent t ~data_off
      | Snapshot _ | Alloc_rec _ -> ())
    records

(* Sort and coalesce overlapping/adjacent (off, len) ranges so a
   heavily-snapshotted object is flushed once, not once per add_range. *)
let coalesce_ranges ranges =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) ranges in
  let rec go = function
    | (o1, l1) :: (o2, l2) :: rest when o2 <= o1 + l1 ->
      go ((o1, max l1 (o2 + l2 - o1)) :: rest)
    | r :: rest -> r :: go rest
    | [] -> []
  in
  go sorted

let commit_outer (t : Rep.t) =
  (* PMDK flushes all snapshotted ranges at commit time; one fence drains
     the whole batch. *)
  (match t.Rep.tx_ranges with
   | [] -> ()
   | ranges ->
     let merged = coalesce_ranges ranges in
     List.iter
       (fun (off, len) -> Space.flush t.Rep.space (Rep.a t off) len)
       merged;
     let off, _ = List.hd merged in
     Space.fence_at t.Rep.space (Rep.a t off));
  Rep.store_p t Rep.off_tx_state Rep.tx_committing;
  apply_deferred_frees t (parse_log t);
  finish_lane t

(* Rollback: snapshots restored in reverse order; published allocations
   rolled back; deferred frees dropped. *)

let rollback (t : Rep.t) =
  let records = parse_log t in
  List.iter
    (function
      | Snapshot { off; len; data } ->
        Space.write_bytes t.Rep.space (Rep.a t off) data;
        Rep.persist t off len
      | Alloc_rec { data_off } ->
        let st = Rep.block_state t ~data_off in
        if Rep.state_is_allocated st && Rep.state_is_published st then
          Heap.free_idempotent t ~data_off
      | Free_rec _ -> ())
    (List.rev records);
  finish_lane t

let tx_commit (t : Rep.t) =
  require_tx t;
  t.Rep.tx_depth <- t.Rep.tx_depth - 1;
  if t.Rep.tx_depth = 0 then commit_outer t

let tx_abort (t : Rep.t) =
  require_tx t;
  t.Rep.tx_depth <- 0;
  rollback t

(* Crash recovery entry point, called on pool open after redo recovery. *)

let recover (t : Rep.t) =
  let state = Rep.load t Rep.off_tx_state in
  if state = Rep.tx_active then begin
    rollback t;
    `Rolled_back
  end
  else if state = Rep.tx_committing then begin
    apply_deferred_frees t (parse_log t);
    finish_lane t;
    `Completed_commit
  end
  else `Clean
