(* Redo log: atomic application of a batch of word writes (paper §IV-F).

   Protocol: write the entries and their count, persist; set the valid
   flag, persist; apply the entries in order, persist; clear the valid
   flag. A crash before the valid flag is durable loses the whole batch;
   a crash after it is recovered by re-applying the (idempotent) entries
   on open. Entry order is significant: SPP relies on the oid [size]
   entry preceding the [off] entry.

   Every log is staged through a batch: a group commit stages the
   entries of many operations ([batch_begin] ... [batch_finish]), and
   the atomic and transactional APIs stage one operation that commits
   at once ([atomically]), at the protocol's four fences. *)

open Spp_sim

exception Redo_full

(* Apply a batch: store every entry, flush each target word, then drain
   with a single fence. The valid flag stays set until after the drain
   and the entries are idempotent, so a crash anywhere in the batch is
   recovered by re-applying it on open — one fence per batch instead of
   one per entry. *)
let apply_entries (t : Rep.t) entries =
  List.iter (fun (off, v) -> Rep.store t off v) entries;
  List.iter (fun (off, _) -> Space.flush t.Rep.space (Rep.a t off) 8) entries;
  match entries with
  | [] -> ()
  | (off, _) :: _ -> Space.fence_at t.Rep.space (Rep.a t off)

let run (t : Rep.t) entries =
  let n = List.length entries in
  if n > Rep.redo_capacity then raise Redo_full;
  List.iteri
    (fun i (off, v) ->
      Rep.store t (Rep.off_redo_entries + (16 * i)) off;
      Rep.store t (Rep.off_redo_entries + (16 * i) + 8) v)
    entries;
  Rep.store t Rep.off_redo_n n;
  Rep.persist t Rep.off_redo_n (8 + (16 * n));
  Rep.store_p t Rep.off_redo_valid 1;
  apply_entries t entries;
  Rep.store_p t Rep.off_redo_valid 0

(* ------------------------------------------------------------------ *)
(* Group commit: one redo batch carrying several consecutive operations *)
(* ------------------------------------------------------------------ *)

(* The per-op cost of PM safety metadata is dominated by ordering
   traffic (paper §VI, Fig. 10): every [run] above pays a persist fence,
   a valid-flag fence, an apply drain and a flag-clear fence. A batch
   accumulates the entries of N consecutive operations and pays that
   fence schedule once for all of them.

   Correctness hinges on the same argument as [run]: no target word is
   stored until the complete log is durable. During staging, every
   not-yet-applied word lives only in a volatile overlay; reads from
   batch code go through [batch_load] so later ops observe earlier ops'
   effects, while the media keeps the pre-batch state. A commit then
   replays the standard protocol — entries, count, persist, valid,
   apply, clear — so an interrupted commit is recovered by the unchanged
   [recover] below, and a crash anywhere earlier loses the whole
   sub-batch. Entries are only ever added at operation boundaries, so
   what recovery replays is always a prefix of *whole* operations.

   When staging would overflow the fixed log area, the accumulated
   complete operations are committed first (a sub-batch) and staging
   continues; each sub-batch is still all-or-nothing.

   Fresh blocks bypass the log altogether: nothing reaches them until a
   staged word publishes them, so an op composes each one in DRAM and
   [batch_write] stores it straight to PM, one store per contiguous
   range. The commit ships those same bytes to replicas without reading
   them back.

   A block freed inside the batch keeps its durable pre-state live until
   the free commits, so it must not be handed out again before then:
   [batch_defer_free] holds it back, and the commit that carries its
   free pushes it onto its class's free stack once that commit is
   durable.

   Under a lifetime observer, each op also notes the blocks it
   allocates and frees ([batch_note]). An allocation is reported when it
   is made, so later ops of the batch may read the block through a
   checker; a free is reported by the commit that carries it, before a
   later op can take the block again. *)

type batch = {
  b_rep : Rep.t;
  b_overlay : (int, int) Hashtbl.t;       (* pool off -> staged word *)
  mutable b_frees_acc : (int * int) list;
    (* (class, block) freed by the accumulated ops, not yet committed *)
  mutable b_frees_op : (int * int) list;  (* freed by the open op *)
  mutable b_acc : (int * int) list;       (* complete-op entries, newest first *)
  mutable b_acc_n : int;
  mutable b_acc_ops : int;                (* entry-bearing ops accumulated *)
  mutable b_op : (int * int) list;        (* open op's entries, newest first *)
  mutable b_op_n : int;
  mutable b_in_op : bool;
  mutable b_finished : bool;
  mutable b_commits : int;                (* sub-batch commits issued *)
  mutable b_writes_acc : (int * Bytes.t) list;
    (* fresh-block blobs (off, bytes), newest first; replicated pools only *)
  mutable b_writes_op : (int * Bytes.t) list;  (* open op's blobs *)
  mutable b_lifetimes_acc : (Rep.lifetime * Oid.t) list;
    (* allocations and frees of the accumulated ops, newest first *)
  mutable b_lifetimes_op : (Rep.lifetime * Oid.t) list;  (* the open op's *)
}

(* The overlay is the pool's own table: [Hashtbl.reset] empties it and
   shrinks a table a large batch grew back to its initial size. *)
let batch_begin (t : Rep.t) =
  Hashtbl.reset t.Rep.overlay;
  { b_rep = t;
    b_overlay = t.Rep.overlay;
    b_frees_acc = [];
    b_frees_op = [];
    b_acc = []; b_acc_n = 0; b_acc_ops = 0;
    b_op = []; b_op_n = 0; b_in_op = false;
    b_finished = false; b_commits = 0;
    b_writes_acc = []; b_writes_op = [];
    b_lifetimes_acc = []; b_lifetimes_op = [] }

let check_open b =
  if b.b_finished then invalid_arg "Redo.batch: already finished"

let batch_load b off =
  match Hashtbl.find_opt b.b_overlay off with
  | Some v -> v
  | None -> Rep.load b.b_rep off

let batch_stage b ~off ~v =
  check_open b;
  if not b.b_in_op then
    invalid_arg "Redo.batch_stage: entries must belong to an operation";
  b.b_op <- (off, v) :: b.b_op;
  b.b_op_n <- b.b_op_n + 1;
  Hashtbl.replace b.b_overlay off v

(* An op composes a fresh block in the pool's buffer and stores each
   contiguous range of it with one [batch_write]. Only a replicated
   pool keeps a copy of the stored bytes, for the commit's blob. *)
let batch_buffer b len =
  let t = b.b_rep in
  if Bytes.length t.Rep.compose < len then
    t.Rep.compose <- Bytes.create (max len (2 * Bytes.length t.Rep.compose));
  t.Rep.compose

let batch_write b ~off buf ~pos ~len =
  check_open b;
  if not b.b_in_op then
    invalid_arg "Redo.batch_write: writes must belong to an operation";
  let t = b.b_rep in
  Space.write_sub t.Rep.space (Rep.a t off) buf ~pos ~len;
  if len > 0 && Option.is_some t.Rep.batch_observer then
    b.b_writes_op <- (off, Bytes.sub buf pos len) :: b.b_writes_op

let batch_defer_free b ~ci ~data_off =
  check_open b;
  b.b_frees_op <- (ci, data_off) :: b.b_frees_op

let batch_note b ev oid =
  if ev = Rep.Live then Rep.notify b.b_rep Rep.Live oid;
  b.b_lifetimes_op <- (ev, oid) :: b.b_lifetimes_op

(* Commit the accumulated complete operations as one redo log. The
   fences actually spent are measured around the commit; a
   one-commit-per-op execution would have paid them once per op, which
   is what [Memdev.note_batch] credits as saved. *)
let commit_acc b =
  if b.b_acc_n > 0 then begin
    let t = b.b_rep in
    let k = b.b_acc_ops in
    let entries = List.rev b.b_acc in
    let p_writes = List.rev b.b_writes_acc in
    let f0 = (Memdev.counters t.Rep.dev).Memdev.fences in
    run t entries;
    let spent = (Memdev.counters t.Rep.dev).Memdev.fences - f0 in
    Memdev.note_batch t.Rep.dev ~ops:k ~fences_saved:((k - 1) * spent);
    b.b_commits <- b.b_commits + 1;
    b.b_acc <- [];
    b.b_acc_n <- 0;
    b.b_acc_ops <- 0;
    b.b_writes_acc <- [];
    (* the staged frees are durable now; their blocks are reusable *)
    List.iter (fun (ci, off) -> Rep.free_push t ci off) b.b_frees_acc;
    b.b_frees_acc <- [];
    (* and so are its frees: report them, oldest first; its allocations
       were reported when they were made *)
    (match b.b_lifetimes_acc with
     | [] -> ()
     | l ->
       b.b_lifetimes_acc <- [];
       List.iter (fun (ev, oid) -> if ev = Rep.Dead then Rep.notify t ev oid)
         (List.rev l));
    (* Ship the commit to the replication layer, if any. The payload is
       built only past the commit point — everything in it is durable on
       the primary. Its blobs are the bytes [batch_write] kept when the
       ops stored them, so nothing is read back from PM; a staged word
       inside a blob was staged after the blob, and the replica applies
       entries after blobs. A crash between the commit and this ship
       leaves replicas exactly one commit behind, which is the lag the
       failover oracle bounds. *)
    match t.Rep.batch_observer with
    | None -> ()
    | Some _ when Memdev.is_powered_off t.Rep.dev ->
      (* A killed primary cannot send: the "commit" above was silently
         discarded by the dead device, so shipping it would let a
         replica lead what recovery of the primary can produce. *)
      ()
    | Some notify -> notify { Rep.p_entries = entries; p_ops = k; p_writes }
  end

let batch_op_begin b =
  check_open b;
  if b.b_in_op then invalid_arg "Redo.batch_op_begin: operation already open";
  b.b_in_op <- true

(* The op's entries with only the newest one per offset, still newest
   first, and their count. An op may stage a word twice — the bump
   pointer by each virgin carve of a path copy — and only the last
   value matters once the log is applied. An op stages a few dozen
   words at most, so the quadratic scan beats a table. *)
let newest_per_offset entries =
  let rec staged off = function
    | [] -> false
    | (o, _) :: tl -> o = off || staged off tl
  in
  let rec go kept n = function
    | [] -> (List.rev kept, n)
    | ((off, _) as e) :: tl ->
      if staged off kept then go kept n tl else go (e :: kept) (n + 1) tl
  in
  go [] 0 entries

let batch_op_end b =
  check_open b;
  if not b.b_in_op then invalid_arg "Redo.batch_op_end: no open operation";
  b.b_in_op <- false;
  let op, n = newest_per_offset b.b_op in
  b.b_op <- op;
  b.b_op_n <- n;
  if b.b_op_n > Rep.redo_capacity then raise Redo_full;
  if b.b_acc_n + b.b_op_n > Rep.redo_capacity then commit_acc b;
  if b.b_op_n > 0 then begin
    b.b_acc <- b.b_op @ b.b_acc;
    b.b_acc_n <- b.b_acc_n + b.b_op_n;
    b.b_acc_ops <- b.b_acc_ops + 1;
    b.b_op <- [];
    b.b_op_n <- 0;
    (* the op's blobs ship with the commit its entries join — never
       with an earlier overflow commit *)
    b.b_writes_acc <- b.b_writes_op @ b.b_writes_acc;
    b.b_writes_op <- [];
    (* and so do its frees *)
    b.b_frees_acc <- b.b_frees_op @ b.b_frees_acc;
    b.b_frees_op <- [];
    match b.b_lifetimes_op with
    | [] -> ()
    | l ->
      b.b_lifetimes_acc <- l @ b.b_lifetimes_acc;
      b.b_lifetimes_op <- []
  end

let batch_finish b =
  check_open b;
  if b.b_in_op then invalid_arg "Redo.batch_finish: operation still open";
  commit_acc b;
  b.b_finished <- true

let batch_commits b = b.b_commits

(* One-op commit, the atomic and transactional APIs' path: [f] stages
   one operation through the same batch code, into a batch of its own,
   and the op's entries run as one redo log as soon as [f] returns; then
   its frees join their stacks. Nothing was grouped, so no payload ships
   and no saving is credited. The overlay is the pool's one table, so no
   batch may be open meanwhile: the pool lock, which a batch holds for
   its whole lifetime, rules that out. If [f] raises, nothing was
   published, but a block may have left its stack: the stacks are left
   to be rebuilt, as after a batch that raised. *)
let atomically (t : Rep.t) f =
  let b = batch_begin t in
  batch_op_begin b;
  match
    let v = f b in
    (match b.b_op with [] -> () | op -> run t (List.rev op));
    v
  with
  | v ->
    List.iter (fun (ci, off) -> Rep.free_push t ci off) b.b_frees_op;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    t.Rep.free_built <- false;
    Printexc.raise_with_backtrace e bt

(* The batch raised: the blocks its uncommitted ops allocated never
   became reachable, so they are reported dead again. *)
let batch_abort b =
  let dead (ev, oid) = if ev = Rep.Live then Rep.notify b.b_rep Rep.Dead oid in
  List.iter dead b.b_lifetimes_op;
  List.iter dead b.b_lifetimes_acc

(* Import side of replication: land the fresh-block blobs first (the
   ranges are unreachable on the replica until the entries publish
   them, mirroring the primary's ordering), then run the entries
   through the standard redo protocol — the replica's own log area
   carries the commit, so a replica that later becomes primary recovers
   exactly like one. The order also matters inside a blob: a virgin
   header's state word, or a fresh entry's [next] restaged by a later
   op, is an entry whose value must overwrite the blob's. *)
let apply_payload (t : Rep.t) (p : Rep.batch_payload) =
  List.iter
    (fun (off, data) ->
      Space.write_bytes t.Rep.space (Rep.a t off) data;
      Space.flush t.Rep.space (Rep.a t off) (Bytes.length data))
    p.Rep.p_writes;
  match p.Rep.p_entries with
  | [] -> ()
  | entries -> run t entries

let recover (t : Rep.t) =
  if Rep.load t Rep.off_redo_valid = 1 then begin
    let n = Rep.load t Rep.off_redo_n in
    let entries =
      List.init n (fun i ->
          ( Rep.load t (Rep.off_redo_entries + (16 * i)),
            Rep.load t (Rep.off_redo_entries + (16 * i) + 8) ))
    in
    apply_entries t entries;
    Rep.store_p t Rep.off_redo_valid 0;
    true
  end else false
