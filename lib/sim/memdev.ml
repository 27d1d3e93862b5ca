(* Byte-addressable memory device with an explicit durability model.

   A device holds one byte image, its [view]: what CPU loads and stores
   observe, caches included. On an untracked persistent device the view
   is also what survives a crash — every store is immediately durable
   (the fast path every served number runs on), and a crash leaves the
   bytes as they are. A volatile device loses its view on a crash.

   Only while store tracking is on does a persistent device keep a
   second image, [durable], split off the view by [set_tracking true]
   and dropped again by [set_tracking false]. Stores then stay pending
   and reach [durable] only once they have been flushed (CLWB) and a
   fence (SFENCE) has drained them — the regime used by the crash
   simulator and the pmemcheck-style trace checker.

   Pending records are indexed by cacheline (a dirty table), so a flush
   touches only the buckets of the lines it covers and a fence drains an
   ordered queue of already-flushed records: O(lines) per flush and
   O(f log f) per fence in the f records drained, never O(P) in all
   pending stores — the crash-point torture harness replays every
   durability event once per crash point. *)

let cacheline = 64

type store_rec = {
  seq : int;
  s_off : int;
  s_len : int;
  data : Bytes.t;          (* value at store time *)
  mutable flushed : bool;
  mutable fenced : bool;
}

type event =
  | Ev_store of { off : int; len : int; data : Bytes.t }
  | Ev_flush of { off : int; len : int }
  | Ev_fence

(* Lightweight durability-event descriptor handed to the injector — no
   payload copy, so an armed injector costs one closure call per event. *)
type hook_event =
  | Hk_store of { off : int; len : int }
  | Hk_flush of { off : int; len : int }
  | Hk_fence

type t = {
  name : string;
  size : int;
  view : Bytes.t;
  persistent : bool;
  mutable durable : Bytes.t option;   (* [Some] exactly while tracking *)
  mutable next_seq : int;
  (* All pending records live in [p_journal] in program order;
     [line_tbl] indexes the not-yet-flushed ones by cacheline;
     [flushed_q] holds flushed-not-yet-fenced records in flush order
     (re-sorted by seq at the fence, which only pays for what it
     drains). Fenced records stay in the journal until compaction. *)
  p_journal : store_rec Journal.t;
  mutable p_live : int;               (* unfenced records in p_journal *)
  line_tbl : (int, store_rec list ref) Hashtbl.t;
  flushed_q : store_rec Journal.t;
  trace_j : event Journal.t;          (* program order; only when tracking *)
  mutable n_stores : int;
  mutable n_flushes : int;
  mutable n_fences : int;
  mutable n_batched_ops : int;
  mutable n_fences_saved : int;
  mutable injector : (hook_event -> unit) option;
  mutable bad_blocks : (int * int) list;   (* (off, len) poisoned regions *)
  mutable powered_off : bool;
}

let make ~name ~persistent view =
  { name; size = Bytes.length view; view; persistent; durable = None;
    next_seq = 0;
    p_journal = Journal.create (); p_live = 0;
    line_tbl = Hashtbl.create 64; flushed_q = Journal.create ();
    trace_j = Journal.create ();
    n_stores = 0; n_flushes = 0; n_fences = 0;
    n_batched_ops = 0; n_fences_saved = 0;
    injector = None; bad_blocks = []; powered_off = false }

let create_volatile ~name size =
  make ~name ~persistent:false (Bytes.make size '\000')

let create_persistent ~name size =
  make ~name ~persistent:true (Bytes.make size '\000')

let of_image ~name img = make ~name ~persistent:true img

let name t = t.name
let size t = t.size
let is_persistent t = t.persistent
let tracking t = Option.is_some t.durable

let clear_pending t =
  Journal.clear t.p_journal;
  t.p_live <- 0;
  Hashtbl.reset t.line_tbl;
  Journal.clear t.flushed_q

let set_tracking t on =
  if on then begin
    if not t.persistent then
      invalid_arg "Memdev.set_tracking: device is volatile";
    (* Untracked, the view is the durable image, so it splits off as a
       copy. An already tracked device keeps its image: re-copying the
       view would make its pending stores durable. *)
    if not (tracking t) then t.durable <- Some (Bytes.copy t.view)
  end
  else begin
    (* Leaving tracking mode: the view becomes the durable image again,
       pending stores included, so the regimes agree. *)
    t.durable <- None;
    clear_pending t;
    Journal.clear t.trace_j
  end

(* What survives a crash: the split-off image while tracking, else the
   view itself. *)
let image t fn =
  if not t.persistent then invalid_arg ("Memdev." ^ fn ^ ": volatile device");
  match t.durable with Some d -> d | None -> t.view

let check_range t off len =
  if off < 0 || len < 0 || off + len > t.size then
    invalid_arg
      (Printf.sprintf "Memdev(%s): range [%d, %d+%d) out of device bounds %d"
         t.name off off len t.size)

(* Fault injection: a pluggable callback fired after every durability
   event (store, flush, fence). An injector that raises models a power
   failure at exactly that event — the store/flush has already reached
   the view and the pending set, then the machine dies. *)

let set_injector t inj = t.injector <- inj

(* Power failure freeze. Between the instant the power dies and the
   restart, stores, flushes and fences from the dying process are
   discarded — without this, an exception-driven "crash" would let
   [with_tx]'s abort handler tidy the media post-mortem and every crash
   point would look like a clean abort. [crash] restores power. *)

let power_off t = t.powered_off <- true
let is_powered_off t = t.powered_off

(* Media faults: bad-block regions whose loads deliver SIGBUS, the way a
   real PM DIMM reports an uncorrectable media error on access. *)

let add_bad_block t ~off ~len =
  check_range t off len;
  if len > 0 then t.bad_blocks <- (off, len) :: t.bad_blocks

let clear_bad_blocks t = t.bad_blocks <- []

let check_load t ~off ~len =
  match t.bad_blocks with
  | [] -> ()
  | bbs ->
    List.iter
      (fun (b_off, b_len) ->
        if off < b_off + b_len && b_off < off + len then
          Fault.bus_error (max off b_off))
      bbs

(* Loads always observe the view. *)

let load_bytes t ~off ~len =
  check_range t off len;
  check_load t ~off ~len;
  Bytes.sub t.view off len

let load_into t ~off ~len ~dst ~dst_off =
  check_range t off len;
  check_load t ~off ~len;
  Bytes.blit t.view off dst dst_off len

let unsafe_view t = t.view

(* Stores. *)

let line_of off = off / cacheline

let add_to_line_tbl t r =
  (* A record is indexed under every cacheline it touches; zero-length
     records touch none and simply await compaction. *)
  if r.s_len > 0 then
    for line = line_of r.s_off to line_of (r.s_off + r.s_len - 1) do
      match Hashtbl.find_opt t.line_tbl line with
      | Some bucket -> bucket := r :: !bucket
      | None -> Hashtbl.add t.line_tbl line (ref [ r ])
    done

let record_store t off len =
  let data = Bytes.sub t.view off len in
  let r = { seq = t.next_seq; s_off = off; s_len = len; data;
            flushed = false; fenced = false } in
  t.next_seq <- t.next_seq + 1;
  Journal.push t.p_journal r;
  t.p_live <- t.p_live + 1;
  add_to_line_tbl t r;
  Journal.push t.trace_j (Ev_store { off; len; data })

(* The tail every store path shares once its bytes are in the view:
   count it, keep it pending while tracking (untracked, the view is
   already the durable image), and fire the injector. The hook event is
   built only for an armed injector, so an untracked store allocates
   nothing. *)
let stored t off len =
  t.n_stores <- t.n_stores + 1;
  if tracking t then record_store t off len;
  match t.injector with None -> () | Some f -> f (Hk_store { off; len })

let store_bytes t ~off src ~src_off ~len =
  check_range t off len;
  if not t.powered_off then begin
    Bytes.blit src src_off t.view off len;
    stored t off len
  end

let store_string t ~off s =
  let len = String.length s in
  check_range t off len;
  if not t.powered_off then begin
    Bytes.blit_string s 0 t.view off len;
    stored t off len
  end

(* Device-level copy: view to view in place, so Space-level
   memcpy/memmove/blit stop double-copying through an intermediate
   [Bytes.t]. [Bytes.blit] is memmove-safe, and with tracking on the
   pending record snapshots the destination view after the copy — the
   same value an intermediate buffer would have carried. *)

let blit ~src ~src_off ~dst ~dst_off ~len =
  check_range src src_off len;
  check_range dst dst_off len;
  if len > 0 then begin
    check_load src ~off:src_off ~len;
    if not dst.powered_off then begin
      Bytes.blit src.view src_off dst.view dst_off len;
      stored dst dst_off len
    end
  end

(* Allocation-free typed stores for the hot paths: the temporary-buffer
   route through [store_bytes] would allocate on every word store, which
   turns benchmark timings into GC noise. *)

let store_u8 t ~off v =
  check_range t off 1;
  if not t.powered_off then begin
    Bytes.set t.view off (Char.unsafe_chr (v land 0xFF));
    stored t off 1
  end

let store_u16 t ~off v =
  check_range t off 2;
  if not t.powered_off then begin
    Bytes.set_uint16_le t.view off (v land 0xFFFF);
    stored t off 2
  end

let store_u32 t ~off v =
  check_range t off 4;
  if not t.powered_off then begin
    Bytes.set_int32_le t.view off (Int32.of_int v);
    stored t off 4
  end

let store_word t ~off v =
  check_range t off 8;
  if not t.powered_off then begin
    Bytes.set_int64_le t.view off (Int64.of_int v);
    stored t off 8
  end

let fill t ~off ~len c =
  check_range t off len;
  if not t.powered_off then begin
    Bytes.fill t.view off len c;
    stored t off len
  end

(* Flush and fence. *)

let flush_indexed t off len =
  (* Only the buckets of the covered cachelines are touched. A record
     spanning several lines is flushed on the first hit; the flag stops
     its other buckets from re-queueing it. *)
  if len > 0 then
    for line = line_of off to line_of (off + len - 1) do
      match Hashtbl.find_opt t.line_tbl line with
      | None -> ()
      | Some bucket ->
        List.iter
          (fun r ->
            if not r.flushed then begin
              r.flushed <- true;
              Journal.push t.flushed_q r
            end)
          !bucket;
        Hashtbl.remove t.line_tbl line
    done

let flush t ~off ~len =
  check_range t off len;
  if t.powered_off then ()
  else begin
  t.n_flushes <- t.n_flushes + 1;
  if tracking t then begin
    flush_indexed t off len;
    Journal.push t.trace_j (Ev_flush { off; len })
  end;
  match t.injector with None -> () | Some f -> f (Hk_flush { off; len })
  end

let apply_to d r = Bytes.blit r.data 0 d r.s_off r.s_len

let fence_indexed t d =
  (* The queue holds exactly the flushed-unfenced records; sorting the
     drained set by sequence restores program order for overlapping
     stores whose lines were flushed out of order. The whole operation
     costs O(f log f) in the number of records actually drained, never
     O(P) in all pending stores. *)
  if not (Journal.is_empty t.flushed_q) then begin
    let drained = Journal.to_array t.flushed_q in
    Array.sort (fun a b -> compare a.seq b.seq) drained;
    Array.iter
      (fun r ->
        apply_to d r;
        r.fenced <- true)
      drained;
    t.p_live <- t.p_live - Array.length drained;
    Journal.clear t.flushed_q;
    (* Compact once fenced corpses dominate the journal. *)
    if Journal.length t.p_journal > 64
       && 2 * t.p_live < Journal.length t.p_journal
    then Journal.filter_in_place (fun r -> not r.fenced) t.p_journal
  end

let fence t =
  if t.powered_off then ()
  else begin
  t.n_fences <- t.n_fences + 1;
  (match t.durable with
   | Some d ->
     fence_indexed t d;
     Journal.push t.trace_j Ev_fence
   | None -> ());
  match t.injector with None -> () | Some f -> f Hk_fence
  end

let persist t ~off ~len =
  flush t ~off ~len;
  fence t

(* Crash simulation. *)

let crash t =
  (match t.durable with
   | Some d -> Bytes.blit d 0 t.view 0 t.size
   | None ->
     (* untracked persistent: the view is the image and survives *)
     if not t.persistent then Bytes.fill t.view 0 t.size '\000');
  clear_pending t;
  Journal.clear t.trace_j;
  t.powered_off <- false       (* restart: power is back *)

let pending_stores t =
  List.filter (fun r -> not r.fenced) (Journal.to_list t.p_journal)

let crash_applying t recs =
  (* A crash where a chosen subset of the pending (not yet fenced) stores
     happened to reach the media before power loss. Used by the
     pmreorder-style state-space explorer. The subset is replayed in
     program order on the durable image before discarding the rest. *)
  let d = image t "crash_applying" in
  List.iter (apply_to d) (List.sort (fun a b -> compare a.seq b.seq) recs);
  crash t

let trace t = Journal.to_list t.trace_j
let clear_trace t = Journal.clear t.trace_j

type counters = {
  stores : int;
  flushes : int;
  fences : int;
  batched_ops : int;
  fences_saved : int;
}

let counters t =
  { stores = t.n_stores; flushes = t.n_flushes; fences = t.n_fences;
    batched_ops = t.n_batched_ops; fences_saved = t.n_fences_saved }

(* Group-commit accounting, credited by the redo batch layer: [ops]
   operations rode one commit, and committing them one by one would have
   cost [fences_saved] additional fences. The device only records; the
   amortization policy lives above it. *)
let note_batch t ~ops ~fences_saved =
  t.n_batched_ops <- t.n_batched_ops + ops;
  t.n_fences_saved <- t.n_fences_saved + fences_saved

let merge_counters l =
  List.fold_left
    (fun acc c ->
      { stores = acc.stores + c.stores;
        flushes = acc.flushes + c.flushes;
        fences = acc.fences + c.fences;
        batched_ops = acc.batched_ops + c.batched_ops;
        fences_saved = acc.fences_saved + c.fences_saved })
    { stores = 0; flushes = 0; fences = 0; batched_ops = 0; fences_saved = 0 }
    l

let reset_counters t =
  t.n_stores <- 0; t.n_flushes <- 0; t.n_fences <- 0;
  t.n_batched_ops <- 0; t.n_fences_saved <- 0

(* Persistence of the durable image itself to the host filesystem, so that
   pools behave like files under /mnt/pmem as in the paper. *)

let save_durable t path =
  let d = image t "save_durable" in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_bytes oc d)

let durable_snapshot t = Bytes.copy (image t "durable_snapshot")

let corrupt_durable t ~off ~bit =
  let d = image t "corrupt_durable" in
  check_range t off 1;
  let c = Char.chr (Char.code (Bytes.get d off) lxor (1 lsl (bit land 7))) in
  Bytes.set d off c;
  (* The view mirrors the media after the next restart; keep them in
     sync so a flip applied post-crash is observable immediately. Setting
     (not flipping) the view keeps an untracked device, whose [d] is the
     view, at exactly one flip. *)
  Bytes.set t.view off c

let load_durable ~name ?(min_size = 16) ?magic path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic)
    (fun () ->
      let size = in_channel_length ic in
      if size < min_size then
        invalid_arg
          (Printf.sprintf
             "Memdev.load_durable(%s): file is %d bytes, below the %d-byte \
              minimum — truncated or not a pool image"
             path size min_size);
      let d = Bytes.create size in
      really_input ic d 0 size;
      (match magic with
       | None -> ()
       | Some m ->
         let got = Int64.to_int (Bytes.get_int64_le d 0) in
         if got <> m then
           invalid_arg
             (Printf.sprintf
                "Memdev.load_durable(%s): bad magic 0x%x (expected 0x%x) — \
                 not a pool image for this toolchain"
                path got m));
      of_image ~name d)
