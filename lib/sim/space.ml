(* Simulated virtual address space.

   Regions map address ranges onto memory devices. Translation of an
   address not covered by any region raises a fault — this is the
   mechanism SPP's implicit bounds check relies on: an overflown tagged
   pointer decodes to a huge address that no region covers.

   Translation pipeline: regions live in a sorted array searched by
   binary search, fronted by a small direct-mapped software TLB keyed by
   address page. A TLB entry is installed only when its whole page lies
   inside one region, so a region boundary mid-page can never be masked
   by a hit; map/unmap invalidate the TLB wholesale (they are rare). *)

type kind =
  | Volatile
  | Persistent

type region = {
  base : int;
  rsize : int;
  dev : Memdev.t;
  kind : kind;
  rname : string;
}

type stats = {
  mutable pm_loads : int;
  mutable pm_stores : int;
  mutable vol_loads : int;
  mutable vol_stores : int;
  mutable pm_bytes_loaded : int;
  mutable pm_bytes_stored : int;
  mutable tlb_hits : int;
  mutable tlb_misses : int;
}

(* Direct-mapped TLB geometry: 64 entries over 4 KiB pages. *)
let page_bits = 12
let tlb_bits = 6
let tlb_size = 1 lsl tlb_bits

type t = {
  mutable regions : region array;   (* sorted by base, ascending *)
  tlb_pages : int array;            (* page tag per slot; -1 = invalid *)
  tlb_regs : region array;          (* [no_region] in an invalid slot *)
  stats : stats;
}

(* What an invalid TLB slot holds: a plain array fills a slot without
   boxing, and an invalidated slot keeps no unmapped device alive. No
   page tag matches an invalid slot, so it is never returned. *)
let no_region =
  { base = -1; rsize = 0; dev = Memdev.create_volatile ~name:"" 0;
    kind = Volatile; rname = "" }

let create () =
  { regions = [||];
    tlb_pages = Array.make tlb_size (-1);
    tlb_regs = Array.make tlb_size no_region;
    stats = { pm_loads = 0; pm_stores = 0; vol_loads = 0; vol_stores = 0;
              pm_bytes_loaded = 0; pm_bytes_stored = 0;
              tlb_hits = 0; tlb_misses = 0 } }

let stats t = t.stats

(* Stats snapshot/merge: the shard router gives every domain its own
   Space, so per-shard stats records are mutated race-free and summed
   only after the domains have joined. *)

let zero_stats () =
  { pm_loads = 0; pm_stores = 0; vol_loads = 0; vol_stores = 0;
    pm_bytes_loaded = 0; pm_bytes_stored = 0; tlb_hits = 0; tlb_misses = 0 }

let snapshot_stats t =
  let s = t.stats in
  { pm_loads = s.pm_loads; pm_stores = s.pm_stores;
    vol_loads = s.vol_loads; vol_stores = s.vol_stores;
    pm_bytes_loaded = s.pm_bytes_loaded; pm_bytes_stored = s.pm_bytes_stored;
    tlb_hits = s.tlb_hits; tlb_misses = s.tlb_misses }

let add_stats ~into s =
  into.pm_loads <- into.pm_loads + s.pm_loads;
  into.pm_stores <- into.pm_stores + s.pm_stores;
  into.vol_loads <- into.vol_loads + s.vol_loads;
  into.vol_stores <- into.vol_stores + s.vol_stores;
  into.pm_bytes_loaded <- into.pm_bytes_loaded + s.pm_bytes_loaded;
  into.pm_bytes_stored <- into.pm_bytes_stored + s.pm_bytes_stored;
  into.tlb_hits <- into.tlb_hits + s.tlb_hits;
  into.tlb_misses <- into.tlb_misses + s.tlb_misses

let merge_stats l =
  let m = zero_stats () in
  List.iter (fun s -> add_stats ~into:m s) l;
  m

let reset_stats t =
  t.stats.pm_loads <- 0; t.stats.pm_stores <- 0;
  t.stats.vol_loads <- 0; t.stats.vol_stores <- 0;
  t.stats.pm_bytes_loaded <- 0; t.stats.pm_bytes_stored <- 0;
  t.stats.tlb_hits <- 0; t.stats.tlb_misses <- 0

let tlb_invalidate t =
  Array.fill t.tlb_pages 0 tlb_size (-1);
  Array.fill t.tlb_regs 0 tlb_size no_region

let overlaps a b =
  a.base < b.base + b.rsize && b.base < a.base + a.rsize

let map t ~base ~size ~kind ~name dev =
  if base < 0 || size <= 0 then invalid_arg "Space.map: bad range";
  if size > Memdev.size dev then invalid_arg "Space.map: range exceeds device";
  let r = { base; rsize = size; dev; kind; rname = name } in
  Array.iter
    (fun r' ->
      if overlaps r r' then
        invalid_arg
          (Printf.sprintf "Space.map: region %s overlaps %s" name r'.rname))
    t.regions;
  let arr = Array.append t.regions [| r |] in
  Array.sort (fun a b -> compare a.base b.base) arr;
  t.regions <- arr;
  tlb_invalidate t

let unmap t ~base =
  tlb_invalidate t;
  let keep =
    Array.of_list
      (List.filter (fun r -> r.base <> base) (Array.to_list t.regions))
  in
  if Array.length keep = Array.length t.regions then
    invalid_arg "Space.unmap: no region at this base";
  t.regions <- keep

(* Binary search for the region containing [addr]; fills the TLB slot
   when the page is wholly covered. *)
let find_region_slow t addr page slot =
  t.stats.tlb_misses <- t.stats.tlb_misses + 1;
  let arr = t.regions in
  (* greatest index whose base <= addr *)
  let lo = ref 0 and hi = ref (Array.length arr - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if (Array.unsafe_get arr mid).base <= addr then begin
      found := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  if !found < 0 then Fault.segfault addr;
  let r = Array.unsafe_get arr !found in
  if addr >= r.base + r.rsize then Fault.segfault addr;
  let pbase = page lsl page_bits in
  if pbase >= r.base && pbase + (1 lsl page_bits) <= r.base + r.rsize then begin
    t.tlb_pages.(slot) <- page;
    t.tlb_regs.(slot) <- r
  end;
  r

let find_region t addr =
  if addr < 0 then Fault.segfault addr;
  let page = addr lsr page_bits in
  let slot = page land (tlb_size - 1) in
  if Array.unsafe_get t.tlb_pages slot = page then begin
    t.stats.tlb_hits <- t.stats.tlb_hits + 1;
    Array.unsafe_get t.tlb_regs slot
  end
  else find_region_slow t addr page slot

(* Translate an access of [len] bytes at [addr]: the region holding it,
   at device offset [dev_offset r addr]. The whole access must lie within
   one region, otherwise it faults at the first uncovered byte. The two
   halves stay separate calls because returning them as a pair would
   allocate on every typed access. *)
let region_for t addr len =
  let r = find_region t addr in
  if addr + len > r.base + r.rsize then Fault.segfault (r.base + r.rsize);
  r

let dev_offset r addr = addr - r.base

let count_load t r len = match r.kind with
  | Persistent ->
    t.stats.pm_loads <- t.stats.pm_loads + 1;
    t.stats.pm_bytes_loaded <- t.stats.pm_bytes_loaded + len
  | Volatile -> t.stats.vol_loads <- t.stats.vol_loads + 1

let count_store t r len = match r.kind with
  | Persistent ->
    t.stats.pm_stores <- t.stats.pm_stores + 1;
    t.stats.pm_bytes_stored <- t.stats.pm_bytes_stored + len
  | Volatile -> t.stats.vol_stores <- t.stats.vol_stores + 1

(* Typed accessors. Words are 63-bit OCaml ints stored as 8 little-endian
   bytes; the top bit is always zero on store and discarded on load. *)

(* Loads check for poisoned media (bad blocks raise SIGBUS) before
   touching the view; [Memdev.check_load] is a no-op on healthy devices. *)

let load_u8 t addr =
  let r = region_for t addr 1 in
  let off = dev_offset r addr in
  count_load t r 1;
  Memdev.check_load r.dev ~off ~len:1;
  Char.code (Bytes.get (Memdev.unsafe_view r.dev) off)

let load_u16 t addr =
  let r = region_for t addr 2 in
  let off = dev_offset r addr in
  count_load t r 2;
  Memdev.check_load r.dev ~off ~len:2;
  Bytes.get_uint16_le (Memdev.unsafe_view r.dev) off

let load_u32 t addr =
  let r = region_for t addr 4 in
  let off = dev_offset r addr in
  count_load t r 4;
  Memdev.check_load r.dev ~off ~len:4;
  Int32.to_int (Bytes.get_int32_le (Memdev.unsafe_view r.dev) off) land 0xFFFFFFFF

let load_word t addr =
  let r = region_for t addr 8 in
  let off = dev_offset r addr in
  count_load t r 8;
  Memdev.check_load r.dev ~off ~len:8;
  Int64.to_int (Bytes.get_int64_le (Memdev.unsafe_view r.dev) off)

let store_u8 t addr v =
  let r = region_for t addr 1 in
  count_store t r 1;
  Memdev.store_u8 r.dev ~off:(dev_offset r addr) v

let store_u16 t addr v =
  let r = region_for t addr 2 in
  count_store t r 2;
  Memdev.store_u16 r.dev ~off:(dev_offset r addr) v

let store_u32 t addr v =
  let r = region_for t addr 4 in
  count_store t r 4;
  Memdev.store_u32 r.dev ~off:(dev_offset r addr) v

let store_word t addr v =
  let r = region_for t addr 8 in
  count_store t r 8;
  Memdev.store_word r.dev ~off:(dev_offset r addr) v

(* Block operations. A block access counts one load/store event (stats
   skew otherwise: an N-byte memcpy is one instruction, not N), with the
   moved bytes accounted separately in [pm_bytes_loaded/stored]. *)

let read_bytes t addr len =
  if len = 0 then Bytes.create 0
  else begin
    let r = region_for t addr len in
    count_load t r len;
    Memdev.load_bytes r.dev ~off:(dev_offset r addr) ~len
  end

(* Caller-buffer read: the region is resolved once and the device view
   copied out in chunks. Each chunk is bad-block-checked before it is
   copied and counted, so a fault mid-range — region boundary or
   poisoned media — leaves exactly the clean prefix in [dst] and in the
   counters, like a hardware memcpy dying partway. Event accounting
   matches [read_bytes]: one load event for the whole block, with the
   bytes that were actually moved in [pm_bytes_loaded]. *)

let read_chunk = 256

(* Longest clean prefix of [off, off+len) on [dev]: a Bus_error names
   the first poisoned byte of the overlapping bad block, but an earlier
   bad block may still precede it in the list, so narrow until clean. *)
let rec clean_prefix dev ~off ~len =
  match Memdev.check_load dev ~off ~len with
  | () -> len
  | exception Fault.Fault (Fault.Bus_error, boff) ->
    if boff <= off then 0 else clean_prefix dev ~off ~len:(boff - off)

(* [read_into] on [addr]'s region [r], for a positive [len] *)
let read_region t r addr ~len ~dst ~dst_off =
  let limit = r.base + r.rsize in
  let count copied chunk =
    match r.kind with
    | Persistent ->
      if copied = 0 then t.stats.pm_loads <- t.stats.pm_loads + 1;
      t.stats.pm_bytes_loaded <- t.stats.pm_bytes_loaded + chunk
    | Volatile ->
      if copied = 0 then t.stats.vol_loads <- t.stats.vol_loads + 1
  in
  let rec go a copied =
    if copied < len then begin
      if a >= limit then Fault.segfault limit;
      let chunk = min read_chunk (min (len - copied) (limit - a)) in
      let off = dev_offset r a in
      let ok = clean_prefix r.dev ~off ~len:chunk in
      if ok > 0 then begin
        count copied ok;
        Memdev.load_into r.dev ~off ~len:ok ~dst ~dst_off:(dst_off + copied)
      end;
      if ok < chunk then Fault.bus_error (off + ok)
      else go (a + chunk) (copied + chunk)
    end
  in
  go addr 0

let read_into t addr ~len ~dst ~dst_off =
  if len < 0 || dst_off < 0 || dst_off + len > Bytes.length dst then
    invalid_arg "Space.read_into: bad destination range";
  if len > 0 then read_region t (find_region t addr) addr ~len ~dst ~dst_off

let read_sub t addr len =
  (* Single-copy string read: one fresh buffer, filled in place, frozen.
     The buffer never escapes mutable, so the unsafe freeze is sound. A
     length that runs past [addr]'s mapping — a negative one is a
     [size_t] that does — faults at the mapping's end before the buffer
     is allocated, so a corrupt length never sizes an allocation. *)
  if len = 0 then ""
  else begin
    let r = find_region t addr in
    let limit = r.base + r.rsize in
    if len < 0 || len > limit - addr then Fault.segfault limit;
    let b = Bytes.create len in
    read_region t r addr ~len ~dst:b ~dst_off:0;
    Bytes.unsafe_to_string b
  end

let write_sub t addr b ~pos ~len =
  if len > 0 then begin
    let r = region_for t addr len in
    count_store t r len;
    Memdev.store_bytes r.dev ~off:(dev_offset r addr) b ~src_off:pos ~len
  end

let write_bytes t addr b = write_sub t addr b ~pos:0 ~len:(Bytes.length b)

let write_string t addr s =
  let len = String.length s in
  if len > 0 then begin
    let r = region_for t addr len in
    count_store t r len;
    Memdev.store_string r.dev ~off:(dev_offset r addr) s
  end

let fill t addr len c =
  if len > 0 then begin
    let r = region_for t addr len in
    count_store t r len;
    Memdev.fill r.dev ~off:(dev_offset r addr) ~len c
  end

let blit t ~src ~dst ~len =
  (* Device-level copy: no intermediate buffer, memmove-safe overlap. *)
  if len > 0 then begin
    let rs = region_for t src len in
    let src_off = dev_offset rs src in
    let rd = region_for t dst len in
    let dst_off = dev_offset rd dst in
    count_load t rs len;
    count_store t rd len;
    Memdev.blit ~src:rs.dev ~src_off ~dst:rd.dev ~dst_off ~len
  end

(* Block compare without materializing either side. *)

let memcmp t a b len =
  if len = 0 then 0
  else begin
    let ra = region_for t a len in
    let off_a = dev_offset ra a in
    let rb = region_for t b len in
    let off_b = dev_offset rb b in
    count_load t ra len;
    count_load t rb len;
    Memdev.check_load ra.dev ~off:off_a ~len;
    Memdev.check_load rb.dev ~off:off_b ~len;
    let va = Memdev.unsafe_view ra.dev and vb = Memdev.unsafe_view rb.dev in
    let rec go i =
      if i = len then 0
      else begin
        let ca = Char.code (Bytes.unsafe_get va (off_a + i))
        and cb = Char.code (Bytes.unsafe_get vb (off_b + i)) in
        if ca <> cb then compare ca cb else go (i + 1)
      end
    in
    go 0
  end

(* Device-side compare of a mapped byte range against an OCaml string —
   [String.compare (read_sub t addr len) s] without materializing the
   device side. Accounting mirrors [memcmp]: the whole range counts as
   one load event (the comparison instruction touched it), bad blocks
   checked up front. *)

(* The comparison loops live at toplevel: a local recursive function
   closes over the device view and candidate and costs an allocation per
   call without flambda — these run once per probed entry on hot paths. *)
let rec cmp_loop b base s i n =
  if i = n then 0
  else
    let ca = Char.code (Bytes.unsafe_get b (base + i))
    and cb = Char.code (String.unsafe_get s i) in
    if ca < cb then -1
    else if ca > cb then 1
    else cmp_loop b base s (i + 1) n

let rec eq_loop b base s i slen =
  i = slen
  || Bytes.unsafe_get b (base + i) = String.unsafe_get s i
     && eq_loop b base s (i + 1) slen

let compare_string t addr ~len s =
  let slen = String.length s in
  if len = 0 && slen = 0 then 0
  else begin
    let view, off =
      if len = 0 then (Bytes.empty, 0)
      else begin
        let r = region_for t addr len in
        let off = dev_offset r addr in
        count_load t r len;
        Memdev.check_load r.dev ~off ~len;
        (Memdev.unsafe_view r.dev, off)
      end
    in
    let c = cmp_loop view off s 0 (min len slen) in
    if c <> 0 then c
    else if len < slen then -1
    else if len > slen then 1
    else 0
  end

let equal_string t addr s =
  compare_string t addr ~len:(String.length s) s = 0

(* C-string helpers: the region is resolved once and the device view is
   scanned in chunks — not one full translation per byte — still faulting
   at the region boundary exactly like a runaway strlen on hardware. *)

let strlen_chunk = 256

let strlen t addr =
  let r = find_region t addr in
  let view = Memdev.unsafe_view r.dev in
  let limit = r.base + r.rsize in
  let rec scan a =
    if a >= limit then Fault.segfault limit;
    let chunk = min strlen_chunk (limit - a) in
    let off = dev_offset r a in
    let nul = ref (-1) in
    let i = ref 0 in
    while !nul < 0 && !i < chunk do
      if Bytes.unsafe_get view (off + !i) = '\000' then nul := !i else incr i
    done;
    (* only the bytes actually scanned count as read (and are checked
       against bad blocks): the NUL stops the access like on hardware *)
    let scanned = if !nul >= 0 then !nul + 1 else chunk in
    count_load t r scanned;
    Memdev.check_load r.dev ~off ~len:scanned;
    if !nul >= 0 then a + !nul - addr else scan (a + chunk)
  in
  scan addr

let read_cstring t addr =
  let len = strlen t addr in
  Bytes.to_string (read_bytes t addr len)

let strcmp t a b =
  let ra = find_region t a and rb = find_region t b in
  let va = Memdev.unsafe_view ra.dev and vb = Memdev.unsafe_view rb.dev in
  let lim_a = ra.base + ra.rsize and lim_b = rb.base + rb.rsize in
  let rec go i =
    if a + i >= lim_a then Fault.segfault lim_a;
    if b + i >= lim_b then Fault.segfault lim_b;
    let off_a = dev_offset ra (a + i) and off_b = dev_offset rb (b + i) in
    Memdev.check_load ra.dev ~off:off_a ~len:1;
    Memdev.check_load rb.dev ~off:off_b ~len:1;
    let ca = Char.code (Bytes.unsafe_get va off_a)
    and cb = Char.code (Bytes.unsafe_get vb off_b) in
    if ca <> cb then (i, compare ca cb)
    else if ca = 0 then (i, 0)
    else go (i + 1)
  in
  let scanned, result = go 0 in
  count_load t ra (scanned + 1);
  count_load t rb (scanned + 1);
  result

(* Durability pass-throughs. *)

let flush t addr len =
  if len > 0 then begin
    let r = region_for t addr len in
    Memdev.flush r.dev ~off:(dev_offset r addr) ~len
  end

let fence_at t addr =
  let r = find_region t addr in
  Memdev.fence r.dev

let persist t addr len =
  (* one translation for both halves of the CLWB+SFENCE pair *)
  if len > 0 then begin
    let r = region_for t addr len in
    Memdev.flush r.dev ~off:(dev_offset r addr) ~len;
    Memdev.fence r.dev
  end

let store_word_persist t addr v =
  (* Fused store+persist for the pmdk metadata paths (store_p): one
     translation instead of three. *)
  let r = region_for t addr 8 in
  let off = dev_offset r addr in
  count_store t r 8;
  Memdev.store_word r.dev ~off v;
  Memdev.flush r.dev ~off ~len:8;
  Memdev.fence r.dev

(* ------------------------------------------------------------------ *)
(* Views — a window opened for raw reads                               *)
(* ------------------------------------------------------------------ *)

(* [read_view] pays the translation, the region bounds and the media
   check ONCE for a whole window; every read through the resulting view
   is a bare access into the device backing store plus a window-bounds
   check: no region search, no TLB probe, no stats update, no media
   re-check. That is the full hoisting the SPP memintrinsic hook models
   (check the furthest byte once, run the body unchecked), applied to
   the simulator's own read pipeline. A view is transient by contract:
   it must not be held across anything that could remap the space or
   poison the device — acquire, read, drop (cmap holds one per entry
   visit, under the pool's lane). Accounting is block-op style: the
   window counts as one load event for [len] bytes at acquisition,
   however many reads follow — the same accounting a block read of the
   window would pay. *)

type view = {
  v_bytes : Bytes.t;   (* device backing store *)
  v_base : int;        (* device offset of the view base *)
  v_addr : int;        (* simulated address of the view base (errors) *)
  v_len : int;         (* view length, bytes *)
}

exception Out_of_window of {
  addr : int;      (* window base *)
  window : int;    (* window length *)
  off : int;       (* offending access offset within the window *)
  len : int;       (* offending access length *)
}

let () =
  Printexc.register_printer (function
    | Out_of_window { addr; window; off; len } ->
      Some
        (Printf.sprintf
           "Space.Out_of_window: access (+%d, %d bytes) outside \
            window [0x%x, +%d)"
           off len addr window)
    | _ -> None)

let read_view t addr len =
  if len <= 0 then invalid_arg "Space.read_view: window must be non-empty";
  let r = region_for t addr len in
  let off = dev_offset r addr in
  count_load t r len;
  Memdev.check_load r.dev ~off ~len;
  { v_bytes = Memdev.unsafe_view r.dev; v_base = off; v_addr = addr;
    v_len = len }

let view_check v off len =
  if off < 0 || len < 0 || off + len > v.v_len then
    raise (Out_of_window { addr = v.v_addr; window = v.v_len; off; len })

let view_word v off =
  view_check v off 8;
  (* manual LE assembly: [Bytes.get_int64_le] boxes an [Int64] per call,
     and word reads are the inner loop of every node/entry decode. The
     top bit is always zero on store (words are 63-bit ints), so the
     eight raw bytes reassemble exactly. *)
  let b = v.v_bytes and i = v.v_base + off in
  Char.code (Bytes.unsafe_get b i)
  lor (Char.code (Bytes.unsafe_get b (i + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get b (i + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (i + 3)) lsl 24)
  lor (Char.code (Bytes.unsafe_get b (i + 4)) lsl 32)
  lor (Char.code (Bytes.unsafe_get b (i + 5)) lsl 40)
  lor (Char.code (Bytes.unsafe_get b (i + 6)) lsl 48)
  lor (Char.code (Bytes.unsafe_get b (i + 7)) lsl 56)

let view_string v ~off ~len =
  view_check v off len;
  Bytes.sub_string v.v_bytes (v.v_base + off) len

let view_compare_string v ~off ~len s =
  (* [String.compare (view_string v ~off ~len) s] without the copy *)
  view_check v off len;
  let slen = String.length s in
  let c = cmp_loop v.v_bytes (v.v_base + off) s 0 (min len slen) in
  if c <> 0 then c else if len < slen then -1 else if len > slen then 1 else 0

let view_equal_string v ~off s =
  let slen = String.length s in
  view_check v off slen;
  eq_loop v.v_bytes (v.v_base + off) s 0 slen
