(* bmap — a persistent string-keyed B-tree engine behind the same
   {!Engine.S} seam as {!Cmap}, giving the serving stack an ordered
   engine (cheap range scans) with the same crash story.

   It generalizes the [lib/indices/btree_map] node discipline — PM
   nodes, oid child links, order-8 fanout — to variable-size keys and
   values by moving items out of line: a node stores oids of immutable
   item objects instead of inline fixed-width pairs.

     node: [ n | leaf | ORDER child oids | (ORDER-1) item oids ]
     item: [ klen | vlen | key bytes | value bytes ]

   Durability discipline: every op runs through [Engine.run_batch] as
   one op of an open redo batch ([exec]), and every mutation is
   copy-on-write. An op allocates fresh nodes for the root-to-leaf path
   it changes ([Pool.batch_alloc]), composes each in DRAM and stores it
   while it is unreachable ([Engine.store_fresh], one checked store per
   contiguous range and one flush per block; a replicated pool ships
   the same bytes without reading them back), and stages exactly one
   word — the root slot oid — via [Pool.batch_stage_oid]. Replaced
   nodes and items are [Pool.batch_free]d (kept off the free stacks
   until the commit is durable, so a crash mid-batch still finds the old
   tree intact under the old root). Each op is therefore atomic by
   construction and recovery lands on a whole-op prefix, as for Cmap.

   Every node and item byte is read through the variant on [t.a.direct],
   one check per window (a whole node, a length word, a key or a value),
   and every fresh node and item is stored through the variant's range
   check. Only the root slot is read by pool offset, through the batch
   overlay. Exclusion is the pool's lane, which [Engine.run_batch]
   holds for every op. *)

open Spp_pmdk

let name = "btree"

let order = 8                 (* max children per node *)
let max_items = order - 1
let min_items = (order / 2) - 1

type t = {
  a : Spp_access.t;
  map_oid : Oid.t;                 (* root-slot object: one oid *)
}

let children_off = 16
let items_off (a : Spp_access.t) = 16 + (order * a.Spp_access.oid_size)

let node_size (a : Spp_access.t) =
  16 + ((order + max_items) * a.Spp_access.oid_size)

let create ?nbuckets:_ (a : Spp_access.t) =
  let map_oid = a.Spp_access.palloc ~zero:true a.Spp_access.oid_size in
  { a; map_oid }

let attach (a : Spp_access.t) ~root =
  if Pool.alloc_size a.Spp_access.pool root < a.Spp_access.oid_size then
    invalid_arg "Bmap.attach: root slot too small";
  { a; map_oid = root }

let root_oid t = t.map_oid

(* ------------------------------------------------------------------ *)
(* Node and item IO                                                    *)
(* ------------------------------------------------------------------ *)

let pool t = t.a.Spp_access.pool
let oid_size t = t.a.Spp_access.oid_size

(* Item readers copy a key or a value once and compare descent keys
   against a window over the key bytes ([item_cmp]) without
   materializing candidates; each window covers the bytes it reads. *)
let item_key t (it : Oid.t) =
  let a = t.a in
  let p = a.Spp_access.direct it in
  a.Spp_access.read_sub (a.Spp_access.gep p 16) (a.Spp_access.load_word p)

let item_value t (it : Oid.t) =
  let a = t.a in
  let p = a.Spp_access.direct it in
  let klen = a.Spp_access.load_word p in
  let vlen = a.Spp_access.load_word (a.Spp_access.gep p 8) in
  a.Spp_access.read_sub (a.Spp_access.gep p (16 + klen)) vlen

(* [String.compare (item_key t it) key] without materializing the item
   key — what the descent ([search_desc], [find]) runs per candidate. *)
let item_cmp t (it : Oid.t) key =
  let a = t.a in
  let p = a.Spp_access.direct it in
  let klen = a.Spp_access.load_word p in
  if klen = 0 then if key = "" then 0 else -1
  else
    Spp_sim.Space.view_compare_string
      (a.Spp_access.view (a.Spp_access.gep p 16) klen) ~off:0 ~len:klen key

(* One node, opened as one window through the variant. *)
let node_view t (oid : Oid.t) =
  t.a.Spp_access.view (t.a.Spp_access.direct oid) (node_size t.a)

(* In-memory image of one node, the unit the COW paths work on. The
   arrays are private to the desc, so mutating them never touches PM;
   [src] is the durable node this was loaded from (null for a node
   invented by the current op). *)
type desc = {
  src : Oid.t;
  d_leaf : bool;
  mutable d_items : Oid.t array;
  mutable d_children : Oid.t array; (* n+1 node oids; [||] for a leaf *)
}

(* Plain (non-overlay) reads are correct mid-batch by the COW
   invariant: committed nodes are never modified in place and fresh
   nodes are stored whole before they become reachable; the only
   staged word is the root slot, which callers read through
   [Pool.batch_load_oid]. *)
let load_desc t (oid : Oid.t) =
  let p = pool t in
  let osz = oid_size t in
  let v = node_view t oid in
  let n = Spp_sim.Space.view_word v 0 in
  let leaf = Spp_sim.Space.view_word v 8 <> 0 in
  { src = oid; d_leaf = leaf;
    d_items =
      Array.init n (fun i ->
        Pool.view_load_oid p v ~off:(items_off t.a + (i * osz)));
    d_children =
      (if leaf then [||]
       else
         Array.init (n + 1) (fun i ->
           Pool.view_load_oid p v ~off:(children_off + (i * osz)))) }

(* Materialize a desc as a fresh node: batch-allocate, compose the live
   fields in DRAM at their node offsets, store them while unreachable —
   the header with the live children, then the live items, so the dead
   slots between them are never written — flush once, then free the
   node it replaces. *)
let b_materialize t bt d =
  let p = pool t in
  let size = node_size t.a in
  let oid = Pool.batch_alloc p bt ~size in
  let off = oid.Oid.off in
  let osz = oid_size t in
  let n = Array.length d.d_items and nc = Array.length d.d_children in
  let buf = Pool.batch_buffer p bt size in
  Pool.put_word buf ~pos:0 n;
  Pool.put_word buf ~pos:8 (if d.d_leaf then 1 else 0);
  for i = 0 to nc - 1 do
    Pool.put_oid p buf ~pos:(children_off + (i * osz)) d.d_children.(i)
  done;
  for i = 0 to n - 1 do
    Pool.put_oid p buf ~pos:(items_off t.a + (i * osz)) d.d_items.(i)
  done;
  Engine.store_fresh t.a bt oid buf ~pos:0 ~len:(children_off + (nc * osz));
  Engine.store_fresh t.a bt oid buf ~pos:(items_off t.a) ~len:(n * osz);
  Spp_sim.Space.flush (Pool.space p) (Pool.addr_of_off p off) size;
  if not (Oid.is_null d.src) then Pool.batch_free p bt d.src;
  oid

let b_mk_item t bt ~key ~value =
  let p = pool t in
  let klen = String.length key and vlen = String.length value in
  let size = 16 + klen + vlen in
  let oid = Pool.batch_alloc p bt ~size in
  let buf = Pool.batch_buffer p bt size in
  Pool.put_word buf ~pos:0 klen;
  Pool.put_word buf ~pos:8 vlen;
  Bytes.blit_string key 0 buf 16 klen;
  Bytes.blit_string value 0 buf (16 + klen) vlen;
  Engine.store_fresh t.a bt oid buf ~pos:0 ~len:size;
  Spp_sim.Space.flush (Pool.space p) (Pool.addr_of_off p oid.Oid.off) size;
  oid

(* First index whose item key is >= [key] (= item count if none). *)
let search_desc t d key =
  let n = Array.length d.d_items in
  let rec go i =
    if i >= n then i
    else if item_cmp t d.d_items.(i) key >= 0 then i
    else go (i + 1)
  in
  go 0

let insert_at arr i x =
  let n = Array.length arr in
  Array.init (n + 1) (fun j ->
    if j < i then arr.(j) else if j = i then x else arr.(j - 1))

let remove_at arr i =
  let n = Array.length arr in
  Array.init (n - 1) (fun j -> if j < i then arr.(j) else arr.(j + 1))

(* ------------------------------------------------------------------ *)
(* Read paths                                                          *)
(* ------------------------------------------------------------------ *)

(* Point lookup: each node is opened as one window and only the oids
   the walk actually touches are decoded — no per-level desc record, no
   item/children arrays. *)
let rec find t (oid : Oid.t) key =
  let p = pool t in
  let v = node_view t oid in
  let n = Spp_sim.Space.view_word v 0 in
  let leaf = Spp_sim.Space.view_word v 8 <> 0 in
  let osz = oid_size t in
  let descend i =
    if leaf then None
    else find t (Pool.view_load_oid p v ~off:(children_off + (i * osz))) key
  in
  let rec scan i =
    if i >= n then descend n
    else begin
      let it = Pool.view_load_oid p v ~off:(items_off t.a + (i * osz)) in
      let c = item_cmp t it key in
      if c < 0 then scan (i + 1)
      else if c = 0 then Some (item_value t it)
      else descend i
    end
  in
  scan 0

exception Scan_done

(* In-order traversal clipped to [lo..hi], stopping after [limit]
   pairs. Starting the walk at the first in-range separator prunes the
   subtrees entirely below [lo]. *)
let collect_range t root ~lo ~hi ~limit =
  let acc = ref [] and n = ref 0 in
  let keep k v =
    if k > hi then raise Scan_done;
    if k >= lo then begin
      acc := (k, v) :: !acc;
      incr n;
      if !n >= limit then raise Scan_done
    end
  in
  let rec go oid =
    let d = load_desc t oid in
    let len = Array.length d.d_items in
    let start = search_desc t d lo in
    if d.d_leaf then
      for i = start to len - 1 do
        let it = d.d_items.(i) in
        keep (item_key t it) (item_value t it)
      done
    else begin
      for i = start to len - 1 do
        go d.d_children.(i);
        let it = d.d_items.(i) in
        keep (item_key t it) (item_value t it)
      done;
      go d.d_children.(len)
    end
  in
  (if limit > 0 && lo <= hi && not (Oid.is_null root) then
     try go root with Scan_done -> ());
  List.rev !acc

let rec count_node t oid =
  let d = load_desc t oid in
  Array.length d.d_items
  + (if d.d_leaf then 0
     else Array.fold_left (fun s c -> s + count_node t c) 0 d.d_children)

(* Extreme keys of a desc's subtree, by pure reads. *)
let rec max_kv t d =
  if d.d_leaf then begin
    let it = d.d_items.(Array.length d.d_items - 1) in
    (item_key t it, item_value t it)
  end
  else max_kv t (load_desc t d.d_children.(Array.length d.d_children - 1))

let rec min_kv t d =
  if d.d_leaf then begin
    let it = d.d_items.(0) in
    (item_key t it, item_value t it)
  end
  else min_kv t (load_desc t d.d_children.(0))

(* ------------------------------------------------------------------ *)
(* COW insert                                                          *)
(* ------------------------------------------------------------------ *)

type ins =
  | Fit of Oid.t
  | Split of Oid.t * Oid.t * Oid.t (* left node, separator item, right node *)

(* Overflow check + split, bottom-up: a desc holding max_items + 1
   items splits around its middle item into two fresh nodes. *)
let b_finish t bt d =
  if Array.length d.d_items <= max_items then Fit (b_materialize t bt d)
  else begin
    let items = d.d_items and ch = d.d_children in
    let mid = max_items / 2 in
    let sep = items.(mid) in
    let left =
      { src = Oid.null; d_leaf = d.d_leaf;
        d_items = Array.sub items 0 mid;
        d_children = (if d.d_leaf then [||] else Array.sub ch 0 (mid + 1)) }
    in
    let rlen = Array.length items - mid - 1 in
    let right =
      { src = Oid.null; d_leaf = d.d_leaf;
        d_items = Array.sub items (mid + 1) rlen;
        d_children =
          (if d.d_leaf then [||] else Array.sub ch (mid + 1) (rlen + 1)) }
    in
    let l = b_materialize t bt left in
    let r = b_materialize t bt right in
    if not (Oid.is_null d.src) then Pool.batch_free (pool t) bt d.src;
    Split (l, sep, r)
  end

let rec b_ins t bt (oid : Oid.t) ~key ~value =
  let d = load_desc t oid in
  let n = Array.length d.d_items in
  let i = search_desc t d key in
  if i < n && item_cmp t d.d_items.(i) key = 0 then begin
    (* value replace: fresh item, fresh node, free both old *)
    let old = d.d_items.(i) in
    d.d_items.(i) <- b_mk_item t bt ~key ~value;
    let r = Fit (b_materialize t bt d) in
    Pool.batch_free (pool t) bt old;
    r
  end
  else if d.d_leaf then begin
    d.d_items <- insert_at d.d_items i (b_mk_item t bt ~key ~value);
    b_finish t bt d
  end
  else
    match b_ins t bt d.d_children.(i) ~key ~value with
    | Fit c ->
      d.d_children.(i) <- c;
      Fit (b_materialize t bt d)
    | Split (l, sep, r) ->
      d.d_items <- insert_at d.d_items i sep;
      let ch = insert_at d.d_children (i + 1) r in
      ch.(i) <- l;
      d.d_children <- ch;
      b_finish t bt d

(* ------------------------------------------------------------------ *)
(* COW remove (CLRS shape, on descs)                                   *)
(* ------------------------------------------------------------------ *)

let merge_descs t bt l sep r =
  let p = pool t in
  if not (Oid.is_null l.src) then Pool.batch_free p bt l.src;
  if not (Oid.is_null r.src) then Pool.batch_free p bt r.src;
  { src = Oid.null; d_leaf = l.d_leaf;
    d_items = Array.concat [ l.d_items; [| sep |]; r.d_items ];
    d_children = Array.append l.d_children r.d_children }

(* Remove [key] from the subtree described by [d]. The caller
   guarantees [d] is the root or holds > min_items, so deleting one
   item here never underflows. Mutates [d] in place; children that
   change are materialized before being linked back. Returns the
   removed value and whether [d] changed. *)
let rec b_rem t bt d key =
  let p = pool t in
  let n = Array.length d.d_items in
  let i = search_desc t d key in
  let found = i < n && item_cmp t d.d_items.(i) key = 0 in
  if d.d_leaf then
    if not found then (None, false)
    else begin
      let v = item_value t d.d_items.(i) in
      Pool.batch_free p bt d.d_items.(i);
      d.d_items <- remove_at d.d_items i;
      (Some v, true)
    end
  else if found then begin
    let v = item_value t d.d_items.(i) in
    let lc = load_desc t d.d_children.(i) in
    let rc = load_desc t d.d_children.(i + 1) in
    if Array.length lc.d_items > min_items then begin
      (* hoist the predecessor: read its kv, delete it below (the old
         leaf item dies there), point the separator at a fresh copy *)
      let pk, pv = max_kv t lc in
      ignore (b_rem t bt lc pk);
      d.d_children.(i) <- b_materialize t bt lc;
      Pool.batch_free p bt d.d_items.(i);
      d.d_items.(i) <- b_mk_item t bt ~key:pk ~value:pv;
      (Some v, true)
    end
    else if Array.length rc.d_items > min_items then begin
      let sk, sv = min_kv t rc in
      ignore (b_rem t bt rc sk);
      d.d_children.(i + 1) <- b_materialize t bt rc;
      Pool.batch_free p bt d.d_items.(i);
      d.d_items.(i) <- b_mk_item t bt ~key:sk ~value:sv;
      (Some v, true)
    end
    else begin
      (* both minimal: merge around the separator and recurse *)
      let merged = merge_descs t bt lc d.d_items.(i) rc in
      d.d_items <- remove_at d.d_items i;
      d.d_children <- remove_at d.d_children (i + 1);
      ignore (b_rem t bt merged key);
      d.d_children.(i) <- b_materialize t bt merged;
      (Some v, true)
    end
  end
  else begin
    (* descend, pre-balancing the target child to > min_items *)
    let c = load_desc t d.d_children.(i) in
    let target, ti, fixed =
      if Array.length c.d_items > min_items then (c, i, false)
      else begin
        let borrow_left () =
          if i = 0 then false
          else begin
            let sib = load_desc t d.d_children.(i - 1) in
            let sn = Array.length sib.d_items in
            if sn <= min_items then false
            else begin
              (* rotate right through the separator *)
              c.d_items <- insert_at c.d_items 0 d.d_items.(i - 1);
              if not c.d_leaf then
                c.d_children <- insert_at c.d_children 0 sib.d_children.(sn);
              d.d_items.(i - 1) <- sib.d_items.(sn - 1);
              sib.d_items <- Array.sub sib.d_items 0 (sn - 1);
              if not sib.d_leaf then
                sib.d_children <- Array.sub sib.d_children 0 sn;
              d.d_children.(i - 1) <- b_materialize t bt sib;
              true
            end
          end
        in
        let borrow_right () =
          if i >= Array.length d.d_children - 1 then false
          else begin
            let sib = load_desc t d.d_children.(i + 1) in
            let sn = Array.length sib.d_items in
            if sn <= min_items then false
            else begin
              (* rotate left through the separator *)
              c.d_items <-
                insert_at c.d_items (Array.length c.d_items) d.d_items.(i);
              if not c.d_leaf then
                c.d_children <-
                  insert_at c.d_children (Array.length c.d_children)
                    sib.d_children.(0);
              d.d_items.(i) <- sib.d_items.(0);
              sib.d_items <- Array.sub sib.d_items 1 (sn - 1);
              if not sib.d_leaf then sib.d_children <- remove_at sib.d_children 0;
              d.d_children.(i + 1) <- b_materialize t bt sib;
              true
            end
          end
        in
        if borrow_left () then (c, i, true)
        else if borrow_right () then (c, i, true)
        else if i > 0 then begin
          let sib = load_desc t d.d_children.(i - 1) in
          let merged = merge_descs t bt sib d.d_items.(i - 1) c in
          d.d_items <- remove_at d.d_items (i - 1);
          d.d_children <- remove_at d.d_children i;
          (merged, i - 1, true)
        end
        else begin
          let sib = load_desc t d.d_children.(1) in
          let merged = merge_descs t bt c d.d_items.(0) sib in
          d.d_items <- remove_at d.d_items 0;
          d.d_children <- remove_at d.d_children 1;
          (merged, 0, true)
        end
      end
    in
    let v, cdirty = b_rem t bt target key in
    if cdirty || fixed then begin
      d.d_children.(ti) <- b_materialize t bt target;
      (v, true)
    end
    else (v, false)
  end

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)
(* ------------------------------------------------------------------ *)

let root_of t bt = Pool.batch_load_oid (pool t) bt ~off:t.map_oid.Oid.off

let put t bt ~key ~value =
  let p = pool t in
  let slot = t.map_oid.Oid.off in
  let root = root_of t bt in
  if Oid.is_null root then begin
    let leaf =
      { src = Oid.null; d_leaf = true;
        d_items = [| b_mk_item t bt ~key ~value |]; d_children = [||] }
    in
    Pool.batch_stage_oid p bt ~off:slot ~prev:root (b_materialize t bt leaf)
  end
  else
    match b_ins t bt root ~key ~value with
    | Fit r -> Pool.batch_stage_oid p bt ~off:slot ~prev:root r
    | Split (l, sep, r) ->
      let nroot =
        { src = Oid.null; d_leaf = false;
          d_items = [| sep |]; d_children = [| l; r |] }
      in
      Pool.batch_stage_oid p bt ~off:slot ~prev:root
        (b_materialize t bt nroot)

let remove t bt key =
  let p = pool t in
  let slot = t.map_oid.Oid.off in
  let root = root_of t bt in
  if Oid.is_null root then false
  else begin
    let d = load_desc t root in
    let removed, dirty = b_rem t bt d key in
    (* Stage whenever the tree changed — descending past a minimal
       child pre-balances (freeing the borrowed-from or merged
       nodes) even when the key then turns out to be absent, and
       that restructure must reach the root slot or the committed
       tree keeps pointing at freed nodes. *)
    if dirty then begin
      if Array.length d.d_items = 0 then begin
        (* root shrink: an emptied leaf root leaves an empty tree,
           an emptied internal root hands over to its lone child *)
        let next = if d.d_leaf then Oid.null else d.d_children.(0) in
        Pool.batch_free p bt d.src;
        Pool.batch_stage_oid p bt ~off:slot ~prev:root next
      end
      else
        Pool.batch_stage_oid p bt ~off:slot ~prev:root (b_materialize t bt d)
    end;
    removed <> None
  end

let exec t bt : Engine.batch_op -> Engine.batch_reply = function
  | B_put { key; value } -> put t bt ~key ~value; R_put
  | B_get key ->
    let root = root_of t bt in
    R_get (if Oid.is_null root then None else find t root key)
  | B_remove key -> R_removed (remove t bt key)
  | B_scan { lo; hi; limit } ->
    R_scan (collect_range t (root_of t bt) ~lo ~hi ~limit)

let count_all t bt =
  let root = root_of t bt in
  if Oid.is_null root then 0 else count_node t root
