(* btree — order-8 B-tree (PMDK's btree_map example), including a faithful
   reproduction of the upstream buffer-overflow bug the paper detects with
   SPP (§VI-D, pmdk issue #5333): a remove-path memmove that shifts one
   item too many, reading past the end of the node object when the node
   is full.

   Node layout (items deliberately last, so the overflowing memmove
   crosses the object's upper bound):

     [ n | leaf flag | ORDER child oids | (ORDER-1) items ]

   item = [ key | value ]  (16 B)

   Construct with [~buggy:true] to get the vulnerable remove path. *)

open Spp_pmdk
open Map_intf

type t = {
  a : Spp_access.t;
  map_oid : Oid.t;   (* root oid slot *)
  buggy : bool;
}

let name = "btree"

let order = 8                   (* max children *)
let max_items = order - 1
let min_items = (order / 2) - 1

let item_size = 16

let f_n = 0
let f_leaf = 8
let f_children = 16
let items_off (a : Spp_access.t) = 16 + (order * a.Spp_access.oid_size)
let node_size (a : Spp_access.t) = items_off a + (max_items * item_size)

let create ?(buggy = false) a =
  let map_oid =
    with_tx a (fun () ->
      a.Spp_access.tx_palloc ~zero:true (a.Spp_access.oid_size))
  in
  { a; map_oid; buggy }

let attach a ~root =
  if Pool.alloc_size a.Spp_access.pool root < a.Spp_access.oid_size then
    invalid_arg "Btree_map.attach: root slot too small";
  { a; map_oid = root; buggy = false }

let map_oid t = t.map_oid

let root_slot_ptr t = t.a.Spp_access.direct t.map_oid

let n_of t p = t.a.Spp_access.load_word (t.a.Spp_access.gep p f_n)
let set_n t p n = t.a.Spp_access.store_word (t.a.Spp_access.gep p f_n) n
let is_leaf t p = t.a.Spp_access.load_word (t.a.Spp_access.gep p f_leaf) = 1
let set_leaf t p v =
  t.a.Spp_access.store_word (t.a.Spp_access.gep p f_leaf) (if v then 1 else 0)

let item_ptr t p i = t.a.Spp_access.gep p (items_off t.a + (i * item_size))
let item_key t p i = t.a.Spp_access.load_word (item_ptr t p i)
let item_value t p i =
  t.a.Spp_access.load_word (t.a.Spp_access.gep (item_ptr t p i) 8)

let set_item t p i ~key ~value =
  t.a.Spp_access.store_word (item_ptr t p i) key;
  t.a.Spp_access.store_word (t.a.Spp_access.gep (item_ptr t p i) 8) value

let child_slot t p i =
  t.a.Spp_access.gep p (f_children + (i * t.a.Spp_access.oid_size))

let child t p i = t.a.Spp_access.load_oid_at (child_slot t p i)
let set_child t p i c = t.a.Spp_access.store_oid_at (child_slot t p i) c

let mk_node t ~leaf =
  let oid = t.a.Spp_access.tx_palloc ~zero:true (node_size t.a) in
  let p = t.a.Spp_access.direct oid in
  set_leaf t p leaf;
  oid

let snap_node t oid = tx_add_oid t.a oid

(* Shift items [i..n) one slot right via the interposed memmove (this is
   how the C code does it). *)
let shift_items_right t p i n =
  if n > i then
    t.a.Spp_access.memmove
      ~dst:(item_ptr t p (i + 1)) ~src:(item_ptr t p i)
      ~len:((n - i) * item_size)

(* Shift items left to delete slot i out of n items. The correct count is
   n - i - 1; the buggy variant (pmdk#5333) moves n - i items, reading one
   item past the array — past the node object when the node is full. *)
let shift_items_left t p i n =
  let count = if t.buggy then n - i else n - i - 1 in
  if count > 0 then
    t.a.Spp_access.memmove
      ~dst:(item_ptr t p i) ~src:(item_ptr t p (i + 1))
      ~len:(count * item_size)

let shift_children_right t p i n =
  if n > i then
    t.a.Spp_access.memmove
      ~dst:(child_slot t p (i + 1)) ~src:(child_slot t p i)
      ~len:((n - i) * t.a.Spp_access.oid_size)

let shift_children_left t p i n =
  if n > i then
    t.a.Spp_access.memmove
      ~dst:(child_slot t p i) ~src:(child_slot t p (i + 1))
      ~len:((n - i) * t.a.Spp_access.oid_size)

(* Search within a node: index of the first item with key >= k. *)
let search_node t p k n =
  let rec go i = if i < n && item_key t p i < k then go (i + 1) else i in
  go 0

let get t key =
  let a = t.a in
  let rec go oid =
    if Oid.is_null oid then None
    else begin
      let p = a.Spp_access.direct oid in
      let n = n_of t p in
      let i = search_node t p key n in
      if i < n && item_key t p i = key then Some (item_value t p i)
      else if is_leaf t p then None
      else go (child t p i)
    end
  in
  go (a.Spp_access.load_oid_at (root_slot_ptr t))

(* Split child [ci] of node [pp] (which must have room). *)
let split_child t poid ci =
  let a = t.a in
  let pp = a.Spp_access.direct poid in
  let coid = child t pp ci in
  let cp = a.Spp_access.direct coid in
  snap_node t poid;
  snap_node t coid;
  let right = mk_node t ~leaf:(is_leaf t cp) in
  let rp = a.Spp_access.direct right in
  let mid = max_items / 2 in
  (* move items [mid+1 .. max) of c to right *)
  for i = mid + 1 to max_items - 1 do
    set_item t rp (i - mid - 1)
      ~key:(item_key t cp i) ~value:(item_value t cp i)
  done;
  if not (is_leaf t cp) then
    for i = mid + 1 to order - 1 do
      set_child t rp (i - mid - 1) (child t cp i)
    done;
  set_n t rp (max_items - mid - 1);
  set_n t cp mid;
  (* insert separator into parent *)
  let pn = n_of t pp in
  let sep_key = item_key t cp mid and sep_val = item_value t cp mid in
  let pos = search_node t pp sep_key pn in
  shift_items_right t pp pos pn;
  (* a node with pn items has pn+1 children *)
  shift_children_right t pp (pos + 1) (pn + 1);
  set_item t pp pos ~key:sep_key ~value:sep_val;
  set_child t pp (pos + 1) right;
  set_n t pp (pn + 1)

let rec insert_nonfull t oid ~key ~value =
  let a = t.a in
  let p = a.Spp_access.direct oid in
  let n = n_of t p in
  let i = search_node t p key n in
  if i < n && item_key t p i = key then begin
    snap_node t oid;
    set_item t p i ~key ~value
  end
  else if is_leaf t p then begin
    snap_node t oid;
    shift_items_right t p i n;
    set_item t p i ~key ~value;
    set_n t p (n + 1)
  end
  else begin
    let coid = child t p i in
    let cp = a.Spp_access.direct coid in
    if n_of t cp = max_items then begin
      split_child t oid i;
      (* re-read: the separator moved up *)
      insert_nonfull t oid ~key ~value
    end
    else insert_nonfull t coid ~key ~value
  end

let insert t ~key ~value =
  let a = t.a in
  with_tx a (fun () ->
    let root_ptr = root_slot_ptr t in
    let root = a.Spp_access.load_oid_at root_ptr in
    if Oid.is_null root then begin
      let fresh = mk_node t ~leaf:true in
      let p = a.Spp_access.direct fresh in
      set_item t p 0 ~key ~value;
      set_n t p 1;
      tx_add a root_ptr a.Spp_access.oid_size;
      a.Spp_access.store_oid_at root_ptr fresh
    end
    else begin
      let rp = a.Spp_access.direct root in
      let root =
        if n_of t rp = max_items then begin
          let fresh = mk_node t ~leaf:false in
          let fp = a.Spp_access.direct fresh in
          set_child t fp 0 root;
          tx_add a root_ptr a.Spp_access.oid_size;
          a.Spp_access.store_oid_at root_ptr fresh;
          split_child t fresh 0;
          fresh
        end else root
      in
      insert_nonfull t root ~key ~value
    end)

(* Removal, CLRS B-tree delete. All node mutations snapshot first. *)

let rec max_item t oid =
  let p = t.a.Spp_access.direct oid in
  if is_leaf t p then
    let n = n_of t p in
    (item_key t p (n - 1), item_value t p (n - 1))
  else max_item t (child t p (n_of t p))

let rec min_item t oid =
  let p = t.a.Spp_access.direct oid in
  if is_leaf t p then (item_key t p 0, item_value t p 0)
  else min_item t (child t p 0)

(* Ensure child [ci] of [poid] has more than min_items before descending:
   borrow from a sibling or merge. Returns the oid to descend into. *)
let fix_child t poid ci =
  let a = t.a in
  let pp = a.Spp_access.direct poid in
  let coid = child t pp ci in
  let cp = a.Spp_access.direct coid in
  if n_of t cp > min_items then coid
  else begin
    let pn = n_of t pp in
    let left_sib = if ci > 0 then Some (child t pp (ci - 1)) else None in
    let right_sib = if ci < pn then Some (child t pp (ci + 1)) else None in
    let rich oid_opt =
      match oid_opt with
      | Some s when n_of t (a.Spp_access.direct s) > min_items -> true
      | _ -> false
    in
    if rich left_sib then begin
      (* rotate right: parent separator down, sibling max up *)
      let s = Option.get left_sib in
      let sp = a.Spp_access.direct s in
      snap_node t poid; snap_node t coid; snap_node t s;
      let sn = n_of t sp and cn = n_of t cp in
      shift_items_right t cp 0 cn;
      if not (is_leaf t cp) then shift_children_right t cp 0 (cn + 1);
      set_item t cp 0 ~key:(item_key t pp (ci - 1))
        ~value:(item_value t pp (ci - 1));
      if not (is_leaf t cp) then set_child t cp 0 (child t sp sn);
      set_n t cp (cn + 1);
      set_item t pp (ci - 1) ~key:(item_key t sp (sn - 1))
        ~value:(item_value t sp (sn - 1));
      set_n t sp (sn - 1);
      coid
    end
    else if rich right_sib then begin
      let s = Option.get right_sib in
      let sp = a.Spp_access.direct s in
      snap_node t poid; snap_node t coid; snap_node t s;
      let sn = n_of t sp and cn = n_of t cp in
      set_item t cp cn ~key:(item_key t pp ci) ~value:(item_value t pp ci);
      if not (is_leaf t cp) then set_child t cp (cn + 1) (child t sp 0);
      set_n t cp (cn + 1);
      set_item t pp ci ~key:(item_key t sp 0) ~value:(item_value t sp 0);
      shift_items_left t sp 0 sn;
      if not (is_leaf t sp) then shift_children_left t sp 0 sn;
      set_n t sp (sn - 1);
      coid
    end
    else begin
      (* merge with a sibling around the parent separator *)
      let li, left, right =
        match left_sib with
        | Some s -> (ci - 1, s, coid)
        | None -> (ci, coid, Option.get right_sib)
      in
      let lp = a.Spp_access.direct left and rp = a.Spp_access.direct right in
      snap_node t poid; snap_node t left; snap_node t right;
      let ln = n_of t lp and rn = n_of t rp in
      set_item t lp ln ~key:(item_key t pp li) ~value:(item_value t pp li);
      for i = 0 to rn - 1 do
        set_item t lp (ln + 1 + i) ~key:(item_key t rp i)
          ~value:(item_value t rp i)
      done;
      if not (is_leaf t lp) then
        for i = 0 to rn do
          set_child t lp (ln + 1 + i) (child t rp i)
        done;
      set_n t lp (ln + 1 + rn);
      shift_items_left t pp li pn;
      shift_children_left t pp (li + 1) pn;
      set_n t pp (pn - 1);
      a.Spp_access.tx_pfree right;
      left
    end
  end

let rec remove_from t oid key =
  let a = t.a in
  let p = a.Spp_access.direct oid in
  let n = n_of t p in
  let i = search_node t p key n in
  if is_leaf t p then begin
    if i < n && item_key t p i = key then begin
      let v = item_value t p i in
      snap_node t oid;
      shift_items_left t p i n;
      set_n t p (n - 1);
      Some v
    end else None
  end
  else if i < n && item_key t p i = key then begin
    let v = item_value t p i in
    let lc = child t p i in
    let rc = child t p (i + 1) in
    if n_of t (a.Spp_access.direct lc) > min_items then begin
      let pk, pv = max_item t lc in
      snap_node t oid;
      set_item t p i ~key:pk ~value:pv;
      ignore (remove_from t lc pk);
      Some v
    end
    else if n_of t (a.Spp_access.direct rc) > min_items then begin
      let sk, sv = min_item t rc in
      snap_node t oid;
      set_item t p i ~key:sk ~value:sv;
      ignore (remove_from t rc sk);
      Some v
    end
    else begin
      let merged = fix_child t oid (i + 1) in
      ignore merged;
      remove_from t oid key
    end
  end
  else begin
    let target = fix_child t oid i in
    (* indices may have shifted after borrowing/merging; re-descend from
       the parent to stay correct *)
    if Oid.equal target (child t p (search_node t p key (n_of t p))) then
      remove_from t target key
    else remove_from t oid key
  end

let remove t key =
  let a = t.a in
  let root_ptr = root_slot_ptr t in
  let root = a.Spp_access.load_oid_at root_ptr in
  if Oid.is_null root then None
  else
    with_tx a (fun () ->
      let v = remove_from t root key in
      (* shrink the root if it emptied *)
      let rp = a.Spp_access.direct root in
      if n_of t rp = 0 then begin
        tx_add a root_ptr a.Spp_access.oid_size;
        if is_leaf t rp then a.Spp_access.store_oid_at root_ptr Oid.null
        else a.Spp_access.store_oid_at root_ptr (child t rp 0);
        a.Spp_access.tx_pfree root
      end;
      v)

(* Ordered range [lo, hi], ascending: in-order traversal pruned at both
   ends. At each node, [search_node] skips straight to the first item
   >= lo; a subtree right of a separator > hi can only hold larger keys
   and is never entered. *)
let range t ~lo ~hi =
  let a = t.a in
  let acc = ref [] in
  let rec go oid =
    if not (Oid.is_null oid) then begin
      let p = a.Spp_access.direct oid in
      let n = n_of t p in
      let i0 = search_node t p lo n in
      if is_leaf t p then
        for i = i0 to n - 1 do
          let k = item_key t p i in
          if k <= hi then acc := (k, item_value t p i) :: !acc
        done
      else begin
        go (child t p i0);
        for i = i0 to n - 1 do
          let k = item_key t p i in
          if k <= hi then begin
            acc := (k, item_value t p i) :: !acc;
            go (child t p (i + 1))
          end
        done
      end
    end
  in
  go (a.Spp_access.load_oid_at (root_slot_ptr t));
  List.rev !acc
