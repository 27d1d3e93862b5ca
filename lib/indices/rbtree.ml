(* rbtree — red-black tree with a sentinel nil node (PMDK's rbtree_map,
   which follows the classic CLRS algorithm).

   Node:  [ color | key | value | parent oid | left oid | right oid ]
          (24 B + 3 oids)
   Map:   [ nil oid | root oid ]

   The sentinel is a real PM node: like in CLRS, delete-fixup may
   temporarily write its parent field. Every node is snapshotted before
   mutation, so any crash rolls the whole operation back. *)

open Spp_pmdk
open Map_intf

type t = {
  a : Spp_access.t;
  map_oid : Oid.t;
  nil : Oid.t;
}

let name = "rbtree"

let red = 1
let black = 0

let f_color = 0
let f_key = 8
let f_value = 16
let f_parent = 24

let node_size (a : Spp_access.t) = 24 + (3 * a.Spp_access.oid_size)

let ptr t n = t.a.Spp_access.direct n

let color t n = t.a.Spp_access.load_word (t.a.Spp_access.gep (ptr t n) f_color)
let key_of t n = t.a.Spp_access.load_word (t.a.Spp_access.gep (ptr t n) f_key)
let value_of t n = t.a.Spp_access.load_word (t.a.Spp_access.gep (ptr t n) f_value)

let set_color t n c =
  t.a.Spp_access.store_word (t.a.Spp_access.gep (ptr t n) f_color) c

let set_key t n k =
  t.a.Spp_access.store_word (t.a.Spp_access.gep (ptr t n) f_key) k

let set_value t n v =
  t.a.Spp_access.store_word (t.a.Spp_access.gep (ptr t n) f_value) v

let parent t n =
  t.a.Spp_access.load_oid_at (t.a.Spp_access.gep (ptr t n) f_parent)

let set_parent t n p =
  t.a.Spp_access.store_oid_at (t.a.Spp_access.gep (ptr t n) f_parent) p

(* dir: 0 = left, 1 = right *)
let child_off t dir = 24 + ((1 + dir) * t.a.Spp_access.oid_size)

let child t n dir =
  t.a.Spp_access.load_oid_at (t.a.Spp_access.gep (ptr t n) (child_off t dir))

let set_child t n dir c =
  t.a.Spp_access.store_oid_at (t.a.Spp_access.gep (ptr t n) (child_off t dir)) c

let left t n = child t n 0
let right t n = child t n 1

let is_nil t n = Oid.equal n t.nil

let root_slot_ptr t =
  t.a.Spp_access.gep (t.a.Spp_access.direct t.map_oid) t.a.Spp_access.oid_size

let root t = t.a.Spp_access.load_oid_at (root_slot_ptr t)

let set_root t n =
  tx_add t.a (root_slot_ptr t) t.a.Spp_access.oid_size;
  t.a.Spp_access.store_oid_at (root_slot_ptr t) n

let snap t n = if not (Oid.is_null n) then tx_add_oid t.a n

let create a =
  with_tx a (fun () ->
    let map_oid =
      a.Spp_access.tx_palloc ~zero:true (2 * a.Spp_access.oid_size)
    in
    let nil = a.Spp_access.tx_palloc ~zero:true (node_size a) in
    let t = { a; map_oid; nil } in
    set_color t nil black;
    set_parent t nil nil;
    set_child t nil 0 nil;
    set_child t nil 1 nil;
    let mp = a.Spp_access.direct map_oid in
    a.Spp_access.store_oid_at mp nil;
    a.Spp_access.store_oid_at (a.Spp_access.gep mp a.Spp_access.oid_size) nil;
    t)

(* Rotation around [x] in direction [dir] (dir = 0 is a left-rotate). *)
let rotate t x dir =
  let y = child t x (1 - dir) in
  let p = parent t x in
  snap t x; snap t y; snap t p;
  let beta = child t y dir in
  set_child t x (1 - dir) beta;
  if not (is_nil t beta) then begin snap t beta; set_parent t beta x end;
  set_parent t y p;
  if is_nil t p then set_root t y
  else if Oid.equal x (child t p 0) then set_child t p 0 y
  else set_child t p 1 y;
  set_child t y dir x;
  set_parent t x y

let rec insert_fixup t z =
  let p = parent t z in
  if color t p = red then begin
    let g = parent t p in
    let pdir = if Oid.equal p (child t g 0) then 0 else 1 in
    let uncle = child t g (1 - pdir) in
    if color t uncle = red then begin
      snap t p; snap t uncle; snap t g;
      set_color t p black;
      set_color t uncle black;
      set_color t g red;
      insert_fixup t g
    end else begin
      let z =
        if Oid.equal z (child t p (1 - pdir)) then begin
          rotate t p pdir;
          p
        end else z
      in
      let p = parent t z in
      let g = parent t p in
      snap t p; snap t g;
      set_color t p black;
      set_color t g red;
      rotate t g (1 - pdir)
    end
  end

let fix_root_black t =
  let r = root t in
  if color t r = red then begin snap t r; set_color t r black end

let insert t ~key ~value =
  let a = t.a in
  (* find insertion parent outside the tx (reads only) *)
  let rec find y x =
    if is_nil t x then `Attach y
    else begin
      let k = key_of t x in
      if key = k then `Update x
      else find x (child t x (if key < k then 0 else 1))
    end
  in
  match find t.nil (root t) with
  | `Update x ->
    with_tx a (fun () ->
      tx_add a (a.Spp_access.gep (ptr t x) f_value) 8;
      set_value t x value)
  | `Attach y ->
    with_tx a (fun () ->
      let z = a.Spp_access.tx_palloc ~zero:true (node_size a) in
      set_key t z key;
      set_value t z value;
      set_color t z red;
      set_child t z 0 t.nil;
      set_child t z 1 t.nil;
      set_parent t z y;
      if is_nil t y then set_root t z
      else begin
        snap t y;
        set_child t y (if key < key_of t y then 0 else 1) z
      end;
      insert_fixup t z;
      fix_root_black t)

let rec find_node t x key =
  if is_nil t x then None
  else begin
    let k = key_of t x in
    if key = k then Some x
    else find_node t (child t x (if key < k then 0 else 1)) key
  end

let get t key =
  match find_node t (root t) key with
  | None -> None
  | Some n -> Some (value_of t n)

let rec minimum t x =
  let l = left t x in
  if is_nil t l then x else minimum t l

(* Replace subtree [u] with subtree [v] (CLRS RB-TRANSPLANT). *)
let transplant t u v =
  let p = parent t u in
  if is_nil t p then set_root t v
  else begin
    snap t p;
    if Oid.equal u (child t p 0) then set_child t p 0 v
    else set_child t p 1 v
  end;
  snap t v;
  set_parent t v p   (* valid even when v is the sentinel (CLRS) *)

let rec delete_fixup t x =
  if (not (Oid.equal x (root t))) && color t x = black then begin
    let p = parent t x in
    let dir = if Oid.equal x (child t p 0) then 0 else 1 in
    let w = child t p (1 - dir) in
    let w =
      if color t w = red then begin
        snap t w; snap t p;
        set_color t w black;
        set_color t p red;
        rotate t p dir;
        child t p (1 - dir)
      end else w
    in
    if color t (child t w 0) = black && color t (child t w 1) = black then begin
      snap t w;
      set_color t w red;
      delete_fixup t (parent t x)
    end else begin
      let w =
        if color t (child t w (1 - dir)) = black then begin
          let wc = child t w dir in
          snap t wc; snap t w;
          set_color t wc black;
          set_color t w red;
          rotate t w (1 - dir);
          child t (parent t x) (1 - dir)
        end else w
      in
      let p = parent t x in
      snap t w; snap t p;
      set_color t w (color t p);
      set_color t p black;
      let wc = child t w (1 - dir) in
      snap t wc;
      set_color t wc black;
      rotate t p dir
      (* x becomes the root; loop ends *)
    end
  end else begin
    if color t x = red || Oid.equal x (root t) then begin
      snap t x;
      set_color t x black
    end
  end

let remove t key =
  let a = t.a in
  match find_node t (root t) key with
  | None -> None
  | Some z ->
    let removed = value_of t z in
    with_tx a (fun () ->
      snap t z;
      let y_original_color = ref (color t z) in
      let x =
        if is_nil t (left t z) then begin
          let x = right t z in
          transplant t z x;
          x
        end
        else if is_nil t (right t z) then begin
          let x = left t z in
          transplant t z x;
          x
        end
        else begin
          let y = minimum t (right t z) in
          snap t y;
          y_original_color := color t y;
          let x = right t y in
          if Oid.equal (parent t y) z then begin
            snap t x;
            set_parent t x y
          end
          else begin
            transplant t y (right t y);
            let zr = right t z in
            set_child t y 1 zr;
            snap t zr;
            set_parent t zr y
          end;
          transplant t z y;
          let zl = left t z in
          set_child t y 0 zl;
          snap t zl;
          set_parent t zl y;
          set_color t y (color t z);
          x
        end
      in
      if !y_original_color = black then delete_fixup t x;
      fix_root_black t;
      a.Spp_access.tx_pfree z);
    Some removed

(* Structural invariants, used by the test suite. *)

type invariant_error =
  | Red_red of int
  | Black_height_mismatch
  | Bst_violation of int

let check_invariants t =
  let errors = ref [] in
  let rec go n lo hi =
    if is_nil t n then 1
    else begin
      let k = key_of t n in
      (match lo with Some l when k <= l -> errors := Bst_violation k :: !errors | _ -> ());
      (match hi with Some h when k >= h -> errors := Bst_violation k :: !errors | _ -> ());
      if color t n = red then begin
        if color t (left t n) = red || color t (right t n) = red then
          errors := Red_red k :: !errors
      end;
      let bl = go (left t n) lo (Some k) in
      let br = go (right t n) (Some k) hi in
      if bl <> br then errors := Black_height_mismatch :: !errors;
      bl + (if color t n = black then 1 else 0)
    end
  in
  let r = root t in
  ignore (go r None None);
  if (not (is_nil t r)) && color t r = red then
    errors := Red_red (key_of t r) :: !errors;
  !errors
