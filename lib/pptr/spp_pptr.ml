(* Typed persistent pointers — the libpmemobj-cpp analogue (paper §IV-B,
   "C++ support"). libpmemobj-cpp wraps PMEMoids in persistent_ptr<T>
   smart pointers; SPP adapts that base class so dereferencing goes
   through the modified pmemobj_direct transparently and the PMEMoid's
   size field is accounted for in persistent struct layouts.

   Here the same idea in OCaml: a phantom-typed ['s ptr] over an Oid, and
   declarative struct layouts whose field offsets are computed against
   the access layer's mode-dependent oid footprint. All dereferences run
   through the variant's (possibly SPP-instrumented) access functions, so
   typed code inherits the full protection, and layouts written once work
   on both native and SPP pools. *)

open Spp_pmdk

type 's ptr = { oid : Oid.t }

let null = { oid = Oid.null }
let is_null p = Oid.is_null p.oid
let equal a b = Oid.equal a.oid b.oid

(* Field descriptors: an offset plus typed load/store against the access
   layer. ['s] names the struct, ['v] the field value. *)

type ('s, 'v) field = {
  f_off : int;
  f_load : Spp_access.t -> int -> 'v;
  f_store : Spp_access.t -> int -> 'v -> unit;
  f_size : int;
}

(* Layout builder: fields are declared in order; offsets accumulate.
   Layouts are built per access layer because the PMEMoid footprint
   differs between native (16 B) and SPP (24 B) pools — exactly the
   sizeof-driven accounting the paper relies on for undo logging. *)

type 's layout = {
  l_access : Spp_access.t;
  mutable l_size : int;
  mutable l_sealed : bool;
}

let layout (a : Spp_access.t) = { l_access = a; l_size = 0; l_sealed = false }

let add (l : 's layout) ~size ~load ~store : ('s, 'v) field =
  if l.l_sealed then invalid_arg "Spp_pptr: layout already sealed";
  let f = { f_off = l.l_size; f_load = load; f_store = store; f_size = size } in
  l.l_size <- l.l_size + size;
  f

let word (l : 's layout) : ('s, int) field =
  add l ~size:8
    ~load:(fun a p -> a.Spp_access.load_word p)
    ~store:(fun a p v -> a.Spp_access.store_word p v)

let pptr (l : 's layout) : ('s, 'b ptr) field =
  add l ~size:l.l_access.Spp_access.oid_size
    ~load:(fun a p -> { oid = a.Spp_access.load_oid_at p })
    ~store:(fun a p v -> a.Spp_access.store_oid_at p v.oid)

let fixed_string (l : 's layout) ~len : ('s, string) field =
  add l ~size:len
    ~load:(fun a p ->
      let b = a.Spp_access.read_bytes p len in
      match Bytes.index_opt b '\000' with
      | Some i -> Bytes.sub_string b 0 i
      | None -> Bytes.to_string b)
    ~store:(fun a p v ->
      if String.length v >= len then
        invalid_arg "Spp_pptr.fixed_string: value too long";
      a.Spp_access.write_string p v;
      a.Spp_access.store_u8 (a.Spp_access.gep p (String.length v)) 0)

let seal (l : 's layout) =
  l.l_sealed <- true;
  l

let size_of (l : 's layout) = l.l_size

(* Allocation and access. *)

let alloc ?(zero = true) (l : 's layout) : 's ptr =
  if not l.l_sealed then invalid_arg "Spp_pptr.alloc: layout not sealed";
  { oid = l.l_access.Spp_access.palloc ~zero l.l_size }

let direct (l : 's layout) (p : 's ptr) =
  l.l_access.Spp_access.direct p.oid

let get (l : 's layout) (p : 's ptr) (f : ('s, 'v) field) : 'v =
  let a = l.l_access in
  f.f_load a (a.Spp_access.gep (direct l p) f.f_off)

let set (l : 's layout) (p : 's ptr) (f : ('s, 'v) field) (v : 'v) =
  let a = l.l_access in
  f.f_store a (a.Spp_access.gep (direct l p) f.f_off) v

(* Snapshot one field (or the whole struct) inside a transaction. *)

let tx_add_field (l : 's layout) (p : 's ptr) (f : ('s, 'v) field) =
  Pool.tx_add_range l.l_access.Spp_access.pool
    ~off:(p.oid.Oid.off + f.f_off) ~len:f.f_size

let with_tx (l : 's layout) f = Pool.with_tx l.l_access.Spp_access.pool f
