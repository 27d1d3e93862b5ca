(** The access layer: one "compiled binary" per benchmarking variant
    (paper Table I).

    A workload written against {!t} is the analogue of an application
    compiled once per variant: the variant decides which pointer
    representation {!field-direct} returns, what pointer arithmetic does,
    and what happens on every load, store and memory intrinsic.

    - {!Pmdk} — native PMDK: raw pointers, unchecked accesses;
    - {!Spp} — tagged pointers plus the SPP runtime hooks (implicit
      bounds checks through address invalidation);
    - {!Safepm} — raw pointers plus a persistent-shadow lookup per access;
    - {!Memcheck} — raw pointers plus a side-table interval lookup.

    PM management always goes through the mode-matched mini-PMDK pool, so
    crash consistency is identical across variants; the pool pads
    SafePM's allocations with redzones and reports every block's
    lifetime to the checkers. *)

open Spp_sim
open Spp_pmdk

type variant =
  | Pmdk
  | Spp
  | Safepm
  | Memcheck
  | Spp_all
    (** SPP generalized to volatile pointers too (paper §VII): volatile
        allocations are mapped into the taggable low address span and
        carry delta tags. Not part of the paper's Table I variants. *)

val variant_name : variant -> string

val all_variants : variant list
(** The paper's variants: [Pmdk; Safepm; Spp; Memcheck]. *)

type t = {
  name : string;
  variant : variant;
  space : Space.t;
  pool : Pool.t;
  (* pointer life cycle *)
  direct : Oid.t -> int;          (** pmemobj_direct *)
  gep : int -> int -> int;        (** pointer arithmetic *)
  ptr_to_int : int -> int;        (** pointer-to-integer conversion *)
  for_external : int -> int;      (** mask for an uninstrumented callee *)
  (* accesses *)
  load_word : int -> int;
  store_word : int -> int -> unit;
  load_u8 : int -> int;
  store_u8 : int -> int -> unit;
  read_bytes : int -> int -> Bytes.t;
  read_into : int -> len:int -> dst:Bytes.t -> dst_off:int -> unit;
  read_sub : int -> int -> string;   (** single-copy substring read *)
  write_bytes : int -> Bytes.t -> unit;
  write_string : int -> string -> unit;
  view : int -> int -> Space.view;
  (** Read window with the variant's pointer/bounds check hoisted to
      acquisition: the check, the translation and the media check are
      paid once for the whole window, and {!Space.view_word}-style reads
      through it are raw. Under {!Spp} this is a single
      [spp_memintr_check] — one masked tag decode — instead of one hook
      per access. *)
  check_range : int -> int -> int;
  (** [check_range p len] is the variant's check of the [len] bytes at
      [p], returning the address to store them at — one check for a
      whole range, as a memory intrinsic gets ([spp_memintr_check]
      under {!Spp}, a shadow or interval lookup under {!Safepm} and
      {!Memcheck}, the identity under {!Pmdk}). Unlike {!field-view},
      which counts its whole window as loaded, it reads none of the
      range's bytes: checking a range about to be written adds no PM
      load beyond SafePM's shadow lookup. *)
  (* interposed intrinsics *)
  memcpy : dst:int -> src:int -> len:int -> unit;
  memmove : dst:int -> src:int -> len:int -> unit;
  memset : int -> char -> int -> unit;
  strcpy : dst:int -> src:int -> unit;
  strlen : int -> int;
  strcmp : int -> int -> int;
  (* PM object management *)
  palloc : ?zero:bool -> ?dest:int -> int -> Oid.t;
  pfree : ?dest:int -> Oid.t -> unit;
  prealloc : Oid.t -> int -> Oid.t;
  tx_palloc : ?zero:bool -> int -> Oid.t;
  tx_pfree : Oid.t -> unit;
  root : int -> Oid.t;
  (* volatile heap (libc malloc analogue); tagged under {!Spp_all} *)
  valloc : int -> int;
  vfree : int -> unit;
  (* PMEMoid slots accessed through application pointers *)
  load_oid_at : int -> Oid.t;
  store_oid_at : int -> Oid.t -> unit;
  oid_size : int;   (** stored PMEMoid footprint: 16 native, 24 SPP *)
}

val default_pool_base : int

val create : ?tag_bits:int -> pool_size:int -> name:string -> variant -> t
(** Build a fresh machine (address space + pool at {!default_pool_base} +
    checker state) for the variant. [tag_bits] only affects {!Spp}
    (default 26). *)

val attach : Space.t -> Pool.t -> t
(** Rebuild the access layer over an already-open pool (after
    [Pool.open_dev] on a reopened image): SPP pools come back with
    tagged, checked accesses; native pools with raw PMDK semantics. A
    SafePM or memcheck pool comes back as a native one: its header's
    redzone still maps every oid to its block, but the checkers'
    observers are volatile, so its accesses go unchecked. *)

(** {1 Violation handling} *)

type outcome =
  | Ok_completed
  | Prevented of string

val run_guarded : (unit -> unit) -> outcome
(** Run a workload, mapping simulated faults, accesses outside a
    validated window ({!Space.Out_of_window}, how SPP's hoisted check
    stops an overrun) and checker violations to {!Prevented}. *)
