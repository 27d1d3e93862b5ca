(* The access layer: one "compiled binary" per benchmarking variant
   (paper Table I).

   A workload written against this record is the analogue of an
   application compiled once per variant: selecting the variant decides
   which pointer representation pmemobj_direct returns, what pointer
   arithmetic does, and what happens on every load, store, and memory
   intrinsic —

     Pmdk      native PMDK, raw pointers, unchecked accesses;
     Spp       tagged pointers + SPP runtime hooks (checked implicitly);
     Safepm    raw pointers + shadow-memory lookup on every access;
     Memcheck  raw pointers + side-table interval lookup on every access.

   PM management always goes through the (mode-matched) mini-PMDK pool
   underneath, so crash consistency is identical across variants; the
   pool pads SafePM's allocations with redzones and reports every
   block's lifetime to the checkers. *)

open Spp_sim
open Spp_core
open Spp_pmdk

type variant =
  | Pmdk
  | Spp
  | Safepm
  | Memcheck
  | Spp_all
    (* SPP generalized to volatile pointers too (paper §VII): volatile
       allocations are mapped into the taggable low address span and
       carry delta tags, at the cost of instrumenting all memory *)

let variant_name = function
  | Pmdk -> "pmdk"
  | Spp -> "spp"
  | Safepm -> "safepm"
  | Memcheck -> "memcheck"
  | Spp_all -> "spp-all"

let all_variants = [ Pmdk; Safepm; Spp; Memcheck ]
(* Spp_all is the §VII extension, not part of the paper's Table I *)

type t = {
  name : string;
  variant : variant;
  space : Space.t;
  pool : Pool.t;
  (* pointer life cycle *)
  direct : Oid.t -> int;
  gep : int -> int -> int;
  ptr_to_int : int -> int;
  for_external : int -> int;
  (* accesses *)
  load_word : int -> int;
  store_word : int -> int -> unit;
  load_u8 : int -> int;
  store_u8 : int -> int -> unit;
  read_bytes : int -> int -> Bytes.t;
  read_into : int -> len:int -> dst:Bytes.t -> dst_off:int -> unit;
  read_sub : int -> int -> string;
  write_bytes : int -> Bytes.t -> unit;
  write_string : int -> string -> unit;
  (* hoisted-check read window: the variant's whole-range check, the
     translation and the media check all paid at acquisition; reads
     through the view are raw *)
  view : int -> int -> Space.view;
  (* the variant's check of a whole range, returning the address to
     store it at; reads none of the range's bytes *)
  check_range : int -> int -> int;
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
  (* volatile heap (libc malloc analogue) *)
  valloc : int -> int;
  vfree : int -> unit;
  (* PMEMoid slots accessed through application pointers *)
  load_oid_at : int -> Oid.t;
  store_oid_at : int -> Oid.t -> unit;
  oid_size : int;
}

(* --- Native PMDK ------------------------------------------------------- *)

let make_pmdk ~space ~pool ~vheap ~name =
  {
    name;
    variant = Pmdk;
    space;
    pool;
    valloc = (fun size -> Vheap.malloc vheap size);
    vfree = (fun ptr -> Vheap.free vheap ptr);
    direct = Pool.direct pool;
    gep = ( + );
    ptr_to_int = Fun.id;
    for_external = Fun.id;
    load_word = Space.load_word space;
    store_word = Space.store_word space;
    load_u8 = Space.load_u8 space;
    store_u8 = Space.store_u8 space;
    read_bytes = Space.read_bytes space;
    read_into = Space.read_into space;
    read_sub = Space.read_sub space;
    write_bytes = Space.write_bytes space;
    write_string = Space.write_string space;
    view = Space.read_view space;
    check_range = (fun p _ -> p);
    memcpy = (fun ~dst ~src ~len -> Space.blit space ~src ~dst ~len);
    memmove = (fun ~dst ~src ~len -> Space.blit space ~src ~dst ~len);
    memset = (fun p c len -> Space.fill space p len c);
    strcpy =
      (fun ~dst ~src ->
        let n = Space.strlen space src + 1 in
        Space.blit space ~src ~dst ~len:n);
    strlen = Space.strlen space;
    strcmp = Space.strcmp space;
    palloc = (fun ?zero ?dest size -> Pool.alloc ?zero ?dest pool ~size);
    pfree = (fun ?dest oid -> Pool.free_ ?dest pool oid);
    prealloc = (fun oid size -> Pool.realloc pool oid ~size);
    tx_palloc = (fun ?zero size -> Pool.tx_alloc ?zero pool ~size);
    tx_pfree = (fun oid -> Pool.tx_free pool oid);
    root = (fun size -> Pool.root pool ~size);
    load_oid_at = (fun ptr -> Pool.load_oid pool ~off:(Pool.off_of_addr pool ptr));
    store_oid_at =
      (fun ptr oid -> Pool.store_oid pool ~off:(Pool.off_of_addr pool ptr) oid);
    oid_size = Pool.oid_stored_size pool;
  }

(* --- SPP ---------------------------------------------------------------- *)

let make_spp ?(variant = Spp) ?tag_volatile ~space ~pool ~cfg ~name () =
  let addr_mask = cfg.Config.addr_mask in
  let gep p o =
    if Runtime.spp_is_pm_ptr cfg p then begin
      let p' = Runtime.spp_updatetag_direct cfg p o in
      (p' land lnot addr_mask) lor ((p' + o) land addr_mask)
    end
    else p + o
  in
  let checked_ptr p width = Runtime.spp_checkbound cfg p width in
  let block_ptr p len = Runtime.spp_memintr_check cfg p len in
  {
    name;
    variant;
    space;
    pool;
    valloc =
      (fun size ->
        match tag_volatile with
        | Some vheap ->
          (* the §VII generalization: volatile allocations are tagged *)
          Spp_core.Encoding.mk_tagged cfg ~addr:(Vheap.malloc vheap size) ~size
        | None -> invalid_arg "Spp_access.valloc: no volatile heap attached");
    vfree =
      (fun ptr ->
        match tag_volatile with
        | Some vheap -> Vheap.free vheap (Spp_core.Encoding.clean_tag_external cfg ptr)
        | None -> invalid_arg "Spp_access.vfree: no volatile heap attached");
    direct = Pool.direct pool;   (* SPP-mode pool: returns tagged pointers *)
    gep;
    ptr_to_int = (fun p -> Runtime.spp_cleantag cfg p);
    for_external = (fun p -> Runtime.spp_cleantag_external cfg p);
    load_word = (fun p -> Space.load_word space (checked_ptr p 8));
    store_word = (fun p v -> Space.store_word space (checked_ptr p 8) v);
    load_u8 = (fun p -> Space.load_u8 space (checked_ptr p 1));
    store_u8 = (fun p v -> Space.store_u8 space (checked_ptr p 1) v);
    read_bytes = (fun p len -> Space.read_bytes space (block_ptr p len) len);
    read_into =
      (fun p ~len ~dst ~dst_off ->
        Space.read_into space (block_ptr p len) ~len ~dst ~dst_off);
    read_sub = (fun p len -> Space.read_sub space (block_ptr p len) len);
    write_bytes =
      (fun p b -> Space.write_bytes space (block_ptr p (Bytes.length b)) b);
    write_string =
      (fun p s -> Space.write_string space (block_ptr p (String.length s)) s);
    view =
      (fun p len ->
        (* The SPP bound check hoisted to acquisition: one
           [spp_memintr_check] masks the tag and validates the furthest
           byte of the window — jhc-style single-mask dispatch — and the
           view is opened on the untagged address, so reads through it
           never decode the tag again. *)
        Space.read_view space (block_ptr p len) len);
    check_range = block_ptr;
    memcpy = (fun ~dst ~src ~len -> Wrappers.wrap_memcpy cfg space ~dst ~src ~len);
    memmove =
      (fun ~dst ~src ~len -> Wrappers.wrap_memmove cfg space ~dst ~src ~len);
    memset = (fun p c len -> Wrappers.wrap_memset cfg space ~dst:p ~c ~len);
    strcpy = (fun ~dst ~src -> Wrappers.wrap_strcpy cfg space ~dst ~src);
    strlen = (fun p -> Wrappers.wrap_strlen cfg space p);
    strcmp = (fun a b -> Wrappers.wrap_strcmp cfg space a b);
    palloc = (fun ?zero ?dest size -> Pool.alloc ?zero ?dest pool ~size);
    pfree = (fun ?dest oid -> Pool.free_ ?dest pool oid);
    prealloc = (fun oid size -> Pool.realloc pool oid ~size);
    tx_palloc = (fun ?zero size -> Pool.tx_alloc ?zero pool ~size);
    tx_pfree = (fun oid -> Pool.tx_free pool oid);
    root = (fun size -> Pool.root pool ~size);
    load_oid_at =
      (fun ptr ->
        let addr = checked_ptr ptr (Mode.oid_stored_size (Pool.mode pool)) in
        Pool.load_oid pool ~off:(Pool.off_of_addr pool addr));
    store_oid_at =
      (fun ptr oid ->
        let addr = checked_ptr ptr (Mode.oid_stored_size (Pool.mode pool)) in
        Pool.store_oid pool ~off:(Pool.off_of_addr pool addr) oid);
    oid_size = Pool.oid_stored_size pool;
  }

(* --- SafePM and memcheck ------------------------------------------------ *)

(* Native PMDK with every access validated first by [check addr len]: a
   shadow lookup (SafePM) or an interval lookup (memcheck). The pool
   reports each block's lifetime to the checker, so PM management stays
   PMDK's. Each accessor calls [check], then its [Space] accessor, so a
   checked access allocates no more than Pmdk's. *)
let make_checked ~variant ~check (pmdk : t) =
  let space = pmdk.space in
  let load_u8 p = check p 1; Space.load_u8 space p in
  let blit ~dst ~src ~len =
    check src len;
    check dst len;
    Space.blit space ~src ~dst ~len
  in
  {
    pmdk with
    variant;
    load_word = (fun p -> check p 8; Space.load_word space p);
    store_word = (fun p v -> check p 8; Space.store_word space p v);
    load_u8;
    store_u8 = (fun p v -> check p 1; Space.store_u8 space p v);
    read_bytes = (fun p len -> check p len; Space.read_bytes space p len);
    read_into =
      (fun p ~len ~dst ~dst_off ->
        check p len;
        Space.read_into space p ~len ~dst ~dst_off);
    read_sub = (fun p len -> check p len; Space.read_sub space p len);
    write_bytes =
      (fun p b -> check p (Bytes.length b); Space.write_bytes space p b);
    write_string =
      (fun p s -> check p (String.length s); Space.write_string space p s);
    (* one lookup at acquisition covers the whole window *)
    view = (fun p len -> check p len; Space.read_view space p len);
    check_range = (fun p len -> check p len; p);
    memcpy = blit;
    memmove = blit;
    memset = (fun p c len -> check p len; Space.fill space p len c);
    strcpy =
      (fun ~dst ~src -> blit ~dst ~src ~len:(Space.strlen space src + 1));
    strcmp =
      (fun a b ->
        let rec go i =
          let ca = load_u8 (a + i) and cb = load_u8 (b + i) in
          if ca <> cb then compare ca cb else if ca = 0 then 0 else go (i + 1)
        in
        go 0);
    load_oid_at =
      (fun ptr -> check ptr pmdk.oid_size; pmdk.load_oid_at ptr);
    store_oid_at =
      (fun ptr oid -> check ptr pmdk.oid_size; pmdk.store_oid_at ptr oid);
  }

(* --- Construction -------------------------------------------------------- *)

let default_pool_base = 4096

let vheap_size = 1 lsl 20

let create ?(tag_bits = 26) ~pool_size ~name variant =
  let space = Space.create () in
  let pool ?redzone mode =
    Pool.create ?redzone space ~base:default_pool_base ~size:pool_size ~mode
      ~name
  in
  match variant with
  | Pmdk ->
    let pool = pool Mode.Native in
    let vheap = Vheap.create space vheap_size in
    make_pmdk ~space ~pool ~vheap ~name
  | Spp ->
    let cfg = Config.make ~tag_bits in
    make_spp ~space ~pool:(pool (Mode.Spp cfg)) ~cfg ~name ()
  | Spp_all ->
    let cfg = Config.make ~tag_bits in
    let pool = pool (Mode.Spp cfg) in
    (* the volatile heap must live inside the taggable address span *)
    let vbase = default_pool_base + pool_size + 4096 in
    if vbase + vheap_size > Config.max_pool_span cfg then
      invalid_arg "Spp_access.create: volatile heap exceeds the tag span";
    let vheap = Vheap.create ~base:vbase space vheap_size in
    make_spp ~variant:Spp_all ~tag_volatile:vheap ~space ~pool ~cfg ~name ()
  | Safepm ->
    let pool = pool ~redzone:Spp_safepm.redzone Mode.Native in
    let shadow = Spp_safepm.attach_fresh pool in
    make_checked ~variant ~check:(Spp_safepm.check shadow)
      (make_pmdk ~space ~pool ~vheap:(Vheap.create space vheap_size) ~name)
  | Memcheck ->
    let pool = pool Mode.Native in
    let table = Spp_memcheck.attach pool in
    make_checked ~variant ~check:(Spp_memcheck.check table)
      (make_pmdk ~space ~pool ~vheap:(Vheap.create space vheap_size) ~name)

(* Re-attach to an already-open pool — the "process restart" half of the
   crash-recovery story: [Pool.open_dev] brings the pool back, [attach]
   rebuilds the compiled-binary view over it. The variant is derived from
   the pool's durable mode word: an SPP pool reopens with tagged pointers
   and checked accesses, a native pool with raw PMDK semantics. That
   includes a SafePM or memcheck pool: its header's redzone still maps
   every oid to its block, but the checkers' observers are volatile and
   do not come back, so its accesses go unchecked. *)

let attach space pool =
  let name = "reattached" in
  match Pool.mode pool with
  | Mode.Spp cfg -> make_spp ~space ~pool ~cfg ~name ()
  | Mode.Native ->
    (* a fresh volatile heap, mapped high where pools never live *)
    make_pmdk ~space ~pool ~vheap:(Vheap.create space (1 lsl 16)) ~name

(* --- Violation handling --------------------------------------------------- *)

type outcome =
  | Ok_completed
  | Prevented of string

let run_guarded (f : unit -> unit) =
  match f () with
  | () -> Ok_completed
  | exception Fault.Fault (k, addr) ->
    Prevented (Printf.sprintf "%s at 0x%x" (Fault.kind_to_string k) addr)
  | exception Space.Out_of_window { addr; window; off; len } ->
    Prevented
      (Printf.sprintf
         "window fault: access (+%d, %d bytes) outside [0x%x, +%d)" off len
         addr window)
  | exception Spp_safepm.Violation { addr; len; kind } ->
    Prevented (Printf.sprintf "SafePM %s (%d bytes at 0x%x)" kind len addr)
  | exception Spp_memcheck.Violation { addr; len } ->
    Prevented (Printf.sprintf "memcheck invalid access (%d bytes at 0x%x)" len addr)
