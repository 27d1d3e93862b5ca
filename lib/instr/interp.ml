(* Interpreter for the miniature IR: executes (instrumented or plain)
   programs against the simulated machine, with hook-execution counters
   so instrumentation cost and the effect of each optimization are
   measurable (the ablation experiment). *)

open Spp_sim
open Spp_pmdk
open Ir

type machine = {
  space : Space.t;
  pool : Pool.t;
  vheap : Vheap.t;
  cfg : Spp_core.Config.t option;    (* Some in SPP mode *)
  objs : (int, Oid.t) Hashtbl.t;     (* Pm_alloc names *)
  mutable hook_execs : int;
  mutable loads : int;
  mutable stores : int;
  mutable external_calls : int;
}

let make_machine ?(spp = true) ?(pool_size = 1 lsl 20) () =
  let space = Space.create () in
  let mode, cfg =
    if spp then begin
      let c = Spp_core.Config.make ~tag_bits:26 in
      (Mode.Spp c, Some c)
    end
    else (Mode.Native, None)
  in
  let pool = Pool.create space ~base:4096 ~size:pool_size ~mode ~name:"ir" in
  let vheap = Vheap.create space (1 lsl 20) in
  { space; pool; vheap; cfg; objs = Hashtbl.create 16;
    hook_execs = 0; loads = 0; stores = 0; external_calls = 0 }

let cfg_exn m =
  match m.cfg with
  | Some c -> c
  | None -> failwith "Interp: hook executed on a non-SPP machine"

let load_width m addr = function
  | 1 -> Space.load_u8 m.space addr
  | 8 -> Space.load_word m.space addr
  | w -> invalid_arg (Printf.sprintf "Interp: unsupported width %d" w)

let store_width m addr v = function
  | 1 -> Space.store_u8 m.space addr v
  | 8 -> Space.store_word m.space addr v
  | w -> invalid_arg (Printf.sprintf "Interp: unsupported width %d" w)

(* The "external library": uninstrumented code that dereferences its
   pointer arguments directly. If the caller failed to mask a tagged
   pointer, this is where it blows up. *)
let external_stub m args regs =
  m.external_calls <- m.external_calls + 1;
  List.iter (fun r -> ignore (Space.load_u8 m.space regs.(r))) args

let run_program m (p : program) =
  let rec run_func (f : func) (args : int list) =
    let regs = Array.make (max f.nregs 256) 0 in
    List.iteri
      (fun i param ->
        regs.(param) <- (match List.nth_opt args i with Some v -> v | None -> 0))
      f.params;
    let rec exec body = List.iter exec1 body
    and exec1 = function
      | Const { dst; value } -> regs.(dst) <- value
      | Vheap_alloc { dst; size } -> regs.(dst) <- Vheap.malloc m.vheap size
      | Pm_alloc { obj; size } ->
        Hashtbl.replace m.objs obj (Pool.alloc m.pool ~size)
      | Pm_direct { dst; obj } ->
        (match Hashtbl.find_opt m.objs obj with
         | Some oid -> regs.(dst) <- Pool.direct m.pool oid
         | None -> invalid_arg (Printf.sprintf "Interp: no PM object %d" obj))
      | Gep { dst; src; off } -> regs.(dst) <- regs.(src) + off
      | Load { dst; ptr; width } ->
        m.loads <- m.loads + 1;
        regs.(dst) <- load_width m regs.(ptr) width
      | Store { ptr; value; width } ->
        m.stores <- m.stores + 1;
        store_width m regs.(ptr) regs.(value) width
      | Add { dst; a; b } -> regs.(dst) <- regs.(a) + regs.(b)
      | Ptr_to_int { dst; src } -> regs.(dst) <- regs.(src)
      | Int_to_ptr { dst; src } -> regs.(dst) <- regs.(src)
      | Call { fn; args } -> run_func (find_func p fn) (List.map (fun r -> regs.(r)) args)
      | Call_external { args } -> external_stub m args regs
      | Loop { count; body } ->
        for _ = 1 to count do exec body done
      | Hook_update { ptr; off; direct } ->
        m.hook_execs <- m.hook_execs + 1;
        let c = cfg_exn m in
        regs.(ptr) <-
          (if direct then Spp_core.Runtime.spp_updatetag_direct c regs.(ptr) off
           else Spp_core.Runtime.spp_updatetag c regs.(ptr) off)
      | Hook_check { dst; ptr; width; direct } ->
        m.hook_execs <- m.hook_execs + 1;
        let c = cfg_exn m in
        regs.(dst) <-
          (if direct then Spp_core.Runtime.spp_checkbound_direct c regs.(ptr) width
           else Spp_core.Runtime.spp_checkbound c regs.(ptr) width)
      | Hook_clean { dst; ptr; direct } ->
        m.hook_execs <- m.hook_execs + 1;
        let c = cfg_exn m in
        regs.(dst) <-
          (if direct then Spp_core.Runtime.spp_cleantag_direct c regs.(ptr)
           else Spp_core.Runtime.spp_cleantag c regs.(ptr))
      | Hook_clean_external { ptr } ->
        m.hook_execs <- m.hook_execs + 1;
        regs.(ptr) <- Spp_core.Runtime.spp_cleantag_external (cfg_exn m) regs.(ptr)
      | Dummy_load { ptr } ->
        m.loads <- m.loads + 1;
        ignore (Space.load_u8 m.space regs.(ptr))
    in
    exec f.body
  in
  run_func (find_func p p.main) []
