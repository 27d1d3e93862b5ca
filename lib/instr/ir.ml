(* A miniature pointer IR standing in for LLVM IR (paper §IV-C, §V-A).

   Programs manipulate virtual registers holding machine words (pointers
   or data). A GEP adds a constant to the full register value (moving the
   address field of a tagged pointer), exactly like LLVM pointer
   arithmetic on a Delta-pointer; the SPP transformation pass inserts the
   hook instructions that maintain the tag. Uninstrumented loads and
   stores dereference the raw register value. *)

type reg = int

type inst =
  (* application instructions *)
  | Const of { dst : reg; value : int }
  | Vheap_alloc of { dst : reg; size : int }
  | Pm_alloc of { obj : int; size : int }       (* names a PM object *)
  | Pm_direct of { dst : reg; obj : int }       (* pmemobj_direct *)
  | Gep of { dst : reg; src : reg; off : int }
  | Load of { dst : reg; ptr : reg; width : int }
  | Store of { ptr : reg; value : reg; width : int }
  | Add of { dst : reg; a : reg; b : reg }
  | Ptr_to_int of { dst : reg; src : reg }
  | Int_to_ptr of { dst : reg; src : reg }
  | Call of { fn : string; args : reg list }
  | Call_external of { args : reg list }
  | Loop of { count : int; body : inst list }
  (* SPP hook instructions, inserted by the passes *)
  | Hook_update of { ptr : reg; off : int; direct : bool }
  | Hook_check of { dst : reg; ptr : reg; width : int; direct : bool }
  | Hook_clean of { dst : reg; ptr : reg; direct : bool }
  | Hook_clean_external of { ptr : reg }
  | Dummy_load of { ptr : reg }                 (* preempted bound check *)

type func = {
  fname : string;
  params : reg list;
  nregs : int;
  body : inst list;
}

type program = {
  funcs : func list;
  main : string;
}

let find_func p name =
  match List.find_opt (fun f -> f.fname = name) p.funcs with
  | Some f -> f
  | None -> invalid_arg ("Ir.find_func: no function " ^ name)

let rec count_hooks body =
  List.fold_left
    (fun acc i ->
      acc
      + (match i with
         | Hook_update _ | Hook_check _ | Hook_clean _ | Hook_clean_external _
         | Dummy_load _ -> 1
         | Loop { body; _ } -> count_hooks body
         | Const _ | Vheap_alloc _ | Pm_alloc _ | Pm_direct _ | Gep _
         | Load _ | Store _ | Add _ | Ptr_to_int _ | Int_to_ptr _ | Call _
         | Call_external _ -> 0))
    0 body

let program_hooks p =
  List.fold_left (fun acc f -> acc + count_hooks f.body) 0 p.funcs
