(** A miniature pointer IR standing in for LLVM IR (paper §IV-C, §V-A).

    Programs manipulate virtual registers holding machine words. A GEP
    adds a constant to the full register value (moving the address field
    of a tagged pointer); the SPP transformation pass inserts the
    [Hook_*] instructions that maintain the tag and perform the implicit
    bound checks. *)

type reg = int

type inst =
  (* application instructions *)
  | Const of { dst : reg; value : int }
  | Vheap_alloc of { dst : reg; size : int }
  | Pm_alloc of { obj : int; size : int }
  | Pm_direct of { dst : reg; obj : int }   (** pmemobj_direct *)
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
  | Dummy_load of { ptr : reg }   (** preempted bound check *)

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

val find_func : program -> string -> func
val program_hooks : program -> int
