(** Interpreter for the miniature IR: executes (instrumented or plain)
    programs against the simulated machine, with hook-execution counters
    so instrumentation cost and optimization effect are measurable (the
    ablation experiment). *)

open Spp_sim
open Spp_pmdk

type machine = {
  space : Space.t;
  pool : Pool.t;
  vheap : Vheap.t;
  cfg : Spp_core.Config.t option;   (** [Some] on an SPP-mode machine *)
  objs : (int, Oid.t) Hashtbl.t;    (** PM objects by [Pm_alloc] name *)
  mutable hook_execs : int;
  mutable loads : int;
  mutable stores : int;
  mutable external_calls : int;
}

val make_machine : ?spp:bool -> ?pool_size:int -> unit -> machine
(** Default: an SPP-mode pool (26 tag bits). *)

val run_program : machine -> Ir.program -> unit
(** Executes [main]. Hook instructions on a non-SPP machine fail; an
    overflown access raises {!Fault.Fault} — exactly like running an
    instrumented binary. The "external" stub dereferences its pointer
    arguments raw, so unmasked tagged pointers crash there. *)
