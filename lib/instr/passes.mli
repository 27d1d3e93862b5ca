(** The SPP compiler passes over the miniature IR (paper §IV-C, §IV-E,
    §V): pointer-origin tracking, hook insertion, LTO external-call
    masking with call-site parameter classification, and bound-check
    preemption (loop hoisting). *)

open Ir

type origin =
  | Volatile
  | Persistent
  | Unknown

val merge : origin -> origin -> origin

type stats = {
  mutable inserted : int;          (** hook instructions inserted *)
  mutable direct : int;            (** hooks using the _direct variant *)
  mutable pruned_volatile : int;   (** hook sites skipped: volatile ptr *)
  mutable preempted : int;         (** hook executions removed *)
}

val classify :
  tracking:bool -> ?param_origin:(string -> int -> origin) -> func ->
  origin array
(** Per-register origins by forward dataflow; with [tracking:false]
    everything is [Unknown] (instrument-everything mode). *)

val transform :
  tracking:bool -> stats:stats -> ?param_origin:(string -> int -> origin) ->
  func -> func * origin array

type options = {
  tracking : bool;
  preemption : bool;
}

val default_options : options

val compile : ?options:options -> program -> program * stats
(** The full pipeline: classification → transformation → LTO →
    (optionally) preemption, per function. *)
