(** The SPP compiler passes over the miniature IR (paper §IV-C, §IV-E,
    §V): pointer-origin tracking, hook insertion, LTO external-call
    masking with call-site parameter classification, and bound-check
    preemption (loop hoisting). *)

open Ir

type origin =
  | Volatile
  | Persistent
  | Unknown

type stats = {
  mutable inserted : int;          (** hook instructions inserted *)
  mutable direct : int;            (** hooks using the _direct variant *)
  mutable pruned_volatile : int;   (** hook sites skipped: volatile ptr *)
  mutable preempted : int;         (** hook executions removed *)
}

type options = {
  tracking : bool;
  preemption : bool;
}

val default_options : options

val compile : ?options:options -> program -> program * stats
(** The full pipeline: classification → transformation → LTO →
    (optionally) preemption, per function. *)
