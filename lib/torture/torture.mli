(** Systematic crash-point torture harness (paper §IV-F, §VI-E).

    The pmreorder explorer samples crash {e states}; this harness
    enumerates crash {e points}: it runs a workload once to count its
    durability events (stores, flushes, fences), then replays it once per
    event, killing the power at exactly that event, reopening the pool
    through {!Spp_pmdk.Pool.open_dev}, running recovery, and asking a
    workload-supplied oracle whether the recovered state honours the
    workload's acknowledgement contract — every acknowledged operation
    durable, every unacknowledged one invisible or rolled back.

    Media faults compose on top: {e torn} crashes let a seeded subset of
    the unfenced stores reach the media first (cache-eviction
    reordering), and {e bit flips} scramble seeded durable bits before
    the reopen, exercising the typed corruption-rejection path. *)

open Spp_pmdk

exception Crashed of int
(** Raised by the harness's injector at the chosen durability event. *)

(** {1 Workloads} *)

type instance = {
  access : Spp_access.t;
    (** Fresh machine holding the pool under torture. *)
  mutate : ack:(unit -> unit) -> unit;
    (** The phase under torture. Must call [ack ()] after each operation
        whose durability the workload guarantees to its caller. *)
  check : pool:Pool.t -> acked:int -> (unit, string) result;
    (** Invariant oracle, run on the recovered reopened pool. [acked] is
        the number of [ack] calls observed before the power failed. *)
}

type workload = {
  w_name : string;
  w_make : unit -> instance;
    (** Build a fresh, deterministic instance; called once per replay.
        Setup runs untracked — only [mutate]'s events are crash points. *)
}

(** {1 Fault plans} *)

type fault_plan = {
  torn : bool;
    (** At each crash, a seeded subset of the unfenced pending stores
        reaches the media in program order (torn/reordered writes). *)
  bitflips : int;
    (** Seeded random bit flips applied to the durable image after the
        crash, before the reopen (media rot). With flips active, a typed
        rejection from [Pool.open_dev] counts as graceful degradation,
        not a failure. *)
}

(** {1 Running} *)

type report = {
  r_workload : string;
  r_events : int;           (** durability events in one full run *)
  r_crash_points : int;     (** crash points explored (events + clean run) *)
  r_recovered : int;        (** reopens that recovered and passed the oracle *)
  r_rejected : int;         (** reopens refused with a typed [pool_error] *)
  r_invariant_failures : int;
  r_first_failure : (int * string) option;
    (** Crash-point index and description of the first failure — replay
        it with the same seed to reproduce. *)
}

val pp_report : Format.formatter -> report -> unit

val run : ?budget:int -> ?seed:int -> ?faults:fault_plan -> workload -> report
(** Enumerate the workload's crash points. When the event count exceeds
    [budget] (default: unbounded), points are sampled at a uniform
    stride, always including the first and last. [seed] (default 0)
    drives torn-subset choice and bit-flip placement; identical
    [(workload, budget, seed, faults)] reproduce identical runs. The
    oracle is called under a catch-all: an exception escaping recovery
    or the check is an invariant failure, never a harness crash. *)
