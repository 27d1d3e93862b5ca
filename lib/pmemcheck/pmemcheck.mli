(** pmemcheck — Valgrind-pmemcheck-style store/flush/fence trace analysis
    (paper §VI-E).

    Runs a workload with store tracking enabled on the pool's device and
    reports the classic pmemcheck findings. *)

type report = {
  total_stores : int;
  total_flushes : int;
  total_fences : int;
  not_flushed : int;        (** stores never covered by a CLWB *)
  not_fenced : int;         (** flushed but never drained by a fence *)
  redundant_flushes : int;  (** flushes of clean ranges *)
}

val pp_report : Format.formatter -> report -> unit

val is_clean : report -> bool
(** No unflushed and no unfenced stores ([redundant_flushes] is a
    performance smell, not a correctness violation). *)

val check_run : Spp_pmdk.Pool.t -> (unit -> 'a) -> 'a * report
(** Enable tracking, clear the trace, run the workload, analyze. The
    device's prior tracking state is restored on return or raise; an
    untracked device comes back untracked, its view — stores still
    pending included — durable again. *)
