(* pmemcheck — Valgrind-pmemcheck-style store/flush/fence trace analysis
   (paper §VI-E).

   Runs a workload with store tracking enabled and reports the classic
   pmemcheck findings: stores to PM never flushed, stores flushed but not
   drained by a fence before the end of the run, and redundant flushes
   (no dirty store in the flushed range). *)

open Spp_sim

type report = {
  total_stores : int;
  total_flushes : int;
  total_fences : int;
  not_flushed : int;        (* stores never covered by a CLWB *)
  not_fenced : int;         (* flushed but never drained *)
  redundant_flushes : int;  (* flush of a clean range *)
}

let pp_report ppf r =
  Format.fprintf ppf
    "stores=%d flushes=%d fences=%d | not-flushed=%d not-fenced=%d \
     redundant-flushes=%d"
    r.total_stores r.total_flushes r.total_fences r.not_flushed r.not_fenced
    r.redundant_flushes

let is_clean r = r.not_flushed = 0 && r.not_fenced = 0

(* Replay the event trace with pmemcheck's bookkeeping. *)
let analyze events =
  let cl = Memdev.cacheline in
  let pending = ref [] in   (* (off, len, flushed) in program order, newest first *)
  let total_stores = ref 0
  and total_flushes = ref 0
  and total_fences = ref 0
  and redundant = ref 0 in
  List.iter
    (fun ev ->
      match ev with
      | Memdev.Ev_store { off; len; _ } ->
        incr total_stores;
        pending := (off, len, ref false) :: !pending
      | Memdev.Ev_flush { off; len } ->
        incr total_flushes;
        let lo = off / cl * cl in
        let hi = (off + len + cl - 1) / cl * cl in
        let hit = ref false in
        List.iter
          (fun (soff, slen, flushed) ->
            if (not !flushed) && soff < hi && lo < soff + slen then begin
              flushed := true;
              hit := true
            end)
          !pending;
        if not !hit then incr redundant
      | Memdev.Ev_fence ->
        incr total_fences;
        pending := List.filter (fun (_, _, flushed) -> not !flushed) !pending)
    events;
  let not_flushed =
    List.length (List.filter (fun (_, _, f) -> not !f) !pending)
  in
  let not_fenced = List.length !pending - not_flushed in
  {
    total_stores = !total_stores;
    total_flushes = !total_flushes;
    total_fences = !total_fences;
    not_flushed;
    not_fenced;
    redundant_flushes = !redundant;
  }

(* Run [f] under tracking on the pool's device and analyze its trace,
   then hand the device back in the tracking state it came in: left
   tracked, it would keep a second full image and a trace that never
   stops growing. *)
let check_run (pool : Spp_pmdk.Pool.t) f =
  let dev = Spp_pmdk.Pool.dev pool in
  if not (Memdev.is_persistent dev) then
    invalid_arg "Pmemcheck.check_run: volatile device";
  let was_tracking = Memdev.tracking dev in
  Memdev.set_tracking dev true;
  Memdev.clear_trace dev;
  Fun.protect ~finally:(fun () -> Memdev.set_tracking dev was_tracking)
    (fun () ->
      let result = f () in
      (result, analyze (Memdev.trace dev)))
