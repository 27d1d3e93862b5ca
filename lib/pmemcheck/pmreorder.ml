(* pmreorder — crash-state-space exploration (paper §VI-E).

   Record the store/flush/fence trace of a workload, then enumerate the
   durable states a power failure could leave behind and run the pool's
   recovery plus a user-supplied consistency predicate on each one.

   State model: at any crash point, everything drained by previous fences
   is durable, and additionally any subset of still-pending stores may
   have reached the media (cache evictions happen at any time). Small
   pending sets are enumerated exhaustively; larger ones fall back to
   program-order prefixes plus singletons, like pmreorder's cheaper
   engines. *)

open Spp_sim

type result = {
  crash_points : int;
  states_checked : int;
  failures : int;
  first_failure : string option;
}

let pp_result ppf r =
  Format.fprintf ppf "crash points=%d states=%d failures=%d%s"
    r.crash_points r.states_checked r.failures
    (match r.first_failure with
     | None -> ""
     | Some s -> " (first: " ^ s ^ ")")

type pending = { p_off : int; p_len : int; p_data : Bytes.t; mutable p_flushed : bool }

let subsets_bounded items limit =
  let n = List.length items in
  if n <= limit then
    List.init (1 lsl n) (fun mask ->
      List.filteri (fun i _ -> mask land (1 lsl i) <> 0) items)
  else begin
    (* prefixes in program order + each store alone *)
    let prefixes =
      List.init (n + 1) (fun k -> List.filteri (fun i _ -> i < k) items)
    in
    let singles = List.map (fun x -> [ x ]) items in
    prefixes @ singles
  end

(* cap on the crash states one exploration checks *)
let max_states = 4096

let explore ?(subset_limit = 5) ~(pool : Spp_pmdk.Pool.t)
    ~(workload : unit -> unit) ~(consistent : Spp_pmdk.Pool.t -> bool) () =
  let dev = Spp_pmdk.Pool.dev pool in
  let was_tracking = Memdev.tracking dev in
  Memdev.set_tracking dev true;
  (* Hand the device back as it came: left tracked, it would keep a
     second image and a trace that never stops growing. *)
  Fun.protect ~finally:(fun () -> Memdev.set_tracking dev was_tracking)
  @@ fun () ->
  let base_img = Memdev.durable_snapshot dev in
  Memdev.clear_trace dev;
  workload ();
  let events = Memdev.trace dev in
  let cl = Memdev.cacheline in
  (* replay, collecting at each event index the durable prefix image and
     the pending set *)
  let durable = Bytes.copy base_img in
  let pending : pending list ref = ref [] in    (* program order *)
  let states_checked = ref 0 and failures = ref 0 and crash_points = ref 0 in
  let first_failure = ref None in
  let space_base = Spp_pmdk.Pool.base pool in
  let check_state descr img =
    if !states_checked < max_states then begin
      incr states_checked;
      let dev' = Memdev.of_image ~name:"pmreorder-state" img in
      let space' = Space.create () in
      match Spp_pmdk.Pool.of_dev space' ~base:space_base dev' with
      | pool' ->
        if not (consistent pool') then begin
          incr failures;
          if !first_failure = None then first_failure := Some descr
        end
      | exception e ->
        incr failures;
        if !first_failure = None then
          first_failure := Some (descr ^ ": " ^ Printexc.to_string e)
    end
  in
  let crash_here idx =
    incr crash_points;
    let subsets = subsets_bounded !pending subset_limit in
    List.iteri
      (fun si sel ->
        let img = Bytes.copy durable in
        List.iter (fun p -> Bytes.blit p.p_data 0 img p.p_off p.p_len) sel;
        check_state (Printf.sprintf "event %d subset %d" idx si) img)
      subsets
  in
  List.iteri
    (fun idx ev ->
      (match ev with
       | Memdev.Ev_store { off; len; data } ->
         pending := !pending @ [ { p_off = off; p_len = len; p_data = data;
                                   p_flushed = false } ]
       | Memdev.Ev_flush { off; len } ->
         let lo = off / cl * cl in
         let hi = (off + len + cl - 1) / cl * cl in
         List.iter
           (fun p ->
             if (not p.p_flushed) && p.p_off < hi && lo < p.p_off + p.p_len
             then p.p_flushed <- true)
           !pending
       | Memdev.Ev_fence ->
         let drained, still =
           List.partition (fun p -> p.p_flushed) !pending
         in
         List.iter (fun p -> Bytes.blit p.p_data 0 durable p.p_off p.p_len)
           drained;
         pending := still);
      crash_here idx)
    events;
  (* final state with everything pending lost, and everything applied *)
  crash_here (List.length events);
  {
    crash_points = !crash_points;
    states_checked = !states_checked;
    failures = !failures;
    first_failure = !first_failure;
  }
