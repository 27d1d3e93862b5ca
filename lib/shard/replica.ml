(* Batch replication and failover for the shard stack.

   Each primary shard (Memdev/Space/Pool/engine) gains replica stacks
   built from the primary's durable image (one [Memdev.durable_snapshot]
   adopted by [Memdev.of_image], then [Pool.open_dev]): same uuid, same
   base, byte-identical starting state. The primary's pool carries a batch
   observer ([Pool.set_batch_observer]) that fires once per committed
   redo sub-batch with the commit's payload — staged entries plus the
   fresh-block bytes its ops stored past the log, copied from the DRAM
   images they were composed in, so shipping reads no PM on the
   primary — strictly after the commit is durable. The group stamps
   each payload with a sequence number and ships it over a lossy
   in-process channel ([Netfault]) with bounded retry and exponential
   backoff; a replica applies payloads in sequence order through
   [Pool.apply_batch_payload], which re-runs the standard redo
   protocol on the replica's own log. Identical payloads
   through identical code keep every replica bit-identical to the
   primary's post-commit state at each sequence number.

   Because a payload only exists for a commit the primary made durable,
   replicas can lag but never lead: at any crash point the replica
   prefix is at most one commit behind what cold recovery of the
   primary produces — the gap the promotion-equivalence oracle bounds.

   Failure detection is channel-driven: a send whose retry budget is
   exhausted, or [hb_timeout] consecutive missed heartbeats, marks the
   replica down. Down replicas receive nothing further (so applied
   sequence numbers stay contiguous — no gaps, ever) and drop out of
   the ack quorum; an ack-policy wait that cannot gather its required
   acks completes anyway and counts a degraded ack, which the serving
   layer surfaces.

   Threading: [threaded = false] applies payloads inline on the
   committing domain — fully deterministic, the torture-harness
   configuration. [threaded = true] gives each replica an applier
   Domain fed by a Mutex/Condition channel; ack waits block on the
   replica's condition variable. Promotion stops the group (appliers
   stop after the op in flight, discard what is still queued — never
   acked to any client — and park), picks the live replica with the
   highest applied sequence number, and cold-restarts its stack in
   place per the attach contract: its own device power-cycled, fresh
   Space, fresh access layer, map re-attached through the pool root,
   read cache starting cold. Promotion never joins an applier: OCaml's
   domain termination stops the world, which would be nearly all of the
   promotion stall. [seal] releases the parked appliers and joins them
   when the serving layer shuts down. *)

open Spp_sim
open Spp_pmdk

type ack_policy = Async | Semi_sync | Sync

let ack_policy_to_string = function
  | Async -> "async"
  | Semi_sync -> "semi-sync"
  | Sync -> "sync"

exception Promotion_failed of { shard : int; reason : string }

let () =
  Printexc.register_printer (function
    | Promotion_failed { shard; reason } ->
      Some
        (Printf.sprintf "Replica.Promotion_failed: shard %d: %s" shard reason)
    | _ -> None)

type config = {
  replicas : int;        (* replica stacks per shard *)
  policy : ack_policy;
  threaded : bool;       (* applier Domain per replica vs inline apply *)
  send_retries : int;    (* total attempts per message *)
  drop_rate : float;     (* channel loss probability *)
  seed : int;            (* channel fault seed (per-shard salted) *)
}

let default_config =
  { replicas = 1; policy = Semi_sync; threaded = true; send_retries = 4;
    drop_rate = 0.; seed = 0 }

let backoff_ns = 1_000   (* base retry backoff; doubles per attempt *)
let hb_timeout = 3       (* consecutive missed heartbeats before Down *)

type link = {
  l_replica : int;
  l_pool : Pool.t;
  l_mu : Mutex.t;
  l_cond : Condition.t;   (* signaled on delivery, apply, death, stop *)
  l_q : (int * Pool.batch_payload * float) Queue.t;
  mutable l_applied_seq : int;   (* last applied commit seq, under l_mu *)
  mutable l_applied_ops : int;   (* whole ops covered by applied commits *)
  mutable l_alive : bool;        (* failure-detector verdict *)
  mutable l_missed : int;        (* consecutive missed heartbeats *)
  mutable l_stop : bool;
  mutable l_parked : bool;       (* applier discarded its queue, waits to exit *)
  mutable l_domain : unit Domain.t option;
  l_lag : Spp_benchlib.Histogram.t;   (* commit-to-apply lag, ns; under l_mu *)
}

type t = {
  g_shard : int;
  g_cfg : config;
  g_engine : Spp_pmemkv.Engine.spec;   (* how promote re-attaches the map *)
  g_net : Netfault.t;
  g_links : link array;
  mutable g_seq : int;            (* commits shipped *)
  mutable g_ops : int;            (* ops covered by shipped commits *)
  mutable g_retries : int;        (* resend attempts beyond the first *)
  mutable g_backoff_ns : int;     (* total backoff spent *)
  mutable g_degraded_acks : int;  (* policy waits short of their quorum *)
  mutable g_sealed : bool;
}

let now () = Spp_benchlib.Bench_util.now_mono ()

(* --- replica-side apply ----------------------------------------------- *)

let apply_link l (seq, payload, ts) =
  Pool.apply_batch_payload l.l_pool payload;
  let lag_ns = int_of_float ((now () -. ts) *. 1e9) in
  Mutex.lock l.l_mu;
  l.l_applied_seq <- seq;
  l.l_applied_ops <- l.l_applied_ops + payload.Pool.p_ops;
  Spp_benchlib.Histogram.add l.l_lag lag_ns;
  Condition.broadcast l.l_cond;
  Mutex.unlock l.l_mu

let applier_loop l =
  let running = ref true in
  while !running do
    Mutex.lock l.l_mu;
    while Queue.is_empty l.l_q && not l.l_stop do
      Condition.wait l.l_cond l.l_mu
    done;
    if l.l_stop then begin
      (* Stop: anything still queued was delivered but never applied,
         hence never acked to any client — discard, keeping the sealed
         prefix exactly the fully-acked one. Then park, touching the
         replica stack no more, until [seal] lets the domain exit. *)
      Queue.clear l.l_q;
      l.l_parked <- true;
      Condition.broadcast l.l_cond;
      while l.l_parked do Condition.wait l.l_cond l.l_mu done;
      Mutex.unlock l.l_mu;
      running := false
    end
    else begin
      let item = Queue.pop l.l_q in
      Mutex.unlock l.l_mu;
      apply_link l item
    end
  done

(* --- primary-side ship ------------------------------------------------ *)

let mark_down l =
  Mutex.lock l.l_mu;
  l.l_alive <- false;
  Condition.broadcast l.l_cond;
  Mutex.unlock l.l_mu

let deliver g l seq payload ts =
  if g.g_cfg.threaded then begin
    Mutex.lock l.l_mu;
    Queue.push (seq, payload, ts) l.l_q;
    Condition.signal l.l_cond;
    Mutex.unlock l.l_mu
  end
  else apply_link l (seq, payload, ts)

(* Bounded retry with exponential backoff; exhaustion is a failure-
   detector verdict (the channel to this replica is gone). *)
let send g l seq payload ts =
  let rec go attempt backoff =
    if Netfault.attempt g.g_net then deliver g l seq payload ts
    else if attempt >= g.g_cfg.send_retries then mark_down l
    else begin
      g.g_retries <- g.g_retries + 1;
      g.g_backoff_ns <- g.g_backoff_ns + backoff;
      if g.g_cfg.threaded then Unix.sleepf (float_of_int backoff *. 1e-9);
      go (attempt + 1) (backoff * 2)
    end
  in
  go 1 backoff_ns

let on_commit g payload =
  if not g.g_sealed then begin
    g.g_seq <- g.g_seq + 1;
    g.g_ops <- g.g_ops + payload.Pool.p_ops;
    let ts = now () in
    Array.iter
      (fun l -> if l.l_alive then send g l g.g_seq payload ts)
      g.g_links
  end

(* --- construction ----------------------------------------------------- *)

let create ?(cfg = default_config) ?(engine = Spp_pmemkv.Engines.cmap) ~shard
    (primary : Pool.t) =
  if cfg.replicas <= 0 then
    invalid_arg "Replica.create: need at least one replica";
  if cfg.send_retries <= 0 then
    invalid_arg "Replica.create: send_retries must be positive";
  let base = Pool.base primary in
  let links =
    Array.init cfg.replicas (fun i ->
      (* Bit-identical starting image: snapshot the primary's durable
         state (the group must be created at a quiesced point), adopt
         the snapshot as the replica's only image and open it like a
         restarted process would. Replicas run untracked — they are not
         the device under fault injection. *)
      let img = Memdev.durable_snapshot (Pool.dev primary) in
      let name = Printf.sprintf "%s-r%d" (Memdev.name (Pool.dev primary)) i in
      let dev = Memdev.of_image ~name img in
      let space = Space.create () in
      match Pool.open_dev space ~base dev with
      | Error e ->
        invalid_arg
          ("Replica.create: replica image rejected: "
           ^ Pool.pool_error_to_string e)
      | Ok (pool, _report) ->
        { l_replica = i; l_pool = pool;
          l_mu = Mutex.create (); l_cond = Condition.create ();
          l_q = Queue.create ();
          l_applied_seq = 0; l_applied_ops = 0;
          l_alive = true; l_missed = 0; l_stop = false; l_parked = false;
          l_domain = None;
          l_lag = Spp_benchlib.Histogram.create () })
  in
  let g =
    { g_shard = shard; g_cfg = cfg; g_engine = engine;
      g_net =
        Netfault.create ~seed:(cfg.seed + (31 * shard))
          ~drop_rate:cfg.drop_rate ();
      g_links = links;
      g_seq = 0; g_ops = 0; g_retries = 0; g_backoff_ns = 0;
      g_degraded_acks = 0; g_sealed = false }
  in
  if cfg.threaded then
    Array.iter
      (fun l -> l.l_domain <- Some (Domain.spawn (fun () -> applier_loop l)))
      g.g_links;
  Pool.set_batch_observer primary (Some (fun p -> on_commit g p));
  g

(* --- failure detector ------------------------------------------------- *)

(* One heartbeat round over the same lossy channel as the data path: a
   link bad enough to drop commits misses pings too. Called by the
   serving layer's shard holder once per batch; deterministic under a
   seeded channel. *)
let heartbeat g =
  Array.iter
    (fun l ->
      if l.l_alive then begin
        if Netfault.attempt g.g_net then l.l_missed <- 0
        else begin
          l.l_missed <- l.l_missed + 1;
          if l.l_missed >= hb_timeout then mark_down l
        end
      end)
    g.g_links

(* --- ack policies ----------------------------------------------------- *)

(* Block until the link acked [seq] or died; true iff acked. Immediate
   in inline mode (apply happened during the commit). *)
let wait_link l seqno =
  Mutex.lock l.l_mu;
  while l.l_alive && l.l_applied_seq < seqno && not l.l_stop do
    Condition.wait l.l_cond l.l_mu
  done;
  let acked = l.l_applied_seq >= seqno in
  Mutex.unlock l.l_mu;
  acked

(* Gate a client ack on the policy's quorum for everything shipped so
   far. A quorum that cannot be met (replicas down) completes the wait
   and counts a degraded ack — availability over blocking forever on a
   dead link; the serving layer exposes the count. *)
let wait_acks g =
  let seqno = g.g_seq in
  if seqno > 0 then
    match g.g_cfg.policy with
    | Async -> ()
    | Semi_sync ->
      if not (Array.exists (fun l -> wait_link l seqno) g.g_links) then
        g.g_degraded_acks <- g.g_degraded_acks + 1
    | Sync ->
      let all =
        Array.fold_left (fun acc l -> wait_link l seqno && acc) true g.g_links
      in
      if not all then g.g_degraded_acks <- g.g_degraded_acks + 1

(* --- stats ------------------------------------------------------------ *)

type stats = {
  rs_shard : int;
  rs_replicas : int;
  rs_live : int;
  rs_seq : int;
  rs_ops : int;
  rs_acked_seq : int;      (* highest seq every live replica has applied *)
  rs_retries : int;
  rs_backoff_ns : int;
  rs_degraded_acks : int;
  rs_net : Netfault.stats;
}

let stats g =
  let acked = ref g.g_seq in
  let live = ref 0 in
  Array.iter
    (fun l ->
      Mutex.lock l.l_mu;
      if l.l_alive then begin
        incr live;
        if l.l_applied_seq < !acked then acked := l.l_applied_seq
      end;
      Mutex.unlock l.l_mu)
    g.g_links;
  { rs_shard = g.g_shard;
    rs_replicas = Array.length g.g_links;
    rs_live = !live;
    rs_seq = g.g_seq;
    rs_ops = g.g_ops;
    rs_acked_seq = (if !live = 0 then 0 else !acked);
    rs_retries = g.g_retries;
    rs_backoff_ns = g.g_backoff_ns;
    rs_degraded_acks = g.g_degraded_acks;
    rs_net = Netfault.stats g.g_net }

let lag_hist g =
  Array.fold_left
    (fun acc l ->
      Mutex.lock l.l_mu;
      let m = Spp_benchlib.Histogram.merge acc l.l_lag in
      Mutex.unlock l.l_mu;
      m)
    (Spp_benchlib.Histogram.create ())
    g.g_links

(* --- promotion -------------------------------------------------------- *)

type promoted = {
  pr_shard : int;
  pr_replica : int;
  pr_seq : int;    (* sealed commit prefix, in sequence numbers *)
  pr_ops : int;    (* whole operations that prefix covers *)
  pr_access : Spp_access.t;
  pr_kv : Spp_pmemkv.Engine.packed;
}

(* Stop shipping and wait until every applier has discarded its queue
   and parked; with [release], let each parked applier exit and join it. *)
let stop g ~release =
  g.g_sealed <- true;
  Array.iter
    (fun l ->
      Mutex.lock l.l_mu;
      l.l_stop <- true;
      Condition.broadcast l.l_cond;
      if l.l_domain <> None then begin
        while not l.l_parked do Condition.wait l.l_cond l.l_mu done;
        if release then begin
          l.l_parked <- false;
          Condition.broadcast l.l_cond
        end
      end;
      Mutex.unlock l.l_mu;
      if release then begin
        Option.iter Domain.join l.l_domain;
        l.l_domain <- None
      end)
    g.g_links

let seal g = stop g ~release:true

let sealed g = g.g_sealed

let promote ?(cache_cap = 0) g =
  if g.g_sealed then
    raise (Promotion_failed { shard = g.g_shard; reason = "already sealed" });
  stop g ~release:false;
  let pick =
    (* prefer live replicas; among equals, the longest applied prefix *)
    Array.fold_left
      (fun best l ->
        let better =
          (l.l_alive && not best.l_alive)
          || (l.l_alive = best.l_alive && l.l_applied_seq > best.l_applied_seq)
        in
        if better then l else best)
      g.g_links.(0) g.g_links
  in
  (* Cold restart per the attach contract, in place: power-cycle the
     replica's own device (unfenced stores lost on a tracked device,
     nothing to drop on an untracked one), reopen it in a fresh Space,
     rebuild the access layer, re-attach the map through the pool root.
     No volatile state survives and no image is copied — exactly what a
     cold [Pool.open_dev] recovery of the replica would see. The sealed
     group never touches the old stack again. *)
  let dev = Pool.dev pick.l_pool in
  Memdev.crash dev;
  let space = Space.create () in
  match Pool.open_dev space ~base:(Pool.base pick.l_pool) dev with
  | Error e ->
    raise
      (Promotion_failed
         { shard = g.g_shard; reason = Pool.pool_error_to_string e })
  | Ok (pool, _report) ->
    let access = Spp_access.attach space pool in
    let root = Pool.root_oid pool in
    if Oid.is_null root then
      raise
        (Promotion_failed
           { shard = g.g_shard; reason = "replica pool has no root object" });
    let map_root = Pool.load_oid pool ~off:root.Oid.off in
    let kv = Spp_pmemkv.Engine.attach g.g_engine access ~root:map_root in
    (* The read cache never fails over: a promoted stack starts cold. *)
    if cache_cap > 0 then
      Spp_pmemkv.Engine.set_cache kv
        (Some (Spp_pmemkv.Rcache.create ~cap:cache_cap));
    { pr_shard = g.g_shard; pr_replica = pick.l_replica;
      pr_seq = pick.l_applied_seq; pr_ops = pick.l_applied_ops;
      pr_access = access; pr_kv = kv }
