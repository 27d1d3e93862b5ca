(* Asynchronous batched serving pipeline over the shard stack.

   One MPSC mailbox per shard (Mutex/Condition, any submitter) and no
   domain of its own. A shard is held by one domain at a time — a flag
   under the mailbox lock — and only the holder enters the shard's
   stack. Whoever holds a shard drains its queue before letting go, in
   chunks of at most [batch_cap], each executed through
   [Engine.run_batch], so the chunk rides a single group-committed redo
   log (see [Redo.batch]) — the fence schedule that a synchronous routed
   put pays per operation is paid once per batch. This is flat
   combining: the domain that finds the shard free runs the requests
   queued behind it. Each request carries a promise-like ticket: the
   holder fulfils it after the batch's commit returns, which is exactly
   when the op is durable, and records the submission-to-fulfilment
   latency into the shard's histogram.

   Who holds a shard:
   - a routed [submit] that finds its shard unheld with an empty queue
     runs its op there, as a one-op batch, so its ticket and [notify]
     resolve before [submit] returns;
   - whoever pushes a request onto an unheld shard's queue takes the
     shard and drains it: [submit] or [submit_to] (adaptive mode), and
     a migration flip re-pointing queued requests — both try-only: if
     another domain holds the shard, that holder drains it;
   - [await] on an unresolved ticket whose shard is unheld;
   - [promote], [migrate_slot] and [stop], which wait for the hold
     while holding no shard and run on the calling domain.
   A held shard queues every request submitted to it, so batches form
   whenever requests arrive behind a holder; a lone submitter
   pipelining to an idle shard commits op by op. Only a migration holds
   two shards: it holds the source while it awaits its copy on the
   target, whose holder never waits for a hold, so no cycle can form.

   With [adaptive = false] a submitter never runs the shard: nothing
   executes until a domain awaits a ticket or holds the shard, and every
   drain takes exactly [batch_cap] requests when available, so
   pre-enqueued streams batch exactly as [run_sequential] chunks them
   and every Space/Memdev counter is a pure function of the submitted
   streams: the property the parallel-vs-sequential differential
   asserts.

   Crash atomicity is per op, not per batch: recovery lands on a prefix
   of whole operations of the interrupted batch (torture workload
   "kvbatch" enumerates exactly this). Acks are stronger — a fulfilled
   ticket means the op's sub-batch committed.

   Failure semantics: a ticket resolves to [Failed] instead of hanging.
   An op that raises fails its whole batch with [Op_raised] but leaves
   the shard serving (the abandoned batch staged only volatile state).
   A primary whose device died — [Memdev.power_off], the kill the
   failover torture injects — fails the batch and every later request
   on that shard with [Failed_over] until [promote] swaps in a replica
   stack. A [Failed] reply means the op's outcome is unknown, not that
   it didn't happen: sub-batches that committed before the failure are
   durable (and replicated), the rest are not — standard failover
   ambiguity, resolved by the client re-reading.

   Replication rides the batch observer, so it sees every committed
   mutation, a synchronous [Shard.put] (a one-op batch) included; but
   only this pipeline waits for the replicas' acks, so with
   [?replication] configured, writes that must be acknowledged per the
   policy flow through it. The holder gates ticket fulfilment on
   [Replica.wait_acks] per the configured policy — with threaded
   replicas under semi-sync or sync it waits there for an applier
   domain, whether it is a submitter or [Net_server]'s loop — and runs
   one heartbeat round per batch; [promote] holds the failed shard,
   then repoints the router via [Shard.set_shard].

   Live slot migration ([migrate_slot]) holds the source shard for its
   whole run, so the source stack is never entered by two domains at
   once. The protocol is copy -> flip -> delete:
   (1) the migration drains the slot's keys out of the source engine
   through paginated ordered scans and replays them into the target
   shard as ordinary batched [Put]s via the target's mailbox — so the
   copy rides the target's group commit and its redo payloads reach the
   target's replica; the source is held, so no op, queued or inline,
   can make the scanned values stale; (2) the flip takes both mailbox
   locks, re-points every queued request on the migrating slot at the
   target (tickets chase their requests across mailboxes), invalidates
   the source cache for the moved keys and swaps in the new slot table
   — submitters re-check the table under the mailbox lock, so no slot
   request can land on the source after the swap; (3) the migration
   deletes the moved keys from the source engine in group-committed
   remove batches. A crash between (1) and (2) leaves the slot on the
   source (the copy is garbage the target never owns); after (2) the
   slot is served by the target, which has every key — exactly-once
   either way, which the [kvreshard] torture workload enumerates. One
   migration runs at a time ([mig_mu]); whole-store scans serialize
   against it so a range never observes a slot in neither (or both)
   shards. *)

type request =
  | Put of { key : string; value : string }
  | Get of string
  | Remove of string
  | Scan of { lo : string; hi : string; limit : int }

type failure =
  | Op_raised of string   (* an op raised; outcome of the batch unknown *)
  | Failed_over           (* primary died; resubmit after promotion *)

type reply =
  | Done                     (* put committed *)
  | Value of string option   (* get result *)
  | Removed of bool
  | Scanned of (string * string) list   (* ordered, <= the clamped limit *)
  | Failed of failure        (* op not acked; outcome unknown *)

(* Every scan reply is clamped to this many pairs, whatever limit the
   client asked for — the reply is a materialized list built while the
   holder holds the shard. *)
let scan_limit_cap = 4096

exception Not_replicated of int

let () =
  Printexc.register_printer (function
    | Not_replicated i ->
      Some
        (Printf.sprintf
           "Serve.Not_replicated: shard %d has no replication group" i)
    | _ -> None)

let request_key = function
  | Put { key; _ } | Get key | Remove key -> key
  | Scan _ ->
    (* a range spans every shard; route scans with [scan] or target one
       shard with [submit_to] *)
    invalid_arg "Serve.request_key: Scan has no routing key"

type ticket = {
  mutable tk_shard : int;            (* re-pointed when a flip forwards *)
  tk_submitted : float;              (* monotonic seconds *)
  mutable tk_reply : reply option;   (* written under the mailbox lock *)
  tk_notify : (reply -> unit) option;   (* run by the resolving holder *)
}

type migration_report = {
  mig_slot : int;
  mig_from : int;
  mig_to : int;
  mig_keys : int;        (* entries copied (and later deleted) *)
  mig_batches : int;     (* copy batches group-committed on the target *)
  mig_forwarded : int;   (* queued requests re-pointed at the flip *)
}

type mailbox = {
  mu : Mutex.t;
  done_ : Condition.t;
      (* broadcast on fulfilment and on release; awaiters and domains
         waiting for the hold wait here *)
  q : (request * ticket) Queue.t;
  mutable peak_q : int;    (* high-water queue depth, under [mu] *)
  mutable stop : bool;
  mutable failed : bool;   (* device died: fail batches until promotion *)
  mutable held : bool;     (* a domain is inside the shard, under [mu] *)
  (* Written only by the domain holding the shard; [ops] and [busy] are
     atomic so observers read them live (the rebalancer's busy windows,
     sppctl's stats table). *)
  ops : int Atomic.t;
  mutable batches : int;
  mutable max_batch : int;
  mutable nfailed : int;   (* tickets resolved [Failed] *)
  busy : float Atomic.t;   (* seconds inside [run_batch] *)
  hist : Spp_benchlib.Histogram.t;   (* latency, ns *)
  (* batch scratch, allocated once at [batch_cap]: only the first [n]
     slots are live per batch, and item slots are reset to [idle] after
     resolution so fulfilled tickets don't outlive their batch *)
  items : (request * ticket) array;
  opbuf : Spp_pmemkv.Engine.batch_op array;
}

type shard_stats = {
  ss_shard : int;
  ss_ops : int;
  ss_batches : int;
  ss_max_batch : int;
  ss_failed : int;                      (* tickets resolved [Failed] *)
  ss_busy : float;                      (* seconds inside [run_batch] *)
  ss_hist : Spp_benchlib.Histogram.t;   (* latency, ns *)
}

type t = {
  store : Shard.t;
  boxes : mailbox array;
  repl : Replica.t option array;   (* one group per shard, if configured *)
  batch_cap : int;
  adaptive : bool;          (* submitters run the shards they find free *)
  bypass : bool;            (* answer cache-hit gets on the submitter *)
  bypassed : int Atomic.t;  (* gets that never saw a mailbox *)
  promotions : int Atomic.t;
  mig_mu : Mutex.t;         (* one migration at a time; scans serialize *)
  slot_ops : int Atomic.t array;   (* per-slot routed-op histogram *)
  migrations : int Atomic.t;
  forwarded : int Atomic.t;        (* requests re-pointed across boxes *)
  keys_moved : int Atomic.t;
  mutable stopped : bool;
}

let to_engine_op = function
  | Put { key; value } -> Spp_pmemkv.Engine.B_put { key; value }
  | Get key -> Spp_pmemkv.Engine.B_get key
  | Remove key -> Spp_pmemkv.Engine.B_remove key
  | Scan { lo; hi; limit } ->
    Spp_pmemkv.Engine.B_scan
      { lo; hi; limit = max 0 (min limit scan_limit_cap) }

let of_engine_reply = function
  | Spp_pmemkv.Engine.R_put -> Done
  | Spp_pmemkv.Engine.R_get v -> Value v
  | Spp_pmemkv.Engine.R_removed b -> Removed b
  | Spp_pmemkv.Engine.R_scan kvs -> Scanned kvs

(* The answer to every request of a batch that raised. *)
let op_raised e = Failed (Op_raised (Printexc.to_string e))

(* Resolve a batch's tickets — the first [n] slots of the holder's
   scratch buffer. [Failed] still records latency — a failed op occupied
   the pipeline for that long. *)
let resolve box n replies =
  let now = Spp_benchlib.Bench_util.now_mono () in
  Mutex.lock box.mu;
  for j = 0 to n - 1 do
    let (_, tk) = box.items.(j) in
    let r = replies j in
    (match r with Failed _ -> box.nfailed <- box.nfailed + 1 | _ -> ());
    tk.tk_reply <- Some r;
    Spp_benchlib.Histogram.add box.hist
      (int_of_float ((now -. tk.tk_submitted) *. 1e9))
  done;
  Condition.broadcast box.done_;
  Mutex.unlock box.mu;
  (* callbacks run outside the lock, and cannot take the holder down *)
  for j = 0 to n - 1 do
    let (_, tk) = box.items.(j) in
    Option.iter (fun f -> try f (Option.get tk.tk_reply) with _ -> ())
      tk.tk_notify
  done

(* Under [box.mu]: queue a request and note the high-water depth. *)
let push box item =
  Queue.push item box.q;
  let d = Queue.length box.q in
  if d > box.peak_q then box.peak_q <- d

(* Under [box.mu]: take the shard if nobody holds it. *)
let try_hold box = (not box.held) && (box.held <- true; true)

let release box =
  Mutex.lock box.mu;
  box.held <- false;
  Condition.broadcast box.done_;
  Mutex.unlock box.mu

(* Promotion runs holding the failed shard, so the router swap can never
   race a batch. The sealed group stays in [t.repl] for post-mortem
   stats; [Replica.sealed] keeps it off the ack path. *)
let do_promote t i cache_cap =
  match t.repl.(i) with
  | None -> Error "no replication group"
  | Some g ->
    (try
       let p = Replica.promote ~cache_cap g in
       Shard.set_shard t.store i ~access:p.Replica.pr_access
         ~kv:p.Replica.pr_kv;
       Atomic.incr t.promotions;
       let box = t.boxes.(i) in
       Mutex.protect box.mu (fun () -> box.failed <- false);
       Ok p
     with
     | Replica.Promotion_failed { reason; _ } -> Error reason
     | e -> Error (Printexc.to_string e))

(* Keys above this sentinel never occur in practice; the paginated copy
   scan uses it as its open upper bound. *)
let scan_hi_sentinel = String.make 32 '\xff'

let idle =
  (Get "",
   { tk_shard = 0; tk_submitted = 0.; tk_reply = None; tk_notify = None })

(* Execute the first [n] requests of shard [i]'s scratch buffer as one
   group-committed batch, resolve their tickets and account the batch.
   The caller holds the shard. Every request it holds belongs here:
   submitters re-check the slot table under the mailbox lock, and a
   migration holds its source shard from copy to delete, so its flip
   re-points every queued request on the slot before any holder can
   pop one. *)
let execute t i box n ~already_failed =
  let items = box.items and opbuf = box.opbuf in
  (if already_failed then
     (* dead primary, not yet promoted: nothing to execute on *)
     resolve box n (fun _ -> Failed Failed_over)
   else begin
     (* re-resolve the stack each batch: [promote] may have swapped it
        since the last one *)
     let sh = Shard.shard t.store i in
     let kv = Shard.shard_kv sh in
     let dev = Spp_pmdk.Pool.dev (Shard.shard_access sh).Spp_access.pool in
     for j = 0 to n - 1 do
       opbuf.(j) <- to_engine_op (fst items.(j))
     done;
     let t0 = Spp_benchlib.Bench_util.now_mono () in
     let res =
       match Spp_pmemkv.Engine.run_batch kv ~len:n opbuf with
       | replies -> Ok replies
       | exception e -> Error e
     in
     Atomic.set box.busy
       (Atomic.get box.busy +. (Spp_benchlib.Bench_util.now_mono () -. t0));
     match res with
     | _ when Spp_sim.Memdev.is_powered_off dev ->
       (* the device died under the batch: its stores were silently
          discarded, so the "commit" is not durable — never ack it *)
       Mutex.lock box.mu;
       box.failed <- true;
       Mutex.unlock box.mu;
       resolve box n (fun _ -> Failed Failed_over)
     | Error e ->
       (* the op's own failure: the abandoned batch staged only volatile
          state, so the shard keeps serving *)
       let failed = op_raised e in
       resolve box n (fun _ -> failed)
     | Ok replies ->
       (* gate the acks on the replication policy *)
       (match t.repl.(i) with
        | Some g when not (Replica.sealed g) ->
          Replica.heartbeat g;
          Replica.wait_acks g
        | _ -> ());
       resolve box n (fun j -> of_engine_reply replies.(j));
       Atomic.set box.ops (Atomic.get box.ops + n);
       box.batches <- box.batches + 1;
       if n > box.max_batch then box.max_batch <- n
   end);
  (* release resolved tickets to the GC before the next batch *)
  Array.fill items 0 n idle

(* The holder's loop: run what is queued in chunks of at most
   [batch_cap] until the queue is empty, then release the shard and
   wake everyone waiting on it. Called holding shard [i], without its
   lock. *)
let rec drain t i =
  let box = t.boxes.(i) in
  Mutex.lock box.mu;
  let n = min (Queue.length box.q) t.batch_cap in
  if n = 0 then begin
    box.held <- false;
    Condition.broadcast box.done_;
    Mutex.unlock box.mu
  end
  else begin
    for j = 0 to n - 1 do
      box.items.(j) <- Queue.pop box.q
    done;
    let already_failed = box.failed in
    Mutex.unlock box.mu;
    match execute t i box n ~already_failed with
    | () -> drain t i
    | exception e -> release box; raise e
  end

(* Take shard [i] if nobody holds it, and drain it: what a domain does
   after leaving requests on a queue it does not hold. *)
let settle t i =
  let box = t.boxes.(i) in
  Mutex.lock box.mu;
  let took = try_hold box in
  Mutex.unlock box.mu;
  if took then drain t i

(* Wait for shard [i]'s hold, run [f] holding it, and drain. The caller
   must hold no shard. *)
let exclusively t i f =
  let box = t.boxes.(i) in
  Mutex.lock box.mu;
  while box.held do
    Condition.wait box.done_ box.mu
  done;
  box.held <- true;
  Mutex.unlock box.mu;
  match f () with
  | r -> drain t i; r
  | exception e -> release box; raise e

(* Push under the mailbox lock, re-checking the slot table for keyed
   requests: a migration flip that completed between routing and this
   lock acquisition moved the key — and the flip holds this same lock
   while swapping the table, so re-checking under it is race-free. The
   re-route loop terminates because [mig_mu] admits one migration at a
   time and each flip moves exactly one slot.

   In adaptive mode ([run]) a routed op ([key] given) that finds the
   shard idle — unheld, nothing queued — is run here, holding the
   shard, so its ticket is resolved on return; nothing queued means
   nothing submitted earlier is overtaken. Any other request is queued,
   and with [run] the submitter then drains the shard if nobody holds
   it. *)
let rec submit_queued t i ~run ?key ?notify req =
  let box = t.boxes.(i) in
  Mutex.lock box.mu;
  let owner =
    match key with None -> i | Some k -> Shard.route t.store k
  in
  if owner <> i then begin
    Mutex.unlock box.mu;
    submit_queued t owner ~run ?key ?notify req
  end
  else if box.stop then begin
    Mutex.unlock box.mu;
    invalid_arg "Serve.submit: pipeline is stopping"
  end
  else begin
    let tk =
      { tk_shard = i; tk_submitted = Spp_benchlib.Bench_util.now_mono ();
        tk_reply = None; tk_notify = notify }
    in
    if run && key <> None && (not box.held) && Queue.is_empty box.q then begin
      box.held <- true;
      box.items.(0) <- (req, tk);
      let already_failed = box.failed in
      Mutex.unlock box.mu;
      match execute t i box 1 ~already_failed with
      | () -> drain t i
      | exception e -> release box; raise e
    end
    else begin
      push box (req, tk);
      let took = run && try_hold box in
      Mutex.unlock box.mu;
      if took then drain t i
    end;
    tk
  end

let submit_prepared t i ~run ?key ?notify req =
  let kv = Shard.shard_kv (Shard.shard t.store i) in
  (* Submission-time invalidation: by the time a mutation is visible in
     the mailbox, no later probe — from this client or any other — can
     hit the value it is about to replace. Combined with the stage-time
     invalidation inside the batch, this gives read-your-writes to a
     client that pipelines a put and then a bypassed get. Scans are
     cache-bypassing and touch nothing here. (If the submit re-routes
     after a flip, this invalidated a non-owner's cache — harmless; the
     flip itself invalidated the moved keys there.) *)
  (match req with
   | Put { key; _ } | Remove key -> Spp_pmemkv.Engine.cache_invalidate kv key
   | Get _ | Scan _ -> ());
  (* Read fast path: a cache hit is already durable data (fills only
     come from committed batches), so answer on the submitting thread
     with a pre-fulfilled ticket and never touch the mailbox. *)
  match req with
  | Get gkey when t.bypass ->
    (match Spp_pmemkv.Engine.cache_probe kv gkey with
     | Some v ->
       Atomic.incr t.bypassed;
       let r = Value (Some v) in
       Option.iter (fun f -> try f r with _ -> ()) notify;
       { tk_shard = i;
         tk_submitted = Spp_benchlib.Bench_util.now_mono ();
         tk_reply = Some r; tk_notify = None }
     | None -> submit_queued t i ~run ?key ?notify req)
  | _ -> submit_queued t i ~run ?key ?notify req

let submit ?notify t req =
  let key = request_key req in
  Atomic.incr t.slot_ops.(Shard.slot_of t.store key);
  submit_prepared t (Shard.route t.store key) ~run:t.adaptive ~key ?notify
    req

(* Target one shard explicitly — how a [Scan] (which has no routing
   key: the hash router spreads every range over all shards) enters a
   specific shard's batch stream. No table re-check: the caller chose
   the shard. *)
let submit_to t i req =
  if i < 0 || i >= Shard.nshards t.store then
    invalid_arg "Serve.submit_to: shard index out of range";
  submit_prepared t i ~run:t.adaptive req

(* A ticket may be re-pointed at another shard by a migration flip
   while we wait; the flip broadcasts the old box's [done_], so we wake,
   notice the move and chase the ticket to its new box. A ticket whose
   shard nobody holds is ours to run. *)
let rec await t tk =
  match tk.tk_reply with
  | Some r -> r   (* cache hit or inline op: fulfilled at submission *)
  | None ->
    let i = tk.tk_shard in
    let box = t.boxes.(i) in
    Mutex.lock box.mu;
    while tk.tk_reply = None && tk.tk_shard = i && box.held do
      Condition.wait box.done_ box.mu
    done;
    let took = tk.tk_reply = None && tk.tk_shard = i && try_hold box in
    Mutex.unlock box.mu;
    if took then drain t i;
    await t tk

let peek tk = tk.tk_reply

(* Live slot migration, run holding the source shard [i] (see the
   module header for the protocol and why each phase is race-free).
   [mig_mu] is held by the caller for the whole call, so at most one
   migration is in flight. *)
let do_migrate t i (slot, dst) =
  try
    if dst = i then failwith "target is the source shard";
    let box = t.boxes.(i) in
    let sh = Shard.shard t.store i in
    let kv = Shard.shard_kv sh in
    (* Phase 1 — copy: paginate the source engine in key order and
       replay the slot's entries into the target through its normal
       mailbox/batch path: queue a chunk, then await it, which drains
       the target unless another domain holds it. This domain holds the
       source shard, so no copied value can be overwritten on the source
       mid-copy. *)
    let moved = ref [] and nmoved = ref 0 and nbatches = ref 0 in
    let flush chunk =
      match chunk with
      | [] -> ()
      | chunk ->
        let tks =
          List.rev_map
            (fun (key, value) ->
              submit_prepared t dst ~run:false (Put { key; value }))
            chunk
        in
        List.iter
          (fun tk ->
            match await t tk with
            | Done -> ()
            | Failed _ -> failwith "copy batch failed on the target"
            | _ -> assert false)
          tks;
        incr nbatches
    in
    let lo = ref "" and more = ref true in
    while !more do
      let page =
        Spp_pmemkv.Engine.scan kv ~lo:!lo ~hi:scan_hi_sentinel
          ~limit:scan_limit_cap
      in
      (match List.rev page with
       | [] -> more := false
       | (last, _) :: _ ->
         lo := last ^ "\x00";
         if List.length page < scan_limit_cap then more := false);
      let chunk = ref [] and len = ref 0 in
      List.iter
        (fun (k, v) ->
          if Shard.slot_of t.store k = slot then begin
            moved := k :: !moved;
            incr nmoved;
            chunk := (k, v) :: !chunk;
            incr len;
            if !len >= t.batch_cap then begin
              flush !chunk; chunk := []; len := 0
            end
          end)
        page;
      flush !chunk
    done;
    (* Phase 2 — flip: under both mailbox locks, re-point queued
       requests on the slot at the target (in queue order, ahead of
       nothing the target has not already committed — the copy was
       fully acked above), drop the moved keys from the source cache,
       and swap in the new table. Submitters re-check the table under
       the mailbox lock, so after the unlock no slot request can land
       here. *)
    let dbox = t.boxes.(dst) in
    Mutex.lock box.mu;
    Mutex.lock dbox.mu;
    let keep = Queue.create () in
    let nfwd = ref 0 in
    while not (Queue.is_empty box.q) do
      let ((req, tk) as item) = Queue.pop box.q in
      let goes =
        match req with
        | Put { key; _ } | Get key | Remove key ->
          Shard.slot_of t.store key = slot
        | Scan _ -> false
      in
      if goes then begin
        tk.tk_shard <- dst;
        Queue.push item dbox.q;
        incr nfwd
      end
      else Queue.push item keep
    done;
    Queue.transfer keep box.q;
    List.iter (fun k -> Spp_pmemkv.Engine.cache_invalidate kv k) !moved;
    Shard.set_slot_owner t.store ~slot ~shard:dst;
    (* wake awaiters parked on this box so they chase their forwarded
       tickets to the target *)
    if !nfwd > 0 then Condition.broadcast box.done_;
    Mutex.unlock dbox.mu;
    Mutex.unlock box.mu;
    Atomic.set t.forwarded (Atomic.get t.forwarded + !nfwd);
    (* the re-pointed requests may sit on an unheld target: drain it *)
    if !nfwd > 0 then settle t dst;
    (* Phase 3 — delete: group-committed remove batches on the source
       engine (this domain holds it). The batch observer fires, so the
       source's replica sees the departures too. The slot already
       routes to the target, so nothing can read these keys here. *)
    let rec delete = function
      | [] -> ()
      | keys ->
        let n = min t.batch_cap (List.length keys) in
        let chunk = Array.make n (Spp_pmemkv.Engine.B_get "") in
        let rest = ref keys in
        for j = 0 to n - 1 do
          (match !rest with
           | k :: tl -> chunk.(j) <- Spp_pmemkv.Engine.B_remove k; rest := tl
           | [] -> assert false)
        done;
        ignore (Spp_pmemkv.Engine.run_batch kv chunk);
        delete !rest
    in
    delete !moved;
    Atomic.incr t.migrations;
    Atomic.set t.keys_moved (Atomic.get t.keys_moved + !nmoved);
    Ok
      { mig_slot = slot; mig_from = i; mig_to = dst; mig_keys = !nmoved;
        mig_batches = !nbatches; mig_forwarded = !nfwd }
  with e -> Error (Printexc.to_string e)

let mk_box batch_cap =
  { mu = Mutex.create (); done_ = Condition.create (); q = Queue.create ();
    peak_q = 0; stop = false; failed = false; held = false;
    ops = Atomic.make 0; batches = 0; max_batch = 0; nfailed = 0;
    busy = Atomic.make 0.;
    hist = Spp_benchlib.Histogram.create ();
    items = Array.make batch_cap idle;
    opbuf = Array.make batch_cap (Spp_pmemkv.Engine.B_get "") }

let create ?(batch_cap = 32) ?(adaptive = true) ?replication store =
  if batch_cap <= 0 then invalid_arg "Serve.create: batch_cap must be positive";
  let n = Shard.nshards store in
  { store; boxes = Array.init n (fun _ -> mk_box batch_cap);
    repl =
      (match replication with
       | None -> Array.make n None
       | Some cfg ->
         (* One group per shard, installed before any batched traffic:
            the replica images snapshot the store as preloaded. *)
         Array.init n (fun i ->
           let pool =
             (Shard.shard_access (Shard.shard store i)).Spp_access.pool
           in
           Some
             (Replica.create ~cfg ~engine:(Shard.engine store) ~shard:i
                pool)));
    batch_cap; adaptive;
    (* The read fast path answers a cache-hit [Get] on the submitting
       thread, skipping the mailbox. It is safe from any domain — the
       probe touches only the volatile Rcache, never the shard's
       single-domain simulator state — but it makes batch boundaries
       depend on cache contents, so deterministic mode ([adaptive =
       false], the differential-test configuration) keeps every request
       on the mailbox path. *)
    bypass = adaptive && Shard.cache_enabled store;
    bypassed = Atomic.make 0;
    promotions = Atomic.make 0;
    mig_mu = Mutex.create ();
    slot_ops = Array.init (Shard.nslots store) (fun _ -> Atomic.make 0);
    migrations = Atomic.make 0;
    forwarded = Atomic.make 0;
    keys_moved = Atomic.make 0;
    stopped = false }

(* Scatter-gather ordered scan: one [Scan] request per shard rides the
   normal mailbox/batch path (so it group-commits with the writes
   around it and observes exactly the committed prefix), then the
   per-shard sorted slices merge on the calling domain. The whole scan
   holds [mig_mu], so no flip can move a slot between the slices — a
   key is reported by exactly the shard that owns it for the whole
   scan; slices are ownership-filtered anyway so leftover copies from
   a failed migration can never double-report. A shard that failed
   over mid-scan surfaces as [Error]. *)
let scan t ~lo ~hi ~limit =
  let limit = max 0 (min limit scan_limit_cap) in
  let req = Scan { lo; hi; limit } in
  Mutex.lock t.mig_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mig_mu) @@ fun () ->
  let tks =
    Array.init (Shard.nshards t.store) (fun i -> submit_to t i req)
  in
  let slices = Array.map (fun tk -> await t tk) tks in
  let assign = Shard.assignment t.store in
  let ok = ref [] and failed = ref None in
  Array.iteri
    (fun i r ->
      match r with
      | Scanned kvs ->
        ok :=
          List.filter (fun (k, _) -> assign.(Shard.slot_of t.store k) = i) kvs
          :: !ok
      | Failed f -> if !failed = None then failed := Some f
      | _ -> ())
    slices;
  match !failed with
  | Some f -> Error f
  | None -> Ok (Spp_pmemkv.Engine.merge_scans ~limit !ok)

let bypassed_gets t = Atomic.get t.bypassed

let cache_stats t = Shard.merged_cache_stats t.store

(* ------------------------------------------------------------------ *)
(* Resharding                                                          *)
(* ------------------------------------------------------------------ *)

exception Migration_failed of { slot : int; reason : string }

let () =
  Printexc.register_printer (function
    | Migration_failed { slot; reason } ->
      Some
        (Printf.sprintf "Serve.Migration_failed: slot %d: %s" slot reason)
    | _ -> None)

(* Move [slot] to [dst]: wait for the current owner's hold and run
   copy -> flip -> delete on this domain (see [do_migrate]); [mig_mu] is
   held across the whole call, so migrations are serialized and
   whole-store scans never straddle a flip. *)
let migrate_slot t ~slot ~dst =
  if slot < 0 || slot >= Shard.nslots t.store then
    invalid_arg "Serve.migrate_slot: slot out of range";
  if dst < 0 || dst >= Shard.nshards t.store then
    invalid_arg "Serve.migrate_slot: target shard out of range";
  if t.stopped then invalid_arg "Serve.migrate_slot: pipeline stopped";
  Mutex.lock t.mig_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mig_mu) @@ fun () ->
  let src = Shard.owner t.store slot in
  if src = dst then
    { mig_slot = slot; mig_from = src; mig_to = dst; mig_keys = 0;
      mig_batches = 0; mig_forwarded = 0 }
  else
    match exclusively t src (fun () -> do_migrate t src (slot, dst)) with
    | Ok r -> r
    | Error reason -> raise (Migration_failed { slot; reason })

let migrations t = Atomic.get t.migrations
let forwarded t = Atomic.get t.forwarded
let keys_moved t = Atomic.get t.keys_moved

let slot_op_counts t = Array.map Atomic.get t.slot_ops
let ops_counts t = Array.map (fun b -> Atomic.get b.ops) t.boxes
let busy_times t = Array.map (fun b -> Atomic.get b.busy) t.boxes

let queue_depths t =
  Array.map
    (fun b ->
      Mutex.lock b.mu;
      let d = Queue.length b.q in
      Mutex.unlock b.mu;
      d)
    t.boxes

let peak_queue_depths t =
  Array.map
    (fun b ->
      Mutex.lock b.mu;
      let d = b.peak_q in
      Mutex.unlock b.mu;
      d)
    t.boxes

(* ------------------------------------------------------------------ *)
(* Failover                                                            *)
(* ------------------------------------------------------------------ *)

let shard_failed t i = t.boxes.(i).failed

let promotions t = Atomic.get t.promotions

(* Promote a replica of shard [i], holding the shard. Requests queued
   meanwhile resolve [Failed Failed_over] (dead primary, drained before
   the promotion took the shard) or execute on the promoted stack. *)
let promote ?(cache_cap = 0) t i =
  if i < 0 || i >= Shard.nshards t.store then
    invalid_arg "Serve.promote: shard index out of range";
  if t.repl.(i) = None then raise (Not_replicated i);
  if t.stopped then invalid_arg "Serve.promote: pipeline already stopped";
  match exclusively t i (fun () -> do_promote t i cache_cap) with
  | Ok p -> p
  | Error reason -> raise (Replica.Promotion_failed { shard = i; reason })

let replication_stats t =
  Array.to_list t.repl
  |> List.filter_map (Option.map Replica.stats)

let replication_lag t =
  Array.fold_left
    (fun acc g ->
      match g with
      | None -> acc
      | Some g -> Spp_benchlib.Histogram.merge acc (Replica.lag_hist g))
    (Spp_benchlib.Histogram.create ())
    t.repl

(* Refuse new submissions, then hold and drain every shard in turn.
   Safe to call once; afterwards [stats]/[merged_*] read race-free. *)
let stop t =
  if not t.stopped then begin
    Array.iter (fun box -> Mutex.protect box.mu (fun () -> box.stop <- true))
      t.boxes;
    Array.iteri (fun i _ -> exclusively t i ignore) t.boxes;
    (* join the applier domains, promoted groups' parked ones included:
       lag histograms read race-free *)
    Array.iter (Option.iter Replica.seal) t.repl;
    t.stopped <- true
  end

let stats t =
  if not t.stopped then invalid_arg "Serve.stats: stop the pipeline first";
  Array.mapi
    (fun i b ->
      { ss_shard = i; ss_ops = Atomic.get b.ops; ss_batches = b.batches;
        ss_max_batch = b.max_batch; ss_failed = b.nfailed;
        ss_busy = Atomic.get b.busy;
        ss_hist = b.hist })
    t.boxes

let merged_hist t =
  Array.fold_left
    (fun acc s -> Spp_benchlib.Histogram.merge acc s.ss_hist)
    (Spp_benchlib.Histogram.create ())
    (stats t)

let total_batches t =
  Array.fold_left (fun a s -> a + s.ss_batches) 0 (stats t)

let total_failed t =
  Array.fold_left (fun a s -> a + s.ss_failed) 0 (stats t)

let store t = t.store

(* ------------------------------------------------------------------ *)
(* Deterministic baseline + reply digests for the differential          *)
(* ------------------------------------------------------------------ *)

(* The same per-shard request streams executed synchronously on the
   calling domain, chunked at exactly [batch_cap], through the identical
   group-commit path. Against a [create ~adaptive:false] pipeline that
   was fully pre-enqueued before the first [await], batch boundaries
   match, so replies, Space stats and Memdev counters must all be
   bit-identical. A chunk whose batch raises answers each of its
   requests as the pipeline answers a drain that raised. *)
let run_sequential ?(use_cache = true) store ~batch_cap streams =
  if Array.length streams <> Shard.nshards store then
    invalid_arg "Serve.run_sequential: stream count <> shard count";
  let run_chunk kv ops =
    match Spp_pmemkv.Engine.run_batch kv ops with
    | replies -> Array.map of_engine_reply replies
    | exception e -> Array.make (Array.length ops) (op_raised e)
  in
  Array.mapi
    (fun i reqs ->
      let kv = Shard.shard_kv (Shard.shard store i) in
      let cached = use_cache && Spp_pmemkv.Engine.cache kv <> None in
      let n = Array.length reqs in
      let out = Array.make n Done in
      let pos = ref 0 in
      while !pos < n do
        (* Chunk boundaries sit at fixed *request* positions, whether or
           not some gets get peeled off by the cache below — so the
           partition of mutations into group commits, and with it every
           Memdev counter, is a pure function of the request stream,
           identical cache-on and cache-off. (Gets stage no redo
           entries, so peeling them changes no fence schedule either.) *)
        let len = min batch_cap (n - !pos) in
        if not cached then begin
          let chunk =
            Array.init len (fun j -> to_engine_op reqs.(!pos + j))
          in
          Array.blit (run_chunk kv chunk) 0 out !pos len
        end
        else begin
          (* Peel cache-hit gets in request order. A mutation must
             invalidate *at collection time*: a later same-chunk get
             would otherwise hit the pre-mutation cached value instead
             of observing the staged op inside the batch. *)
          let kept = ref [] and nkept = ref 0 in
          for j = 0 to len - 1 do
            let idx = !pos + j in
            match reqs.(idx) with
            | Get key as r ->
              (match Spp_pmemkv.Engine.cache_probe kv key with
               | Some v -> out.(idx) <- Value (Some v)
               | None -> kept := (idx, to_engine_op r) :: !kept; incr nkept)
            | (Put { key; _ } | Remove key) as r ->
              Spp_pmemkv.Engine.cache_invalidate kv key;
              kept := (idx, to_engine_op r) :: !kept; incr nkept
            | Scan _ as r ->
              (* cache-bypassing: always executes in the batch *)
              kept := (idx, to_engine_op r) :: !kept; incr nkept
          done;
          if !nkept > 0 then begin
            let kept = Array.of_list (List.rev !kept) in
            Array.iteri
              (fun j r -> out.(fst kept.(j)) <- r)
              (run_chunk kv (Array.map snd kept))
          end
        end;
        pos := !pos + len
      done;
      out)
    streams

(* Order-sensitive digest of a reply stream: two executions agree only
   if every reply matched in order and shape. *)
let digest_replies replies =
  let d = ref 0x1505 in
  let mix v = d := (!d * 0x01000193) lxor v in
  Array.iter
    (fun r ->
      match r with
      | Done -> mix 1
      | Value (Some v) -> mix (String.length v + Char.code v.[0])
      | Value None -> mix 0x7F
      | Removed true -> mix 3
      | Removed false -> mix 0x3F
      | Scanned kvs ->
        mix 0x5C;
        List.iter
          (fun (k, v) ->
            mix (String.length k + Char.code k.[0]);
            mix (String.length v + (if v = "" then 0 else Char.code v.[0])))
          kvs
      | Failed (Op_raised _) -> mix 0x11
      | Failed Failed_over -> mix 0x13)
    replies;
  !d land max_int

(* ------------------------------------------------------------------ *)
(* Pretty-printing (divergence reports, sppctl)                        *)
(* ------------------------------------------------------------------ *)

let pp_request ppf = function
  | Put { key; value } ->
    Format.fprintf ppf "Put(%s, %dB)" key (String.length value)
  | Get key -> Format.fprintf ppf "Get(%s)" key
  | Remove key -> Format.fprintf ppf "Remove(%s)" key
  | Scan { lo; hi; limit } ->
    Format.fprintf ppf "Scan(%s..%s, limit %d)" lo hi limit

let pp_reply ppf = function
  | Done -> Format.pp_print_string ppf "Done"
  | Value (Some v) -> Format.fprintf ppf "Value(%dB)" (String.length v)
  | Value None -> Format.pp_print_string ppf "Value(none)"
  | Removed b -> Format.fprintf ppf "Removed(%b)" b
  | Scanned kvs ->
    (match (kvs, List.rev kvs) with
     | [], _ | _, [] -> Format.pp_print_string ppf "Scanned(0 entries)"
     | (first, _) :: _, (last, _) :: _ ->
       Format.fprintf ppf "Scanned(%d entries, %s..%s)" (List.length kvs)
         first last)
  | Failed (Op_raised e) -> Format.fprintf ppf "Failed(op raised: %s)" e
  | Failed Failed_over -> Format.pp_print_string ppf "Failed(failed over)"
