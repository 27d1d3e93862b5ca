(* wirebench — one process of the served-path benchmark; perfbench/run.py
   drives it.

   Builds a 2-shard store, preloads it through [Serve.run_sequential] on
   one domain, starts the [Serve] pipeline and a [Net_server] on a
   unix-domain socket, connects one [Net_client] (pool 1) and prints
   READY. The main thread then paces a YCSB mix over that connection.

     wirebench.exe setup --workload W --seed N --sock PATH
       set up, print READY, tear down
     wirebench.exe run --workload W --seed N --seconds S --trace 0|1 --sock PATH
       set up, print READY, measure, print one JSON line of metrics

   [--trace 0] measures the end-to-end metrics over open-loop rounds at
   the workload's fixed rate, latency running from each op's intended
   send time; times are reported as multiples of a host round trip
   measured before each round (see "Host reference"). [--trace 1]
   times the calls into each layer's public functions from this file,
   replays the same ops in-process ([Serve.submit]/[Serve.await]) and on
   one domain ([Serve.run_sequential ~use_cache:false]), and reports the
   per-layer metrics; the single-domain replay's counts are a pure
   function of the seed.

   Every reply is checked against a DRAM model of the op stream, and
   after [Serve.stop] every shard's durable image is reopened and every
   acked write read back; a mismatch counts as a failed op and makes the
   run incorrect. Memdev store tracking stays off, as the serving stack
   runs it. *)

open Spp_shard
open Spp_net
module Engine = Spp_pmemkv.Engine
module Ycsb = Spp_benchlib.Ycsb
module Histogram = Spp_benchlib.Histogram
module Space = Spp_sim.Space
module Memdev = Spp_sim.Memdev
module Runtime = Spp_core.Runtime
module Pool = Spp_pmdk.Pool
module SMap = Map.Make (String)

let now = Spp_benchlib.Bench_util.now_mono

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  w_name : string;
  w_letter : Ycsb.letter;
  w_keys : int;        (* preloaded keys *)
  w_cache : int;       (* read-cache entries per shard; 0 = none *)
  w_replicas : int;    (* semi-sync replicas per shard; 0 = none *)
  w_rate : float;      (* open-loop arrival rate, op/s *)
}

(* Why each workload exists is recorded in BENCHMARK.json next to its
   name, with these sizes and rates. Each rate is under a tenth of the
   workload's closed-loop throughput over the same connection (window
   32) on a 2-core host: at a third of it, b-hot's per-round p95 ranged
   from 65 us to 620 us between rounds. *)
let workloads =
  [ { w_name = "b-hot"; w_letter = Ycsb.B; w_keys = 20_000; w_cache = 4096;
      w_replicas = 0; w_rate = 8_000. };
    { w_name = "a-repl"; w_letter = Ycsb.A; w_keys = 32_000; w_cache = 512;
      w_replicas = 1; w_rate = 3_000. } ]

let nshards = 2
let value_size = 256
let pool_size = 1 lsl 24
let round_s = 0.5       (* length of one measuring round, s *)
let batch_cap = 32      (* Serve's default group-commit cap *)
let nbuckets = 8192     (* cmap buckets per shard *)
let engine = Spp_pmemkv.Engines.cmap

let key_of = Spp_pmemkv.Db_bench.key_of_int

let filler = String.init value_size (fun i -> Char.chr (97 + (i * 7 mod 26)))

(* A value unique to (seed, tag), so a stale or misrouted read shows. *)
let value_of ~seed tag =
  let b = Bytes.of_string filler in
  let t = Printf.sprintf "%x/%d;" seed tag in
  Bytes.blit_string t 0 b 0 (String.length t);
  Bytes.unsafe_to_string b

(* Op stream: a pure function of (workload, seed). [g_n] numbers the
   ops so every put writes a fresh value. Both mixes are gets and puts,
   so every op is one request. *)
type gen = { g_y : Ycsb.t; g_seed : int; mutable g_n : int }

let gen w ~seed =
  { g_y = Ycsb.create ~letter:w.w_letter ~seed ~universe:w.w_keys ();
    g_seed = seed; g_n = 0 }

let next g =
  g.g_n <- g.g_n + 1;
  (Loadgen.ycsb_next g.g_y ~key:key_of ~value:(value_of ~seed:g.g_seed) g.g_n).(0)

(* ------------------------------------------------------------------ *)
(* DRAM model and reply checks                                         *)
(* ------------------------------------------------------------------ *)

(* One connection carries every op, and the server applies each key's
   ops in arrival order (per-shard FIFO mailboxes, cache invalidation at
   submit), so every reply must equal what the model gives at the
   moment the op was sent. *)
type expect =
  | X_put of int            (* user bytes once acked *)
  | X_get of string option

type model = {
  mutable m : string SMap.t;
  mutable attempted : int;
  mutable failed : int;
  mutable bytes_in : int;    (* key+value bytes of acked puts *)
  mutable bytes_out : int;   (* value bytes returned *)
}

let expect md = function
  | Serve.Put { key; value } ->
    md.m <- SMap.add key value md.m;
    X_put (String.length key + String.length value)
  | Serve.Get k -> X_get (SMap.find_opt k md.m)
  | Serve.Remove _ | Serve.Scan _ -> invalid_arg "wirebench: not generated"

let reported = ref 0

let check md x r =
  md.attempted <- md.attempted + 1;
  let ok =
    match x, r with
    | X_put n, Serve.Done -> md.bytes_in <- md.bytes_in + n; true
    | X_get e, Serve.Value v when v = e ->
      Option.iter (fun s -> md.bytes_out <- md.bytes_out + String.length s) v;
      true
    | _ -> false
  in
  if not ok then begin
    md.failed <- md.failed + 1;
    if !reported < 5 then begin
      incr reported;
      let head = function Some v -> String.sub v 0 (min 16 (String.length v)) | None -> "none" in
      match x, r with
      | X_get e, Serve.Value v ->
        Format.eprintf "wirebench: wrong get reply: want %s, got %s@." (head e) (head v)
      | _ -> Format.eprintf "wirebench: wrong reply %a@." Serve.pp_reply r
    end
  end

(* ------------------------------------------------------------------ *)
(* Store, server, client                                               *)
(* ------------------------------------------------------------------ *)

(* A fresh store preloaded on the calling domain through the
   group-commit path, plus the model of its contents. *)
let build_store w ~seed ~cached =
  let store =
    Shard.create ~nbuckets ~pool_size
      ~cache_cap:(if cached then w.w_cache else 0)
      ~engine ~nshards Spp_access.Spp
  in
  let streams = Array.make nshards [] and m = ref SMap.empty in
  for k = w.w_keys - 1 downto 0 do
    let key = key_of k and value = value_of ~seed (-1 - k) in
    let s = Shard.shard_of_key ~nshards key in
    streams.(s) <- Serve.Put { key; value } :: streams.(s);
    m := SMap.add key value !m
  done;
  ignore
    (Serve.run_sequential store ~batch_cap (Array.map Array.of_list streams));
  (store, !m)

type live = {
  store : Shard.t;
  sv : Serve.t;
  srv : Net_server.t;
  client : Net_client.t;
}

let replication w =
  if w.w_replicas = 0 then None
  else
    Some
      { Replica.default_config with
        Replica.replicas = w.w_replicas; policy = Replica.Semi_sync;
        threaded = false }

(* Domains the server side of the process runs: one worker per shard,
   the acceptor, and a reader and a writer for the one connection.
   Replicas apply inline on their shard's worker: applier domains would
   add two more to the program's one CPU, and with them a-repl's p90
   spread over ten runs was 27%. *)
let server_domains = nshards + 1 + 2

let start w ~seed ~sock =
  let store, m = build_store w ~seed ~cached:(w.w_cache > 0) in
  Gc.compact ();
  let sv = Serve.create ~batch_cap ?replication:(replication w) store in
  let srv = Net_server.create sv (Unix.ADDR_UNIX sock) in
  let client = Net_client.connect ~pool:1 (Net_server.addr srv) in
  ({ store; sv; srv; client }, m)

(* A domain spawned during set-up — so it runs on the program's CPU, not
   the pacer's — that waits for one job; [hand f] starts [f] on it and
   returns the join. *)
let spare () =
  let mu = Mutex.create () and cv = Condition.create () and job = ref None in
  let d =
    Domain.spawn (fun () ->
      Mutex.lock mu;
      while !job = None do Condition.wait cv mu done;
      Mutex.unlock mu;
      Option.get !job ())
  in
  fun f ->
    Mutex.lock mu;
    job := Some f;
    Condition.signal cv;
    Mutex.unlock mu;
    fun () -> Domain.join d

let stop live =
  Net_client.close live.client;
  Net_server.stop live.srv;
  Serve.stop live.sv

(* ------------------------------------------------------------------ *)
(* Clocks and process counters                                         *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)

(* CPU seconds of the calling thread, from its scheduler run time (ns). *)
let thread_cpu () =
  Scanf.sscanf (read_file "/proc/thread-self/schedstat") "%f" (fun ns -> ns /. 1e9)

let process_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec loop () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> loop ()
    | exception End_of_file -> 0.
  in
  loop ()

(* Exact nearest-rank percentile of raw samples. *)
let pct samples q =
  let n = Array.length samples in
  if n = 0 then 0.
  else begin
    let s = Array.copy samples in
    Array.sort Float.compare s;
    let rank = int_of_float (ceil (q /. 100. *. float_of_int n)) in
    s.(min (max rank 1) n - 1)
  end

let median xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then 0. else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* Pacer                                                               *)
(* ------------------------------------------------------------------ *)

(* [Unix.sleepf] overshoots its target. The pacer sleeps to [margin]
   before each due time and spins the rest; the margin is the
   99th-percentile overshoot of short sleeps measured at start, plus
   slack. *)
let calibrate_margin () =
  let over =
    Array.init 200 (fun _ ->
      let t = now () in
      Unix.sleepf 20e-6;
      now () -. t -. 20e-6)
  in
  Float.min 500e-6 (Float.max 5e-6 (pct over 99. +. 2e-6))

let wait_until ~margin due =
  let ahead = due -. now () in
  if ahead > margin then Unix.sleepf (ahead -. margin);
  while now () < due do
    Domain.cpu_relax ()
  done

(* ------------------------------------------------------------------ *)
(* Host reference                                                      *)
(* ------------------------------------------------------------------ *)

(* The speed of a shared host drifts by a third and more over minutes,
   and every time the program takes drifts with it. The reference is a
   one-byte round trip through two pipes between the pacer and an echo
   domain on the program's CPU: the same cross-CPU wake-up and blocking
   reads every op pays, in code the program does not own. End-to-end
   times are reported as multiples of it, measured in the same run. *)
type echo = {
  e_out : Unix.file_descr;    (* pacer -> echo *)
  e_in : Unix.file_descr;     (* echo -> pacer *)
  e_dom : unit Domain.t;
}

(* Spawned during set-up, so it runs on the program's CPU. *)
let echo_start () =
  let ar, aw = Unix.pipe () and br, bw = Unix.pipe () in
  let e_dom =
    Domain.spawn (fun () ->
      let b = Bytes.create 1 in
      while Unix.read ar b 0 1 = 1 && Bytes.get b 0 = 'p' do
        ignore (Unix.write bw b 0 1)
      done;
      Unix.close ar;
      Unix.close bw)
  in
  { e_out = aw; e_in = br; e_dom }

let echo_stop e =
  ignore (Unix.write_substring e.e_out "q" 0 1);
  Domain.join e.e_dom;
  Unix.close e.e_out;
  Unix.close e.e_in

(* Seconds per round trip: the median of three passes of 200. *)
let round_trip e =
  let b = Bytes.make 1 'p' in
  let pass () =
    let t = now () in
    for _ = 1 to 200 do
      ignore (Unix.write e.e_out b 0 1);
      ignore (Unix.read e.e_in b 0 1)
    done;
    (now () -. t) /. 200.
  in
  median (Array.init 3 (fun _ -> pass ()))

(* ------------------------------------------------------------------ *)
(* Wire phases                                                         *)
(* ------------------------------------------------------------------ *)

type open_result = {
  o_n : int;
  o_lat : float array;     (* done - intended, s *)
  o_svc : float array;     (* done - actual send, s *)
  o_late : float array;    (* actual send - due, s (traced) *)
  o_send : float array;    (* time inside Net_client.send, s (traced) *)
  o_reqs : Serve.request array;
  o_replies : Serve.reply array;
  o_cpu : float;           (* process CPU minus pacer CPU, s *)
  o_pacer_cpu : float;
  o_wall : float;
  o_bytes_in : int;
  o_bytes_out : int;
}

(* Client discipline: at most one op in flight per key. With two
   pipelined ops on one key, a cached store can answer a later get from
   the post-commit cache fill of the earlier op while a newer put to the
   key is still queued — a stale read. A client that waits for a key's
   previous reply before reusing the key never meets that race, and the
   wait, if any, counts in the op's latency. *)
let serialize tbl req ~pending ~wait =
  match Hashtbl.find_opt tbl (Serve.request_key req) with
  | Some f when pending f -> wait f
  | _ -> ()

let note tbl req f = Hashtbl.replace tbl (Serve.request_key req) f

let net_pending fu = Option.is_none (Net_client.peek fu)

let rec done_time fu =
  let d = Net_client.done_at fu in
  if d > 0. then d else (Domain.cpu_relax (); done_time fu)

(* Open loop: op [i] is due at [t0 + i/rate] whatever the server does.
   The ops and their expected replies are drawn before the phase, so the
   pacer allocates next to nothing while it runs; latency runs from the
   due time to the client reader's decode stamp. Replies are checked
   after the phase. *)
let open_loop ~traced ~margin live g md ~rate ~n =
  let reqs = Array.init n (fun _ -> next g) in
  let xs = Array.map (expect md) reqs in
  let tn = if traced then n else 0 in
  let late = Array.make tn 0. and send = Array.make tn 0. in
  let dues = Array.make n 0. and sent = Array.make n 0. in
  let futs = Array.make n None and keys = Hashtbl.create 4096 in
  let in0 = md.bytes_in and out0 = md.bytes_out in
  let cpu0 = process_cpu () and pcpu0 = thread_cpu () in
  let t0 = now () +. 1e-3 in
  for i = 0 to n - 1 do
    let req = reqs.(i) in
    let due = t0 +. (fi i /. rate) in
    dues.(i) <- due;
    serialize keys req ~pending:net_pending
      ~wait:(fun fu -> ignore (Net_client.await live.client fu));
    wait_until ~margin due;
    let t = now () in
    let fu = Net_client.send live.client req in
    sent.(i) <- t;
    if traced then begin
      send.(i) <- now () -. t;
      late.(i) <- t -. due
    end;
    futs.(i) <- Some fu;
    note keys req fu
  done;
  let replies =
    Array.map
      (fun fu ->
        let fu = Option.get fu in
        (Net_client.await live.client fu, fu))
      futs
  in
  let t_end = now () in
  let pacer_cpu = thread_cpu () -. pcpu0 in
  let cpu = process_cpu () -. cpu0 -. pacer_cpu in
  let dones = Array.map (fun (_, fu) -> done_time fu) replies in
  Array.iteri (fun j (r, _) -> check md xs.(j) r) replies;
  { o_n = n; o_lat = Array.mapi (fun j d -> d -. dues.(j)) dones;
    o_svc = Array.mapi (fun j d -> d -. sent.(j)) dones; o_late = late; o_send = send;
    o_reqs = reqs; o_replies = Array.map fst replies; o_cpu = cpu; o_pacer_cpu = pacer_cpu;
    o_wall = t_end -. t0; o_bytes_in = md.bytes_in - in0;
    o_bytes_out = md.bytes_out - out0 }

(* ------------------------------------------------------------------ *)
(* Traced replays                                                      *)
(* ------------------------------------------------------------------ *)

type inproc_result = { i_submit : float array; i_await : float array }

(* The traced phase's op stream again, at the same rate, submitted
   in-process by the pacer; a collector domain awaits the tickets in
   submission order — as the server's per-connection writer does — and
   stamps each completion. *)
let inproc ~hand ~margin live md ~rate reqs =
  let sv = live.sv and n = Array.length reqs in
  let xs = Array.map (expect md) reqs and tickets = Array.make n None in
  let actual = Array.make n 0. and dones = Array.make n 0. in
  let submit_t = Array.make n 0. and replies = Array.make n Serve.Done in
  let submitted = Atomic.make 0 and keys = Hashtbl.create 4096 in
  let mu = Mutex.create () and cond = Condition.create () in
  let join =
    hand (fun () ->
      for j = 0 to n - 1 do
        if Atomic.get submitted <= j then begin
          Mutex.lock mu;
          while Atomic.get submitted <= j do Condition.wait cond mu done;
          Mutex.unlock mu
        end;
        replies.(j) <- Serve.await sv (Option.get tickets.(j));
        dones.(j) <- now ()
      done)
  in
  let t0 = now () +. 1e-3 in
  for i = 0 to n - 1 do
    let req = reqs.(i) in
    let due = t0 +. (fi i /. rate) in
    serialize keys req
      ~pending:(fun tk -> Option.is_none (Serve.peek tk))
      ~wait:(fun tk -> ignore (Serve.await sv tk));
    wait_until ~margin due;
    let t = now () in
    let tk = Serve.submit sv req in
    submit_t.(i) <- now () -. t;
    tickets.(i) <- Some tk;
    note keys req tk;
    actual.(i) <- t;
    Mutex.lock mu;
    Atomic.set submitted (i + 1);
    Condition.signal cond;
    Mutex.unlock mu
  done;
  join ();
  Array.iteri (fun j r -> check md xs.(j) r) replies;
  { i_submit = submit_t; i_await = Array.mapi (fun j d -> d -. actual.(j)) dones }

type replay = {
  r_digest : int;
  r_wall : float;
  r_space : Space.stats;
  r_memdev : Memdev.counters;
  r_checks : int;
  r_tags : int;
  r_minor : float;
  r_major : int;
}

(* The op stream on a fresh store, on this domain only, through the
   pure PM path: every count is a function of the stream alone. *)
let replay w ~seed reqs =
  let store, _ = build_store w ~seed ~cached:false in
  let streams = Array.make nshards [] in
  Array.iter
    (fun r ->
      let s = Shard.shard_of_key ~nshards (Serve.request_key r) in
      streams.(s) <- r :: streams.(s))
    reqs;
  let streams = Array.map (fun l -> Array.of_list (List.rev l)) streams in
  Gc.compact ();
  Shard.reset_stats store;
  Runtime.reset_counters ();
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = now () in
  let out = Serve.run_sequential ~use_cache:false store ~batch_cap streams in
  let wall = now () -. t0 in
  let minor = Gc.minor_words () -. minor0 in
  let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let rt = Runtime.local_counters () in
  { r_digest = Hashtbl.hash (Array.map Serve.digest_replies out);
    r_wall = wall;
    r_space = Shard.merged_stats store; r_memdev = Shard.merged_counters store;
    r_checks = rt.Runtime.checkbound + rt.Runtime.memintr_check;
    r_tags = rt.Runtime.updatetag; r_minor = minor; r_major = major }

(* The traced phase's request and reply streams through [Wire]: best of
   three passes, seconds per op for encoding and decoding both. *)
let wire_replay reqs replies =
  let n = Array.length reqs in
  let buf = Buffer.create 4096 in
  let frames enc xs =
    let all = Buffer.create (1 lsl 16) in
    Array.iteri (fun i x -> enc all ~corr:i x) xs;
    Buffer.contents all
  in
  let req_bytes = frames Wire.encode_request reqs in
  let rep_bytes = frames Wire.encode_reply replies in
  let time_encode () =
    let t = now () in
    Array.iteri (fun i r -> Buffer.clear buf; Wire.encode_request buf ~corr:i r) reqs;
    Array.iteri (fun i r -> Buffer.clear buf; Wire.encode_reply buf ~corr:i r) replies;
    now () -. t
  in
  let decode next s =
    let d = Wire.decoder () in
    let chunk = 65536 and len = String.length s and count = ref 0 in
    let b = Bytes.unsafe_of_string s in
    let off = ref 0 in
    while !off < len do
      let k = min chunk (len - !off) in
      Wire.feed d b ~off:!off ~len:k;
      off := !off + k;
      let go = ref true in
      while !go do
        match next d with
        | Wire.Msg _ -> incr count
        | Wire.Awaiting -> go := false
        | Wire.Corrupt e -> failwith ("wirebench: corrupt replay frame: " ^ e)
      done
    done;
    !count
  in
  let time_decode () =
    let t = now () in
    let a = decode Wire.next_request req_bytes in
    let b = decode Wire.next_reply rep_bytes in
    if a <> n || b <> n then failwith "wirebench: replay frame count";
    now () -. t
  in
  let best f = List.fold_left Float.min infinity (List.init 3 (fun _ -> f ())) in
  let enc = best time_encode and dec = best time_decode in
  (enc /. fi n, dec /. fi n,
   fi (String.length req_bytes + String.length rep_bytes) /. fi n)

(* ------------------------------------------------------------------ *)
(* Durability check                                                    *)
(* ------------------------------------------------------------------ *)

(* After [Serve.stop]: reopen every shard's durable image as a restart
   would and read every model key back. Returns the lost or wrong keys. *)
let verify_durable store m =
  let found = ref 0 and lost = ref 0 in
  for i = 0 to nshards - 1 do
    let sh = Shard.shard store i in
    let img = Memdev.durable_snapshot (Pool.dev (Shard.shard_access sh).Spp_access.pool) in
    let dev = Memdev.of_image ~name:(Printf.sprintf "reopen%d" i) img in
    let space = Space.create () in
    match Pool.open_dev space ~base:Spp_access.default_pool_base dev with
    | Error e ->
      Format.eprintf "wirebench: shard %d image does not reopen: %a@." i
        Pool.pp_pool_error e;
      lost := !lost + 1
    | Ok (pool, _) ->
      let kv =
        Engine.attach (Shard.engine store) (Spp_access.attach space pool)
          ~root:(Engine.root_oid (Shard.shard_kv sh))
      in
      found := !found + Engine.count_all kv;
      SMap.iter
        (fun k v ->
          if Shard.shard_of_key ~nshards k = i && Engine.get kv k <> Some v then
            incr lost)
        m
  done;
  !lost + abs (!found - SMap.cardinal m)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let heap_totals store =
  let alloc = ref 0 and free = ref 0 in
  for i = 0 to nshards - 1 do
    let h =
      Pool.heap_stats (Shard.shard_access (Shard.shard store i)).Spp_access.pool
    in
    alloc := !alloc + h.Spp_pmdk.Heap.allocated_bytes;
    free := !free + h.Spp_pmdk.Heap.free_blocks
  done;
  (!alloc, !free)

let live_bytes m = SMap.fold (fun k v a -> a + String.length k + String.length v) m 0

let emit ~correct md metrics =
  let open Spp_benchlib.Json_out in
  print_endline
    (to_string
       (J_obj
          [ ("correct", J_bool correct); ("attempted", J_int md.attempted);
            ("failed", J_int md.failed);
            ("metrics",
             J_obj
               (List.map
                  (fun (k, v) -> (k, J_float (if Float.is_finite v then v else 0.)))
                  metrics)) ]))

let us s = s *. 1e6

let ops_in w secs = max 1 (int_of_float (w.w_rate *. secs))

(* End-to-end metrics: open-loop rounds of [round_s] seconds, each
   after a reference round trip; each metric is the median over rounds,
   and the time metrics are divided by the median round trip. *)
let end_to_end w live g md ~margin ~echo ~seconds =
  let store = live.store in
  let nrounds = max 3 (int_of_float (seconds /. round_s)) in
  let rounds =
    Array.init nrounds (fun i ->
      let rtt = round_trip echo in
      let sp0 = Shard.merged_stats store in
      let o = open_loop ~traced:false ~margin live g md ~rate:w.w_rate
          ~n:(ops_in w (seconds /. fi nrounds)) in
      let sp1 = Shard.merged_stats store in
      let stored = sp1.Space.pm_bytes_stored - sp0.Space.pm_bytes_stored in
      let loaded = sp1.Space.pm_bytes_loaded - sp0.Space.pm_bytes_loaded in
      let r =
        [| us (pct o.o_lat 50.); us o.o_cpu /. fi o.o_n;
           ratio (fi stored) (fi o.o_bytes_in); ratio (fi loaded) (fi o.o_bytes_out);
           us rtt |]
      in
      Printf.printf "round %d: p50 %.2f us, %.2f us CPU/op, round trip %.2f us\n%!"
        i r.(0) r.(1) r.(4);
      r)
  in
  let med j = median (Array.map (fun r -> r.(j)) rounds) in
  let rtt = med 4 in
  Printf.printf "medians: p50 %.2f us, %.2f us CPU/op, round trip %.2f us\n%!"
    (med 0) (med 1) rtt;
  let rss = vm_hwm_mb () in
  stop live;
  let alloc, _ = heap_totals store in
  let lost = verify_durable store md.m in
  md.failed <- md.failed + lost;
  Printf.printf "lost writes: %d\n%!" lost;
  emit ~correct:(md.failed = 0) md
    [ ("p50_rtt", med 0 /. rtt);
      ("cpu_rtt_per_op", med 1 /. rtt);
      ("rss_mb", rss);
      ("write_amp", med 2);
      ("read_amp", med 3);
      ("space_amp", ratio (fi alloc) (fi (live_bytes md.m))) ];
  md.failed = 0

(* Per-layer metrics: an untraced and a traced open-loop phase over the
   wire, the traced phase's ops again in-process, its streams through
   [Wire], and three single-domain replays — two of the same ops, which
   must agree exactly, and one of another seed's, which must not. *)
let per_layer w ~seed live g md ~margin ~echo ~seconds ~hand =
  let store = live.store in
  let third = seconds /. 3. in
  let rtt = median (Array.init 5 (fun _ -> round_trip echo)) in
  let plain = open_loop ~traced:false ~margin live g md ~rate:w.w_rate ~n:(ops_in w third) in
  let sv = live.sv in
  let sumf = Array.fold_left ( +. ) 0. in
  let rc0 = Serve.cache_stats sv and by0 = Serve.bypassed_gets sv in
  let ops0 = Serve.ops_counts sv and busy0 = sumf (Serve.busy_times sv) in
  let seq0 = List.fold_left (fun a s -> a + s.Replica.rs_seq) 0 (Serve.replication_stats sv) in
  let o = open_loop ~traced:true ~margin live g md ~rate:w.w_rate ~n:(ops_in w third) in
  let n = fi o.o_n in
  let rc1 = Serve.cache_stats sv and by1 = Serve.bypassed_gets sv in
  let ops1 = Serve.ops_counts sv and busy1 = sumf (Serve.busy_times sv) in
  let rstats = Serve.replication_stats sv in
  let seq1 = List.fold_left (fun a s -> a + s.Replica.rs_seq) 0 rstats in
  let degraded = List.fold_left (fun a s -> a + s.Replica.rs_degraded_acks) 0 rstats in
  let queue_peak = Array.fold_left max 0 (Serve.peak_queue_depths sv) in
  let ip = inproc ~hand ~margin live md ~rate:w.w_rate o.o_reqs in
  let nstats = Net_server.stats live.srv in
  stop live;
  let lag = Serve.replication_lag sv in
  let st = Serve.stats sv in
  let batch_avg =
    ratio (fi (Array.fold_left (fun a s -> a + s.Serve.ss_ops) 0 st))
      (fi (Array.fold_left (fun a s -> a + s.Serve.ss_batches) 0 st))
  in
  let alloc, free_blocks = heap_totals store in
  let lost = verify_durable store md.m in
  md.failed <- md.failed + lost;
  let enc, dec, wire_bytes = wire_replay o.o_reqs o.o_replies in
  let r = replay w ~seed o.o_reqs in
  let r2 = replay w ~seed o.o_reqs in
  let other = let g' = gen w ~seed:(seed + 1) in Array.init o.o_n (fun _ -> next g') in
  let r3 = replay w ~seed:(seed + 1) other in
  let same =
    r.r_digest = r2.r_digest && r.r_space = r2.r_space && r.r_memdev = r2.r_memdev
    && r.r_checks = r2.r_checks && r.r_tags = r2.r_tags && r.r_minor = r2.r_minor
  in
  let differs = r.r_digest <> r3.r_digest in
  Printf.printf
    "replay digest %x (again %x, seed %d gives %x): same seed %s, other seed %s\n"
    r.r_digest r2.r_digest (seed + 1) r3.r_digest
    (if same then "identical" else "DIFFERS")
    (if differs then "differs" else "IDENTICAL");
  Printf.printf "replay counts: %d B loaded, %d B stored, %d fences, %d flushes, \
                 %.0f minor words, %d checks\n"
    r.r_space.Space.pm_bytes_loaded r.r_space.Space.pm_bytes_stored
    r.r_memdev.Memdev.fences r.r_memdev.Memdev.flushes r.r_minor r.r_checks;
  let svc_p50 = us (pct o.o_svc 50.) and await_p50 = us (pct ip.i_await 50.) in
  let overhead = us (pct o.o_lat 50.) -. us (pct plain.o_lat 50.) in
  Printf.printf "tracing overhead: traced p50 %.2f us - untraced p50 %.2f us = %.2f us; \
                 lost writes: %d\n%!"
    (us (pct o.o_lat 50.)) (us (pct plain.o_lat 50.)) overhead lost;
  let ops_delta = Array.map2 (fun a b -> b - a) ops0 ops1 in
  let omax = Array.fold_left max 0 ops_delta and omin = Array.fold_left min max_int ops_delta in
  let hits = rc1.Spp_pmemkv.Rcache.rc_hits - rc0.Spp_pmemkv.Rcache.rc_hits in
  let misses = rc1.Spp_pmemkv.Rcache.rc_misses - rc0.Spp_pmemkv.Rcache.rc_misses in
  let invals =
    rc1.Spp_pmemkv.Rcache.rc_invalidations - rc0.Spp_pmemkv.Rcache.rc_invalidations in
  let rn = fi (Array.length o.o_reqs) in
  let tlb = r.r_space.Space.tlb_hits and tlbm = r.r_space.Space.tlb_misses in
  let correct = md.failed = 0 && same && differs in
  emit ~correct md
    [ ("host.rtt_us", us rtt);
      ("pacer.late_p50_us", us (pct o.o_late 50.));
      ("pacer.late_p99_us", us (pct o.o_late 99.));
      ("pacer.cpu_us_per_op", us o.o_pacer_cpu /. n);
      ("net_client.send_us", us (pct o.o_send 50.));
      ("net_client.p50_us", us (pct o.o_lat 50.));
      ("net_client.svc_p50_us", svc_p50);
      ("net_client.svc_p95_us", us (pct o.o_svc 95.));
      ("net_client.p95_us", us (pct o.o_lat 95.));
      ("net_client.p99_us", us (pct o.o_lat 99.));
      ("net_client.p999_us", us (pct o.o_lat 99.9));
      ("wire.encode_ns", enc *. 1e9);
      ("wire.decode_ns", dec *. 1e9);
      ("wire.bytes_per_op", wire_bytes);
      ("net_server.overhead_p50_us", svc_p50 -. await_p50);
      ("net_server.replies_per_request",
       ratio (fi nstats.Net_server.sv_replies) (fi nstats.Net_server.sv_requests));
      ("serve.submit_ns", pct ip.i_submit 50. *. 1e9);
      ("serve.await_p50_us", await_p50);
      ("serve.await_p95_us", us (pct ip.i_await 95.));
      ("serve.batch_avg", batch_avg);
      ("serve.busy_frac", ratio (busy1 -. busy0) (fi nshards *. o.o_wall));
      ("serve.queue_peak", fi queue_peak);
      ("serve.bypass_frac", fi (by1 - by0) /. n);
      ("shard.ops_imbalance", ratio (fi omax) (fi (max omin 1)));
      ("rcache.hit_rate", ratio (fi hits) (fi (hits + misses)));
      ("rcache.invalidations_per_op", fi invals /. n);
      ("engine.ns_per_op", r.r_wall *. 1e9 /. rn);
      ("space.pm_bytes_loaded_per_op", fi r.r_space.Space.pm_bytes_loaded /. rn);
      ("space.pm_bytes_stored_per_op", fi r.r_space.Space.pm_bytes_stored /. rn);
      ("space.tlb_hit_rate", ratio (fi tlb) (fi (tlb + tlbm)));
      ("memdev.fences_per_op", fi r.r_memdev.Memdev.fences /. rn);
      ("memdev.flushes_per_op", fi r.r_memdev.Memdev.flushes /. rn);
      ("memdev.fences_saved_per_op", fi r.r_memdev.Memdev.fences_saved /. rn);
      ("runtime.checks_per_op", fi r.r_checks /. rn);
      ("runtime.tag_updates_per_op", fi r.r_tags /. rn);
      ("replica.lag_p50_us", fi (Histogram.p50 lag) /. 1e3);
      ("replica.lag_p99_us", fi (Histogram.p99 lag) /. 1e3);
      ("replica.commits_per_op", fi (seq1 - seq0) /. n);
      ("replica.degraded_acks", fi degraded);
      ("heap.allocated_bytes", fi alloc);
      ("heap.free_blocks", fi free_blocks);
      ("gc.minor_words_per_op", r.r_minor /. rn);
      ("gc.major_collections", fi r.r_major);
      ("trace.overhead_p50_us", overhead) ];
  correct

let run w ~seed ~seconds ~hand ~echo live m =
  let md = { m; attempted = 0; failed = 0; bytes_in = 0; bytes_out = 0 } in
  (* The pacer's sleeps overshoot by its thread's timer slack, 50 us by
     default; 1 us keeps the spin before each due time short. The main
     thread is the pacer, and /proc/self names its task. *)
  (try
     let oc = open_out "/proc/self/timerslack_ns" in
     Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "1000")
   with Sys_error _ -> ());
  let margin = calibrate_margin () in
  let g = gen w ~seed in
  Printf.printf
    "workload %s: %d keys, %d B values, cache %d/shard, %d replica(s)/shard, \
     %.0f op/s open loop, %d shards, %d server domains, sleep margin %.1f us\n%!"
    w.w_name w.w_keys value_size w.w_cache w.w_replicas w.w_rate nshards
    server_domains (us margin);
  (* untimed warm-up: fills the read cache and the allocator free lists *)
  ignore (open_loop ~traced:false ~margin live g md ~rate:w.w_rate ~n:(ops_in w 1.));
  let ok =
    match hand with
    | None -> end_to_end w live g md ~margin ~echo ~seconds
    | Some hand -> per_layer w ~seed live g md ~margin ~echo ~seconds ~hand
  in
  echo_stop echo;
  ok

let () =
  let mode = ref "" and wname = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 and sock = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string wname, "NAME workload");
      ("--seed", Arg.Set_int seed, "N op-stream seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--sock", Arg.Set_string sock, "PATH unix socket to serve on") ]
    (fun a -> mode := a)
    "wirebench.exe (setup|run) --workload NAME --seed N --sock PATH [--seconds S] [--trace 0|1]";
  let w =
    match List.find_opt (fun w -> w.w_name = !wname) workloads with
    | Some w -> w
    | None -> prerr_endline ("wirebench: unknown workload " ^ !wname); exit 2
  in
  if !sock = "" || (!mode <> "setup" && !mode <> "run") then begin
    prerr_endline "wirebench: need a mode (setup|run) and --sock"; exit 2
  end;
  let live, m = start w ~seed:!seed ~sock:!sock in
  let hand = if !mode = "run" && !trace = 1 then Some (spare ()) else None in
  let echo = if !mode = "run" then Some (echo_start ()) else None in
  print_endline "READY";
  match echo with
  | None -> stop live
  | Some echo -> if not (run w ~seed:!seed ~seconds:!seconds ~hand ~echo live m) then exit 1
