(* db_bench streams over the sharded serving pipeline.

   The operation stream is generated once on the main domain as
   [Serve.request]s and routed into per-shard streams. [drive] submits
   one shard's stream through a [Serve] one op at a time; a caller runs
   every stream from one domain ([Array.mapi] over [drive]) or gives
   each its own domain. With one submitter per shard every routed op
   finds its shard idle and runs inline on the submitting domain as a
   one-op batch, so both ways execute the identical per-shard batches:
   replies, Space stats and Memdev counters must match bit for bit, and
   only the wall clock may differ. *)

open Spp_benchlib

type dist =
  | Uniform
  | Zipfian of float   (* theta in (0, 1); YCSB default 0.99 *)
  | Rotating of { theta : float; period : int }
      (* Zipfian whose hot set jumps to a fresh key region every
         [period] draws — the moving-hotspot workload the rebalancer
         chases; deterministic under the seed like the others *)

let dist_name = function
  | Uniform -> "uniform"
  | Zipfian theta -> Printf.sprintf "zipfian%.2f" theta
  | Rotating { theta; period } ->
    Printf.sprintf "rotating%.2f-%d" theta period

let write_pct (w : Spp_pmemkv.Db_bench.workload) =
  match w with
  | Spp_pmemkv.Db_bench.Update_heavy -> 50
  | Spp_pmemkv.Db_bench.Read_heavy -> 5
  | Spp_pmemkv.Db_bench.Random_reads | Spp_pmemkv.Db_bench.Seq_reads -> 0

(* A scan covers [scan_span] consecutive keys upward from its key: the
   key encoding is zero-padded, so lexicographic equals numeric order
   and [hi] is the key [scan_span - 1] indices further on. *)
let gen_ops ?(scan_pct = 0) ?(scan_span = 16) ?(scan_limit = 16) ~seed ~ops
    ~universe ~dist workload =
  let pct = write_pct workload in
  let gen =
    match dist with
    | Uniform -> Keygen.uniform ~seed ~universe
    | Zipfian theta -> Keygen.zipfian ~theta ~seed ~universe ()
    | Rotating { theta; period } ->
      Keygen.rotating ~theta ~seed ~universe ~period ()
  in
  (* separate stream for the op-mix coin so changing the key
     distribution never changes the op mix *)
  let coin = Random.State.make [| seed; 0x11C9 |] in
  Array.init ops (fun i ->
    let idx =
      match workload with
      | Spp_pmemkv.Db_bench.Seq_reads -> (seed + i) mod universe
      | _ -> Keygen.next gen
    in
    let key = Spp_pmemkv.Db_bench.key_of_int idx in
    (* one coin draw per op whatever the kind, so adding scans to a mix
       leaves the put/get decisions of the remaining ops untouched *)
    let roll = Random.State.int coin 100 in
    if roll < scan_pct then
      Serve.Scan
        { lo = key; hi = Spp_pmemkv.Db_bench.key_of_int (idx + scan_span - 1);
          limit = scan_limit }
    else if pct > 0 && roll - scan_pct < pct then
      Serve.Put { key; value = Spp_pmemkv.Db_bench.value_block }
    else Serve.Get key)

(* Route a global stream into per-shard streams, preserving program
   order within each shard; a scan goes to the shard owning its [lo].
   Partitioning depends only on the shard count, so every store of equal
   [nshards] sees identical streams. *)
let partition ~nshards ops =
  let buckets = Array.make nshards [] in
  Array.iter
    (fun op ->
      let key =
        match op with Serve.Scan { lo; _ } -> lo | r -> Serve.request_key r
      in
      let s = Shard.shard_of_key ~nshards key in
      buckets.(s) <- op :: buckets.(s))
    ops;
  Array.map (fun l -> Array.of_list (List.rev l)) buckets

let preload t ~keys =
  for i = 0 to keys - 1 do
    Shard.put t ~key:(Spp_pmemkv.Db_bench.key_of_int i)
      ~value:Spp_pmemkv.Db_bench.value_block
  done

(* Submit shard [i]'s stream one op at a time, awaiting each reply
   before the next submission. Keyed ops go through the router, which
   sends them to shard [i] on a store whose slot table is the static
   one; a scan has no routing key and is pinned with [submit_to]. *)
let drive sv i stream =
  Array.map
    (fun req ->
      let tk =
        match req with
        | Serve.Scan _ -> Serve.submit_to sv i req
        | _ -> Serve.submit sv req
      in
      Serve.await sv tk)
    stream
