(* pmemkv-bench driver (the paper's §VI-B KV-store experiment, based on
   db_bench): four workload mixes over an engine (Fig. 5 runs cmap),
   16-byte keys, 1024-byte values, with a preloaded store. Every get,
   put and remove is a synchronous [Engine] call: a one-op group commit
   through [Engine.run_batch].

   Thread model: the simulator is a single address space without a real
   multi-socket testbed, so "threads" are logical shards — each shard's
   operation stream runs to completion and is timed; aggregate throughput
   is total_ops / max(shard time). Relative slowdowns at equal thread
   count — the quantity Fig. 5 reports — are preserved (see DESIGN.md). *)

type workload =
  | Update_heavy   (* 50% reads / 50% writes *)
  | Read_heavy     (* 95% reads / 5% writes *)
  | Random_reads
  | Seq_reads

let workload_name = function
  | Update_heavy -> "random reads/writes (50%-50%)"
  | Read_heavy -> "random reads/writes (95%-5%)"
  | Random_reads -> "random reads"
  | Seq_reads -> "sequential reads"

let all_workloads = [ Update_heavy; Read_heavy; Random_reads; Seq_reads ]

let key_of_int i = Printf.sprintf "key%013d" i   (* 16 bytes *)

let value_block = String.init 1024 (fun i -> Char.chr (33 + (i mod 90)))

let preload t ~keys =
  for i = 0 to keys - 1 do
    Engine.put t ~key:(key_of_int i) ~value:value_block
  done

type result = {
  threads : int;
  total_ops : int;
  elapsed : float;        (* max over shards *)
  median_shard : float;   (* robust per-shard cost estimator *)
  throughput : float;     (* ops/s *)
}

let run_shard t ~seed ~ops ~universe workload =
  let st = Random.State.make [| seed |] in
  let start = Spp_benchlib.Bench_util.now_mono () in
  (match workload with
   | Seq_reads ->
     for i = 0 to ops - 1 do
       ignore (Engine.get t (key_of_int ((seed + i) mod universe)))
     done
   | Update_heavy | Read_heavy | Random_reads ->
     let write_pct =
       match workload with
       | Update_heavy -> 50
       | Read_heavy -> 5
       | Random_reads | Seq_reads -> 0
     in
     for _ = 1 to ops do
       let k = key_of_int (Random.State.int st universe) in
       if Random.State.int st 100 < write_pct then
         Engine.put t ~key:k ~value:value_block
       else ignore (Engine.get t k)
     done);
  Spp_benchlib.Bench_util.now_mono () -. start

let run t ~threads ~ops_per_thread ~universe workload =
  (* measurements on a managed runtime: drain the GC before timing so a
     major collection from the previous configuration does not land in
     this one's window *)
  Gc.full_major ();
  let times =
    List.init threads (fun shard ->
      run_shard t ~seed:(1000 + shard) ~ops:ops_per_thread ~universe workload)
  in
  let elapsed = List.fold_left max 0. times in
  let sorted = Array.of_list (List.sort compare times) in
  let median_shard =
    (* even shard counts: average the two middle elements rather than
       taking the upper one *)
    let n = Array.length sorted in
    if n land 1 = 1 then sorted.(n / 2)
    else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.
  in
  let total_ops = threads * ops_per_thread in
  { threads; total_ops; elapsed; median_shard;
    (* --quick runs can finish below the clock's resolution; clamp the
       divisor so throughput never becomes inf/nan in JSON records *)
    throughput = float_of_int total_ops /. Float.max elapsed 1e-9 }
